"""YAML configuration documents for the command-line interface.

A config file has a ``schema_version`` plus sections for the simulation
grid, the network (either the XOR preset or an explicit topology), input
encoding, training, an optional fixed stimulus, and an optional latency
sweep.  Each section is built from the dataclass that holds it: the
dataclass's fields are the section's keys, defaults and value types, and
its ``__post_init__`` holds the range rules.  Unknown and repeated keys
anywhere are rejected with the offending key path so typos fail loudly
instead of silently using defaults.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field
from typing import Any, Optional

import yaml

from . import defaults
from .errors import ConfigError, InvalidInputError
from .network import (
    BACKEND_PARAMS,
    MACROSPIN_BACKEND,
    TLR_BACKEND,
    Network,
    Neuron,
    SimConfig,
    Source,
    Synapse,
)
from .tlr import TlrParams, _check_dt
from .trainer import TrainConfig
from .xorbench import EncodingConfig, build_xor_network

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TrainSpec(TrainConfig):
    """The ``train`` section: a TrainConfig plus the seeds, the initial
    weight jitter and the grid that training simulates on."""

    eta: float = defaults.TRAIN_ETA
    max_epochs: int = defaults.TRAIN_MAX_EPOCHS
    seed: int = 2
    seeds: tuple[int, ...] = defaults.XOR_SEEDS
    init_jitter: float = defaults.TRAIN_INIT_JITTER
    dt: float = defaults.TRAIN_DT   # training-time simulation grid

    def __post_init__(self):
        super().__post_init__()
        _check_dt(self.dt)
        if self.init_jitter < 0:
            raise InvalidInputError("init_jitter must be >= 0", key="init_jitter")
        if not math.isfinite(2.0 * self.init_jitter):   # the range of the uniform draw
            raise InvalidInputError("2 * init_jitter must be finite", key="init_jitter")
        if self.seed < 0:
            raise InvalidInputError("seed must be >= 0", key="seed")
        for k, seed in enumerate(self.seeds):
            if seed < 0:
                raise InvalidInputError("seeds must be >= 0", key=f"seeds[{k}]")


@dataclass(frozen=True)
class SweepSpec:
    backend: str = TLR_BACKEND
    drives: tuple[float, ...] = ()
    dt: float = 0.005
    horizon: float = 15.0
    params: Any = None   # TlrParams or MacrospinParams

    def __post_init__(self):
        if not self.drives:
            raise InvalidInputError("sweep needs at least one drive level", key="drives")
        SimConfig(dt=self.dt, horizon=self.horizon)   # the grid rule


@dataclass(frozen=True)
class Config:
    schema_version: int
    sim: SimConfig
    network: Network
    encoding: EncodingConfig = field(default_factory=EncodingConfig)
    train: TrainSpec = field(default_factory=TrainSpec)
    stimulus: Optional[dict[str, list[float]]] = None
    sweep: Optional[SweepSpec] = None


def _expect_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"expected a mapping, got {type(value).__name__}", key=path)
    return value


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"expected a list, got {type(value).__name__}", key=path)
    return value


def _check_keys(section: dict, allowed: set[str], path: str) -> None:
    unknown = [k for k in section if k not in allowed]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}", key=f"{path}.{unknown[0]}")


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", key=path)
    try:
        number = float(value)
    except OverflowError:   # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"expected a finite number, got {value!r}", key=path)
    return number


def _int(value: Any, path: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", key=path)
    return value


def _str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"expected a string, got {value!r}", key=path)
    return value


_SCALARS = {float: _number, int: _int, str: _str}


def _value(kind: Any, value: Any, path: str) -> Any:
    """``value`` as a field of type ``kind``: a scalar or a tuple (of fixed
    length, or ``tuple[x, ...]``)."""
    if kind in _SCALARS:
        return _SCALARS[kind](value, path)
    args = typing.get_args(kind)
    items = _expect_list(value, path)
    if args[-1] is not Ellipsis and len(items) != len(args):
        raise ConfigError(f"expected {len(args)} values, got {len(items)}", key=path)
    return tuple(_value(args[0], v, f"{path}[{k}]") for k, v in enumerate(items))


def _build(cls, section: Any, path: str, base: Any = None, **fixed: Any) -> Any:
    """A ``cls`` from the mapping ``section``.  ``cls``'s fields give the
    allowed keys, the defaults (``base``'s values, when given), the required
    keys and each value's type; ``fixed`` holds fields the caller built.
    A range rule of ``cls`` that fails is re-raised keyed ``<path>.<field>``."""
    section = _expect_mapping(section, path)
    fields = dataclasses.fields(cls)
    _check_keys(section, {f.name for f in fields}, path)
    kinds = typing.get_type_hints(cls)
    values = {k: _value(kinds[k], v, f"{path}.{k}") for k, v in section.items() if k not in fixed}
    values.update(fixed)
    for f in fields:
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and base is None and f.name not in values:
            raise ConfigError(f"missing required key {f.name!r}", key=f"{path}.{f.name}")
    try:
        return cls(**values) if base is None else dataclasses.replace(base, **values)
    except InvalidInputError as exc:
        raise ConfigError(str(exc), key=f"{path}.{exc.key}" if exc.key else path) from exc


def _build_with_params(cls, section: Any, path: str) -> Any:
    """A Neuron or SweepSpec, whose ``params`` are the parameter class of
    its ``backend``."""
    section = _expect_mapping(section, path)
    backend = _str(section.get("backend", cls.backend), f"{path}.backend")
    if backend not in BACKEND_PARAMS:
        raise ConfigError(f"unknown backend {backend!r}", key=f"{path}.backend")
    params = _build(BACKEND_PARAMS[backend], section.get("params", {}), f"{path}.params")
    # not a MacrospinParams rule: tests build such params to reach the circuit solve's error
    if backend == MACROSPIN_BACKEND and not params.transistor_k > 0:
        raise ConfigError("transistor_k must be > 0", key=f"{path}.params.transistor_k")
    return _build(cls, section, path, params=params)


def _parse_preset_network(section: dict, path: str) -> Network:
    _check_keys(section, {"preset", "source_amplitude", "source_duration", "neurons", "weights"},
                path)
    params = dict(defaults.XOR_NEURON_PARAMS)
    for nid, fields in _expect_mapping(section.get("neurons", {}), f"{path}.neurons").items():
        if nid not in params:
            raise ConfigError(f"unknown neuron {nid!r}", key=f"{path}.neurons.{nid}")
        params[nid] = _build(TlrParams, fields, f"{path}.neurons.{nid}", base=params[nid])

    weights = dict(defaults.XOR_WEIGHTS)
    for edge, w in _expect_mapping(section.get("weights", {}), f"{path}.weights").items():
        if edge not in weights:
            raise ConfigError(f"unknown edge {edge!r}", key=f"{path}.weights.{edge}")
        weights[edge] = _number(w, f"{path}.weights.{edge}")

    try:
        return build_xor_network(
            params=params,
            weights=weights,
            source_amplitude=_number(
                section.get("source_amplitude", defaults.XOR_SOURCE_AMPLITUDE),
                f"{path}.source_amplitude",
            ),
            source_duration=_number(
                section.get("source_duration", defaults.XOR_SOURCE_DURATION),
                f"{path}.source_duration",
            ),
        )
    except InvalidInputError as exc:   # Source's duration rule, the one rule the preset can break
        raise ConfigError(str(exc), key=f"{path}.source_duration") from exc


def _parse_network(section: Any, path: str) -> Network:
    section = _expect_mapping(section, path)
    if "preset" in section:
        preset = section["preset"]
        if preset != "xor":
            raise ConfigError(f"unknown preset {preset!r}", key=f"{path}.preset")
        return _parse_preset_network(section, path)

    def each(name: str, build, cls) -> tuple:
        items = _expect_list(section.get(name, []), f"{path}.{name}")
        return tuple(build(cls, item, f"{path}.{name}[{k}]") for k, item in enumerate(items))

    return _build(
        Network, section, path,
        sources=each("sources", _build, Source),
        neurons=each("neurons", _build_with_params, Neuron),
        synapses=each("synapses", _build, Synapse),
    )


def _parse_stimulus(section: Any, path: str, net: Network) -> dict[str, list[float]]:
    source_ids = {s.id for s in net.sources}
    stimulus = {}
    for sid, times in _expect_mapping(section, path).items():
        if sid not in source_ids:
            raise ConfigError(f"unknown source {sid!r}", key=f"{path}.{sid}")
        stimulus[sid] = list(_value(tuple[float, ...], times, f"{path}.{sid}"))
    return stimulus


def _check_schedules(sim: SimConfig, net: Network, encoding: EncodingConfig,
                     stimulus: Optional[dict[str, list[float]]]) -> None:
    """Every spike time a run would schedule must lie in [0, sim.horizon]."""
    times = [(t, f"network.sources[{k}].spike_times[{j}]")
             for k, src in enumerate(net.sources) for j, t in enumerate(src.spike_times)]
    times += [(t, f"stimulus.{sid}[{k}]")
              for sid, ts in (stimulus or {}).items() for k, t in enumerate(ts)]
    times.append((encoding.t_spike, "encoding.t_spike"))
    for t, path in times:
        if not 0 <= t <= sim.horizon:
            raise ConfigError(f"spike time {t!r} outside [0, sim.horizon = {sim.horizon!r}] ns",
                              key=path)


def parse_config(document: Any) -> Config:
    """Build a validated Config from already-loaded YAML data."""
    document = _expect_mapping(document, "<root>")
    _check_keys(document, {f.name for f in dataclasses.fields(Config)}, "<root>")
    if "schema_version" not in document:
        raise ConfigError("missing schema_version", key="schema_version")
    version = document["schema_version"]
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})",
            key="schema_version",
        )
    if "network" not in document:
        raise ConfigError("missing network section", key="network")

    sim = _build(SimConfig, document.get("sim", {}), "sim")
    net = _parse_network(document["network"], "network")
    encoding = _build(EncodingConfig, document.get("encoding", {}), "encoding")
    stimulus = (None if "stimulus" not in document
                else _parse_stimulus(document["stimulus"], "stimulus", net))
    _check_schedules(sim, net, encoding, stimulus)
    return Config(
        schema_version=SCHEMA_VERSION,
        sim=sim,
        network=net,
        encoding=encoding,
        train=_build(TrainSpec, document.get("train", {}), "train"),
        stimulus=stimulus,
        sweep=(None if "sweep" not in document
               else _build_with_params(SweepSpec, document["sweep"], "sweep")),
    )


def _check_unique_keys(node: yaml.Node, path: str, seen: set[int]) -> None:
    """Reject a key that a mapping under ``node`` repeats, keyed at its
    path.  Keys compare by tag and text, and a ``<<`` merge key is one key:
    the keys it merges in may be overridden.  ``seen`` holds the nodes
    checked, so an aliased node is checked once, where its anchor is."""
    if id(node) in seen:
        return
    seen.add(id(node))
    if isinstance(node, yaml.MappingNode):
        keys = set()
        for key, value in node.value:
            if not isinstance(key, yaml.ScalarNode):
                continue   # an unhashable key, which construction rejects
            sub = f"{path}.{key.value}" if path else key.value
            if (key.tag, key.value) in keys:
                raise ConfigError(f"duplicate key {key.value!r}", key=sub)
            keys.add((key.tag, key.value))
            _check_unique_keys(value, sub, seen)
    elif isinstance(node, yaml.SequenceNode):
        for k, item in enumerate(node.value):
            _check_unique_keys(item, f"{path}[{k}]", seen)


class _Loader(yaml.SafeLoader):
    """A SafeLoader that rejects a repeated key before it builds the document."""

    def compose_document(self):
        node = super().compose_document()
        _check_unique_keys(node, "", set())
        return node


def load_config(path) -> Config:
    """Read and validate a YAML config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            document = yaml.load(fh, Loader=_Loader)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}", key="<file>") from exc
    except OSError as exc:   # a directory, no permission, a failed read
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}",
                          key="<file>") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path}: not UTF-8 text ({exc.reason})",
                          key="<file>") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}", key="<file>") from exc
    return parse_config(document)
