"""YAML configuration documents for the command-line interface.

A config file has a ``schema_version`` plus sections for the simulation
grid, the network (either the XOR preset or an explicit topology), input
encoding, training, an optional fixed stimulus, and an optional latency
sweep.  Unknown keys anywhere are rejected with the offending key path so
typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Optional

import yaml

from . import defaults
from .errors import ConfigError
from .macrospin import MacrospinParams
from .network import Network, Neuron, SimConfig, Source, Synapse
from .tlr import TlrParams
from .xorbench import EncodingConfig

SCHEMA_VERSION = 1

_TLR_FIELDS = {f.name for f in dataclasses.fields(TlrParams)}
_MACROSPIN_FIELDS = {f.name for f in dataclasses.fields(MacrospinParams)}


@dataclass(frozen=True)
class TrainSpec:
    eta: float = defaults.TRAIN_ETA
    fd_epsilon: float = 1e-3
    max_epochs: int = defaults.TRAIN_MAX_EPOCHS
    tol: float = defaults.TRAIN_TOL
    no_spike_penalty_time: Optional[float] = None
    seed: int = 2
    seeds: tuple[int, ...] = defaults.XOR_SEEDS
    init_jitter: float = defaults.TRAIN_INIT_JITTER
    dt: float = defaults.TRAIN_DT   # training-time simulation grid


@dataclass(frozen=True)
class SweepSpec:
    backend: str = "tlr"
    drives: tuple[float, ...] = ()
    dt: float = 0.005
    horizon: float = 15.0
    params: Any = None   # TlrParams or MacrospinParams


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


def _check_keys(section: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(section) - allowed)
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


def _bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"expected true or false, got {value!r}", key=path)
    return value


def _number_list(value: Any, path: str) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(f"expected a list of numbers, got {value!r}", key=path)
    return [_number(v, f"{path}[{k}]") for k, v in enumerate(value)]


def _build_tlr(fields: dict, path: str, base: Optional[TlrParams] = None) -> TlrParams:
    _check_keys(fields, _TLR_FIELDS, path)
    base = base or TlrParams()
    clean = {k: _number(v, f"{path}.{k}") for k, v in fields.items()}
    try:
        return dataclasses.replace(base, **clean)
    except Exception as exc:
        raise ConfigError(str(exc), key=path) from exc


def _build_macrospin(fields: dict, path: str) -> MacrospinParams:
    _check_keys(fields, _MACROSPIN_FIELDS, path)
    clean = {}
    for k, v in fields.items():
        if k == "polarizer":
            vals = _number_list(v, f"{path}.{k}")
            if len(vals) != 3:
                raise ConfigError("expected a 3-vector", key=f"{path}.{k}")
            clean[k] = tuple(vals)
        else:
            clean[k] = _number(v, f"{path}.{k}")
    if "transistor_k" in clean and not clean["transistor_k"] > 0:
        raise ConfigError("transistor_k must be > 0", key=f"{path}.transistor_k")
    try:
        return MacrospinParams(**clean)
    except Exception as exc:
        raise ConfigError(str(exc), key=path) from exc


def _check_grid(dt: float, horizon: float, path: str) -> None:
    """The SimConfig grid rule, naming the offending key, and a horizon
    that is a whole number of ``dt`` steps (the simulators run
    ``round(horizon / dt)`` steps, so an off-grid horizon would be cut)."""
    if not 0 < dt <= 0.01:
        raise ConfigError("dt must be in (0, 0.01] ns", key=f"{path}.dt")
    if horizon < 10 * dt:
        raise ConfigError("horizon must be >= 10*dt", key=f"{path}.horizon")
    steps = horizon / dt
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ConfigError(f"horizon must be a whole number of dt = {dt!r} ns steps",
                          key=f"{path}.horizon")


def _parse_sim(section: dict, path: str) -> SimConfig:
    _check_keys(section, {"dt", "horizon"}, path)
    dt = _number(section.get("dt", defaults.SIM_DT), f"{path}.dt")
    horizon = _number(section.get("horizon", defaults.SIM_HORIZON), f"{path}.horizon")
    _check_grid(dt, horizon, path)
    return SimConfig(dt=dt, horizon=horizon)


def _parse_preset_network(section: dict, path: str) -> Network:
    from .xorbench import build_xor_network

    _check_keys(
        section,
        {"preset", "bias_to_output", "source_amplitude", "source_duration", "neurons", "weights"},
        path,
    )
    params = dict(defaults.XOR_NEURON_PARAMS)
    for nid, fields in _expect_mapping(section.get("neurons", {}), f"{path}.neurons").items():
        if nid not in params:
            raise ConfigError(f"unknown neuron {nid!r}", key=f"{path}.neurons.{nid}")
        fields = _expect_mapping(fields, f"{path}.neurons.{nid}")
        params[nid] = _build_tlr(fields, f"{path}.neurons.{nid}", base=params[nid])

    weights = dict(defaults.XOR_WEIGHTS)
    for edge, w in _expect_mapping(section.get("weights", {}), f"{path}.weights").items():
        if edge not in weights:
            raise ConfigError(f"unknown edge {edge!r}", key=f"{path}.weights.{edge}")
        weights[edge] = _number(w, f"{path}.weights.{edge}")

    return build_xor_network(
        params=params,
        weights=weights,
        bias_to_output=_bool(section.get("bias_to_output", True), f"{path}.bias_to_output"),
        source_amplitude=_number(
            section.get("source_amplitude", defaults.XOR_SOURCE_AMPLITUDE),
            f"{path}.source_amplitude",
        ),
        source_duration=_number(
            section.get("source_duration", defaults.XOR_SOURCE_DURATION),
            f"{path}.source_duration",
        ),
    )


def _parse_explicit_network(section: dict, path: str) -> Network:
    _check_keys(section, {"sources", "neurons", "synapses"}, path)
    sources = []
    for k, item in enumerate(section.get("sources", [])):
        p = f"{path}.sources[{k}]"
        item = _expect_mapping(item, p)
        _check_keys(item, {"id", "spike_times", "amplitude", "duration"}, p)
        if "id" not in item:
            raise ConfigError("source needs an id", key=p)
        sources.append(Source(
            id=str(item["id"]),
            spike_times=tuple(_number_list(item.get("spike_times", []), f"{p}.spike_times")),
            amplitude=_number(item.get("amplitude", 1.0), f"{p}.amplitude"),
            duration=_number(item.get("duration", 1.2), f"{p}.duration"),
        ))
    neurons = []
    for k, item in enumerate(section.get("neurons", [])):
        p = f"{path}.neurons[{k}]"
        item = _expect_mapping(item, p)
        _check_keys(item, {"id", "backend", "params"}, p)
        if "id" not in item:
            raise ConfigError("neuron needs an id", key=p)
        backend = str(item.get("backend", "tlr"))
        fields = _expect_mapping(item.get("params", {}), f"{p}.params")
        if backend == "tlr":
            params = _build_tlr(fields, f"{p}.params")
        elif backend == "macrospin":
            params = _build_macrospin(fields, f"{p}.params")
        else:
            raise ConfigError(f"unknown backend {backend!r}", key=f"{p}.backend")
        neurons.append(Neuron(id=str(item["id"]), backend=backend, params=params))
    synapses = []
    for k, item in enumerate(section.get("synapses", [])):
        p = f"{path}.synapses[{k}]"
        item = _expect_mapping(item, p)
        _check_keys(item, {"pre", "post", "weight"}, p)
        for req in ("pre", "post", "weight"):
            if req not in item:
                raise ConfigError(f"synapse needs {req!r}", key=p)
        synapses.append(Synapse(
            pre=str(item["pre"]), post=str(item["post"]),
            weight=_number(item["weight"], f"{p}.weight"),
        ))
    return Network(neurons=tuple(neurons), synapses=tuple(synapses), sources=tuple(sources))


def _parse_network(section: dict, path: str) -> Network:
    if "preset" in section:
        preset = section["preset"]
        if preset != "xor":
            raise ConfigError(f"unknown preset {preset!r}", key=f"{path}.preset")
        return _parse_preset_network(section, path)
    return _parse_explicit_network(section, path)


def _parse_encoding(section: dict, path: str) -> EncodingConfig:
    _check_keys(section, {"mode", "t_spike", "t_bit0", "t_bit1", "bias_period"}, path)
    try:
        return EncodingConfig(
            mode=str(section.get("mode", "presence")),
            t_spike=_number(section.get("t_spike", 0.0), f"{path}.t_spike"),
            t_bit0=_number(section.get("t_bit0", 0.5), f"{path}.t_bit0"),
            t_bit1=_number(section.get("t_bit1", 0.0), f"{path}.t_bit1"),
            bias_period=(
                None if section.get("bias_period") is None
                else _number(section["bias_period"], f"{path}.bias_period")
            ),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc), key=path) from exc


def _parse_train(section: dict, path: str) -> TrainSpec:
    allowed = {"eta", "fd_epsilon", "max_epochs", "tol", "no_spike_penalty_time",
               "seed", "seeds", "init_jitter", "dt"}
    _check_keys(section, allowed, path)
    seeds = section.get("seeds", list(defaults.XOR_SEEDS))
    if not isinstance(seeds, list):
        raise ConfigError("expected a list of integers", key=f"{path}.seeds")
    spec = TrainSpec(
        eta=_number(section.get("eta", defaults.TRAIN_ETA), f"{path}.eta"),
        fd_epsilon=_number(section.get("fd_epsilon", 1e-3), f"{path}.fd_epsilon"),
        max_epochs=_int(section.get("max_epochs", defaults.TRAIN_MAX_EPOCHS),
                        f"{path}.max_epochs"),
        tol=_number(section.get("tol", defaults.TRAIN_TOL), f"{path}.tol"),
        no_spike_penalty_time=(
            None if section.get("no_spike_penalty_time") is None
            else _number(section["no_spike_penalty_time"], f"{path}.no_spike_penalty_time")
        ),
        seed=_int(section.get("seed", 2), f"{path}.seed"),
        seeds=tuple(_int(s, f"{path}.seeds[{k}]") for k, s in enumerate(seeds)),
        init_jitter=_number(section.get("init_jitter", defaults.TRAIN_INIT_JITTER),
                            f"{path}.init_jitter"),
        dt=_number(section.get("dt", defaults.TRAIN_DT), f"{path}.dt"),
    )
    if spec.eta < 0:
        raise ConfigError("eta must be >= 0", key=f"{path}.eta")
    if not spec.fd_epsilon > 0:
        raise ConfigError("fd_epsilon must be > 0", key=f"{path}.fd_epsilon")
    if not spec.tol > 0:
        raise ConfigError("tol must be > 0", key=f"{path}.tol")
    if not 0 < spec.dt <= 0.01:
        raise ConfigError("dt must be in (0, 0.01] ns", key=f"{path}.dt")
    if spec.init_jitter < 0:
        raise ConfigError("init_jitter must be >= 0", key=f"{path}.init_jitter")
    return spec


def _parse_sweep(section: dict, path: str) -> SweepSpec:
    _check_keys(section, {"backend", "drives", "dt", "horizon", "params"}, path)
    backend = str(section.get("backend", "tlr"))
    if backend not in ("tlr", "macrospin"):
        raise ConfigError(f"unknown backend {backend!r}", key=f"{path}.backend")
    drives = tuple(_number_list(section.get("drives", []), f"{path}.drives"))
    if not drives:
        raise ConfigError("sweep needs at least one drive level", key=f"{path}.drives")
    fields = _expect_mapping(section.get("params", {}), f"{path}.params")
    if backend == "tlr":
        params = _build_tlr(fields, f"{path}.params")
    else:
        params = _build_macrospin(fields, f"{path}.params")
    dt = _number(section.get("dt", 0.005), f"{path}.dt")
    horizon = _number(section.get("horizon", 15.0), f"{path}.horizon")
    _check_grid(dt, horizon, path)
    return SweepSpec(backend=backend, drives=drives, dt=dt, horizon=horizon, params=params)


def _parse_stimulus(section: dict, path: str, net: Network) -> dict[str, list[float]]:
    source_ids = {s.id for s in net.sources}
    stimulus = {}
    for sid, times in section.items():
        if sid not in source_ids:
            raise ConfigError(f"unknown source {sid!r}", key=f"{path}.{sid}")
        stimulus[sid] = _number_list(times, f"{path}.{sid}")
    return stimulus


def parse_config(document: Any) -> Config:
    """Build a validated Config from already-loaded YAML data."""
    document = _expect_mapping(document, "<root>")
    _check_keys(
        document,
        {"schema_version", "sim", "network", "encoding", "train", "stimulus", "sweep"},
        "<root>",
    )
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

    sim = _parse_sim(_expect_mapping(document.get("sim", {}), "sim"), "sim")
    net = _parse_network(_expect_mapping(document["network"], "network"), "network")
    encoding = _parse_encoding(_expect_mapping(document.get("encoding", {}), "encoding"), "encoding")
    train = _parse_train(_expect_mapping(document.get("train", {}), "train"), "train")
    stimulus = None
    if "stimulus" in document:
        stimulus = _parse_stimulus(_expect_mapping(document["stimulus"], "stimulus"), "stimulus", net)
    sweep = None
    if "sweep" in document:
        sweep = _parse_sweep(_expect_mapping(document["sweep"], "sweep"), "sweep")
    return Config(
        schema_version=SCHEMA_VERSION,
        sim=sim,
        network=net,
        encoding=encoding,
        train=train,
        stimulus=stimulus,
        sweep=sweep,
    )


def load_config(path) -> Config:
    """Read and validate a YAML config file."""
    try:
        with open(path) as fh:
            document = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}", key="<file>") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}", key="<file>") from exc
    return parse_config(document)
