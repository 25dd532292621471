"""Config parsing: schema validation, strict keys, preset and explicit networks."""

import copy
import dataclasses
import math
import os
import re
import sys

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mtjsnn.config import Config, SweepSpec, TrainSpec, load_config, parse_config
from mtjsnn.errors import ConfigError
from mtjsnn.macrospin import MacrospinParams
from mtjsnn.network import Network, Neuron, SimConfig, Source, Synapse
from mtjsnn.tlr import _MAX_STEPS, TlrParams
from mtjsnn.xorbench import EncodingConfig

XOR_YAML = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "configs", "xor.yaml")


def minimal(**overrides):
    doc = {"schema_version": 1, "network": {"preset": "xor"}}
    doc.update(overrides)
    return doc


class TestSchema:
    def test_minimal_document(self):
        cfg = parse_config(minimal())
        assert cfg.schema_version == 1
        assert len(cfg.network.synapses) == 9
        assert cfg.sim.dt == 0.001 and cfg.sim.horizon == 5.0

    def test_missing_schema_version(self):
        with pytest.raises(ConfigError) as e:
            parse_config({"network": {"preset": "xor"}})
        assert e.value.key == "schema_version"

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(schema_version=99))
        assert e.value.key == "schema_version"

    def test_missing_network(self):
        with pytest.raises(ConfigError) as e:
            parse_config({"schema_version": 1})
        assert e.value.key == "network"

    def test_unknown_root_key(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(bogus=1))
        assert e.value.key == "<root>.bogus"

    def test_non_mapping_document(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2, 3])


class TestSimSection:
    def test_negative_dt_names_key(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(sim={"dt": -0.001}))
        assert e.value.key.startswith("sim")

    def test_unknown_sim_key(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(sim={"dtt": 0.001}))
        assert e.value.key == "sim.dtt"

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(sim={"dt": "fast"}))
        assert e.value.key == "sim.dt"


class TestPresetNetwork:
    def test_neuron_override(self):
        cfg = parse_config(minimal(
            network={"preset": "xor", "neurons": {"o1": {"t_refractory": 0.0}}}))
        assert cfg.network.neuron("o1").params.t_refractory == 0.0
        # other neurons untouched
        assert cfg.network.neuron("i1").params.t_refractory == 5.0

    def test_weight_override(self):
        cfg = parse_config(minimal(
            network={"preset": "xor", "weights": {"bias->i1": 1.3}}))
        w = {f"{s.pre}->{s.post}": s.weight for s in cfg.network.synapses}
        assert w["bias->i1"] == 1.3

    def test_unknown_neuron_rejected(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(network={"preset": "xor", "neurons": {"i9": {}}}))
        assert e.value.key == "network.neurons.i9"

    def test_unknown_edge_rejected(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(network={"preset": "xor", "weights": {"A->o1": 1.0}}))
        assert e.value.key == "network.weights.A->o1"

    @pytest.mark.parametrize("doc,key", [
        (minimal(network={"preset": "xor", "neurons": {"o1": {"tau": 1.0}}}),
         "network.neurons.o1.tau"),
        # the TLR neuron has one refraction, the absolute window t_refractory
        (minimal(network={"preset": "xor", "neurons": {"o1": {"rel_refraction_beta": 0.5}}}),
         "network.neurons.o1.rel_refraction_beta"),
        ({"schema_version": 1, "network": {
            "sources": [{"id": "s", "spike_times": [0.0]}],
            "neurons": [{"id": "n", "params": {"rel_refraction_tau": 2.0}}],
            "synapses": [{"pre": "s", "post": "n", "weight": 3.0}]}},
         "network.neurons[0].params.rel_refraction_tau"),
        (minimal(sweep={"drives": [1.5], "params": {"rel_refraction_beta": 0.5}}),
         "sweep.params.rel_refraction_beta"),
        # the preset always has its bias->o1 edge
        (minimal(network={"preset": "xor", "bias_to_output": False}), "network.bias_to_output"),
        # a silent output always scores sim.horizon
        (minimal(train={"no_spike_penalty_time": 1.0}), "train.no_spike_penalty_time"),
    ], ids=["tau", "preset-beta", "explicit-tau", "sweep-beta", "bias-to-output",
            "no-spike-penalty"])
    def test_unknown_param_field_rejected(self, doc, key):
        with pytest.raises(ConfigError, match="unknown key") as e:
            parse_config(doc)
        assert e.value.key == key

    def test_unknown_preset(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(network={"preset": "nand"}))
        assert e.value.key == "network.preset"


class TestExplicitNetwork:
    DOC = {
        "schema_version": 1,
        "network": {
            "sources": [{"id": "s", "spike_times": [0.0], "duration": 2.0}],
            "neurons": [
                {"id": "n", "backend": "tlr", "params": {"latency_floor": 0.2}},
                {"id": "m", "backend": "macrospin",
                 "params": {"alpha": 0.05, "polarizer": [0.0, 1.0, 0.0]}},
            ],
            "synapses": [{"pre": "s", "post": "n", "weight": 3.0}],
        },
    }

    def test_parses(self):
        cfg = parse_config(self.DOC)
        assert cfg.network.neuron("n").params.latency_floor == 0.2
        assert cfg.network.neuron("m").backend == "macrospin"
        assert cfg.network.neuron("m").params.alpha == 0.05

    def test_unknown_backend(self):
        doc = {"schema_version": 1, "network": {
            "neurons": [{"id": "n", "backend": "quantum"}]}}
        with pytest.raises(ConfigError) as e:
            parse_config(doc)
        assert "backend" in e.value.key

    def test_synapse_requires_fields(self):
        doc = {"schema_version": 1, "network": {
            "neurons": [{"id": "n"}],
            "synapses": [{"pre": "n", "post": "n"}]}}
        with pytest.raises(ConfigError):
            parse_config(doc)


class TestTrainSection:
    def test_defaults(self):
        cfg = parse_config(minimal())
        assert cfg.train.eta == 0.2
        assert cfg.train.seeds == (1, 2, 3, 4, 5)

    def test_negative_eta_rejected(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(train={"eta": -0.1}))
        assert e.value.key == "train.eta"

    @pytest.mark.parametrize("key,value", [
        ("max_epochs", "abc"),
        ("max_epochs", 2.9),
        ("max_epochs", True),
        ("seed", "x"),
        ("seed", 1.5),
        ("seed", float("inf")),
    ])
    def test_bad_integer_names_key(self, key, value):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(train={key: value}))
        assert e.value.key == f"train.{key}"

    def test_integral_float_accepted(self):
        cfg = parse_config(minimal(train={"max_epochs": 3.0, "seed": 4}))
        assert cfg.train.max_epochs == 3 and isinstance(cfg.train.max_epochs, int)
        assert cfg.train.seed == 4

    def test_parallel_is_unknown_key(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(train={"parallel": False}))
        assert e.value.key == "train.parallel"

    def test_bad_seeds(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(train={"seeds": "abc"}))
        assert e.value.key == "train.seeds"

    @pytest.mark.parametrize("seeds,key", [
        ([True, 2], "train.seeds[0]"),
        ([1, "x"], "train.seeds[1]"),
        ([1, 2.5], "train.seeds[1]"),
        ([1, -2], "train.seeds[1]"),
        ([-1, 2], "train.seeds[0]"),
    ])
    def test_bad_seed_element_names_key(self, seeds, key):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(train={"seeds": seeds}))
        assert e.value.key == key

    @pytest.mark.parametrize("key,value", [
        ("fd_epsilon", 0),
        ("fd_epsilon", -1e-3),
        ("tol", 0),
        ("tol", -0.05),
        ("dt", 0),
        ("dt", 0.02),
        ("dt", -0.002),
        ("max_epochs", 0),
        ("max_epochs", -3),
        ("seed", -1),
        # 2 * init_jitter, the range of the uniform draw, overflows
        ("init_jitter", 1.0e308),
        ("init_jitter", 9.0e307),
        ("init_jitter", math.nextafter(sys.float_info.max / 2, math.inf)),
    ])
    def test_out_of_range_names_key(self, key, value):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(train={key: value}))
        assert e.value.key == f"train.{key}"

    def test_range_edges_accepted(self):
        cfg = parse_config(minimal(train={"dt": 0.01, "fd_epsilon": 1e-6, "tol": 1e-4}))
        assert (cfg.train.dt, cfg.train.fd_epsilon, cfg.train.tol) == (0.01, 1e-6, 1e-4)

    def test_largest_jitter_accepted(self):
        jitter = sys.float_info.max / 2
        assert parse_config(minimal(train={"init_jitter": jitter})).train.init_jitter == jitter


class TestStimulusAndSweep:
    def test_stimulus_validated_against_sources(self):
        cfg = parse_config(minimal(stimulus={"A": [0.0], "bias": [0.0]}))
        assert cfg.stimulus == {"A": [0.0], "bias": [0.0]}
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(stimulus={"Z": [0.0]}))
        assert e.value.key == "stimulus.Z"

    def test_sweep_requires_drives(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(sweep={"backend": "tlr"}))
        assert e.value.key == "sweep.drives"

    def test_sweep_backends(self):
        cfg = parse_config(minimal(sweep={"backend": "macrospin", "drives": [1.0, 1.5]}))
        assert cfg.sweep.backend == "macrospin"
        with pytest.raises(ConfigError):
            parse_config(minimal(sweep={"backend": "mystery", "drives": [1.0]}))


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("doc,key", [
        (minimal(train={"eta": math.nan}), "train.eta"),
        (minimal(train={"fd_epsilon": math.inf}), "train.fd_epsilon"),
        (minimal(sim={"horizon": math.inf}), "sim.horizon"),
        (minimal(network={"preset": "xor", "neurons": {"i1": {"t_refractory": math.inf}}}),
         "network.neurons.i1.t_refractory"),
        (minimal(network={"preset": "xor", "weights": {"A->i1": -math.inf}}),
         "network.weights.A->i1"),
        (minimal(stimulus={"A": [math.nan]}), "stimulus.A[0]"),
        (minimal(train={"eta": 10 ** 400}), "train.eta"),
    ])
    def test_rejected_with_key(self, doc, key):
        with pytest.raises(ConfigError, match="finite") as e:
            parse_config(doc)
        assert e.value.key == key


class TestSweepRanges:
    @pytest.mark.parametrize("sweep,key", [
        ({"dt": 0.0}, "sweep.dt"),
        ({"dt": 0.02}, "sweep.dt"),
        ({"horizon": -1.0}, "sweep.horizon"),
        ({"dt": 0.01, "horizon": 0.05}, "sweep.horizon"),
        ({"backend": "macrospin", "params": {"transistor_k": -1.0}},
         "sweep.params.transistor_k"),
        ({"backend": "macrospin", "params": {"transistor_k": 0}},
         "sweep.params.transistor_k"),
    ])
    def test_out_of_range_names_key(self, sweep, key):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(sweep={"drives": [1.5], **sweep}))
        assert e.value.key == key

    def test_range_edges_accepted(self):
        cfg = parse_config(minimal(sweep={"drives": [1.5], "dt": 0.01, "horizon": 0.1}))
        assert (cfg.sweep.dt, cfg.sweep.horizon) == (0.01, 0.1)


def grid_doc(section, dt, horizon):
    grid = {"dt": dt, "horizon": horizon}
    return minimal(**{section: {**grid, "drives": [1.5]} if section == "sweep" else grid})


class TestGrid:
    @pytest.mark.parametrize("section", ["sim", "sweep"])
    @pytest.mark.parametrize("dt,horizon", [
        (0.001, 5.0), (0.001, 0.3), (0.001, 160.0), (0.002, 5.0), (0.005, 15.0),
        (0.01, 0.1), (0.007, 0.7), (0.0003, 1.0002), (0.001, 5.000000000001),
    ])
    def test_on_grid_horizon_accepted(self, section, dt, horizon):
        cfg = parse_config(grid_doc(section, dt, horizon))
        assert (getattr(cfg, section).dt, getattr(cfg, section).horizon) == (dt, horizon)

    @pytest.mark.parametrize("section", ["sim", "sweep"])
    @pytest.mark.parametrize("dt,horizon", [
        (0.001, 5.0004), (0.001, 5.000001), (0.005, 15.001), (0.01, 0.105), (0.003, 1.0),
    ])
    def test_off_grid_horizon_names_key(self, section, dt, horizon):
        with pytest.raises(ConfigError, match="whole number of dt") as e:
            parse_config(grid_doc(section, dt, horizon))
        assert e.value.key == f"{section}.horizon"

    @pytest.mark.parametrize("section", ["sim", "sweep"])
    @pytest.mark.parametrize("dt,horizon", [
        (0.01, 1e8), (0.01, 10000.01), (0.001, 1000.001), (0.01, 1e300),
    ])
    def test_grid_over_step_cap_names_key(self, section, dt, horizon):
        with pytest.raises(ConfigError, match="at most 1000000 steps") as e:
            parse_config(grid_doc(section, dt, horizon))
        assert e.value.key == f"{section}.horizon"

    @pytest.mark.parametrize("section", ["sim", "sweep"])
    def test_grid_at_step_cap_accepted(self, section):
        cfg = parse_config(grid_doc(section, 0.01, 10000.0))
        assert getattr(cfg, section).horizon == 10000.0

    @pytest.mark.parametrize("sim,key", [
        ({"dt": 0.0}, "sim.dt"),
        ({"dt": 0.02}, "sim.dt"),
        ({"horizon": -1.0}, "sim.horizon"),
        ({"dt": 0.01, "horizon": 0.05}, "sim.horizon"),
    ])
    def test_sim_out_of_range_names_key(self, sim, key):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(sim=sim))
        assert e.value.key == key


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as e:
            load_config(tmp_path / "nope.yaml")
        assert e.value.key == "<file>"

    def test_invalid_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("{{{{:::")
        with pytest.raises(ConfigError) as e:
            load_config(p)
        assert e.value.key == "<file>"

    def test_shipped_config_loads(self, xor_config_path):
        cfg = load_config(xor_config_path)
        assert cfg.train.seed in cfg.train.seeds
        assert len(cfg.network.synapses) == 9

    @pytest.mark.parametrize("text,name,key", [
        ("schema_version: 1\nschema_version: 1\nnetwork: {preset: xor}\n",
         "schema_version", "schema_version"),
        ("schema_version: 1\nnetwork: {preset: xor}\ntrain: {eta: 0.2, eta: 50.0}\n",
         "eta", "train.eta"),
        ("schema_version: 1\nnetwork:\n  sources:\n    - {id: s, spike_times: [0.0]}\n"
         "    - {id: t, spike_times: [0.0], id: u}\n", "id", "network.sources[1].id"),
    ], ids=["top-level", "nested", "list-item"])
    def test_duplicate_key_rejected_at_its_path(self, tmp_path, text, name, key):
        p = tmp_path / "dup.yaml"
        p.write_text(text)
        with pytest.raises(ConfigError, match=f"^duplicate key '{name}'$") as e:
            load_config(p)
        assert e.value.key == key

    @pytest.mark.parametrize("text,key", [
        ("", "<root>"),
        ("? [a]\n: 1\n", "<file>"),   # a list as a key: invalid YAML, not a duplicate
        # an alias to its own mapping is checked once, where its anchor is
        ("schema_version: 1\nnetwork: {preset: xor}\nsweep: &s {drives: [1.5], params: *s}\n",
         "sweep.params.drives"),
    ], ids=["empty", "list-key", "recursive-alias"])
    def test_malformed_document_rejected(self, tmp_path, text, key):
        p = tmp_path / "doc.yaml"
        p.write_text(text)
        with pytest.raises(ConfigError) as e:
            load_config(p)
        assert e.value.key == key

    def test_aliased_list_loads(self, tmp_path):
        p = tmp_path / "alias.yaml"
        p.write_text("schema_version: 1\nnetwork: {preset: xor}\n"
                     "stimulus: {A: &t [0.0], bias: *t}\n")
        assert load_config(p).stimulus == {"A": [0.0], "bias": [0.0]}

    def test_merge_key_may_be_overridden(self, tmp_path):
        p = tmp_path / "merge.yaml"
        p.write_text("schema_version: 1\nnetwork: {preset: xor}\n"
                     "train:\n  <<: {eta: 0.2, tol: 0.1}\n  eta: 0.3\n")
        cfg = load_config(p)
        assert (cfg.train.eta, cfg.train.tol) == (0.3, 0.1)


class TestKeyNamesField:
    """A range rule of a section's dataclass names the field, not the section."""

    @pytest.mark.parametrize("doc,key", [
        (minimal(sim={"dt": 0.02}), "sim.dt"),
        (minimal(encoding={"mode": "bogus"}), "encoding.mode"),
        (minimal(train={"init_jitter": -1}), "train.init_jitter"),
        (minimal(sweep={"drives": []}), "sweep.drives"),
        (minimal(network={"preset": "xor", "neurons": {"i1": {"q_switch": -1}}}),
         "network.neurons.i1.q_switch"),
        (minimal(sweep={"drives": [1.0], "backend": "macrospin", "params": {"alpha": -1}}),
         "sweep.params.alpha"),
        (minimal(network={"sources": "x"}), "network.sources"),
        (minimal(network={"sources": [{"spike_times": [0.0]}]}), "network.sources[0].id"),
        (minimal(network={"neurons": [{"backend": "tlr"}]}), "network.neurons[0].id"),
        (minimal(network={"synapses": [{"pre": "a", "post": "b"}]}),
         "network.synapses[0].weight"),
        (minimal(network={"sources": [{"id": "s", "duration": 0.0}]}),
         "network.sources[0].duration"),
        (minimal(network={"preset": "xor", "source_duration": -1.0}), "network.source_duration"),
        # string-typed keys are not coerced: [1, 2] and null are not ids
        (minimal(network={"sources": [{"id": [1, 2]}]}), "network.sources[0].id"),
        (minimal(network={"sources": [{"id": None}]}), "network.sources[0].id"),
        (minimal(network={"neurons": [{"id": 7}]}), "network.neurons[0].id"),
        (minimal(network={"neurons": [{"id": "n", "backend": None}]}),
         "network.neurons[0].backend"),
        (minimal(network={"synapses": [{"pre": True, "post": "n", "weight": 1.0}]}),
         "network.synapses[0].pre"),
        (minimal(encoding={"mode": 1}), "encoding.mode"),
        (minimal(sweep={"drives": [1.0], "backend": ["tlr"]}), "sweep.backend"),
    ])
    def test_key(self, doc, key):
        with pytest.raises(ConfigError) as e:
            parse_config(doc)
        assert e.value.key == key


class TestScheduleInHorizon:
    """Every scheduled spike time lies in [0, sim.horizon]."""

    SIM = {"dt": 0.001, "horizon": 5.0}

    @pytest.mark.parametrize("encoding, key", [
        ({"t_spike": 6.0}, "encoding.t_spike"),
        ({"t_spike": -0.5}, "encoding.t_spike"),
    ])
    def test_encoding_rejected(self, encoding, key):
        with pytest.raises(ConfigError, match="outside") as e:
            parse_config(minimal(sim=self.SIM, encoding=encoding))
        assert e.value.key == key

    def test_horizon_end_points_accepted(self):
        cfg = parse_config(minimal(sim=self.SIM, encoding={"t_spike": 5.0},
                                   stimulus={"A": [0.0, 5.0]}))
        assert cfg.stimulus == {"A": [0.0, 5.0]}

    def test_stimulus_checked_against_sim_horizon(self):
        with pytest.raises(ConfigError) as e:
            parse_config(minimal(sim={"dt": 0.001, "horizon": 2.0}, stimulus={"bias": [2.5]}))
        assert e.value.key == "stimulus.bias[0]"


def field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def base_documents():
    """configs/xor.yaml with every optional section, and an explicit
    topology with both backends: between them every dataclass field has a
    slot to mutate."""
    with open(XOR_YAML) as fh:
        preset = yaml.safe_load(fh)
    preset["network"].update(neurons={"i1": {}}, weights={},
                             source_amplitude=1.0, source_duration=3.0)
    preset["stimulus"] = {"A": [0.0], "bias": [0.0]}
    preset["sweep"] = {"backend": "tlr", "drives": [1.5], "dt": 0.005, "horizon": 15.0,
                       "params": {}}
    explicit = {
        "schema_version": 1,
        "sim": {"dt": 0.001, "horizon": 5.0},
        "network": {
            "sources": [{"id": "A", "spike_times": [0.0], "amplitude": 1.0, "duration": 1.2}],
            "neurons": [{"id": "n", "backend": "tlr", "params": {}},
                        {"id": "m", "backend": "macrospin", "params": {}}],
            "synapses": [{"pre": "A", "post": "n", "weight": 3.0}],
        },
        "stimulus": {"A": [0.5]},
        "sweep": {"backend": "macrospin", "drives": [1.0], "params": {}},
    }
    return preset, explicit


BASES = base_documents()
SLOTS = (
    [(0, (k,)) for k in field_names(Config)]
    + [(1, (k,)) for k in field_names(Config)]
    + [(0, ("sim", f)) for f in field_names(SimConfig)]
    + [(0, ("encoding", f)) for f in field_names(EncodingConfig)]
    + [(0, ("train", f)) for f in field_names(TrainSpec)]
    + [(0, ("network", k)) for k in BASES[0]["network"]]
    + [(0, ("network", "neurons", "i1", f)) for f in field_names(TlrParams)]
    + [(0, ("network", "weights", "A->i1")), (0, ("stimulus", "A"))]
    + [(0, ("sweep", f)) for f in field_names(SweepSpec)]
    + [(0, ("sweep", "params", f)) for f in field_names(TlrParams)]
    + [(1, ("network", f)) for f in field_names(Network)]
    + [(1, ("network", "sources", 0, f)) for f in field_names(Source)]
    + [(1, ("network", "neurons", 0, f)) for f in field_names(Neuron)]
    + [(1, ("network", "neurons", 1, "params", f)) for f in field_names(MacrospinParams)]
    + [(1, ("network", "synapses", 0, f)) for f in field_names(Synapse)]
    + [(1, ("sweep", "params", f)) for f in field_names(MacrospinParams)]
)
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=0.0, max_value=200.0),   # mostly off any dt grid
    # whole numbers of every shipped dt, up to far past the grid's step cap
    st.integers(10**5, 10**12).map(lambda k: k * 0.01),
    st.sampled_from([1e8, 1e12, 1e300]),
    st.lists(st.one_of(st.integers(-3, 3), st.floats(-2.0, 2.0), st.text(max_size=2)),
             max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


class TestBaseDocuments:
    @pytest.mark.parametrize("base", [0, 1], ids=["preset", "explicit"])
    def test_parses(self, base):
        # a base that fails on one key would make every mutation fail on it too
        assert isinstance(parse_config(copy.deepcopy(BASES[base])), Config)


class TestMutatedDocuments:
    @settings(max_examples=400, deadline=None)
    @given(slot=st.sampled_from(SLOTS),
           op=st.sampled_from(["set", "negate", "delete", "unknown key"]), value=VALUES)
    def test_parses_or_names_a_top_level_key(self, slot, op, value):
        base, path = slot
        doc = copy.deepcopy(BASES[base])
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        old = parent.get(path[-1])
        if op == "delete":
            parent.pop(path[-1], None)
        elif op == "unknown key":
            parent["bogus"] = value
        elif op == "negate" and isinstance(old, (int, float)) and not isinstance(old, bool):
            parent[path[-1]] = -old
        else:
            parent[path[-1]] = value
        try:
            cfg = parse_config(doc)
        except ConfigError as exc:
            assert re.split(r"[.\[]", exc.key)[0] in {*field_names(Config), "<root>"}, exc.key
            return
        assert isinstance(cfg, Config)
        # every grid a parsed config holds can be allocated
        for grid in (cfg.sim, cfg.sweep):
            assert grid is None or round(grid.horizon / grid.dt) <= _MAX_STEPS
