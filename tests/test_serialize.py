import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seqtoa import ExperimentSpec, NoiseSpec, ObservedFrame, TopologyBounds, fixed_topology, sample_random_topology, simulate_frame
from seqtoa.model import _DB_RANGE
from seqtoa.serialize import (
    _FIELDS,
    SchemaError,
    _db_ok,
    _exact_db,
    _noise_from_dict,
    _noise_to_dict,
    _number,
    check_field,
    experiment_spec_from_dict,
    experiment_spec_to_dict,
    frame_from_dict,
    frame_to_dict,
    report_to_dict,
    scenario_from_dict,
    scenario_to_dict,
)
from seqtoa import estimate

from conftest import UNREAD_MESSAGES

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestScenarioRoundTrip:
    def test_fixed_topology_round_trips(self):
        # the shipped topology, then sampled random ones of several sizes
        rng = np.random.default_rng(9)
        sampled = [sample_random_topology(TopologyBounds(n_agents=M), rng) for M in (1, 2, 10, 10, 10, 57)]
        for scenario in (fixed_topology(), *sampled):
            d = scenario_to_dict(scenario)
            assert scenario_to_dict(scenario_from_dict(d)) == d
            assert json.loads(json.dumps(d)) == d

    def test_sampled_noise_requires_rng(self):
        d = scenario_to_dict(fixed_topology())
        d["noise"]["agent_sigma_sq_db"] = {"center_db": -30.0, "halfwidth_db": 5.0}
        with pytest.raises(SchemaError, match="agent_sigma_sq_db"):
            scenario_from_dict(d)
        s = scenario_from_dict(d, np.random.default_rng(1))
        sig = s.noise.blocks[:, 0, 0]
        db = 10 * np.log10(sig)
        assert np.all((db >= -35.0) & (db <= -25.0))

    def test_missing_field_names_path(self):
        d = scenario_to_dict(fixed_topology())
        del d["target"]
        with pytest.raises(SchemaError, match="scenario.target"):
            scenario_from_dict(d)

    @pytest.mark.parametrize(
        "noise, field",
        [
            ({"sigma_tau_sq_db": 4000.0}, "scenario.noise.sigma_tau_sq_db"),
            ({"sigma_tau_sq_db": -4000.0}, "scenario.noise.sigma_tau_sq_db"),
            ({"agent_sigma_sq_db": [-30.0] * 4 + [3100.0] + [-30.0] * 5}, "scenario.noise.agent_sigma_sq_db[4]"),
            ({"agent_sigma_sq_db": [-30.0] * 9 + [-3300.0]}, "scenario.noise.agent_sigma_sq_db[9]"),
            ({"agent_sigma_sq_db": {"center_db": 4000.0, "halfwidth_db": 5.0}}, "agent_sigma_sq_db.center_db"),
            ({"agent_sigma_sq_db": {"center_db": -30.0, "halfwidth_db": 3300.0}}, "agent_sigma_sq_db.halfwidth_db"),
            ({"agent_sigma_sq_db": {"center_db": 1e308, "halfwidth_db": 1e308}}, "agent_sigma_sq_db.center_db"),
            # not beyond the range, but a draw range of negative width
            ({"agent_sigma_sq_db": {"center_db": -30.0, "halfwidth_db": -3.0}}, "agent_sigma_sq_db.halfwidth_db"),
        ],
    )
    def test_db_beyond_float_range_names_field(self, noise, field):
        # finite dB values whose variance overflows to inf or underflows to 0
        d = scenario_to_dict(fixed_topology())
        d["noise"].update(noise)
        with pytest.raises(SchemaError, match=field.replace("[", r"\[").replace("]", r"\]")):
            scenario_from_dict(d, np.random.default_rng(0))

    def test_wrong_agent_sigma_length(self):
        d = scenario_to_dict(fixed_topology())
        d["noise"]["agent_sigma_sq_db"] = [-30.0, -30.0]
        with pytest.raises(SchemaError, match="expected 10 entries"):
            scenario_from_dict(d)


@st.composite
def isotropic_frames(draw):
    """Frames of 1-12 broadcasts with arbitrary finite columns and isotropic noise."""
    M = draw(st.integers(1, 12))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    db = st.floats(-100.0, 100.0)
    noise = NoiseSpec.from_db(draw(db), draw(hnp.arrays(float, M, elements=db)))
    return ObservedFrame(
        t=draw(hnp.arrays(float, M, elements=finite)),
        tau=draw(hnp.arrays(float, M, elements=finite)),
        p_hat=draw(hnp.arrays(float, (M, 2), elements=finite)),
        T_hat=draw(hnp.arrays(float, M, elements=finite)),
        noise=noise,
    )


@st.composite
def accepted_noise(draw):
    """Isotropic noise of 1-12 agents at any dB values the schema accepts."""
    M = draw(st.integers(1, 12))
    db = st.floats(-3237.0, 3083.0).filter(_db_ok)
    return NoiseSpec.from_db(draw(db), draw(hnp.arrays(float, M, elements=db)))


class TestNoiseRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(accepted_noise())
    @example(NoiseSpec.from_db(3082.547155599167, [-3236.072453387798, 3082.547155599167]))  # the range's ends
    @example(NoiseSpec.from_db(4.877545463781203, [2.42982392418007, -3.748210681823622]))  # 10 log10(v) reads back 1 ulp off
    def test_columns_round_trip(self, noise):
        d = json.loads(json.dumps(_noise_to_dict(noise, "noise")))
        back = _noise_from_dict(_FIELDS["frame"]["noise"].read(d, "noise"), noise.n_agents, "noise")
        for name in ("c_tau", "blocks"):
            assert getattr(back, name).tobytes() == getattr(noise, name).tobytes(), name
        assert _noise_to_dict(back, "noise") == d


class TestFrameRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(isotropic_frames())
    def test_simulated_frame_round_trips(self, frame):
        d1 = frame_to_dict(frame)
        back = frame_from_dict(json.loads(json.dumps(d1)))
        for name in ("t", "tau", "p_hat", "T_hat"):
            assert getattr(back, name).tobytes() == getattr(frame, name).tobytes(), name
        assert np.allclose(back.noise.C_tau, frame.noise.C_tau, rtol=1e-12, atol=0)
        assert np.allclose(back.noise.C_beta, frame.noise.C_beta, rtol=1e-12, atol=0)

    def test_isotropic_noise_round_trips(self):
        noise = NoiseSpec.from_db(-27.0, np.linspace(-35.0, -15.0, 10))
        frame = dataclasses.replace(simulate_frame(fixed_topology(), 2), noise=noise)
        back = frame_from_dict(json.loads(json.dumps(frame_to_dict(frame)))).noise
        assert np.allclose(back.C_tau, noise.C_tau, rtol=1e-12, atol=0)
        assert np.allclose(back.C_beta, noise.C_beta, rtol=1e-12, atol=0)
        d1 = frame_to_dict(simulate_frame(fixed_topology(), 11))
        assert frame_to_dict(frame_from_dict(d1)) == d1

    @pytest.mark.parametrize("case", ["per_agent_toa_variance", "anisotropic_agent_block", "zero_toa_variance"])
    def test_unrepresentable_noise_rejected(self, case):
        base = NoiseSpec.from_db(-30.0, np.full(10, -20.0))
        C_tau, C_beta = base.C_tau.copy(), base.C_beta.copy()
        if case == "per_agent_toa_variance":
            C_tau[3, 3] *= 2.0
        elif case == "zero_toa_variance":
            C_tau[:] = 0.0
        else:
            C_beta[1, 1] *= 2.0
        frame = dataclasses.replace(simulate_frame(fixed_topology(), 2), noise=NoiseSpec.from_dense(C_tau, C_beta))
        with pytest.raises(SchemaError, match="frame.noise") as exc:
            frame_to_dict(frame)
        field = {"zero_toa_variance": "", "per_agent_toa_variance": ".sigma_tau_sq_db"}.get(case, ".agent_sigma_sq_db")
        assert exc.value.path == "frame.noise" + field

    def test_report_is_flat_json(self):
        scenario = fixed_topology()
        report = estimate(simulate_frame(scenario, 4))
        d = report_to_dict(report)
        json.dumps(d)  # must be JSON-serializable as-is
        assert set(d) == {
            "estimator", "px", "py", "vx", "vy", "T", "omega",
            "iterations", "converged", "diverged", "cond_estimate",
        }
        assert d["estimator"] == "proposed"


def _set(index, key, value):
    return lambda d: d["records"][index].__setitem__(key, value)


class TestMalformedFrame:
    @pytest.mark.parametrize(
        "edit, path, message",
        [
            (lambda d: d["records"].__setitem__(2, [1.0, 2.0]), "frame.records[2]", "expected an object, got list"),
            (lambda d: d["records"][3].pop("tau_tilde"), "frame.records[3].tau_tilde", "missing required field"),
            (_set(4, "t", True), "frame.records[4].t", "expected a number, got True"),
            (_set(5, "T_hat", "0.5"), "frame.records[5].T_hat", "expected a number, got '0.5'"),
            (_set(6, "tau_tilde", 10**400), "frame.records[6].tau_tilde", f"expected a finite number, got {10**400!r}"),
            (_set(7, "p_hat", [1.0, 2.0, 3.0]), "frame.records[7].p_hat", "expected a 2-element array, got [1.0, 2.0, 3.0]"),
            (_set(8, "p_hat", 1.0), "frame.records[8].p_hat", "expected a 2-element array, got 1.0"),
            (_set(1, "p_hat", [1.0, "x"]), "frame.records[1].p_hat[1]", "expected a number, got 'x'"),
            (lambda d: d.__setitem__("records", []), "frame.records", "expected a non-empty array"),
            (lambda d: d.pop("records"), "frame.records", "missing required field"),
            # the first bad field in record order, fields in schema order, is the one named
            (lambda d: (_set(6, "t", "a")(d), _set(2, "T_hat", "b")(d), _set(2, "tau_tilde", "c")(d)),
             "frame.records[2].tau_tilde", "expected a number, got 'c'"),
        ],
    )
    def test_error_names_the_field(self, edit, path, message):
        d = json.loads(json.dumps(frame_to_dict(simulate_frame(fixed_topology(), 3))))
        edit(d)
        with pytest.raises(SchemaError) as exc:
            frame_from_dict(d)
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: {message}"


def _frame_doc(seed=3):
    return json.loads(json.dumps(frame_to_dict(simulate_frame(fixed_topology(), seed))))


class TestNoiseSharing:
    """Frames parsed from equal noise documents share one immutable spec, and
    the writer computes a spec's dB form once; no output moves."""

    def test_equal_noise_documents_share_one_spec(self):
        d = _frame_doc()
        a, b = frame_from_dict(d), frame_from_dict(_frame_doc())  # equal, separate documents
        assert a.noise is b.noise
        assert not (a.noise.c_tau.flags.writeable or a.noise.blocks.flags.writeable)
        # the same dB values as JSON integers are the same key
        noise = {"sigma_tau_sq_db": -30, "agent_sigma_sq_db": [-20] * 10}
        as_floats = {"sigma_tau_sq_db": -30.0, "agent_sigma_sq_db": [-20.0] * 10}
        assert frame_from_dict({**d, "noise": noise}).noise is frame_from_dict({**d, "noise": as_floats}).noise
        scenario = scenario_to_dict(fixed_topology())
        assert scenario_from_dict(scenario).noise is scenario_from_dict(json.loads(json.dumps(scenario))).noise

    def test_different_noise_gives_different_specs(self):
        d = _frame_doc()
        agent = d["noise"]["agent_sigma_sq_db"]
        specs = [frame_from_dict(d).noise]
        for k, value in ((0, agent[0] + 1.0), (9, float(np.nextafter(agent[9], np.inf)))):
            edited = json.loads(json.dumps(d))
            edited["noise"]["agent_sigma_sq_db"][k] = value
            specs.append(frame_from_dict(edited).noise)
        edited = json.loads(json.dumps(d))
        edited["noise"]["sigma_tau_sq_db"] += 1.0
        specs.append(frame_from_dict(edited).noise)
        assert len({id(s) for s in specs}) == len(specs)
        assert specs[1].blocks[0, 0, 0] != specs[0].blocks[0, 0, 0]
        assert specs[3].c_tau[0] != specs[0].c_tau[0]
        # sampled agent variances are drawn on every read, never shared
        scenario = scenario_to_dict(fixed_topology())
        scenario["noise"]["agent_sigma_sq_db"] = {"center_db": -30.0, "halfwidth_db": 5.0}
        first, again = (scenario_from_dict(scenario, np.random.default_rng(1)).noise for _ in range(2))
        assert first is not again and first.blocks.tobytes() == again.blocks.tobytes()

    @pytest.mark.parametrize("table", ["whole", "record_by_record"])
    def test_parsed_frame_columns_refuse_writes(self, table):
        d = _frame_doc()
        if table == "record_by_record":  # a tuple p_hat, which only the per-record walk takes
            d["records"][0]["p_hat"] = tuple(d["records"][0]["p_hat"])
        frame = frame_from_dict(d)
        for name in ("t", "tau", "p_hat", "T_hat"):
            column = getattr(frame, name)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0
            assert column.base is None or not column.base.flags.writeable, name
        assert frame_to_dict(frame) == {**d, "records": _frame_doc()["records"]}

    @pytest.mark.parametrize(
        "noise",
        [NoiseSpec.from_db(-30.0, np.linspace(-35.0, -15.0, 10)),
         NoiseSpec.from_db(4.877545463781203, [2.42982392418007, -3.748210681823622])],  # needs the ulp walk
        ids=["fixed", "ulp_walk"],
    )
    def test_cached_db_form_is_a_fresh_exact_db(self, noise):
        variances = np.concatenate((noise.c_tau[:1], noise.blocks[:, 0, 0]))
        fresh = _exact_db(variances).tolist()
        for _ in range(3):
            d = _noise_to_dict(noise, "noise")
            assert [d["sigma_tau_sq_db"], *d["agent_sigma_sq_db"]] == fresh
            d["agent_sigma_sq_db"][0] = 0.0  # a caller's edit must not reach the next call
        if noise.n_agents == 2:
            assert fresh != (10.0 * np.log10(variances)).tolist()

    def test_schema_errors_are_the_same_on_every_call(self):
        d = _frame_doc()
        frame_from_dict(d)  # its noise is now a known spec
        bad_noise = [
            (lambda n: n.__setitem__("sigma_tau_sq_db", 4000.0), "frame.noise.sigma_tau_sq_db",
             f"4000.0 dB is {_DB_RANGE}"),
            (lambda n: n["agent_sigma_sq_db"].__setitem__(4, -4000.0), "frame.noise.agent_sigma_sq_db[4]",
             f"-4000.0 dB is {_DB_RANGE}"),
            (lambda n: n["agent_sigma_sq_db"].__setitem__(4, "x"), "frame.noise.agent_sigma_sq_db[4]",
             "expected a number, got 'x'"),
            (lambda n: n.pop("sigma_tau_sq_db"), "frame.noise.sigma_tau_sq_db", "missing required field"),
        ]
        for edit, path, message in bad_noise:
            bad = json.loads(json.dumps(d))
            edit(bad["noise"])
            for _ in range(2):
                with pytest.raises(SchemaError) as exc:
                    frame_from_dict(bad)
                assert (exc.value.path, str(exc.value)) == (path, f"{path}: {message}")
        # a known noise document on a frame of another size
        short = {**d, "records": d["records"][:9]}
        for _ in range(2):
            with pytest.raises(SchemaError, match=r"^frame.noise.agent_sigma_sq_db: expected 9 entries, got 10$"):
                frame_from_dict(short)
        # the writer: a spec the schema cannot hold fails each time, under each caller's path
        anisotropic = NoiseSpec(c_tau=np.full(10, 1e-3), blocks=np.broadcast_to(np.diag([1e-2, 1e-2, 2e-2]), (10, 3, 3)))
        frame = dataclasses.replace(simulate_frame(fixed_topology(), 2), noise=anisotropic)
        scenario = dataclasses.replace(fixed_topology(), noise=anisotropic)
        for write, path in ((frame_to_dict, "frame.noise"), (scenario_to_dict, "scenario.noise"), (frame_to_dict, "frame.noise")):
            with pytest.raises(SchemaError) as exc:
                write(frame if write is frame_to_dict else scenario)
            assert exc.value.path == f"{path}.agent_sigma_sq_db"
            assert str(exc.value) == (
                f"{path}.agent_sigma_sq_db: C_beta must be block diagonal with blocks sigma_m^2 * I_3 "
                "to be written in this schema"
            )


class TestExperimentSpecs:
    @pytest.mark.parametrize(
        "name",
        ["scheme1_noise_sweep.json", "scheme2_ltco_sweep.json", "scheme3_random_topology.json"],
    )
    def test_shipped_configs_round_trip(self, name):
        doc = json.loads((CONFIG_DIR / name).read_text())
        spec = experiment_spec_from_dict(doc)
        d1 = experiment_spec_to_dict(spec)
        d2 = experiment_spec_to_dict(experiment_spec_from_dict(d1))
        assert d1 == d2

    def test_shipped_scheme1_shape(self):
        doc = json.loads((CONFIG_DIR / "scheme1_noise_sweep.json").read_text())
        spec = experiment_spec_from_dict(doc)
        assert len(spec.sweep_values) == 9
        assert len(spec.estimators) == 3
        assert spec.n_trials == 3000

    def test_bad_scheme_rejected(self):
        doc = json.loads((CONFIG_DIR / "scheme1_noise_sweep.json").read_text())
        doc["scheme"] = "bogus"
        with pytest.raises(SchemaError, match="experiment"):
            experiment_spec_from_dict(doc)

    def test_writer_writes_the_keys_the_reader_reads(self):
        spec = ExperimentSpec(scheme="random_topology", n_trials=3, base_seed=1, sweep_values=(-20.5,),
                              topology=TopologyBounds(n_agents=np.int64(7)))
        d = experiment_spec_to_dict(spec)
        assert list(d) == list(_FIELDS["experiment"])
        assert list(d["topology"]["random"]) == list(_FIELDS["experiment"]["topology"]["random"])
        # every key of every object the scenario and frame writers write, in the table's order
        scenario, frame = _FIELDS["scenario"], _FIELDS["frame"]
        for d, table, records in [(scenario_to_dict(fixed_topology()), scenario, "agents"),
                                  (frame_to_dict(simulate_frame(fixed_topology(), 1)), frame, "records")]:
            assert list(d) == list(table)
            assert all(list(record) == list(table[records].fields) for record in d[records])
            assert list(d["noise"]) == list(table["noise"])
        assert list(scenario_to_dict(fixed_topology())["target"]) == list(scenario["target"])

    def test_numpy_integer_n_agents_dumps(self):
        # numpy numbers are stored as ints and floats, so each spec dumps and
        # reads back to its own document; the float cases raised TypeError in
        # json.dumps when the classes kept them as given
        for spec_kwargs, bounds_kwargs in [
            ({}, {"n_agents": np.int64(7)}),
            ({"sigma_tau_sq_db": np.float32(-30)}, {}),
            ({"mle_init_sigma": np.float32(1)}, {}),
            ({"target_offset_ns": np.float64(5), "agent_sigma_halfwidth_db": np.float32(2)}, {}),
            ({}, {"agent_xy": (np.float32(0), 50.0), "slot_interval": np.float32(0.05)}),
        ]:
            spec = ExperimentSpec(scheme="random_topology", n_trials=3, base_seed=1, sweep_values=(-20.5,),
                                  topology=TopologyBounds(**bounds_kwargs), **spec_kwargs)
            assert type(spec.topology.n_agents) is int
            stored = [getattr(spec, key) for key in _FIELDS["experiment"] if _FIELDS["experiment"][key] is _number]
            stored += [getattr(spec.topology, f.name) for f in dataclasses.fields(TopologyBounds) if f.name != "n_agents"]
            assert {type(v) for v in stored} == {float, tuple}
            assert all(type(v) is float for pair in stored if type(pair) is tuple for v in pair)
            d = experiment_spec_to_dict(spec)
            assert experiment_spec_to_dict(experiment_spec_from_dict(json.loads(json.dumps(d)))) == d

    def test_bounds_store_pairs_as_tuples(self):
        # a pair given as a list (as the table reads one) is stored as a tuple,
        # so equal bounds compare and hash as equal
        bounds = TopologyBounds(agent_xy=[0, 50.0], skew_ppm=[-20.0, 20])
        assert bounds.agent_xy == (0.0, 50.0) and type(bounds.skew_ppm) is tuple
        assert bounds == TopologyBounds() and hash(bounds) == hash(TopologyBounds())

    def test_table_lists_every_spec_field(self):
        # a field added to either class without a reader entry fails here; the
        # bounds' three noise fields are not document fields (a random_topology
        # sweep takes its noise levels from its spec)
        fields = _FIELDS["experiment"]
        assert set(fields) == {f.name for f in dataclasses.fields(ExperimentSpec)}
        noise = {"sigma_tau_sq_db", "sigma_s_sq_db", "agent_sigma_halfwidth_db"}
        assert set(fields["topology"]["random"]) == {f.name for f in dataclasses.fields(TopologyBounds)} - noise

    def test_every_field_round_trips(self):
        bounds = TopologyBounds(agent_xy=(1.0, 40.0), target_xy=(-40.0, 90.0), velocity=(-4.0, 3.0),
                                agent_offset_ns=(-9.0, 8.0), target_offset_ns=(-7.0, 6.0), skew_ppm=(-19.0, 18.0),
                                n_agents=7, slot_interval=0.04)
        spec = ExperimentSpec(scheme="random_topology", n_trials=11, base_seed=5, sweep_values=(-25.0, -15.0),
                              estimators=("mle", "proposed"), topology=bounds, sigma_tau_sq_db=-28.0, sigma_s_sq_db=-19.0,
                              agent_sigma_halfwidth_db=4.0, target_offset_ns=12.0, mle_init_sigma=0.5, mle_max_iters=30)
        defaults = ExperimentSpec(scheme="noise_sweep", n_trials=1, base_seed=0, sweep_values=(-20.5,))
        assert all(getattr(spec, f.name) != getattr(defaults, f.name) for f in dataclasses.fields(ExperimentSpec))
        assert all(getattr(bounds, key) != getattr(TopologyBounds(), key) for key in _FIELDS["experiment"]["topology"]["random"])
        assert experiment_spec_from_dict(json.loads(json.dumps(experiment_spec_to_dict(spec)))) == spec

    @pytest.mark.parametrize(
        "part, path",
        [("agents", "experiment.topology.agents[3].T"), ("target", "experiment.topology.target.omega"),
         ("noise", "experiment.topology.noise.sigma_tau_sq_db")],
    )
    def test_inline_topology_errors_name_their_path(self, part, path):
        # these were reported under scenario.<part>, a path the document does not have
        scenario = scenario_to_dict(fixed_topology())
        node = scenario["agents"][3] if part == "agents" else scenario[part]
        node[path.rsplit(".", 1)[1]] = "x"
        doc = {**json.loads((CONFIG_DIR / "scheme1_noise_sweep.json").read_text()), "topology": scenario}
        with pytest.raises(SchemaError) as exc:
            experiment_spec_from_dict(doc)
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: expected a number, got 'x'"

    def test_inline_scenario_topology(self):
        doc = json.loads((CONFIG_DIR / "scheme1_noise_sweep.json").read_text())
        doc["topology"] = scenario_to_dict(fixed_topology())
        spec = experiment_spec_from_dict(doc)
        assert spec.topology is not None
        assert spec.topology.n_agents == 10
        d1 = experiment_spec_to_dict(spec)
        assert d1["topology"] == doc["topology"]
        assert experiment_spec_to_dict(experiment_spec_from_dict(d1)) == d1

    @pytest.mark.parametrize(
        "config, edit, path",
        [
            ("scheme1_noise_sweep.json", {"sigma_tau_sq_DB": -10}, "experiment.sigma_tau_sq_DB"),
            ("scheme1_noise_sweep.json", {"mle_max_iter": 3}, "experiment.mle_max_iter"),
            ("scheme3_random_topology.json", {"topology": {"random": {"n_agent": 8}}},
             "experiment.topology.random.n_agent"),
            ("scheme3_random_topology.json", {"topology": {"random": {}, "n_agents": 6}}, "experiment.topology.n_agents"),
            ("scheme3_random_topology.json", {"topology": {"random": {"n_agents": 6}, "agents": []}},
             "experiment.topology.agents"),
            *(("scheme3_random_topology.json", {"topology": {"random": value}}, "experiment.topology.random")
              for value in ([], 0, False, None)),
        ],
    )
    def test_unread_key_rejected(self, config, edit, path):
        # each of these used to parse with the key ignored: -30 dB, 50
        # iterations, 10 agents
        doc = json.loads((CONFIG_DIR / config).read_text())
        with pytest.raises(SchemaError) as exc:
            experiment_spec_from_dict({**doc, **edit})
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: {UNREAD_MESSAGES.get(path, 'not a field of the experiment schema')}"


def dotted_keys(doc, prefix=""):
    """Dotted names of every field of a JSON document, objects walked recursively."""
    for key, value in doc.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from dotted_keys(value, prefix + key + ".")


class TestCheckField:
    def test_written_and_shipped_documents_name_read_fields(self):
        scenario = scenario_to_dict(fixed_topology())
        documents = [
            ("scenario", scenario),
            ("frame", frame_to_dict(simulate_frame(fixed_topology(), 1))),
            ("experiment", experiment_spec_to_dict(experiment_spec_from_dict({
                "scheme": "random_topology", "n_trials": 1, "base_seed": 0,
                "sweep_values": [-20.5], "estimators": ["proposed"], "topology": {"random": {}},
            }))),
            ("experiment", {"topology": scenario}),
        ]
        for path in [*CONFIG_DIR.glob("*.json"), *(CONFIG_DIR.parent / "perfbench" / "workloads").glob("*.json")]:
            doc = json.loads(path.read_text())
            if "n_trials" in doc:
                documents.append(("experiment", doc))
        for kind, doc in documents:
            for key in dotted_keys(doc):
                check_field(kind, key)

    @pytest.mark.parametrize(
        "kind, key",
        [("experiment", "n_trails"), ("experiment", "topology.random.n_agent"), ("scenario", "target.x"),
         ("scenario", "target.T.x"), ("scenario", "agents.p"), ("frame", "noise.sigma_tau_sq"), ("frame", "n_trials")],
    )
    def test_unread_field_rejected(self, kind, key):
        with pytest.raises(SchemaError, match="--set"):
            check_field(kind, key)

    def test_version_is_read_and_must_be_1(self):
        # the writers write version 1, so --set may name it and the reader reads it
        check_field("scenario", "version")
        check_field("experiment", "topology.version")
        d = scenario_to_dict(fixed_topology())
        del d["version"]
        scenario_from_dict(d)  # optional
        for version in (7, 0, 1.0, True, "1", None):
            with pytest.raises(SchemaError) as exc:
                scenario_from_dict({**d, "version": version})
            assert str(exc.value) == f"scenario.version: expected 1, the only version of this schema, got {version!r}"
        doc = {**json.loads((CONFIG_DIR / "scheme1_noise_sweep.json").read_text()), "topology": {**d, "version": 2}}
        with pytest.raises(SchemaError, match=r"^experiment\.topology\.version: expected 1"):
            experiment_spec_from_dict(doc)


def _scenario_doc():
    return json.loads(json.dumps(scenario_to_dict(fixed_topology())))


def _sampled_scenario_doc():
    d = _scenario_doc()
    d["noise"]["agent_sigma_sq_db"] = {"center_db": -30.0, "halfwidth_db": 5.0}
    return d


def _inline_topology_doc():
    return {**json.loads((CONFIG_DIR / "scheme1_noise_sweep.json").read_text()), "topology": _scenario_doc()}


class TestUnreadKeys:
    """A key the reader does not read is an error under its own path, at
    every level of every document; each of these used to read with the key
    ignored."""

    @pytest.mark.parametrize(
        "document, node, path",
        [
            ("scenario", lambda d: d, "scenario.extra"),
            ("scenario", lambda d: d["agents"][3], "scenario.agents[3].extra"),
            ("scenario", lambda d: d["target"], "scenario.target.extra"),
            ("scenario", lambda d: d["noise"], "scenario.noise.extra"),
            ("sampled", lambda d: d["noise"]["agent_sigma_sq_db"], "scenario.noise.agent_sigma_sq_db.extra"),
            ("frame", lambda d: d, "frame.extra"),
            ("frame", lambda d: d["records"][4], "frame.records[4].extra"),
            ("frame", lambda d: d["noise"], "frame.noise.extra"),
            ("experiment", lambda d: d["topology"], "experiment.topology.extra"),
            ("experiment", lambda d: d["topology"]["agents"][0], "experiment.topology.agents[0].extra"),
            ("experiment", lambda d: d["topology"]["target"], "experiment.topology.target.extra"),
            ("experiment", lambda d: d["topology"]["noise"], "experiment.topology.noise.extra"),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_unread_key_names_its_path(self, document, node, path):
        make, read = {
            "scenario": (_scenario_doc, scenario_from_dict),
            "sampled": (_sampled_scenario_doc, lambda d: scenario_from_dict(d, np.random.default_rng(0))),
            "frame": (_frame_doc, frame_from_dict),
            "experiment": (_inline_topology_doc, experiment_spec_from_dict),
        }[document]
        d = make()
        read(d)  # the document reads without the key
        node(d)["extra"] = 1.0
        with pytest.raises(SchemaError) as exc:
            read(d)
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: not a field of the {path.split('.')[0]} schema"

    def test_misspelt_record_key_names_its_path(self):
        # a record with as many keys as the table, one in place of another
        d = _frame_doc()
        d["records"][2]["tau_tildee"] = d["records"][2].pop("tau_tilde")
        with pytest.raises(SchemaError) as exc:
            frame_from_dict(d)
        assert str(exc.value) == "frame.records[2].tau_tildee: not a field of the frame schema"


# --- the reader's fault surface ------------------------------------------------
#
# Small documents of every kind, each faulted once at every place it can be:
# every key deleted, every key and the first three elements of every array set
# to each of _BAD, and an unlisted key added to every object.

_FAULT_SCENARIO = {
    "version": 1,
    "agents": [{"p": [0.0, 0.0], "T": 1.5, "t": 0.0}, {"p": [50.0, 0.0], "T": -2.0, "t": 0.05},
               {"p": [0.0, 50.0], "T": 0.5, "t": 0.1}],
    "target": {"p": [20.0, 30.0], "v": [1.0, -2.0], "T": 3.0, "omega": 0.25},
    "noise": {"sigma_tau_sq_db": -30.0, "agent_sigma_sq_db": [-20.0, -25.0, -30.0]},
}
_FAULT_SAMPLED = {**_FAULT_SCENARIO, "noise": {"sigma_tau_sq_db": -30.0,
                                               "agent_sigma_sq_db": {"center_db": -30.0, "halfwidth_db": 5.0}}}
_FAULT_FRAME = {
    "records": [{"t": 0.0, "tau_tilde": 12.5, "p_hat": [0.0, 0.0], "T_hat": 1.5},
                {"t": 0.05, "tau_tilde": 40.25, "p_hat": [50.0, 0.0], "T_hat": -2.0},
                {"t": 0.1, "tau_tilde": 31.0, "p_hat": [0.0, 50.0], "T_hat": 0.5}],
    "noise": {"sigma_tau_sq_db": -30.0, "agent_sigma_sq_db": [-20.0, -25.0, -30.0]},
}
_FAULT_EXPERIMENT = {
    "scheme": "noise_sweep", "n_trials": 4, "base_seed": 1, "sweep_values": [-30.0, -20.0],
    "estimators": ["proposed", "mle"], "sigma_tau_sq_db": -30.0, "sigma_s_sq_db": -25.0,
    "agent_sigma_halfwidth_db": 2.0, "target_offset_ns": 5.0, "mle_init_sigma": 1.0, "mle_max_iters": 20,
}
_FAULT_BOUNDS = {"agent_xy": [0.0, 50.0], "target_xy": [10.0, 40.0], "velocity": [-5.0, 5.0],
                 "agent_offset_ns": [-10.0, 10.0], "target_offset_ns": [-10.0, 10.0], "skew_ppm": [-20.0, 20.0],
                 "n_agents": 6, "slot_interval": 0.05}
#: per case: the document kind (its errors' first path segment), the document and its reader
_FAULT_CASES = {
    "frame": ("frame", _FAULT_FRAME, frame_from_dict),
    "scenario": ("scenario", _FAULT_SCENARIO, scenario_from_dict),
    "sampled": ("scenario", _FAULT_SAMPLED, lambda d: scenario_from_dict(d, np.random.default_rng(0))),
    "sampled_no_rng": ("scenario", _FAULT_SAMPLED, scenario_from_dict),
    "inline": ("experiment", {**_FAULT_EXPERIMENT, "topology": _FAULT_SAMPLED},
               lambda d: experiment_spec_from_dict(d, np.random.default_rng(0))),
    "random": ("experiment", {**_FAULT_EXPERIMENT, "scheme": "random_topology", "topology": {"random": _FAULT_BOUNDS}},
               experiment_spec_from_dict),
}
_BAD = (None, True, False, 0, -1, 3, 2.5, -0.5, 4000.0, 1e308, 10**400, float("nan"), float("inf"), "x", "", [],
        [1.0], [1.0, 2.0], [1.0, 2.0, 3.0], ["a", "b"], {}, {"a": 1}, {"random": {}},
        {"center_db": -30.0, "halfwidth_db": 5.0})
#: keys a document may leave out, as dotted names without array indices (a
#: topology object without ``random`` reads as an inline scenario)
_OPTIONAL = {"scenario.version", "experiment.topology.version", "experiment.topology", "experiment.topology.random",
             *(f"experiment.{key}" for key in ("sigma_tau_sq_db", "sigma_s_sq_db", "agent_sigma_halfwidth_db",
                                               "target_offset_ns", "mle_init_sigma", "mle_max_iters")),
             *(f"experiment.topology.random.{key}" for key in _FAULT_BOUNDS)}
_DELETE = object()


def _dotted(kind, at):
    return kind + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in at)


def _places(node, at=()):
    """``("object", at)`` of every object, and ``("key", at)`` or ``("element", at)``
    of every key and of the first three elements of every array, walked recursively."""
    if isinstance(node, dict):
        yield "object", at
        items = node.items()
    elif isinstance(node, list):
        items = list(enumerate(node))[:3]
    else:
        return
    for key, value in items:
        yield ("element" if isinstance(key, int) else "key"), at + (key,)
        yield from _places(value, at + (key,))


def _mutant(text, at, value):
    doc = json.loads(text)
    node = doc
    for key in at[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[at[-1]]
    else:
        node[at[-1]] = value
    return doc


def _single_faults(doc):
    """``(what, at, document)`` of every single-fault copy of ``doc``: an
    unlisted key added (``what`` is ``"+"``), a key deleted (``"-"``) or the
    ``i``-th bad value set (``"=i"``)."""
    text = json.dumps(doc)
    for place, at in _places(doc):
        if place == "object":
            yield "+", at + ("extra",), _mutant(text, at + ("extra",), 1.0)
            continue
        if place == "key":
            yield "-", at, _mutant(text, at, _DELETE)
        for i, bad in enumerate(_BAD):
            yield f"={i}", at, _mutant(text, at, bad)


def _outcome(read, doc):
    """``(class, path, message)`` of the error reading ``doc`` raises, or ``("ok", "", "")``."""
    try:
        read(doc)
    except Exception as exc:  # any class is recorded; the test admits only SchemaError
        return type(exc).__name__, getattr(exc, "path", ""), str(exc)
    return "ok", "", ""


class TestFaultSurface:
    # the sorted (case, fault, class, path, message) lines of every single-fault
    # document, as the reader of 3544164 reports them, but for one line: a
    # skew_ppm bound of 1e308, whose draws overflow once scaled to m/s, is now
    # a SchemaError at experiment.topology.random.skew_ppm where it read as ok
    DOCUMENTS = 5399
    DIGEST = "a0741c57d40472e4f912a7e520c3ba22cd3265ba0a78a051597b50d71919c168"

    def test_every_single_fault_is_a_schema_error_at_its_path(self):
        lines = []
        for case, (kind, doc, read) in _FAULT_CASES.items():
            for what, at, mutant in _single_faults(doc):
                name = _dotted(kind, at)
                cls, path, message = _outcome(read, mutant)
                assert cls in ("ok", "SchemaError"), (case, what, name, cls, message)
                if what == "+":
                    assert message == f"{name}: not a field of the {kind} schema", (case, name)
                elif what == "-" and re.sub(r"\[\d+\]", "", name) not in _OPTIONAL:
                    assert message == f"{name}: missing required field", (case, name)
                lines.append("\t".join((case, what, name, cls, path, message)))
        digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
        assert (len(lines), digest) == (self.DOCUMENTS, self.DIGEST)


def _faulted(doc, *edits):
    """A copy of ``doc`` with each ``(at, value)`` of ``edits`` set."""
    for at, value in edits:
        doc = _mutant(json.dumps(doc), at, value)
    return doc


class TestFaultOrder:
    """A document with two faults names the first in table order, whichever of
    its objects holds it and whether the walk or a builder finds it."""

    @pytest.mark.parametrize(
        "case, edits, path",
        [
            ("frame", [(("records", 1, "t"), "x"), (("noise", "sigma_tau_sq_db"), "x")], "frame.records[1].t"),
            ("frame", [(("records", 2, "p_hat"), [1.0]), (("noise", "agent_sigma_sq_db"), [-20.0])],
             "frame.records[2].p_hat"),
            ("scenario", [(("target", "omega"), "x"), (("noise", "extra"), 1.0)], "scenario.target.omega"),
            ("scenario", [(("target", "v"), None), (("noise", "agent_sigma_sq_db"), [-20.0])], "scenario.target.v"),
            ("sampled_no_rng", [(("target", "T"), True)], "scenario.target.T"),
            ("inline", [(("sweep_values", 1), "x"), (("topology", "target", "p"), "x")], "experiment.sweep_values[1]"),
            ("inline", [(("topology", "target", "p"), "x"), (("n_trials",), -1)], "experiment.topology.target.p"),
            ("inline", [(("topology", "noise", "agent_sigma_sq_db", "halfwidth_db"), -1.0), (("n_trials",), -1)],
             "experiment.topology.noise.agent_sigma_sq_db.halfwidth_db"),
            ("random", [(("topology", "random", "n_agents"), 0), (("n_trials",), -1)], "experiment.topology.random.n_agents"),
        ],
    )
    def test_first_fault_in_table_order_is_named(self, case, edits, path):
        # the later fault is the second edit, or (with one edit) the document's
        # own: sampled noise read without an RNG
        kind, doc, read = _FAULT_CASES[case]
        later = _outcome(read, _faulted(doc, *edits[1:]))
        assert later[0] == "SchemaError" and later[1] != path
        assert _outcome(read, _faulted(doc, *edits))[1] == path
