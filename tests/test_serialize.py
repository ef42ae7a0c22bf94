import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seqtoa import NoiseSpec, ObservedFrame, TopologyBounds, fixed_topology, sample_random_topology, simulate_frame
from seqtoa.serialize import (
    SchemaError,
    _db_ok,
    _noise_from_dict,
    _noise_to_dict,
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
        back = _noise_from_dict(d, noise.n_agents, "noise")
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

    def test_inline_scenario_topology(self):
        doc = json.loads((CONFIG_DIR / "scheme1_noise_sweep.json").read_text())
        doc["topology"] = scenario_to_dict(fixed_topology())
        spec = experiment_spec_from_dict(doc)
        assert spec.topology is not None
        assert spec.topology.n_agents == 10


def dotted_keys(doc, prefix=""):
    """Dotted names of every field of a JSON document, objects walked recursively."""
    for key, value in doc.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from dotted_keys(value, prefix + key + ".")


class TestCheckField:
    def test_written_and_shipped_documents_name_read_fields(self):
        scenario = scenario_to_dict(fixed_topology())
        del scenario["version"]  # written for the reader of the file, never read back
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
         ("scenario", "target.T.x"), ("scenario", "version"), ("frame", "noise.sigma_tau_sq"), ("frame", "n_trials")],
    )
    def test_unread_field_rejected(self, kind, key):
        with pytest.raises(SchemaError, match="--set"):
            check_field(kind, key)
