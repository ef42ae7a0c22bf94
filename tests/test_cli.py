import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from seqtoa import NoiseSpec, Scenario, crlb_target, estimator, exact_frame, fixed_topology, forward_toa, simulate_frame
from seqtoa.cli import _scenario_rng, main
from seqtoa.serialize import experiment_spec_from_dict, frame_to_dict, scenario_from_dict, scenario_to_dict

from conftest import UNREAD_MESSAGES

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"
#: the shipped experiment specs and the benchmark's sweep workloads
EXPERIMENT_SPECS = [
    path
    for path in sorted([*CONFIG_DIR.glob("*.json"), *(CONFIG_DIR.parent / "perfbench" / "workloads").glob("*.json")])
    if "n_trials" in json.loads(path.read_text())
]


def run_cli_module(*argv) -> subprocess.CompletedProcess:
    """``python -m seqtoa.cli *argv`` in a fresh interpreter that imports the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "seqtoa.cli", *map(str, argv)], capture_output=True, text=True, env=env)


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(fixed_topology())))
    return path


@pytest.fixture()
def exact_frame_file(tmp_path):
    # exact observations with tiny covariances for the weighting
    base = fixed_topology()
    scenario = Scenario(
        agents=base.agents,
        target=base.target,
        noise=NoiseSpec.isotropic(1e-12, 1e-12, n_agents=base.n_agents),
    )
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(frame_to_dict(exact_frame(scenario))))
    return path, scenario.target


class TestEstimateCommand:
    def test_exact_frame_recovers_truth(self, exact_frame_file, tmp_path):
        frame_path, truth = exact_frame_file
        out = tmp_path / "report.json"
        code = main(["estimate", "--input", str(frame_path), "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        got = np.array([report[k] for k in ("px", "py", "vx", "vy", "T", "omega")])
        assert np.abs(got - truth.as_vector()).max() <= 1e-6

    def test_underdetermined_frame_exits_2(self, exact_frame_file, tmp_path, capsys):
        frame_path, _ = exact_frame_file
        doc = json.loads(frame_path.read_text())
        doc["records"] = doc["records"][:8]
        doc["noise"]["agent_sigma_sq_db"] = doc["noise"]["agent_sigma_sq_db"][:8]
        bad = tmp_path / "m8.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code = main(["estimate", "--input", str(bad), "--output", str(out)])
        assert code == 2
        assert "9" in capsys.readouterr().err

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"records": [')
        code = main(["estimate", "--input", str(bad), "--output", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err

    def test_missing_input_exits_1(self, tmp_path):
        code = main(["estimate", "--input", str(tmp_path / "nope.json"), "--output", str(tmp_path / "r.json")])
        assert code == 1

    def test_schema_violation_names_field(self, tmp_path, capsys):
        for tau in ("oops", float("nan"), float("inf"), float("-inf"), 10**400):
            doc = {"records": [{"t": 0.0, "tau_tilde": tau, "p_hat": [0, 0], "T_hat": 0.0}]}
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            code = main(["estimate", "--input", str(bad), "--output", str(tmp_path / "r.json")])
            assert code == 1, tau
            assert "records[0].tau_tilde" in capsys.readouterr().err, tau
        # integer and dB fields of an experiment; ltco_sweep sweeps meters, not dB
        random = {"scheme": "random_topology", "n_trials": 1, "base_seed": 0, "sweep_values": [-20.5],
                  "estimators": ["mle"], "topology": {"random": {}}}
        exp = tmp_path / "exp.json"
        exp.write_text(json.dumps(random))
        for setting, field in [
            ("topology.random.n_agents=abc", "topology.random.n_agents"),
            ("topology.random.n_agents=true", "topology.random.n_agents"),
            ("topology.random.n_agents=0", "topology.random.n_agents"),
            ("topology.random.n_agents=1e400", "topology.random.n_agents"),
            # its skew draws would overflow once scaled to m/s
            ("topology.random.skew_ppm=[-1e307,1e307]", "topology.random.skew_ppm"),
            ("mle_max_iters=2.5e400", "mle_max_iters"),
            ("mle_max_iters=2.5", "mle_max_iters"),
            ("mle_max_iters=0", "mle_max_iters"),
            ("n_trials=2.0", "n_trials"),
            ("n_trials=" + str(2**63), "n_trials"),
            ("base_seed=-1", "base_seed"),
            ("sigma_tau_sq_db=4000", "sigma_tau_sq_db"),
            ("sigma_s_sq_db=-4000", "sigma_s_sq_db"),
            ("agent_sigma_halfwidth_db=4000", "agent_sigma_halfwidth_db"),
            ("sweep_values=[-20.5,4000]", "sweep_values[1]"),
        ]:
            code = main(["experiment", "--input", str(exp), "--output", str(tmp_path / "o.csv"), "--set", setting])
            assert code == 1, setting
            assert f"experiment.{field}:" in capsys.readouterr().err, setting
        for setting, message in [
            ("estimators=[]", "estimators: must"),
            ('estimators=["mle","mle"]', "estimators: must"),
            ("sweep_values=[-20.5,-20.5]", "sweep_values: must"),
        ]:
            code = main(["experiment", "--input", str(exp), "--output", str(tmp_path / "o.csv"), "--set", setting])
            assert code == 1, setting
            assert f"experiment.{message}" in capsys.readouterr().err, setting
        # draw ranges the noise sweep cannot draw from
        exp.write_text(json.dumps({**random, "scheme": "noise_sweep", "topology": "fixed"}))
        for setting, message in [
            ("agent_sigma_halfwidth_db=-3", "agent_sigma_halfwidth_db: must be finite and >= 0, got -3.0"),
            ("target_offset_ns=-1", "target_offset_ns: must be >= 0"),
            ("target_offset_ns=1e308", "target_offset_ns: must be >= 0"),
            ("mle_init_sigma=1e308", "mle_init_sigma: must be > 0 and give finite draws, got 1e+308"),
        ]:
            code = main(["experiment", "--input", str(exp), "--output", str(tmp_path / "o.csv"), "--set", setting])
            assert code == 1, setting
            assert f"experiment.{message}" in capsys.readouterr().err, setting
        ltco = {**random, "scheme": "ltco_sweep", "sweep_values": [4000.0], "topology": "fixed"}
        assert experiment_spec_from_dict(ltco).sweep_values == (4000.0,)
        # a topology of the wrong kind for the scheme
        for doc, message in [
            ({**random, "scheme": "noise_sweep", "topology": {"random": {"n_agents": 20}}},
             "topology: must be a Scenario or None for a noise_sweep"),
            ({**random, "topology": scenario_to_dict(fixed_topology())},
             "topology: must be a TopologyBounds or None for a random_topology"),
        ]:
            exp.write_text(json.dumps(doc))
            code = main(["experiment", "--input", str(exp), "--output", str(tmp_path / "o.csv")])
            assert code == 1, message
            assert f"experiment.{message}" in capsys.readouterr().err, message


    def test_overlong_integer_exits_1(self, exact_frame_file, tmp_path, capsys):
        # json refuses integer literals over 4300 digits with a plain ValueError
        frame_path, _ = exact_frame_file
        bad = tmp_path / "big.json"
        bad.write_text(frame_path.read_text().replace('"t": 0.0', '"t": ' + "1" * 5000, 1))
        out = str(tmp_path / "r.json")
        assert main(["estimate", "--input", str(bad), "--output", out]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert main(["estimate", "--input", str(frame_path), "--output", out, "--set", "noise.sigma_tau_sq_db=" + "1" * 5000]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_overflowing_db_exits_1(self, exact_frame_file, tmp_path, capsys):
        frame_path, _ = exact_frame_file
        code = main(["estimate", "--input", str(frame_path), "--output", str(tmp_path / "r.json"),
                     "--set", "noise.sigma_tau_sq_db=4000"])
        assert code == 1
        assert "frame.noise.sigma_tau_sq_db" in capsys.readouterr().err

    def test_set_on_a_document_that_is_not_an_object_exits_1(self, tmp_path, capsys):
        # --set used to index the list and die with a TypeError
        doc = tmp_path / "l.json"
        doc.write_text("[]")
        args = ["estimate", "--input", str(doc), "--output", str(tmp_path / "o.json")]
        assert main([*args, "--set", "noise.sigma_tau_sq_db=-30"]) == 1
        assert capsys.readouterr().err == "error: frame: expected an object, got list\n"

    def test_deeply_nested_json_exits_1(self, exact_frame_file, tmp_path, capsys):
        # json's decoder raised RecursionError, past the handler of malformed input
        deep = "[" * 200_000 + "]" * 200_000
        doc = tmp_path / "deep.json"
        doc.write_text(deep)
        out = str(tmp_path / "o.json")
        assert main(["estimate", "--input", str(doc), "--output", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {doc}: ") and err.count("\n") == 1
        frame_path, _ = exact_frame_file
        assert main(["estimate", "--input", str(frame_path), "--output", out, "--set", "noise.sigma_tau_sq_db=" + deep]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --set: noise.sigma_tau_sq_db: ") and err.count("\n") == 1


def _unread(node, key="extra"):
    """An edit that adds ``key`` to the object ``node(doc)`` of a document."""
    return lambda doc: node(doc).__setitem__(key, 1.0)


class TestUnreadKeysExit1:
    """Every document's reader rejects a key it does not read; each of these
    used to run with the key ignored and exit 0."""

    @pytest.mark.parametrize(
        "command, edit, message",
        [
            ("estimate", _unread(lambda d: d["records"][0]), "frame.records[0].extra: not a field of the frame schema"),
            ("estimate", _unread(lambda d: d["noise"]), "frame.noise.extra: not a field of the frame schema"),
            ("estimate", _unread(lambda d: d), "frame.extra: not a field of the frame schema"),
            ("simulate", _unread(lambda d: d["target"], "omegaa"), "scenario.target.omegaa: not a field of the scenario schema"),
            ("simulate", lambda d: d.__setitem__("version", 7),
             "scenario.version: expected 1, the only version of this schema, got 7"),
            ("crlb", _unread(lambda d: d["agents"][0], "q"), "scenario.agents[0].q: not a field of the scenario schema"),
            ("experiment", _unread(lambda d: d["topology"]), "experiment.topology.extra: not a field of the experiment schema"),
        ],
        ids=["records", "frame_noise", "frame", "target", "version", "agents", "inline_topology"],
    )
    def test_exits_1_naming_the_key(self, command, edit, message, tmp_path, capsys):
        scenario = scenario_to_dict(fixed_topology())
        doc = {
            "estimate": lambda: frame_to_dict(simulate_frame(fixed_topology(), 1)),
            "simulate": lambda: scenario,
            "crlb": lambda: scenario,
            "experiment": lambda: {**json.loads((CONFIG_DIR / "scheme1_noise_sweep.json").read_text()),
                                   "n_trials": 2, "topology": scenario},
        }[command]()
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--input", str(path), "--output", str(tmp_path / "as_written.json")]) == 0
        capsys.readouterr()
        edit(doc)
        path.write_text(json.dumps(doc))
        out = tmp_path / "edited" / "out.json"
        out.parent.mkdir()
        assert main([command, "--input", str(path), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(out.parent.iterdir())


class TestSimulateAndCrlb:
    def test_simulate_deterministic(self, scenario_file, tmp_path):
        out1, out2 = tmp_path / "f1.json", tmp_path / "f2.json"
        assert main(["simulate", "--input", str(scenario_file), "--output", str(out1), "--seed", "5"]) == 0
        assert main(["simulate", "--input", str(scenario_file), "--output", str(out2), "--seed", "5"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_simulated_frame_feeds_estimate(self, scenario_file, tmp_path):
        frame = tmp_path / "frame.json"
        report = tmp_path / "report.json"
        assert main(["simulate", "--input", str(scenario_file), "--output", str(frame), "--seed", "3"]) == 0
        assert main(["estimate", "--input", str(frame), "--output", str(report)]) == 0
        rep = json.loads(report.read_text())
        truth = fixed_topology().target
        assert abs(rep["px"] - truth.p[0]) < 1.0 and abs(rep["py"] - truth.p[1]) < 1.0

    def test_crlb_output(self, scenario_file, tmp_path):
        out = tmp_path / "crlb.json"
        assert main(["crlb", "--input", str(scenario_file), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        expected = np.diag(crlb_target(fixed_topology()).crlb_x)
        assert np.allclose(doc["diagonal"], expected, rtol=1e-12)
        assert np.allclose(np.array(doc["matrix"]).diagonal(), expected, rtol=1e-12)

    @pytest.mark.parametrize(
        "position, message",
        [("1e200", "overflows float64"),  # the squared range overflows: an input too large to evaluate
         ("1e150", "target information is singular")],  # evaluable, and truly near-singular
    )
    def test_far_target_crlb_exits_2(self, position, message, tmp_path):
        scenario = REPO / "src" / "seqtoa" / "data" / "fixed_topology_m10.json"
        proc = run_cli_module("crlb", "--input", scenario, "--output", tmp_path / "crlb.json",
                              "--set", f"target.p=[{position},{position}]")
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


def sampled_scenario_doc() -> dict:
    """The fixed topology with agent variances sampled from -20 +- 10 dB."""
    doc = scenario_to_dict(fixed_topology())
    doc["noise"]["agent_sigma_sq_db"] = {"center_db": -20.0, "halfwidth_db": 10.0}
    return doc


class TestSampledNoiseSeed:
    def test_agent_variances_independent_of_frame_noise(self):
        # the scenario's variance draws and the frame's TOA normals come from
        # one --seed; each |normal| has mean sqrt(2/pi) whatever its agent drew
        doc = sampled_scenario_doc()
        draws, normals = [], []
        for seed in range(3000):
            scenario = scenario_from_dict(doc, _scenario_rng(seed))
            frame = simulate_frame(scenario, seed)
            draws.append(scenario.noise.blocks[:, 0, 0])
            normals.append((frame.tau - forward_toa(scenario.target, scenario.agents)) / np.sqrt(scenario.noise.c_tau))
        draws, normals = np.concatenate(draws), np.abs(np.concatenate(normals))
        low, high = np.quantile(draws, [0.1, 0.9])
        for decile in (draws <= low, draws >= high):
            assert abs(normals[decile].mean() - np.sqrt(2.0 / np.pi)) < 0.05

    def test_simulate_and_crlb_read_one_scenario(self, tmp_path):
        path = tmp_path / "sampled.json"
        path.write_text(json.dumps(sampled_scenario_doc()))
        frame_path, crlb_path = tmp_path / "frame.json", tmp_path / "crlb.json"
        for seed in (0, 7):
            assert main(["simulate", "--input", str(path), "--output", str(frame_path), "--seed", str(seed)]) == 0
            assert main(["crlb", "--input", str(path), "--output", str(crlb_path), "--seed", str(seed)]) == 0
            scenario = scenario_from_dict(sampled_scenario_doc(), _scenario_rng(seed))
            frame_doc = json.loads(json.dumps(frame_to_dict(simulate_frame(scenario, seed))))
            assert json.loads(frame_path.read_text()) == frame_doc
            assert json.loads(crlb_path.read_text())["matrix"] == crlb_target(scenario).crlb_x.tolist()


class TestNonFiniteSimulation:
    """Finite inputs so large that the simulated observations overflow are an
    input problem: exit 1 with one ``error:`` line, and no warning or traceback."""

    RANDOM_TOPOLOGY = CONFIG_DIR.parent / "perfbench" / "workloads" / "random_topology.json"

    @pytest.mark.parametrize(
        "command, overrides, field",
        [
            ("simulate", ["target.p=[1e308,1e308]"], "tau"),
            ("experiment", ["n_trials=2", "topology.random.slot_interval=1e308"], "slot_interval * (n_agents - 1)"),
            ("experiment", ["n_trials=2", "topology.random.target_xy=[0,1e308]"], "tau"),
            ("experiment", ["n_trials=2", "topology.random.velocity=[0,1e306]"], "tau"),
        ],
    )
    def test_exits_1_with_error_line(self, command, overrides, field, scenario_file, tmp_path, capsys):
        source = scenario_file if command == "simulate" else self.RANDOM_TOPOLOGY
        argv = [command, "--input", str(source), "--output", str(tmp_path / "o.json")]
        for item in overrides:
            argv += ["--set", item]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning would surface as an exception
            code = main(argv)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{field} must be finite" in err
        assert "Traceback" not in err and err.count("\n") == 1


def mini_experiment(tmp_path, **overrides):
    doc = {
        "scheme": "noise_sweep",
        "n_trials": 3,
        "base_seed": 7,
        "sweep_values": [-40.0, -30.0],
        "estimators": ["proposed"],
        "topology": "fixed",
    }
    doc.update(overrides)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    return path


def read_csv_rows(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestExperimentCommand:
    def test_writes_sweep_csv(self, tmp_path, capsys):
        spec = mini_experiment(tmp_path)
        out = tmp_path / "out.csv"
        assert main(["experiment", "--input", str(spec), "--output", str(out)]) == 0
        header, rows = read_csv_rows(out)
        assert header == ["sweep_value", "estimator", "block", "mse", "bias_norm", "crlb", "n_success", "n_diverged"]
        assert len(rows) == 2 * 1 * 4  # sweep values x estimators x blocks
        summary = capsys.readouterr().out
        assert "position_mse" in summary

    def test_single_sweep_value_writes_cdf(self, tmp_path):
        spec = mini_experiment(tmp_path, sweep_values=[-30.0], n_trials=4)
        out = tmp_path / "out.csv"
        assert main(["experiment", "--input", str(spec), "--output", str(out)]) == 0
        header, rows = read_csv_rows(tmp_path / "out_cdf.csv")
        assert header == ["estimator", "squared_error", "cdf"]
        assert len(rows) == 4
        assert rows[-1]["cdf"] == "1"

    @pytest.mark.parametrize("output, written", [("run.v2", ("run.v2.csv", "run.v2_cdf.csv")),
                                                 ("run.csv", ("run.csv", "run_cdf.csv")),
                                                 ("run", ("run.csv", "run_cdf.csv"))])
    def test_both_csvs_share_one_base(self, output, written, tmp_path):
        # only a trailing .csv is dropped: a dated base such as 2024.10.19 keeps its last part in both names
        spec = mini_experiment(tmp_path, sweep_values=[-30.0], n_trials=2)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["experiment", "--input", str(spec), "--output", str(out_dir / output)]) == 0
        assert sorted(path.name for path in out_dir.iterdir()) == sorted(written)

    def test_byte_identical_reruns(self, tmp_path):
        spec = mini_experiment(tmp_path, sweep_values=[-30.0], n_trials=5)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["experiment", "--input", str(spec), "--output", str(out1)]) == 0
        assert main(["experiment", "--input", str(spec), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a_cdf.csv").read_bytes() == (tmp_path / "b_cdf.csv").read_bytes()

    def test_single_trial_has_no_nan(self, tmp_path):
        spec = mini_experiment(tmp_path, n_trials=1, sweep_values=[-30.0])
        out = tmp_path / "out.csv"
        assert main(["experiment", "--input", str(spec), "--output", str(out)]) == 0
        _, rows = read_csv_rows(out)
        for row in rows:
            assert row["mse"] != "nan" and row["crlb"] != "nan"

    def test_shipped_scheme1_spec_shape(self, tmp_path):
        # the shipped spec, cut down to 2 trials via --set, still yields the
        # full 9 sweep points x 3 estimators grid
        out = tmp_path / "s1.csv"
        code = main(
            [
                "experiment",
                "--input", str(CONFIG_DIR / "scheme1_noise_sweep.json"),
                "--output", str(out),
                "--set", "n_trials=2",
            ]
        )
        assert code == 0
        _, rows = read_csv_rows(out)
        combos = {(r["sweep_value"], r["estimator"]) for r in rows}
        assert len(combos) == 9 * 3

    def test_set_override_nested(self, tmp_path):
        spec = mini_experiment(tmp_path)
        out = tmp_path / "o.csv"
        assert main([
            "experiment", "--input", str(spec), "--output", str(out),
            "--set", "sweep_values=[-25.0]", "--set", "n_trials=2",
        ]) == 0
        _, rows = read_csv_rows(out)
        assert {r["sweep_value"] for r in rows} == {"-25"}


    def test_mistyped_set_key_exits_1(self, tmp_path, scenario_file, capsys):
        spec = mini_experiment(tmp_path)
        out = str(tmp_path / "o.csv")
        assert main(["experiment", "--input", str(spec), "--output", out, "--set", "n_trails=1"]) == 1
        assert "n_trails" in capsys.readouterr().err
        assert main(["crlb", "--input", str(scenario_file), "--output", out, "--set", "target.omgea=0"]) == 1
        assert "target.omgea" in capsys.readouterr().err
        assert main(["crlb", "--input", str(scenario_file), "--output", out, "--set", "target.omega=0"]) == 0

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
    def test_unread_key_exits_1(self, config, edit, path, tmp_path, capsys):
        doc = {**json.loads((CONFIG_DIR / config).read_text()), **edit, "n_trials": 2}
        spec, out = tmp_path / "exp.json", tmp_path / "o.csv"
        spec.write_text(json.dumps(doc))
        assert main(["experiment", "--input", str(spec), "--output", str(out)]) == 1
        assert f"{path}: {UNREAD_MESSAGES.get(path, 'not a field of the experiment schema')}" in capsys.readouterr().err
        assert not out.exists()

    def test_thread_count_does_not_change_csvs(self, tmp_path):
        spec = mini_experiment(tmp_path, sweep_values=[-30.0], n_trials=24, estimators=["proposed", "tswls_static"])
        written = []
        for threads in ("1", "3"):
            out = tmp_path / f"t{threads}.csv"
            assert main(["experiment", "--input", str(spec), "--output", str(out), "--threads", threads]) == 0
            written.append((out.read_bytes(), (tmp_path / f"t{threads}_cdf.csv").read_bytes()))
        assert written[0] == written[1]

    def test_sweep_estimates_on_the_calling_thread(self, tmp_path, monkeypatch):
        estimate, callers = estimator.estimate, []

        def spy(frame):
            callers.append(threading.get_ident())
            return estimate(frame)

        monkeypatch.setattr(estimator, "estimate", spy)
        spec = mini_experiment(tmp_path, n_trials=12)
        assert main(["experiment", "--input", str(spec), "--output", str(tmp_path / "o.csv"), "--threads", "3"]) == 0
        assert callers == [threading.get_ident()] * 24

    @pytest.mark.parametrize("path", EXPERIMENT_SPECS, ids=lambda p: p.name)
    def test_shipped_specs_take_trial_and_seed_overrides(self, path, tmp_path):
        code = main(["experiment", "--input", str(path), "--output", str(tmp_path / "o.csv"),
                     "--set", "n_trials=1", "--set", "base_seed=4097"])
        assert code == 0


class TestConsoleEntryPoint:
    def test_installed_script(self, tmp_path, scenario_file):
        exe = shutil.which("seqtoa")
        if exe is None:
            pytest.skip("console script not installed")
        out = tmp_path / "f.json"
        proc = subprocess.run(
            [exe, "simulate", "--input", str(scenario_file), "--output", str(out), "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_entry_point_runs_without_install(self, tmp_path, scenario_file):
        # the [project.scripts] entry names cli.main, and the module runs as a script from src
        text = (REPO / "pyproject.toml").read_text()
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            target = re.search(r'^\[project\.scripts\]\s*^seqtoa\s*=\s*"([^"]+)"', text, re.M).group(1)
        else:
            target = tomllib.loads(text)["project"]["scripts"]["seqtoa"]
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is main
        out = tmp_path / "f.json"
        proc = run_cli_module("simulate", "--input", scenario_file, "--output", out, "--seed", "1")
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    @pytest.mark.parametrize("command", ["estimate", "simulate", "crlb", "experiment"])
    def test_negative_seed_exits_1(self, command, exact_frame_file, scenario_file, tmp_path, capsys):
        inputs = {"estimate": exact_frame_file[0], "simulate": scenario_file, "crlb": scenario_file,
                  "experiment": mini_experiment(tmp_path)}
        code = main([command, "--input", str(inputs[command]), "--output", str(tmp_path / "o.json"), "--seed", "-1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--seed" in err

    def test_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["experiment", "--help"])
        assert exc_info.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--input", "--output", "--seed", "--threads", "--set"):
            assert flag in text
