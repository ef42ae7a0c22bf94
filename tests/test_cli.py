import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from seqtoa import NoiseSpec, Scenario, crlb_target, estimator, exact_frame, fixed_topology
from seqtoa.cli import main
from seqtoa.serialize import experiment_spec_from_dict, frame_to_dict, scenario_to_dict

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
#: the shipped experiment specs and the benchmark's sweep workloads
EXPERIMENT_SPECS = [
    path
    for path in sorted([*CONFIG_DIR.glob("*.json"), *(CONFIG_DIR.parent / "perfbench" / "workloads").glob("*.json")])
    if "n_trials" in json.loads(path.read_text())
]


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
            ("estimators=[]", "estimators must"),
            ('estimators=["mle","mle"]', "estimators must"),
            ("sweep_values=[-20.5,-20.5]", "sweep_values must"),
        ]:
            code = main(["experiment", "--input", str(exp), "--output", str(tmp_path / "o.csv"), "--set", setting])
            assert code == 1, setting
            assert f"experiment: {message}" in capsys.readouterr().err, setting
        # draw ranges the noise sweep cannot draw from
        exp.write_text(json.dumps({**random, "scheme": "noise_sweep", "topology": "fixed"}))
        for setting, message in [
            ("agent_sigma_halfwidth_db=-3", "agent_sigma_halfwidth_db must be finite and >= 0, got -3.0"),
            ("target_offset_ns=-1", "target_offset_ns must be >= 0"),
            ("target_offset_ns=1e308", "target_offset_ns must be >= 0"),
        ]:
            code = main(["experiment", "--input", str(exp), "--output", str(tmp_path / "o.csv"), "--set", setting])
            assert code == 1, setting
            assert f"experiment: {message}" in capsys.readouterr().err, setting
        ltco = {**random, "scheme": "ltco_sweep", "sweep_values": [4000.0], "topology": "fixed"}
        assert experiment_spec_from_dict(ltco).sweep_values == (4000.0,)
        # a topology of the wrong kind for the scheme
        for doc, message in [
            ({**random, "scheme": "noise_sweep", "topology": {"random": {"n_agents": 20}}}, "topology of a noise_sweep"),
            ({**random, "topology": scenario_to_dict(fixed_topology())}, "topology of a random_topology"),
        ]:
            exp.write_text(json.dumps(doc))
            code = main(["experiment", "--input", str(exp), "--output", str(tmp_path / "o.csv")])
            assert code == 1, message
            assert f"experiment: {message}" in capsys.readouterr().err, message


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
