import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from seqtoa import (
    Agents,
    CrlbResult,
    DegenerateGeometryError,
    EstimateReport,
    EstimationError,
    ExperimentSpec,
    NoiseSpec,
    ObservedFrame,
    Scenario,
    StaticTswlsResult,
    TargetState,
    TopologyBounds,
    crlb_target,
    estimate,
    fixed_topology,
    mle_estimate,
    run_trials,
    sample_random_topology,
    simulate_frame,
    tswls_static_estimate,
    validate_scenario,
    write_sweep_csv,
)
from seqtoa import baselines, montecarlo
from seqtoa.cli import main
from seqtoa.model import C_LIGHT


def one_trial(spec, sweep_value, trial):
    """One trial as a chunk of one: its scenario, its frame and the MLE's
    initial state (None unless ``mle`` runs)."""
    chunk = montecarlo._draw_chunk(spec, [(sweep_value, trial)])
    agents = Agents(t=chunk.stack.t[0], p_m=chunk.p_m[0], T_m=chunk.T_m[0])
    scenario = Scenario(agents=agents, target=TargetState.from_vector(chunk.x[0]), noise=chunk.noise(0))
    return scenario, chunk.frame(0), None if chunk.inits is None else chunk.inits[0]


class TestSampleRandomTopology:
    def test_determinism(self):
        bounds = TopologyBounds()
        s1 = sample_random_topology(bounds, np.random.default_rng(42))
        s2 = sample_random_topology(bounds, np.random.default_rng(42))
        assert np.array_equal(s1.target.as_vector(), s2.target.as_vector())
        assert np.array_equal(s1.agents.p_m, s2.agents.p_m) and np.array_equal(s1.agents.T_m, s2.agents.T_m)
        assert np.array_equal(s1.noise.C_beta, s2.noise.C_beta)

    def test_is_valid_scenario(self):
        s = sample_random_topology(TopologyBounds(), np.random.default_rng(0))
        assert validate_scenario(s) == []

    def test_draw_statistics(self):
        # 1e5 draws: uniform order statistics pin the agent-coordinate range,
        # the target-x mean sits at 25 within 3 SE, clock draws stay in range
        n = 100_000
        bounds = TopologyBounds()
        rng = np.random.default_rng(7)
        agent_xy = np.empty((n, bounds.n_agents, 2))
        target_x = np.empty(n)
        offsets = np.empty((n, bounds.n_agents))
        skews = np.empty(n)
        for i in range(n):
            s = sample_random_topology(bounds, rng)
            agent_xy[i] = s.agents.p_m
            offsets[i] = s.agents.T_m
            target_x[i] = s.target.p[0]
            skews[i] = s.target.omega

        assert 0.0 <= agent_xy.min() <= 0.01 * 50.0
        assert 50.0 - 0.01 * 50.0 <= agent_xy.max() <= 50.0

        se = (150.0 / np.sqrt(12.0)) / np.sqrt(n)
        assert abs(target_x.mean() - 25.0) <= 3.0 * se

        assert np.abs(offsets).max() <= 10e-9 * C_LIGHT
        assert np.abs(skews).max() <= 20e-6 * C_LIGHT


def small_spec(**overrides):
    kwargs = dict(
        scheme="noise_sweep",
        n_trials=40,
        base_seed=99,
        sweep_values=(-40.0, -30.0),
        estimators=("proposed", "tswls_static"),
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestRunTrials:
    def test_zero_noise_gives_zero_mse(self):
        spec = small_spec(
            n_trials=10,
            sweep_values=(-240.0,),
            estimators=("proposed",),
            sigma_tau_sq_db=-240.0,
        )
        stats = run_trials(spec)[(-240.0, "proposed")]
        assert stats.n_success == 10
        for block in ("position", "velocity", "offset", "skew"):
            assert stats.mse(block) <= 1e-16

    def test_bit_identical_reruns(self):
        spec = small_spec()
        r1 = run_trials(spec)
        r2 = run_trials(spec)
        assert r1.keys() == r2.keys()
        for key in r1:
            s1, s2 = r1[key], r2[key]
            assert s1.mse_position == s2.mse_position
            assert s1.mse_velocity == s2.mse_velocity
            assert s1.mse_offset == s2.mse_offset
            assert s1.mse_skew == s2.mse_skew
            assert np.array_equal(s1.bias, s2.bias)
            assert np.array_equal(s1.cdf_samples, s2.cdf_samples)
            assert s1.divergence_count == s2.divergence_count
            assert s1.crlb_trace_position == s2.crlb_trace_position

    def test_mse_monotone_in_agent_uncertainty(self):
        sweep = (-50.0, -40.0, -30.0, -20.0)
        spec = small_spec(n_trials=250, sweep_values=sweep, estimators=("proposed",))
        results = run_trials(spec)
        mses = [results[(v, "proposed")].mse_position for v in sweep]
        for lo, hi in zip(mses, mses[1:]):
            assert hi >= 0.95 * lo

    def test_ltco_failures_counted_not_raised(self):
        spec = small_spec(
            scheme="ltco_sweep",
            n_trials=30,
            sweep_values=(1e-3 * C_LIGHT,),
            estimators=("proposed", "tswls_static"),
            sigma_s_sq_db=-20.5,
        )
        results = run_trials(spec)
        key = (1e-3 * C_LIGHT, "tswls_static")
        assert results[key].divergence_count == 30
        assert np.isnan(results[key].mse_position)
        assert results[(1e-3 * C_LIGHT, "proposed")].n_success == 30

    def test_crlb_attached_per_cell(self):
        spec = small_spec(n_trials=8, sweep_values=(-30.0,))
        stats = run_trials(spec)[(-30.0, "proposed")]
        for block in ("position", "velocity", "offset", "skew"):
            assert np.isfinite(stats.crlb_trace(block)) and stats.crlb_trace(block) > 0

    def test_random_topology_scheme(self):
        spec = small_spec(
            scheme="random_topology",
            n_trials=50,
            sweep_values=(-20.5,),
            estimators=("proposed",),
            topology=TopologyBounds(),
        )
        stats = run_trials(spec)[(-20.5, "proposed")]
        assert stats.n_success + stats.divergence_count == 50
        assert stats.cdf_samples.size == stats.n_success
        assert np.isfinite(stats.crlb_trace_position)

    def test_stacked_work_matches_per_trial_calls(self):
        # 260 trials make two chunks, the second of 4 trials; one random
        # topology per trial gives each stacked CRLB different geometry
        spec = small_spec(
            scheme="random_topology",
            n_trials=260,
            sweep_values=(-20.5,),
            estimators=("tswls_static",),
            topology=TopologyBounds(),
        )
        stats = run_trials(spec)[(-20.5, "tswls_static")]
        sq_errors, traces = [], []
        for i in range(spec.n_trials):
            scenario, frame, _ = one_trial(spec, -20.5, i)
            try:
                res = tswls_static_estimate(frame)
            except EstimationError:
                pass
            else:
                sq_errors.append(float(np.sum((res.position - scenario.target.p) ** 2)))
            traces.append(np.trace(crlb_target(scenario).crlb_x[:2, :2]))
        assert stats.n_success == len(sq_errors) > 200
        assert np.allclose(stats.cdf_samples, sq_errors, rtol=1e-12, atol=0.0)
        assert stats.crlb_trace_position == pytest.approx(np.mean(traces), rel=1e-12)

    def test_stacked_mle_matches_per_trial_calls(self):
        # 260 random-topology trials make two chunks, the second of 4 trials
        spec = small_spec(
            scheme="random_topology",
            n_trials=260,
            sweep_values=(-20.5,),
            estimators=("mle",),
            topology=TopologyBounds(),
        )
        stats = run_trials(spec)[(-20.5, "mle")]
        sq_errors = []
        for i in range(spec.n_trials):
            scenario, frame, init = one_trial(spec, -20.5, i)
            try:
                report = mle_estimate(frame, TargetState.from_vector(init), spec.mle_max_iters)
            except EstimationError:
                continue
            if not report.diverged:
                sq_errors.append(float(np.sum((report.x_hat.p - scenario.target.p) ** 2)))
        assert 0 < stats.divergence_count == spec.n_trials - len(sq_errors)
        assert np.array_equal(stats.cdf_samples, sq_errors)

    def test_sweep_builds_no_per_trial_objects(self, monkeypatch):
        # the stacked stages return columns and a sweep reads them as they
        # are: no report, result or state object is built per trial
        built = []

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                built.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for cls in (EstimateReport, StaticTswlsResult, CrlbResult):
            monkeypatch.setattr(cls, "__init__", spy(cls.__name__, cls.__init__))
        monkeypatch.setattr(TargetState, "from_vector", classmethod(spy("from_vector", TargetState.from_vector.__func__)))
        spec = small_spec(scheme="random_topology", n_trials=12, sweep_values=(-20.5,),
                          estimators=("tswls_static", "mle"), topology=TopologyBounds())
        results = run_trials(spec)
        assert built == []
        assert all(results[(-20.5, e)].n_success > 0 for e in spec.estimators)
        # the single-frame entries build them, so the spies see them
        scenario, frame, init = one_trial(spec, -20.5, 0)
        tswls_static_estimate(frame), mle_estimate(frame, scenario.target), crlb_target(scenario)
        assert set(built) == {"EstimateReport", "StaticTswlsResult", "CrlbResult", "from_vector"}

    def test_crlb_failure_leaves_estimator_counts(self):
        # the target sits on agent 0 at its slot time t = 0, so every trial's
        # CRLB fails with DegenerateGeometryError; the estimators still count
        # their own successes, and 12 trials in chunks of 256 span no chunk
        base = fixed_topology()
        assert base.agents.t[0] == 0.0
        target = TargetState.from_vector(np.concatenate([base.agents.p_m[0], base.target.as_vector()[2:]]))
        topology = Scenario(agents=base.agents, target=target, noise=base.noise)
        spec = small_spec(n_trials=12, sweep_values=(-30.0,), estimators=montecarlo.ESTIMATOR_IDS, topology=topology)
        results = run_trials(spec)
        want = dict.fromkeys(montecarlo.ESTIMATOR_IDS, 0)
        for i in range(spec.n_trials):
            scenario, frame, init = one_trial(spec, -30.0, i)
            with pytest.raises(DegenerateGeometryError, match="coincides with agent"):
                crlb_target(scenario)
            try:
                want["proposed"] += bool(np.all(np.isfinite(estimate(frame).x_hat.as_vector())))
            except EstimationError:
                pass
            try:
                tswls_static_estimate(frame)
                want["tswls_static"] += 1
            except EstimationError:
                pass
            try:
                report = mle_estimate(frame, TargetState.from_vector(init), spec.mle_max_iters)
            except EstimationError:
                continue
            want["mle"] += not report.diverged and bool(np.all(np.isfinite(report.x_hat.as_vector())))
        assert want["proposed"] > 0 and want["mle"] > 0
        for est_id, n_success in want.items():
            stats = results[(-30.0, est_id)]
            assert (stats.n_success, stats.divergence_count) == (n_success, spec.n_trials - n_success), est_id
            assert stats.cdf_samples.size == n_success
            for block in ("position", "velocity", "offset", "skew"):
                assert np.isnan(stats.crlb_trace(block)), (est_id, block)

    def test_chunks_span_cells_without_changing_results(self, tmp_path, monkeypatch):
        # 3 cells of 10 trials: chunks of 7 cross every cell boundary, one
        # chunk of 256 holds the whole run
        spec = small_spec(n_trials=10, sweep_values=(-40.0, -30.0, -20.0), estimators=montecarlo.ESTIMATOR_IDS)
        mle_batch, stack_sizes = baselines.mle_batch, []

        def spy(frames, *args, **kwargs):
            stack_sizes.append(len(frames))
            return mle_batch(frames, *args, **kwargs)

        monkeypatch.setattr(baselines, "mle_batch", spy)
        csvs = set()
        for chunk, sizes in [(1, [1] * 30), (7, [7, 7, 7, 7, 2]), (256, [30])]:
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
            stack_sizes.clear()
            path = tmp_path / f"sweep_{chunk}.csv"
            results = run_trials(spec)
            write_sweep_csv(results, spec, path)
            csvs.add(path.read_bytes())
            assert stack_sizes == sizes, chunk
        assert len(csvs) == 1
        # a CDF has no sweep column: three sweep values have none
        with pytest.raises(ValueError, match="single-sweep-value"):
            montecarlo.write_cdf_csv(results, spec, tmp_path / "cdf.csv")
        assert not (tmp_path / "cdf.csv").exists()

    def test_proposed_failing_every_trial_is_counted(self):
        # 8 agents give 8 broadcasts, fewer than the 9 the proposed estimator
        # needs: every one of its trials fails, and the MLE (6 or more) and
        # the CRLB run as they do without it
        spec = small_spec(scheme="random_topology", n_trials=12, sweep_values=(-20.5,), estimators=("proposed", "mle"),
                          topology=TopologyBounds(n_agents=8))
        results = run_trials(spec)
        proposed, mle = results[(-20.5, "proposed")], results[(-20.5, "mle")]
        assert (proposed.n_success, proposed.divergence_count) == (0, spec.n_trials)
        assert proposed.cdf_samples.size == 0 and np.isnan(proposed.bias).all()
        alone = run_trials(dataclasses.replace(spec, estimators=("mle",)))[(-20.5, "mle")]
        assert alone.n_success > 0
        assert (mle.n_success, mle.divergence_count) == (alone.n_success, alone.divergence_count)
        assert np.array_equal(mle.cdf_samples, alone.cdf_samples)
        for block in ("position", "velocity", "offset", "skew"):
            assert np.isnan(proposed.mse(block)), block
            assert np.isfinite(proposed.crlb_trace(block)) and proposed.crlb_trace(block) == mle.crlb_trace(block), block

    def test_mle_with_five_agents_fails_every_trial(self, tmp_path):
        doc = {
            "scheme": "random_topology",
            "n_trials": 6,
            "base_seed": 3,
            "sweep_values": [-20.5],
            "estimators": ["mle"],
            "topology": {"random": {"n_agents": 5}},
        }
        path, out = tmp_path / "exp.json", tmp_path / "o.csv"
        path.write_text(json.dumps(doc))
        assert main(["experiment", "--input", str(path), "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert rows and all(row[1] == "mle" and row[6:] == ["0", "6"] for row in rows)

    def test_mle_estimator_runs(self):
        spec = small_spec(n_trials=12, sweep_values=(-30.0,), estimators=("mle",))
        stats = run_trials(spec)[(-30.0, "mle")]
        assert stats.n_success >= 10
        assert stats.mse_position < 1.0

    def test_spec_rejects_values_that_crashed_a_run(self):
        # each of these used to construct, then raise inside run_trials
        for kwargs, field in [
            ({"sigma_tau_sq_db": 4000.0}, "sigma_tau_sq_db"),  # c_tau must be finite
            ({"scheme": "ltco_sweep", "sweep_values": (29.9, np.nan)}, "sweep_values[1]"),  # tau must be finite
            ({"sweep_values": (-40.0, 4000.0)}, "sweep_values[1]"),  # blocks must be finite
            ({"agent_sigma_halfwidth_db": 1e308}, "agent_sigma_halfwidth_db"),  # the uniform draw overflowed
            ({"base_seed": -1}, "base_seed"),  # SeedSequence: negative entropy
            ({"base_seed": 1.5}, "base_seed"),  # float ^ int
            ({"n_trials": 2.5}, "n_trials"),  # float trial count
            ({"mle_max_iters": 2.5}, "mle_max_iters"),
            ({"n_trials": True}, "n_trials"),  # ran one trial
            ({"base_seed": 2**63}, "base_seed"),  # beyond the documents' signed 64-bit range
        ]:
            with pytest.raises(ValueError, match=re.escape(f"{field}: ")) as info:
                small_spec(**kwargs)
            assert info.value.field == field
        for field, value in (("base_seed", 0), ("base_seed", 2**63 - 1), ("n_trials", np.int64(3))):
            spec = small_spec(**{field: value})
            assert getattr(spec, field) == value and type(getattr(spec, field)) is int
        # ltco_sweep sweeps offsets in meters, not dB
        assert small_spec(scheme="ltco_sweep", sweep_values=(4000.0,)).sweep_values == (4000.0,)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(scheme="bogus")
        with pytest.raises(ValueError):
            small_spec(n_trials=0)
        with pytest.raises(ValueError):
            small_spec(sweep_values=())
        with pytest.raises(ValueError):
            small_spec(estimators=("nope",))
        with pytest.raises(ValueError, match="non-empty"):
            small_spec(estimators=())
        with pytest.raises(ValueError, match="repeat"):
            small_spec(estimators=("mle", "proposed", "mle"))
        with pytest.raises(ValueError, match="sweep_values: must not repeat"):
            small_spec(sweep_values=(-40.0, -30.0, -40.0))
        with pytest.raises(ValueError, match="sweep_values: must not repeat"):
            small_spec(sweep_values=(0.0, -0.0))  # one key of the results
        with pytest.raises(ValueError, match="topology: must be a Scenario or None for a noise_sweep"):
            small_spec(topology=TopologyBounds(n_agents=20))
        with pytest.raises(ValueError, match="topology: must be a TopologyBounds or None for a random_topology"):
            small_spec(scheme="random_topology", topology=fixed_topology())
        for bad in (np.nan, np.inf, 0.0, -0.05):
            with pytest.raises(ValueError, match="slot_interval: must be finite and > 0"):
                TopologyBounds(slot_interval=bad)
        for name, bad in (("agent_xy", (0.0, np.inf)), ("velocity", (-np.inf, 5.0)), ("skew_ppm", (np.nan, 20.0)),
                          ("target_offset_ns", (-1e308, 1e308))):
            with pytest.raises(ValueError, match=f"{name}: bounds must be finite"):
                TopologyBounds(**{name: bad})
        # every bad value below made sample_random_topology raise mid-draw
        for kwargs, message in [
            ({"sigma_s_sq_db": np.nan}, "sigma_s_sq_db"),
            ({"sigma_s_sq_db": np.inf}, "sigma_s_sq_db"),
            ({"agent_sigma_halfwidth_db": np.nan}, "agent_sigma_halfwidth_db: must be finite"),
            ({"agent_sigma_halfwidth_db": np.inf}, "agent_sigma_halfwidth_db: must be finite"),
            ({"agent_sigma_halfwidth_db": -3.0}, "agent_sigma_halfwidth_db: must be finite and >= 0"),
            ({"sigma_tau_sq_db": 4000.0}, "sigma_tau_sq_db: 4000.0 dB is beyond the range of a finite positive variance"),
            ({"sigma_s_sq_db": -20.5, "agent_sigma_halfwidth_db": 3300.0}, "sigma_s_sq_db"),
            ({"n_agents": 2.5}, "n_agents: expected an integer, got"),
            ({"n_agents": True}, "n_agents: expected an integer, got"),
            ({"n_agents": 0}, "n_agents: expected an integer from 1 to"),
            ({"slot_interval": 1e308}, r"slot_interval \* \(n_agents - 1\) must be finite"),
        ]:
            with pytest.raises(ValueError, match=message):
                TopologyBounds(**kwargs)
        assert TopologyBounds(agent_sigma_halfwidth_db=0.0, n_agents=np.int64(12)).n_agents == 12
        # the draw ranges of a sweep: a negative, non-finite or overflowing
        # halfwidth or offset made run_trials raise mid-run
        for kwargs, message in [
            ({"agent_sigma_halfwidth_db": -3.0}, "agent_sigma_halfwidth_db: must be finite and >= 0"),
            ({"agent_sigma_halfwidth_db": np.nan}, "agent_sigma_halfwidth_db: must be finite"),
            ({"agent_sigma_halfwidth_db": np.inf}, "agent_sigma_halfwidth_db: must be finite"),
            ({"target_offset_ns": -1.0}, "target_offset_ns: must be >= 0"),
            ({"target_offset_ns": np.nan}, "target_offset_ns: must be >= 0"),
            ({"target_offset_ns": np.inf}, "target_offset_ns: must be >= 0"),
            ({"target_offset_ns": 1e308}, "target_offset_ns: must be >= 0 and give a finite draw range"),
            # these built, and then every MLE trial failed while the run succeeded
            ({"mle_init_sigma": np.inf}, "mle_init_sigma: must be > 0 and give finite draws, got inf"),
            ({"mle_init_sigma": np.nan}, "mle_init_sigma: must be > 0 and give finite draws"),
            ({"mle_init_sigma": 1e308}, "mle_init_sigma: must be > 0 and give finite draws"),
            ({"mle_init_sigma": 0.0}, "mle_init_sigma: must be > 0"),
            ({"mle_init_sigma": -1.0}, "mle_init_sigma: must be > 0"),
        ]:
            with pytest.raises(ValueError, match=message):
                small_spec(**kwargs)
        assert small_spec(agent_sigma_halfwidth_db=0.0, target_offset_ns=0.0).target_offset_ns == 0.0
        assert small_spec(mle_init_sigma=1e306).mle_init_sigma == 1e306


def per_object_trial(spec, sweep_value, trial):
    """One trial as the sweeps generated it one object at a time, with a
    dense noise spec and a Cholesky factor of the whole ``C_beta``: the
    reference for the chunk generator.  Returns the target state, the noise
    columns, the observed columns and the MLE's initial state."""
    streams = np.random.SeedSequence(spec.base_seed ^ trial).spawn(3)
    rng = np.random.default_rng(streams[0])
    frame_rng = np.random.default_rng(int(streams[1].generate_state(1, np.uint64)[0]))
    rng_est = np.random.default_rng(streams[2])
    hw = spec.agent_sigma_halfwidth_db
    if spec.scheme == "random_topology":
        b = spec.topology
        M = b.n_agents
        t = b.slot_interval * np.arange(M)
        p_m = rng.uniform(b.agent_xy[0], b.agent_xy[1], size=(M, 2))
        T_m = rng.uniform(b.agent_offset_ns[0], b.agent_offset_ns[1], size=M) * 1e-9 * C_LIGHT
        target = TargetState(
            p=rng.uniform(b.target_xy[0], b.target_xy[1], size=2),
            v=rng.uniform(b.velocity[0], b.velocity[1], size=2),
            T=rng.uniform(b.target_offset_ns[0], b.target_offset_ns[1]) * 1e-9 * C_LIGHT,
            omega=rng.uniform(b.skew_ppm[0], b.skew_ppm[1]) * 1e-6 * C_LIGHT,
        )
        center = sweep_value
    else:
        base = fixed_topology()
        M = base.n_agents
        t, p_m, T_m = base.agents.t, base.agents.p_m, base.agents.T_m
        if spec.scheme == "noise_sweep":
            center, T = sweep_value, rng.uniform(-spec.target_offset_ns, spec.target_offset_ns) * 1e-9 * C_LIGHT
        else:
            center, T = spec.sigma_s_sq_db, float(sweep_value)
        target = TargetState(p=base.target.p, v=base.target.v, T=T, omega=rng.uniform(-20.0, 20.0) * 1e-6 * C_LIGHT)
    sigma_db = rng.uniform(center - hw, center + hw, size=M)
    C_tau = np.eye(M) * float(10.0 ** (np.asarray(spec.sigma_tau_sq_db) / 10.0))
    C_beta = np.diag(np.repeat(10.0 ** (sigma_db / 10.0), 3))

    d_tau = frame_rng.standard_normal(M) * np.sqrt(np.diag(C_tau))
    d_beta = (np.linalg.cholesky(C_beta) @ frame_rng.standard_normal(3 * M)).reshape(M, 3)
    u = target.p + target.v * t[:, None] - p_m
    tau = np.sqrt(np.vecdot(u, u)) + target.T + target.omega * t - T_m + d_tau
    truth = target.as_vector()
    init = truth + rng_est.normal(0.0, spec.mle_init_sigma, size=6)
    blocks = C_beta.reshape(M, 3, M, 3)[np.arange(M), :, np.arange(M), :]
    return truth, np.diag(C_tau), blocks, tau, p_m + d_beta[:, :2], T_m + d_beta[:, 2], init


class TestChunkGenerator:
    @pytest.mark.parametrize(
        "scheme, sweep",
        [
            ("noise_sweep", (-50.0, -30.0, -10.0)),
            ("ltco_sweep", (1e-8 * C_LIGHT, 1e-5 * C_LIGHT, 1e-3 * C_LIGHT)),
            ("random_topology", (-30.0, -20.5, -10.0)),
        ],
    )
    def test_matches_per_object_generation_bit_for_bit(self, scheme, sweep):
        # 3 sweep values x 55 trials: every target, noise column, frame and
        # MLE init of a chunk that spans cells equals the per-object one
        topology = TopologyBounds() if scheme == "random_topology" else None
        spec = small_spec(scheme=scheme, n_trials=55, base_seed=5, sweep_values=sweep, estimators=("proposed", "mle"),
                          topology=topology)
        units = [(v, i) for v in sweep for i in range(spec.n_trials)]
        chunk = montecarlo._draw_chunk(spec, units)
        s = chunk.stack
        for k, (v, i) in enumerate(units):
            truth, c_tau, blocks, tau, p_hat, T_hat, init = per_object_trial(spec, v, i)
            got = (chunk.x[k], s.c_tau[k], s.blocks[k], s.tau[k], s.p_hat[k], s.T_hat[k], chunk.inits[k])
            for name, a, b in zip(("x", "c_tau", "blocks", "tau", "p_hat", "T_hat", "init"), got,
                                  (truth, c_tau, blocks, tau, p_hat, T_hat, init)):
                assert a.tobytes() == b.tobytes(), (name, v, i)

    @pytest.mark.parametrize(
        "scheme, sweep",
        [
            ("noise_sweep", (-40.0, -10.0)),
            ("ltco_sweep", (1e-8 * C_LIGHT, 1e-3 * C_LIGHT)),
            ("random_topology", (-20.5,)),
        ],
    )
    def test_trial_frames_are_simulate_frame_of_their_scenarios(self, scheme, sweep):
        # the sweeps and simulate_frame run one simulation kernel: a trial's observed columns are
        # the bytes simulate_frame gives the trial's scenario at the trial's frame seed
        topology = TopologyBounds() if scheme == "random_topology" else None
        spec = small_spec(scheme=scheme, n_trials=40, base_seed=11, sweep_values=sweep, topology=topology)
        units = [(v, i) for v in sweep for i in range(spec.n_trials)]
        chunk = montecarlo._draw_chunk(spec, units)
        s = chunk.stack
        for k, (v, i) in enumerate(units):
            agents = Agents(t=s.t[k], p_m=chunk.p_m[k], T_m=chunk.T_m[k])
            scenario = Scenario(agents=agents, target=TargetState.from_vector(chunk.x[k]), noise=chunk.noise(k))
            frame_seed = int(np.random.SeedSequence(spec.base_seed ^ i).spawn(3)[1].generate_state(1, np.uint64)[0])
            frame = simulate_frame(scenario, frame_seed)
            for name in ("tau", "p_hat", "T_hat"):
                assert getattr(frame, name).tobytes() == getattr(s, name)[k].tobytes(), (name, v, i)

    def test_chunk_of_one_is_a_row_of_a_larger_chunk(self):
        spec = small_spec(scheme="random_topology", n_trials=20, sweep_values=(-20.5,), estimators=("proposed", "mle"),
                          topology=TopologyBounds())
        units = [(-20.5, i) for i in range(spec.n_trials)]
        chunk = montecarlo._draw_chunk(spec, units)
        ok, errors = montecarlo._run_chunk(spec, units)["proposed"]
        for i, unit in enumerate(units):
            scenario, frame, init = one_trial(spec, *unit)
            assert scenario.target.as_vector().tobytes() == chunk.x[i].tobytes()
            assert np.array_equal(scenario.agents.p_m, chunk.p_m[i])
            assert frame.tau.tobytes() == chunk.stack.tau[i].tobytes()
            assert frame.noise.blocks.tobytes() == chunk.stack.blocks[i].tobytes()
            assert init.tobytes() == chunk.inits[i].tobytes()
            columns = montecarlo._run_chunk(spec, [unit])
            assert set(columns) == {"proposed", "mle", "crlb"}
            (one_ok,), (one_error,) = columns["proposed"]
            assert one_ok == ok[i]
            assert not ok[i] or one_error.tobytes() == errors[i].tobytes()


class TestStreamStates:
    """The chunk's stream seed words are computed by hand from numpy's
    documented SeedSequence hashing (``montecarlo._stream_states``), and
    numpy's PCG64 seeds itself from them (``montecarlo._Words``); a numpy
    whose SeedSequence or default_rng seeds differently must fail here, not
    only in the end-to-end bytes of TestChunkGenerator."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]
    BASE = 2**63 - 12345  # base_seed ^ trial at a large base seed

    @pytest.mark.parametrize("base_seed, trials", [(0, SEEDS), (BASE, [0, 1, 7, 255, 2**20 + 3])], ids=["seeds", "xor"])
    def test_states_match_default_rng(self, base_seed, trials):
        words = montecarlo._stream_states(base_seed, trials, 3)
        assert [w.shape for w in words] == [(len(trials), 8)] * 3
        assert all(np.array_equal(a, b) for a, b in zip(montecarlo._stream_states(base_seed, trials, 2), words[:2]))
        for k, trial in enumerate(trials):
            streams = np.random.SeedSequence(base_seed ^ trial).spawn(3)
            frame_seed = int(streams[1].generate_state(1, np.uint64)[0])
            rngs = (np.random.default_rng(streams[0]), np.random.default_rng(frame_seed),
                    np.random.default_rng(streams[2]))
            got = [np.random.PCG64(montecarlo._Words(w[k])).state for w in words]
            assert got == [rng.bit_generator.state for rng in rngs], trial

    @pytest.mark.parametrize("seed", [*SEEDS, BASE ^ 255])
    def test_pools_and_frame_seed_match_seed_sequence(self, seed):
        # a spawned child's entropy: the seed's two 32-bit words, zeros up to
        # four words, then the spawn key
        entropy = np.array([[seed & 0xFFFFFFFF, seed >> 32, 0, 0, j] for j in range(3)], dtype=np.uint32)
        pools = montecarlo._pools(entropy)
        children = np.random.SeedSequence(seed).spawn(3)
        assert pools.tolist() == [list(child.pool) for child in children]
        assert montecarlo._generate(pools, 8).tolist() == [list(child.generate_state(8)) for child in children]
        lo, hi = montecarlo._generate(pools[1:2], 2)[0].tolist()
        assert lo | hi << 32 == int(children[1].generate_state(1, np.uint64)[0])

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 - 1])
    def test_one_word_seed_hashes_as_two(self, seed):
        # the frame stream hashes its seed as two words; below 2**32 numpy
        # hashes one, and the missing word must hash as the zero put there
        pool = montecarlo._pools(np.array([[seed, 0, 0, 0]], dtype=np.uint32))
        assert pool[0].tolist() == list(np.random.SeedSequence(seed).pool)
        state = np.random.PCG64(montecarlo._Words(montecarlo._generate(pool, 8)[0])).state
        assert state == np.random.default_rng(seed).bit_generator.state


class TestChunkFrames:
    def test_frames_are_read_only_row_views(self):
        spec = small_spec(n_trials=4, sweep_values=(-30.0,))
        chunk = montecarlo._draw_chunk(spec, [(-30.0, i) for i in range(4)])
        s = chunk.stack
        for k in range(4):
            frame = chunk.frame(k)
            built = ObservedFrame(t=s.t[k], tau=s.tau[k], p_hat=s.p_hat[k], T_hat=s.T_hat[k],
                                  noise=NoiseSpec(c_tau=s.c_tau[k], blocks=s.blocks[k]))
            for name, column in (("t", s.t), ("tau", s.tau), ("p_hat", s.p_hat), ("T_hat", s.T_hat),
                                 ("c_tau", s.c_tau), ("blocks", s.blocks)):
                got, want = (getattr(f.noise if name in ("c_tau", "blocks") else f, name) for f in (frame, built))
                assert not got.flags.writeable, name
                assert np.shares_memory(got, column), name
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
            assert frame.n_agents == built.n_agents and frame.noise.n_agents == built.noise.n_agents
            assert estimate(frame).x_hat.as_vector().tobytes() == estimate(built).x_hat.as_vector().tobytes()

    def test_non_finite_column_raises_as_a_frame_did(self):
        # 1e200 m away, the squared ranges overflow: the TOAs are infinite
        base = fixed_topology()
        far = TargetState(p=base.target.p + 1e200, v=base.target.v, T=base.target.T, omega=base.target.omega)
        spec = small_spec(n_trials=3, sweep_values=(-30.0,), topology=Scenario(agents=base.agents, target=far,
                                                                                noise=base.noise))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="^tau must be finite$"):
                montecarlo._draw_chunk(spec, [(-30.0, 0)])
            with pytest.raises(ValueError, match="^tau must be finite$"):
                run_trials(spec)
        with pytest.raises(ValueError, match="^tau must be finite$"):
            ObservedFrame(t=base.agents.t, tau=np.full(base.n_agents, np.inf), p_hat=base.agents.p_m,
                          T_hat=base.agents.T_m, noise=base.noise)


class TestLargeFrames:
    def test_memory_stays_linear_in_agents(self):
        # M = 1000: a dense (3M, 3M) C_beta alone is 72 MB, its factor as much again
        tracemalloc.start()
        try:
            scenario = sample_random_topology(TopologyBounds(n_agents=1000), np.random.default_rng(3))
            frame = simulate_frame(scenario, 4)
            report = estimate(frame)
            bound = crlb_target(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(report.x_hat.as_vector())) and np.all(np.isfinite(bound.crlb_x))
        assert peak <= 20e6, peak


class TestFixedTopology:
    def test_loads_and_validates(self):
        s = fixed_topology()
        assert s.n_agents == 10
        assert validate_scenario(s) == []
        assert np.array_equal(s.target.v, [-5.0, 0.0])
        t = s.agents.t
        assert t[0] == 0.0
        assert np.allclose(np.diff(t), 0.05)

    def test_parsed_once_and_shared_read_only(self):
        s = fixed_topology()
        assert fixed_topology() is s
        for arr in (s.agents.t, s.agents.p_m, s.agents.T_m, s.target.p, s.target.v, s.noise.C_tau, s.noise.C_beta):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
