import json
import tracemalloc

import numpy as np
import pytest

from seqtoa import (
    EstimationError,
    ExperimentSpec,
    MleConfig,
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
from seqtoa.montecarlo import _run_trial
from seqtoa.model import C_LIGHT


class TestSampleRandomTopology:
    def test_determinism(self):
        bounds = TopologyBounds()
        s1 = sample_random_topology(bounds, np.random.default_rng(42))
        s2 = sample_random_topology(bounds, np.random.default_rng(42))
        assert np.array_equal(s1.target.as_vector(), s2.target.as_vector())
        for a1, a2 in zip(s1.agents, s2.agents):
            assert np.array_equal(a1.p_m, a2.p_m) and a1.T_m == a2.T_m
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
            for m, a in enumerate(s.agents):
                agent_xy[i, m] = a.p_m
                offsets[i, m] = a.T_m
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

    def test_thread_count_does_not_change_results(self):
        spec = small_spec(n_trials=24, sweep_values=(-30.0,))
        r1 = run_trials(spec, threads=1)
        r2 = run_trials(spec, threads=3)
        for key in r1:
            assert r1[key].mse_position == r2[key].mse_position
            assert np.array_equal(r1[key].cdf_samples, r2[key].cdf_samples)

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
            scenario, frame, _, _ = _run_trial(spec, -20.5, i)
            res = tswls_static_estimate(frame)
            if res.success:
                sq_errors.append(float(np.sum((res.position - scenario.target.p) ** 2)))
            traces.append(np.trace(crlb_target(scenario).crlb_x[:2, :2]))
        assert stats.n_success == len(sq_errors) > 200
        assert np.allclose(stats.cdf_samples, sq_errors, rtol=1e-12, atol=0.0)
        assert stats.crlb_trace_position == pytest.approx(np.mean(traces), rel=1e-12)
        threaded = run_trials(spec, threads=2)[(-20.5, "tswls_static")]
        assert np.array_equal(threaded.cdf_samples, stats.cdf_samples)
        assert threaded.crlb_trace_position == stats.crlb_trace_position

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
            scenario, frame, init, _ = _run_trial(spec, -20.5, i)
            try:
                cfg = MleConfig(init=TargetState.from_vector(init), max_iters=spec.mle_max_iters)
                report = mle_estimate(frame, cfg)
            except EstimationError:
                continue
            if not report.diverged:
                sq_errors.append(float(np.sum((report.x_hat.p - scenario.target.p) ** 2)))
        assert 0 < stats.divergence_count == spec.n_trials - len(sq_errors)
        assert np.array_equal(stats.cdf_samples, sq_errors)
        threaded = run_trials(spec, threads=2)[(-20.5, "mle")]
        assert np.array_equal(threaded.cdf_samples, stats.cdf_samples)
        assert np.array_equal(threaded.bias, stats.bias)

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
            for threads in (1, 3):
                stack_sizes.clear()
                path = tmp_path / f"sweep_{chunk}_{threads}.csv"
                write_sweep_csv(run_trials(spec, threads=threads), spec, path)
                csvs.add(path.read_bytes())
                assert stack_sizes == sizes, (chunk, threads)
        assert len(csvs) == 1

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
        with pytest.raises(ValueError, match="sweep_values must not repeat"):
            small_spec(sweep_values=(-40.0, -30.0, -40.0))
        with pytest.raises(ValueError, match="sweep_values must not repeat"):
            small_spec(sweep_values=(0.0, -0.0))  # one key of the results


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
        t = np.array([a.t_m for a in base.agents])
        p_m = np.array([a.p_m for a in base.agents])
        T_m = np.array([a.T_m for a in base.agents])
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

    def test_run_trial_is_a_chunk_of_one(self):
        spec = small_spec(scheme="random_topology", n_trials=20, sweep_values=(-20.5,), estimators=("proposed", "mle"),
                          topology=TopologyBounds())
        chunk = montecarlo._draw_chunk(spec, [(-20.5, i) for i in range(spec.n_trials)])
        for i in range(spec.n_trials):
            scenario, frame, init, errors = _run_trial(spec, -20.5, i)
            assert scenario.target.as_vector().tobytes() == chunk.x[i].tobytes()
            assert np.array_equal([a.p_m for a in scenario.agents], chunk.p_m[i])
            assert frame.tau.tobytes() == chunk.stack.tau[i].tobytes()
            assert frame.noise.blocks.tobytes() == chunk.stack.blocks[i].tobytes()
            assert init.tobytes() == chunk.inits[i].tobytes()
            assert set(errors) == {"proposed"}


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
        t = s.slot_times()
        assert t[0] == 0.0
        assert np.allclose(np.diff(t), 0.05)

    def test_parsed_once_and_shared_read_only(self):
        s = fixed_topology()
        assert fixed_topology() is s
        for arr in (s.agents[0].p_m, s.target.p, s.target.v, s.noise.C_tau, s.noise.C_beta):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
