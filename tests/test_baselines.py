import dataclasses
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtoa import (
    Agents,
    ExperimentSpec,
    ConditioningError,
    FrameStack,
    NoiseSpec,
    Scenario,
    StaticTswlsResult,
    TargetState,
    DegenerateGeometryError,
    EstimationError,
    UnderdeterminedError,
    crlb_target,
    estimate,
    exact_frame,
    mle_batch,
    mle_estimate,
    simulate_frame,
    tswls_static_batch,
    tswls_static_estimate,
)
from seqtoa import estimator, montecarlo
from seqtoa.model import C_LIGHT

from conftest import SWEEP_POINTS, anisotropic_scenario, entries, random_scenario, sweep_scenario

ROUGH_INIT_SCALE = np.array([100.0, 100.0, 20.0, 20.0, 500.0, 100.0])


def static_scenario(rng, M=10, sigma_tau_sq=1e-3, sigma_s_sq_db=-30.0):
    """Target at rest with zero skew, all broadcasts in one slot."""
    base = random_scenario(rng, M=M, sigma_tau_sq=sigma_tau_sq, sigma_s_sq_db=sigma_s_sq_db, moving=False)
    agents = dataclasses.replace(base.agents, t=np.zeros(M))
    return Scenario(agents=agents, target=base.target, noise=base.noise)


class TestMleEstimate:
    def test_zero_noise_truth_init(self, fixed_scenario):
        frame = exact_frame(fixed_scenario)
        report = mle_estimate(frame, fixed_scenario.target)
        assert report.iterations == 1
        assert report.converged and not report.diverged
        assert np.allclose(report.x_hat.as_vector(), fixed_scenario.target.as_vector(), atol=1e-9)

    def test_needs_six_rows(self):
        scenario = random_scenario(np.random.default_rng(0), M=5)
        frame = exact_frame(scenario)
        with pytest.raises(UnderdeterminedError):
            mle_estimate(frame, scenario.target)

    def test_efficient_when_agents_exact(self, fixed_scenario):
        # C_beta -> 0 makes the agent-trusting MLE the efficient estimator:
        # its error covariance must track the bound within Monte-Carlo error,
        # and its position error must stay comparable (2x) to the pipeline's
        M = fixed_scenario.n_agents
        eps = 1e-12
        scenario = Scenario(
            agents=fixed_scenario.agents,
            target=fixed_scenario.target,
            noise=NoiseSpec.isotropic(1e-3, eps, n_agents=M),
        )
        n = 1000
        rng = np.random.default_rng(1)
        mle_err = np.empty((n, 6))
        prop_err = np.empty((n, 6))
        truth = scenario.target.as_vector()
        for seed in range(n):
            frame = simulate_frame(scenario, seed)
            init = TargetState.from_vector(truth + rng.normal(0.0, 1.0, 6))
            rep = mle_estimate(frame, init)
            assert rep.converged and not rep.diverged
            mle_err[seed] = rep.x_hat.as_vector() - truth
            prop_err[seed] = estimate(frame).x_hat.as_vector() - truth

        crlb_diag = np.diag(crlb_target(scenario).crlb_x)
        emp_var = mle_err.var(axis=0)
        # 3 standard errors of a variance estimate: 3*sqrt(2/n)*var
        slack = 3.0 * np.sqrt(2.0 / n)
        assert np.all(np.abs(emp_var / crlb_diag - 1.0) <= slack)

        mse_mle = (mle_err[:, :2] ** 2).sum(axis=1).mean()
        mse_prop = (prop_err[:, :2] ** 2).sum(axis=1).mean()
        assert mse_mle <= 2.0 * mse_prop
        assert mse_prop <= 2.0 * mse_mle

    def test_divergence_rate_grows_with_agent_errors(self, fixed_scenario):
        # rate at sigma_s^2 = -10 dB must be >= the rate at -30 dB
        def divergence_rate(sigma_s_sq_db, n=400):
            count = 0
            rng = np.random.default_rng(2)
            for seed in range(n):
                sigma_db = rng.uniform(sigma_s_sq_db - 5, sigma_s_sq_db + 5, fixed_scenario.n_agents)
                scenario = Scenario(
                    agents=fixed_scenario.agents,
                    target=fixed_scenario.target,
                    noise=NoiseSpec.from_db(-30.0, sigma_db),
                )
                frame = simulate_frame(scenario, seed)
                init = TargetState.from_vector(
                    scenario.target.as_vector() + rng.normal(0.0, 1.0, 6)
                )
                if mle_estimate(frame, init).diverged:
                    count += 1
            return count / n

        assert divergence_rate(-10.0) >= divergence_rate(-30.0)

    def test_rough_init_reported_not_thrown(self, fixed_scenario):
        # a badly wrong (but geometry-preserving) init either converges or is
        # flagged as diverged; the best iterate stays finite and no numerical
        # exception escapes
        frame = simulate_frame(fixed_scenario, 5)
        truth = fixed_scenario.target.as_vector()
        init = TargetState.from_vector(truth + np.array([100.0, -100.0, 20.0, 20.0, 500.0, 100.0]))
        report = mle_estimate(frame, init, max_iters=30)
        assert isinstance(report.diverged, bool) and isinstance(report.converged, bool)
        assert np.all(np.isfinite(report.x_hat.as_vector()))


class TestTswlsStatic:
    def test_exact_static_recovery(self):
        scenario = static_scenario(np.random.default_rng(3))
        res = tswls_static_estimate(exact_frame(scenario))
        assert np.allclose(res.position, scenario.target.p, atol=1e-7)
        assert res.offset == pytest.approx(scenario.target.T, abs=1e-7)

    def test_worse_than_pipeline_on_moving_target(self, fixed_scenario):
        n = 300
        mse_static, mse_prop = 0.0, 0.0
        ok = 0
        for seed in range(n):
            frame = simulate_frame(fixed_scenario, seed)
            res = static_alone(frame)
            rep = estimate(frame)
            if isinstance(res, EstimationError):
                continue
            ok += 1
            mse_static += float((res.position - fixed_scenario.target.p) @ (res.position - fixed_scenario.target.p))
            mse_prop += float(np.sum((rep.x_hat.p - fixed_scenario.target.p) ** 2))
        assert ok > 0.9 * n
        assert mse_static / ok > mse_prop / ok

    def test_ltco_failure_mode(self, fixed_scenario):
        target = TargetState(
            p=fixed_scenario.target.p, v=fixed_scenario.target.v,
            T=1e-3 * C_LIGHT, omega=fixed_scenario.target.omega,
        )
        scenario = Scenario(
            agents=fixed_scenario.agents, target=target,
            noise=NoiseSpec.from_db(-30.0, np.full(10, -20.5)),
        )
        outcomes = [static_alone(simulate_frame(scenario, s)) for s in range(50)]
        assert sum(isinstance(r, EstimationError) for r in outcomes) >= 45

    def test_batch_returns_failure_single_frame_raises(self):
        # rank-deficient static geometry: agents exactly on the x-axis leave
        # the y column of the design identically zero
        M = 6
        agents = Agents(t=np.zeros(M), p_m=np.column_stack([np.arange(M, dtype=float), np.zeros(M)]), T_m=np.zeros(M))
        scenario = Scenario(
            agents=agents,
            target=TargetState(p=[2.0, 5.0], v=[0, 0], T=0.0, omega=0.0),
            noise=NoiseSpec.isotropic(1e-3, 1e-3, n_agents=M),
        )
        frame = exact_frame(scenario)
        [res] = static_entries(tswls_static_batch(FrameStack.one(frame)))
        assert isinstance(res, ConditioningError)
        assert str(res)
        with pytest.raises(ConditioningError) as raised:
            tswls_static_estimate(frame)
        assert str(raised.value) == str(res)


def static_alone(frame):
    """The static solver's result for one frame, or the error it raised."""
    try:
        return tswls_static_estimate(frame)
    except EstimationError as exc:
        return exc


def static_reference(frame):
    """The static solver one frame at a time, with the dense ``C_e`` built from
    its definition and inverted: the reference for the stacked solver."""
    M = frame.n_agents
    p_hat, alpha = frame.p_hat, frame.tau + frame.T_hat
    G = np.column_stack([2.0 * p_hat, -2.0 * alpha, np.ones(M)])
    h = np.sum(p_hat**2, axis=1) - alpha**2

    def solve_normal(W):
        N = G.T @ W @ G
        if not np.all(np.isfinite(N)) or np.linalg.cond(N) > 1e12:
            return None, None
        return np.linalg.solve(N, G.T @ W @ h), np.linalg.inv(N)

    q, _ = solve_normal(np.eye(M))
    if q is None:
        return "first-pass normal matrix ill-conditioned"
    d = -2.0 * (q[2] - alpha)
    B = np.zeros((M, 3 * M))
    for m in range(M):
        B[m, 3 * m : 3 * m + 2] = 2.0 * (q[0:2] - p_hat[m])
        B[m, 3 * m + 2] = d[m]
    C_e = B @ frame.noise.C_beta @ B.T + np.diag(d) @ frame.noise.C_tau @ np.diag(d)
    try:
        W = np.linalg.inv(C_e)
    except np.linalg.LinAlgError:
        return "static error covariance singular"
    theta_s, C4 = solve_normal(W)
    if theta_s is None:
        return "weighted normal matrix ill-conditioned"
    z = theta_s[:3].copy()
    f_s = np.concatenate([z, [z[2] ** 2 - z[0:2] @ z[0:2]]])
    J_s = np.vstack([np.eye(3), [-2.0 * z[0], -2.0 * z[1], 2.0 * z[2]]])
    C4_inv = np.linalg.inv(C4)
    N_s = J_s.T @ C4_inv @ J_s
    if not np.all(np.isfinite(N_s)) or np.linalg.cond(N_s) > 1e12:
        return "refinement normal matrix ill-conditioned"
    z = z + np.linalg.solve(N_s, J_s.T @ C4_inv @ (theta_s - f_s))
    return z, np.linalg.inv(N_s)


def static_entries(columns):
    """The per-frame entries of :func:`tswls_static_batch`'s columns: each
    frame's :class:`StaticTswlsResult`, or the error that stopped it."""
    z, covariance, errors = columns
    return [errors.get(n) or StaticTswlsResult(position=z[n, 0:2], offset=float(z[n, 2]), covariance=covariance[n])
            for n in range(len(z))]


def static_state(res):
    return np.array([*res.position, res.offset])


def assert_same_result(got, want, rtol):
    if isinstance(want, EstimationError):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert not isinstance(got, EstimationError)
        assert np.abs(static_state(got) - static_state(want)).max() <= rtol * np.abs(static_state(want)).max()
        assert np.abs(got.covariance - want.covariance).max() <= rtol * np.abs(want.covariance).max()


def singular_error_frame(seed):
    """A noise-sweep frame whose agent 0 has zero TOA variance and a zero
    broadcast-error block, so its static ``C_e`` is singular."""
    scenario = sweep_scenario("noise", -30.0, seed)
    C_tau, C_beta = scenario.noise.C_tau.copy(), scenario.noise.C_beta.copy()
    C_tau[0, 0] = 0.0
    C_beta[0:3, 0:3] = 0.0
    return simulate_frame(dataclasses.replace(scenario, noise=NoiseSpec.from_dense(C_tau, C_beta)), seed)


class TestTswlsStaticBatch:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(SWEEP_POINTS, st.integers(0, 2**32 - 1)), min_size=1, max_size=12))
    def test_each_frame_matches_its_batch_of_one(self, draws):
        frames = [simulate_frame(sweep_scenario(kind, value, seed), seed) for (kind, value), seed in draws]
        for frame, got in zip(frames, static_entries(tswls_static_batch(FrameStack.of(frames)))):
            assert_same_result(got, static_alone(frame), 1e-12)

    def test_matches_reference(self):
        for kind, value in [("noise", -40.0), ("noise", -15.0), ("random", -20.5), ("ltco", 1e-3 * C_LIGHT),
                            ("anisotropic", -20.5)]:
            scenarios = [anisotropic_scenario(seed) if kind == "anisotropic" else sweep_scenario(kind, value, seed)
                         for seed in range(20)]
            frames = [simulate_frame(scenario, seed) for seed, scenario in enumerate(scenarios)]
            for frame, got in zip(frames, static_entries(tswls_static_batch(FrameStack.of(frames)))):
                want = static_reference(frame)
                if isinstance(want, str):
                    assert isinstance(got, ConditioningError) and str(got) == want
                    continue
                assert not isinstance(got, EstimationError)
                assert np.abs(static_state(got) - want[0]).max() <= 1e-8 * np.abs(want[0]).max()
                assert np.abs(got.covariance - want[1]).max() <= 1e-8 * np.abs(want[1]).max()

    def test_bad_frame_fails_alone(self):
        good = [simulate_frame(sweep_scenario("noise", -20.0, k), k) for k in range(4)]
        ltco = simulate_frame(sweep_scenario("ltco", 1e-3 * C_LIGHT, 9), 9)
        alone = static_entries(tswls_static_batch(FrameStack.of(good)))
        for bad, message in [
            (singular_error_frame(5), "static error covariance singular"),
            (ltco, "first-pass normal matrix ill-conditioned"),
        ]:
            assert static_reference(bad) == message
            results = static_entries(tswls_static_batch(FrameStack.of([good[0], bad, *good[1:]])))
            assert isinstance(results[1], ConditioningError) and str(results[1]) == message
            for got, want in zip([results[0], *results[2:]], alone):
                assert_same_result(got, want, 0.0)

    def test_overflowing_frame_fails_alone_without_warning(self):
        # a 1e150 m clock offset: its normal matrices overflow float64
        good = [simulate_frame(sweep_scenario("noise", -20.0, k), k) for k in range(3)]
        far = simulate_frame(sweep_scenario("ltco", 1e150, 4), 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, covariance, errors = tswls_static_batch(FrameStack.of([good[0], far, *good[1:]]))
            alone = [tswls_static_batch(FrameStack.one(frame)) for frame in good]
        assert list(errors) == [1] and isinstance(errors[1], ConditioningError)
        for n, (z1, cov1, _) in zip([0, 2, 3], alone):
            assert z[n].tobytes() == z1[0].tobytes() and covariance[n].tobytes() == cov1[0].tobytes()

    def test_underdetermined_stack_fails_every_frame(self):
        frame = exact_frame(random_scenario(np.random.default_rng(0), M=3))
        z, covariance, errors = columns = tswls_static_batch(FrameStack.of([frame, frame]))
        assert np.isnan(z).all() and np.isnan(covariance).all() and list(errors) == [0, 1]
        results = static_entries(columns)
        assert len(results) == 2
        assert all(isinstance(r, UnderdeterminedError) and "M >= 4" in str(r) for r in results)
        with pytest.raises(UnderdeterminedError, match="4"):
            tswls_static_estimate(frame)


def mle_reference(frame, init, max_iters=50, step_tol=1e-9):
    """The MLE one frame at a time, as it ran before it was stacked: the
    reference for :func:`mle_batch`.  Returns ``(x, iterations, converged,
    diverged)`` or the :class:`EstimationError` that stopped the frame."""
    M = frame.n_agents
    if M < 6:
        return UnderdeterminedError(f"MLE needs M >= 6 broadcasts, got M = {M}")
    t, tau, p_hat, T_hat = frame.t, frame.tau, frame.p_hat, frame.T_hat
    w = 1.0 / np.sqrt(np.diag(frame.noise.C_tau))

    def predict(x):
        u = x[0:2] + t[:, None] * x[2:4] - p_hat
        r = np.linalg.norm(u, axis=1)
        return r + x[4] + x[5] * t - T_hat, u, r

    def cost(x):
        return float(np.sum((w * (tau - predict(x)[0])) ** 2))

    x = np.array(init, dtype=float)
    best_x, best_cost = x.copy(), cost(x)
    prev_step, streak, converged, diverged, iterations = np.inf, 0, False, False, 0
    for _ in range(max_iters):
        pred, u, r = predict(x)
        if np.any(r == 0):
            return DegenerateGeometryError("iterate coincides with an agent position")
        rho = u / r[:, None]
        H = np.column_stack([rho, t[:, None] * rho, np.ones(M), t])
        dx, _, rank, _ = np.linalg.lstsq(w[:, None] * H, w * (tau - pred), rcond=None)
        if rank < 6:
            return DegenerateGeometryError(f"Gauss-Newton system is rank deficient (rank {rank} < 6)")
        x = x + dx
        iterations += 1
        if not np.all(np.isfinite(x)):
            diverged = True
            break
        c = cost(x)
        if c < best_cost:
            best_cost, best_x = c, x.copy()
        step = float(np.linalg.norm(dx))
        if step > prev_step:
            streak += 1
            if streak >= 3:
                diverged = True
                break
        else:
            streak = 0
        prev_step = step
        if step <= step_tol:
            converged = True
            break
    return best_x, iterations, converged, diverged


def assert_mle_equal(got, want):
    """``got`` (a :func:`mle_batch` entry) is ``want`` (a :func:`mle_reference`
    result) bit for bit, or has its failure class."""
    if isinstance(want, EstimationError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    x, iterations, converged, diverged = want
    assert np.array_equal(got.x_hat.as_vector(), x)
    assert (got.iterations, got.converged, got.diverged) == (iterations, converged, diverged)
    assert got.estimator_id == "mle"


def mle_case(kind, value, seed, rough):
    """A frame drawn as the schemes draw them and an init at truth plus
    unit (or, ``rough``, very large) Gaussian noise."""
    scenario = sweep_scenario(kind, value, seed)
    rng = np.random.default_rng(seed + 1)
    scale = ROUGH_INIT_SCALE if rough else 1.0
    return simulate_frame(scenario, seed), scenario.target.as_vector() + scale * rng.normal(size=6)


class TestMleBatch:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(SWEEP_POINTS, st.integers(0, 2**32 - 2), st.booleans()), min_size=1, max_size=12),
        st.sampled_from((4, 50)),
    )
    def test_each_frame_matches_the_per_frame_algorithm(self, draws, max_iters):
        cases = [mle_case(kind, value, seed, rough) for (kind, value), seed, rough in draws]
        frames, inits = zip(*cases)
        for (frame, init), got in zip(cases, entries(mle_batch(FrameStack.of(frames), inits, max_iters))):
            assert_mle_equal(got, mle_reference(frame, init, max_iters))

    def test_matches_reference_on_every_outcome(self):
        cases = [mle_case("noise", -10.0, k, k % 2 == 1) for k in range(40)]
        cases += [mle_case("random", -20.5, k, k % 3 == 0) for k in range(40)]
        frames, inits = zip(*cases)
        want = [mle_reference(f, x, 20) for f, x in cases]
        outcomes = {(w[2], w[3]) for w in want}
        assert {(True, False), (False, True), (False, False)} <= outcomes  # converged, diverged, at the cap
        for got, w in zip(entries(mle_batch(FrameStack.of(frames), inits, 20)), want):
            assert_mle_equal(got, w)

    def test_bad_frame_fails_alone(self, fixed_scenario):
        cases = [mle_case("noise", -20.0, k, False) for k in range(4)]
        frames, inits = zip(*cases)
        alone = entries(mle_batch(FrameStack.of(frames), inits))
        on_agent = simulate_frame(fixed_scenario, 3)
        init = fixed_scenario.target.as_vector()
        init[0:2] = on_agent.p_hat[0]  # agent 0 broadcasts at slot time 0
        flat = static_scenario(np.random.default_rng(5))  # every slot at t = 0: the t columns vanish
        for frame, x0, message in [
            (on_agent, init, "coincides with an agent"),
            (exact_frame(flat), flat.target.as_vector(), "rank deficient"),
        ]:
            results = entries(mle_batch(FrameStack.of([frames[0], frame, *frames[1:]]), [inits[0], x0, *inits[1:]]))
            assert isinstance(results[1], DegenerateGeometryError) and message in str(results[1])
            assert_mle_equal(results[1], mle_reference(frame, x0))
            for got, want in zip([results[0], *results[2:]], alone):
                assert np.array_equal(got.x_hat.as_vector(), want.x_hat.as_vector())
                assert (got.iterations, got.converged, got.diverged) == (want.iterations, want.converged, want.diverged)

    def test_failed_rows_hold_nan(self, fixed_scenario):
        (f0, x0), (f1, x1) = (mle_case("noise", -20.0, k, False) for k in range(2))
        on_agent = simulate_frame(fixed_scenario, 3)
        init = fixed_scenario.target.as_vector()
        init[0:2] = on_agent.p_hat[0]
        batch = mle_batch(FrameStack.of([f0, on_agent, f1]), [x0, init, x1])
        [(row, error)] = batch.errors.items()
        assert type(row) is int and row == 1 and isinstance(error, DegenerateGeometryError)
        assert batch.ok.tolist() == [True, False, True] and batch.cond is None and batch.C_wls is None
        assert np.isnan(batch.x[1]).all()
        assert (batch.iterations[1], batch.converged[1], batch.diverged[1]) == (0, False, False)
        assert np.isfinite(batch.x[[0, 2]]).all()

    def test_underdetermined_frames_get_records(self):
        scenario = random_scenario(np.random.default_rng(0), M=5)
        frame = simulate_frame(scenario, 0)
        results = entries(mle_batch(FrameStack.of([frame, frame, frame]), [scenario.target.as_vector()] * 3))
        assert len(results) == 3
        assert all(isinstance(r, UnderdeterminedError) and "M = 5" in str(r) for r in results)


class TestMleFailedSolve:
    def test_dgelsd_failure_fails_alone(self, monkeypatch):
        # no known finite system makes dgelsd fail to converge; the gufunc is
        # made to fail frame 2's first solve as LAPACK fails: rank -1, a NaN
        # solution and the FP-invalid flag
        cases = [mle_case(kind, value, k, False) for k, (kind, value) in enumerate(
            [("noise", -20.0), ("ltco", 2997.9), ("random", -20.5), ("noise", -50.0)])]
        alone = [entries(mle_batch(FrameStack.one(frame), [init]))[0] for frame, init in cases]
        lstsq, calls = estimator._umath_linalg.lstsq, []

        def failing(*args, **kwargs):
            x, residuals, rank, s = lstsq(*args, **kwargs)
            if not calls:
                x[2], rank[2] = np.nan, -1
                np.subtract(np.inf, np.inf)
            calls.append(len(rank))
            return x, residuals, rank, s

        monkeypatch.setattr(estimator, "_umath_linalg", types.SimpleNamespace(lstsq=failing))
        frames, inits = zip(*cases)
        results = entries(mle_batch(FrameStack.of(frames), inits))
        assert calls[0] == 4 and len(calls) > 1
        assert type(results[2]) is EstimationError
        assert str(results[2]) == "Gauss-Newton least-squares solve failed (LAPACK dgelsd did not converge)"
        for k in (0, 1, 3):
            got, want = results[k], alone[k]
            assert got.x_hat.as_vector().tobytes() == want.x_hat.as_vector().tobytes()
            assert (got.iterations, got.converged, got.diverged) == (want.iterations, want.converged, want.diverged)

    def test_non_finite_system_skips_lapack(self, capfd):
        # handed to dgelsd, an infinite weight (a zero TOA variance) or a NaN
        # TOA is an illegal argument that LAPACK reports on stdout; the frame
        # must fail without it, and the other frames must not move
        spec = ExperimentSpec(scheme="random_topology", n_trials=8, base_seed=3, sweep_values=(-20.5,),
                              estimators=("mle",))
        chunk = montecarlo._draw_chunk(spec, [(-20.5, k) for k in range(8)])
        c_tau, tau = chunk.stack.c_tau.copy(), chunk.stack.tau.copy()
        c_tau[1, 0] = 0.0
        tau[4, 2] = np.nan
        results = entries(mle_batch(dataclasses.replace(chunk.stack, c_tau=c_tau, tau=tau), chunk.inits))
        assert capfd.readouterr() == ("", "")
        for k in (1, 4):
            assert type(results[k]) is EstimationError
            assert str(results[k]) == "Gauss-Newton least-squares solve failed (the weighted system is not finite)"
        for k in (0, 2, 3, 5, 6, 7):
            alone = entries(mle_batch(FrameStack.of([chunk.frame(k)]), chunk.inits[k : k + 1]))[0]
            got = results[k]
            assert got.x_hat.as_vector().tobytes() == alone.x_hat.as_vector().tobytes()
            assert (got.iterations, got.converged, got.diverged) == (alone.iterations, alone.converged, alone.diverged)


def weighted_system(frame, x):
    """The MLE's weighted Gauss-Newton system ``(w H, w r)`` of ``frame`` at the state ``x``."""
    t = frame.t
    u = x[0:2] + t[:, None] * x[2:4] - frame.p_hat
    r = np.linalg.norm(u, axis=1)
    rho = u / r[:, None]
    w = 1.0 / np.sqrt(frame.noise.c_tau)
    H = np.column_stack([rho, t[:, None] * rho, np.ones_like(t), t])
    return w[:, None] * H, w * (frame.tau - (r + x[4] + x[5] * t - frame.T_hat))


def augmented_systems():
    """``[w H | w r]`` stacked ``(K, 10, 7)``: full-rank systems of every
    sweep scheme, then systems of rank 3 and 5 (the latter only at
    np.linalg.lstsq's rcond), and two that are not finite: one with a NaN,
    which np.linalg.lstsq hands to dgelsd as an illegal argument, and one
    with the infinite weight of a zero TOA variance."""
    cases = [mle_case(kind, value, seed, seed % 2 == 1)
             for seed, (kind, value) in enumerate([("noise", -50.0), ("noise", -10.0), ("ltco", 2997.9),
                                                   ("ltco", 299792.458), ("random", -20.5), ("random", -30.0)])]
    flat = static_scenario(np.random.default_rng(5))  # every slot at t = 0: rank 3
    cases.append((exact_frame(flat), flat.target.as_vector()))
    systems = [np.column_stack(weighted_system(f, x)) for f, x in cases]
    U, sv, Vt = np.linalg.svd(systems[0][:, :6], full_matrices=False)
    sv[5] = 1e-15 * sv[0]  # above eps, below np.linalg.lstsq's rcond = 10 eps: rank 5
    rank5 = np.column_stack([(U * sv) @ Vt, systems[0][:, 6]])
    nan, inf = systems[1].copy(), systems[2].copy()
    nan[3, 2] = np.nan
    inf[4] *= np.inf
    return np.stack([*systems, rank5, nan, inf])


class TestLstsqStack:
    """mle_batch and the retraction solve their steps through
    estimator._gn_steps; each system must get np.linalg.lstsq's solution and
    rank bit for bit, or, where it is not finite, a NaN step and the rank
    _RANK_NOT_FINITE without LAPACK's illegal-argument message on stdout."""

    @pytest.mark.parametrize("frames", [[3, 0, 8, 6, 1, 9, 7, 5, 2, 4], [4], []],
                             ids=["mixed_rank", "one_frame", "no_frames"])
    def test_matches_np_linalg_lstsq(self, frames, capfd):
        gathered = augmented_systems()[np.array(frames, dtype=int)]
        A, b = gathered[..., :6], gathered[..., 6:]
        assert not frames or not (A.flags.c_contiguous or b.flags.c_contiguous)
        with np.errstate(all="ignore"):  # as under estimator._LAPACK_ERRSTATE, which its callers run in
            x, rank = estimator._gn_steps(A, b)
        assert capfd.readouterr() == ("", "")
        assert x.shape == (len(frames), 6) and rank.shape == (len(frames),)
        ranks = set()
        for k in range(len(frames)):
            if np.isfinite(gathered[k]).all():
                want_x, _, want_rank, _ = np.linalg.lstsq(A[k], b[k, :, 0], rcond=None)
            else:
                want_x, want_rank = np.full(6, np.nan), estimator._RANK_NOT_FINITE
            assert np.array_equal(x[k], want_x, equal_nan=True) and rank[k] == want_rank, k
            ranks.add(int(rank[k]))
        assert len(frames) < 2 or ranks == {6, 5, 3, estimator._RANK_NOT_FINITE}
