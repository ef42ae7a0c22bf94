import ast
import dataclasses
import hashlib
import inspect
import itertools
import json
import pathlib
import types
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtoa import (
    ConditioningError,
    DegenerateGeometryError,
    DesignSystem,
    EstimateReport,
    EstimationError,
    FrameStack,
    NoiseSpec,
    ObservedFrame,
    RankDeficiencyError,
    Scenario,
    TargetState,
    UnderdeterminedError,
    WlsSolution,
    build_design,
    build_error_model,
    crlb_target,
    estimate,
    estimate_batch,
    estimate_degraded,
    exact_frame,
    gauss_newton_refine,
    mle_estimate,
    simulate_frame,
    solve_wls_qr,
    theta_jacobian,
    theta_model,
    tswls_static_estimate,
    whitening_matrix,
)
from seqtoa import _lapack, analysis, baselines, cli, estimator, model, serialize
from seqtoa.model import C_LIGHT

from conftest import SWEEP_POINTS as SCHEME_POINTS
from conftest import anisotropic_scenario, entries, random_scenario, random_state, sweep_scenario

def frame_from_rows(rows, noise=None):
    """rows: list of (t, tau_tilde, p_hat, T_hat)."""
    t, tau, p_hat, T_hat = zip(*rows)
    if noise is None:
        noise = NoiseSpec.isotropic(1e-3, 1e-3, n_agents=len(rows))
    return ObservedFrame(t=t, tau=tau, p_hat=p_hat, T_hat=T_hat, noise=noise)


class TestBuildDesign:
    def test_reference_row(self):
        # independently evaluated row for p_hat=(10,0), t=0.05, alpha_hat=313.25
        frame = frame_from_rows([(0.05, 313.25, (10.0, 0.0), 0.0)] * 9)
        design = build_design(frame)
        expected = [20.0, 0.0, 1.0, 0.0, -626.5, -31.325, 1.0, 0.0025, 0.1]
        assert np.allclose(design.A[0], expected, rtol=1e-14)
        assert design.y[0] == pytest.approx(100.0 - 313.25**2, abs=1e-9)
        assert design.y[0] == pytest.approx(-98025.5625, abs=1e-9)
        assert design.alpha_hat[0] == 313.25

    def test_zero_input_row(self):
        frame = frame_from_rows([(0.0, 0.0, (0.0, 0.0), 0.0)] * 9)
        design = build_design(frame)
        assert np.array_equal(design.A[0], [0, 0, 0, 0, 0, 0, 1, 0, 0])
        assert design.y[0] == 0.0

    def test_zero_noise_residual_identity(self, fixed_scenario):
        # exact frame: A @ theta(x_true) - y vanishes to machine precision
        frame = exact_frame(fixed_scenario)
        design = build_design(frame)
        theta = theta_model(fixed_scenario.target)
        resid = design.A @ theta - design.y
        scale = np.abs(design.y).max()
        assert np.abs(resid).max() <= 1e-12 * scale

    def test_underdetermined(self):
        frame = frame_from_rows([(0.05 * m, 10.0, (1.0, 2.0), 0.0) for m in range(8)])
        with pytest.raises(UnderdeterminedError, match="9"):
            build_design(frame)


class TestBuildErrorModel:
    def test_reference_entries(self):
        # x_ref = 0: d = -2*(0 - 313.25) = 626.5, b = [-20, 0, 626.5]
        frame = frame_from_rows([(0.7, 313.25, (10.0, 0.0), 0.0)])
        x_ref = TargetState(p=[0, 0], v=[0, 0], T=0.0, omega=0.0)
        em = build_error_model(frame, x_ref)
        assert em.D[0, 0] == pytest.approx(626.5, rel=1e-14)
        assert np.allclose(em.B[0], [-20.0, 0.0, 626.5], rtol=1e-14)

    def test_pure_toa_noise_gives_sigma_d_squared(self):
        rng = np.random.default_rng(0)
        scenario = random_scenario(rng)
        M = scenario.n_agents
        sigma_sq = 2.5e-3
        frame0 = simulate_frame(scenario, 1)
        frame = dataclasses.replace(
            frame0,
            noise=NoiseSpec.from_dense(np.eye(M) * sigma_sq, np.zeros((3 * M, 3 * M))),
        )
        em = build_error_model(frame, scenario.target)
        d = np.diag(em.D)
        assert np.allclose(em.C_e, np.diag(sigma_sq * d**2), rtol=1e-12, atol=0)

    def test_block_diagonal_cbeta_gives_diagonal_ce(self):
        rng = np.random.default_rng(1)
        scenario = random_scenario(rng)
        frame = simulate_frame(scenario, 2)
        em = build_error_model(frame, scenario.target)
        off = em.C_e - np.diag(np.diag(em.C_e))
        assert np.all(off == 0.0)

    def test_against_scalar_oracle(self):
        # entrywise recomputation with plain Python floats
        rng = np.random.default_rng(2)
        scenario = random_scenario(rng)
        frame = simulate_frame(scenario, 3)
        x_ref = scenario.target
        em = build_error_model(frame, x_ref)
        t = frame.t
        for m in range(frame.n_agents):
            alpha = frame.tau[m] + frame.T_hat[m]
            d = -2.0 * (x_ref.T + x_ref.omega * t[m] - alpha)
            b = np.array(
                [
                    2.0 * (x_ref.p[0] + x_ref.v[0] * t[m] - frame.p_hat[m, 0]),
                    2.0 * (x_ref.p[1] + x_ref.v[1] * t[m] - frame.p_hat[m, 1]),
                    d,
                ]
            )
            block = frame.noise.blocks[m]
            expected = b @ block @ b + d * d * frame.noise.C_tau[m, m]
            assert em.C_e[m, m] == pytest.approx(expected, rel=1e-12)


def _spd(rng, n, spread=2.0):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (Q * rng.uniform(1.0, spread, n)) @ Q.T


class TestSolveWlsQr:
    def test_identity_system(self):
        design = DesignSystem(A=np.eye(9), y=np.eye(9)[0], alpha_hat=np.zeros(9))
        sol = solve_wls_qr(design, np.eye(9))
        assert np.allclose(sol.theta_hat, np.eye(9)[0], atol=1e-14)
        assert np.allclose(sol.C_wls, np.eye(9), atol=1e-13)

    def test_matches_normal_equations_synthetic(self):
        # well-conditioned synthetic systems vs the explicit normal-equations
        # solution (A^T Ce^-1 A)^-1 A^T Ce^-1 y
        rng = np.random.default_rng(3)
        for _ in range(20):
            M = 12
            A = rng.normal(size=(M, 9))
            y = rng.normal(size=M)
            C_e = _spd(rng, M)
            design = DesignSystem(A=A, y=y, alpha_hat=np.zeros(M))
            sol = solve_wls_qr(design, C_e)
            Ci = np.linalg.inv(C_e)
            theta_ne = np.linalg.solve(A.T @ Ci @ A, A.T @ Ci @ y)
            assert np.linalg.norm(sol.theta_hat - theta_ne) <= 1e-10 * np.linalg.norm(theta_ne)

    def test_matches_normal_equations_on_frames(self):
        # frame-derived systems kept in the cond(WA) < 1e6 regime (small skew)
        rng = np.random.default_rng(4)
        checked = 0
        for k in range(12):
            scenario = random_scenario(rng)
            target = TargetState(
                p=scenario.target.p, v=scenario.target.v, T=scenario.target.T,
                omega=rng.uniform(-1, 1) * 1e-6 * C_LIGHT,
            )
            scenario = Scenario(agents=scenario.agents, target=target, noise=scenario.noise)
            frame = simulate_frame(scenario, 100 + k)
            design = build_design(frame)
            em = build_error_model(frame, scenario.target)
            W = whitening_matrix(em.C_e)
            if np.linalg.cond(W @ design.A) >= 1e6:
                continue
            checked += 1
            sol = solve_wls_qr(design, em.C_e)
            Ci = np.linalg.inv(em.C_e)
            N = design.A.T @ Ci @ design.A
            theta_ne = np.linalg.solve(N, design.A.T @ Ci @ design.y)
            C_ne = np.linalg.inv(N)
            assert np.linalg.norm(sol.theta_hat - theta_ne) <= 1e-8 * np.linalg.norm(theta_ne)
            assert np.abs(sol.C_wls - C_ne).max() <= 1e-6 * np.abs(C_ne).max()
        assert checked >= 8

    def test_whitening_factor_invariance(self):
        # solving with the internal symmetric root equals manually whitening
        # with a Cholesky factor and solving the unweighted system
        rng = np.random.default_rng(5)
        M = 11
        A = rng.normal(size=(M, 9))
        y = rng.normal(size=M)
        C_e = _spd(rng, M)
        sol = solve_wls_qr(DesignSystem(A=A, y=y, alpha_hat=np.zeros(M)), C_e)
        L = np.linalg.cholesky(C_e)
        A2 = np.linalg.solve(L, A)
        y2 = np.linalg.solve(L, y)
        sol2 = solve_wls_qr(DesignSystem(A=A2, y=y2, alpha_hat=np.zeros(M)), np.eye(M))
        assert np.allclose(sol.theta_hat, sol2.theta_hat, rtol=1e-8)

    def test_rank_deficiency_reported(self):
        # all slot times equal: velocity/skew columns collapse
        frame = frame_from_rows(
            [(0.0, 30.0 + m, (float(3 * m), float(m**2 % 7)), 0.1) for m in range(10)]
        )
        design = build_design(frame)
        with pytest.raises(RankDeficiencyError) as exc_info:
            solve_wls_qr(design, np.eye(10))
        assert exc_info.value.numerical_rank < 9

    @pytest.mark.parametrize("entries", [[(3, 3)], [(2, 5), (5, 2)], [(0, 0)]],
                             ids=["diagonal", "off_diagonal", "first"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_c_e_is_a_conditioning_error(self, entries, value, fixed_scenario):
        # a NaN on the diagonal once took the eigh_lo path, whose NaN eigenvalue
        # in the middle passed the test on the smallest and largest: W came back
        # all NaN and solve_wls_qr reported numerical rank 0
        design = build_design(simulate_frame(fixed_scenario, 1))
        C_e = np.eye(10)
        for entry in entries:
            C_e[entry] = value
        with pytest.raises(ConditioningError, match="C_e has a non-finite entry"):
            whitening_matrix(C_e)
        with pytest.raises(ConditioningError, match="C_e has a non-finite entry"):
            solve_wls_qr(design, C_e)

    def test_ltco_against_extended_precision_reference(self, fixed_scenario):
        # strong clock-offset frames: the QR path stays within 1e3x of a
        # 60-digit reference residual on every frame, while the explicit
        # normal-equations path fails or inflates the residual by orders of
        # magnitude (the inflation varies with the noise draw, so it is
        # characterized over ten seeded frames)
        mp = pytest.importorskip("mpmath")
        target = TargetState(
            p=fixed_scenario.target.p, v=fixed_scenario.target.v,
            T=1e-3 * C_LIGHT, omega=fixed_scenario.target.omega,
        )
        noise = NoiseSpec.from_db(-30.0, np.full(10, -20.5))
        scenario = Scenario(agents=fixed_scenario.agents, target=target, noise=noise)

        inflation = []
        for seed in range(2000, 2010):
            frame = simulate_frame(scenario, seed)
            design = build_design(frame)
            em = build_error_model(frame, estimate(frame).x_hat)
            W = whitening_matrix(em.C_e)
            WA = W @ design.A
            Wy = W @ design.y
            assert np.linalg.cond(WA) >= 1e9

            sol = solve_wls_qr(design, em.C_e)
            resid_qr = np.linalg.norm(WA @ sol.theta_hat - Wy)

            with mp.workdps(60):
                WA_mp = mp.matrix([[mp.mpf(float(v)) for v in row] for row in WA])
                Wy_mp = mp.matrix([mp.mpf(float(v)) for v in Wy])
                theta_ref, _ = mp.qr_solve(WA_mp, Wy_mp)
                theta_ref = np.array([float(theta_ref[i]) for i in range(9)])
            resid_ref = np.linalg.norm(WA @ theta_ref - Wy)
            assert resid_qr <= 1e3 * resid_ref

            Ci = np.linalg.inv(em.C_e)
            N = design.A.T @ Ci @ design.A
            try:
                theta_ne = np.linalg.solve(N, design.A.T @ Ci @ design.y)
                inflation.append(np.linalg.norm(WA @ theta_ne - Wy) / resid_qr)
            except np.linalg.LinAlgError:
                inflation.append(np.inf)
        assert max(inflation) >= 1e2
        assert np.median(inflation) >= 10.0


class TestThetaModel:
    def test_pythagorean_cancellation(self):
        x = TargetState(p=[3, 4], v=[0, 0], T=5.0, omega=0.0)
        assert np.allclose(theta_model(x), [3, 4, 0, 0, 5, 0, 0, 0, 0], atol=0)

    def test_zero_state(self):
        assert np.array_equal(theta_model(np.zeros(6)), np.zeros(9))

    def test_reference_values(self):
        x = TargetState(p=[1, 2], v=[3, 4], T=5.0, omega=6.0)
        assert np.allclose(theta_model(x), [1, 2, 3, 4, 5, 6, 20, 11, 19], atol=0)


class TestThetaJacobian:
    def test_reference_matrix(self):
        J = theta_jacobian(np.array([1.0, 2, 3, 4, 5, 6]))
        assert np.array_equal(J[:6], np.eye(6))
        expected = np.array(
            [[-2, -4, 0, 0, 10, 0], [0, 0, -6, -8, 0, 12], [-3, -4, -1, -2, 6, 5]], dtype=float
        )
        assert np.array_equal(J[6:], expected)

    def test_zero_state(self):
        J = theta_jacobian(np.zeros(6))
        assert np.array_equal(J, np.vstack([np.eye(6), np.zeros((3, 6))]))

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = random_state(rng).as_vector()
            J = theta_jacobian(x)
            J_fd = np.empty_like(J)
            for i in range(6):
                h = 1e-6 * max(1.0, abs(x[i]))
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                J_fd[:, i] = (theta_model(xp) - theta_model(xm)) / (2 * h)
            assert np.abs(J - J_fd).max() <= 1e-5 * max(1.0, np.abs(J).max())


class TestGaussNewtonRefine:
    def test_consistent_fixed_point(self):
        rng = np.random.default_rng(7)
        x_true = random_state(rng)
        wls = WlsSolution(theta_hat=theta_model(x_true), C_wls=np.eye(9), sqrt_info=np.eye(9))
        report = gauss_newton_refine(wls, [0.0])
        assert report.iterations == 1
        assert report.converged
        assert np.allclose(report.x_hat.as_vector(), x_true.as_vector(), atol=1e-9)

    def test_against_trust_region_oracle(self):
        # independent nonlinear LS solve of min ||theta_hat - f(x)||^2
        rng = np.random.default_rng(8)
        for _ in range(5):
            x0 = random_state(rng)
            theta_hat = theta_model(x0) + 1e-3
            wls = WlsSolution(theta_hat=theta_hat, C_wls=np.eye(9), sqrt_info=np.eye(9))
            report = gauss_newton_refine(wls, [1e-30])
            oracle = scipy.optimize.least_squares(
                lambda z: theta_hat - theta_model(z),
                x0=theta_hat[:6],
                method="trf",
                xtol=1e-15,
                ftol=1e-15,
                gtol=1e-15,
            )
            assert oracle.success
            assert np.abs(report.x_hat.as_vector() - oracle.x).max() <= 1e-6

    def test_iteration_cap_with_zero_threshold(self):
        rng = np.random.default_rng(9)
        x0 = random_state(rng)
        theta_hat = theta_model(x0) + 1e-3
        wls = WlsSolution(theta_hat=theta_hat, C_wls=np.eye(9), sqrt_info=np.eye(9))
        report = gauss_newton_refine(wls, [0.0])
        assert report.iterations == 5
        assert not report.converged

    @pytest.mark.parametrize("traces", [[np.inf], [np.nan], [-1e-3], [1e-3, np.nan, 1e-3], [1e-3, -np.inf]],
                             ids=["inf", "nan", "negative", "one_nan", "minus_inf"])
    def test_threshold_must_be_finite_and_nonnegative(self, traces):
        # an infinite mean trace would report convergence after one step, and a
        # NaN or negative one would run to the cap without a word
        wls = WlsSolution(theta_hat=theta_model(random_state(np.random.default_rng(9))) + 1e-3,
                          C_wls=np.eye(9), sqrt_info=np.eye(9))
        with pytest.raises(ValueError, match="agent_pos_cov_traces must be finite and >= 0"):
            gauss_newton_refine(wls, traces)


class TestEstimate:
    def test_exact_recovery_on_random_scenarios(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            base = random_scenario(rng)
            scenario = Scenario(
                agents=base.agents,
                target=base.target,
                noise=NoiseSpec.isotropic(1e-12, 1e-12, n_agents=base.n_agents),
            )
            report = estimate(exact_frame(scenario))
            err = np.abs(report.x_hat.as_vector() - scenario.target.as_vector())
            assert err.max() <= 1e-6

    def test_degraded_mode_matches_static_baseline(self):
        # static frames: all slot times zero, target at rest with zero skew
        rng = np.random.default_rng(11)
        for k in range(10):
            base = random_scenario(rng, moving=False)
            agents = dataclasses.replace(base.agents, t=np.zeros(base.n_agents))
            scenario = Scenario(agents=agents, target=base.target, noise=base.noise)
            frame = simulate_frame(scenario, 500 + k)
            pos, offset, cov = estimate_degraded(frame)
            ref = tswls_static_estimate(frame)
            assert np.abs(pos - ref.position).max() <= 1e-8 * max(1.0, np.abs(ref.position).max())
            assert abs(offset - ref.offset) <= 1e-8 * max(1.0, abs(ref.offset))
            assert np.abs(cov - ref.covariance).max() <= 1e-8 * np.abs(ref.covariance).max()

    def test_degraded_mode_overflow_raises_without_warning(self, fixed_scenario):
        # a 1e300 m clock offset: the squared pseudoranges overflow float64
        target = dataclasses.replace(fixed_scenario.target, T=1e300)
        frame = simulate_frame(dataclasses.replace(fixed_scenario, target=target), 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConditioningError, match="static normal matrix is singular or ill-conditioned"):
                estimate_degraded(frame)

    def test_ltco_frame_estimates_sanely(self, fixed_scenario):
        target = TargetState(
            p=fixed_scenario.target.p, v=fixed_scenario.target.v,
            T=3e5, omega=fixed_scenario.target.omega,
        )
        noise = NoiseSpec.from_db(-30.0, np.full(10, -20.5))
        scenario = Scenario(agents=fixed_scenario.agents, target=target, noise=noise)
        errs = []
        for seed in range(40):
            report = estimate(simulate_frame(scenario, seed))
            errs.append(np.linalg.norm(report.x_hat.p - target.p))
        assert np.median(errs) < 2.0

    def test_report_carries_pass2_diagnostics(self, fixed_scenario):
        report = estimate(simulate_frame(fixed_scenario, 3))
        assert report.C_wls is not None and report.C_wls.shape == (9, 9)
        assert np.isfinite(report.cond_estimate) and report.cond_estimate >= 1.0
        assert 1 <= report.iterations <= 5


LTCO_OFFSETS = tuple(s * C_LIGHT for s in (1e-8, 1e-6, 1e-4, 1e-3))
SWEEP_POINTS = st.one_of(
    st.tuples(st.just("noise"), st.sampled_from(range(-50, -5, 5))),
    st.tuples(st.just("ltco"), st.sampled_from(LTCO_OFFSETS)),
    st.tuples(st.just("static"), st.just(0.0)),
    st.tuples(st.just("silent"), st.just(0.0)),
)


def sweep_frame(kind, value, seed):
    """A fixed-topology frame drawn as the noise sweep (``value``: sigma_s^2 in dB)
    or the clock-offset sweep (``value``: target offset in m) draws its trials;
    ``"static"`` gives a -30 dB noise-sweep frame with every slot time zeroed,
    which the rank test rejects, and ``"silent"`` one whose first agent
    claims no noise at all, so that its ``C_e`` is singular."""
    if kind == "static":
        frame = simulate_frame(sweep_scenario("noise", -30.0, seed), seed)
        return dataclasses.replace(frame, t=np.zeros(frame.n_agents))
    if kind == "silent":
        frame = simulate_frame(sweep_scenario("noise", -30.0, seed), seed)
        c_tau, blocks = frame.noise.c_tau.copy(), frame.noise.blocks.copy()
        c_tau[0], blocks[0] = 0.0, 0.0
        return dataclasses.replace(frame, noise=NoiseSpec(c_tau=c_tau, blocks=blocks))
    return simulate_frame(sweep_scenario(kind, value, seed), seed)


class TestTranslationEquivariance:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        SCHEME_POINTS,
        st.integers(0, 2**32 - 1),
        st.tuples(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0)).filter(lambda d: np.hypot(*d) <= 200.0),
    )
    def test_shifted_broadcasts_shift_the_position_only(self, point, seed, d):
        # Moving every broadcast position by d moves the target by d and
        # leaves velocity, offset and skew alone.  Round-off grows with the
        # clock offset: on 600 drawn frames the differences stayed below
        # 3e-8 (m, m/s) on noise-sweep and random-topology frames and below
        # 5e-5 on 1 ms LTCO frames (offset 3e5 m), so the tolerance is
        # 1e-6 + 1e-9 |T| in m and m/s.
        frame = simulate_frame(sweep_scenario(*point, seed), seed)
        x = estimate(frame).x_hat
        y = estimate(dataclasses.replace(frame, p_hat=frame.p_hat + d)).x_hat
        tol = 1e-6 + 1e-9 * abs(x.T)
        assert np.abs(y.p - (x.p + d)).max() <= tol
        assert np.abs(y.v - x.v).max() <= tol
        assert abs(y.T - x.T) <= tol
        assert abs(y.omega - x.omega) <= tol


class TestEstimateBatch:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(SWEEP_POINTS, st.integers(0, 2**32 - 1)), min_size=1, max_size=12))
    def test_each_frame_matches_its_batch_of_one(self, draws):
        # bit for bit: the kernels' shortcuts for a stack where no frame drops
        # out must give what the gathering paths give
        frames = [sweep_frame(kind, value, seed) for (kind, value), seed in draws]
        for frame, got in zip(frames, entries(estimate_batch(FrameStack.of(frames)))):
            try:
                want = estimate(frame)
            except EstimationError as exc:
                assert (type(got), str(got)) == (type(exc), str(exc))
                assert getattr(got, "numerical_rank", None) == getattr(exc, "numerical_rank", None)
                continue
            assert isinstance(got, EstimateReport)
            assert got.x_hat.as_vector().tobytes() == want.x_hat.as_vector().tobytes()
            assert got.C_wls.tobytes() == want.C_wls.tobytes()
            assert np.float64(got.cond_estimate).tobytes() == np.float64(want.cond_estimate).tobytes()
            assert (got.iterations, got.converged) == (want.iterations, want.converged)

    def test_bad_frame_fails_alone(self, fixed_scenario):
        good = [simulate_frame(fixed_scenario, k) for k in range(3)]
        # all slot times equal: the velocity and skew columns vanish
        bad = frame_from_rows([(0.0, 30.0 + m, (float(3 * m), float(m**2 % 7)), 0.1) for m in range(10)])
        results = entries(estimate_batch(FrameStack.of([good[0], bad, good[1], good[2]])))
        assert isinstance(results[1], RankDeficiencyError)
        assert results[1].numerical_rank < 9
        for got, want in zip([results[0], *results[2:]], entries(estimate_batch(FrameStack.of(good)))):
            assert np.array_equal(got.x_hat.as_vector(), want.x_hat.as_vector())
            assert (got.iterations, got.converged) == (want.iterations, want.converged)

    def test_failed_rows_hold_nan(self, fixed_scenario):
        good = [simulate_frame(fixed_scenario, k) for k in range(2)]
        bad = frame_from_rows([(0.0, 30.0 + m, (float(3 * m), float(m**2 % 7)), 0.1) for m in range(10)])
        batch = estimate_batch(FrameStack.of([good[0], bad, good[1]]))
        [(row, error)] = batch.errors.items()
        assert type(row) is int and row == 1 and isinstance(error, RankDeficiencyError)
        assert batch.ok.tolist() == [True, False, True] and batch.diverged is None
        assert np.isnan(batch.x[1]).all() and np.isnan(batch.cond[1]) and np.isnan(batch.C_wls[1]).all()
        assert (batch.iterations[1], batch.converged[1]) == (0, False)
        assert np.isfinite(batch.x[[0, 2]]).all() and np.isfinite(batch.C_wls[[0, 2]]).all()
        with pytest.raises(RankDeficiencyError):
            batch.report(1)

    def test_underdetermined_stack(self):
        frame = frame_from_rows([(0.05 * m, 10.0, (1.0, 2.0), 0.0) for m in range(8)])
        results = entries(estimate_batch(FrameStack.of([frame, frame])))
        assert all(isinstance(r, UnderdeterminedError) for r in results)
        with pytest.raises(UnderdeterminedError, match="9"):
            estimate(frame)

    @pytest.mark.parametrize(
        "case",
        [*(("noise", v, s) for v in (-50.0, -20.5, -10.0) for s in (1, 2)),
         *(("ltco", v, s) for v in LTCO_OFFSETS for s in (3, 4)),
         *(("random", v, s) for v in (-30.0, -20.5, -10.0) for s in (5, 6)),
         ("anisotropic", 0.0, 7), ("anisotropic", 0.0, 8), ("static", 0.0, 9), ("m8", 0.0, 10)],
    )
    def test_estimate_is_bitwise_its_batch_of_one(self, case):
        kind, value, seed = case
        if kind == "random":
            frame = simulate_frame(sweep_scenario(kind, value, seed), seed)
        elif kind == "anisotropic":
            frame = simulate_frame(anisotropic_scenario(seed), seed)
        elif kind == "m8":
            frame = frame_from_rows([(0.05 * m, 10.0 + m, (1.0 + m, 2.0 * m), 0.0) for m in range(8)])
        else:
            frame = sweep_frame(kind, value, seed)
        want = entries(estimate_batch(FrameStack.of([frame])))[0]
        try:
            got = estimate(frame)
        except EstimationError as exc:
            assert isinstance(want, EstimationError)
            assert (type(exc), str(exc)) == (type(want), str(want))
            assert getattr(exc, "numerical_rank", None) == getattr(want, "numerical_rank", None)
            assert kind in ("static", "m8")
            return
        assert kind not in ("static", "m8")
        assert got.x_hat.as_vector().tobytes() == want.x_hat.as_vector().tobytes()
        assert got.C_wls.tobytes() == want.C_wls.tobytes()
        assert (got.cond_estimate, got.iterations, got.converged) == (want.cond_estimate, want.iterations, want.converged)

    def test_mixed_agent_counts_rejected(self, fixed_scenario):
        short = frame_from_rows([(0.05 * m, 10.0, (1.0, 2.0), 0.0) for m in range(9)])
        with pytest.raises(ValueError, match="same number"):
            FrameStack.of([simulate_frame(fixed_scenario, 1), short])


def golden_frames(kind):
    """The (scenario, frame) pairs of one kind of :class:`TestGoldenFrames`:
    noise-sweep frames at -50 to -10 dB, clock-offset frames up to 1 ms,
    random-topology frames at the random sweep's three levels, or frames
    that fail (every slot time zeroed, an agent claiming no noise, M = 8)."""
    if kind == "failures":
        rows = [(0.05 * m, 10.0 + m, (1.0 + m, 2.0 * m), 0.0) for m in range(8)]
        failing = [sweep_frame(k, 0.0, seed) for k in ("static", "silent") for seed in range(3)]
        return [(None, frame) for frame in (*failing, frame_from_rows(rows))]
    values = {"noise": range(-50, -5, 5),
              "ltco": tuple(s * C_LIGHT for s in (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)),
              "random": (-30.0, -20.5, -10.0)}[kind]
    seeds = range(100 // len(values) + 1)
    scenarios = [sweep_scenario(kind, value, 1000 + seed) for value in values for seed in seeds]
    return [(scenario, simulate_frame(scenario, 2000 + k)) for k, scenario in enumerate(scenarios)]


def outcome_bytes(call) -> tuple[bytes, object]:
    """The bytes of one estimate (state, iterations, flags, the proposed
    estimator's ``cond_estimate`` and ``C_wls``), or of the class and
    message of the error it raises; and the report, or None."""
    try:
        r = call()
    except EstimationError as exc:
        return f"{type(exc).__name__}: {exc}".encode(), None
    parts = [r.x_hat.as_vector(), np.int64(r.iterations), np.bool_(r.converged), np.bool_(r.diverged),
             np.float64(r.cond_estimate), r.C_wls if r.C_wls is not None else np.empty(0)]
    return b"".join(np.asarray(p).tobytes() for p in parts), r


class TestGoldenFrames:
    """The bytes of every per-frame ``estimate`` on about 100 frames of each
    sweep's kind, and of ``mle_estimate`` from the truth on 20 of them,
    pinned by SHA-256.  The sweep CSVs see ``proposed`` only through cell
    means; this pins the online path's own bytes.  The digests were recorded
    with numpy 2.4 and OpenBLAS on x86-64; another BLAS build may round the
    least-squares kernels differently."""

    DIGESTS = {
        "noise": "488bfb38c07b98d91f2a10485d1476b781654efb1d093b413bac432769dfc019",
        "ltco": "03e7c763c9f8c500495ee731050c71b01c1f565580ec24785d07dfd88e3a00a3",
        "random": "9513ecb78aaa5c1e68af07adc064237f3dbd56f3aa69a5790209ddb71013b556",
        "failures": "bcb16d2ef8c89a1ce040f7ad6bc902279932364af8b93978c635a4a84a0855c3",
        "mle": "99132589cc1dbe9c3483aa1d999e691724af100fc9c142c1097530ee687578c5",
    }

    @pytest.mark.parametrize("kind", DIGESTS)
    def test_digest(self, kind):
        digest, reports = hashlib.sha256(), []
        if kind == "mle":
            pairs = [pair for k in ("noise", "ltco", "random") for pair in golden_frames(k)[::15][:7]][:20]
            calls = [lambda s=scenario, f=frame: mle_estimate(f, s.target) for scenario, frame in pairs]
        else:
            calls = [lambda f=frame: estimate(f) for _, frame in golden_frames(kind)]
        for call in calls:
            data, report = outcome_bytes(call)
            digest.update(data)
            reports.append(report)
        if kind == "random":  # the set reaches the retraction's cap
            assert any(r is not None and not r.converged and r.iterations == 5 for r in reports)
        if kind == "failures":
            assert reports == [None] * len(reports)
        assert digest.hexdigest() == self.DIGESTS[kind]


def staged_estimate(frame):
    """The single-frame stages composed as :func:`estimate` runs its two passes."""
    design = build_design(frame)
    x1 = solve_wls_qr(design, np.eye(frame.n_agents)).theta_hat[:6]
    C_e = build_error_model(frame, TargetState.from_vector(x1)).C_e
    return gauss_newton_refine(solve_wls_qr(design, C_e), frame.noise.position_cov_traces())


@pytest.mark.parametrize("kind", ["noise", "ltco", "random", "failures"])
def test_stages_compose_to_estimate_bit_for_bit(kind):
    # the stages and the pipeline solve theta one way, so the reference tests
    # that run the stages check estimate's own bytes, or its error and message
    for _, frame in golden_frames(kind):
        assert outcome_bytes(lambda: staged_estimate(frame))[0] == outcome_bytes(lambda: estimate(frame))[0]


def static_normal_system(frame):
    """The static solver's first-pass normal matrix ``(4, 4)`` and right-hand
    side ``(4,)`` of a frame, as :func:`~seqtoa.baselines.tswls_static_batch`
    builds them."""
    alpha = frame.tau + frame.T_hat
    G = np.column_stack([2.0 * frame.p_hat, -2.0 * alpha, np.ones(frame.n_agents)])
    return G.T @ G, G.T @ ((frame.p_hat**2).sum(axis=-1) - alpha**2)


def kernel_inputs():
    """Per LAPACK gufunc of the package, its arguments stacked over frames of
    every sweep scheme (1 ms LTCO included), as the estimator builds them;
    ``eigh_lo`` gets each frame's ``C_e`` turned by a random rotation, a
    non-diagonal SPD matrix of the kind :func:`whitening_matrix` factors;
    ``lstsq`` gets a retraction's weighted system ``(K J, K z)``; the CRLB's
    gufuncs get the frames' scenarios as :func:`~seqtoa.analysis.crlb_columns`
    builds them: ``cholesky_lo`` the agent blocks ``(M, 3, 3)``, ``eigvalsh_lo``
    and ``inv`` the Schur complement ``S``; ``svd`` gets the static solver's
    first-pass normal matrices.  Member 2 is bad: a singular ``R``
    for ``solve``, an all-ones ``S`` for ``inv`` and a NaN entry (in the
    triangle the gufunc reads) for the others."""
    points = [("noise", -50.0), ("noise", -10.0), ("ltco", LTCO_OFFSETS[-1]), ("ltco", LTCO_OFFSETS[1]),
              ("random", -20.5), ("random", -30.0), ("noise", -20.5)]
    frames = [sweep_frame(kind, value, seed) for seed, (kind, value) in enumerate(points)]
    scenarios = [sweep_scenario(kind, value, seed) for seed, (kind, value) in enumerate(points)]
    rng = np.random.default_rng(7)
    args = {"qr_r_raw": [[]], "solve": [[], []], "lstsq": [[], []], "eigh_lo": [[]],
            "cholesky_lo": [[]], "eigvalsh_lo": [[]], "inv": [[]], "svd": [[]]}
    for scenario in scenarios:
        S = crlb_target(scenario).information
        args["cholesky_lo"][0].append(scenario.noise.blocks)
        args["eigvalsh_lo"][0].append(S)
        args["inv"][0].append(S)
    for frame in frames:
        design, x = build_design(frame), estimate(frame).x_hat
        aug = np.column_stack([design.A / np.linalg.norm(design.A, axis=0), design.y])
        R = np.linalg.qr(aug, mode="r")
        args["qr_r_raw"][0].append(aug)
        args["solve"][0].append(R[:9, :9])
        args["solve"][1].append(np.column_stack([R[:9, 9], np.eye(9)]))
        args["lstsq"][0].append(R[:9, :9] @ theta_jacobian(x))
        args["lstsq"][1].append(R[:9, 9:])
        Q, _ = np.linalg.qr(rng.normal(size=(frame.n_agents, frame.n_agents)))
        args["eigh_lo"][0].append(Q @ build_error_model(frame, x).C_e @ Q.T)
        args["svd"][0].append(static_normal_system(frame)[0])
    stacks = {name: [np.array(a) for a in arrays] for name, arrays in args.items()}
    for name, bad in [("qr_r_raw", np.s_[2, 3, 2]), ("solve", np.s_[2, 4, 4]), ("lstsq", np.s_[2, 5, 1]),
                      ("eigh_lo", np.s_[2, 6, 6]), ("cholesky_lo", np.s_[2, 4, 2, 1]), ("eigvalsh_lo", np.s_[2, 3, 1]),
                      ("inv", np.s_[2]), ("svd", np.s_[2, 1, 3])]:
        stacks[name][0][bad] = {"solve": 0.0, "inv": 1.0}.get(name, np.nan)
    return stacks


SIGNATURES = {"qr_r_raw": "d->d", "solve": "dd->d", "lstsq": "ddd->ddid", "eigh_lo": "d->dd",
              "cholesky_lo": "d->d", "eigvalsh_lo": "d->d", "inv": "d->d", "svd": "d->d"}
WRAPPERS = {
    "qr_r_raw": lambda a: (lambda h, tau: (h.T, tau))(*np.linalg.qr(a, mode="raw")),
    "solve": lambda a, b: (np.linalg.solve(a, b),),
    "lstsq": lambda a, b: np.linalg.lstsq(a, b, rcond=None),
    "eigh_lo": lambda a: tuple(np.linalg.eigh(a)),
    "cholesky_lo": lambda a: (np.linalg.cholesky(a),),
    "eigvalsh_lo": lambda a: (np.linalg.eigvalsh(a),),
    "inv": lambda a: (np.linalg.inv(a),),
    "svd": lambda a: (np.linalg.svd(a, compute_uv=False),),
}


class TestLapackKernels:
    """The package calls the LAPACK gufuncs beneath np.linalg directly; each
    member of a stack must get the wrapper's result bit for bit, and a member
    the wrapper fails on (or returns NaN for) must come back non-finite alone."""

    @pytest.mark.parametrize("frames", [[3, 0, 6, 2, 5, 1, 4], [4], []], ids=["mixed", "one_frame", "no_frames"])
    @pytest.mark.parametrize("name", SIGNATURES)
    def test_matches_np_linalg(self, name, frames):
        sel = np.array(frames, dtype=int)
        args = []
        for a in kernel_inputs()[name]:  # gathered views that skip a trailing column
            wide = np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))
            wide[..., :-1] = a
            args.append(wide[sel][..., :-1])
        assert not frames or not any(a.flags.c_contiguous for a in args)
        wants = []
        for k in range(len(frames)):
            try:
                wants.append(WRAPPERS[name](*(a[k] for a in args)))
            except np.linalg.LinAlgError:
                wants.append(None)
        rcond = (np.finfo(float).eps * 9,) if name == "lstsq" else ()  # np.linalg.lstsq's for 9x6 systems
        with np.errstate(all="ignore"):  # a failed member raises FP flags, as under _lapack.ERRSTATE
            got = getattr(_lapack.gufuncs, name)(*args, *rcond, signature=SIGNATURES[name])
        got = (args[0], got) if name == "qr_r_raw" else got if isinstance(got, tuple) else (got,)
        assert all(g.shape[0] == len(frames) for g in got)
        bad = set()
        for k, want in enumerate(wants):
            if not all(np.isfinite(g[k]).all() for g in got):
                assert want is None or not all(np.isfinite(w).all() for w in want)
                bad.add(frames[k])
                continue
            assert all(g[k].tobytes() == w.tobytes() for g, w in zip(got, want)), (name, frames[k])
        assert bad == ({2} & set(frames))

    def test_static_solver_uses(self):
        # the static solver's conditioning test is svd's ratio, its solves take
        # (K, n, 1) right-hand sides, and it inverts its normal matrices
        frames = [sweep_frame(kind, value, seed) for seed, (kind, value) in enumerate(
            [("noise", -50.0), ("ltco", LTCO_OFFSETS[-1]), ("random", -20.5), ("ltco", LTCO_OFFSETS[1])])]
        N, rhs = (np.array(a) for a in zip(*map(static_normal_system, frames)))
        N = np.concatenate([N, np.zeros((1, 4, 4)), np.ones((1, 4, 4))])  # two singular members
        s = _lapack.gufuncs.svd(N, signature="d->d")
        assert s.tobytes() == np.linalg.svd(N, compute_uv=False).tobytes()
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = s[:, 0] / s[:, -1]
        cond = np.linalg.cond(N)
        assert ratio[:-2].tobytes() == cond[:-2].tobytes() and not (ratio[-2:] <= 1e12).any()
        assert (cond[:-2] > 1e12).tolist() == [False, True, False, False]
        x = _lapack.gufuncs.solve(N[:-2], rhs[..., None], signature="dd->d")
        assert x.tobytes() == np.linalg.solve(N[:-2], rhs[..., None]).tobytes()
        assert all(x[k].tobytes() == np.linalg.solve(N[k], rhs[k, :, None]).tobytes() for k in range(len(frames)))
        assert _lapack.gufuncs.inv(N[:-2], signature="d->d").tobytes() == np.linalg.inv(N[:-2]).tobytes()


def test_only_lapack_module_names_the_private_gufuncs():
    # the pins above cover the private numpy API (its LAPACK gufuncs and its C
    # count_nonzero), which one module owns; no stacked kernel calls
    # np.linalg: a factorization, solve, inverse or norm
    package = pathlib.Path(estimator.__file__).parent
    for private in ("_umath_linalg", "numpy._core"):
        assert [p.name for p in package.rglob("*.py") if private in p.read_text()] == ["_lapack.py"], private
    kernels = [model._psd_factor, baselines._normal_solve, baselines._residuals, baselines.tswls_static_batch,
               baselines.mle_batch, analysis._toa_geometry, analysis.crlb_columns, estimator._wls_solve,
               estimator._wls_covariance, estimator._gn_steps, estimator.estimate_batch, estimator.whitening_matrix]
    for kernel in kernels:
        calls = [node.func.attr for node in ast.walk(ast.parse(inspect.getsource(kernel))) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute) and ast.unparse(node.func.value) == "np.linalg"]
        assert not calls, (kernel.__name__, calls)


_GUFUNCS = _lapack.gufuncs


def fail_member(monkeypatch, name, call, member):
    """Make the package's gufunc ``name`` fail on ``member`` of its
    ``call``-th call as LAPACK fails: NaN outputs, rank -1 for ``lstsq``,
    and the FP-invalid flag."""
    count = itertools.count()

    def gufunc(*args, **kwargs):
        out = getattr(_GUFUNCS, name)(*args, **kwargs)
        if next(count) == call:
            # qr_r_raw factors its argument in place
            for a in (args[0],) if name == "qr_r_raw" else out if isinstance(out, tuple) else (out,):
                a[member] = -1 if a.dtype.kind == "i" else np.nan
            np.subtract(np.inf, np.inf)
        return out

    fake = types.SimpleNamespace(**{n: getattr(_GUFUNCS, n) for n in SIGNATURES})
    setattr(fake, name, gufunc)
    monkeypatch.setattr(_lapack, "gufuncs", fake)


class TestLapackFailure:
    """A frame whose LAPACK call fails gets its own EstimationError; no
    LinAlgError or RuntimeWarning escapes and the other frames do not move."""

    @pytest.mark.parametrize(
        "name, call, error, message",
        [("qr_r_raw", 0, RankDeficiencyError, "numerical rank 0"), ("qr_r_raw", 1, RankDeficiencyError, "numerical rank 0"),
         ("solve", 0, ConditioningError, "C_e"), ("solve", 1, DegenerateGeometryError, "rank 0"),
         ("lstsq", 0, DegenerateGeometryError, "rank 0")],
        ids=["qr_pass1", "qr_pass2", "solve_pass1", "solve_pass2", "lstsq"],
    )
    def test_failure_stays_with_its_frame(self, name, call, error, message, monkeypatch, tmp_path, capsys):
        frames = [sweep_frame(kind, value, seed) for seed, (kind, value) in enumerate(
            [("noise", -20.5), ("ltco", LTCO_OFFSETS[-1]), ("random", -20.5), ("noise", -50.0)])]
        alone = [entries(estimate_batch(FrameStack.one(f)))[0] for f in frames]

        fail_member(monkeypatch, name, call, member=1)
        results = entries(estimate_batch(FrameStack.of(frames)))
        assert type(results[1]) is error and message in str(results[1])
        for k in (0, 2, 3):
            got, want = results[k], alone[k]
            assert got.x_hat.as_vector().tobytes() == want.x_hat.as_vector().tobytes()
            assert got.C_wls.tobytes() == want.C_wls.tobytes()
            assert (got.cond_estimate, got.iterations, got.converged) == (want.cond_estimate, want.iterations, want.converged)

        fail_member(monkeypatch, name, call, member=0)
        with pytest.raises(error, match=message):
            estimate(frames[1])

        fail_member(monkeypatch, name, call, member=0)
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(serialize.frame_to_dict(frames[1])))
        assert cli.main(["estimate", "--input", str(path), "--output", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("estimation error:") and "Traceback" not in err

    def test_failed_eigh_raises_from_whitening_matrix(self, monkeypatch):
        # a non-diagonal C_e takes whitening_matrix's eigh_lo path
        C_e = kernel_inputs()["eigh_lo"][0][0]
        assert np.isfinite(whitening_matrix(C_e)).all()
        fail_member(monkeypatch, "eigh_lo", 0, member=0)
        with pytest.raises(ConditioningError, match="not positive definite"):
            whitening_matrix(C_e)
