"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The heavy criteria reuse the Monte-Carlo harness with pinned seeds, so every
number asserted here is reproducible bit for bit.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from seqtoa import (
    Agents,
    ExperimentSpec,
    NoiseSpec,
    Scenario,
    TargetState,
    analytic_cov,
    build_design,
    build_error_model,
    crlb_target,
    estimate,
    estimate_degraded,
    exact_frame,
    forward_toa,
    run_trials,
    simulate_frame,
    solve_wls_qr,
    theta_jacobian,
    theta_model,
    toa_gradients,
    tswls_static_estimate,
    whitening_matrix,
)
from seqtoa.cli import main
from seqtoa.estimator import DesignSystem
from seqtoa.model import C_LIGHT

from conftest import random_scenario, random_state

LTCO_OFFSET = 1e-3 * C_LIGHT  # 1 ms, range-equivalent


def check(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status} {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_exact_recovery(fixed_scenario):
    t0 = time.perf_counter()
    scenario = Scenario(
        agents=fixed_scenario.agents,
        target=fixed_scenario.target,
        noise=NoiseSpec.isotropic(1e-12, 1e-12, n_agents=10),
    )
    report = estimate(exact_frame(scenario))
    err = np.abs(report.x_hat.as_vector() - scenario.target.as_vector()).max()
    elapsed = time.perf_counter() - t0
    check(1, "zero-noise frame recovers all 6 components to 1e-6",
          err <= 1e-6 and elapsed < 1.0, f"max err {err:.2e}, {elapsed:.2f} s")


def test_criterion_2_crlb_attainment():
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        scheme="noise_sweep",
        n_trials=3000,
        base_seed=11000,
        sweep_values=(-50.0, -40.0, -30.0),
        estimators=("proposed",),
    )
    results = run_trials(spec)
    worst = 0.0
    for v in spec.sweep_values:
        st = results[(v, "proposed")]
        worst = max(
            worst,
            abs(st.mse_position / st.crlb_trace_position - 1.0),
            abs(st.mse_velocity / st.crlb_trace_velocity - 1.0),
        )
    elapsed = time.perf_counter() - t0
    check(2, "position/velocity MSE within 10% of CRLB trace over the noise sweep",
          worst <= 0.10 and elapsed < 120.0, f"worst deviation {worst:.3f}, {elapsed:.0f} s")


def test_criterion_3_analytic_mse_validity(fixed_scenario):
    rng = np.random.default_rng(12000)
    sigma_db = rng.uniform(-35.0, -25.0, 10)  # sigma_s^2 = -30 dB level, frozen draw
    scenario = Scenario(
        agents=fixed_scenario.agents,
        target=fixed_scenario.target,
        noise=NoiseSpec.from_db(-30.0, sigma_db),
    )
    n = 3000
    truth = scenario.target.as_vector()
    errors = np.empty((n, 6))
    for seed in range(n):
        errors[seed] = estimate(simulate_frame(scenario, seed)).x_hat.as_vector() - truth

    predicted = np.diag(analytic_cov(scenario))
    empirical = errors.var(axis=0, ddof=1)
    cov_dev = np.abs(predicted / empirical - 1.0).max()

    bias = errors.mean(axis=0)
    bias_se = np.sqrt(empirical / n)
    bias_sigmas = np.abs(bias / bias_se).max()

    check(3, "analytic covariance within 10% of Monte-Carlo, bias within 3 SE",
          cov_dev <= 0.10 and bias_sigmas <= 3.0,
          f"worst cov dev {cov_dev:.3f}, worst bias {bias_sigmas:.2f} SE")


def test_criterion_4_crlb_internal_consistency():
    t0 = time.perf_counter()
    worst = 0.0
    for s in range(100):
        scenario = random_scenario(np.random.default_rng(13000 + s))
        res = crlb_target(scenario)
        top = np.linalg.inv(res.full_fim)[:6, :6]
        worst = max(worst, np.abs(top - res.crlb_x).max() / np.abs(res.crlb_x).max())
    elapsed = time.perf_counter() - t0
    check(4, "Schur CRLB equals full-FIM inverse (rel 1e-8, 100 scenarios)",
          worst <= 1e-8 and elapsed < 10.0, f"worst rel {worst:.2e}, {elapsed:.1f} s")


def test_criterion_5_gradient_checks():
    rng = np.random.default_rng(14000)
    worst_j = worst_g = 0.0
    for _ in range(1000):
        x = random_state(rng)
        xv = x.as_vector()

        J = theta_jacobian(xv)
        J_fd = np.empty_like(J)
        for i in range(6):
            h = 1e-6 * max(1.0, abs(xv[i]))
            xp, xm = xv.copy(), xv.copy()
            xp[i] += h
            xm[i] -= h
            J_fd[:, i] = (theta_model(xp) - theta_model(xm)) / (2 * h)
        worst_j = max(worst_j, np.abs(J - J_fd).max() / max(1.0, np.abs(J).max()))

        p_m, T_m, t_m = rng.uniform(0, 50, 2), rng.uniform(-3, 3), rng.uniform(0, 0.5)
        agent = Agents(t=[t_m], p_m=[p_m], T_m=[T_m])
        gx = toa_gradients(x, agent)[0][0]
        fd = np.empty(6)
        for i in range(6):
            h = 1e-6 * max(1.0, abs(xv[i]))
            xp, xm = xv.copy(), xv.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (
                forward_toa(TargetState.from_vector(xp), agent)[0]
                - forward_toa(TargetState.from_vector(xm), agent)[0]
            ) / (2 * h)
        worst_g = max(worst_g, np.abs(gx - fd).max() / max(1.0, np.abs(gx).max()))
    check(5, "TOA gradients and retraction Jacobian match finite differences (rel 1e-5)",
          worst_j <= 1e-5 and worst_g <= 1e-5,
          f"worst jacobian {worst_j:.2e}, worst gradient {worst_g:.2e}")


def test_criterion_6_ltco_robustness():
    t0 = time.perf_counter()
    common = dict(n_trials=3000, estimators=("proposed", "tswls_static"), sigma_tau_sq_db=-30.0)
    non_ltco = run_trials(
        ExperimentSpec(scheme="noise_sweep", base_seed=15000, sweep_values=(-20.5,), **common)
    )
    ltco = run_trials(
        ExperimentSpec(
            scheme="ltco_sweep", base_seed=15001, sweep_values=(LTCO_OFFSET,),
            sigma_s_sq_db=-20.5, **common,
        )
    )
    prop_ratio = ltco[(LTCO_OFFSET, "proposed")].mse_position / non_ltco[(-20.5, "proposed")].mse_position
    proposed_ok = prop_ratio <= 2.0 and ltco[(LTCO_OFFSET, "proposed")].n_success == 3000

    ts_ltco = ltco[(LTCO_OFFSET, "tswls_static")]
    ts_ref = non_ltco[(-20.5, "tswls_static")]
    fail_rate = ts_ltco.divergence_count / ts_ltco.n_trials
    if fail_rate >= 0.5:
        baseline_fails = True
        detail_ts = f"static solver failure rate {fail_rate:.0%}"
    else:
        baseline_fails = ts_ltco.mse_position >= 100.0 * ts_ref.mse_position
        detail_ts = f"static MSE inflation {ts_ltco.mse_position / ts_ref.mse_position:.1f}x"
    elapsed = time.perf_counter() - t0
    check(6, "1 ms clock offset: proposed MSE <= 2x non-LTCO, static solver fails",
          proposed_ok and baseline_fails,
          f"proposed ratio {prop_ratio:.2f}, {detail_ts}, {elapsed:.0f} s")


def test_criterion_7_baseline_ordering():
    t0 = time.perf_counter()
    sweep = tuple(float(v) for v in range(-50, -5, 5))
    spec1 = ExperimentSpec(
        scheme="noise_sweep", n_trials=3000, base_seed=16000,
        sweep_values=sweep, estimators=("proposed", "tswls_static"),
    )
    res1 = run_trials(spec1)
    ordering_ok = True
    for v in sweep:
        mse_p = res1[(v, "proposed")].mse_position
        mse_t = res1[(v, "tswls_static")].mse_position
        if not (mse_p <= mse_t):
            ordering_ok = False

    spec3 = ExperimentSpec(
        scheme="random_topology", n_trials=10000, base_seed=16001,
        sweep_values=(-20.5,), estimators=("proposed", "tswls_static"),
    )
    res3 = run_trials(spec3)
    prop = np.sort(res3[(-20.5, "proposed")].cdf_samples)
    stat = np.sort(res3[(-20.5, "tswls_static")].cdf_samples)

    lo = max(prop[0], stat[0])
    hi = min(prop[-1], stat[-1])
    grid = np.unique(np.concatenate([prop, stat]))
    grid = grid[(grid >= lo) & (grid <= hi)]
    F_prop = np.searchsorted(prop, grid, side="right") / prop.size
    F_stat = np.searchsorted(stat, grid, side="right") / stat.size
    dominance = bool(np.all(F_prop >= F_stat)) if grid.size else bool(np.median(prop) <= np.median(stat))
    elapsed = time.perf_counter() - t0
    check(7, "proposed MSE <= static at all sweep points; CDF dominates at N=10000",
          ordering_ok and dominance and elapsed < 300.0,
          f"CDF grid points {grid.size}, {elapsed:.0f} s")


def test_criterion_8_degraded_mode_equivalence():
    rng = np.random.default_rng(17000)
    worst = 0.0
    for k in range(100):
        base = random_scenario(rng, moving=False)
        agents = dataclasses.replace(base.agents, t=np.zeros(base.n_agents))
        scenario = Scenario(agents=agents, target=base.target, noise=base.noise)
        frame = simulate_frame(scenario, 17100 + k)
        pos, offset, cov = estimate_degraded(frame)
        ref = tswls_static_estimate(frame)  # raises the frame's EstimationError if the solver fails
        worst = max(
            worst,
            np.abs(pos - ref.position).max() / max(1.0, np.abs(ref.position).max()),
            abs(offset - ref.offset) / max(1.0, abs(ref.offset)),
            np.abs(cov - ref.covariance).max() / np.abs(ref.covariance).max(),
        )
    check(8, "degraded pipeline matches standalone static solver (rel 1e-8, 100 frames)",
          worst <= 1e-8, f"worst rel {worst:.2e}")


def test_criterion_9_qr_vs_normal_equations():
    rng = np.random.default_rng(18000)
    worst = 0.0
    checked = 0
    # synthetic well-conditioned systems
    for _ in range(20):
        M = 12
        A = rng.normal(size=(M, 9))
        y = rng.normal(size=M)
        Q, _ = np.linalg.qr(rng.normal(size=(M, M)))
        C_e = (Q * rng.uniform(0.5, 2.0, M)) @ Q.T
        sol = solve_wls_qr(DesignSystem(A=A, y=y, alpha_hat=np.zeros(M)), C_e)
        Ci = np.linalg.inv(C_e)
        theta_ne = np.linalg.solve(A.T @ Ci @ A, A.T @ Ci @ y)
        worst = max(worst, np.linalg.norm(sol.theta_hat - theta_ne) / np.linalg.norm(theta_ne))
        checked += 1
    # frame-derived systems kept under cond(WA) < 1e6 (small skew)
    for k in range(12):
        base = random_scenario(rng)
        target = TargetState(p=base.target.p, v=base.target.v, T=base.target.T,
                             omega=rng.uniform(-1, 1) * 1e-6 * C_LIGHT)
        scenario = Scenario(agents=base.agents, target=target, noise=base.noise)
        frame = simulate_frame(scenario, 18100 + k)
        design = build_design(frame)
        em = build_error_model(frame, scenario.target)
        if np.linalg.cond(whitening_matrix(em.C_e) @ design.A) >= 1e6:
            continue
        sol = solve_wls_qr(design, em.C_e)
        Ci = np.linalg.inv(em.C_e)
        theta_ne = np.linalg.solve(design.A.T @ Ci @ design.A, design.A.T @ Ci @ design.y)
        worst = max(worst, np.linalg.norm(sol.theta_hat - theta_ne) / np.linalg.norm(theta_ne))
        checked += 1
    check(9, "QR solution matches normal equations on well-conditioned systems",
          worst <= 1e-8 and checked >= 25, f"worst rel {worst:.2e} over {checked} systems")


def test_criterion_10_deterministic_csv(tmp_path):
    doc = {
        "scheme": "random_topology",
        "n_trials": 50,
        "base_seed": 19000,
        "sweep_values": [-20.5],
        "estimators": ["proposed", "tswls_static"],
        "topology": {"random": {}},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    outs = []
    for name in ("run1.csv", "run2.csv"):
        out = tmp_path / name
        assert main(["experiment", "--input", str(spec_path), "--output", str(out)]) == 0
        outs.append(out)
    same_sweep = outs[0].read_bytes() == outs[1].read_bytes()
    same_cdf = (tmp_path / "run1_cdf.csv").read_bytes() == (tmp_path / "run2_cdf.csv").read_bytes()
    check(10, "identical experiment spec reruns yield byte-identical CSVs",
          same_sweep and same_cdf)
