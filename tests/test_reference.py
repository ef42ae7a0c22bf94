"""The float64 pipeline against a 60-digit reference.

The retraction: each frame's ``theta``, ``K`` and threshold come from the
single-frame stages (:func:`build_design`, :func:`build_error_model` at the
pass-1 state, :func:`solve_wls_qr`).  :func:`gauss_newton_refine` retracts in
float64, and the reference runs the same number of Gauss-Newton steps from the
same ``theta`` and ``K`` in mpmath at 60 digits.  The float64 error of each
state block ``[p, v, T, omega]`` must stay within 10x of the error recorded
for the retraction's former SVD step, or under the block's floor: 10x the
error that rounding ``theta`` to float64 alone causes (``eps * |theta_j|`` on
every entry, carried through the last step's least-squares map), the size of
the round-off a backward-stable step commits on these 9x6 systems.  Every
frame keeps its recorded iteration count, ``converged`` flag and failure class.

The MLE: three Gauss-Newton steps of :func:`mle_batch` from a trial's own
initial state, on trials drawn as the sweeps draw them (base seed 0), and the
same three steps at 60 digits from the same state.  The trials include
random_topology trial 206, the one whose MLE outcome a QR step kernel flips,
and trials 43 and 47, whose full MLE runs to the 50-iteration cap.  The gate
is the retraction's: the float64 error of each state block stays within 10x
the error recorded at d3dec9a, or under 10x the error that rounding ``tau``
to float64 alone causes (``eps * |tau_j|`` on every entry, carried through
the last step's weighted least-squares map).  The 60-digit cost falls at
every step, so the best iterate the MLE returns is its last.
"""

import dataclasses

import numpy as np
import pytest

from seqtoa import (
    EstimationError,
    ExperimentSpec,
    FrameStack,
    TargetState,
    build_design,
    build_error_model,
    gauss_newton_refine,
    mle_batch,
    montecarlo,
    simulate_frame,
    solve_wls_qr,
)

from conftest import LTCO_OFFSETS, sweep_scenario

mp = pytest.importorskip("mpmath")

US, US100, MS = LTCO_OFFSETS[2], LTCO_OFFSETS[4], LTCO_OFFSETS[5]  # target clock offsets, in m

# (kind, value, seed) of sweep_scenario -> (iterations, converged, float64
# error per block [p, v, T, omega]) of the SVD-step retraction at ce26ee7, or
# the failure class of a frame the pipeline rejects.  Noise -10 dB seed 13 and
# random seeds 14, 28 and 36 stop unconverged at MAX_REFINE_ITERATIONS.
REFERENCE = {
    ("noise", -50.0, 0): (2, True, [1.8e-12, 1.5e-11, 2.9e-13, 2.9e-13]),
    ("noise", -50.0, 1): (2, True, [1.2e-12, 9.5e-12, 1.9e-13, 2.2e-13]),
    ("noise", -50.0, 2): (3, True, [1.6e-12, 1.3e-11, 2.5e-13, 1.3e-13]),
    ("noise", -10.0, 0): (2, True, [8.3e-13, 7.4e-12, 9.5e-14, 7.6e-13]),
    ("noise", -10.0, 1): (5, True, [3.4e-13, 2.1e-12, 9.2e-14, 1.1e-12]),
    ("noise", -10.0, 13): (5, False, [4.6e-10, 1.7e-09, 1.4e-10, 1.5e-10]),
    ("noise", -10.0, 33): (3, True, [2.3e-13, 1.7e-12, 1.6e-17, 2.3e-13]),
    ("ltco", US, 0): (2, True, [1.1e-12, 6.8e-12, 3.7e-13, 4.5e-13]),
    ("ltco", US, 1): (3, True, [3.4e-13, 1.6e-12, 9.9e-14, 1.8e-14]),
    ("ltco", US, 5): (3, True, [1.9e-12, 1.8e-11, 3.4e-13, 2.1e-12]),
    ("ltco", US100, 0): (2, True, [2.8e-09, 1.4e-08, 9.1e-10, 1.5e-09]),
    ("ltco", US100, 1): (3, True, [1.9e-09, 8.8e-09, 5.5e-10, 3.3e-10]),
    ("ltco", US100, 2): (2, True, [7.9e-09, 3.9e-08, 2.6e-09, 4.1e-09]),
    ("ltco", MS, 3): (3, True, [4.5e-07, 2.0e-06, 1.3e-07, 2.2e-08]),
    ("ltco", MS, 4): (3, True, [4.8e-09, 4.3e-09, 2.3e-10, 2.4e-08]),
    ("ltco", MS, 9): (3, True, [9.4e-07, 4.6e-06, 2.7e-07, 1.6e-07]),
    ("random", -20.5, 2): (5, True, [2.4e-14, 9.7e-13, 1.7e-14, 7.5e-13]),
    ("random", -20.5, 14): (5, False, [9.4e-13, 9.8e-12, 9.6e-13, 1.0e-11]),
    ("random", -20.5, 28): (5, False, [6.9e-14, 1.8e-13, 3.8e-14, 9.2e-14]),
    ("random", -20.5, 36): (5, False, [4.1e-12, 5.9e-11, 3.7e-12, 6.0e-11]),
    ("static", 0.0, 0): "RankDeficiencyError",
}


def frame_of(kind, value, seed):
    if kind == "static":  # a -30 dB noise-sweep frame with every slot at t = 0
        frame = simulate_frame(sweep_scenario("noise", -30.0, seed), seed)
        return dataclasses.replace(frame, t=np.zeros(frame.n_agents))
    return simulate_frame(sweep_scenario(kind, value, seed), seed)


def float64_retraction(frame):
    """``(wls, report)``: the pass-2 solve and the float64 retraction of ``frame``."""
    design = build_design(frame)
    x1 = solve_wls_qr(design, np.eye(frame.n_agents)).theta_hat[:6]
    wls = solve_wls_qr(design, build_error_model(frame, TargetState.from_vector(x1)).C_e)
    blocks = frame.noise.blocks
    return wls, gauss_newton_refine(wls, blocks[:, 0, 0] + blocks[:, 1, 1])


def _theta_and_jacobian(x):
    """``f(x)`` and its 9x6 Jacobian, from the constraint definitions."""
    px, py, vx, vy, T, w = x
    f = mp.matrix([px, py, vx, vy, T, w, T**2 - px**2 - py**2, w**2 - vx**2 - vy**2, T * w - px * vx - py * vy])
    J = mp.matrix(9, 6)
    for i in range(6):
        J[i, i] = 1
    J[6, 0], J[6, 1], J[6, 4] = -2 * px, -2 * py, 2 * T
    J[7, 2], J[7, 3], J[7, 5] = -2 * vx, -2 * vy, 2 * w
    J[8, 0], J[8, 1], J[8, 2], J[8, 3], J[8, 4], J[8, 5] = -vx, -vy, -px, -py, w, T
    return f, J


def _blocks(values):
    """Per-block norms ``[p, v, T, omega]`` of six per-entry values."""
    return np.array([np.hypot(values[0], values[1]), np.hypot(values[2], values[3]), abs(values[4]), abs(values[5])])


def reference_errors(wls, report):
    """The float64 error per block of ``report.x_hat`` against the 60-digit
    retraction of ``wls`` over ``report.iterations`` steps, and the blocks'
    errors from rounding ``theta`` alone."""
    with mp.workdps(60):
        theta = mp.matrix([mp.mpf(float(v)) for v in wls.theta_hat])
        K = mp.matrix([[mp.mpf(float(v)) for v in row] for row in wls.sqrt_info])
        x = [theta[i] for i in range(6)]
        for _ in range(report.iterations):
            f, J = _theta_and_jacobian(x)
            dx, _ = mp.qr_solve(K * J, K * (theta - f))
            x = [x[i] + dx[i] for i in range(6)]
        KJ = K * _theta_and_jacobian(x)[1]
        step_map = mp.inverse(KJ.T * KJ) * KJ.T * K  # d x / d theta
        eps = mp.mpf(2) ** -52
        rounding = [mp.sqrt(sum((step_map[i, j] * eps * abs(theta[j])) ** 2 for j in range(9))) for i in range(6)]
        error = [x[i] - mp.mpf(float(v)) for i, v in enumerate(report.x_hat.as_vector())]
        return _blocks([float(e) for e in error]), _blocks([float(b) for b in rounding])


@pytest.mark.parametrize("case", REFERENCE, ids=lambda c: f"{c[0]}{c[1]:g}-{c[2]}")
def test_retraction_against_60_digit_reference(case):
    want = REFERENCE[case]
    frame = frame_of(*case)
    if isinstance(want, str):
        with pytest.raises(EstimationError) as info:
            float64_retraction(frame)
        assert type(info.value).__name__ == want
        return
    iterations, converged, recorded = want
    wls, report = float64_retraction(frame)
    assert (report.iterations, report.converged) == (iterations, converged)
    error, rounding = reference_errors(wls, report)
    assert np.all((error <= 10.0 * np.array(recorded)) | (error <= 10.0 * rounding)), (error, recorded, rounding)


# (scheme, sweep value, trial) at base seed 0 -> float64 error per block
# [p, v, T, omega] of three MLE steps at d3dec9a
MLE_REFERENCE = {
    ("random_topology", -20.5, 206): [9.9e-10, 2.3e-09, 9.9e-10, 2.3e-09],
    ("random_topology", -20.5, 43): [4.2e-12, 3.1e-11, 4.0e-12, 3.0e-11],
    ("random_topology", -20.5, 47): [5.6e-12, 3.2e-11, 5.3e-12, 3.1e-11],
    ("random_topology", -20.5, 0): [2.3e-12, 6.9e-12, 2.3e-12, 6.8e-12],
    ("noise_sweep", -10.0, 0): [6.2e-14, 4.4e-13, 4.2e-14, 2.4e-13],
    ("ltco_sweep", MS, 0): [2.8e-11, 1.0e-10, 4.7e-13, 4.9e-12],
}
MLE_STEPS = 3


def mle_trial(scheme, value, trial):
    """The frame and MLE initial state of one sweep trial at base seed 0."""
    spec = ExperimentSpec(scheme=scheme, n_trials=1, base_seed=0, sweep_values=(value,), estimators=("mle",))
    chunk = montecarlo._draw_chunk(spec, [(value, trial)])
    return chunk.frame(0), chunk.inits[0]


def mle_reference(frame, init, steps):
    """The 60-digit iterate after ``steps`` weighted Gauss-Newton steps from
    ``init``, the cost at each iterate, and the blocks' errors from rounding
    ``tau`` alone."""
    M = frame.n_agents
    with mp.workdps(60):
        w = 1.0 / np.sqrt(frame.noise.c_tau)  # the weights mle_batch computes
        t, tau, T_hat, w = ([mp.mpf(float(v)) for v in col] for col in (frame.t, frame.tau, frame.T_hat, w))
        p_hat = [[mp.mpf(float(v)) for v in row] for row in frame.p_hat]

        def system(x):
            WH, Wr = mp.matrix(M, 6), mp.matrix(M, 1)
            for j in range(M):
                u = [x[0] + t[j] * x[2] - p_hat[j][0], x[1] + t[j] * x[3] - p_hat[j][1]]
                r = mp.sqrt(u[0] ** 2 + u[1] ** 2)
                for i, h in enumerate((u[0] / r, u[1] / r, t[j] * u[0] / r, t[j] * u[1] / r, 1, t[j])):
                    WH[j, i] = w[j] * h
                Wr[j] = w[j] * (tau[j] - (r + x[4] + x[5] * t[j] - T_hat[j]))
            return WH, Wr

        x = [mp.mpf(float(v)) for v in init]
        costs = [mp.norm(system(x)[1]) ** 2]
        for _ in range(steps):
            WH, Wr = system(x)
            dx, _ = mp.qr_solve(WH, Wr)
            x = [x[i] + dx[i] for i in range(6)]
            costs.append(mp.norm(system(x)[1]) ** 2)
        step_map = mp.inverse(WH.T * WH) * WH.T  # d x / d (W tau) at the last step
        eps = mp.mpf(2) ** -52
        rounding = [mp.sqrt(sum((step_map[i, j] * w[j] * eps * abs(tau[j])) ** 2 for j in range(M))) for i in range(6)]
        return x, costs, _blocks([float(b) for b in rounding])


@pytest.mark.parametrize("case", MLE_REFERENCE, ids=lambda c: f"{c[0]}{c[1]:g}-{c[2]}")
def test_mle_steps_against_60_digit_reference(case):
    frame, init = mle_trial(*case)
    report = mle_batch(FrameStack.one(frame), [init], MLE_STEPS).report(0)
    assert (report.iterations, report.converged, report.diverged) == (MLE_STEPS, False, False)
    x, costs, rounding = mle_reference(frame, init, MLE_STEPS)
    assert all(b < a for a, b in zip(costs, costs[1:])), costs
    error = _blocks([float(x[i] - mp.mpf(float(v))) for i, v in enumerate(report.x_hat.as_vector())])
    recorded = np.array(MLE_REFERENCE[case])
    assert np.all((error <= 10.0 * recorded) | (error <= 10.0 * rounding)), (error, recorded, rounding)
