"""Reference estimators used for comparison.

* :func:`mle_estimate` - Gauss-Newton maximum likelihood that trusts the
  broadcast agent information (ignores its uncertainty).
* :func:`tswls_static_estimate` - the classic static two-step solver
  (position and offset only, explicit normal equations, one refinement
  iteration), implemented standalone so the pipeline's degraded mode can be
  cross-checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, UnderdeterminedError
from .estimator import EstimateReport
from .model import ObservedFrame, TargetState

_DIVERGENCE_STREAK = 3


@dataclass(frozen=True)
class MleConfig:
    """Gauss-Newton MLE settings.

    ``init_perturbation_sigma`` is the per-component standard deviation used
    by experiment harnesses that initialize at truth plus Gaussian noise.
    """

    init: TargetState
    max_iters: int = 50
    step_tol: float = 1e-9
    init_perturbation_sigma: float = 1.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.step_tol <= 0 or self.init_perturbation_sigma <= 0:
            raise ValueError("tolerances must be > 0")


def _predict(x: np.ndarray, t: np.ndarray, p_hat: np.ndarray, T_hat: np.ndarray):
    u = x[0:2] + t[:, None] * x[2:4] - p_hat
    r = np.linalg.norm(u, axis=1)
    pred = r + x[4] + x[5] * t - T_hat
    return pred, u, r


def mle_estimate(frame: ObservedFrame, cfg: MleConfig) -> EstimateReport:
    """Weighted Gauss-Newton on the raw TOA residuals.

    Broadcast positions/offsets are treated as exact; residuals are weighted
    by the inverse TOA covariance only.  Divergence (three consecutive step
    norm increases, or a non-finite iterate) is reported through the
    ``diverged`` flag, never raised; the best iterate seen is returned.

    Raises
    ------
    UnderdeterminedError
        If the frame has fewer than 6 broadcasts.
    DegenerateGeometryError
        If the Gauss-Newton system loses rank.
    """
    M = frame.n_agents
    if M < 6:
        raise UnderdeterminedError(f"MLE needs M >= 6 broadcasts, got M = {M}")
    t, tau, p_hat, T_hat = frame.t, frame.tau, frame.p_hat, frame.T_hat
    w = 1.0 / np.sqrt(np.diag(frame.noise.C_tau))

    x = cfg.init.as_vector().copy()

    def cost(state):
        pred, _, _ = _predict(state, t, p_hat, T_hat)
        return float(np.sum((w * (tau - pred)) ** 2))

    best_x = x.copy()
    best_cost = cost(x)
    prev_step = np.inf
    growth_streak = 0
    converged = False
    diverged = False
    iterations = 0

    for _ in range(cfg.max_iters):
        pred, u, r = _predict(x, t, p_hat, T_hat)
        if np.any(r == 0):
            raise DegenerateGeometryError("iterate coincides with an agent position")
        rho = u / r[:, None]
        H = np.column_stack([rho, t[:, None] * rho, np.ones(M), t])
        resid = tau - pred
        dx, _, rank, _ = np.linalg.lstsq(w[:, None] * H, w * resid, rcond=None)
        if rank < 6:
            raise DegenerateGeometryError(f"Gauss-Newton system is rank deficient (rank {rank} < 6)")
        x = x + dx
        iterations += 1

        if not np.all(np.isfinite(x)):
            diverged = True
            break
        c = cost(x)
        if c < best_cost:
            best_cost = c
            best_x = x.copy()
        step = float(np.linalg.norm(dx))
        if step > prev_step:
            growth_streak += 1
            if growth_streak >= _DIVERGENCE_STREAK:
                diverged = True
                break
        else:
            growth_streak = 0
        prev_step = step
        if step <= cfg.step_tol:
            converged = True
            break

    return EstimateReport(
        x_hat=TargetState.from_vector(best_x),
        iterations=iterations,
        converged=converged,
        cond_estimate=float("nan"),
        C_wls=None,
        estimator_id="mle",
        diverged=diverged,
    )


@dataclass(frozen=True, eq=False)
class StaticTswlsResult:
    """Output (or failure record) of the static two-step solver."""

    position: np.ndarray | None
    offset: float | None
    covariance: np.ndarray | None  # 3x3 covariance of [px, py, T]
    success: bool
    message: str = ""
    estimator_id: str = "tswls_static"


def tswls_static_estimate(frame: ObservedFrame) -> StaticTswlsResult:
    """Static two-step solver: unknowns ``[p, T, theta1]``.

    Row m of the linear stage is ``[2*p_hat_m, -2*alpha_hat_m, 1]`` against
    ``||p_hat_m||^2 - alpha_hat_m^2``; the second pass weights with the
    static error statistics and exactly one refinement iteration retracts
    ``[p, T]``.  Solves use explicit normal equations on purpose - under a
    large target clock offset those become numerically unusable, and that
    condition is returned as a failure record rather than raised.
    """
    M = frame.n_agents
    if M < 4:
        raise UnderdeterminedError(f"static solver needs M >= 4 broadcasts, got M = {M}")
    p_hat = frame.p_hat
    alpha = frame.tau + frame.T_hat

    G = np.column_stack([2.0 * p_hat, -2.0 * alpha, np.ones(M)])
    h = np.sum(p_hat**2, axis=1) - alpha**2

    def solve_normal(weight):
        N = G.T @ weight @ G
        if not np.all(np.isfinite(N)) or np.linalg.cond(N) > 1e12:
            return None, None
        return np.linalg.solve(N, G.T @ weight @ h), np.linalg.inv(N)

    q, _ = solve_normal(np.eye(M))
    if q is None:
        return StaticTswlsResult(None, None, None, False, "first-pass normal matrix ill-conditioned")

    # static error statistics at the first-pass solution
    d = -2.0 * (q[2] - alpha)
    b_pos = 2.0 * (q[0:2] - p_hat)
    B = np.zeros((M, 3 * M))
    rows = np.arange(M)
    B[rows, 3 * rows] = b_pos[:, 0]
    B[rows, 3 * rows + 1] = b_pos[:, 1]
    B[rows, 3 * rows + 2] = d
    C_e = B @ frame.noise.C_beta @ B.T + np.diag(d) @ frame.noise.C_tau @ np.diag(d)

    try:
        W = np.linalg.inv(C_e)
    except np.linalg.LinAlgError:
        return StaticTswlsResult(None, None, None, False, "static error covariance singular")

    theta_s, C4 = solve_normal(W)
    if theta_s is None:
        return StaticTswlsResult(None, None, None, False, "weighted normal matrix ill-conditioned")

    # one refinement iteration on [p, T] through theta1 = T^2 - ||p||^2
    z = theta_s[:3].copy()
    f_s = np.concatenate([z, [z[2] ** 2 - z[0:2] @ z[0:2]]])
    J_s = np.vstack([np.eye(3), [-2.0 * z[0], -2.0 * z[1], 2.0 * z[2]]])
    C4_inv = np.linalg.inv(C4)
    N_s = J_s.T @ C4_inv @ J_s
    if not np.all(np.isfinite(N_s)) or np.linalg.cond(N_s) > 1e12:
        return StaticTswlsResult(None, None, None, False, "refinement normal matrix ill-conditioned")
    z = z + np.linalg.solve(N_s, J_s.T @ C4_inv @ (theta_s - f_s))
    cov = np.linalg.inv(N_s)

    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(cov))):
        return StaticTswlsResult(None, None, None, False, "non-finite solution")
    pos = z[0:2].copy()
    pos.setflags(write=False)
    return StaticTswlsResult(position=pos, offset=float(z[2]), covariance=cov, success=True)
