"""Reference estimators used for comparison.

* :func:`mle_estimate` - Gauss-Newton maximum likelihood that trusts the
  broadcast agent information (ignores its uncertainty).
* :func:`tswls_static_batch` - the classic static two-step solver
  (position and offset only, explicit normal equations, one refinement
  iteration) over a :class:`~seqtoa.estimator.FrameStack`, with a failure
  record per frame; :func:`tswls_static_estimate` is a batch of one.  It is
  implemented standalone, error statistics included, so the pipeline's
  degraded mode can be cross-checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, UnderdeterminedError
from .estimator import EstimateReport, FrameStack
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


def _normal_solve(N: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the stacked normal equations ``N (K, n, n) @ x = rhs (K, n)``.

    Only systems whose matrix is finite with ``cond <= 1e12`` are solved.
    Returns ``(ok, x)``; ``x`` holds the ``ok`` systems only.
    """
    ok = np.isfinite(N).all(axis=(-2, -1))
    ok[ok] = np.linalg.cond(N[ok]) <= 1e12
    return ok, np.linalg.solve(N[ok], rhs[ok, :, None])[..., 0]


def _error_weighted(G: np.ndarray, h: np.ndarray, b: np.ndarray, stack: FrameStack, frames: np.ndarray):
    """``C_e^-1 G`` and ``C_e^-1 h`` of ``frames`` of the stack.

    The static error covariance is ``C_e = B C_beta B^T + D C_tau D^T``, where
    agent m's row sensitivity ``b[:, m] = [b_pos, d_m]`` fills its block of
    ``B`` and ``d_m`` the diagonal of ``D``.  ``C_e`` is diagonal unless the
    frame's noise is correlated across agents.  Returns ``(WG, Wh, ok)``;
    ``ok`` is False where ``C_e`` is singular.
    """
    d = b[..., 2]
    var = np.einsum("kmi,kmij,kmj->km", b, stack.blocks[frames], b) + d * stack.c_tau[frames] * d
    ok = (var != 0.0).all(axis=-1)
    var[~ok] = 1.0
    WG, Wh = G / var[..., None], h / var
    M = d.shape[1]
    for j, i in enumerate(frames):
        noise = stack.dense[i]
        if noise is None:
            continue
        B = np.zeros((M, M, 3))
        B[np.arange(M), np.arange(M)] = b[j]
        B = B.reshape(M, 3 * M)
        C_e = B @ noise.C_beta @ B.T + d[j][:, None] * noise.C_tau * d[j][None, :]
        try:
            W = np.linalg.inv(C_e)
        except np.linalg.LinAlgError:
            ok[j] = False
            continue
        ok[j] = True
        WG[j], Wh[j] = W @ G[j], W @ h[j]
    return WG, Wh, ok


def tswls_static_batch(stack: FrameStack) -> list[StaticTswlsResult]:
    """Static two-step solver on every frame of a stack: unknowns ``[p, T, theta1]``.

    Row m of the linear stage is ``[2*p_hat_m, -2*alpha_hat_m, 1]`` against
    ``||p_hat_m||^2 - alpha_hat_m^2``; the second pass weights with the
    static error statistics and exactly one refinement iteration retracts
    ``[p, T]``.  Solves use explicit normal equations on purpose - under a
    large target clock offset those become numerically unusable, and that
    condition is returned as a failure record rather than raised.  Returns
    one result or failure record per frame, in order; one bad frame does not
    fail the others.

    Raises
    ------
    UnderdeterminedError
        If the frames have fewer than 4 broadcasts.
    """
    N, M = stack.t.shape
    if M < 4:
        raise UnderdeterminedError(f"static solver needs M >= 4 broadcasts, got M = {M}")
    out: list = [None] * N

    def fail(frames, message: str):
        for i in frames:
            out[i] = StaticTswlsResult(None, None, None, False, message)

    p_hat, alpha = stack.p_hat, stack.alpha
    G = np.empty((N, M, 4))
    G[..., 0:2] = 2.0 * p_hat
    G[..., 2] = -2.0 * alpha
    G[..., 3] = 1.0
    h = (p_hat**2).sum(axis=-1) - alpha**2
    Gt = G.swapaxes(-1, -2)

    # pass 1: identity weights
    ok, q = _normal_solve(Gt @ G, (Gt @ h[..., None])[..., 0])
    fail(np.flatnonzero(~ok), "first-pass normal matrix ill-conditioned")
    live = np.flatnonzero(ok)

    # pass 2: weights from the static error statistics at the first-pass solution
    b = np.empty((len(live), M, 3))
    b[..., 0:2] = 2.0 * (q[:, None, 0:2] - p_hat[live])
    b[..., 2] = -2.0 * (q[:, 2:3] - alpha[live])
    WG, Wh, ok = _error_weighted(G[live], h[live], b, stack, live)
    fail(live[~ok], "static error covariance singular")
    live, WG, Wh = live[ok], WG[ok], Wh[ok]
    N4 = Gt[live] @ WG
    ok, theta_s = _normal_solve(N4, (Gt[live] @ Wh[..., None])[..., 0])
    fail(live[~ok], "weighted normal matrix ill-conditioned")
    live, C4 = live[ok], np.linalg.inv(N4[ok])

    # one refinement iteration on [p, T] through theta1 = T^2 - ||p||^2
    z = theta_s[:, :3]
    f_s = np.concatenate([z, (z[:, 2] ** 2 - (z[:, 0:2] ** 2).sum(axis=-1))[:, None]], axis=-1)
    J_s = np.zeros((len(live), 4, 3))
    J_s[:, [0, 1, 2], [0, 1, 2]] = 1.0
    J_s[:, 3] = 2.0 * z * [-1.0, -1.0, 1.0]
    JtW = J_s.swapaxes(-1, -2) @ np.linalg.inv(C4)
    N_s = JtW @ J_s
    ok, step = _normal_solve(N_s, (JtW @ (theta_s - f_s)[..., None])[..., 0])
    fail(live[~ok], "refinement normal matrix ill-conditioned")
    live, z, cov = live[ok], z[ok] + step, np.linalg.inv(N_s[ok])

    finite = np.isfinite(z).all(axis=-1) & np.isfinite(cov).all(axis=(-2, -1))
    fail(live[~finite], "non-finite solution")
    for i, zi, ci in zip(live[finite], z[finite], cov[finite]):
        pos = zi[0:2].copy()
        pos.setflags(write=False)
        out[i] = StaticTswlsResult(position=pos, offset=float(zi[2]), covariance=ci, success=True)
    return out


def tswls_static_estimate(frame: ObservedFrame) -> StaticTswlsResult:
    """Static two-step solver on one frame: :func:`tswls_static_batch` on a batch of one.

    Raises
    ------
    UnderdeterminedError
        If the frame has fewer than 4 broadcasts.
    """
    return tswls_static_batch(FrameStack.of([frame]))[0]
