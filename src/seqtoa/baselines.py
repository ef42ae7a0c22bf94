"""Reference estimators used for comparison.

* :func:`mle_batch` - Gauss-Newton maximum likelihood that trusts the
  broadcast agent information (ignores its uncertainty), over a batch of
  frames with per-frame iteration counts, flags and failure records.  Each
  iteration solves the Gauss-Newton steps of all its frames in one stacked
  ``dgelsd`` call, bit for bit the per-frame ``numpy.linalg.lstsq`` steps;
  :func:`mle_estimate` is a batch of one.
* :func:`tswls_static_batch` - the classic static two-step solver
  (position and offset only, explicit normal equations, one refinement
  iteration) over a :class:`~seqtoa.estimator.FrameStack`, with a failure
  record per frame; :func:`tswls_static_estimate` is a batch of one.  It is
  implemented standalone, error statistics included, so the pipeline's
  degraded mode can be cross-checked against it.  Its error covariance is
  diagonal, as the noise is independent across agents, so weighting divides
  each row by its variance.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, EstimationError, UnderdeterminedError

# np.linalg.lstsq solves one matrix per call: only its 2-D check refuses a
# stack.  The gufunc beneath it runs the same LAPACK dgelsd on every matrix of
# a stack, so one call gives each matrix np.linalg.lstsq's solution, rank and
# singular values bit for bit (see estimator's import of it for why).
from .estimator import _LAPACK_ERRSTATE, EstimateReport, FrameStack, _umath_linalg
from .model import ObservedFrame, TargetState

_DIVERGENCE_STREAK = 3


@dataclass(frozen=True)
class MleConfig:
    """Gauss-Newton MLE settings."""

    init: TargetState
    max_iters: int = 50
    step_tol: float = 1e-9

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.step_tol <= 0:
            raise ValueError("step_tol must be > 0")


def _lstsq_stack(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.lstsq(A[k], b[k], rcond=None)``'s solution ``(K, n)`` and
    rank ``(K,)`` for every system of the stack ``A (K, m, n)``, ``b (K, m)``.

    A system whose dgelsd fails, which makes ``np.linalg.lstsq`` raise
    ``LinAlgError``, gets rank -1 and a NaN solution instead; the others are
    unaffected.
    """
    m, n = A.shape[-2:]
    with np.errstate(all="ignore"):  # failures come back as rank -1
        x, _, rank, _ = _umath_linalg.lstsq(A, b[..., None], np.finfo(float).eps * max(m, n), signature="ddd->ddid")
    return x[..., 0], rank


def _residuals(x: np.ndarray, t: np.ndarray, tau: np.ndarray, p_hat: np.ndarray, T_hat: np.ndarray):
    """Agent-to-target vectors ``u (N, M, 2)``, ranges ``r (N, M)`` and TOA
    residuals ``tau - (r + T + omega t - T_hat)`` at the states ``x (N, 6)``."""
    u = x[:, None, 0:2] + t[..., None] * x[:, None, 2:4] - p_hat
    r = np.linalg.norm(u, axis=-1)
    return u, r, tau - (r + x[:, 4:5] + x[:, 5:6] * t - T_hat)


@_LAPACK_ERRSTATE
def mle_batch(
    frames: Sequence[ObservedFrame] | FrameStack, inits, max_iters: int = 50, step_tol: float = 1e-9
) -> list[EstimateReport | EstimationError]:
    """Weighted Gauss-Newton on the raw TOA residuals of every frame of a batch.

    ``frames`` is a sequence of frames or their :class:`FrameStack`.  Frame
    n starts from the 6-state ``inits[n]``.  Broadcast positions and
    offsets are treated as exact; residuals are weighted by the inverse TOA
    variances only.  Each frame runs its own iterations: it leaves the loop
    once its step norm is at most ``step_tol`` (converged), after three
    consecutive step-norm increases or at a non-finite iterate (diverged),
    or after ``max_iters`` steps, and reports the best iterate it has seen.
    Divergence is reported through the ``diverged`` flag, never raised.
    Each iteration solves the steps of all frames still iterating in one
    stacked call of the LAPACK ``dgelsd`` that ``numpy.linalg.lstsq`` runs,
    with its ``rcond``, so each frame's step, and so its result, is bit for
    bit the one it gets alone.  All frames must have the same number of
    broadcasts.

    Returns one entry per frame, in order: its :class:`EstimateReport`, or
    the :class:`EstimationError` that stopped it alone -
    :class:`UnderdeterminedError` for every frame if there are fewer than 6
    broadcasts, :class:`DegenerateGeometryError` for an iterate on an agent
    or a Gauss-Newton system of rank below 6, and a plain
    :class:`EstimationError` for a least-squares solve that failed (where
    ``numpy.linalg.lstsq`` would raise ``LinAlgError``) or whose weighted
    system is not finite, which is never handed to LAPACK (a zero TOA
    variance, for one).  No ``RuntimeWarning`` escapes.
    """
    if max_iters < 1 or not step_tol > 0:
        raise ValueError("need max_iters >= 1 and step_tol > 0")
    stack = frames if isinstance(frames, FrameStack) else FrameStack.of(frames)
    N, M = stack.t.shape
    if M < 6:
        return [UnderdeterminedError(f"MLE needs M >= 6 broadcasts, got M = {M}") for _ in range(N)]
    t, tau, p_hat, T_hat = stack.t, stack.tau, stack.p_hat, stack.T_hat
    w = 1.0 / np.sqrt(stack.c_tau)
    x = np.array(inits, dtype=float).reshape(N, 6)

    out: list = [None] * N
    best_x = x.copy()
    u, r, resid = _residuals(x, t, tau, p_hat, T_hat)
    best_cost = ((w * resid) ** 2).sum(axis=-1)
    prev_step = np.full(N, np.inf)
    streak = np.zeros(N, dtype=int)
    iterations = np.zeros(N, dtype=int)
    converged = np.zeros(N, dtype=bool)
    diverged = np.zeros(N, dtype=bool)
    # the frames still iterating; u, r and resid hold their rows at x[live]
    live = np.arange(N)
    for _ in range(max_iters):
        on_agent = (r == 0).any(axis=-1)
        if on_agent.any():
            for i in live[on_agent]:
                out[i] = DegenerateGeometryError("iterate coincides with an agent position")
            live, u, r, resid = live[~on_agent], u[~on_agent], r[~on_agent], resid[~on_agent]
        tl = t[live]
        rho = u / r[..., None]
        H = np.empty(r.shape + (6,))
        H[..., 0:2] = rho
        H[..., 2:4] = tl[..., None] * rho
        H[..., 4] = 1.0
        H[..., 5] = tl
        wl = w[live]
        WH, Wr = wl[..., None] * H, wl * resid
        # dgelsd rejects a non-finite system as an illegal argument and says so
        # on stdout; such a system fails without the call.  A sum is finite
        # only if every term is.
        if not math.isfinite(WH.sum() + Wr.sum()):
            finite = np.isfinite(WH).all(axis=(-2, -1)) & np.isfinite(Wr).all(axis=-1)
            for i in live[~finite]:
                out[i] = EstimationError("Gauss-Newton least-squares solve failed (the weighted system is not finite)")
            live, WH, Wr = live[finite], WH[finite], Wr[finite]
        # Each step from the dgelsd, with the rcond, that np.linalg.lstsq runs
        # on the frame alone, and its norm by the BLAS dot that np.linalg.norm
        # uses: frames near the step_tol round-off floor decide convergence or
        # divergence on the last bits of the step, so another factorization or
        # a plain sum of squares would change outcomes.  One stacked call of
        # the same dgelsd does not.
        dx, rank = _lstsq_stack(WH, Wr)
        ok = rank == 6
        if not ok.all():
            for j in np.flatnonzero(~ok):
                out[live[j]] = (
                    EstimationError("Gauss-Newton least-squares solve failed (LAPACK dgelsd did not converge)")
                    if rank[j] < 0
                    else DegenerateGeometryError(f"Gauss-Newton system is rank deficient (rank {rank[j]} < 6)")
                )
        live, dx = live[ok], dx[ok]
        x[live] += dx
        iterations[live] += 1

        finite = np.isfinite(x[live]).all(axis=-1)
        diverged[live[~finite]] = True
        live, dx = live[finite], dx[finite]
        u, r, resid = _residuals(x[live], t[live], tau[live], p_hat[live], T_hat[live])
        cost = ((w[live] * resid) ** 2).sum(axis=-1)
        better = cost < best_cost[live]
        best_cost[live[better]] = cost[better]
        best_x[live[better]] = x[live[better]]
        step = np.sqrt(np.vecdot(dx, dx))
        grew = step > prev_step[live]
        streak[live] = np.where(grew, streak[live] + 1, 0)
        blew_up = streak[live] >= _DIVERGENCE_STREAK
        diverged[live[blew_up]] = True
        prev_step[live] = step
        done = ~blew_up & (step <= step_tol)
        converged[live[done]] = True
        stay = ~(blew_up | done)
        live, u, r, resid = live[stay], u[stay], r[stay], resid[stay]
        if live.size == 0:
            break

    for i in range(N):
        if out[i] is None:
            out[i] = EstimateReport(
                x_hat=TargetState.from_vector(best_x[i]),
                iterations=int(iterations[i]),
                converged=bool(converged[i]),
                cond_estimate=float("nan"),
                C_wls=None,
                estimator_id="mle",
                diverged=bool(diverged[i]),
            )
    return out


def mle_estimate(frame: ObservedFrame, cfg: MleConfig) -> EstimateReport:
    """Weighted Gauss-Newton MLE of one frame from ``cfg.init``:
    :func:`mle_batch` on a batch of one.

    Raises
    ------
    UnderdeterminedError
        If the frame has fewer than 6 broadcasts.
    DegenerateGeometryError
        If an iterate lands on an agent or the Gauss-Newton system loses rank.
    EstimationError
        If a Gauss-Newton least-squares solve fails.
    """
    result = mle_batch([frame], [cfg.init.as_vector()], cfg.max_iters, cfg.step_tol)[0]
    if isinstance(result, EstimationError):
        raise result
    return result


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


def _error_weighted(G: np.ndarray, h: np.ndarray, b: np.ndarray, c_tau: np.ndarray, blocks: np.ndarray):
    """``C_e^-1 G`` and ``C_e^-1 h`` of stacked systems with TOA variances
    ``c_tau (K, M)`` and agent blocks ``blocks (K, M, 3, 3)``.

    The static error covariance is ``C_e = B C_beta B^T + D C_tau D^T``, where
    agent m's row sensitivity ``b[:, m] = [b_pos, d_m]`` fills its block of
    ``B`` and ``d_m`` the diagonal of ``D``; ``C_e`` is diagonal.  Returns
    ``(WG, Wh, ok)``; ``ok`` is False where ``C_e`` is singular.
    """
    d = b[..., 2]
    var = np.einsum("kmi,kmij,kmj->km", b, blocks, b) + d * c_tau * d
    ok = (var != 0.0).all(axis=-1)
    var[~ok] = 1.0
    return G / var[..., None], h / var, ok


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
    WG, Wh, ok = _error_weighted(G[live], h[live], b, stack.c_tau[live], stack.blocks[live])
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
