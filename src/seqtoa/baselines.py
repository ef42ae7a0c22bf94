"""Reference estimators used for comparison.

Both keep :func:`~seqtoa.estimator.estimate_batch`'s contract: a batch over
a :class:`~seqtoa.estimator.FrameStack` returns columns with one row per
frame, NaN in the rows of failed frames, and the
:class:`~seqtoa.errors.EstimationError` of each failed frame only, keyed
by its row.  The single-frame entry runs it on ``FrameStack.one``, builds
its result from row 0 and raises row 0's error.

* :func:`mle_batch` - Gauss-Newton maximum likelihood that trusts the
  broadcast agent information (ignores its uncertainty), with per-frame
  iteration counts and flags, as :class:`~seqtoa.estimator.Estimates` with
  a ``diverged`` column.  Each iteration solves the steps of all its
  frames in one call of the estimator's step kernel, ``_gn_steps``, bit for
  bit the per-frame ``numpy.linalg.lstsq`` steps; :func:`mle_estimate` is a
  batch of one.
* :func:`tswls_static_batch` - the classic static two-step solver
  (position and offset only, explicit normal equations, one refinement
  iteration), as ``[px, py, T]`` and covariance columns;
  :func:`tswls_static_estimate` is a batch of one.  It is
  implemented standalone, error statistics included, so the pipeline's
  degraded mode can be cross-checked against it.  Its error covariance is
  diagonal, as the noise is independent across agents, so weighting divides
  each row by its variance.

Both call their LAPACK gufuncs (``lstsq`` through ``_gn_steps``; ``svd``,
``solve`` and ``inv`` for the static solver) through :mod:`seqtoa._lapack`,
under its one rule: each member gets the ``np.linalg`` wrapper's bytes, and a
member that fails comes back NaN and fails its own frame's check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import ConditioningError, DegenerateGeometryError, EstimationError, UnderdeterminedError
from .estimator import _RANK_FAILED, _RANK_NOT_FINITE, EstimateReport, Estimates, FrameStack
from .estimator import _gn_steps, _scatter
from .model import ObservedFrame, TargetState, _toa_jacobian

_DIVERGENCE_STREAK = 3
_STEP_TOL = 1e-9  # a step norm at or below it ends the MLE's iterations as converged
_SOLVE_FAILED = {
    _RANK_FAILED: "Gauss-Newton least-squares solve failed (LAPACK dgelsd did not converge)",
    _RANK_NOT_FINITE: "Gauss-Newton least-squares solve failed (the weighted system is not finite)",
}


def _residuals(x: np.ndarray, t: np.ndarray, tau: np.ndarray, p_hat: np.ndarray, T_hat: np.ndarray, w: np.ndarray):
    """Agent-to-target vectors ``u (N, M, 2)``, ranges ``r (N, M)`` and TOA
    residuals ``tau - (r + T + omega t - T_hat)`` weighted by ``w (N, M)`` at
    the states ``x (N, 6)``."""
    u = x[:, None, 0:2] + t[..., None] * x[:, None, 2:4] - p_hat
    # (u * u).sum(axis=-1) adds the two squares so; summed here without a reduction over a length-2 axis
    r = np.sqrt(u[..., 0] ** 2 + u[..., 1] ** 2)
    return u, r, w * (tau - (r + x[:, 4:5] + x[:, 5:6] * t - T_hat))


@_lapack.ERRSTATE
def mle_batch(stack: FrameStack, inits, max_iters: int = 50) -> Estimates:
    """Weighted Gauss-Newton on the raw TOA residuals of every frame of a stack.

    Frame n starts from the 6-state ``inits[n]``.  Broadcast positions and
    offsets are treated as exact; residuals are weighted by the inverse TOA
    variances only.  Each frame runs its own iterations: it leaves the loop
    once its step norm is at most ``_STEP_TOL`` (converged), after three
    consecutive step-norm increases or at a non-finite iterate (diverged),
    or after ``max_iters`` steps, and its row of ``x`` is the best iterate
    it has seen.  Divergence is reported through the ``diverged`` column,
    never raised.
    Each iteration solves the steps of all frames still iterating in one
    call of ``estimator._gn_steps``, which runs the ``dgelsd`` of
    ``numpy.linalg.lstsq`` with its ``rcond`` and rank rule, so each frame's
    step, and so its result, is bit for bit the one it gets alone.  All
    frames must have the same number of broadcasts.

    The frames still iterating keep their inputs and state as compacted
    rows, gathered only on an iteration where one of them leaves, and a
    frame's row of every output is written once, when it leaves.  Each
    iteration forms the weighted residual ``w * resid`` once, for its cost
    and for the next step, and makes one exit test: a failed solve (an
    iterate on an agent, whose range is 0, makes its system non-finite), a
    non-finite iterate (one sum), a divergence streak or a converged step.
    So an iteration costs the kernel plus about 55 numpy calls, whatever the
    stack.  On the 2-core reference host (demo 06), a batch of one takes
    about 330 us for 5 iterations, and a stack of 75 random-topology frames
    about 185 us per frame for its mean 14.6 iterations: 13 us per frame
    and iteration, of which ``dgelsd`` is about 9.

    Returns the frames' :class:`~seqtoa.estimator.Estimates`, with
    ``diverged``; ``errors`` holds the :class:`EstimationError` that stopped
    a frame alone, in the order the frames failed -
    :class:`UnderdeterminedError` for every frame if there are fewer than 6
    broadcasts, :class:`DegenerateGeometryError` for an iterate on an agent
    or a Gauss-Newton system of rank below 6, and a plain
    :class:`EstimationError` for the kernel's failure ranks: a ``dgelsd``
    that failed (where ``numpy.linalg.lstsq`` would raise ``LinAlgError``)
    or a weighted system that is not finite, which is never handed to LAPACK
    (a zero TOA variance, for one).  No ``RuntimeWarning`` escapes.
    """
    if max_iters < 1:
        raise ValueError("need max_iters >= 1")
    N, M = stack.t.shape
    x_out = np.full((N, 6), np.nan)
    iterations = np.zeros(N, dtype=int)
    converged = np.zeros(N, dtype=bool)
    diverged = np.zeros(N, dtype=bool)
    if M < 6 or N == 0:  # every frame is underdetermined, or there is none
        errors = {n: UnderdeterminedError(f"MLE needs M >= 6 broadcasts, got M = {M}") for n in range(N)}
        return Estimates(x_out, iterations, converged, errors, diverged=diverged)
    errors: dict[int, EstimationError] = {}

    # the frames still iterating: their rows of the outputs, their inputs and their state
    rows, t, tau, p_hat, T_hat = np.arange(N), stack.t, stack.tau, stack.p_hat, stack.T_hat
    w = 1.0 / np.sqrt(stack.c_tau)
    x = np.array(inits, dtype=float).reshape(N, 6)
    u, r, wr = _residuals(x, t, tau, p_hat, T_hat, w)
    best_x, best_cost = x.copy(), (wr**2).sum(axis=-1)
    prev_step, streak = np.full(N, np.inf), np.zeros(N, dtype=int)
    w3 = w[..., None]
    for it in range(1, max_iters + 1):
        # Each step is the one np.linalg.lstsq gives the frame alone, and its
        # norm comes from the BLAS dot that np.linalg.norm uses: frames near
        # the _STEP_TOL round-off floor decide convergence or divergence on the
        # last bits of the step, so another factorization or a plain sum of
        # squares would change outcomes.
        dx, rank = _gn_steps(w3 * _toa_jacobian(u / r[..., None], t), wr[..., None])
        x += dx
        r_at = r  # the ranges the step started from: a 0 among them is an iterate on an agent
        u, r, wr = _residuals(x, t, tau, p_hat, T_hat, w)
        cost = (wr**2).sum(axis=-1)
        better = cost < best_cost  # never at a non-finite iterate, whose cost is inf or NaN
        best_cost = np.where(better, cost, best_cost)
        best_x = np.where(better[:, None], x, best_x)
        step = np.sqrt(np.vecdot(dx, dx))
        streak = np.where(step > prev_step, streak + 1, 0)
        prev_step = step
        if rank.min() == 6 and math.isfinite(x.sum()) and step.min() > _STEP_TOL and streak.max() < _DIVERGENCE_STREAK:
            continue
        # some frame leaves: a failed one with its error, in the order of the
        # per-frame algorithm (an iterate on an agent, whose r is 0 and whose
        # system is so not finite, before a failed solve), the others with
        # their best iterate, iteration count and flags
        failed = rank < 6
        if failed.any():
            on_agent = failed & (r_at == 0).any(axis=-1)
            for i in rows[on_agent].tolist():
                errors[i] = DegenerateGeometryError("iterate coincides with an agent position")
            solve = failed & ~on_agent
            for i, rk in zip(rows[solve].tolist(), rank[solve].tolist()):
                errors[i] = (
                    EstimationError(_SOLVE_FAILED[rk])
                    if rk < 0
                    else DegenerateGeometryError(f"Gauss-Newton system is rank deficient (rank {rk} < 6)")
                )
        blew_up = ~failed & ((streak >= _DIVERGENCE_STREAK) | ~np.isfinite(x).all(axis=-1))
        done = ~failed & ~blew_up & (step <= _STEP_TOL)
        left = blew_up | done
        x_out[rows[left]], iterations[rows[left]] = best_x[left], it
        diverged[rows[blew_up]], converged[rows[done]] = True, True
        stay = np.flatnonzero(~(failed | left))
        if not stay.size:
            break
        # take() gathers rows in about half the time of indexing with a mask or an index array
        rows, t, tau, p_hat, T_hat, w, x, u, r, wr, best_x, best_cost, prev_step, streak = (
            a.take(stay, axis=0) for a in (rows, t, tau, p_hat, T_hat, w, x, u, r, wr, best_x, best_cost, prev_step, streak)
        )
        w3 = w[..., None]
    else:  # the frames still iterating stop at the cap
        x_out[rows], iterations[rows] = best_x, max_iters
    return Estimates(x_out, iterations, converged, errors, diverged=diverged)


def mle_estimate(frame: ObservedFrame, init: TargetState, max_iters: int = 50) -> EstimateReport:
    """Weighted Gauss-Newton MLE of one frame from ``init``:
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
    return mle_batch(FrameStack.one(frame), [init.as_vector()], max_iters).report(0)


@dataclass(frozen=True, eq=False)
class StaticTswlsResult:
    """Output of the static two-step solver."""

    position: np.ndarray  # (2,), read-only
    offset: float
    covariance: np.ndarray  # 3x3 covariance of [px, py, T]


def _normal_solve(N: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the stacked normal equations ``N (K, n, n) @ x = rhs (K, n)``.

    Only systems whose matrix is finite with ``cond <= 1e12`` are solved;
    ``cond`` is ``np.linalg.cond``'s ratio of the extreme singular values, NaN
    (so failing) where the SVD fails.  Returns ``(ok, x)``; ``x`` holds the
    ``ok`` systems only, NaN where the solve fails.
    """
    ok = np.isfinite(N).all(axis=(-2, -1))
    s = _lapack.gufuncs.svd(N[ok], signature="d->d")  # descending singular values
    ok[ok] = s[:, 0] / s[:, -1] <= 1e12
    return ok, _lapack.gufuncs.solve(N[ok], rhs[ok, :, None], signature="dd->d")[..., 0]


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


@_lapack.ERRSTATE
def tswls_static_batch(stack: FrameStack) -> tuple[np.ndarray, np.ndarray, dict[int, EstimationError]]:
    """Static two-step solver on every frame of a stack: unknowns ``[p, T, theta1]``.

    Row m of the linear stage is ``[2*p_hat_m, -2*alpha_hat_m, 1]`` against
    ``||p_hat_m||^2 - alpha_hat_m^2``; the second pass weights with the
    static error statistics and exactly one refinement iteration retracts
    ``[p, T]``.  Solves use explicit normal equations on purpose - under a
    large target clock offset those become numerically unusable.

    Returns the columns ``(z, covariance, errors)``: per frame its
    ``[px, py, T]`` ``z (N, 3)`` and their covariance ``(N, 3, 3)``, NaN in
    the rows of failed frames, and ``errors``, which maps each failed frame
    to the :class:`EstimationError` that stopped it alone -
    :class:`UnderdeterminedError` for every frame if there are fewer than 4
    broadcasts, and :class:`ConditioningError` for an ill-conditioned normal
    matrix of either pass or of the refinement, a singular static error
    covariance, or a non-finite solution (where a LAPACK call failed on the
    frame, for one).  One bad frame does not fail the others, and no
    ``LinAlgError`` or ``RuntimeWarning`` escapes.
    """
    N, M = stack.t.shape
    if M < 4:
        errors = {n: UnderdeterminedError(f"static solver needs M >= 4 broadcasts, got M = {M}") for n in range(N)}
        return np.full((N, 3), np.nan), np.full((N, 3, 3), np.nan), errors
    errors: dict[int, EstimationError] = {}

    def fail(frames: np.ndarray, message: str):
        errors.update((i, ConditioningError(message)) for i in frames.tolist())

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
    live, C4 = live[ok], _lapack.gufuncs.inv(N4[ok], signature="d->d")

    # one refinement iteration on [p, T] through theta1 = T^2 - ||p||^2
    z = theta_s[:, :3]
    f_s = np.concatenate([z, (z[:, 2] ** 2 - (z[:, 0:2] ** 2).sum(axis=-1))[:, None]], axis=-1)
    J_s = np.zeros((len(live), 4, 3))
    J_s[:, [0, 1, 2], [0, 1, 2]] = 1.0
    J_s[:, 3] = 2.0 * z * [-1.0, -1.0, 1.0]
    JtW = J_s.swapaxes(-1, -2) @ _lapack.gufuncs.inv(C4, signature="d->d")
    N_s = JtW @ J_s
    ok, step = _normal_solve(N_s, (JtW @ (theta_s - f_s)[..., None])[..., 0])
    fail(live[~ok], "refinement normal matrix ill-conditioned")
    live, z, cov = live[ok], z[ok] + step, _lapack.gufuncs.inv(N_s[ok], signature="d->d")

    finite = np.isfinite(z).all(axis=-1) & np.isfinite(cov).all(axis=(-2, -1))
    fail(live[~finite], "non-finite solution")
    return (*_scatter(N, live[finite], z[finite], cov[finite]), errors)


def tswls_static_estimate(frame: ObservedFrame) -> StaticTswlsResult:
    """Static two-step solver on one frame: :func:`tswls_static_batch` on a batch of one.

    Raises
    ------
    EstimationError
        The frame's failure (see :func:`tswls_static_batch`).
    """
    z, covariance, errors = tswls_static_batch(FrameStack.one(frame))
    if errors:
        raise errors[0]
    position = z[0, 0:2]
    position.setflags(write=False)
    return StaticTswlsResult(position=position, offset=float(z[0, 2]), covariance=covariance[0])
