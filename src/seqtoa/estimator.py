"""Two-step weighted least-squares estimator, run over stacks of frames.

Step I squares the pseudorange equations into a linear system in the
9-parameter vector ``theta = [p, v, T, omega, theta1, theta2, theta3]`` with

    theta1 = T^2 - ||p||^2,  theta2 = omega^2 - ||v||^2,  theta3 = T*omega - p.v

and solves it by whitened, column-equilibrated QR: every column of the
whitened design ``W A`` is scaled to unit norm, then the scaled matrix is
factored ``Q R`` by unpivoted Householder QR and ``theta`` follows by back
substitution.  A large target clock offset makes all pseudoranges nearly
equal, so the clock columns of ``A`` dwarf the others and ``W A`` is badly
conditioned (``cond(W A)`` beyond 1e9 at a 1 ms offset).  QR works on ``W A``
itself, so its error grows with that condition number and not with its
square, as an explicit normal-equations solve does.  The equilibration
removes the part of the conditioning that is mere column scale; without
column pivoting the solve still stays within 1e3 of a 60-digit reference
residual on 1 ms offset frames, so no pivoting is done.  ``cond_estimate``
of a solve is the ratio of the largest to the smallest ``|R_jj|`` of the
equilibrated whitened design, a cheap indicator of its conditioning.

Step II retracts the physical 6-state out of ``theta`` by Gauss-Newton on the
nonlinear consistency constraints, weighted by the Step-I square-root
information ``R`` (rescaled to the original columns).  Its steps and the MLE
baseline's come from one kernel, :func:`_gn_steps`, with ``numpy.linalg.lstsq``'s
rank rule; a system whose ``dgelsd`` fails (rank -1) or that is not finite
(rank -2, never handed to LAPACK) fails its frame alone.

Because the Step-I error statistics depend on the unknown state, the full
pipeline runs two passes: identity weights to get a crude state, then
properly weighted using error statistics evaluated at that state.

Batch API: :class:`FrameStack` holds N frames of M broadcasts as stacked
arrays and :func:`estimate_batch` runs the pipeline on all of them at once.
It returns :class:`Estimates`, columns with a row per frame; a failed
frame's row holds NaN and its :class:`EstimationError` goes in ``errors``,
the one per-frame object built.  Every frame keeps its own iteration count
and failure record, so one bad frame does not fail the others; the kernels
gather the frames still in play only after one has dropped out.  Each kernel
says once whether every frame passed its check (``None`` for all of them),
so a batch of one makes no call that only a larger stack needs, and a
frame's row is the same bytes in any stack.  LAPACK (two ``qr_r_raw``, two
``solve`` and one ``dgelsd`` per retraction step) is 13-18% of one M = 10
frame's :func:`estimate`; the rest is numpy's per-call overhead on 9x6 to
10x10 arrays.  With its parse and its report, such a frame takes about
240 us on the 2-core reference host.

The kernels call the LAPACK gufuncs (``qr_r_raw``, ``solve``, ``lstsq``,
``eigh_lo``) through :mod:`seqtoa._lapack`, under its one rule: a member
whose factorization fails comes back NaN (and rank -1) instead of raising
``LinAlgError`` for the whole stack.  That fails the frame's own rank,
conditioning or finiteness check, so a LAPACK failure becomes that frame's
:class:`RankDeficiencyError`, :class:`ConditioningError` or
:class:`DegenerateGeometryError` (rank 0), and no ``RuntimeWarning`` escapes.
There is one code path: :func:`estimate` is :func:`estimate_batch` on a
batch of one, whose stack views the frame's own read-only arrays instead of
copying them, and ``report(0)`` builds its :class:`EstimateReport` from row 0.
:func:`build_design`, :func:`build_error_model`, :func:`solve_wls_qr` and
:func:`gauss_newton_refine` are single-frame wrappers over the same kernels.
:func:`solve_wls_qr` accepts any ``C_e``; :func:`whitening_matrix` whitens a
non-diagonal one through the ``eigh_lo`` gufunc.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import (
    ConditioningError,
    DegenerateGeometryError,
    EstimationError,
    RankDeficiencyError,
    UnderdeterminedError,
)
from .model import ObservedFrame, TargetState

N_THETA = 9
MAX_REFINE_ITERATIONS = 5
_EPS = np.finfo(float).eps
_SINGULAR_CE = (
    "equation-error covariance C_e is numerically singular; "
    "check for near-zero d_m together with near-zero agent variances"
)


@dataclass(frozen=True, eq=False)
class DesignSystem:
    """Linearized system ``A @ theta ~ y`` built from one frame.

    Row m of ``A`` is
    ``[2*p_hat, 2*t_m*p_hat, -2*alpha_hat, -2*t_m*alpha_hat, 1, t_m^2, 2*t_m]``
    and ``y_m = ||p_hat||^2 - alpha_hat^2``, with the pseudorange
    ``alpha_hat_m = tau_tilde_m + T_hat_m``.
    """

    A: np.ndarray  # (M, 9)
    y: np.ndarray  # (M,)
    alpha_hat: np.ndarray  # (M,)


@dataclass(frozen=True, eq=False)
class ErrorModel:
    """First-order statistics of the Step-I equation error.

    ``e = B @ dbeta + D @ dtau`` with
    ``b_m = [2*(p + v*t_m - p_hat_m), d_m]`` occupying agent m's block of
    ``B`` and ``d_m = -2*(T + omega*t_m - alpha_hat_m)`` on the diagonal of
    ``D``; both are evaluated at a supplied reference state.  The covariance
    is ``C_e = B C_beta B^T + D C_tau D^T``.
    """

    B: np.ndarray  # (M, 3M)
    D: np.ndarray  # (M, M) diagonal
    C_e: np.ndarray  # (M, M)


@dataclass(frozen=True, eq=False)
class WlsSolution:
    """Step-I output.

    ``sqrt_info`` is the square-root information factor of the whitened
    design, ``R`` with its columns rescaled by the equilibration, satisfying
    ``sqrt_info.T @ sqrt_info = inv(C_wls)``; Step II weights with it directly
    instead of inverting ``C_wls``.
    """

    theta_hat: np.ndarray  # (9,)
    C_wls: np.ndarray  # (9, 9)
    sqrt_info: np.ndarray  # (9, 9)
    cond_estimate: float = float("nan")


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Final estimate with convergence and conditioning diagnostics."""

    x_hat: TargetState
    iterations: int
    converged: bool
    cond_estimate: float
    C_wls: np.ndarray | None = None
    estimator_id: str = "proposed"
    diverged: bool = False


@dataclass(frozen=True, eq=False)
class Estimates:
    """Per-frame results of a stack, as columns; row n belongs to frame n.

    ``errors`` maps each failed row, and only those, to the
    :class:`EstimationError` that stopped it.  A failed row holds NaN in
    ``x``, ``cond`` and ``C_wls``, 0 iterations and False flags.  ``cond``
    and ``C_wls`` are :func:`estimate_batch`'s pass-2 diagnostics and
    ``diverged`` is the MLE's flag; each is ``None`` for the other estimator.
    """

    x: np.ndarray  # (N, 6)
    iterations: np.ndarray  # (N,)
    converged: np.ndarray  # (N,)
    errors: dict[int, EstimationError]
    cond: np.ndarray | None = None  # (N,)
    C_wls: np.ndarray | None = None  # (N, 9, 9)
    diverged: np.ndarray | None = None  # (N,)

    @property
    def ok(self) -> np.ndarray:
        """``(N,)`` mask of the rows without an error."""
        ok = np.ones(len(self.x), dtype=bool)
        ok[list(self.errors)] = False
        return ok

    def report(self, n: int) -> EstimateReport:
        """Row n's :class:`EstimateReport`, or raise its error."""
        if n in self.errors:
            raise self.errors[n]
        mle = self.diverged is not None
        return EstimateReport(
            x_hat=TargetState.from_vector(self.x[n]),
            iterations=int(self.iterations[n]),
            converged=bool(self.converged[n]),
            cond_estimate=float("nan") if mle else float(self.cond[n]),
            C_wls=None if mle else self.C_wls[n],
            estimator_id="mle" if mle else "proposed",
            diverged=mle and bool(self.diverged[n]),
        )


def _scatter(N: int, rows: np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(N, ...)`` columns holding ``columns`` in the sorted, distinct
    ``rows`` and NaN (0 or False for counts and flags) in the others; the
    columns themselves when ``rows`` are all N."""
    if rows.size == N:
        return columns
    full = tuple(np.full((N, *c.shape[1:]), np.nan if c.dtype.kind == "f" else 0, c.dtype) for c in columns)
    for f, c in zip(full, columns):
        f[rows] = c
    return full


@dataclass(frozen=True, eq=False)
class FrameStack:
    """N observed frames of M broadcasts each, as stacked arrays.

    Row n of every array belongs to frame n: its four observed columns and
    its noise columns (see :class:`~seqtoa.model.NoiseSpec`).
    """

    t: np.ndarray  # (N, M) slot times
    tau: np.ndarray  # (N, M) measured TOAs
    p_hat: np.ndarray  # (N, M, 2) broadcast positions
    T_hat: np.ndarray  # (N, M) broadcast offsets
    c_tau: np.ndarray  # (N, M) TOA noise variances
    blocks: np.ndarray  # (N, M, 3, 3) per-agent broadcast-error covariances

    @classmethod
    def of(cls, frames: Sequence[ObservedFrame]) -> "FrameStack":
        """Stack frames that all carry the same number of broadcasts."""
        if not frames:
            raise ValueError("a frame stack needs at least one frame")
        M = frames[0].n_agents
        if any(f.n_agents != M for f in frames):
            raise ValueError("all frames of a stack need the same number of broadcasts")
        return cls(
            t=np.array([f.t for f in frames]),
            tau=np.array([f.tau for f in frames]),
            p_hat=np.array([f.p_hat for f in frames]),
            T_hat=np.array([f.T_hat for f in frames]),
            c_tau=np.array([f.noise.c_tau for f in frames]),
            blocks=np.array([f.noise.blocks for f in frames]),
        )

    @classmethod
    def one(cls, frame: ObservedFrame) -> "FrameStack":
        """A stack of one frame, as read-only views of the frame's own arrays."""
        noise = frame.noise
        return cls(
            t=frame.t[None],
            tau=frame.tau[None],
            p_hat=frame.p_hat[None],
            T_hat=frame.T_hat[None],
            c_tau=noise.c_tau[None],
            blocks=noise.blocks[None],
        )

    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def alpha(self) -> np.ndarray:
        """Pseudoranges ``tau + T_hat``, ``(N, M)``."""
        return self.tau + self.T_hat


# --- kernels over stacks ----------------------------------------------------
#
# Every kernel takes arrays with a leading frame axis and treats each frame
# independently; per-frame failures come back as masks, never as exceptions.
# A LAPACK gufunc that fails on one member fills that member's outputs with
# NaN (see seqtoa._lapack); the NaN fails the frame's own rank or finiteness
# check.


def _design(t: np.ndarray, p_hat: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked design matrices ``(N, M, 9)`` and right-hand sides ``(N, M)``.

    The ``2*t_m*p_hat`` and ``-2*t_m*alpha_hat`` columns scale the ``2*p_hat``
    and ``-2*alpha_hat`` ones by ``t_m``; doubling is exact, so each is the
    rounded product of its three factors either way.
    """
    A = np.empty(t.shape + (N_THETA,))
    p2, alpha2 = 2.0 * p_hat, -2.0 * alpha
    A[..., 0:2] = p2
    A[..., 2:4] = t[..., None] * p2
    A[..., 4] = alpha2
    A[..., 5] = t * alpha2
    A[..., 6] = 1.0
    A[..., 7] = t**2
    A[..., 8] = 2.0 * t
    y = (p_hat**2).sum(axis=-1) - alpha**2
    return A, y


# the design's [2*p_hat, -2*alpha_hat] columns, and the 6-state's [p, T] and [v, omega] entries
_H_COLS = np.array([0, 1, 4])
_PV = np.array([[0, 1, 4], [2, 3, 5]])
_PV_SCALE = np.array([2.0, 2.0, -2.0])


def _error_terms(t: np.ndarray, h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row sensitivities ``b (N, M, 3)`` at the states ``x (N, 6)``, from the
    slot times ``t (N, M)`` and the design's columns
    ``h = [2*p_hat, -2*alpha_hat]`` ``(N, M, 3)``.

    ``b_m = [2*(p + t_m*v - p_hat_m), d_m]`` is row m's sensitivity to agent
    m's broadcast error ``[dpx, dpy, dT]``, and its last entry
    ``d_m = -2*(T + omega*t_m - alpha_hat_m)`` the row's sensitivity to the
    TOA noise.  It is evaluated as ``2*[p, -T] + t_m*2*[v, -omega] - h_m``:
    doubling and negation are exact, so every entry is the same bits either
    way.
    """
    pv = x[:, _PV] * _PV_SCALE  # (N, 2, 3): 2*[p, -T] and 2*[v, -omega]
    return pv[:, None, 0] + t[..., None] * pv[:, None, 1] - h


def _row_variances(b: np.ndarray, c_tau: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Diagonal ``(N, M)`` of ``C_e`` from the row sensitivities ``b`` of
    :func:`_error_terms`; ``C_e`` is diagonal because ``C_tau`` is diagonal
    and ``C_beta`` block diagonal."""
    d = b[..., 2]
    return ((blocks @ b[..., None])[..., 0] * b).sum(axis=-1) + d * c_tau * d


_LOWER9 = np.tri(N_THETA, N_THETA, -1, dtype=bool)


def _qr_factor(WA: np.ndarray, Wy: np.ndarray):
    """Column-equilibrated QR of stacked systems ``WA @ theta ~ Wy``.

    The columns of ``WA`` are scaled to unit norm, ``WA = Q R S``.  ``Wy``
    rides along as an extra column of the factored matrix, so the last
    column of the triangular factor carries ``z = Q^T Wy`` and ``Q`` is never
    formed.  Returns ``(ok, ranks, R, z, scale, r_max, r_min)``: ``ok`` is
    ``None`` when every system has full rank, else the ``(N,)`` mask of those
    that do, and ``ranks`` holds the numerical ranks of the others, in order;
    ``R (9, 9)``, ``z (9, 1)``, the column norms ``scale (9,)`` and the
    largest and smallest ``|R_jj|`` hold the full-rank systems only, in order.
    """
    M, n = WA.shape[-2:]
    scale = np.sqrt((WA * WA).sum(axis=-2))
    if np.count_nonzero(scale) < scale.size:  # an all-zero column keeps its zeros
        scale[scale == 0.0] = 1.0
    aug = np.empty(WA.shape[:-1] + (n + 1,))
    np.divide(WA, scale[:, None, :], out=aug[..., :n])
    aug[..., n] = Wy
    # factors aug in place; R is the upper triangle of its 9x9 block
    _lapack.gufuncs.qr_r_raw(aug, signature="d->d")
    R = np.where(_LOWER9, 0.0, aug[:, :n, :n])
    r = np.abs(R.diagonal(axis1=-2, axis2=-1))
    r_max, r_min = r.max(axis=-1, initial=0.0), r.min(axis=-1, initial=np.inf)
    tol = max(M, n) * _EPS * r_max
    ok = r_min > tol
    if ok.all():
        return None, (), R, aug[:, :n, n:], scale, r_max, r_min
    ranks = np.count_nonzero(r[~ok] > tol[~ok, None], axis=-1)
    return ok, ranks, R[ok], aug[ok, :n, n:], scale[ok], r_max[ok], r_min[ok]


def _wls_solutions(R: np.ndarray, z: np.ndarray, scale: np.ndarray, r_max: np.ndarray, r_min: np.ndarray):
    """``(theta, C_wls, sqrt_info, cond)`` of full-rank factored systems."""
    rhs = np.empty(z.shape[:-1] + (N_THETA + 1,))
    rhs[..., :1] = z
    rhs[..., 1:] = _EYE9
    X = _lapack.gufuncs.solve(R, rhs, signature="dd->d")
    theta = X[..., 0] / scale
    R_inv = X[..., 1:]
    col_scale = scale[:, None, :]
    C_wls = (R_inv @ R_inv.swapaxes(-1, -2)) / (scale[:, :, None] * col_scale)
    return theta, C_wls, R * col_scale, r_max / r_min


def _underdetermined_error(M: int) -> UnderdeterminedError:
    return UnderdeterminedError(f"linear solve needs M >= 9 broadcasts for the 9 unknowns, got M = {M}")


def _rank_error(rank: int) -> RankDeficiencyError:
    return RankDeficiencyError(
        f"whitened design matrix is rank deficient (numerical rank {rank} < {N_THETA})",
        numerical_rank=int(rank),
    )


# theta1..theta3 are the quadratic forms x^T Q_k x; row 6k+j of _QUAD holds
# column j of Q_k, so x @ _QUAD stacks the rows x^T Q_k = (Q_k x)^T.
_QUAD = np.zeros((3, 6, 6))
_QUAD[0, [0, 1, 4], [0, 1, 4]] = [-1.0, -1.0, 1.0]
_QUAD[1, [2, 3, 5], [2, 3, 5]] = [-1.0, -1.0, 1.0]
_QUAD[2, [0, 1, 2, 3, 4, 5], [2, 3, 0, 1, 5, 4]] = [-0.5, -0.5, -0.5, -0.5, 0.5, 0.5]
_QUAD = _QUAD.transpose(1, 0, 2).reshape(6, 18)
_EYE6 = np.eye(6)
_EYE9 = np.eye(N_THETA)


def _theta_models(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`theta_model` over a stack of 6-states ``(N, 6)``, and the rows
    ``(Q_k x)^T`` ``(N, 3, 6)``, half the lower block of :func:`theta_jacobian`."""
    G = (x @ _QUAD).reshape(-1, 3, 6)
    return np.concatenate([x, (G * x[:, None, :]).sum(axis=-1)], axis=-1), G


_RANK_FAILED = -1  # dgelsd failed; np.linalg.lstsq would raise LinAlgError
_RANK_NOT_FINITE = -2  # the system is not finite and never reaches LAPACK


def _gn_steps(WJ: np.ndarray, Wr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton steps ``dx (K, n)`` minimizing ``||Wr - WJ @ dx||`` for the
    stacked systems ``WJ (K, m, n)``, ``Wr (K, m, 1)``, and their ranks ``(K,)``.

    One call of the ``dgelsd`` beneath ``numpy.linalg.lstsq``, with its
    ``rcond = eps * max(m, n)``, solves them all, so each step and rank is
    ``np.linalg.lstsq(WJ[k], Wr[k], rcond=None)``'s bit for bit: the rank
    counts the singular values above ``rcond`` times the largest.  A system
    fails alone with a NaN step: rank ``_RANK_FAILED`` where ``dgelsd``
    fails, ``_RANK_NOT_FINITE`` where the system is not finite.  LAPACK would
    reject a non-finite system as an illegal argument, on stdout, so a zero
    system goes in its place.  Callers silence a failed ``dgelsd``'s
    FP-invalid flag with ``_lapack.ERRSTATE``.
    """
    # one finiteness test for the common case: a sum is finite only if every term is
    finite = None
    if not math.isfinite(WJ.sum() + Wr.sum()):
        finite = np.isfinite(WJ).all(axis=(-2, -1)) & np.isfinite(Wr).all(axis=(-2, -1))
        WJ = np.where(finite[:, None, None], WJ, 0.0)
        Wr = np.where(finite[:, None, None], Wr, 0.0)
    dx, _, rank, _ = _lapack.gufuncs.lstsq(WJ, Wr, _EPS * max(WJ.shape[-2:]), signature="ddd->ddid")
    if finite is not None:
        dx[~finite], rank[~finite] = np.nan, _RANK_NOT_FINITE
    return dx[..., 0], rank


def _retract(theta: np.ndarray, K: np.ndarray, threshold: np.ndarray):
    """Stacked weighted Gauss-Newton retraction of ``theta (N, 9)`` onto the 6-state.

    Each step solves ``min ||K (theta - f(x) - J dx)||`` by :func:`_gn_steps`.
    A frame leaves the loop alone: with its rank once its system has rank
    below 6 (0 for a failed or non-finite system), converged once the squared
    norm of its position step is at most its ``threshold``, or after
    ``MAX_REFINE_ITERATIONS`` steps, so every frame runs exactly as many
    iterations as it would alone.  Returns ``(x, iterations, converged,
    rank)``; a frame with ``rank < 6`` has a meaningless ``x``.
    """
    N = theta.shape[0]
    x = theta[:, :6].copy()
    iterations, rank = np.empty(N, dtype=int), np.empty(N, dtype=int)  # on a batch of one, np.full costs twice this
    iterations.fill(MAX_REFINE_ITERATIONS)
    rank.fill(6)
    converged = np.zeros(N, dtype=bool)
    # The Jacobian's lower block is 2 G, so K J = K[:, :6] + K[:, 6:] @ (2 G);
    # doubling is exact, so doubling K[:, 6:] once instead gives the same bits.
    K6, K2 = K[..., :6], 2.0 * K[..., 6:]
    # the frames still iterating (a slice of all of them until one leaves, then
    # their indices), and their slices of the inputs
    idx, xr, th, thr = slice(None), x, theta, threshold
    for it in range(1, MAX_REFINE_ITERATIONS + 1):
        f, G = _theta_models(xr)
        dx, step_rank = _gn_steps(K6 + K2 @ G, K @ (th - f)[..., None])
        if step_rank.min(initial=6) < 6:
            full = step_rank == 6
            idx = np.arange(N)[idx]
            rank[idx[~full]] = np.maximum(step_rank[~full], 0)
            idx, xr, th, thr, dx = idx[full], xr[full], th[full], thr[full], dx[full]
            K, K6, K2 = K[full], K6[full], K2[full]
        xr = xr + dx
        done = (dx[:, :2] ** 2).sum(axis=-1) <= thr
        n_done = np.count_nonzero(done)
        if n_done == done.size:  # also when no frame is left
            x[idx], iterations[idx], converged[idx] = xr, it, True
            return x, iterations, converged, rank
        if n_done:
            idx = np.arange(N)[idx]
            x[idx[done]], iterations[idx[done]], converged[idx[done]] = xr[done], it, True
            keep = ~done
            idx, xr, th, thr = idx[keep], xr[keep], th[keep], thr[keep]
            K, K6, K2 = K[keep], K6[keep], K2[keep]
    x[idx] = xr
    return x, iterations, converged, rank


def _retraction_error(rank: int) -> DegenerateGeometryError:
    return DegenerateGeometryError(f"weighted retraction Jacobian is rank deficient (rank {rank} < 6)")


def _pass2_whitened(stack: FrameStack, live: np.ndarray, A: np.ndarray, y: np.ndarray, x: np.ndarray):
    """Whiten the designs ``A``, ``y`` of frames ``live`` with ``C_e`` evaluated at the states ``x``.

    ``C_e`` is diagonal, so whitening scales rows.  Returns ``(WA, Wy, ok)``:
    ``ok`` is ``None`` when every frame's ``C_e`` is positive definite, else
    the mask of those whose is, and ``WA``, ``Wy`` hold those frames only.
    """
    t, c_tau, blocks = stack.t, stack.c_tau, stack.blocks
    if live.size < len(stack):
        t, c_tau, blocks = t[live], c_tau[live], blocks[live]
    var = _row_variances(_error_terms(t, A[..., _H_COLS], x), c_tau, blocks)
    ok = None
    if not var.min(initial=np.inf) > 0.0:  # also when a variance is NaN
        ok = (var > 0.0).all(axis=-1)
        A, y, var = A[ok], y[ok], var[ok]
    w = 1.0 / np.sqrt(var)
    return A * w[..., None], y * w, ok


@_lapack.ERRSTATE
def estimate_batch(stack: FrameStack) -> Estimates:
    """Full two-pass pipeline for every frame of a stack.

    Pass 1 solves with identity weights to get a crude state; pass 2
    evaluates the error statistics there, re-solves, and runs the
    Gauss-Newton retraction.  Returns the frames' :class:`Estimates`, with
    the pass-2 conditioning diagnostics ``cond`` and ``C_wls``; a frame that
    fails has the :class:`EstimationError` that stopped it in ``errors``.  A
    LAPACK factorization that fails on one frame becomes that frame's error;
    no ``LinAlgError`` or ``RuntimeWarning`` escapes.
    """
    N, M = stack.t.shape
    if M < N_THETA:
        errors = {n: _underdetermined_error(M) for n in range(N)}
        return Estimates(np.full((N, 6), np.nan), np.zeros(N, int), np.zeros(N, bool), errors,
                         np.full(N, np.nan), np.full((N, N_THETA, N_THETA), np.nan))
    errors: dict[int, EstimationError] = {}
    live = np.arange(N)  # the frames still in play; arrays are gathered only once one drops out
    A, y = _design(stack.t, stack.p_hat, stack.alpha)

    # pass 1: identity weights
    ok, ranks, R, z, scale, _, _ = _qr_factor(A, y)
    if ok is not None:
        errors.update(zip(live[~ok].tolist(), map(_rank_error, ranks)))
        live, A, y = live[ok], A[ok], y[ok]
    x1 = _lapack.gufuncs.solve(R, z, signature="dd->d")[..., :6, 0] / scale[:, :6]

    # pass 2: weights from the error statistics at the pass-1 state
    WA, Wy, ok = _pass2_whitened(stack, live, A, y, x1)
    if ok is not None:
        errors.update((i, ConditioningError(_SINGULAR_CE)) for i in live[~ok].tolist())
        live = live[ok]

    ok, ranks, R, z, scale, r_max, r_min = _qr_factor(WA, Wy)
    if ok is not None:
        errors.update(zip(live[~ok].tolist(), map(_rank_error, ranks)))
        live = live[ok]
    theta, C_wls, K, cond = _wls_solutions(R, z, scale, r_max, r_min)

    blocks = stack.blocks if live.size == N else stack.blocks[live]
    traces = blocks[:, :, 0, 0] + blocks[:, :, 1, 1]
    x, iterations, converged, gn_rank = _retract(theta, K, traces.sum(axis=-1) / M)
    if min(gn_rank.tolist(), default=6) < 6:  # on a batch of one, a numpy reduction costs 5x a Python min
        ok = gn_rank == 6
        errors.update(zip(live[~ok].tolist(), map(_retraction_error, gn_rank[~ok].tolist())))
        live, x, iterations, converged, cond, C_wls = live[ok], x[ok], iterations[ok], converged[ok], cond[ok], C_wls[ok]
    x, iterations, converged, cond, C_wls = _scatter(N, live, x, iterations, converged, cond, C_wls)
    return Estimates(x, iterations, converged, errors, cond, C_wls)


def estimate(frame: ObservedFrame) -> EstimateReport:
    """Full two-pass pipeline for one frame: :func:`estimate_batch` on a batch of one.

    Raises
    ------
    EstimationError
        The frame's failure record: :class:`UnderdeterminedError` for fewer
        than 9 broadcasts, :class:`RankDeficiencyError` from either QR solve,
        :class:`ConditioningError` for a singular ``C_e``, or
        :class:`DegenerateGeometryError` from the retraction.
    """
    return estimate_batch(FrameStack.one(frame)).report(0)


# --- single-frame stages ----------------------------------------------------


def _design_arrays(frame: ObservedFrame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    alpha = frame.tau + frame.T_hat
    A, y = _design(frame.t[None], frame.p_hat[None], alpha[None])
    return A[0], y[0], alpha


def build_design(frame: ObservedFrame) -> DesignSystem:
    """Assemble the squared-pseudorange linear system from a frame.

    Raises
    ------
    UnderdeterminedError
        If the frame has fewer than 9 broadcasts (9 unknowns in ``theta``).
    """
    if frame.n_agents < N_THETA:
        raise _underdetermined_error(frame.n_agents)
    A, y, alpha = _design_arrays(frame)
    return DesignSystem(A=A, y=y, alpha_hat=alpha)


def build_error_model(frame: ObservedFrame, x_ref: TargetState) -> ErrorModel:
    """Evaluate the equation-error statistics at a reference state.

    Second-order error terms are dropped; ``C_e`` is exact to first order in
    the TOA noise and broadcast errors, and diagonal.

    Raises
    ------
    ConditioningError
        If ``C_e`` is numerically singular (happens when some ``d_m`` and the
        corresponding agent variances are simultaneously ~0).
    """
    stack = FrameStack.one(frame)
    M = frame.n_agents
    h = np.concatenate([2.0 * stack.p_hat, -2.0 * stack.alpha[..., None]], axis=-1)  # the design's columns _H_COLS
    b = _error_terms(stack.t, h, x_ref.as_vector()[None])
    var = _row_variances(b, stack.c_tau, stack.blocks)[0]
    if not (var > 0.0).all():
        raise ConditioningError(_SINGULAR_CE)
    B = np.zeros((M, M, 3))
    rows = np.arange(M)
    B[rows, rows, :] = b[0]
    return ErrorModel(B=B.reshape(M, 3 * M), D=np.diag(b[0, :, 2]), C_e=np.diag(var))


@_lapack.ERRSTATE
def whitening_matrix(C_e: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root ``W`` with ``W.T @ W = inv(C_e)``.

    Diagonal input takes the cheap elementwise path; otherwise the symmetric
    eigenfactorization is used.  Any valid square root would give the same
    weighted solution; this choice is fixed for reproducibility.
    """
    C_e = np.asarray(C_e, dtype=float)
    diag = np.diag(C_e)
    if np.count_nonzero(C_e - np.diag(diag)) == 0:
        if np.any(diag <= 0):
            raise ConditioningError("C_e diagonal must be strictly positive for whitening")
        return np.diag(1.0 / np.sqrt(diag))
    # a failed factorization comes back NaN, which fails the test too
    w, V = _lapack.gufuncs.eigh_lo(C_e, signature="d->dd")
    if not (w[0] > 0 and w[0] > 1e-15 * w[-1]):
        raise ConditioningError("C_e is not positive definite")
    return (V * (1.0 / np.sqrt(w))) @ V.T


@_lapack.ERRSTATE
def solve_wls_qr(design: DesignSystem, C_e: np.ndarray) -> WlsSolution:
    """Weighted least-squares solve of the Step-I system by column-equilibrated QR.

    The system is whitened with ``W = C_e^(-1/2)``, the columns of ``W A``
    are scaled to unit norm (``W A = Q R S``), and ``R S theta = Q^T W y`` is
    solved by back substitution.  The solution covariance is
    ``C_wls = S^-1 (R^T R)^-1 S^-1``, formed from the triangular factor
    without ever building normal equations, which is what keeps
    large-clock-offset frames solvable.

    Raises
    ------
    RankDeficiencyError
        If the whitened design has numerical rank < 9; the detected rank is
        attached to the exception.
    """
    M, n = design.A.shape
    if M < n:
        raise UnderdeterminedError(f"need at least {n} rows, got {M}")
    W = whitening_matrix(C_e)
    ok, ranks, *factors = _qr_factor((W @ design.A)[None], (W @ design.y)[None])
    if ok is not None:
        raise _rank_error(ranks[0])
    theta, C_wls, sqrt_info, cond = _wls_solutions(*factors)
    return WlsSolution(theta_hat=theta[0], C_wls=C_wls[0], sqrt_info=sqrt_info[0], cond_estimate=float(cond[0]))


def _state_vector(x) -> np.ndarray:
    if isinstance(x, TargetState):
        return x.as_vector()
    arr = np.asarray(x, dtype=float).reshape(-1)
    if arr.size != 6:
        raise ValueError(f"state must have 6 entries, got {arr.size}")
    return arr


def theta_model(x) -> np.ndarray:
    """Map a 6-state to its consistent 9-vector ``f(x)``.

    Accepts a :class:`TargetState` or a length-6 array.
    """
    return _theta_models(_state_vector(x)[None])[0][0]


def theta_jacobian(x) -> np.ndarray:
    """9x6 Jacobian of :func:`theta_model`: identity on top of the
    derivatives of the three quadratic constraints."""
    G = _theta_models(_state_vector(x)[None])[1][0]
    return np.vstack([_EYE6, 2.0 * G])


@_lapack.ERRSTATE
def gauss_newton_refine(wls: WlsSolution, agent_pos_cov_traces) -> EstimateReport:
    """Step II: retract the 6-state from ``theta_hat`` by weighted Gauss-Newton.

    Starts from the truncated ``theta_hat`` (its first six entries) and
    iterates increments that minimize the ``C_wls``-weighted mismatch between
    ``theta_hat`` and ``f(x)``.  Iteration stops when the squared norm of the
    position part of the increment drops below the mean agent position
    covariance trace, or after ``MAX_REFINE_ITERATIONS`` (5); the
    ``converged`` flag records which exit fired.

    Raises
    ------
    DegenerateGeometryError
        If the weighted Jacobian loses column rank.
    """
    traces = np.asarray(agent_pos_cov_traces, dtype=float).reshape(-1)
    if traces.size == 0:
        raise ValueError("agent_pos_cov_traces must be non-empty")
    threshold = np.array([np.sum(traces) / traces.size])

    x, iterations, converged, rank = _retract(wls.theta_hat[None], wls.sqrt_info[None], threshold)
    if rank[0] < 6:
        raise _retraction_error(rank[0])
    return Estimates(x, iterations, converged, {}, np.array([wls.cond_estimate]), wls.C_wls[None]).report(0)


# --- degraded static mode -------------------------------------------------

_STATIC_COLS = np.array([0, 1, 4, 6])  # [2*p_hat, -2*alpha_hat, 1] columns
_STATIC_THETA_ROWS = np.array([0, 1, 4, 6])  # [p, T, theta1] entries of theta


def _embed_static(q: np.ndarray) -> TargetState:
    return TargetState(p=q[0:2], v=np.zeros(2), T=q[2], omega=0.0)


@_lapack.ERRSTATE
def estimate_degraded(frame: ObservedFrame) -> tuple[np.ndarray, float, np.ndarray]:
    """Static degradation of the pipeline: position and offset only.

    Velocity and skew are forced to zero, the design matrix collapses to the
    columns ``[2*p_hat, -2*alpha_hat, 1]`` with unknowns ``[p, T, theta1]``,
    both passes solve explicit normal equations (no QR), and exactly
    one retraction iteration runs.  With all slot times equal this is the
    classic static two-step solver; it is kept as a cross-check against the
    standalone baseline implementation.

    Returns ``(position, offset, covariance_3x3)``.

    Raises
    ------
    ConditioningError
        If a normal matrix is singular or numerically unusable (the expected
        failure mode under large target clock offsets).
    """
    A, y, _ = _design_arrays(frame)
    if frame.n_agents < 4:
        raise UnderdeterminedError(
            f"static solve needs at least 4 broadcasts, got M = {frame.n_agents}"
        )
    G = A[:, _STATIC_COLS]

    def _normal_solve(weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        N = G.T @ weight @ G
        if not np.all(np.isfinite(N)) or np.linalg.cond(N) > 1e12:
            raise ConditioningError("static normal matrix is singular or ill-conditioned")
        q = np.linalg.solve(N, G.T @ weight @ y)
        return q, np.linalg.inv(N)

    M = frame.n_agents
    theta_s, _ = _normal_solve(np.eye(M))

    ref = _embed_static(theta_s[:3])
    error_model = build_error_model(frame, ref)
    C_inv = np.linalg.inv(error_model.C_e)
    theta_s, C4 = _normal_solve(C_inv)

    # one retraction iteration on [p, T, theta1]
    q = theta_s[:3].copy()
    state = _embed_static(q)
    f_s = theta_model(state)[_STATIC_THETA_ROWS]
    J_s = theta_jacobian(state)[np.ix_(_STATIC_THETA_ROWS, np.array([0, 1, 4]))]
    C4_inv = np.linalg.inv(C4)
    N_s = J_s.T @ C4_inv @ J_s
    if np.linalg.cond(N_s) > 1e12:
        raise ConditioningError("static retraction normal matrix is ill-conditioned")
    q = q + np.linalg.solve(N_s, J_s.T @ C4_inv @ (theta_s - f_s))
    cov = np.linalg.inv(N_s)
    return q[0:2], float(q[2]), cov
