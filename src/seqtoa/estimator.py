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
information ``R`` (rescaled to the original columns).

Because the Step-I error statistics depend on the unknown state, the full
pipeline runs two passes: identity weights to get a crude state, then
properly weighted using error statistics evaluated at that state.

Batch API: :class:`FrameStack` holds N frames of M broadcasts as stacked
arrays and :func:`estimate_batch` runs the pipeline on all of them at once.
Every frame keeps its own iteration count and its own failure record, so one
bad frame does not fail the others; the kernels gather the frames still in
play only after one has dropped out.  The kernels call numpy's LAPACK gufuncs
(``qr_r_raw``, ``solve``, ``svd_s``) directly, without the ``np.linalg``
wrappers: each member gets the wrapper's result bit for bit, and a member
whose factorization fails comes back NaN instead of raising ``LinAlgError``
for the whole stack.  That NaN fails the frame's own rank,
conditioning or finiteness check, so a LAPACK failure becomes that frame's
:class:`RankDeficiencyError`, :class:`ConditioningError` or
:class:`DegenerateGeometryError` (rank 0), and no ``RuntimeWarning`` escapes.
There is one code path: :func:`estimate` is :func:`estimate_batch` on a
batch of one, whose stack views the frame's own read-only arrays instead of
copying them.
:func:`build_design`, :func:`build_error_model`, :func:`solve_wls_qr` and
:func:`gauss_newton_refine` are single-frame wrappers over the same kernels.
:func:`solve_wls_qr` accepts any ``C_e``; :func:`whitening_matrix` whitens a
non-diagonal one through the ``eigh_lo`` gufunc.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# The stacked kernels here and the MLE in baselines call the LAPACK gufuncs
# beneath np.linalg.qr, solve, svd, eigh and lstsq directly.  Each wrapper only
# checks types, copies, sets an errstate that turns one failed member into
# LinAlgError for the whole stack, and calls the same gufunc; on a batch of one
# that overhead is a third of the call.  Called directly, every member gets
# the wrapper's result bit for bit.  It is private numpy API: TestLapackKernels
# in tests/test_estimator.py and TestLstsqStack in tests/test_baselines.py pin
# it to the wrappers.
from numpy.linalg import _umath_linalg

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
_SVD_RANK_TOL = 9 * _EPS  # numpy.linalg.lstsq's rcond for the retraction's 9x6 systems
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

    @functools.cached_property
    def alpha(self) -> np.ndarray:
        """Pseudoranges ``tau + T_hat``, ``(N, M)``."""
        return self.tau + self.T_hat


# --- kernels over stacks ----------------------------------------------------
#
# Every kernel takes arrays with a leading frame axis and treats each frame
# independently; per-frame failures come back as masks, never as exceptions.
# A LAPACK gufunc that fails on one member fills that member's outputs with
# NaN and raises the FP-invalid flag.  The NaN fails the frame's own rank or
# finiteness check; the flag is silenced by one errstate per public call
# (about 1 us), not per kernel call.

_LAPACK_ERRSTATE = np.errstate(all="ignore")


def _design(t: np.ndarray, p_hat: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked design matrices ``(N, M, 9)`` and right-hand sides ``(N, M)``."""
    A = np.empty(t.shape + (N_THETA,))
    A[..., 0:2] = 2.0 * p_hat
    A[..., 2:4] = 2.0 * t[..., None] * p_hat
    A[..., 4] = -2.0 * alpha
    A[..., 5] = -2.0 * t * alpha
    A[..., 6] = 1.0
    A[..., 7] = t**2
    A[..., 8] = 2.0 * t
    y = (p_hat**2).sum(axis=-1) - alpha**2
    return A, y


def _error_terms(t: np.ndarray, p_hat: np.ndarray, alpha: np.ndarray, x: np.ndarray):
    """Row sensitivities at the states ``x (N, 6)``.

    Returns ``b (N, M, 3)``, row m's sensitivity to agent m's broadcast error
    ``[dpx, dpy, dT]``, and ``d (N, M)``, its sensitivity to the TOA noise.
    """
    p, v = x[:, None, 0:2], x[:, None, 2:4]
    T, omega = x[:, 4:5], x[:, 5:6]
    d = -2.0 * (T + omega * t - alpha)
    b_pos = 2.0 * (p + t[..., None] * v - p_hat)
    return np.concatenate([b_pos, d[..., None]], axis=-1), d


def _row_variances(b: np.ndarray, d: np.ndarray, c_tau: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Diagonal ``(N, M)`` of ``C_e``, which is diagonal because ``C_tau`` is
    diagonal and ``C_beta`` block diagonal."""
    return ((blocks @ b[..., None])[..., 0] * b).sum(axis=-1) + d * c_tau * d


_LOWER9 = np.tri(N_THETA, N_THETA, -1, dtype=bool)


def _qr_factor(WA: np.ndarray, Wy: np.ndarray):
    """Column-equilibrated QR of stacked systems ``WA @ theta ~ Wy``.

    The columns of ``WA`` are scaled to unit norm, ``WA = Q R S``.  ``Wy``
    rides along as an extra column of the factored matrix, so the last
    column of the triangular factor carries ``z = Q^T Wy`` and ``Q`` is never
    formed.  Returns ``(ok, ranks, R, z, scale, r)``: ``ok (N,)`` marks the
    full-rank systems and ``ranks`` holds the numerical ranks of the others,
    in order; ``R (9, 9)``, ``z (9, 1)``, the column norms ``scale (9,)``
    and ``r = |diag R|`` hold the ``ok`` systems only, in order.
    """
    M, n = WA.shape[-2:]
    scale = np.sqrt((WA * WA).sum(axis=-2))
    scale[scale == 0.0] = 1.0
    aug = np.empty(WA.shape[:-1] + (n + 1,))
    np.divide(WA, scale[:, None, :], out=aug[..., :n])
    aug[..., n] = Wy
    # factors aug in place; R is the upper triangle of its 9x9 block
    _umath_linalg.qr_r_raw(aug, signature="d->d")
    R = np.where(_LOWER9, 0.0, aug[:, :n, :n])
    r = np.abs(R.diagonal(axis1=-2, axis2=-1))
    tol = max(M, n) * _EPS * r.max(axis=-1, initial=0.0)
    ok = r.min(axis=-1, initial=np.inf) > tol
    if ok.all():
        return ok, (), R, aug[:, :n, n:], scale, r
    ranks = np.count_nonzero(r[~ok] > tol[~ok, None], axis=-1)
    return ok, ranks, R[ok], aug[ok, :n, n:], scale[ok], r[ok]


def _wls_solutions(R: np.ndarray, z: np.ndarray, scale: np.ndarray, r: np.ndarray):
    """``(theta, C_wls, sqrt_info, cond)`` of full-rank factored systems."""
    rhs = np.empty(z.shape[:-1] + (N_THETA + 1,))
    rhs[..., :1] = z
    rhs[..., 1:] = _EYE9
    X = _umath_linalg.solve(R, rhs, signature="dd->d")
    theta = X[..., 0] / scale
    R_inv = X[..., 1:]
    C_wls = (R_inv @ R_inv.swapaxes(-1, -2)) / (scale[:, :, None] * scale[:, None, :])
    cond = r.max(axis=-1, initial=0.0) / r.min(axis=-1, initial=np.inf)
    return theta, C_wls, R * scale[:, None, :], cond


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


def _retract(theta: np.ndarray, K: np.ndarray, threshold: np.ndarray, max_iterations: int):
    """Stacked weighted Gauss-Newton retraction of ``theta (N, 9)`` onto the 6-state.

    Each step solves ``min ||K (theta - f(x) - J dx)||`` by SVD (the ``svd_s``
    gufunc beneath ``np.linalg.svd(full_matrices=False)``), with the rank
    rule of ``numpy.linalg.lstsq``.  A non-finite system, or an SVD that
    fails and comes back NaN, has no singular value above the rank
    tolerance, so its frame drops out with rank 0 alone.  A frame leaves the
    loop once the squared norm of its position step is at most its
    ``threshold``, so every frame runs exactly as many iterations as it would
    alone.  Returns
    ``(x, iterations, converged, rank)``; a frame whose weighted Jacobian lost
    rank has ``rank < 6`` and a meaningless ``x``.
    """
    N = theta.shape[0]
    x = theta[:, :6].copy()
    iterations = np.full(N, max_iterations)
    converged = np.zeros(N, dtype=bool)
    rank = np.full(N, 6)
    # the frames still iterating, and their slices of the inputs
    idx, xr, Kr, th, thr = np.arange(N), x, K, theta, threshold
    for it in range(1, max_iterations + 1):
        f, G = _theta_models(xr)
        KJ = Kr[..., :6] + Kr[..., 6:] @ (2.0 * G)
        Kres = (Kr @ (th - f)[..., None])[..., 0]
        # one finiteness test for the common case: a sum is finite only if every term is
        if not math.isfinite(KJ.sum() + Kres.sum()):
            finite = np.isfinite(KJ).all(axis=(-2, -1)) & np.isfinite(Kres).all(axis=-1)
            KJ = np.where(finite[:, None, None], KJ, 0.0)  # rank 0: the frame fails
            Kres = np.where(finite[:, None], Kres, 0.0)
        U, s, Vt = _umath_linalg.svd_s(KJ, signature="d->ddd")
        full = s[:, -1] > _SVD_RANK_TOL * s[:, 0]  # singular values come sorted
        if not full.all():
            rank[idx[~full]] = np.count_nonzero(s[~full] > _SVD_RANK_TOL * s[~full, :1], axis=-1)
            idx, xr, Kr, th, thr = idx[full], xr[full], Kr[full], th[full], thr[full]
            U, s, Vt, Kres = U[full], s[full], Vt[full], Kres[full]
        dx = (Vt.swapaxes(-1, -2) @ ((U.swapaxes(-1, -2) @ Kres[..., None]) / s[..., None]))[..., 0]
        xr = xr + dx
        done = (dx[:, :2] ** 2).sum(axis=-1) <= thr
        if done.all():  # also when no frame is left
            x[idx], iterations[idx], converged[idx] = xr, it, True
            return x, iterations, converged, rank
        if done.any():
            x[idx[done]] = xr[done]
            iterations[idx[done]] = it
            converged[idx[done]] = True
            keep = ~done
            idx, xr, Kr, th, thr = idx[keep], xr[keep], Kr[keep], th[keep], thr[keep]
    x[idx] = xr
    return x, iterations, converged, rank


def _retraction_error(rank: int) -> DegenerateGeometryError:
    return DegenerateGeometryError(f"weighted retraction Jacobian is rank deficient (rank {rank} < 6)")


def _pass2_whitened(stack: FrameStack, live: np.ndarray, A: np.ndarray, y: np.ndarray, x: np.ndarray):
    """Whiten the designs of frames ``live`` with ``C_e`` evaluated at the states ``x``.

    ``C_e`` is diagonal, so whitening scales rows.  Returns ``(WA, Wy, ok)``,
    where ``ok`` marks frames whose ``C_e`` is positive definite.
    """
    t, p_hat, alpha, c_tau, blocks = stack.t, stack.p_hat, stack.alpha, stack.c_tau, stack.blocks
    if live.size < len(stack):
        t, p_hat, alpha, c_tau, blocks = t[live], p_hat[live], alpha[live], c_tau[live], blocks[live]
    b, d = _error_terms(t, p_hat, alpha, x)
    var = _row_variances(b, d, c_tau, blocks)
    ok = (var > 0.0).all(axis=-1)
    w = 1.0 / np.sqrt(np.where(ok[:, None], var, 1.0))
    return A * w[..., None], y * w, ok


@_LAPACK_ERRSTATE
def estimate_batch(stack: FrameStack) -> list[EstimateReport | EstimationError]:
    """Full two-pass pipeline for every frame of a stack.

    Pass 1 solves with identity weights to get a crude state; pass 2
    evaluates the error statistics there, re-solves, and runs the
    Gauss-Newton retraction.  Returns one entry per frame, in order: its
    :class:`EstimateReport`, carrying the pass-2 conditioning diagnostics, or
    the :class:`EstimationError` that stopped it.  A LAPACK factorization
    that fails on one frame becomes that frame's error; no ``LinAlgError``
    or ``RuntimeWarning`` escapes.
    """
    N, M = stack.t.shape
    if M < N_THETA:
        return [_underdetermined_error(M) for _ in range(N)]
    out: list = [None] * N
    live = np.arange(N)  # the frames still in play; arrays are gathered only once one drops out
    A, y = _design(stack.t, stack.p_hat, stack.alpha)

    # pass 1: identity weights
    ok, ranks, R, z, scale, _ = _qr_factor(A, y)
    if not ok.all():
        for i, rk in zip(live[~ok], ranks):
            out[i] = _rank_error(rk)
        live, A, y = live[ok], A[ok], y[ok]
    x1 = _umath_linalg.solve(R, z, signature="dd->d")[..., :6, 0] / scale[:, :6]

    # pass 2: weights from the error statistics at the pass-1 state
    WA, Wy, ok = _pass2_whitened(stack, live, A, y, x1)
    if not ok.all():
        for i in live[~ok]:
            out[i] = ConditioningError(_SINGULAR_CE)
        live, WA, Wy = live[ok], WA[ok], Wy[ok]

    ok, ranks, R, z, scale, r = _qr_factor(WA, Wy)
    if not ok.all():
        for i, rk in zip(live[~ok], ranks):
            out[i] = _rank_error(rk)
        live = live[ok]
    theta, C_wls, K, cond = _wls_solutions(R, z, scale, r)

    blocks = stack.blocks if live.size == N else stack.blocks[live]
    traces = blocks[:, :, 0, 0] + blocks[:, :, 1, 1]
    x, iterations, converged, gn_rank = _retract(theta, K, traces.sum(axis=-1) / M, MAX_REFINE_ITERATIONS)
    for j, i in enumerate(live):
        if gn_rank[j] < 6:
            out[i] = _retraction_error(gn_rank[j])
            continue
        out[i] = EstimateReport(
            x_hat=TargetState.from_vector(x[j]),
            iterations=int(iterations[j]),
            converged=bool(converged[j]),
            cond_estimate=float(cond[j]),
            C_wls=C_wls[j],
        )
    return out


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
    result = estimate_batch(FrameStack.one(frame))[0]
    if isinstance(result, EstimationError):
        raise result
    return result


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
    b, d = _error_terms(stack.t, stack.p_hat, stack.alpha, x_ref.as_vector()[None])
    var = _row_variances(b, d, stack.c_tau, stack.blocks)[0]
    if not (var > 0.0).all():
        raise ConditioningError(_SINGULAR_CE)
    B = np.zeros((M, M, 3))
    rows = np.arange(M)
    B[rows, rows, :] = b[0]
    return ErrorModel(B=B.reshape(M, 3 * M), D=np.diag(d[0]), C_e=np.diag(var))


@_LAPACK_ERRSTATE
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
    w, V = _umath_linalg.eigh_lo(C_e, signature="d->dd")
    if not (w[0] > 0 and w[0] > 1e-15 * w[-1]):
        raise ConditioningError("C_e is not positive definite")
    return (V * (1.0 / np.sqrt(w))) @ V.T


@_LAPACK_ERRSTATE
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
    if not ok[0]:
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


@_LAPACK_ERRSTATE
def gauss_newton_refine(
    wls: WlsSolution,
    agent_pos_cov_traces,
    max_iterations: int = MAX_REFINE_ITERATIONS,
) -> EstimateReport:
    """Step II: retract the 6-state from ``theta_hat`` by weighted Gauss-Newton.

    Starts from the truncated ``theta_hat`` (its first six entries) and
    iterates increments that minimize the ``C_wls``-weighted mismatch between
    ``theta_hat`` and ``f(x)``.  Iteration stops when the squared norm of the
    position part of the increment drops below the mean agent position
    covariance trace, or after ``max_iterations`` (default 5); the
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

    x, iterations, converged, rank = _retract(wls.theta_hat[None], wls.sqrt_info[None], threshold, max_iterations)
    if rank[0] < 6:
        raise _retraction_error(rank[0])
    return EstimateReport(
        x_hat=TargetState.from_vector(x[0]),
        iterations=int(iterations[0]),
        converged=bool(converged[0]),
        cond_estimate=wls.cond_estimate,
        C_wls=wls.C_wls,
    )


# --- degraded static mode -------------------------------------------------

_STATIC_COLS = np.array([0, 1, 4, 6])  # [2*p_hat, -2*alpha_hat, 1] columns
_STATIC_THETA_ROWS = np.array([0, 1, 4, 6])  # [p, T, theta1] entries of theta


def _embed_static(q: np.ndarray) -> TargetState:
    return TargetState(p=q[0:2], v=np.zeros(2), T=q[2], omega=0.0)


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
