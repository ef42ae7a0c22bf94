"""Estimation-theoretic analysis: CRLB under anchor uncertainty and the
estimator's predicted covariance.

The joint unknowns are the 6-dimensional target state and the 3M agent
nuisance parameters.  The Fisher information splits into blocks

    R1 = Hx^T C_tau^-1 Hx          (target block)
    R2 = Hx^T C_tau^-1 Hb          (cross block)
    R3 = Hb^T C_tau^-1 Hb + C_beta^-1   (agent block)

where ``Hx`` and ``Hb`` stack the TOA gradients with respect to the target
state and the agent parameters.  Marginalizing the agents by Schur complement
gives the target bound ``CRLB(x) = S^-1`` with ``S = R1 - R2 R3^-1 R2^T``.

Row m of ``Hb`` is ``g_m = [-rho_m, -1]`` in agent m's columns only.  The
noise is independent across agents: ``C_tau`` is diagonal and ``C_beta``
block diagonal with per-agent 3x3 blocks ``C_m``.  So ``R3`` is block
diagonal too, and the Woodbury identity collapses the Schur complement to
the closed form

    S = Hx^T diag(1 / (c_tau,m + g_m^T C_m g_m)) Hx,

which costs O(M).  :func:`crlb_columns` evaluates it over N scenarios given
as columns and returns columns: the bounds and the Schur complements
``(N, 6, 6)``, NaN in the rows of failed scenarios, and the
:class:`EstimationError` of each failed scenario only.  :func:`crlb_target`
runs it on one scenario's own arrays.  It calls the Cholesky, ``eigvalsh``
and ``inv`` LAPACK gufuncs through :mod:`seqtoa._lapack`, under its one
rule: each member gets the ``np.linalg`` wrapper's bytes, and a member whose
factorization fails comes back NaN and fails its own scenario; rows are
gathered only after a scenario has failed, so a batch of one (about 50 us
for M = 10 on the 2-core reference host) makes no call that only a larger
stack needs.
One kernel computes the TOA gradients and checks the geometry for every
entry point, building its error records only when a range is not finite or
within an agent's coincidence tolerance: :func:`toa_gradients` is that
kernel on a batch of one, and :func:`fim_blocks` (dense blocks, kept for
cross-checks only) and :func:`analytic_cov` call it, so a geometry fault
gives the same error everywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DegenerateGeometryError, EstimationError, NotPositiveDefiniteError
from . import _lapack
from .estimator import _design_arrays, _scatter, build_error_model, theta_jacobian
from .model import Agents, Scenario, TargetState, _toa_jacobian, exact_frame

_COINCIDENT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FimBlocks:
    """Fisher information blocks of the joint target/agent problem."""

    R1: np.ndarray  # (6, 6)
    R2: np.ndarray  # (6, 3M)
    R3: np.ndarray  # (3M, 3M)


@dataclass(frozen=True, eq=False)
class CrlbResult:
    """Target-state lower bound of one scenario.

    ``information`` is the Schur complement ``S``, the target-state Fisher
    information with the agents marginalized, and ``crlb_x`` its inverse.
    ``full_fim``, the joint ``(6+3M, 6+3M)`` FIM for diagnostics and
    cross-checks, is assembled from :func:`fim_blocks` when first read.
    """

    crlb_x: np.ndarray  # (6, 6)
    information: np.ndarray  # (6, 6)
    scenario: Scenario

    @functools.cached_property
    def full_fim(self) -> np.ndarray:
        blocks = fim_blocks(self.scenario)
        return np.block([[blocks.R1, blocks.R2], [blocks.R2.T, blocks.R3]])


def _toa_geometry(x: np.ndarray, t: np.ndarray, p_m: np.ndarray):
    """:func:`toa_gradients` of N scenarios: target states ``x (N, 6)``, slot
    times ``t (N, M)`` and agent positions ``p_m (N, M, 2)``.

    Returns ``Hx (N, M, 6)``, ``h (N, M, 3)``, the rows ``[rho_m, 1]``, which
    are ``-g``, and ``errors``, which maps each failing scenario to its first
    agent whose range overflows float64, else to its first agent that
    coincides with the target; a failing scenario's rows are meaningless.
    Callers silence floating-point warnings.
    """
    u = x[:, None, 0:2] + x[:, None, 2:4] * t[..., None] - p_m
    r = np.sqrt((u * u).sum(axis=-1))
    h = np.empty(t.shape + (3,))
    np.divide(u, r[..., None], out=h[..., :2])
    h[..., 2] = 1.0
    Hx = _toa_jacobian(h[..., :2], t)
    # One test for the common case: every range finite and above every agent's
    # coincidence tolerance, which is at most _COINCIDENT_TOL * (1 + 2 max|p_m|)
    # while no |p_m|**2 overflows.  The records are built only when it fails.
    span = np.abs(p_m).max(initial=0.0)
    if r.max(initial=0.0) < np.inf and r.min(initial=np.inf) > _COINCIDENT_TOL * (1.0 + 2.0 * span) and span < 1e150:
        return Hx, h, {}
    finite = np.isfinite(r)
    coincident = finite & (r <= _COINCIDENT_TOL * (1.0 + np.sqrt((p_m * p_m).sum(axis=-1))))
    errors: dict[int, EstimationError] = {}
    for i in np.flatnonzero(~finite.all(axis=-1) | coincident.any(axis=-1)).tolist():
        if finite[i].all():
            m = coincident[i].argmax()
            errors[i] = DegenerateGeometryError(
                f"target coincides with agent at slot time {t[i, m]}: range {r[i, m]:.3e}"
            )
        else:
            errors[i] = ConditioningError(
                f"range to the agent at slot time {t[i, finite[i].argmin()]} overflows float64: "
                "the scenario's coordinates are too large to evaluate"
            )
    return Hx, h, errors


@_lapack.ERRSTATE
def toa_gradients(x: TargetState, agents: Agents) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the M noise-free TOAs: the geometry kernel of
    :func:`crlb_columns` on a batch of one.

    Returns ``Hx (M, 6)``, whose row m ``[rho_m, t_m*rho_m, 1, t_m]`` is the
    derivative of TOA m with respect to the target state, and ``g (M, 3)``,
    whose row m ``[-rho_m, -1]`` is its derivative with respect to agent m's
    position/offset, where ``rho_m`` is the unit vector from agent m to the
    target's slot-time position.

    Raises
    ------
    ConditioningError
        If a range overflows float64 (finite coordinates too large to
        evaluate); the first such agent is named.
    DegenerateGeometryError
        If no range overflows and the target coincides with an agent at its
        slot time (unit vector undefined); the first such agent is named.
    """
    Hx, h, errors = _toa_geometry(x.as_vector()[None], agents.t[None], agents.p_m[None])
    if errors:
        raise errors[0]
    return Hx[0], -h[0]


def fim_blocks(scenario: Scenario) -> FimBlocks:
    """Assemble the joint Fisher information blocks at the scenario truth."""
    M = scenario.n_agents
    Hx, g = toa_gradients(scenario.target, scenario.agents)
    Hb = np.zeros((M, M, 3))  # row m holds g_m in agent m's three columns
    Hb[np.arange(M), np.arange(M)] = g
    Hb = Hb.reshape(M, 3 * M)

    ct_diag = scenario.noise.c_tau
    if np.any(ct_diag <= 0):
        raise ConditioningError("C_tau must be strictly positive for the information matrix")
    ct_inv = 1.0 / ct_diag

    try:
        np.linalg.cholesky(scenario.noise.C_beta)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("C_beta must be positive definite for the information matrix") from None
    C_beta_inv = np.linalg.inv(scenario.noise.C_beta)

    R1 = Hx.T @ (ct_inv[:, None] * Hx)
    R2 = Hx.T @ (ct_inv[:, None] * Hb)
    R3 = Hb.T @ (ct_inv[:, None] * Hb) + C_beta_inv
    return FimBlocks(R1=R1, R2=R2, R3=0.5 * (R3 + R3.T))


@_lapack.ERRSTATE
def crlb_columns(x, t, p_m, c_tau, blocks) -> tuple[np.ndarray, np.ndarray, dict[int, EstimationError]]:
    """Cramer-Rao lower bound of the 6-dimensional target state of N
    scenarios given as columns: target states ``x (N, 6)``, slot times
    ``t (N, M)``, agent positions ``p_m (N, M, 2)``, TOA variances
    ``c_tau (N, M)`` and agent blocks ``blocks (N, M, 3, 3)``, by the
    closed-form Schur complement (see the module docstring).

    Returns ``(crlb_x, information, errors)``: the bounds and the Schur
    complements ``(N, 6, 6)``, NaN in the rows of failed scenarios, and
    ``errors``, which maps each failed scenario to the
    :class:`EstimationError` that stopped it alone.  The first failing check
    is the record, in this order: the geometry of :func:`toa_gradients` (a
    range that overflows float64, then a target that coincides with an
    agent at its slot time), :class:`ConditioningError` for a TOA variance
    that is not positive and finite, :class:`NotPositiveDefiniteError` for an
    agent block of ``C_beta`` that is not finite or not positive definite, then
    :class:`ConditioningError` if the Schur complement overflows float64 and
    :class:`DegenerateGeometryError` if it is singular (unobservable
    geometry, e.g. collinear agents).

    Every scenario's Schur complement is formed at once, and the LAPACK
    gufuncs (Cholesky, ``eigvalsh``, ``inv``) run on the stack through
    :mod:`seqtoa._lapack`: a member that fails comes back NaN and fails its
    own scenario.  Rows are gathered only once a scenario has failed, so a
    batch of one makes no call that only a larger stack needs, and a
    scenario's row is the same bytes in any stack.
    """
    N = len(x)
    Hx, h, errors = _toa_geometry(x, t, p_m)
    factors = _lapack.gufuncs.cholesky_lo(blocks, signature="d->d")
    # w_m = 1 / (c_tau,m + g_m^T C_m g_m); h = -g, and negation is exact
    w = 1.0 / (c_tau + ((blocks @ h[..., None])[..., 0] * h).sum(axis=-1))
    S = (Hx * w[..., None]).swapaxes(-1, -2) @ Hx
    S = 0.5 * (S + S.swapaxes(-1, -2))
    rows = np.arange(N)
    # one test for the common case: every TOA variance positive and finite, every agent block
    # finite and factored, every Schur complement finite (no LAPACK call sees a non-finite matrix)
    finite = math.isfinite(c_tau.sum() + factors.sum() + blocks.sum() + S.sum())
    if errors or not (c_tau.min(initial=np.inf) > 0.0 and finite):
        live = np.ones(N, dtype=bool)
        live[list(errors)] = False
        for i in np.flatnonzero(live & ~((0.0 < c_tau) & (c_tau < np.inf)).all(axis=-1)).tolist():
            errors[i], live[i] = ConditioningError("C_tau must be strictly positive for the information matrix"), False
        pd = np.isfinite(factors).all(axis=(-3, -2, -1)) & np.isfinite(blocks).all(axis=(-3, -2, -1))
        for i in np.flatnonzero(live & ~pd).tolist():
            errors[i], live[i] = NotPositiveDefiniteError("C_beta must be positive definite for the information matrix"), False
        for i in np.flatnonzero(live & ~np.isfinite(S).all(axis=(-2, -1))).tolist():
            errors[i], live[i] = ConditioningError("target information overflows float64"), False
        rows, S = rows[live], S[live]
    eigs = _lapack.gufuncs.eigvalsh_lo(S, signature="d->d")
    crlb_x = _lapack.gufuncs.inv(S, signature="d->d")
    # a NaN eigenvalue (dsyevd failed) or inverse (dgesv found S singular) counts as singular too
    ok = eigs[:, 0] > 1e-12 * np.maximum(eigs[:, -1], 1.0)
    if not (ok.all() and math.isfinite(crlb_x.sum())):
        ok &= np.isfinite(crlb_x).all(axis=(-2, -1))
        for i, e in zip(rows[~ok].tolist(), eigs[~ok, 0].tolist()):
            errors[i] = DegenerateGeometryError(f"target information is singular (min eig {e:.3e}); geometry unobservable")
        rows, S, crlb_x = rows[ok], S[ok], crlb_x[ok]
    return (*_scatter(N, rows, 0.5 * (crlb_x + crlb_x.swapaxes(-1, -2)), S), errors)


def crlb_target(scenario: Scenario) -> CrlbResult:
    """Cramer-Rao lower bound of the 6-dimensional target state:
    :func:`crlb_columns` on the scenario's own arrays.

    Raises
    ------
    EstimationError
        The scenario's failure record (see :func:`crlb_columns`), e.g.
        :class:`DegenerateGeometryError` if the Schur complement is singular
        (unobservable geometry, e.g. collinear agents).
    """
    a, noise = scenario.agents, scenario.noise
    crlb_x, information, errors = crlb_columns(
        scenario.target.as_vector()[None], a.t[None], a.p_m[None], noise.c_tau[None], noise.blocks[None]
    )
    if errors:
        raise errors[0]
    return CrlbResult(crlb_x=crlb_x[0], information=information[0], scenario=scenario)


def analytic_cov(scenario: Scenario, form: str = "direct") -> np.ndarray:
    """First-order covariance prediction for the two-step estimator.

    Every matrix is evaluated at the scenario truth on its noise-free frame;
    this is the prediction compared against the CRLB.

    ``form="direct"`` computes ``((A J)^T C_e^-1 (A J))^-1``.
    ``form="factored"`` computes the algebraically equivalent
    matrix-inversion-lemma expansion through ``G1 = D^-1 B`` and
    ``G2 = D^-1 A J``, kept as an independent cross-check of the direct form.

    Raises
    ------
    ConditioningError
        If a range overflows float64 (see :func:`toa_gradients`), some
        ``d_m = 0`` (the factored form divides by it) or the information
        matrix is singular.
    DegenerateGeometryError
        If the target coincides with an agent at its slot time (see
        :func:`toa_gradients`).
    """
    if form not in ("direct", "factored"):
        raise ValueError(f"unknown form {form!r}")
    toa_gradients(scenario.target, scenario.agents)  # the geometry check of every CRLB entry point
    frame = exact_frame(scenario)

    A, _, _ = _design_arrays(frame)
    em = build_error_model(frame, scenario.target)
    J = theta_jacobian(scenario.target)
    AJ = A @ J

    d = np.diag(em.D)
    zero = np.flatnonzero(d == 0.0)
    if zero.size:
        raise ConditioningError(f"d_m is zero for agent index {int(zero[0])}")

    if form == "direct":
        info = AJ.T @ np.linalg.solve(em.C_e, AJ)
    else:
        G1 = em.B / d[:, None]
        G2 = AJ / d[:, None]
        ct_inv = np.linalg.inv(frame.noise.C_tau)
        C_beta_inv = np.linalg.inv(frame.noise.C_beta)
        cross = G2.T @ ct_inv @ G1
        inner = G1.T @ ct_inv @ G1 + C_beta_inv
        info = G2.T @ ct_inv @ G2 - cross @ np.linalg.solve(inner, cross.T)

    info = 0.5 * (info + info.T)
    eigs = np.linalg.eigvalsh(info)
    if eigs[0] <= 1e-14 * max(eigs[-1], 1.0):
        raise ConditioningError(f"predicted information matrix is singular (min eig {eigs[0]:.3e})")
    cov = np.linalg.inv(info)
    return 0.5 * (cov + cov.T)
