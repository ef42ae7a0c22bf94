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
as columns, with a failure record per scenario.  :func:`crlb_batch` runs it
on a list of scenarios, and :func:`crlb_target` is a batch of one.  The
dense blocks of :func:`fim_blocks` are kept for cross-checks only.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DegenerateGeometryError, EstimationError, NotPositiveDefiniteError
from .estimator import _design_arrays, build_error_model, theta_jacobian
from .model import Agents, ObservedFrame, Scenario, TargetState, exact_frame

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


def _ranges(x: np.ndarray, t: np.ndarray, p_m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectors ``u (N, M, 2)`` from each agent to its target's slot-time
    position, their lengths ``r (N, M)``, and whether each agent coincides
    with that position, for target states ``x (N, 6)``, slot times
    ``t (N, M)`` and agent positions ``p_m (N, M, 2)``."""
    u = x[:, None, 0:2] + x[:, None, 2:4] * t[..., None] - p_m
    r = np.sqrt((u * u).sum(axis=-1))
    return u, r, r <= _COINCIDENT_TOL * (1.0 + np.sqrt((p_m * p_m).sum(axis=-1)))


def _coincident_error(t: float, r: float) -> DegenerateGeometryError:
    return DegenerateGeometryError(f"target coincides with agent at slot time {t}: range {r:.3e}")


def _gradient_rows(rho: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """TOA gradients ``Hx (..., M, 6)`` (rows ``[rho, t_m*rho, 1, t_m]``) and
    ``g (..., M, 3)`` (rows ``[-rho, -1]``) from the unit vectors
    ``rho (..., M, 2)`` and slot times ``t (..., M)``."""
    Hx = np.empty(t.shape + (6,))
    Hx[..., 0:2] = rho
    Hx[..., 2:4] = t[..., None] * rho
    Hx[..., 4] = 1.0
    Hx[..., 5] = t
    return Hx, -Hx[..., [0, 1, 4]]


def toa_gradients(x: TargetState, agents: Agents) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the M noise-free TOAs.

    Returns ``Hx (M, 6)``, whose row m ``[rho_m, t_m*rho_m, 1, t_m]`` is the
    derivative of TOA m with respect to the target state, and ``g (M, 3)``,
    whose row m ``[-rho_m, -1]`` is its derivative with respect to agent m's
    position/offset, where ``rho_m`` is the unit vector from agent m to the
    target's slot-time position.

    Raises
    ------
    DegenerateGeometryError
        If the target coincides with an agent at its slot time (unit vector
        undefined); the first such agent is named.
    """
    u, r, coincident = _ranges(x.as_vector()[None], agents.t[None], agents.p_m[None])
    if coincident.any():
        m = np.flatnonzero(coincident[0])[0]
        raise _coincident_error(agents.t[m], r[0, m])
    return _gradient_rows(u[0] / r[0][:, None], agents.t)


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


def _closed_form_information(rho: np.ndarray, t: np.ndarray, c_tau: np.ndarray, C_m: np.ndarray) -> np.ndarray:
    """Closed-form Schur complements ``S (N, 6, 6)`` from the unit vectors
    ``rho (N, M, 2)`` from each agent to its target at slot times
    ``t (N, M)``, TOA variances ``c_tau (N, M)`` and agent blocks
    ``C_m (N, M, 3, 3)``."""
    Hx, g = _gradient_rows(rho, t)
    w = 1.0 / (c_tau + ((C_m @ g[..., None])[..., 0] * g).sum(axis=-1))
    return (Hx * w[..., None]).swapaxes(-1, -2) @ Hx


def _closed_form_rows(x, t, p_m, c_tau, C_m, out: list) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Schur complements of N scenarios given as columns (see
    :func:`crlb_columns`).  A scenario that fails a check gets its record in
    ``out``.  Returns ``(idx, S)``: the scenarios that have a Schur
    complement, and it."""
    u, r, coincident = _ranges(x, t, p_m)
    for i in np.flatnonzero(coincident.any(axis=-1)):
        m = np.flatnonzero(coincident[i])[0]
        out[i] = _coincident_error(t[i, m], r[i, m])
    live = ~coincident.any(axis=-1)
    for i in np.flatnonzero(live & (c_tau <= 0).any(axis=-1)):
        out[i] = ConditioningError("C_tau must be strictly positive for the information matrix")
    live &= (c_tau > 0).all(axis=-1)
    try:
        np.linalg.cholesky(C_m[live])
    except np.linalg.LinAlgError:  # find the scenarios at fault
        for i in np.flatnonzero(live):
            try:
                np.linalg.cholesky(C_m[i])
            except np.linalg.LinAlgError:
                out[i] = NotPositiveDefiniteError("C_beta must be positive definite for the information matrix")
                live[i] = False
    return np.flatnonzero(live), _closed_form_information(u[live] / r[live][..., None], t[live], c_tau[live], C_m[live])


def _bounds(S: np.ndarray) -> list[tuple[np.ndarray, np.ndarray] | EstimationError]:
    """``(crlb_x, information)`` of each Schur complement ``S (K, 6, 6)``, or
    the record of a singular one."""
    S = 0.5 * (S + S.swapaxes(-1, -2))
    eigs = np.linalg.eigvalsh(S)
    singular = eigs[:, 0] <= 1e-12 * np.maximum(eigs[:, -1], 1.0)
    crlb_x = np.full_like(S, np.nan)
    crlb_x[~singular] = np.linalg.inv(S[~singular])
    crlb_x = 0.5 * (crlb_x + crlb_x.swapaxes(-1, -2))
    return [
        DegenerateGeometryError(f"target information is singular (min eig {e[0]:.3e}); geometry unobservable")
        if bad
        else (c, info)
        for bad, e, c, info in zip(singular, eigs, crlb_x, S)
    ]


def crlb_columns(x, t, p_m, c_tau, blocks) -> list[tuple[np.ndarray, np.ndarray] | EstimationError]:
    """Target-state CRLB of N scenarios given as columns: target states
    ``x (N, 6)``, slot times
    ``t (N, M)``, agent positions ``p_m (N, M, 2)``, TOA variances
    ``c_tau (N, M)`` and agent blocks ``blocks (N, M, 3, 3)``.

    Returns one entry per scenario, in order: ``(crlb_x, information)``, or
    the :class:`EstimationError` that stopped it (see :func:`crlb_batch`).
    """
    out: list = [None] * x.shape[0]
    idx, S = _closed_form_rows(x, t, p_m, c_tau, blocks, out)
    for i, res in zip(idx, _bounds(S)):
        out[i] = res
    return out


def crlb_batch(scenarios: Sequence[Scenario]) -> list[CrlbResult | EstimationError]:
    """Cramer-Rao lower bound of the 6-dimensional target state of every scenario.

    The agent block is marginalized out by the closed-form Schur complement
    (see the module docstring), evaluated by :func:`crlb_columns` for all
    scenarios at once.  Every scenario must have the same number of agents.

    Returns one entry per scenario, in order: its :class:`CrlbResult`, or the
    :class:`EstimationError` that stopped it alone.  The checks run in this
    order, and the first that fails is the record:
    :class:`DegenerateGeometryError` if the target coincides with an agent at
    its slot time, :class:`ConditioningError` for a non-positive TOA
    variance, :class:`NotPositiveDefiniteError` for an agent block of
    ``C_beta`` that is not positive definite, and
    :class:`DegenerateGeometryError` if the Schur complement is singular
    (unobservable geometry, e.g. collinear agents).
    """
    if not scenarios:
        raise ValueError("a CRLB batch needs at least one scenario")
    M = scenarios[0].n_agents
    if any(s.n_agents != M for s in scenarios):
        raise ValueError("all scenarios of a batch need the same number of agents")
    out = crlb_columns(
        np.array([s.target.as_vector() for s in scenarios]),
        np.array([s.agents.t for s in scenarios]),
        np.array([s.agents.p_m for s in scenarios]),
        np.array([s.noise.c_tau for s in scenarios]),
        np.array([s.noise.blocks for s in scenarios]),
    )
    return [
        r if isinstance(r, EstimationError) else CrlbResult(crlb_x=r[0], information=r[1], scenario=s)
        for r, s in zip(out, scenarios)
    ]


def crlb_target(scenario: Scenario) -> CrlbResult:
    """Cramer-Rao lower bound of the 6-dimensional target state:
    :func:`crlb_batch` on a batch of one.

    Raises
    ------
    EstimationError
        The scenario's failure record (see :func:`crlb_batch`), e.g.
        :class:`DegenerateGeometryError` if the Schur complement is singular
        (unobservable geometry, e.g. collinear agents).
    """
    result = crlb_batch([scenario])[0]
    if isinstance(result, EstimationError):
        raise result
    return result


def analytic_cov(
    scenario: Scenario,
    frame: ObservedFrame | None = None,
    form: str = "direct",
) -> np.ndarray:
    """First-order covariance prediction for the two-step estimator.

    With ``frame=None`` every matrix is evaluated at the scenario truth on a
    noise-free frame; this is the variant compared against the CRLB.  With a
    frame supplied, the design matrix is taken from the observed (noisy)
    frame while the error statistics and retraction Jacobian stay at truth.

    ``form="direct"`` computes ``((A J)^T C_e^-1 (A J))^-1``.
    ``form="factored"`` computes the algebraically equivalent
    matrix-inversion-lemma expansion through ``G1 = D^-1 B`` and
    ``G2 = D^-1 A J``, kept as an independent cross-check of the direct form.

    Raises
    ------
    ConditioningError
        If some ``d_m = 0`` (the factored form divides by it) or the
        information matrix is singular.
    """
    if form not in ("direct", "factored"):
        raise ValueError(f"unknown form {form!r}")
    if frame is None:
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
