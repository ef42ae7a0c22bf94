"""Physical and stochastic model of one TDMA broadcast frame.

A frame is M sequential one-way broadcasts.  Broadcast m carries four
numbers: its slot time ``t_m``, the TOA ``tau_m`` the target measures, and
the position ``p_hat_m`` and clock offset ``T_hat_m`` the agent reports.
:class:`ObservedFrame` holds them as four columns over the M broadcasts.
The ground truth is a :class:`Scenario`: the target's state, the noise, and
:class:`Agents`, three columns over the M agents (slot times ``t``, true
positions ``p_m`` and true clock offsets ``T_m``).  :func:`forward_toa`
maps a target and its agents to the M noise-free TOAs.

Unit conventions used throughout the package:

* all clock quantities (offsets, skews, TOAs, their noise variances) are
  range-equivalent: seconds multiplied by the propagation speed ``C_LIGHT``,
  so offsets and TOAs carry meters and skews carry meters/second;
* slot times ``t_m`` stay in seconds, so products like ``v * t_m`` and
  ``omega * t_m`` carry meters;
* a variance quoted as ``x`` dB means ``10**(x/10)`` m^2 (reference 1 m^2).

Each agent's errors are independent of the other agents', so a
:class:`NoiseSpec` holds one TOA variance and one 3x3 broadcast-error block
per agent, and a frame of M agents costs O(M) memory and time to build and
to simulate.  The full ``(M, M)`` ``C_tau`` and ``(3M, 3M)`` ``C_beta`` are
built on first read, which only the cross-checks do: the joint Fisher
information (``CrlbResult.full_fim``) and ``analytic_cov(form="factored")``.

One simulation kernel turns standard normals into observed columns of N
frames at once, with a leading frame axis: the Monte-Carlo sweeps run it on
a whole chunk of trials, and :func:`simulate_frame` on a batch of one.
The broadcast-error blocks are factored by :mod:`seqtoa._lapack`'s gufuncs,
under its one rule: a failed member comes back NaN and fails its own check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import NotPositiveDefiniteError

C_LIGHT = 299_792_458.0
"""Signal propagation speed in m/s, used for all range-equivalent conversions."""

#: sanity bound on clock skew magnitude, range-equivalent m/s (100 ppm)
MAX_SKEW = 100e-6 * C_LIGHT


def db_to_variance(db: float) -> float:
    """Convert a variance in dB (re 1 m^2) to m^2."""
    return float(10.0 ** (np.asarray(db) / 10.0))


def variance_to_db(var: float) -> float:
    """Convert a variance in m^2 to dB (re 1 m^2)."""
    return float(10.0 * np.log10(var))


_DB_RANGE = "beyond the range of a finite positive variance"


def _db_ok(db: float) -> bool:
    """Whether a dB value converts to a finite, positive variance."""
    try:
        return 0.0 < 10.0 ** (float(db) / 10.0) < math.inf
    except OverflowError:
        return False


def _mat(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Copy ``value`` into a read-only float array of exactly ``shape``."""
    arr = np.array(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def _checked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as they
    are, past the constructor's copies and checks: for a caller whose arrays
    are already read-only, of the right shapes and checked finite, often as
    views of a larger array checked once.  The fields go straight into the
    instance dictionary, as the dataclass's own ``__init__`` stores them."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, eq=False)
class TargetState:
    """Target parameters at the start of a frame.

    Attributes
    ----------
    p : ndarray, shape (2,)
        Position in meters.
    v : ndarray, shape (2,)
        Velocity in m/s.
    T : float
        Clock offset relative to the reference agent, range-equivalent meters.
    omega : float
        Clock skew relative to the reference agent, range-equivalent m/s.
    """

    p: np.ndarray
    v: np.ndarray
    T: float
    omega: float

    def __post_init__(self):
        object.__setattr__(self, "p", _mat(self.p, (2,), "p"))
        object.__setattr__(self, "v", _mat(self.v, (2,), "v"))
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "omega", float(self.omega))
        if not (np.isfinite(self.T) and np.isfinite(self.omega)):
            raise ValueError("clock terms must be finite")

    def as_vector(self) -> np.ndarray:
        """State as the 6-vector [px, py, vx, vy, T, omega]."""
        return np.concatenate([self.p, self.v, [self.T, self.omega]])

    @classmethod
    def from_vector(cls, x) -> "TargetState":
        """State from the 6-vector [px, py, vx, vy, T, omega].

        A finite vector is copied and checked once, and ``p`` and ``v`` are
        read-only views of the copy; any other goes through the constructor's
        checks, which name the field that is not finite.
        """
        x = np.array(x, dtype=float).reshape(-1)
        if x.size != 6:
            raise ValueError(f"state vector must have 6 entries, got {x.size}")
        values = x.tolist()
        if not all(map(math.isfinite, values)):
            return cls(p=x[0:2], v=x[2:4], T=values[4], omega=values[5])
        x.setflags(write=False)
        return _checked(cls, p=x[0:2], v=x[2:4], T=values[4], omega=values[5])


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Second-order statistics of one frame's measurement and broadcast errors.

    The errors are independent across agents, so the noise is stored
    compactly, as one TOA variance and one 3x3 block per agent.

    Attributes
    ----------
    c_tau : ndarray, shape (M,)
        TOA noise variances, m^2: the diagonal of ``C_tau``.
    blocks : ndarray, shape (M, 3, 3)
        Covariance of agent m's broadcast errors ``[dpx, dpy, dT]``, m^2: the
        diagonal blocks of ``C_beta``.
    """

    c_tau: np.ndarray
    blocks: np.ndarray

    def __post_init__(self):
        M = np.size(self.c_tau)
        object.__setattr__(self, "c_tau", _mat(self.c_tau, (M,), "c_tau"))
        object.__setattr__(self, "blocks", _mat(self.blocks, (M, 3, 3), "blocks"))

    @property
    def n_agents(self) -> int:
        return self.c_tau.size

    @classmethod
    def from_dense(cls, C_tau, C_beta) -> "NoiseSpec":
        """Noise from full matrices: ``C_tau (M, M)`` and ``C_beta (3M, 3M)``.

        Keeps the diagonal of ``C_tau`` and the per-agent 3x3 blocks of
        ``C_beta``.  Raises ``ValueError`` if either matrix has a nonzero entry
        outside them: noise correlated across agents is not modeled.
        """
        C_tau = np.array(C_tau, dtype=float)
        M = C_tau.shape[0] if C_tau.ndim else -1
        C_tau, C_beta = _mat(C_tau, (M, M), "C_tau"), _mat(C_beta, (3 * M, 3 * M), "C_beta")
        c_tau = np.diagonal(C_tau)
        idx = np.arange(M)
        blocks = C_beta.reshape(M, 3, M, 3)[idx, :, idx, :]
        if np.count_nonzero(C_tau) != np.count_nonzero(c_tau):
            raise ValueError("C_tau must be diagonal: TOA noise correlated across agents is not modeled")
        if np.count_nonzero(C_beta) != np.count_nonzero(blocks):
            raise ValueError(
                "C_beta must be block diagonal with 3x3 agent blocks: "
                "broadcast errors correlated across agents are not modeled"
            )
        return cls(c_tau=c_tau, blocks=blocks)

    @classmethod
    def isotropic(cls, sigma_tau_sq: float, agent_sigma_sq, n_agents: int | None = None) -> "NoiseSpec":
        """Build the default structure: ``C_tau = sigma_tau_sq * I`` and
        block-diagonal ``C_beta`` with per-agent blocks ``sigma_m^2 * I_3``.

        ``agent_sigma_sq`` may be a scalar or a length-M sequence of m^2
        variances.
        """
        agent_sigma_sq = np.atleast_1d(np.asarray(agent_sigma_sq, dtype=float))
        if agent_sigma_sq.size == 1 and n_agents is not None:
            agent_sigma_sq = np.full(n_agents, agent_sigma_sq[0])
        c_tau, blocks = _isotropic_columns(sigma_tau_sq, agent_sigma_sq)
        return cls(c_tau=c_tau, blocks=blocks)

    @classmethod
    def from_db(cls, sigma_tau_sq_db: float, agent_sigma_sq_db) -> "NoiseSpec":
        """Same as :meth:`isotropic` with both variances given in dB."""
        c_tau, blocks = _db_columns(sigma_tau_sq_db, np.atleast_1d(np.asarray(agent_sigma_sq_db, dtype=float)))
        return cls(c_tau=c_tau, blocks=blocks)

    @functools.cached_property
    def C_tau(self) -> np.ndarray:
        """Covariance ``(M, M)`` of the TOA noise, built on first read."""
        return _read_only(np.diag(self.c_tau))

    @functools.cached_property
    def C_beta(self) -> np.ndarray:
        """Covariance ``(3M, 3M)`` of the stacked broadcast errors, built on
        first read."""
        M = self.n_agents
        C_beta = np.zeros((M, 3, M, 3))
        idx = np.arange(M)
        C_beta[idx, :, idx, :] = self.blocks
        return _read_only(C_beta.reshape(3 * M, 3 * M))

    def position_cov_traces(self) -> np.ndarray:
        """Traces of the 2x2 position blocks of each agent, m^2."""
        return self.blocks[:, 0, 0] + self.blocks[:, 1, 1]


_EYE3 = np.eye(3)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _isotropic_columns(sigma_tau_sq: float, agent_sigma_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Noise columns ``c_tau (..., M)`` and ``blocks (..., M, 3, 3)`` of
    isotropic noise, from one TOA variance and agent variances ``(..., M)``."""
    return np.full(agent_sigma_sq.shape, float(sigma_tau_sq)), agent_sigma_sq[..., None, None] * _EYE3


def _db_variances(sigma_tau_sq_db: float, agent_sigma_sq_db: np.ndarray) -> tuple[float, np.ndarray]:
    """The TOA variance and the agent variances ``(..., M)``, m^2, of values in dB."""
    return db_to_variance(sigma_tau_sq_db), 10.0 ** (agent_sigma_sq_db / 10.0)


def _db_columns(sigma_tau_sq_db: float, agent_sigma_sq_db: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_isotropic_columns` with both variances given in dB."""
    return _isotropic_columns(*_db_variances(sigma_tau_sq_db, agent_sigma_sq_db))


@dataclass(frozen=True, eq=False)
class Agents:
    """Ground truth of the M broadcasting agents of one frame, as columns.

    Row m of every column belongs to the m-th broadcast of the frame.

    Attributes
    ----------
    t : ndarray, shape (M,)
        Slot times in seconds, offset from the frame start; the first agent
        of a frame defines the origin (``t[0] = 0``).
    p_m : ndarray, shape (M, 2)
        Agent positions at their own slots, meters.
    T_m : ndarray, shape (M,)
        Agent clock offsets, range-equivalent meters.
    """

    t: np.ndarray
    p_m: np.ndarray
    T_m: np.ndarray

    def __post_init__(self):
        M = np.size(self.t)
        if M < 1:
            raise ValueError("scenario needs at least one agent")
        object.__setattr__(self, "t", _mat(self.t, (M,), "t"))
        object.__setattr__(self, "p_m", _mat(self.p_m, (M, 2), "p_m"))
        object.__setattr__(self, "T_m", _mat(self.T_m, (M,), "T_m"))


@dataclass(frozen=True, eq=False)
class Scenario:
    """Ground truth of one frame: agents, target, and error statistics.

    Construction is permissive (shapes and finiteness only) so that
    :func:`validate_scenario` can report invariant violations instead of the
    constructor refusing them.
    """

    agents: Agents
    target: TargetState
    noise: NoiseSpec

    def __post_init__(self):
        if self.noise.n_agents != self.n_agents:
            raise ValueError(f"noise spec sized for {self.noise.n_agents} agents, scenario has {self.n_agents}")

    @property
    def n_agents(self) -> int:
        return self.agents.t.size


@dataclass(frozen=True, eq=False)
class ObservedFrame:
    """Everything the target observes in one TDMA frame, as columns.

    Row m of every column belongs to the m-th broadcast of the frame.

    Attributes
    ----------
    t : ndarray, shape (M,)
        Slot times in seconds.
    tau : ndarray, shape (M,)
        Measured TOAs, range-equivalent meters.
    p_hat : ndarray, shape (M, 2)
        Broadcast (self-reported) agent positions, meters.
    T_hat : ndarray, shape (M,)
        Broadcast agent clock offsets, range-equivalent meters.
    noise : NoiseSpec
        Error statistics of the TOAs and of the broadcasts.
    """

    t: np.ndarray
    tau: np.ndarray
    p_hat: np.ndarray
    T_hat: np.ndarray
    noise: NoiseSpec

    def __post_init__(self):
        M = np.size(self.t)
        if M < 1:
            raise ValueError("frame needs at least one broadcast")
        if self.noise.n_agents != M:
            raise ValueError("noise spec size does not match broadcast count")
        object.__setattr__(self, "t", _mat(self.t, (M,), "t"))
        object.__setattr__(self, "tau", _mat(self.tau, (M,), "tau"))
        object.__setattr__(self, "p_hat", _mat(self.p_hat, (M, 2), "p_hat"))
        object.__setattr__(self, "T_hat", _mat(self.T_hat, (M,), "T_hat"))

    @property
    def n_agents(self) -> int:
        return self.t.size


def _toas(x: np.ndarray, t: np.ndarray, p_m: np.ndarray, T_m: np.ndarray) -> np.ndarray:
    """Noise-free TOAs ``(N, M)`` of N scenarios: target states ``x (N, 6)``,
    slot times ``t (N, M)``, agent positions ``p_m (N, M, 2)`` and offsets
    ``T_m (N, M)``, or of one scenario without the leading axis; see
    :func:`forward_toa`."""
    u = x[..., None, 0:2] + x[..., None, 2:4] * t[..., None] - p_m
    # vecdot takes the same dot product per row as np.linalg.norm of one vector
    return np.sqrt(np.vecdot(u, u)) + x[..., 4:5] + x[..., 5:6] * t - T_m


def _toa_jacobian(rho: np.ndarray, t: np.ndarray) -> np.ndarray:
    """TOA gradients ``(..., M, 6)`` in the target state, rows ``[rho_m, t_m*rho_m, 1, t_m]``,
    from agent-to-target unit vectors ``rho (..., M, 2)`` and slot times ``t (..., M)``."""
    H = np.empty(t.shape + (6,))
    H[..., 0:2] = rho
    H[..., 2:4] = t[..., None] * rho
    H[..., 4] = 1.0
    H[..., 5] = t
    return H


def forward_toa(target: TargetState, agents: Agents) -> np.ndarray:
    """Noise-free one-way TOAs ``(M,)`` of the agents at the target, in meters.

    Each measurement is the geometric range at the slot time plus the clock
    mismatch between target and agent::

        tau_m = ||p + v*t_m - p_m|| + T + omega*t_m - T_m
    """
    return _toas(target.as_vector()[None], agents.t[None], agents.p_m[None], agents.T_m[None])[0]


@_lapack.ERRSTATE
def _psd_factor(C: np.ndarray, name: str) -> np.ndarray:
    """Square roots ``S`` with ``S @ S.T == C`` of a stack of PSD matrices.

    Cholesky when every matrix is strictly PD; otherwise a symmetric
    eigenvalue factorization of each, with tiny negative eigenvalues (down to
    ``-1e-12`` times the matrix's largest, or ``-1e-12`` if that is below 1)
    clipped to zero.  Raises :class:`NotPositiveDefiniteError` for genuinely
    indefinite input.  Both run as :mod:`seqtoa._lapack` gufuncs, whose failed
    member comes back NaN: a NaN Cholesky factor sends the stack to ``eigh``,
    and a NaN eigenvalue fails the semidefiniteness test.
    """
    L = _lapack.gufuncs.cholesky_lo(C, signature="d->d")
    if np.isfinite(L).all():
        return L
    w, V = _lapack.gufuncs.eigh_lo(C, signature="d->dd")
    tol = 1e-12 * np.maximum(w[..., -1:], 1.0)
    if not (w >= -tol).all():
        raise NotPositiveDefiniteError(f"{name} is not positive semidefinite (min eig {w.min():.3e})")
    return V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


# A stream of frames mostly repeats one noise spec, so what is derived from a
# spec (here and in the serializer) is kept for the last few specs, or noise
# documents, seen: each spec's arrays are read-only, so one serves every frame
# that carries it, and frames that each carry fresh noise keep nothing extra.
_SPEC_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_SPEC_CACHE_SIZE)
def _blocks_factor(noise: NoiseSpec) -> np.ndarray:
    """Read-only square-root factors ``(M, 3, 3)`` of ``noise.blocks``
    (:func:`_psd_factor`), once per spec of the last few simulated."""
    return _read_only(_psd_factor(noise.blocks, "C_beta"))


class NonFiniteFrameError(ValueError):
    """A simulated column overflowed: its finite inputs are too large."""


def _seal(**columns: np.ndarray) -> None:
    """Make simulated columns read-only, checking them finite in order;
    the first that is not raises ``NonFiniteFrameError("<name> must be finite")``."""
    for name, column in columns.items():
        if not np.isfinite(column).all():
            raise NonFiniteFrameError(f"{name} must be finite")
        column.setflags(write=False)


@np.errstate(over="ignore", invalid="ignore")  # an overflowed column is named by _seal
def _simulate(x, t, p_m, T_m, c_tau, factor, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Observed columns ``tau (N, M)``, ``p_hat (N, M, 2)`` and ``T_hat (N, M)``
    of N scenarios (see :func:`_toas`), sealed in that order (:func:`_seal`),
    from standard normals ``z (N, 4M)``: M scaled by the square roots of the TOA
    variances ``c_tau (N, M)``, then three per agent through the square root,
    ``factor (N, M, 3, 3)``, of its broadcast-error block."""
    M = c_tau.shape[-1]
    d_beta = (factor @ z[:, M:].reshape(factor.shape[:-1] + (1,)))[..., 0]
    tau = _toas(x, t, p_m, T_m) + z[:, :M] * np.sqrt(c_tau)
    p_hat, T_hat = p_m + d_beta[..., :2], T_m + d_beta[..., 2]
    _seal(tau=tau, p_hat=p_hat, T_hat=T_hat)
    return tau, p_hat, T_hat


def simulate_frame(scenario: Scenario, seed: int) -> ObservedFrame:
    """Synthesize one noisy observed frame from ground truth.

    Draws 4M standard normals in one call, then runs the sweeps' simulation
    kernel on a batch of one: the first M are the TOA noise (scaled by the
    square roots of ``c_tau``), the other 3M the broadcast errors (three per
    agent, through a square-root factor of each agent's block, taken once per
    noise spec); the two are independent.  The same seed always reproduces
    the same frame bit for bit.

    Raises :class:`NonFiniteFrameError` if a simulated column is not finite.
    """
    noise, a = scenario.noise, scenario.agents
    z = np.random.default_rng(seed).standard_normal((1, 4 * noise.n_agents))
    x = scenario.target.as_vector()[None]
    tau, p_hat, T_hat = _simulate(x, a.t[None], a.p_m[None], a.T_m[None], noise.c_tau[None], _blocks_factor(noise)[None], z)
    return _checked(ObservedFrame, t=a.t, tau=tau[0], p_hat=p_hat[0], T_hat=T_hat[0], noise=noise)


def exact_frame(scenario: Scenario) -> ObservedFrame:
    """Noise-free frame: exact TOAs, broadcasts equal to truth.

    The frame still carries the scenario's noise spec, which downstream
    weighting uses; the observations themselves are exact.
    """
    a = scenario.agents
    return ObservedFrame(t=a.t, tau=forward_toa(scenario.target, a), p_hat=a.p_m, T_hat=a.T_m, noise=scenario.noise)


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding: machine-readable code, severity, free text."""

    code: str
    severity: str  # "error" | "warning"
    message: str


def validate_scenario(scenario: Scenario) -> list[Diagnostic]:
    """Check scenario invariants and return a list of findings (empty = OK).

    Never raises; every violation becomes a :class:`Diagnostic`.
    """
    out: list[Diagnostic] = []
    t = scenario.agents.t

    if t[0] != 0.0:
        out.append(Diagnostic("slot-origin", "error", f"first slot time must be 0, got {t[0]!r}"))
    if np.any(np.diff(t) <= 0):
        out.append(Diagnostic("slot-order", "error", "slot times must be strictly increasing"))

    if scenario.n_agents < 9:
        out.append(
            Diagnostic(
                "underdetermined",
                "warning",
                f"M = {scenario.n_agents} < 9: frame is underdetermined for the 9-parameter linear solve",
            )
        )

    if abs(scenario.target.omega) > MAX_SKEW:
        out.append(
            Diagnostic(
                "skew-bound",
                "error",
                f"|omega| = {abs(scenario.target.omega):.6g} m/s exceeds the {MAX_SKEW:.6g} m/s sanity bound",
            )
        )

    blocks = scenario.noise.blocks
    if np.any(scenario.noise.c_tau <= 0):
        out.append(Diagnostic("ctau-nonpositive", "error", "C_tau diagonal entries must be strictly positive"))
    if not np.array_equal(blocks, blocks.swapaxes(-1, -2)):
        out.append(Diagnostic("cbeta-asymmetric", "error", "C_beta must be symmetric"))
    else:
        min_eig = np.linalg.eigvalsh(blocks).min()
        if min_eig <= 0:
            out.append(
                Diagnostic(
                    "cbeta-not-pd",
                    "error",
                    f"C_beta must be positive definite (min eig {min_eig:.3e})",
                )
            )
    return out
