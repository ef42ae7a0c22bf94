"""Physical and stochastic model of one TDMA broadcast frame.

A frame is M sequential one-way broadcasts.  Broadcast m carries four
numbers: its slot time ``t_m``, the TOA ``tau_m`` the target measures, and
the position ``p_hat_m`` and clock offset ``T_hat_m`` the agent reports.
:class:`ObservedFrame` holds them as four columns over the M broadcasts.

Unit conventions used throughout the package:

* all clock quantities (offsets, skews, TOAs, their noise variances) are
  range-equivalent: seconds multiplied by the propagation speed ``C_LIGHT``,
  so offsets and TOAs carry meters and skews carry meters/second;
* slot times ``t_m`` stay in seconds, so products like ``v * t_m`` and
  ``omega * t_m`` carry meters;
* a variance quoted as ``x`` dB means ``10**(x/10)`` m^2 (reference 1 m^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _vec(value, n: int, name: str) -> np.ndarray:
    """Copy ``value`` into a read-only float vector of length ``n``."""
    arr = np.array(value, dtype=float).reshape(-1)
    if arr.size != n:
        raise ValueError(f"{name} must have {n} entries, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    arr.setflags(write=False)
    return arr


def _mat(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Copy ``value`` into a read-only float array of exactly ``shape``."""
    arr = np.array(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


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
        object.__setattr__(self, "p", _vec(self.p, 2, "p"))
        object.__setattr__(self, "v", _vec(self.v, 2, "v"))
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "omega", float(self.omega))
        if not (np.isfinite(self.T) and np.isfinite(self.omega)):
            raise ValueError("clock terms must be finite")

    def as_vector(self) -> np.ndarray:
        """State as the 6-vector [px, py, vx, vy, T, omega]."""
        return np.concatenate([self.p, self.v, [self.T, self.omega]])

    @classmethod
    def from_vector(cls, x) -> "TargetState":
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != 6:
            raise ValueError(f"state vector must have 6 entries, got {x.size}")
        return cls(p=x[0:2], v=x[2:4], T=x[4], omega=x[5])

    def position_at(self, t: float) -> np.ndarray:
        """Position at slot time ``t`` seconds under the linear motion model."""
        return self.p + self.v * t


@dataclass(frozen=True, eq=False)
class AgentTruth:
    """True per-slot snapshot of one broadcasting agent.

    ``t_m`` is the slot time offset from the frame start in seconds; the first
    agent of a frame defines the origin (``t_1 = 0``).  ``p_m`` is the agent's
    position at its own slot, ``T_m`` its clock offset in range-equivalent
    meters.
    """

    p_m: np.ndarray
    T_m: float
    t_m: float

    def __post_init__(self):
        object.__setattr__(self, "p_m", _vec(self.p_m, 2, "p_m"))
        object.__setattr__(self, "T_m", float(self.T_m))
        object.__setattr__(self, "t_m", float(self.t_m))


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Second-order statistics of one frame's measurement and broadcast errors.

    Attributes
    ----------
    C_tau : ndarray, shape (M, M)
        Diagonal covariance of the TOA noise, m^2.
    C_beta : ndarray, shape (3M, 3M)
        Covariance of the stacked per-agent broadcast errors
        ``[dpx, dpy, dT]`` per agent, m^2.  Block diagonal in the default
        construction; a full matrix is permitted.
    """

    C_tau: np.ndarray
    C_beta: np.ndarray

    def __post_init__(self):
        C_tau = np.array(self.C_tau, dtype=float)
        M = C_tau.shape[0]
        object.__setattr__(self, "C_tau", _mat(C_tau, (M, M), "C_tau"))
        object.__setattr__(self, "C_beta", _mat(self.C_beta, (3 * M, 3 * M), "C_beta"))

    @property
    def n_agents(self) -> int:
        return self.C_tau.shape[0]

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
        M = agent_sigma_sq.size
        C_tau = np.eye(M) * float(sigma_tau_sq)
        C_beta = np.diag(np.repeat(agent_sigma_sq, 3))
        return cls(C_tau=C_tau, C_beta=C_beta)

    @classmethod
    def from_db(cls, sigma_tau_sq_db: float, agent_sigma_sq_db) -> "NoiseSpec":
        """Same as :meth:`isotropic` with both variances given in dB."""
        agent_db = np.atleast_1d(np.asarray(agent_sigma_sq_db, dtype=float))
        return cls.isotropic(db_to_variance(sigma_tau_sq_db), 10.0 ** (agent_db / 10.0))

    def agent_block(self, m: int) -> np.ndarray:
        """3x3 covariance block of agent ``m`` (0-based)."""
        return self.C_beta[3 * m : 3 * m + 3, 3 * m : 3 * m + 3]

    def position_cov_traces(self) -> np.ndarray:
        """Traces of the 2x2 position blocks of each agent, m^2."""
        idx = np.arange(self.n_agents)
        return self.C_beta[3 * idx, 3 * idx] + self.C_beta[3 * idx + 1, 3 * idx + 1]


@dataclass(frozen=True, eq=False)
class Scenario:
    """Ground truth of one frame: agents, target, and error statistics.

    Construction is permissive (shapes and finiteness only) so that
    :func:`validate_scenario` can report invariant violations instead of the
    constructor refusing them.
    """

    agents: tuple[AgentTruth, ...]
    target: TargetState
    noise: NoiseSpec

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        if len(self.agents) < 1:
            raise ValueError("scenario needs at least one agent")
        if self.noise.n_agents != len(self.agents):
            raise ValueError(
                f"noise spec sized for {self.noise.n_agents} agents, scenario has {len(self.agents)}"
            )

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def slot_times(self) -> np.ndarray:
        return np.array([a.t_m for a in self.agents])


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


def _toas(target: TargetState, t: np.ndarray, p_m: np.ndarray, T_m: np.ndarray) -> np.ndarray:
    """Noise-free TOAs of agents at slot times ``t (M,)``, positions
    ``p_m (M, 2)`` and offsets ``T_m (M,)``; see :func:`forward_toa`."""
    u = target.p + target.v * t[:, None] - p_m
    # vecdot takes the same dot product per row as np.linalg.norm of one vector
    return np.sqrt(np.vecdot(u, u)) + target.T + target.omega * t - T_m


def forward_toa(target: TargetState, agent: AgentTruth) -> float:
    """Noise-free one-way TOA of agent ``agent`` at the target, in meters.

    The measurement is the geometric range at the slot time plus the clock
    mismatch between target and agent::

        tau_m = ||p + v*t_m - p_m|| + T + omega*t_m - T_m
    """
    return float(_toas(target, np.array([agent.t_m]), agent.p_m[None], np.array([agent.T_m]))[0])


def _agent_columns(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """True slot times ``(M,)``, positions ``(M, 2)`` and offsets ``(M,)``."""
    agents = scenario.agents
    return scenario.slot_times(), np.array([a.p_m for a in agents]), np.array([a.T_m for a in agents])


def _psd_factor(C: np.ndarray, name: str) -> np.ndarray:
    """Square root ``S`` with ``S @ S.T == C`` for a PSD matrix.

    Cholesky when the matrix is strictly PD; otherwise a symmetric eigenvalue
    factorization with tiny negative eigenvalues clipped to zero.  Raises
    :class:`NotPositiveDefiniteError` for genuinely indefinite input.
    """
    try:
        return np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        pass
    w, V = np.linalg.eigh(np.asarray(C, dtype=float))
    tol = 1e-12 * max(w[-1], 1.0) if w.size else 0.0
    if np.any(w < -tol):
        raise NotPositiveDefiniteError(f"{name} is not positive semidefinite (min eig {w[0]:.3e})")
    return V * np.sqrt(np.clip(w, 0.0, None))


def simulate_frame(scenario: Scenario, seed: int) -> ObservedFrame:
    """Synthesize one noisy observed frame from ground truth.

    TOA noise is drawn first (M standard normals scaled by the diagonal of
    ``C_tau``), then the stacked broadcast error (3M standard normals through
    a square-root factor of ``C_beta``); the two are independent.  The same
    seed always reproduces the same frame bit for bit.
    """
    rng = np.random.default_rng(seed)
    M = scenario.n_agents
    noise = scenario.noise

    d_tau = rng.standard_normal(M) * np.sqrt(np.diag(noise.C_tau))
    S = _psd_factor(noise.C_beta, "C_beta")
    d_beta = (S @ rng.standard_normal(3 * M)).reshape(M, 3)

    t, p_m, T_m = _agent_columns(scenario)
    return ObservedFrame(
        t=t,
        tau=_toas(scenario.target, t, p_m, T_m) + d_tau,
        p_hat=p_m + d_beta[:, :2],
        T_hat=T_m + d_beta[:, 2],
        noise=noise,
    )


def exact_frame(scenario: Scenario) -> ObservedFrame:
    """Noise-free frame: exact TOAs, broadcasts equal to truth.

    The frame still carries the scenario's noise spec, which downstream
    weighting uses; the observations themselves are exact.
    """
    t, p_m, T_m = _agent_columns(scenario)
    return ObservedFrame(t=t, tau=_toas(scenario.target, t, p_m, T_m), p_hat=p_m, T_hat=T_m, noise=scenario.noise)


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
    t = scenario.slot_times()

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

    C_tau = scenario.noise.C_tau
    if np.any(C_tau != np.diag(np.diag(C_tau))):
        out.append(Diagnostic("ctau-not-diagonal", "error", "C_tau must be diagonal"))
    if np.any(np.diag(C_tau) <= 0):
        out.append(Diagnostic("ctau-nonpositive", "error", "C_tau diagonal entries must be strictly positive"))

    C_beta = scenario.noise.C_beta
    if not np.allclose(C_beta, C_beta.T, rtol=0.0, atol=0.0):
        out.append(Diagnostic("cbeta-asymmetric", "error", "C_beta must be symmetric"))
    else:
        eigs = np.linalg.eigvalsh(C_beta)
        if eigs[0] <= 0:
            out.append(
                Diagnostic(
                    "cbeta-not-pd",
                    "error",
                    f"C_beta must be positive definite (min eig {eigs[0]:.3e})",
                )
            )
    return out
