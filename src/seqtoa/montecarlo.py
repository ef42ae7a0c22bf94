"""Seeded Monte-Carlo experiment schemes and their aggregation.

Three schemes mirror the standard evaluation protocol:

* ``noise_sweep``   - fixed topology, sweep the agent-uncertainty level
  sigma_s^2 (dB);
* ``ltco_sweep``    - fixed topology, sweep the target clock offset (meters,
  range-equivalent) at a fixed agent-uncertainty level;
* ``random_topology`` - redraw agents and target every trial at a fixed
  agent-uncertainty level, collect the error CDF.

Reproducibility contract: trial ``i`` uses ``seed_i = base_seed XOR i``; a
``numpy.random.SeedSequence(seed_i)`` is spawned into three independent
streams used, in order, for scenario materialization, frame noise, and
estimator-init perturbation.  Identical specs therefore produce bit-identical
results within one package version.

An experiment is one stream of ``(sweep value, trial)`` units, cell by cell
in sweep order and in trial order within a cell, cut into chunks of at most
256 units; a chunk may span cells.  A chunk is built from columns.  The
streams of all its trials are computed at once, under the unchanged
contract above: the ``SeedSequence`` hashing behind ``spawn(3)`` and the
``PCG64`` seeding behind ``default_rng`` run as array arithmetic over the
chunk (:func:`_stream_states`), and each trial's draws (its scenario, its
frame's standard normals and the MLE's initial state) come, in the same
order as from ``default_rng``, from one generator set to each stream's
state in turn, into the trial's row of the chunk's arrays (target states,
agent columns, noise columns).  The noise, TOAs and broadcasts of all its
frames, the static solver (:func:`~seqtoa.baselines.tswls_static_batch`),
the MLE (:func:`~seqtoa.baselines.mle_batch`) and the CRLB
(:func:`~seqtoa.analysis.crlb_columns`) then run once per chunk, stacked
over its trials; no per-trial :class:`Scenario` is built.  The chunk's
observed and noise columns are checked finite once and made read-only.
The proposed estimator runs one frame at a time, through
:func:`~seqtoa.estimator.estimate` on an :class:`ObservedFrame` whose
arrays are read-only row views of those columns: the benchmark checks that
a sweep notices a dropped second pass by replacing that function, so a
stacked call would escape the check until the check moves.  A chunk's
outcomes are columns as well: per estimator a success mask and the errors
of its estimates, and for the CRLB a mask and the per-block traces
(:func:`_run_chunk`).  They are cut at cell boundaries, and each cell is
reduced to :class:`TrialStats`, in trial order, as soon as its last trial
is done, so a run holds about one cell and one chunk of trials.  The whole
run is on the calling thread.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import analysis, baselines, estimator
from .errors import EstimationError
from .model import (
    C_LIGHT,
    Agents,
    NoiseSpec,
    ObservedFrame,
    Scenario,
    TargetState,
    _DB_RANGE,
    _broadcast_errors,
    _checked,
    _db_columns,
    _db_ok,
    _observe,
    simulate_frame,  # noqa: F401  (re-exported; perfbench's tracer patches this binding)
)

SCHEMES = ("noise_sweep", "ltco_sweep", "random_topology")
ESTIMATOR_IDS = ("proposed", "tswls_static", "mle")

_CHUNK = 256  # most (sweep value, trial) units whose frames, static solves, MLEs and CRLBs run stacked
_BLOCKS = ("position", "velocity", "offset", "skew")
_BLOCK_SLICES = {
    "position": slice(0, 2),
    "velocity": slice(2, 4),
    "offset": slice(4, 5),
    "skew": slice(5, 6),
}


@dataclass(frozen=True)
class TopologyBounds:
    """Draw ranges for the random-topology scheme (meters, m/s, ns, ppm).

    ``sigma_tau_sq_db``, ``sigma_s_sq_db`` and ``agent_sigma_halfwidth_db``
    are read only by :func:`sample_random_topology`.  A ``random_topology``
    sweep takes its noise levels from its :class:`ExperimentSpec` instead:
    the TOA variance from its ``sigma_tau_sq_db`` and the agent variances
    from each sweep value and its ``agent_sigma_halfwidth_db``.
    """

    agent_xy: tuple[float, float] = (0.0, 50.0)
    target_xy: tuple[float, float] = (-50.0, 100.0)
    velocity: tuple[float, float] = (-5.0, 5.0)
    agent_offset_ns: tuple[float, float] = (-10.0, 10.0)
    target_offset_ns: tuple[float, float] = (-10.0, 10.0)
    skew_ppm: tuple[float, float] = (-20.0, 20.0)
    n_agents: int = 10
    slot_interval: float = 0.05
    sigma_tau_sq_db: float = -30.0
    sigma_s_sq_db: float = -20.5
    agent_sigma_halfwidth_db: float = 5.0

    def __post_init__(self):
        for name in ("agent_xy", "target_xy", "velocity", "agent_offset_ns", "target_offset_ns", "skew_ppm"):
            lo, hi = getattr(self, name)
            if not (lo < hi and np.isfinite(hi - lo)):  # a uniform draw needs a finite width
                raise ValueError(f"{name} bounds must be finite and well-ordered, with a finite width, got {(lo, hi)}")
        if isinstance(self.n_agents, bool) or not isinstance(self.n_agents, (int, np.integer)) or self.n_agents < 1:
            raise ValueError(f"n_agents must be an integer >= 1, got {self.n_agents!r}")
        if not 0 < self.slot_interval < np.inf:
            raise ValueError(f"need a finite slot_interval > 0, got {self.slot_interval!r}")
        if not _db_ok(self.sigma_tau_sq_db):
            raise ValueError(f"sigma_tau_sq_db must give a finite, positive variance, got {self.sigma_tau_sq_db!r} dB")
        center, halfwidth = self.sigma_s_sq_db, self.agent_sigma_halfwidth_db
        if not 0.0 <= halfwidth < np.inf:
            raise ValueError(f"agent_sigma_halfwidth_db must be finite and >= 0, got {halfwidth!r}")
        if not (_db_ok(center - halfwidth) and _db_ok(center + halfwidth)):
            raise ValueError(
                f"sigma_s_sq_db +- agent_sigma_halfwidth_db must give finite, positive variances, got {center!r} +- {halfwidth!r} dB"
            )


_INT64_MAX = 2**63 - 1


def _integer_problem(value, lo: int) -> str | None:
    """Why ``value`` is not an integer from ``lo`` to the largest signed 64-bit
    integer (a bool, a float such as ``2.0`` or ``2.5``, or a string is not
    one), or None if it is."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        return f"expected an integer, got {value!r}"
    if not lo <= value <= _INT64_MAX:
        return f"expected an integer from {lo} to {_INT64_MAX}, got {value!r}"
    return None


class _SpecFieldError(ValueError):
    """An :class:`ExperimentSpec` value the experiment cannot use; ``field``
    names it (``sweep_values[i]`` for one sweep value)."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: scheme, trial count, seed, sweep axis, estimators.

    ``topology`` is a fixed :class:`Scenario` for the sweep schemes (defaults
    to the packaged fixed topology) or :class:`TopologyBounds` for the
    random-topology scheme (defaults to ``TopologyBounds()``), nothing else.
    Construction raises ``ValueError`` for any value a run could not use:
    among others an integer field (``n_trials``, ``base_seed``,
    ``mle_max_iters``) that is not an integer (a bool is not one), a
    ``base_seed`` outside 0 to 2**63 - 1, an ``n_trials`` or
    ``mle_max_iters`` outside 1 to 2**63 - 1, a non-finite sweep value, or a
    dB value (``sigma_tau_sq_db``,
    and ``agent_sigma_halfwidth_db`` around ``sigma_s_sq_db`` and around the
    sweep values of the schemes that sweep it) that gives no finite, positive
    variance.  Where one field is at fault, the error is a ``ValueError``
    whose ``field`` names it.
    """

    scheme: str
    n_trials: int
    base_seed: int
    sweep_values: tuple[float, ...]
    estimators: tuple[str, ...] = ("proposed",)
    topology: Scenario | TopologyBounds | None = None
    sigma_tau_sq_db: float = -30.0
    sigma_s_sq_db: float = -20.5
    agent_sigma_halfwidth_db: float = 5.0
    target_offset_ns: float = 10.0
    mle_init_sigma: float = 1.0
    mle_max_iters: int = 50

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        # the rule of a document's integer fields; it also keeps every trial
        # seed base_seed ^ i below 2**64, two 32-bit words (_stream_states)
        for field, lo in (("n_trials", 1), ("base_seed", 0), ("mle_max_iters", 1)):
            problem = _integer_problem(getattr(self, field), lo)
            if problem:
                raise _SpecFieldError(field, problem)
            object.__setattr__(self, field, int(getattr(self, field)))
        if len(self.sweep_values) == 0:
            raise ValueError("sweep_values must be non-empty")
        if not self.mle_init_sigma > 0:
            raise ValueError("need mle_init_sigma > 0")
        if len(self.estimators) == 0:
            raise ValueError("estimators must be non-empty")
        for e in self.estimators:
            if e not in ESTIMATOR_IDS:
                raise ValueError(f"unknown estimator id {e!r}; known: {ESTIMATOR_IDS}")
        if len(set(self.estimators)) != len(self.estimators):
            raise ValueError(f"estimators must not repeat an id, got {tuple(self.estimators)}")
        kind = TopologyBounds if self.scheme == "random_topology" else Scenario
        if not (self.topology is None or isinstance(self.topology, kind)):
            raise ValueError(f"topology of a {self.scheme} experiment must be a {kind.__name__} or None")
        if not 0.0 <= self.agent_sigma_halfwidth_db < np.inf:
            raise ValueError(f"agent_sigma_halfwidth_db must be finite and >= 0, got {self.agent_sigma_halfwidth_db!r}")
        # the noise sweep draws offsets uniformly on [-target_offset_ns, target_offset_ns]
        if not (self.target_offset_ns >= 0.0 and np.isfinite(2.0 * self.target_offset_ns)):
            raise ValueError(f"target_offset_ns must be >= 0 and give a finite draw range, got {self.target_offset_ns!r}")
        sweep_values = tuple(float(v) for v in self.sweep_values)
        for i, v in enumerate(sweep_values):
            if not np.isfinite(v):
                raise _SpecFieldError(f"sweep_values[{i}]", f"expected a finite number, got {v!r}")
        if len(set(sweep_values)) != len(sweep_values):
            raise ValueError(f"sweep_values must not repeat a value, got {sweep_values}")
        object.__setattr__(self, "sweep_values", sweep_values)
        object.__setattr__(self, "estimators", tuple(self.estimators))
        # every dB value the experiment turns into a variance must give a
        # finite, positive one: the TOA variance, and each agent variance range
        # center +- agent_sigma_halfwidth_db around sigma_s_sq_db and around
        # every sweep value of the schemes that sweep it (ltco_sweep sweeps
        # offsets in meters)
        if not _db_ok(self.sigma_tau_sq_db):
            raise _SpecFieldError("sigma_tau_sq_db", f"{self.sigma_tau_sq_db!r} dB is {_DB_RANGE}")
        centers = [("sigma_s_sq_db", self.sigma_s_sq_db)]
        if self.scheme != "ltco_sweep":
            centers += [(f"sweep_values[{i}]", v) for i, v in enumerate(sweep_values)]
        halfwidth = self.agent_sigma_halfwidth_db
        for field, center in centers:
            if not _db_ok(center):
                raise _SpecFieldError(field, f"{center!r} dB is {_DB_RANGE}")
            lo, hi = center - halfwidth, center + halfwidth
            if not (_db_ok(lo) and _db_ok(hi)):
                raise _SpecFieldError(
                    "agent_sigma_halfwidth_db", f"{field} +- agent_sigma_halfwidth_db spans {lo!r} to {hi!r} dB, {_DB_RANGE}"
                )


@dataclass(frozen=True, eq=False)
class TrialStats:
    """Aggregates of one (sweep value, estimator) cell.

    MSE entries average squared errors over successful trials only; divergent
    or failed trials are excluded from the averages and counted in
    ``divergence_count``.  CRLB traces average over all trials of the sweep
    cell (the bound is a property of the scenario, not of any estimator).
    """

    mse_position: float
    mse_velocity: float
    mse_offset: float
    mse_skew: float
    bias: np.ndarray  # (6,)
    crlb_trace_position: float
    crlb_trace_velocity: float
    crlb_trace_offset: float
    crlb_trace_skew: float
    cdf_samples: np.ndarray  # per-trial position squared errors, trial order
    divergence_count: int
    n_success: int
    n_trials: int

    def mse(self, block: str) -> float:
        return getattr(self, f"mse_{block}")

    def crlb_trace(self, block: str) -> float:
        return getattr(self, f"crlb_trace_{block}")

    def bias_norm(self, block: str) -> float:
        return float(np.linalg.norm(self.bias[_BLOCK_SLICES[block]]))


@functools.cache
def fixed_topology() -> Scenario:
    """The versioned fixed scenario shipped with the package (M = 10).

    The file is parsed once per process.  The scenario is frozen and its
    arrays are read-only, so every caller shares the same object.
    """
    from .serialize import scenario_from_dict

    text = resources.files("seqtoa.data").joinpath("fixed_topology_m10.json").read_text()
    return scenario_from_dict(json.loads(text))


def _draw_random(bounds: TopologyBounds, rng, p_m, T_m, x, sigma_db, center_db: float, halfwidth_db: float) -> None:
    """Draw one random scenario into its rows: agent positions ``p_m (M, 2)``,
    agent offsets ``T_m (M,)``, target state ``x (6,)`` and per-agent
    variances ``sigma_db (M,)``, uniform within ``halfwidth_db`` of
    ``center_db``.

    Draw order (fixed for reproducibility): agent positions, agent clock
    offsets, target position, target velocity, target offset, target skew,
    per-agent variances.
    """
    M = bounds.n_agents
    p_m[...] = rng.uniform(bounds.agent_xy[0], bounds.agent_xy[1], size=(M, 2))
    T_m[...] = rng.uniform(bounds.agent_offset_ns[0], bounds.agent_offset_ns[1], size=M) * 1e-9 * C_LIGHT
    x[0:2] = rng.uniform(bounds.target_xy[0], bounds.target_xy[1], size=2)
    x[2:4] = rng.uniform(bounds.velocity[0], bounds.velocity[1], size=2)
    x[4] = rng.uniform(bounds.target_offset_ns[0], bounds.target_offset_ns[1]) * 1e-9 * C_LIGHT
    x[5] = rng.uniform(bounds.skew_ppm[0], bounds.skew_ppm[1]) * 1e-6 * C_LIGHT
    sigma_db[...] = rng.uniform(center_db - halfwidth_db, center_db + halfwidth_db, size=M)


def sample_random_topology(bounds: TopologyBounds, rng: np.random.Generator) -> Scenario:
    """Draw one random scenario (see :func:`_draw_random` for the draw order)."""
    M = bounds.n_agents
    p_m, T_m, x, sigma_db = np.empty((M, 2)), np.empty(M), np.empty(6), np.empty(M)
    _draw_random(bounds, rng, p_m, T_m, x, sigma_db, bounds.sigma_s_sq_db, bounds.agent_sigma_halfwidth_db)
    noise = NoiseSpec.from_db(bounds.sigma_tau_sq_db, sigma_db)
    agents = Agents(t=bounds.slot_interval * np.arange(M), p_m=p_m, T_m=T_m)
    return Scenario(agents=agents, target=TargetState.from_vector(x), noise=noise)


# --- the random streams of a chunk -------------------------------------------
#
# numpy documents the algorithms behind the reproducibility contract.  A
# SeedSequence hashes its entropy words into a pool of four 32-bit words, and
# its generate_state hashes the pool into output words, each with a running
# sequence of hash constants; PCG64 takes its 128-bit state and increment from
# four 64-bit output words.  The functions below run the same uint32
# arithmetic on a whole chunk's trials at once; tests/test_montecarlo.py
# (TestStreamStates) pins them to numpy's SeedSequence and default_rng.

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _hash_consts(init: int, mult: int, n: int) -> list[int]:
    """``init * mult**k`` modulo 2**32 for k = 0..n."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


_POOL_CONSTS = _hash_consts(0x43B0D7E5, 0x931E8875, 20)  # 20 hashmix calls pool 5 entropy words
_STATE_CONSTS = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)  # 8 output words


def _pools(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence pools ``(..., 4)`` of the entropy words ``(..., L)``
    (uint32, 4 <= L <= 5)."""
    consts = zip(_POOL_CONSTS, _POOL_CONSTS[1:])

    def hashmix(value):
        xor, mult = next(consts)
        value = (value ^ xor) * mult
        return value ^ value >> 16

    def mix(x, y):
        r = x * 0xCA01F9DD - y * 0x4973F715
        return r ^ r >> 16

    mixer = [hashmix(entropy[..., i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixer[dst] = mix(mixer[dst], hashmix(mixer[src]))
    for src in range(4, entropy.shape[-1]):
        for dst in range(4):
            mixer[dst] = mix(mixer[dst], hashmix(entropy[..., src]))
    return np.stack(mixer, axis=-1)


def _generate(pools: np.ndarray, n_words: int) -> np.ndarray:
    """``generate_state(n_words, np.uint32)`` of SeedSequence pools
    ``(..., 4)``: ``(..., n_words)`` uint32."""
    out = np.empty(pools.shape[:-1] + (n_words,), np.uint32)
    for i in range(n_words):
        value = (pools[..., i % 4] ^ _STATE_CONSTS[i]) * _STATE_CONSTS[i + 1]
        out[..., i] = value ^ value >> 16
    return out


def _pcg64_states(words: np.ndarray) -> list[dict]:
    """The state of a ``PCG64`` seeded from each row of ``words (N, 8)``, its
    seed sequence's ``generate_state(8, np.uint32)``.  Read as four 64-bit
    words (low half first), the first two are the 128-bit seed and the last
    two the stream, high word first; ``PCG64`` then takes two LCG steps."""
    u = words[:, 0::2].astype(np.uint64) | words[:, 1::2].astype(np.uint64) << 32
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in u.tolist():
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0})
    return states


def _stream_states(base_seed: int, trials, n_streams: int) -> list[list[dict]]:
    """The ``PCG64`` states of the first ``n_streams`` (2 or 3) streams of
    each of ``trials``, as ``default_rng`` seeds them under the
    reproducibility contract.  With ``streams =
    SeedSequence(base_seed ^ trial).spawn(3)``, they are the scenario stream
    ``default_rng(streams[0])``, the frame stream
    ``default_rng(int(streams[1].generate_state(1, np.uint64)[0]))`` and the
    init stream ``default_rng(streams[2])``.

    Child j's entropy is the seed's two 32-bit words (low first; every trial
    seed is below 2**64), zeros up to the pool's four words, then its spawn
    key j.  The frame stream's entropy is its seed's two 32-bit words, the
    two words ``generate_state(2, np.uint32)`` of child 1, and two zeros: a
    seed below 2**32 has one word, and a word missing from a pool hashes as a
    zero.
    """
    seeds = np.uint64(base_seed) ^ np.asarray(trials, dtype=np.uint64)
    entropy = np.zeros((seeds.size, 3, 5), np.uint32)
    entropy[..., 0] = (seeds & _MASK32)[:, None]
    entropy[..., 1] = (seeds >> 32)[:, None]
    entropy[..., 4] = np.arange(3)
    children = _pools(entropy)
    frame_entropy = np.zeros((seeds.size, 4), np.uint32)
    frame_entropy[:, 0:2] = _generate(children[:, 1], 2)
    pools = (children[:, 0], _pools(frame_entropy), children[:, 2])[:n_streams]
    return [_pcg64_states(_generate(pool, 8)) for pool in pools]


@dataclass(frozen=True, eq=False)
class _Chunk:
    """The trials of one chunk as columns; row k belongs to its k-th unit.

    The stack's columns are read-only and finite (:func:`_draw_chunk` checks
    them once), so a trial's frame and noise hold row views of them.
    """

    x: np.ndarray  # (N, 6) true target states
    p_m: np.ndarray  # (N, M, 2) true agent positions
    T_m: np.ndarray  # (N, M) true agent offsets
    stack: estimator.FrameStack  # slot times, observations and noise columns
    inits: np.ndarray | None  # (N, 6) the MLE's initial states, if it runs

    def noise(self, k: int) -> NoiseSpec:
        return _checked(NoiseSpec, c_tau=self.stack.c_tau[k], blocks=self.stack.blocks[k])

    def frame(self, k: int) -> ObservedFrame:
        s = self.stack
        return _checked(ObservedFrame, t=s.t[k], tau=s.tau[k], p_hat=s.p_hat[k], T_hat=s.T_hat[k], noise=self.noise(k))


def _draw_chunk(spec: ExperimentSpec, units) -> _Chunk:
    """Draw and simulate the trials ``units`` (``(sweep value, trial)`` pairs).

    The streams of all the trials are computed at once
    (:func:`_stream_states`), under the reproducibility contract; each
    trial's draws come from one generator set to each of its streams' states
    in turn, with the calls and in the order that ``default_rng`` streams
    would get them, into its row of the chunk's columns.
    Fixed-topology schemes keep the base scenario's agents and target
    position/velocity and draw the target clock offset (uniform on the noise
    sweep; the sweep value itself on the LTCO sweep), the target skew and the
    per-agent variances; the random-topology scheme draws a whole scenario.
    The frame stream then gives M TOA and 3M broadcast standard normals.  The
    noise columns, the TOAs and the broadcasts follow for the whole chunk at
    once, as :func:`~seqtoa.model.simulate_frame` computes them for one frame.
    The noise and observed columns are checked finite once, raising the
    ``ValueError`` that :class:`NoiseSpec` or :class:`ObservedFrame` would
    raise for a trial, and made read-only.
    """
    N = len(units)
    x = np.empty((N, 6))
    if spec.scheme == "random_topology":
        bounds = spec.topology or TopologyBounds()
        M = bounds.n_agents
        t = np.broadcast_to(bounds.slot_interval * np.arange(M), (N, M))
        p_m, T_m = np.empty((N, M, 2)), np.empty((N, M))
    else:
        base = spec.topology or fixed_topology()
        M = base.n_agents
        a = base.agents
        t, p_m, T_m = (np.broadcast_to(col, (N, *col.shape)) for col in (a.t, a.p_m, a.T_m))
        x[:, 0:2], x[:, 2:4] = base.target.p, base.target.v
    sigma_db, z_tau, z_beta = np.empty((N, M)), np.empty((N, M)), np.empty((N, 3 * M))
    inits = np.empty((N, 6)) if "mle" in spec.estimators else None
    halfwidth = spec.agent_sigma_halfwidth_db
    states = _stream_states(spec.base_seed, [trial for _, trial in units], 2 if inits is None else 3)
    rng = np.random.Generator(np.random.PCG64())  # every draw follows a state set from a trial's stream
    for k, (value, _) in enumerate(units):
        rng.bit_generator.state = states[0][k]
        if spec.scheme == "random_topology":
            _draw_random(bounds, rng, p_m[k], T_m[k], x[k], sigma_db[k], value, halfwidth)
        else:
            if spec.scheme == "noise_sweep":
                center = value
                x[k, 4] = rng.uniform(-spec.target_offset_ns, spec.target_offset_ns) * 1e-9 * C_LIGHT
            else:  # ltco_sweep: sweep value is the offset in range-equivalent meters
                center = spec.sigma_s_sq_db
                x[k, 4] = value
            x[k, 5] = rng.uniform(-20.0, 20.0) * 1e-6 * C_LIGHT
            sigma_db[k] = rng.uniform(center - halfwidth, center + halfwidth, size=M)
        rng.bit_generator.state = states[1][k]
        rng.standard_normal(out=z_tau[k])
        rng.standard_normal(out=z_beta[k])
        if inits is not None:
            rng.bit_generator.state = states[2][k]
            inits[k] = rng.normal(0.0, spec.mle_init_sigma, size=6)

    c_tau, blocks = _db_columns(spec.sigma_tau_sq_db, sigma_db)
    tau, p_hat, T_hat = _observe(x, t, p_m, T_m, z_tau * np.sqrt(c_tau), _broadcast_errors(blocks, z_beta))
    columns = {"c_tau": c_tau, "blocks": blocks, "t": t, "tau": tau, "p_hat": p_hat, "T_hat": T_hat}
    for name, column in columns.items():  # NoiseSpec's checks, then ObservedFrame's, in their order
        if not np.isfinite(column).all():
            raise ValueError(f"{name} must be finite")
        column.setflags(write=False)
    stack = estimator.FrameStack(t=t, tau=tau, p_hat=p_hat, T_hat=T_hat, c_tau=c_tau, blocks=blocks)
    if inits is not None:
        inits += x
    return _Chunk(x=x, p_m=p_m, T_m=T_m, stack=stack, inits=inits)


def _run_chunk(spec: ExperimentSpec, units) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Trials ``units`` (``(sweep value, trial)`` pairs, which may span cells):
    the chunk's columns (:func:`_draw_chunk`, which computes the streams of
    all its trials at once), ``proposed`` one frame at a time on read-only
    row views of those columns (:meth:`_Chunk.frame`), then the static
    solver, the MLE and the CRLB stacked over the chunk.

    Returns ``(ok, values)`` columns in unit order: for each estimator id its
    success mask ``ok (N,)`` and errors ``(N, 6)``, and for ``"crlb"`` its
    mask and per-block traces ``(N, 4)``.  Rows that are not ``ok`` hold no
    result.  A trial is ``ok`` when its estimate is finite, the MLE did not
    diverge, the static solver's record has ``success``, and the CRLB
    returned no :class:`EstimationError`.
    """
    chunk = _draw_chunk(spec, units)
    s, N = chunk.stack, len(units)
    x_hat = {est_id: np.full((N, 6), np.nan) for est_id in spec.estimators}  # NaN where a trial failed
    if "proposed" in x_hat:
        for k in range(N):
            try:
                x_hat["proposed"][k] = estimator.estimate(chunk.frame(k)).x_hat.as_vector()
            except EstimationError:
                pass
    if "tswls_static" in x_hat:
        try:
            static = baselines.tswls_static_batch(s)
        except EstimationError:
            static = []
        for k, r in enumerate(static):
            if r.success:
                x_hat["tswls_static"][k] = (r.position[0], r.position[1], 0.0, 0.0, r.offset, 0.0)
    if "mle" in x_hat:
        for k, r in enumerate(baselines.mle_batch(s, chunk.inits, spec.mle_max_iters)):
            if not (isinstance(r, EstimationError) or r.diverged):
                x_hat["mle"][k] = r.x_hat.as_vector()
    columns = {est_id: (np.isfinite(x).all(axis=1), x - chunk.x) for est_id, x in x_hat.items()}

    crlb = analysis.crlb_columns(chunk.x, s.t, chunk.p_m, s.c_tau, s.blocks)
    ok = np.array([not isinstance(r, EstimationError) for r in crlb])
    diag = np.array([np.diag(r[0]) if good else np.full(6, np.nan) for r, good in zip(crlb, ok)])
    columns["crlb"] = (ok, np.add.reduceat(diag, [b.start for b in _BLOCK_SLICES.values()], axis=1))
    return columns


def _cell_stats(spec: ExperimentSpec, cell: dict[str, tuple[np.ndarray, np.ndarray]]) -> dict[str, TrialStats]:
    """:class:`TrialStats` per estimator id of one sweep cell, from its
    ``(ok, values)`` columns (see :func:`_run_chunk`) in trial order."""
    ok, traces = cell["crlb"]
    crlb_mean = traces[ok].mean(axis=0) if ok.any() else np.full(4, np.nan)

    stats = {}
    for est_id in spec.estimators:
        ok, errors = cell[est_id]
        good = errors[ok]
        n_success = good.shape[0]
        if n_success:
            sq = good**2
            mse = (
                float(sq[:, 0:2].sum(axis=1).mean()),
                float(sq[:, 2:4].sum(axis=1).mean()),
                float(sq[:, 4].mean()),
                float(sq[:, 5].mean()),
            )
            bias = good.mean(axis=0)
            cdf = sq[:, 0:2].sum(axis=1)
        else:
            mse = (np.nan,) * 4
            bias = np.full(6, np.nan)
            cdf = np.empty(0)
        stats[est_id] = TrialStats(
            mse_position=mse[0],
            mse_velocity=mse[1],
            mse_offset=mse[2],
            mse_skew=mse[3],
            bias=bias,
            crlb_trace_position=float(crlb_mean[0]),
            crlb_trace_velocity=float(crlb_mean[1]),
            crlb_trace_offset=float(crlb_mean[2]),
            crlb_trace_skew=float(crlb_mean[3]),
            cdf_samples=cdf,
            divergence_count=spec.n_trials - n_success,
            n_success=n_success,
            n_trials=spec.n_trials,
        )
    return stats


def run_trials(spec: ExperimentSpec) -> dict[tuple[float, str], TrialStats]:
    """Run the experiment, one cell of :class:`TrialStats` per
    (sweep value, estimator id).

    Per-trial estimator failures are recorded and excluded from the averages;
    they never abort the sweep.  The experiment's ``(sweep value, trial)``
    units, cell by cell in sweep order and in trial order within a cell, are
    cut into chunks of at most 256 units that may span cells.  Per chunk,
    the streams of all its trials are computed at once, under the unchanged
    ``base_seed XOR i`` / ``spawn(3)`` contract; the draws run per trial from
    those streams, and ``proposed`` per trial on row views of the chunk's
    read-only columns; the frames, the static solver, the MLE and the CRLB
    run once, stacked.  Each returns its outcomes as columns.  Those columns
    are cut at cell boundaries, the slices of a cell that spans chunks are
    joined, and each cell is reduced, in trial order, once its last trial is
    done.  All of it runs on the calling thread.
    """
    n_trials = spec.n_trials
    n_units = len(spec.sweep_values) * n_trials
    results: dict[tuple[float, str], TrialStats] = {}
    pending: list = []  # column slices of the cell in progress, one dict per chunk
    for start in range(0, n_units, _CHUNK):
        stop = min(start + _CHUNK, n_units)
        units = [(spec.sweep_values[k // n_trials], k % n_trials) for k in range(start, stop)]
        columns = _run_chunk(spec, units)
        cuts = [start, *range((start // n_trials + 1) * n_trials, stop, n_trials), stop]
        for lo, hi in zip(cuts, cuts[1:]):
            rows = slice(lo - start, hi - start)
            pending.append({key: (ok[rows], values[rows]) for key, (ok, values) in columns.items()})
            if hi % n_trials == 0:
                cell = {key: tuple(np.concatenate(c) for c in zip(*(part[key] for part in pending))) for key in columns}
                sweep_value = spec.sweep_values[hi // n_trials - 1]
                results.update({(sweep_value, e): st for e, st in _cell_stats(spec, cell).items()})
                pending = []
    return results


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_sweep_csv(results: dict[tuple[float, str], TrialStats], spec: ExperimentSpec, path) -> None:
    """Sweep table: one row per (sweep value, estimator, state block)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["sweep_value", "estimator", "block", "mse", "bias_norm", "crlb", "n_success", "n_diverged"])
        for sweep_value in spec.sweep_values:
            for est_id in spec.estimators:
                st = results[(sweep_value, est_id)]
                for block in _BLOCKS:
                    w.writerow(
                        [
                            _fmt(sweep_value),
                            est_id,
                            block,
                            _fmt(st.mse(block)),
                            _fmt(st.bias_norm(block)),
                            _fmt(st.crlb_trace(block)),
                            st.n_success,
                            st.divergence_count,
                        ]
                    )


def write_cdf_csv(results: dict[tuple[float, str], TrialStats], spec: ExperimentSpec, path) -> None:
    """Empirical CDF of per-trial position squared errors.

    Only meaningful for single-sweep-value experiments (the schema has no
    sweep column); raises otherwise.
    """
    if len(spec.sweep_values) != 1:
        raise ValueError("CDF output is defined for single-sweep-value experiments")
    sweep_value = spec.sweep_values[0]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["estimator", "squared_error", "cdf"])
        for est_id in spec.estimators:
            samples = np.sort(results[(sweep_value, est_id)].cdf_samples)
            n = samples.size
            for i, s in enumerate(samples):
                w.writerow([est_id, _fmt(float(s)), _fmt((i + 1) / n)])
