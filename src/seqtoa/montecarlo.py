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

An experiment is one list of ``(sweep value, trial)`` units, cell by cell in
sweep order and in trial order within a cell, cut into chunks of at most 256
units; a chunk may span cells.  A chunk is built from columns.  The streams
of all its trials are computed at once, under the unchanged contract above:
the ``SeedSequence`` hashing behind ``spawn(3)`` runs as array arithmetic
over the chunk and gives each stream's eight seed words
(:func:`_stream_states`).  Each trial's streams are ``PCG64`` generators
seeded from those words by numpy itself, as ``default_rng`` seeds them, and
each fills the trial's row in one call: uniforms, the frame's normals, the
MLE's initial-state normals.  The scheme's draw table maps the chunk's
uniforms onto its columns at once, bit for bit as per-call ``uniform`` draws
(:func:`_map_draws`); each table is expanded into per-draw columns once and
cached by the table (:func:`_expand`), and each bounds' read-only slot times
are made once (:func:`_slot_times`).  :func:`sample_random_topology` is the
random-topology table on a batch of one and uses the same cached arrays, so
it costs about 20 us for M = 10 on the 2-core reference host.  The noise,
TOAs and broadcasts of all its frames, the
static solver (:func:`~seqtoa.baselines.tswls_static_batch`), the MLE
(:func:`~seqtoa.baselines.mle_batch`) and the CRLB
(:func:`~seqtoa.analysis.crlb_columns`) then run once per chunk, stacked
over its trials, and return columns, NaN where a trial failed; no per-trial
:class:`Scenario`, report or result is built.  The chunk's observed and
noise columns are checked finite once and made read-only.  The proposed
estimator runs one frame at a time, through
:func:`~seqtoa.estimator.estimate` on an :class:`ObservedFrame` whose arrays
are read-only row views of those columns: the benchmark checks that a sweep
notices a dropped second pass by replacing that function, so a stacked call
would escape the check until the check moves.  A chunk's outcomes are
columns as well, read from the stages' columns as they are: per estimator a
success mask and the errors of its estimates, and for the CRLB a mask and
the per-block traces (:func:`_run_chunk`).  The chunks' columns are joined
into one table of the run, and each cell is reduced to :class:`TrialStats`
from its rows, in trial order.  The whole run is on the calling thread.
"""

from __future__ import annotations

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
    _checked,
    _db_columns,
    _db_ok,
    _psd_factor,
    _read_only,
    _seal,
    _simulate,
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
                raise _SpecFieldError(name, f"bounds must be finite and well-ordered, with a finite width, got {(lo, hi)}")
            object.__setattr__(self, name, (float(lo), float(hi)))
        # a skew draw is scaled by 1e-6 * C_LIGHT (about 300) into m/s; the offsets' 1e-9 * C_LIGHT is below 1
        if not np.isfinite(max(map(abs, self.skew_ppm)) * 1e-6 * C_LIGHT):
            raise _SpecFieldError("skew_ppm", f"bounds must give finite skews once scaled by 1e-6 * C_LIGHT, got {self.skew_ppm}")
        _check_integer(self, "n_agents", 1)
        if not 0 < self.slot_interval < np.inf:
            raise _SpecFieldError("slot_interval", f"must be finite and > 0, got {self.slot_interval!r}")
        if not np.isfinite(self.slot_interval * (self.n_agents - 1)):  # the last slot time
            raise _SpecFieldError(
                "slot_interval", f"slot_interval * (n_agents - 1) must be finite, got {self.slot_interval!r} * {self.n_agents - 1}"
            )
        _check_db(self.sigma_tau_sq_db, self.agent_sigma_halfwidth_db, [("sigma_s_sq_db", self.sigma_s_sq_db)])
        for field in ("slot_interval", "sigma_tau_sq_db", "sigma_s_sq_db", "agent_sigma_halfwidth_db"):
            object.__setattr__(self, field, float(getattr(self, field)))


_INT64_MAX = 2**63 - 1
# above every standard normal numpy's Generator draws: its ziggurat takes the
# tail from 53-bit uniforms, which bounds a draw's magnitude near 13.7
_NORMAL_BOUND = 16.0


def _check_integer(spec, field: str, lo: int) -> None:
    """Store ``spec``'s ``field`` as an ``int`` if it is an integer from ``lo``
    to the largest signed 64-bit integer (a bool, a float such as ``2.0`` or
    ``2.5``, or a string is not one), else raise :class:`_SpecFieldError`."""
    value = getattr(spec, field)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise _SpecFieldError(field, f"expected an integer, got {value!r}")
    if not lo <= value <= _INT64_MAX:
        raise _SpecFieldError(field, f"expected an integer from {lo} to {_INT64_MAX}, got {value!r}")
    object.__setattr__(spec, field, int(value))


class _SpecFieldError(ValueError):
    """An :class:`ExperimentSpec` or :class:`TopologyBounds` value the
    experiment cannot use; ``field`` names it (``sweep_values[i]`` for one
    sweep value)."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def _check_db(sigma_tau_sq_db: float, halfwidth_db: float, centers: list[tuple[str, float]]) -> None:
    """Raise :class:`_SpecFieldError` unless every dB value a spec turns into
    a variance gives a finite, positive one: the TOA variance, and each agent
    variance range ``center +- halfwidth_db`` of the named ``centers``."""
    if not 0.0 <= halfwidth_db < np.inf:
        raise _SpecFieldError("agent_sigma_halfwidth_db", f"must be finite and >= 0, got {halfwidth_db!r}")
    if not _db_ok(sigma_tau_sq_db):
        raise _SpecFieldError("sigma_tau_sq_db", f"{sigma_tau_sq_db!r} dB is {_DB_RANGE}")
    for field, center in centers:
        if not _db_ok(center):
            raise _SpecFieldError(field, f"{center!r} dB is {_DB_RANGE}")
        lo, hi = center - halfwidth_db, center + halfwidth_db
        if not (_db_ok(lo) and _db_ok(hi)):
            raise _SpecFieldError(
                "agent_sigma_halfwidth_db", f"{field} +- agent_sigma_halfwidth_db spans {lo!r} to {hi!r} dB, {_DB_RANGE}"
            )


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
    ``mle_max_iters`` outside 1 to 2**63 - 1, a non-finite sweep value, an
    ``mle_init_sigma`` that is not positive or whose normal draws can
    overflow, or a dB value (``sigma_tau_sq_db``,
    and ``agent_sigma_halfwidth_db`` around ``sigma_s_sq_db`` and around the
    sweep values of the schemes that sweep it) that gives no finite, positive
    variance.  The error's ``field`` names the field at fault
    (``sweep_values[1]`` for one sweep value), as for :class:`TopologyBounds`.
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
            raise _SpecFieldError("scheme", f"expected one of {SCHEMES}, got {self.scheme!r}")
        # the rule of a document's integer fields; it also keeps every trial
        # seed base_seed ^ i below 2**64, two 32-bit words (_stream_states)
        for field, lo in (("n_trials", 1), ("base_seed", 0), ("mle_max_iters", 1)):
            _check_integer(self, field, lo)
        if len(self.sweep_values) == 0:
            raise _SpecFieldError("sweep_values", "must be non-empty")
        # the MLE starts each trial from the truth plus mle_init_sigma * N(0, I)
        if not (self.mle_init_sigma > 0.0 and np.isfinite(_NORMAL_BOUND * self.mle_init_sigma)):
            raise _SpecFieldError("mle_init_sigma", f"must be > 0 and give finite draws, got {self.mle_init_sigma!r}")
        if len(self.estimators) == 0:
            raise _SpecFieldError("estimators", "must be non-empty")
        for i, e in enumerate(self.estimators):
            if e not in ESTIMATOR_IDS:
                raise _SpecFieldError(f"estimators[{i}]", f"unknown estimator id {e!r}; known: {ESTIMATOR_IDS}")
        if len(set(self.estimators)) != len(self.estimators):
            raise _SpecFieldError("estimators", f"must not repeat an id, got {tuple(self.estimators)}")
        kind = TopologyBounds if self.scheme == "random_topology" else Scenario
        if not (self.topology is None or isinstance(self.topology, kind)):
            raise _SpecFieldError("topology", f"must be a {kind.__name__} or None for a {self.scheme} experiment")
        # the noise sweep draws offsets uniformly on [-target_offset_ns, target_offset_ns]
        if not (self.target_offset_ns >= 0.0 and np.isfinite(2.0 * self.target_offset_ns)):
            raise _SpecFieldError("target_offset_ns", f"must be >= 0 and give a finite draw range, got {self.target_offset_ns!r}")
        sweep_values = tuple(float(v) for v in self.sweep_values)
        for i, v in enumerate(sweep_values):
            if not np.isfinite(v):
                raise _SpecFieldError(f"sweep_values[{i}]", f"expected a finite number, got {v!r}")
        if len(set(sweep_values)) != len(sweep_values):
            raise _SpecFieldError("sweep_values", f"must not repeat a value, got {sweep_values}")
        object.__setattr__(self, "sweep_values", sweep_values)
        object.__setattr__(self, "estimators", tuple(self.estimators))
        # the agent variance ranges are drawn around sigma_s_sq_db and around
        # every sweep value of the schemes that sweep it (ltco_sweep sweeps
        # offsets in meters)
        centers = [("sigma_s_sq_db", self.sigma_s_sq_db)]
        if self.scheme != "ltco_sweep":
            centers += [(f"sweep_values[{i}]", v) for i, v in enumerate(sweep_values)]
        _check_db(self.sigma_tau_sq_db, self.agent_sigma_halfwidth_db, centers)
        for field in ("sigma_tau_sq_db", "sigma_s_sq_db", "agent_sigma_halfwidth_db", "target_offset_ns", "mle_init_sigma"):
            object.__setattr__(self, field, float(getattr(self, field)))


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


@functools.lru_cache(maxsize=64)
def _expand(table: tuple) -> np.ndarray:
    """The read-only rows ``(low, width, unit, scale)`` ``(4, K)`` of a draw
    table (:func:`_map_draws`), one column per draw: ``width = high - low``,
    and ``unit`` and ``scale`` 1.0 for a plain range.  Cached by the table,
    so a scheme expands each of its tables once; tables that are equal as
    tuples (as 0.0 and -0.0 are) give the same draws bit for bit."""
    ends = np.array([(low, high, unit or 1.0, C_LIGHT if unit else 1.0) for low, high, _, unit in table])
    ends[:, 1] -= ends[:, 0]
    return _read_only(np.repeat(ends.T, [count for _, _, count, _ in table], axis=1))


def _map_draws(tables, cell, u: np.ndarray) -> np.ndarray:
    """The draws of uniforms ``u``, row k under the table ``tables[cell[k]]`` (all under ``tables[cell]`` for one index).

    A draw table is a tuple of ``(low, high, count, unit)`` blocks in draw
    order; the tables of one map differ only in their ranges.  A block's
    ``count`` uniforms become ``low + (high - low) * u``, as
    ``Generator.uniform`` makes them; a clock range's (``unit`` 1e-9 for ns,
    1e-6 for ppm, None for the others) are then times ``unit``, then times
    ``C_LIGHT``.  Each table is expanded once (:func:`_expand`); one table
    maps every row, so ``cell`` is read only when there are more.
    """
    if len(tables) == 1:
        low, width, unit, scale = _expand(tables[0])
    else:
        low, width, unit, scale = np.stack([_expand(table) for table in tables])[cell].swapaxes(0, 1)
    return (low + width * u) * unit * scale  # a plain range's factors are 1.0, which is exact


def _topology_table(bounds: TopologyBounds, center: float, halfwidth: float) -> tuple:
    """The random-topology draw table (:func:`_map_draws`), in the draw order
    (fixed for reproducibility) that :func:`_topology_columns` reads: agent
    positions and clock offsets, target position, velocity, offset and skew,
    and per-agent variances uniform within ``halfwidth`` dB of ``center``."""
    M = bounds.n_agents
    return ((*bounds.agent_xy, 2 * M, None), (*bounds.agent_offset_ns, M, 1e-9),
            (*bounds.target_xy, 2, None), (*bounds.velocity, 2, None),
            (*bounds.target_offset_ns, 1, 1e-9), (*bounds.skew_ppm, 1, 1e-6),
            (center - halfwidth, center + halfwidth, M, None))


@functools.lru_cache(maxsize=64)
def _slot_times(slot_interval: float, n_agents: int) -> np.ndarray:
    """The read-only slot times ``slot_interval * arange(n_agents)`` of a
    random topology, made once per bounds; finite, as :class:`TopologyBounds`
    checks its last slot time."""
    return _read_only(slot_interval * np.arange(n_agents))


def _topology_columns(draws: np.ndarray, M: int) -> tuple[np.ndarray, ...]:
    """Views ``p_m``, ``T_m``, ``x`` and agent dB of random-topology draws ``(..., 4M + 6)``."""
    p_m = draws[..., : 2 * M].reshape(*draws.shape[:-1], M, 2)
    return p_m, draws[..., 2 * M : 3 * M], draws[..., 3 * M : 3 * M + 6], draws[..., 3 * M + 6 :]


def _sweep_table(spec: ExperimentSpec, value: float, M: int) -> tuple:
    """A fixed-topology sweep's draw table (:func:`_map_draws`) at sweep value
    ``value``: the noise sweep's target offset, then the target skew and the
    per-agent variances, uniform within the halfwidth of the sweep value
    (noise sweep) or of ``sigma_s_sq_db`` (LTCO sweep)."""
    hw, skew = spec.agent_sigma_halfwidth_db, (-20.0, 20.0, 1, 1e-6)
    if spec.scheme == "noise_sweep":
        return (-spec.target_offset_ns, spec.target_offset_ns, 1, 1e-9), skew, (value - hw, value + hw, M, None)
    return skew, (spec.sigma_s_sq_db - hw, spec.sigma_s_sq_db + hw, M, None)


def sample_random_topology(bounds: TopologyBounds, rng: np.random.Generator) -> Scenario:
    """One random scenario with the bounds' own noise levels: the random-topology
    draw table (:func:`_topology_table`) on a batch of one, ``rng.random(4M + 6)``.
    The slot times are the bounds' cached read-only ones (:func:`_slot_times`)."""
    M = bounds.n_agents
    table = _topology_table(bounds, bounds.sigma_s_sq_db, bounds.agent_sigma_halfwidth_db)
    draws = _map_draws((table,), 0, rng.random(4 * M + 6))
    _seal(draws=draws)  # so its views below are read-only
    p_m, T_m, x, sigma_db = _topology_columns(draws, M)
    c_tau, blocks = _db_columns(bounds.sigma_tau_sq_db, sigma_db)
    _seal(c_tau=c_tau, blocks=blocks)
    T, omega = x[4:6].tolist()
    target = _checked(TargetState, p=x[0:2], v=x[2:4], T=T, omega=omega)
    noise = _checked(NoiseSpec, c_tau=c_tau, blocks=blocks)
    agents = _checked(Agents, t=_slot_times(bounds.slot_interval, M), p_m=p_m, T_m=T_m)
    return _checked(Scenario, agents=agents, target=target, noise=noise)


# --- the random streams of a chunk -------------------------------------------
#
# numpy documents the algorithm behind the reproducibility contract.  A
# SeedSequence hashes its entropy words into a pool of four 32-bit words, and
# its generate_state hashes the pool into output words, each with a running
# sequence of hash constants.  The functions below run the same uint32
# arithmetic on a whole chunk's trials at once; numpy's PCG64 then seeds
# itself from each stream's output words (_Words).  tests/test_montecarlo.py
# (TestStreamStates) pins them to numpy's SeedSequence and default_rng.

_MASK32 = 0xFFFFFFFF


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


class _Words(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose output is ``words (8,)``, another one's
    ``generate_state(8, np.uint32)``; ``PCG64`` reads them as four 64-bit words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words.view(dtype)[:n_words]


def _stream_states(base_seed: int, trials, n_streams: int) -> list[np.ndarray]:
    """The seed words ``(N, 8)`` uint32 of the first ``n_streams`` (2 or 3)
    streams of each of ``trials``: ``PCG64(_Words(row))`` has the state
    ``default_rng`` gives the stream under the reproducibility contract.
    With ``streams = SeedSequence(base_seed ^ trial).spawn(3)``, they are the
    scenario stream ``default_rng(streams[0])``, the frame stream
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
    return [_generate(pool, 8) for pool in pools]


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

    Each trial's ``PCG64`` streams, seeded from the chunk's stream words
    (:func:`_stream_states`), make one fill each into the trial's row: the
    scenario stream's uniforms, the frame stream's M TOA then 3M broadcast
    standard normals, and the MLE stream's six, which become its initial
    state as ``normal(0.0, mle_init_sigma)`` scales them, plus the truth.
    Each sweep value's draw table maps the uniforms (:func:`_map_draws`).
    The noise columns and the simulation kernel of
    :func:`~seqtoa.model.simulate_frame` then run on the whole chunk.  The
    noise and observed columns are checked finite once, raising a
    :class:`~seqtoa.model.NonFiniteFrameError` worded as :class:`NoiseSpec`
    or :class:`ObservedFrame` would word it for a trial, and made read-only.
    """
    N = len(units)
    cells, cell = np.unique([value for value, _ in units], return_inverse=True)  # the chunk's sweep values
    if spec.scheme == "random_topology":
        bounds = spec.topology or TopologyBounds()
        M = bounds.n_agents
        t = np.broadcast_to(_slot_times(bounds.slot_interval, M), (N, M))
        tables = [_topology_table(bounds, value, spec.agent_sigma_halfwidth_db) for value in cells.tolist()]
    else:
        base = spec.topology or fixed_topology()
        a, M = base.agents, base.n_agents
        t, p_m, T_m = (np.broadcast_to(col, (N, *col.shape)) for col in (a.t, a.p_m, a.T_m))
        x = np.empty((N, 6))
        x[:, 0:2], x[:, 2:4], x[:, 4] = base.target.p, base.target.v, cells[cell]  # LTCO; the noise sweep draws it
        tables = [_sweep_table(spec, value, M) for value in cells.tolist()]
    u, z = np.empty((N, sum(count for _, _, count, _ in tables[0]))), np.empty((N, 4 * M))
    inits = np.empty((N, 6)) if "mle" in spec.estimators else None
    streams = _stream_states(spec.base_seed, [trial for _, trial in units], 2 if inits is None else 3)
    for k, words in enumerate(zip(*streams)):
        rng, frame_rng, *init_rng = (np.random.Generator(np.random.PCG64(_Words(w))) for w in words)
        rng.random(out=u[k])
        frame_rng.standard_normal(out=z[k])
        for init in init_rng:  # the MLE's stream, when it runs
            init.standard_normal(out=inits[k])
    draws = _map_draws(tables, cell, u)
    if spec.scheme == "random_topology":
        p_m, T_m, x, sigma_db = _topology_columns(draws, M)
    else:  # the last drawn target entries (offset and skew, or skew), then the agent variances
        x[:, 6 + M - draws.shape[1] :], sigma_db = draws[:, :-M], draws[:, -M:]
    c_tau, blocks = _db_columns(spec.sigma_tau_sq_db, sigma_db)
    _seal(c_tau=c_tau, blocks=blocks, t=t)  # NoiseSpec's order, then the kernel checks ObservedFrame's
    tau, p_hat, T_hat = _simulate(x, t, p_m, T_m, c_tau, _psd_factor(blocks, "C_beta"), z)
    stack = estimator.FrameStack(t=t, tau=tau, p_hat=p_hat, T_hat=T_hat, c_tau=c_tau, blocks=blocks)
    if inits is not None:  # Generator.normal(0.0, mle_init_sigma)'s loc + scale * z, plus the truth
        inits = 0.0 + spec.mle_init_sigma * inits + x
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
    result.  Every stacked stage returns columns, NaN in the rows of the
    trials it failed; a trial is ``ok`` when its estimate is finite and the
    MLE did not diverge, and a CRLB is ``ok`` when it has no error.
    """
    chunk = _draw_chunk(spec, units)
    s, N = chunk.stack, len(units)
    x_hat = {}  # NaN where a trial failed
    if "proposed" in spec.estimators:
        x_hat["proposed"] = np.full((N, 6), np.nan)
        for k in range(N):
            try:
                x_hat["proposed"][k] = estimator.estimate(chunk.frame(k)).x_hat.as_vector()
            except EstimationError:
                pass
    if "tswls_static" in spec.estimators:
        x_hat["tswls_static"] = np.zeros((N, 6))  # the static solver's velocity and skew are zero
        x_hat["tswls_static"][:, [0, 1, 4]] = baselines.tswls_static_batch(s)[0]
    if "mle" in spec.estimators:
        mle = baselines.mle_batch(s, chunk.inits, spec.mle_max_iters)
        x_hat["mle"] = np.where(mle.diverged[:, None], np.nan, mle.x)
    columns = {est_id: (np.isfinite(x).all(axis=1), x - chunk.x) for est_id, x in x_hat.items()}

    crlb_x, _, failed = analysis.crlb_columns(chunk.x, s.t, chunk.p_m, s.c_tau, s.blocks)
    ok = np.ones(N, dtype=bool)
    ok[list(failed)] = False
    diag = crlb_x.diagonal(axis1=1, axis2=2)
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
            block_sq = [(good[:, b] ** 2).sum(axis=1) for b in _BLOCK_SLICES.values()]
            mse = [float(sq.mean()) for sq in block_sq]
            bias = good.mean(axis=0)
            cdf = block_sq[0]
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
    they never abort the sweep.  The units are cut into chunks of at most 256
    that may span cells, each drawn and run as the module docstring says and
    returning its outcomes as columns.  Those columns are joined once per key
    into a table of the run, and each cell is reduced from its rows, in trial
    order.  All of it runs on the calling thread.
    """
    n_trials = spec.n_trials
    units = [(value, trial) for value in spec.sweep_values for trial in range(n_trials)]
    chunks = [_run_chunk(spec, units[start : start + _CHUNK]) for start in range(0, len(units), _CHUNK)]
    table = {key: tuple(np.concatenate(c) for c in zip(*(chunk[key] for chunk in chunks))) for key in chunks[0]}
    results: dict[tuple[float, str], TrialStats] = {}
    for i, sweep_value in enumerate(spec.sweep_values):
        rows = slice(i * n_trials, (i + 1) * n_trials)
        cell = {key: (ok[rows], values[rows]) for key, (ok, values) in table.items()}
        results.update({(sweep_value, e): st for e, st in _cell_stats(spec, cell).items()})
    return results


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_sweep_csv(results: dict[tuple[float, str], TrialStats], spec: ExperimentSpec, path) -> None:
    """Sweep table: one row per (sweep value, estimator, state block).

    Every field is a number, an estimator id or a block name, none of which
    a CSV quotes, so the rows are formatted directly, in one pass."""
    lines = ["sweep_value,estimator,block,mse,bias_norm,crlb,n_success,n_diverged\n"]
    for sweep_value in spec.sweep_values:
        value = _fmt(sweep_value)
        for est_id in spec.estimators:
            st = results[(sweep_value, est_id)]
            lines += (
                f"{value},{est_id},{block},{_fmt(st.mse(block))},{_fmt(st.bias_norm(block))},"
                f"{_fmt(st.crlb_trace(block))},{st.n_success},{st.divergence_count}\n"
                for block in _BLOCKS
            )
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def write_cdf_csv(results: dict[tuple[float, str], TrialStats], spec: ExperimentSpec, path) -> None:
    """Empirical CDF of per-trial position squared errors, its rows formatted
    directly, as :func:`write_sweep_csv` formats its own.

    Only meaningful for single-sweep-value experiments (the schema has no
    sweep column); raises otherwise.
    """
    if len(spec.sweep_values) != 1:
        raise ValueError("CDF output is defined for single-sweep-value experiments")
    sweep_value = spec.sweep_values[0]
    lines = ["estimator,squared_error,cdf\n"]
    for est_id in spec.estimators:
        samples = np.sort(results[(sweep_value, est_id)].cdf_samples)
        n = samples.size
        lines += (f"{est_id},{_fmt(s)},{_fmt((i + 1) / n)}\n" for i, s in enumerate(samples.tolist()))
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))
