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
256 units; a chunk may span cells.  A chunk is built from columns: each
trial is seeded and draws its scenario, its frame's standard normals and
the MLE's initial state on its own, as the contract above says, into its
row of the chunk's arrays (target states, agent columns, noise columns).
The noise, TOAs and broadcasts of all its frames, the static solver
(:func:`~seqtoa.baselines.tswls_static_batch`), the MLE
(:func:`~seqtoa.baselines.mle_batch`) and the CRLB
(:func:`~seqtoa.analysis.crlb_columns`) then run once per chunk, stacked
over its trials; no per-trial :class:`Scenario` is built.  The proposed
estimator runs one frame at a time, through
:func:`~seqtoa.estimator.estimate` on an :class:`ObservedFrame` built for
it: the benchmark checks that a sweep notices a dropped second pass by
replacing that function, so a stacked call would escape the check until
the check moves.  Each cell is reduced to :class:`TrialStats`, in trial
order, as soon as its last trial is done, so a run holds about one cell and
one chunk of trials.  The whole run is on the calling thread.
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
    """Draw ranges for the random-topology scheme (meters, m/s, ns, ppm)."""

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
    among others a non-finite sweep value, or a dB value (``sigma_tau_sq_db``,
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
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if len(self.sweep_values) == 0:
            raise ValueError("sweep_values must be non-empty")
        if self.mle_max_iters < 1 or not self.mle_init_sigma > 0:
            raise ValueError("need mle_max_iters >= 1 and mle_init_sigma > 0")
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


@dataclass(frozen=True, eq=False)
class _Chunk:
    """The trials of one chunk as columns; row k belongs to its k-th unit."""

    x: np.ndarray  # (N, 6) true target states
    p_m: np.ndarray  # (N, M, 2) true agent positions
    T_m: np.ndarray  # (N, M) true agent offsets
    stack: estimator.FrameStack  # slot times, observations and noise columns
    inits: np.ndarray | None  # (N, 6) the MLE's initial states, if it runs

    def noise(self, k: int) -> NoiseSpec:
        return NoiseSpec(c_tau=self.stack.c_tau[k], blocks=self.stack.blocks[k])

    def frame(self, k: int) -> ObservedFrame:
        s = self.stack
        return ObservedFrame(t=s.t[k], tau=s.tau[k], p_hat=s.p_hat[k], T_hat=s.T_hat[k], noise=self.noise(k))


def _draw_chunk(spec: ExperimentSpec, units) -> _Chunk:
    """Draw and simulate the trials ``units`` (``(sweep value, trial)`` pairs).

    Each trial is seeded and drawn on its own, as the reproducibility
    contract says, into its row of the chunk's columns.
    Fixed-topology schemes keep the base scenario's agents and target
    position/velocity and draw the target clock offset (uniform on the noise
    sweep; the sweep value itself on the LTCO sweep), the target skew and the
    per-agent variances; the random-topology scheme draws a whole scenario.
    The frame stream then gives M TOA and 3M broadcast standard normals.  The
    noise columns, the TOAs and the broadcasts follow for the whole chunk at
    once, as :func:`~seqtoa.model.simulate_frame` computes them for one frame.
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
    for k, (value, trial) in enumerate(units):
        streams = np.random.SeedSequence(spec.base_seed ^ trial).spawn(3)
        rng = np.random.default_rng(streams[0])
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
        frame_rng = np.random.default_rng(int(streams[1].generate_state(1, np.uint64)[0]))
        frame_rng.standard_normal(out=z_tau[k])
        frame_rng.standard_normal(out=z_beta[k])
        if inits is not None:
            inits[k] = np.random.default_rng(streams[2]).normal(0.0, spec.mle_init_sigma, size=6)

    c_tau, blocks = _db_columns(spec.sigma_tau_sq_db, sigma_db)
    tau, p_hat, T_hat = _observe(x, t, p_m, T_m, z_tau * np.sqrt(c_tau), _broadcast_errors(blocks, z_beta))
    stack = estimator.FrameStack(t=t, tau=tau, p_hat=p_hat, T_hat=T_hat, c_tau=c_tau, blocks=blocks)
    if inits is not None:
        inits += x
    return _Chunk(x=x, p_m=p_m, T_m=T_m, stack=stack, inits=inits)


def _error(x: np.ndarray, truth: np.ndarray):
    """Error 6-vector of an estimate, or None if it is not finite."""
    return x - truth if np.all(np.isfinite(x)) else None


def _proposed_error(frame: ObservedFrame, truth: np.ndarray):
    """Error 6-vector (None on failure) of the proposed estimator on one frame."""
    try:
        return _error(estimator.estimate(frame).x_hat.as_vector(), truth)
    except EstimationError:
        return None


def _mle_errors(chunk: _Chunk, max_iters: int) -> list:
    """Error 6-vectors (None on failure or divergence) of the MLE, stacked over the chunk."""
    return [
        None if isinstance(r, EstimationError) or r.diverged else _error(r.x_hat.as_vector(), truth)
        for r, truth in zip(baselines.mle_batch(chunk.stack, chunk.inits, max_iters), chunk.x)
    ]


def _static_errors(chunk: _Chunk) -> list:
    """Error 6-vectors (None on failure) of the static solver, stacked over the chunk."""
    try:
        results = baselines.tswls_static_batch(chunk.stack)
    except EstimationError:
        return [None] * len(chunk.stack)
    return [
        np.array([r.position[0], r.position[1], 0.0, 0.0, r.offset, 0.0]) - truth if r.success else None
        for r, truth in zip(results, chunk.x)
    ]


def _crlb_traces(chunk: _Chunk) -> list:
    """Per-block CRLB traces (None on failure), stacked over the chunk."""
    s = chunk.stack
    traces = []
    for res in analysis.crlb_columns(chunk.x, s.t, chunk.p_m, s.c_tau, s.blocks):
        if isinstance(res, EstimationError):
            traces.append(None)
        else:
            diag = np.diag(res[0])
            traces.append((diag[0] + diag[1], diag[2] + diag[3], diag[4], diag[5]))
    return traces


def _run_chunk(spec: ExperimentSpec, units):
    """Trials ``units`` (``(sweep value, trial)`` pairs, which may span cells):
    the chunk's columns (:func:`_draw_chunk`), ``proposed`` one frame at a
    time, then the static solver, the MLE and the CRLB stacked over the
    chunk.

    Returns one ``(errors by estimator id, CRLB traces or None)`` per unit, in
    unit order.
    """
    chunk = _draw_chunk(spec, units)
    errors = [{} for _ in units]
    if "proposed" in spec.estimators:
        for k, e in enumerate(errors):
            e["proposed"] = _proposed_error(chunk.frame(k), chunk.x[k])
    if "tswls_static" in spec.estimators:
        for e, static in zip(errors, _static_errors(chunk)):
            e["tswls_static"] = static
    if "mle" in spec.estimators:
        for e, mle in zip(errors, _mle_errors(chunk, spec.mle_max_iters)):
            e["mle"] = mle
    return list(zip(errors, _crlb_traces(chunk)))


def _cell_stats(spec: ExperimentSpec, trials) -> dict[str, TrialStats]:
    """:class:`TrialStats` per estimator id of one sweep cell, from its
    ``(errors by estimator id, CRLB traces or None)`` in trial order."""
    crlb_rows = np.array([t for _, t in trials if t is not None], dtype=float)
    crlb_mean = crlb_rows.mean(axis=0) if crlb_rows.size else np.full(4, np.nan)

    stats = {}
    for est_id in spec.estimators:
        errs = [e[est_id] for e, _ in trials]
        ok = np.array([e for e in errs if e is not None], dtype=float).reshape(-1, 6)
        n_success = ok.shape[0]
        if n_success:
            sq = ok**2
            mse = (
                float(sq[:, 0:2].sum(axis=1).mean()),
                float(sq[:, 2:4].sum(axis=1).mean()),
                float(sq[:, 4].mean()),
                float(sq[:, 5].mean()),
            )
            bias = ok.mean(axis=0)
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
    seeding, the draws and ``proposed`` run per trial, and the frames, the
    static solver, the MLE and the CRLB run once, stacked.  Each cell is
    reduced, in trial order, once its last trial is done.  All of it runs on
    the calling thread.
    """
    n_trials = spec.n_trials
    n_units = len(spec.sweep_values) * n_trials
    results: dict[tuple[float, str], TrialStats] = {}
    cell: list = []  # finished trials of the cell in progress
    for start in range(0, n_units, _CHUNK):
        stop = min(start + _CHUNK, n_units)
        units = [(spec.sweep_values[k // n_trials], k % n_trials) for k in range(start, stop)]
        for (sweep_value, trial), outcome in zip(units, _run_chunk(spec, units)):
            cell.append(outcome)
            if trial == n_trials - 1:
                results.update({(sweep_value, e): st for e, st in _cell_stats(spec, cell).items()})
                cell = []
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
