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
256 units; a chunk may span cells.  Seeding, the scenario, the frame, the
MLE's initial state and the proposed estimator run one trial at a time; the
static solver (:func:`~seqtoa.baselines.tswls_static_batch`), the MLE
(:func:`~seqtoa.baselines.mle_batch`) and the CRLB
(:func:`~seqtoa.analysis.crlb_batch`) then run once per chunk, stacked over
its trials.  Each cell is reduced to :class:`TrialStats`, in trial order, as
soon as its last trial is done, so a run holds about one cell and one chunk
of trials.  The chunks are the same for every thread count, and one thread
pool serves the whole run.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import analysis, baselines, estimator
from .errors import EstimationError
from .model import (
    C_LIGHT,
    AgentTruth,
    NoiseSpec,
    Scenario,
    TargetState,
    simulate_frame,
)

SCHEMES = ("noise_sweep", "ltco_sweep", "random_topology")
ESTIMATOR_IDS = ("proposed", "tswls_static", "mle")

_CHUNK = 256  # most (sweep value, trial) units whose static solves, MLEs and CRLBs run stacked
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
            if not lo < hi:
                raise ValueError(f"{name} bounds must be well-ordered, got {(lo, hi)}")
        if self.n_agents < 1 or self.slot_interval <= 0:
            raise ValueError("need n_agents >= 1 and slot_interval > 0")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: scheme, trial count, seed, sweep axis, estimators.

    ``topology`` is a fixed :class:`Scenario` for the sweep schemes (defaults
    to the packaged fixed topology) or :class:`TopologyBounds` for the
    random-topology scheme.
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
        object.__setattr__(self, "sweep_values", tuple(float(v) for v in self.sweep_values))
        object.__setattr__(self, "estimators", tuple(self.estimators))


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


def sample_random_topology(bounds: TopologyBounds, rng: np.random.Generator) -> Scenario:
    """Draw one random scenario.

    Draw order (fixed for reproducibility): agent positions, agent clock
    offsets, target position, target velocity, target offset, target skew,
    per-agent variances.
    """
    M = bounds.n_agents
    t = bounds.slot_interval * np.arange(M)

    pos = rng.uniform(bounds.agent_xy[0], bounds.agent_xy[1], size=(M, 2))
    T_m = rng.uniform(bounds.agent_offset_ns[0], bounds.agent_offset_ns[1], size=M) * 1e-9 * C_LIGHT
    target_p = rng.uniform(bounds.target_xy[0], bounds.target_xy[1], size=2)
    target_v = rng.uniform(bounds.velocity[0], bounds.velocity[1], size=2)
    target_T = rng.uniform(bounds.target_offset_ns[0], bounds.target_offset_ns[1]) * 1e-9 * C_LIGHT
    target_omega = rng.uniform(bounds.skew_ppm[0], bounds.skew_ppm[1]) * 1e-6 * C_LIGHT
    sigma_db = rng.uniform(
        bounds.sigma_s_sq_db - bounds.agent_sigma_halfwidth_db,
        bounds.sigma_s_sq_db + bounds.agent_sigma_halfwidth_db,
        size=M,
    )

    agents = tuple(AgentTruth(p_m=pos[m], T_m=T_m[m], t_m=t[m]) for m in range(M))
    noise = NoiseSpec.from_db(bounds.sigma_tau_sq_db, sigma_db)
    return Scenario(
        agents=agents,
        target=TargetState(p=target_p, v=target_v, T=target_T, omega=target_omega),
        noise=noise,
    )


def _materialize_scenario(spec: ExperimentSpec, sweep_value: float, rng: np.random.Generator) -> Scenario:
    """Per-trial scenario for one sweep point.

    Fixed-topology schemes keep agent geometry/offsets and the target's
    position/velocity from the base scenario but redraw the target clock
    offset (uniform for non-LTCO; the sweep value itself for the LTCO sweep),
    the target skew, and the per-agent variances.
    """
    if spec.scheme == "random_topology":
        bounds = spec.topology if isinstance(spec.topology, TopologyBounds) else TopologyBounds()
        bounds = dataclasses.replace(
            bounds,
            sigma_tau_sq_db=spec.sigma_tau_sq_db,
            sigma_s_sq_db=sweep_value,
            agent_sigma_halfwidth_db=spec.agent_sigma_halfwidth_db,
        )
        return sample_random_topology(bounds, rng)

    base = spec.topology if isinstance(spec.topology, Scenario) else fixed_topology()
    M = base.n_agents

    if spec.scheme == "noise_sweep":
        sigma_s_sq_db = sweep_value
        target_T = rng.uniform(-spec.target_offset_ns, spec.target_offset_ns) * 1e-9 * C_LIGHT
    else:  # ltco_sweep: sweep value is the offset in range-equivalent meters
        sigma_s_sq_db = spec.sigma_s_sq_db
        target_T = float(sweep_value)

    target_omega = rng.uniform(-20.0, 20.0) * 1e-6 * C_LIGHT
    sigma_db = rng.uniform(
        sigma_s_sq_db - spec.agent_sigma_halfwidth_db,
        sigma_s_sq_db + spec.agent_sigma_halfwidth_db,
        size=M,
    )
    target = TargetState(p=base.target.p, v=base.target.v, T=target_T, omega=target_omega)
    noise = NoiseSpec.from_db(spec.sigma_tau_sq_db, sigma_db)
    return Scenario(agents=base.agents, target=target, noise=noise)


def _run_trial(spec: ExperimentSpec, sweep_value: float, trial: int):
    """The per-trial part of one trial.

    Returns its scenario, its frame, the MLE's initial state (None unless
    ``mle`` runs) and the error 6-vectors (None on failure) of the estimators
    that run one frame at a time.  The MLE init is drawn from the trial's
    estimator stream; the MLE itself runs stacked over the chunk.
    """
    seed_i = spec.base_seed ^ trial
    streams = np.random.SeedSequence(seed_i).spawn(3)
    rng_scenario = np.random.default_rng(streams[0])
    frame_seed = int(streams[1].generate_state(1, np.uint64)[0])
    rng_est = np.random.default_rng(streams[2])

    scenario = _materialize_scenario(spec, sweep_value, rng_scenario)
    frame = simulate_frame(scenario, frame_seed)
    truth = scenario.target.as_vector()

    errors = {}
    if "proposed" in spec.estimators:
        try:
            errors["proposed"] = _error(estimator.estimate(frame).x_hat.as_vector(), truth)
        except EstimationError:
            errors["proposed"] = None
    mle_init = truth + rng_est.normal(0.0, spec.mle_init_sigma, size=6) if "mle" in spec.estimators else None
    return scenario, frame, mle_init, errors


def _error(x: np.ndarray, truth: np.ndarray):
    """Error 6-vector of an estimate, or None if it is not finite."""
    return x - truth if np.all(np.isfinite(x)) else None


def _mle_errors(frames, inits, scenarios, max_iters: int) -> list:
    """Error 6-vectors (None on failure or divergence) of the MLE, stacked over ``frames``."""
    return [
        None if isinstance(r, EstimationError) or r.diverged else _error(r.x_hat.as_vector(), s.target.as_vector())
        for r, s in zip(baselines.mle_batch(frames, inits, max_iters), scenarios)
    ]


def _static_errors(frames, scenarios) -> list:
    """Error 6-vectors (None on failure) of the static solver, stacked over ``frames``."""
    try:
        results = baselines.tswls_static_batch(estimator.FrameStack.of(frames))
    except EstimationError:
        return [None] * len(frames)
    return [
        np.array([r.position[0], r.position[1], 0.0, 0.0, r.offset, 0.0]) - s.target.as_vector() if r.success else None
        for r, s in zip(results, scenarios)
    ]


def _crlb_traces(scenarios) -> list:
    """Per-block CRLB traces (None on failure), stacked over ``scenarios``."""
    traces = []
    for res in analysis.crlb_batch(scenarios):
        if isinstance(res, EstimationError):
            traces.append(None)
        else:
            diag = np.diag(res.crlb_x)
            traces.append((diag[0] + diag[1], diag[2] + diag[3], diag[4], diag[5]))
    return traces


def _run_chunk(spec: ExperimentSpec, units, pool: ThreadPoolExecutor | None):
    """Trials ``units`` (``(sweep value, trial)`` pairs, which may span cells):
    per-trial work (on ``pool`` if given), then the static solver, the MLE
    and the CRLB stacked over the chunk.

    Returns one ``(errors by estimator id, CRLB traces or None)`` per unit, in
    unit order.
    """
    if pool is None:
        trials = [_run_trial(spec, v, i) for v, i in units]
    else:
        trials = list(pool.map(lambda unit: _run_trial(spec, *unit), units))
    scenarios, frames, inits, errors = zip(*trials)
    if "tswls_static" in spec.estimators:
        for e, static in zip(errors, _static_errors(frames, scenarios)):
            e["tswls_static"] = static
    if "mle" in spec.estimators:
        for e, mle in zip(errors, _mle_errors(frames, inits, scenarios, spec.mle_max_iters)):
            e["mle"] = mle
    return list(zip(errors, _crlb_traces(scenarios)))


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


def run_trials(spec: ExperimentSpec, threads: int = 1) -> dict[tuple[float, str], TrialStats]:
    """Run the experiment, one cell of :class:`TrialStats` per
    (sweep value, estimator id).

    Per-trial estimator failures are recorded and excluded from the averages;
    they never abort the sweep.  The experiment's ``(sweep value, trial)``
    units, cell by cell in sweep order and in trial order within a cell, are
    cut into chunks of at most 256 units; a chunk may span cells.  Within a
    chunk the trials are independent and may run on one thread pool shared
    by the whole run: seeding, scenario, frame, the MLE's initial state and
    ``proposed`` run per trial; the static solver, the MLE and the CRLB then
    run once, stacked over the chunk.  Each cell is reduced, in trial order,
    as soon as its last trial is done.  The chunks do not depend on
    ``threads``, so the aggregation is deterministic regardless of
    ``threads``.
    """
    n_trials = spec.n_trials
    n_units = len(spec.sweep_values) * n_trials
    results: dict[tuple[float, str], TrialStats] = {}
    cell: list = []  # finished trials of the cell in progress
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else contextlib.nullcontext() as pool:
        for start in range(0, n_units, _CHUNK):
            stop = min(start + _CHUNK, n_units)
            units = [(spec.sweep_values[k // n_trials], k % n_trials) for k in range(start, stop)]
            for (sweep_value, trial), outcome in zip(units, _run_chunk(spec, units, pool)):
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
