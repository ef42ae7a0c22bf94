"""JSON (de)serialization of the public file formats.

Schemas (all floats in SI units per the package conventions; variances in dB
re 1 m^2 where the key says so; every number finite, so ``NaN`` and
``Infinity`` are schema errors, and every dB value, sampled ranges included,
must give a variance that neither overflows nor underflows):

Scenario::

    {"version": 1,
     "agents": [{"p": [x, y], "T": m, "t": s}, ...],
     "target": {"p": [x, y], "v": [vx, vy], "T": m, "omega": m/s},
     "noise": {"sigma_tau_sq_db": f,
               "agent_sigma_sq_db": [f, ...]            # concrete, or
                                  | {"center_db": f, "halfwidth_db": f}}}

The sampled form of ``agent_sigma_sq_db`` needs an RNG at load time.

Frame::

    {"records": [{"t": s, "tau_tilde": m, "p_hat": [x, y], "T_hat": m}, ...],
     "noise": {"sigma_tau_sq_db": f, "agent_sigma_sq_db": [f, ...]}}

Estimate report (flat)::

    {"estimator": id, "px": m, "py": m, "vx": m/s, "vy": m/s, "T": m,
     "omega": m/s, "iterations": n, "converged": b, "diverged": b,
     "cond_estimate": f}

Experiment spec: see :func:`experiment_spec_from_dict`.

:func:`check_field` tells whether a dotted key names a field that a
document's reader reads (``seqtoa --set`` accepts no other keys).
"""

from __future__ import annotations

import math

import numpy as np

from .estimator import EstimateReport
from .model import (
    Agents,
    NoiseSpec,
    ObservedFrame,
    Scenario,
    TargetState,
    _DB_RANGE,
    _db_columns,
    _db_ok,
)
from .montecarlo import ExperimentSpec, TopologyBounds, _SpecFieldError, _integer_problem


class SchemaError(Exception):
    """Input document does not match the expected schema."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _get(d: dict, key: str, path: str):
    if not isinstance(d, dict):
        raise SchemaError(path, f"expected an object, got {type(d).__name__}")
    if key not in d:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return d[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    return number


def _integer(value, path: str, lo: int) -> int:
    """An integer field: a JSON integer from ``lo`` to the largest signed 64-bit
    integer (a bool, a float such as ``2.0`` or ``2.5``, or a string is not one)."""
    problem = _integer_problem(value, lo)
    if problem:
        raise SchemaError(path, problem)
    return value


def _pair(value, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SchemaError(path, f"expected a 2-element array, got {value!r}")
    return [_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]")]


def _finite_floats(values) -> list[float] | None:
    """``values`` as floats when every one is a JSON number (an ``int`` or a
    ``float``, never a bool) whose float is finite, else ``None``.

    This is the check :func:`_number` makes, without a path for each value;
    on ``None`` a caller walks the values with :func:`_number` to name the
    first bad one.
    """
    if not {type(v) for v in values} <= {int, float}:
        return None
    try:
        floats = list(map(float, values))
    except OverflowError:
        return None
    return floats if all(map(math.isfinite, floats)) else None


def _number_list(value, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise SchemaError(path, "expected a non-empty array of numbers")
    floats = _finite_floats(value)
    if floats is None:
        floats = [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return floats


# --- noise ------------------------------------------------------------------


def _noise_from_dict(d, n_agents: int, path: str, rng: np.random.Generator | None = None) -> NoiseSpec:
    """The noise spec of a document; every dB value, and every value a sampled
    range can draw, must convert to a finite, positive variance."""
    sigma_tau_sq_db = _number(_get(d, "sigma_tau_sq_db", path), f"{path}.sigma_tau_sq_db")
    if not _db_ok(sigma_tau_sq_db):
        raise SchemaError(f"{path}.sigma_tau_sq_db", f"{sigma_tau_sq_db!r} dB is {_DB_RANGE}")
    agent = _get(d, "agent_sigma_sq_db", path)
    apath = f"{path}.agent_sigma_sq_db"
    if isinstance(agent, dict):
        center = _number(_get(agent, "center_db", apath), f"{apath}.center_db")
        halfwidth = _number(_get(agent, "halfwidth_db", apath), f"{apath}.halfwidth_db")
        if not _db_ok(center):
            raise SchemaError(f"{apath}.center_db", f"{center!r} dB is {_DB_RANGE}")
        if halfwidth < 0.0:
            raise SchemaError(f"{apath}.halfwidth_db", f"expected a number >= 0, got {halfwidth!r}")
        lo, hi = center - halfwidth, center + halfwidth
        if not (_db_ok(lo) and _db_ok(hi)):
            raise SchemaError(f"{apath}.halfwidth_db", f"center_db +- halfwidth_db spans {lo!r} to {hi!r} dB, {_DB_RANGE}")
        if rng is None:
            raise SchemaError(apath, "sampled agent variances need an RNG/seed to materialize")
        agent_db = rng.uniform(lo, hi, size=n_agents)
    else:
        values = _number_list(agent, apath)
        if len(values) != n_agents:
            raise SchemaError(apath, f"expected {n_agents} entries, got {len(values)}")
        if not (_db_ok(min(values)) and _db_ok(max(values))):  # the conversion is monotone
            i = next(i for i, v in enumerate(values) if not _db_ok(v))
            raise SchemaError(f"{apath}[{i}]", f"{values[i]!r} dB is {_DB_RANGE}")
        agent_db = np.asarray(values)
    return NoiseSpec.from_db(sigma_tau_sq_db, agent_db)


@np.errstate(over="ignore", invalid="ignore")  # a step past the largest float reads back as inf: no match
def _exact_db(variances: np.ndarray) -> np.ndarray:
    """Per variance ``v`` (the TOA variance, then the agents'), the float nearest
    ``10 log10(v)``, within 4 ulps, that the reader's conversion (``_db_columns``)
    turns back into exactly ``v``, else ``10 log10(v)``.  The conversion is
    monotone, so each value steps one ulp at a time toward its variance."""
    db = out = 10.0 * np.log10(variances)
    for _ in range(5):  # 10 log10(v) and up to 4 steps from it
        c_tau, blocks = _db_columns(out[0], out[1:])
        back = np.concatenate((c_tau[:1], blocks[:, 0, 0]))
        if (back == variances).all():  # 10 log10(v) itself, for most frames
            return out
        out = np.where(back == variances, out, np.nextafter(out, np.where(back > variances, -np.inf, np.inf)))
    return np.where(back == variances, out, db)  # the last step is never read


def _noise_to_dict(noise: NoiseSpec, path: str) -> dict:
    """The schema's form of ``noise``: one TOA variance and one variance per agent.

    Raises ``SchemaError`` for a spec that form cannot hold: TOA variances
    that differ, an agent block that is not ``sigma_m^2 * I_3``, or a
    variance that is not positive.
    """
    sigma_tau_sq = noise.c_tau[0]
    if np.any(noise.c_tau != sigma_tau_sq):
        raise SchemaError(f"{path}.sigma_tau_sq_db", "C_tau must be sigma_tau^2 * I to be written in this schema")
    agent = noise.blocks[:, 0, 0]
    if not np.array_equal(noise.blocks, agent[:, None, None] * np.eye(3)):
        raise SchemaError(
            f"{path}.agent_sigma_sq_db",
            "C_beta must be block diagonal with blocks sigma_m^2 * I_3 to be written in this schema",
        )
    if not (sigma_tau_sq > 0 and np.all(agent > 0)):
        raise SchemaError(path, "variances must be positive to be written in dB")
    db = _exact_db(np.concatenate(([sigma_tau_sq], agent))).tolist()
    return {"sigma_tau_sq_db": db[0], "agent_sigma_sq_db": db[1:]}


# --- scenario ----------------------------------------------------------------


def scenario_from_dict(d: dict, rng: np.random.Generator | None = None) -> Scenario:
    agents_raw = _get(d, "agents", "scenario")
    if not isinstance(agents_raw, list) or not agents_raw:
        raise SchemaError("scenario.agents", "expected a non-empty array")
    M = len(agents_raw)
    t, p_m, T_m = np.empty(M), np.empty((M, 2)), np.empty(M)
    for i, a in enumerate(agents_raw):
        path = f"scenario.agents[{i}]"
        p_m[i] = _pair(_get(a, "p", path), f"{path}.p")
        T_m[i] = _number(_get(a, "T", path), f"{path}.T")
        t[i] = _number(_get(a, "t", path), f"{path}.t")
    traw = _get(d, "target", "scenario")
    target = TargetState(
        p=_pair(_get(traw, "p", "scenario.target"), "scenario.target.p"),
        v=_pair(_get(traw, "v", "scenario.target"), "scenario.target.v"),
        T=_number(_get(traw, "T", "scenario.target"), "scenario.target.T"),
        omega=_number(_get(traw, "omega", "scenario.target"), "scenario.target.omega"),
    )
    noise = _noise_from_dict(_get(d, "noise", "scenario"), M, "scenario.noise", rng)
    return Scenario(agents=Agents(t=t, p_m=p_m, T_m=T_m), target=target, noise=noise)


def scenario_to_dict(s: Scenario) -> dict:
    columns = zip(s.agents.p_m.tolist(), s.agents.T_m.tolist(), s.agents.t.tolist())
    return {
        "version": 1,
        "agents": [{"p": p, "T": T, "t": t} for p, T, t in columns],
        "target": {
            "p": list(s.target.p),
            "v": list(s.target.v),
            "T": s.target.T,
            "omega": s.target.omega,
        },
        "noise": _noise_to_dict(s.noise, "scenario.noise"),
    }


# --- frame -------------------------------------------------------------------


def _record_table(records: list) -> np.ndarray | None:
    """``(M, 5)`` table of each record's ``t``, ``tau_tilde``, ``p_hat`` and
    ``T_hat`` when every record is an object with these fields, finite
    numbers and a 2-element ``p_hat`` array, else ``None``."""
    rows = [
        (r.get("t"), r.get("tau_tilde"), *p, r.get("T_hat"))
        for r in records
        if type(r) is dict and type(p := r.get("p_hat")) is list and len(p) == 2
    ]
    floats = _finite_floats([v for row in rows for v in row]) if len(rows) == len(records) else None
    return None if floats is None else np.array(floats).reshape(-1, 5)


def frame_from_dict(d: dict) -> ObservedFrame:
    recs_raw = _get(d, "records", "frame")
    if not isinstance(recs_raw, list) or not recs_raw:
        raise SchemaError("frame.records", "expected a non-empty array")
    M = len(recs_raw)
    table = _record_table(recs_raw)
    if table is None:  # name the first bad field, record by record (or take values _record_table does not)
        table = np.empty((M, 5))
        for i, r in enumerate(recs_raw):
            path = f"frame.records[{i}]"
            table[i, 0] = _number(_get(r, "t", path), f"{path}.t")
            table[i, 1] = _number(_get(r, "tau_tilde", path), f"{path}.tau_tilde")
            table[i, 2:4] = _pair(_get(r, "p_hat", path), f"{path}.p_hat")
            table[i, 4] = _number(_get(r, "T_hat", path), f"{path}.T_hat")
    noise = _noise_from_dict(_get(d, "noise", "frame"), M, "frame.noise")
    return ObservedFrame(t=table[:, 0], tau=table[:, 1], p_hat=table[:, 2:4], T_hat=table[:, 4], noise=noise)


def frame_to_dict(f: ObservedFrame) -> dict:
    columns = zip(f.t.tolist(), f.tau.tolist(), f.p_hat.tolist(), f.T_hat.tolist())
    return {
        "records": [{"t": t, "tau_tilde": tau, "p_hat": p, "T_hat": T} for t, tau, p, T in columns],
        "noise": _noise_to_dict(f.noise, "frame.noise"),
    }


# --- reports -----------------------------------------------------------------


def report_to_dict(report: EstimateReport) -> dict:
    x = report.x_hat.as_vector()
    return {
        "estimator": report.estimator_id,
        "px": x[0],
        "py": x[1],
        "vx": x[2],
        "vy": x[3],
        "T": x[4],
        "omega": x[5],
        "iterations": report.iterations,
        "converged": report.converged,
        "diverged": report.diverged,
        "cond_estimate": report.cond_estimate,
    }


# --- experiment specs ----------------------------------------------------------

_BOUNDS_PAIRS = ("agent_xy", "target_xy", "velocity", "agent_offset_ns", "target_offset_ns", "skew_ppm")
_SPEC_NUMBERS = ("sigma_tau_sq_db", "sigma_s_sq_db", "agent_sigma_halfwidth_db", "target_offset_ns", "mle_init_sigma")


def experiment_spec_from_dict(d: dict, rng: np.random.Generator | None = None) -> ExperimentSpec:
    """Parse an experiment document.

    ``topology`` may be ``"fixed"`` (the scheme's default), an inline scenario
    for a sweep, or ``{"random": {...bounds...}}`` for ``random_topology``.
    The integer fields ``n_trials``, ``base_seed``, ``mle_max_iters`` and
    ``topology.random.n_agents`` must be JSON integers that fit a signed
    64-bit integer, and every dB value must give a finite, positive variance
    (see :class:`ExperimentSpec`).  A value that :class:`ExperimentSpec`
    rejects is reported under its field's path where it names one
    (``experiment.sweep_values[1]``), else under ``experiment``.
    """
    scheme =_get(d, "scheme", "experiment")
    if not isinstance(scheme, str):
        raise SchemaError("experiment.scheme", "expected a string")
    n_trials = _integer(_get(d, "n_trials", "experiment"), "experiment.n_trials", 1)
    base_seed = _integer(_get(d, "base_seed", "experiment"), "experiment.base_seed", 0)
    sweep_values = _number_list(_get(d, "sweep_values", "experiment"), "experiment.sweep_values")
    estimators = _get(d, "estimators", "experiment")
    if not isinstance(estimators, list) or not all(isinstance(e, str) for e in estimators):
        raise SchemaError("experiment.estimators", "expected an array of estimator ids")

    topology = None
    if "topology" in d:
        traw = d["topology"]
        if traw == "fixed" or traw is None:
            topology = None
        elif isinstance(traw, dict) and "random" in traw:
            braw = traw["random"] or {}
            if not isinstance(braw, dict):
                raise SchemaError("experiment.topology.random", "expected an object of bounds")
            kwargs = {}
            for key in _BOUNDS_PAIRS:
                if key in braw:
                    kwargs[key] = tuple(_pair(braw[key], f"experiment.topology.random.{key}"))
            if "n_agents" in braw:
                kwargs["n_agents"] = _integer(braw["n_agents"], "experiment.topology.random.n_agents", 1)
            if "slot_interval" in braw:
                kwargs["slot_interval"] = _number(braw["slot_interval"], "experiment.topology.random.slot_interval")
            try:
                topology = TopologyBounds(**kwargs)
            except ValueError as exc:
                raise SchemaError("experiment.topology.random", str(exc)) from None
        elif isinstance(traw, dict):
            topology = scenario_from_dict(traw, rng)
        else:
            raise SchemaError("experiment.topology", f"expected 'fixed', a scenario, or {{'random': ...}}; got {traw!r}")

    kwargs = {}
    for key in _SPEC_NUMBERS:
        if key in d:
            kwargs[key] = _number(d[key], f"experiment.{key}")
    if "mle_max_iters" in d:
        kwargs["mle_max_iters"] = _integer(d["mle_max_iters"], "experiment.mle_max_iters", 1)

    try:
        return ExperimentSpec(
            scheme=scheme,
            n_trials=n_trials,
            base_seed=base_seed,
            sweep_values=tuple(sweep_values),
            estimators=tuple(estimators),
            topology=topology,
            **kwargs,
        )
    except _SpecFieldError as exc:
        raise SchemaError(f"experiment.{exc.field}", exc.message) from None
    except ValueError as exc:
        raise SchemaError("experiment", str(exc)) from None


def experiment_spec_to_dict(spec: ExperimentSpec) -> dict:
    out = {
        "scheme": spec.scheme,
        "n_trials": spec.n_trials,
        "base_seed": spec.base_seed,
        "sweep_values": list(spec.sweep_values),
        "estimators": list(spec.estimators),
        "sigma_tau_sq_db": spec.sigma_tau_sq_db,
        "sigma_s_sq_db": spec.sigma_s_sq_db,
        "agent_sigma_halfwidth_db": spec.agent_sigma_halfwidth_db,
        "target_offset_ns": spec.target_offset_ns,
        "mle_init_sigma": spec.mle_init_sigma,
        "mle_max_iters": spec.mle_max_iters,
    }
    if spec.topology is None:
        out["topology"] = "fixed"
    elif isinstance(spec.topology, TopologyBounds):
        b = spec.topology
        out["topology"] = {
            "random": {
                "agent_xy": list(b.agent_xy),
                "target_xy": list(b.target_xy),
                "velocity": list(b.velocity),
                "agent_offset_ns": list(b.agent_offset_ns),
                "target_offset_ns": list(b.target_offset_ns),
                "skew_ppm": list(b.skew_ppm),
                "n_agents": b.n_agents,
                "slot_interval": b.slot_interval,
            }
        }
    else:
        out["topology"] = scenario_to_dict(spec.topology)
    return out


# --- fields the readers read ---------------------------------------------------
#
# Per document kind, the nested field names its reader reads; ``None`` marks
# a leaf (a number, string or array).

_NOISE_FIELDS = {"sigma_tau_sq_db": None, "agent_sigma_sq_db": {"center_db": None, "halfwidth_db": None}}
_SCENARIO_FIELDS = {"agents": None, "target": dict.fromkeys(("p", "v", "T", "omega")), "noise": _NOISE_FIELDS}
_FIELDS = {
    "frame": {"records": None, "noise": _NOISE_FIELDS},
    "scenario": _SCENARIO_FIELDS,
    "experiment": {
        **dict.fromkeys(("scheme", "n_trials", "base_seed", "sweep_values", "estimators", "mle_max_iters")),
        **dict.fromkeys(_SPEC_NUMBERS),
        "topology": {"random": dict.fromkeys((*_BOUNDS_PAIRS, "n_agents", "slot_interval")), **_SCENARIO_FIELDS},
    },
}


def check_field(document: str, key: str) -> None:
    """Raise ``SchemaError`` unless the dotted ``key`` names a field that the
    reader of ``document`` (``"frame"``, ``"scenario"`` or ``"experiment"``)
    reads.  Array elements have no dotted name."""
    node = _FIELDS[document]
    for part in key.split("."):
        if node is None or part not in node:
            raise SchemaError("--set", f"{key!r} is not a field of the {document} schema")
        node = node[part]
