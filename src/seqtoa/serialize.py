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

The sampled form of ``agent_sigma_sq_db`` needs an RNG at load time and is
drawn anew on every read; equal concrete noise documents read back as one
shared, read-only :class:`~seqtoa.model.NoiseSpec`.

Frame::

    {"records": [{"t": s, "tau_tilde": m, "p_hat": [x, y], "T_hat": m}, ...],
     "noise": {"sigma_tau_sq_db": f, "agent_sigma_sq_db": [f, ...]}}

Estimate report (flat)::

    {"estimator": id, "px": m, "py": m, "vx": m/s, "vy": m/s, "T": m,
     "omega": m/s, "iterations": n, "converged": b, "diverged": b,
     "cond_estimate": f}

Experiment spec: see :func:`experiment_spec_from_dict`.  One table,
``_FIELDS``, lists the fields each reader reads; for an experiment it also
reads each value, and the spec classes alone check it.  :func:`check_field`
tells whether a dotted key names such a field (``seqtoa --set`` takes no other).
"""

from __future__ import annotations

import functools
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
    _SPEC_CACHE_SIZE,
    _checked,
    _db_ok,
    _db_variances,
    _read_only,
)
from .montecarlo import ExperimentSpec, TopologyBounds, _SpecFieldError


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
#
# The reader keeps the specs of the last few concrete noise documents and the
# writer the dB forms of the last few specs (see model._SPEC_CACHE_SIZE).


@functools.lru_cache(maxsize=_SPEC_CACHE_SIZE)
def _concrete_noise(sigma_tau_sq_db: float, agent_sigma_sq_db: tuple[float, ...]) -> NoiseSpec:
    """:meth:`NoiseSpec.from_db` of checked dB values, one spec per distinct value."""
    return NoiseSpec.from_db(sigma_tau_sq_db, np.array(agent_sigma_sq_db))


def _noise_from_dict(d, n_agents: int, path: str, rng: np.random.Generator | None = None) -> NoiseSpec:
    """The noise spec of a document; every dB value, and every value a sampled
    range can draw, must convert to a finite, positive variance.  Equal
    concrete documents get one shared spec; a sampled one is drawn anew."""
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
        return NoiseSpec.from_db(sigma_tau_sq_db, rng.uniform(lo, hi, size=n_agents))
    values = _number_list(agent, apath)
    if len(values) != n_agents:
        raise SchemaError(apath, f"expected {n_agents} entries, got {len(values)}")
    if not (_db_ok(min(values)) and _db_ok(max(values))):  # the conversion is monotone
        i = next(i for i, v in enumerate(values) if not _db_ok(v))
        raise SchemaError(f"{apath}[{i}]", f"{values[i]!r} dB is {_DB_RANGE}")
    return _concrete_noise(sigma_tau_sq_db, tuple(values))


@np.errstate(over="ignore", invalid="ignore")  # a step past the largest float reads back as inf: no match
def _exact_db(variances: np.ndarray) -> np.ndarray:
    """Per variance ``v`` (the TOA variance, then the agents'), the float nearest
    ``10 log10(v)``, within 4 ulps, that the reader's conversion (``_db_variances``)
    turns back into exactly ``v``, else ``10 log10(v)``.  The conversion is
    monotone, so each value steps one ulp at a time toward its variance."""
    db = out = 10.0 * np.log10(variances)
    for _ in range(5):  # 10 log10(v) and up to 4 steps from it
        sigma_tau_sq, agent = _db_variances(out[0], out[1:])
        back = np.concatenate(([sigma_tau_sq], agent))
        if (back == variances).all():  # 10 log10(v) itself, for most frames
            return out
        out = np.where(back == variances, out, np.nextafter(out, np.where(back > variances, -np.inf, np.inf)))
    return np.where(back == variances, out, db)  # the last step is never read


@functools.lru_cache(maxsize=_SPEC_CACHE_SIZE)
def _schema_db(noise: NoiseSpec, path: str) -> tuple[float, ...]:
    """The dB values the schema writes for ``noise``: the TOA variance, then
    one per agent.

    Raises ``SchemaError`` for a spec the schema cannot hold: TOA variances
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
    return tuple(_exact_db(np.concatenate(([sigma_tau_sq], agent))).tolist())


def _noise_to_dict(noise: NoiseSpec, path: str) -> dict:
    """The schema's form of ``noise`` (see :func:`_schema_db`)."""
    db = _schema_db(noise, path)
    return {"sigma_tau_sq_db": db[0], "agent_sigma_sq_db": list(db[1:])}


# --- scenario ----------------------------------------------------------------


def scenario_from_dict(d: dict, rng: np.random.Generator | None = None) -> Scenario:
    return _scenario_from_dict(d, rng, "scenario")


def _scenario_from_dict(d: dict, rng: np.random.Generator | None, path: str) -> Scenario:
    """The scenario document ``d``, its errors reported under ``path``."""
    agents_raw = _get(d, "agents", path)
    if not isinstance(agents_raw, list) or not agents_raw:
        raise SchemaError(f"{path}.agents", "expected a non-empty array")
    M = len(agents_raw)
    t, p_m, T_m = np.empty(M), np.empty((M, 2)), np.empty(M)
    for i, a in enumerate(agents_raw):
        apath = f"{path}.agents[{i}]"
        p_m[i] = _pair(_get(a, "p", apath), f"{apath}.p")
        T_m[i] = _number(_get(a, "T", apath), f"{apath}.T")
        t[i] = _number(_get(a, "t", apath), f"{apath}.t")
    traw, tpath = _get(d, "target", path), f"{path}.target"
    target = TargetState(
        p=_pair(_get(traw, "p", tpath), f"{tpath}.p"),
        v=_pair(_get(traw, "v", tpath), f"{tpath}.v"),
        T=_number(_get(traw, "T", tpath), f"{tpath}.T"),
        omega=_number(_get(traw, "omega", tpath), f"{tpath}.omega"),
    )
    noise = _noise_from_dict(_get(d, "noise", path), M, f"{path}.noise", rng)
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
    """Read-only ``(M, 5)`` table of each record's ``t``, ``tau_tilde``,
    ``p_hat`` and ``T_hat`` when every record is an object with these fields,
    finite numbers and a 2-element ``p_hat`` array, else ``None``."""
    rows = [
        (r.get("t"), r.get("tau_tilde"), *p, r.get("T_hat"))
        for r in records
        if type(r) is dict and type(p := r.get("p_hat")) is list and len(p) == 2
    ]
    floats = _finite_floats([v for row in rows for v in row]) if len(rows) == len(records) else None
    return None if floats is None else _read_only(np.array(floats)).reshape(-1, 5)


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
        table.setflags(write=False)
    noise = _noise_from_dict(_get(d, "noise", "frame"), M, "frame.noise")
    # finite columns of M rows and noise sized for M: the constructor's checks hold
    return _checked(ObservedFrame, t=table[:, 0], tau=table[:, 1], p_hat=table[:, 2:4], T_hat=table[:, 4], noise=noise)


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


def experiment_spec_from_dict(d: dict, rng: np.random.Generator | None = None) -> ExperimentSpec:
    """Parse an experiment document.

    ``topology`` may be ``"fixed"`` (the scheme's default), an inline scenario
    for a sweep, or ``{"random": {...bounds...}}`` for ``random_topology``.
    ``_FIELDS["experiment"]`` lists the keys, at the top level and under
    ``topology.random``, and reads each one's JSON value; any other key is an
    error under its own path.  :class:`ExperimentSpec` and
    :class:`TopologyBounds` check the values, and a value either rejects is
    reported under its field's path (``experiment.sweep_values[1]``).
    """
    for key in ("scheme", "n_trials", "base_seed", "sweep_values", "estimators"):
        _get(d, key, "experiment")
    kwargs = _read(d, _FIELDS["experiment"], "experiment")
    traw = kwargs.pop("topology", None)
    if isinstance(traw, dict) and "random" in traw:
        kwargs["topology"] = _read(traw, {"random": _bounds}, "experiment.topology")["random"]
    elif isinstance(traw, dict):
        kwargs["topology"] = _scenario_from_dict(traw, rng, "experiment.topology")
    elif traw not in ("fixed", None):
        raise SchemaError("experiment.topology", f"expected 'fixed', a scenario, or {{'random': ...}}; got {traw!r}")
    return _build(ExperimentSpec, kwargs, "experiment")


def _bounds(value, path: str) -> TopologyBounds:
    if not isinstance(value, dict):
        raise SchemaError(path, "expected an object of bounds")
    return _build(TopologyBounds, _read(value, _FIELDS["experiment"]["topology"]["random"], path), path)


def _read(d: dict, fields: dict, path: str) -> dict:
    """Each key of ``d`` with its value read by its leaf in ``fields`` (a
    nested object's value as given); a key ``fields`` does not list is an
    error under its own path: a reader that skipped it would run another
    document than the one written."""
    out = {}
    for key, value in d.items():
        if key not in fields:
            raise SchemaError(f"{path}.{key}", "not a field of the experiment schema")
        out[key] = value if isinstance(fields[key], dict) else fields[key](value, f"{path}.{key}")
    return out


def _build(cls, kwargs: dict, path: str):
    """``cls(**kwargs)``, a field it rejects reported at ``path.<field>``."""
    try:
        return cls(**kwargs)
    except _SpecFieldError as exc:
        raise SchemaError(f"{path}.{exc.field}", exc.message) from None


def experiment_spec_to_dict(spec: ExperimentSpec) -> dict:
    """The document of ``spec`` that :func:`experiment_spec_from_dict` reads
    back: the keys its reader reads (``_FIELDS``), tuples written as lists."""
    fields = _FIELDS["experiment"]
    out = {key: _plain(getattr(spec, key)) for key in fields if key != "topology"}
    if spec.topology is None:
        out["topology"] = "fixed"
    elif isinstance(spec.topology, TopologyBounds):
        out["topology"] = {"random": {key: _plain(getattr(spec.topology, key)) for key in fields["topology"]["random"]}}
    else:
        out["topology"] = scenario_to_dict(spec.topology)
    return out


def _plain(value):
    return list(value) if isinstance(value, tuple) else value


# --- fields the readers read ---------------------------------------------------
#
# Per document kind, the nested field names its reader reads.  A leaf is
# ``None`` (a number, string or array read by the document's own reader) or,
# for experiments, the function that reads the key's JSON value.


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, "expected a string")
    return value


def _strings(value, path: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(e, str) for e in value):
        raise SchemaError(path, "expected an array of estimator ids")
    return value


def _given(value, path: str):
    """An integer field's value as written: the spec class checks it."""
    return value


_NOISE_FIELDS = {"sigma_tau_sq_db": None, "agent_sigma_sq_db": {"center_db": None, "halfwidth_db": None}}
_SCENARIO_FIELDS = {"agents": None, "target": dict.fromkeys(("p", "v", "T", "omega")), "noise": _NOISE_FIELDS}
_FIELDS = {
    "frame": {"records": None, "noise": _NOISE_FIELDS},
    "scenario": _SCENARIO_FIELDS,
    "experiment": {
        "scheme": _string, "n_trials": _given, "base_seed": _given, "sweep_values": _number_list, "estimators": _strings,
        **dict.fromkeys(("sigma_tau_sq_db", "sigma_s_sq_db", "agent_sigma_halfwidth_db", "target_offset_ns", "mle_init_sigma"), _number),
        "mle_max_iters": _given,
        "topology": {
            "random": {
                **dict.fromkeys(("agent_xy", "target_xy", "velocity", "agent_offset_ns", "target_offset_ns", "skew_ppm"), _pair),
                "n_agents": _given, "slot_interval": _number,
            },
            **_SCENARIO_FIELDS,
        },
    },
}


def check_field(document: str, key: str) -> None:
    """Raise ``SchemaError`` unless the dotted ``key`` names a field that the
    reader of ``document`` (``"frame"``, ``"scenario"`` or ``"experiment"``)
    reads.  Array elements have no dotted name."""
    node = _FIELDS[document]
    for part in key.split("."):
        if not isinstance(node, dict) or part not in node:
            raise SchemaError("--set", f"{key!r} is not a field of the {document} schema")
        node = node[part]
