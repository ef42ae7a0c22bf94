"""JSON (de)serialization of the public file formats.

Schemas (all floats in SI units per the package conventions; variances in dB
re 1 m^2 where the key says so; every number finite, so ``NaN`` and
``Infinity`` are schema errors, and every dB value, sampled ranges included,
must give a variance that neither overflows nor underflows):

Scenario::

    {"version": 1,                                      # optional; only 1
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

Experiment spec: see :func:`experiment_spec_from_dict`.

One table, ``_FIELDS``, states every document's schema: per JSON object, the
keys it may hold, each with the function that reads its value, and the keys it
must hold.  :func:`_read` walks it, reading every object once, in table order;
the first fault, an unlisted key or a missing required one included, is an error
under its own path.  :func:`check_field` takes the table's dotted names.
"""

from __future__ import annotations

import functools
import math
import operator

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


# --- the reader --------------------------------------------------------------


def _read(fields: _Table, d, path: str) -> dict:
    """Each key of the object ``d`` with its value read by its reader in
    ``fields``, in the table's order.  A key the table does not list is an
    error under its own path (a reader that skipped it would run another
    document than the one written), and so is a missing required key."""
    if not isinstance(d, dict):
        raise SchemaError(path, f"expected an object, got {type(d).__name__}")
    if not d.keys() <= fields.keys():
        key = next(key for key in d if key not in fields)
        raise SchemaError(f"{path}.{key}", f"not a field of the {path.split('.')[0]} schema")
    out = {}
    for key, read, required in fields.entries:
        if key in d:
            out[key] = read(d[key], f"{path}.{key}")
        elif required:
            raise SchemaError(f"{path}.{key}", "missing required field")
    return out


class _Table(dict):
    """The fields of a JSON object: each key with the reader of its value,
    ``read(value, path)``.  A table's own ``read`` is its reader (:func:`_read`,
    unless the value may take other forms) bound to the table, and ``entries``
    binds each key once to ``(key, reader, required)``, a nested table's reader
    being its ``read``; ``required`` keys (by default all) must be given."""

    def __init__(self, fields: dict, required=None, read=_read):
        super().__init__(fields)
        required = frozenset(fields if required is None else required)
        self.read = functools.partial(read, self)
        self.entries = tuple((key, getattr(r, "read", r), key in required) for key, r in fields.items())


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


def _finite_numbers(values) -> bool:
    """Whether :func:`_number` takes every value, short of a sum beyond the
    float range; on ``False`` a caller walks the values with it, which names
    the first bad one."""
    if not {type(v) for v in values} <= {int, float}:
        return False
    try:
        return math.isfinite(math.fsum(values))
    except (OverflowError, ValueError):  # an int beyond the float range, a sum beyond it, or inf - inf
        return False


def _number_list(value, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise SchemaError(path, "expected a non-empty array of numbers")
    if _finite_numbers(value):
        return list(map(float, value))
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


class _Records:
    """Reader of a non-empty array of objects of one table (a pair and two or
    more numbers): ``{key: read-only column}``, the pair's ``(M, 2)``.  When
    every object holds exactly the table's keys, as JSON numbers and a
    2-element array, all are read as one array; else :func:`_read` reads each,
    naming the first fault (or taking what that path does not, such as a
    tuple).  Array elements have no dotted name: :func:`check_field` stops here."""

    def __init__(self, fields: dict):
        self.fields = _Table(fields)
        (self.pair,) = [key for key, read in fields.items() if read is _pair]
        self.numbers = [key for key, read in fields.items() if read is _number]
        self.get_numbers = operator.itemgetter(*self.numbers)

    def read(self, records, path: str) -> dict:
        if not isinstance(records, list) or not records:
            raise SchemaError(path, "expected a non-empty array")
        n, pair, get_numbers = len(self.fields), self.pair, self.get_numbers
        try:
            values = [v for r in records if type(r) is dict and len(r) == n
                      and type(p := r.get(pair)) is list and len(p) == 2 for v in (*p, *get_numbers(r))]
        except KeyError:  # another key in place of one of the table's
            values = []
        if not (len(values) == len(records) * (n + 1) and _finite_numbers(values)):
            rows = [self.fields.read(r, f"{path}[{i}]") for i, r in enumerate(records)]
            values = [v for r in rows for v in (*r[pair], *map(r.get, self.numbers))]
        table = _read_only(np.array(values, dtype=float)).reshape(len(records), -1)
        return {pair: table[:, :2], **dict(zip(self.numbers, table[:, 2:].T))}


# --- noise ------------------------------------------------------------------
#
# The reader keeps the specs of the last few concrete noise documents and the
# writer the dB forms of the last few specs (see model._SPEC_CACHE_SIZE).


def _db(value, path: str) -> float:
    """A dB value that converts to a finite, positive variance."""
    db = _number(value, path)
    if not _db_ok(db):
        raise SchemaError(path, f"{db!r} dB is {_DB_RANGE}")
    return db


def _agent_db(table: _Table, value, path: str) -> dict | tuple[float, ...]:
    """The sampled form's fields, or the concrete form's dB values as a tuple."""
    if isinstance(value, dict):
        return _read(table, value, path)
    values = _number_list(value, path)
    if not (_db_ok(min(values)) and _db_ok(max(values))):  # the conversion is monotone
        i = next(i for i, v in enumerate(values) if not _db_ok(v))
        raise SchemaError(f"{path}[{i}]", f"{values[i]!r} dB is {_DB_RANGE}")
    return tuple(values)


@functools.lru_cache(maxsize=_SPEC_CACHE_SIZE)
def _concrete_noise(sigma_tau_sq_db: float, agent_sigma_sq_db: tuple[float, ...]) -> NoiseSpec:
    """:meth:`NoiseSpec.from_db` of checked dB values, one spec per distinct value."""
    return NoiseSpec.from_db(sigma_tau_sq_db, np.array(agent_sigma_sq_db))


def _noise_from_dict(noise: dict, n_agents: int, path: str, rng: np.random.Generator | None = None) -> NoiseSpec:
    """The noise spec of the fields ``_NOISE`` read; every dB value, and every value a
    sampled range can draw, must convert to a finite, positive variance.  Equal
    concrete documents get one shared spec; a sampled one is drawn anew."""
    sigma_tau_sq_db, agent, apath = noise["sigma_tau_sq_db"], noise["agent_sigma_sq_db"], f"{path}.agent_sigma_sq_db"
    if isinstance(agent, tuple):
        if len(agent) != n_agents:
            raise SchemaError(apath, f"expected {n_agents} entries, got {len(agent)}")
        return _concrete_noise(sigma_tau_sq_db, agent)
    center, halfwidth = agent["center_db"], agent["halfwidth_db"]
    if halfwidth < 0.0:
        raise SchemaError(f"{apath}.halfwidth_db", f"expected a number >= 0, got {halfwidth!r}")
    lo, hi = center - halfwidth, center + halfwidth
    if not (_db_ok(lo) and _db_ok(hi)):
        raise SchemaError(f"{apath}.halfwidth_db", f"center_db +- halfwidth_db spans {lo!r} to {hi!r} dB, {_DB_RANGE}")
    if rng is None:
        raise SchemaError(apath, "sampled agent variances need an RNG/seed to materialize")
    return NoiseSpec.from_db(sigma_tau_sq_db, rng.uniform(lo, hi, size=n_agents))


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
    """The scenario document ``d``; sampled agent variances are drawn from ``rng``."""
    return _scenario(_SCENARIO.read(d, "scenario"), rng, "scenario")


def _scenario(s: dict, rng: np.random.Generator | None, path: str) -> Scenario:
    """The scenario of the fields ``_SCENARIO`` read from the object at ``path``."""
    agents = Agents(t=s["agents"]["t"], p_m=s["agents"]["p"], T_m=s["agents"]["T"])
    noise = _noise_from_dict(s["noise"], len(agents.t), f"{path}.noise", rng)
    return Scenario(agents=agents, target=TargetState(**s["target"]), noise=noise)


def _version(value, path: str) -> int:
    """The schema's version: written by :func:`scenario_to_dict`, and 1 is the only one."""
    if type(value) is not int or value != 1:
        raise SchemaError(path, f"expected 1, the only version of this schema, got {value!r}")
    return value


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


def frame_from_dict(d: dict) -> ObservedFrame:
    f = _FIELDS["frame"].read(d, "frame")
    records = f["records"]
    noise = _noise_from_dict(f["noise"], len(records["t"]), "frame.noise")
    # finite columns of M rows and noise sized for M: the constructor's checks hold
    return _checked(ObservedFrame, t=records["t"], tau=records["tau_tilde"], p_hat=records["p_hat"],
                    T_hat=records["T_hat"], noise=noise)


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
    ``_FIELDS["experiment"]`` lists the keys and reads each one's JSON value;
    an inline scenario's fields become a scenario with ``rng``.  :class:`ExperimentSpec`
    and :class:`TopologyBounds` check the values, and a value either rejects is
    reported under its field's path (``experiment.sweep_values[1]``).
    """
    kwargs = _FIELDS["experiment"].read(d, "experiment")
    if isinstance(kwargs.get("topology"), dict):
        kwargs["topology"] = _scenario(kwargs["topology"], rng, "experiment.topology")
    return _build(ExperimentSpec, kwargs, "experiment")


def _topology(table: _Table, value, path: str):
    """``None`` for ``"fixed"`` (or null), the bounds of ``{"random": {...}}``,
    or the fields of an inline scenario, which its document builds with its RNG."""
    if isinstance(value, dict):
        return _RANDOM.read(value, path)["random"] if "random" in value else _SCENARIO.read(value, path)
    if value not in ("fixed", None):
        raise SchemaError(path, f"expected 'fixed', a scenario, or {{'random': ...}}; got {value!r}")
    return None


def _bounds(table: _Table, value, path: str) -> TopologyBounds:
    if not isinstance(value, dict):
        raise SchemaError(path, "expected an object of bounds")
    return _build(TopologyBounds, _read(table, value, path), path)


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


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, "expected a string")
    return value


def _strings(value, path: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(e, str) for e in value):
        raise SchemaError(path, "expected an array of estimator ids")
    return value


def _given(value, path: str):
    """An integer field as written, which its spec class checks: the only
    value the walk hands over unread."""
    return value


# --- the schema of every document -------------------------------------------
#
# Per document kind, a table of each JSON object's keys (see _Table): the
# function that reads each key's value, a nested object's table, or the
# reader of an array of records.  The walk reads every object once, through
# it; the writers write its keys, and check_field (--set) takes its dotted names.

_NOISE = _Table(
    {"sigma_tau_sq_db": _db, "agent_sigma_sq_db": _Table({"center_db": _db, "halfwidth_db": _number}, read=_agent_db)})
_SCENARIO = _Table(
    {"version": _version, "agents": _Records({"p": _pair, "T": _number, "t": _number}),
     "target": _Table({"p": _pair, "v": _pair, "T": _number, "omega": _number}), "noise": _NOISE},
    required=("agents", "target", "noise"),
)
_BOUNDS = _Table(
    {**dict.fromkeys(("agent_xy", "target_xy", "velocity", "agent_offset_ns", "target_offset_ns", "skew_ppm"), _pair),
     "n_agents": _given, "slot_interval": _number},
    required=(), read=_bounds,
)
_RANDOM = _Table({"random": _BOUNDS})  # a topology of random bounds
_FIELDS = {
    "frame": _Table({"records": _Records({"t": _number, "tau_tilde": _number, "p_hat": _pair, "T_hat": _number}), "noise": _NOISE}),
    "scenario": _SCENARIO,
    "experiment": _Table(
        {"scheme": _string, "n_trials": _given, "base_seed": _given, "sweep_values": _number_list, "estimators": _strings,
         **dict.fromkeys(("sigma_tau_sq_db", "sigma_s_sq_db", "agent_sigma_halfwidth_db", "target_offset_ns", "mle_init_sigma"), _number),
         "mle_max_iters": _given, "topology": _Table({**_RANDOM, **_SCENARIO}, read=_topology)},
        required=("scheme", "n_trials", "base_seed", "sweep_values", "estimators"),
    ),
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
