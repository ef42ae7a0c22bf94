"""Benchmark of seqtoa: Monte-Carlo trial throughput and online frame latency.

Run from the repository root::

    python3 perfbench/run.py --workload noise_sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all          # every workload, each in a fresh process

Workloads (inputs in ``perfbench/workloads/``, all derived from ``--seed``):

* ``noise_sweep``, ``ltco_sweep``, ``random_topology`` - reduced copies of the
  shipped experiment configs, run in-process through ``seqtoa.cli.main
  experiment --threads 1``, one call per block.  Block ``b`` uses
  ``base_seed = seed * 2**20 + b * 2**12``, so no two blocks share a trial seed.
  After the blocks, a closed loop with one caller times ``estimator.estimate``
  on frames drawn from the same scenario distribution.
* ``online_estimate`` - frame documents generated at set-up from the fixed
  topology at -20.5 dB; each timed call is ``frame_from_dict`` -> ``estimate``
  -> ``report_to_dict`` for one frame, in a closed loop with one caller.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the same work runs untraced and with every listed function
wrapped into spans, alternately, and the line carries the per-layer metrics.
Every time is scaled by a yardstick to the host's reference speed (see
:class:`Yardstick`).
Outputs are checked (schema, finiteness, recorded reference where one exists,
traced == untraced); the process exits 1 when a check fails.  Metric
definitions and the layer-to-metric map are in ``perfbench/README.md``.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchlib as bl  # noqa: E402

WORKLOADS = ("noise_sweep", "ltco_sweep", "random_topology", "online_estimate")
BLAS_THREADS = 1  # trials are GIL-bound; one BLAS thread keeps runs on a 2-core box comparable
SWEEP_SHARE = 0.6  # of --seconds spent on sweep blocks; the rest on the frame loop
ACCURACY_BLOCKS = 24  # blocks pooled for success_frac / pos_mse_over_crlb, and traced
SWEEP_FRAMES = 1024  # distinct frames cycled by a sweep workload's frame loop
REPEATS = 7  # a frame's latency is the fastest of its first 7 calls
TRACE_CHUNK = 250  # online frames per untraced/traced alternation
REFERENCE_FRAMES = 100  # online frames kept in a reference file
SETUP_RUNS = 5  # set-ups per run (this process plus fresh probe processes)
YARD_EVERY = 47  # calls between yardstick samples; prime, so a frame meets other chunk positions on each pass
YARD_NOMINAL_S = 0.005  # yardstick time that defines the reference speed
OUT = HERE / "_out"

LAYERS = (
    "montecarlo.run_trials",
    "montecarlo.fixed_topology",
    "montecarlo.sample_random_topology",
    "montecarlo.write_sweep_csv",
    "montecarlo.write_cdf_csv",
    "model.simulate_frame",
    "estimator.estimate",
    "estimator.build_design",
    "estimator.solve_wls_qr",
    "estimator.build_error_model",
    "estimator.gauss_newton_refine",
    "baselines.tswls_static_estimate",
    "baselines.mle_estimate",
    "analysis.crlb_target",
    "serialize.frame_from_dict",
    "serialize.report_to_dict",
)
LAYER_STATS = (("us", "us"), ("calls", "calls/trial"), ("self_share", "ratio"))
COUNTS = (
    ("estimator.gauss_newton_refine.iterations", "count"),
    ("estimator.gauss_newton_refine.unconverged_frac", "ratio"),
    ("estimator.solve_wls_qr.cond_log10_p50", "log10"),
    ("estimator.estimate.fail_frac", "ratio"),
    ("baselines.mle_estimate.iterations", "count"),
    ("baselines.mle_estimate.diverged_frac", "ratio"),
    ("baselines.tswls_static_estimate.fail_frac", "ratio"),
    ("analysis.crlb_target.fail_frac", "ratio"),
    ("tracing.overhead_frac", "ratio"),
)
END_TO_END = (
    ("setup_s", "s"),
    ("trials_per_s", "trials/s"),
    ("frame_p50_us", "us"),
    ("frame_p99_us", "us"),
    ("success_frac", "ratio"),
    ("pos_mse_over_crlb", "ratio"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units() -> dict:
    units = {f"{layer}.{stat}": unit for layer in LAYERS for stat, unit in LAYER_STATS}
    units.update(COUNTS)
    return units


def block_seed(seed: int, block: int) -> int:
    return seed * 2**20 + block * 2**12


# --- set-up -------------------------------------------------------------------------


class Workload:
    """Inputs and entry points of one workload after set-up."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.cfg_path = HERE / "workloads" / f"{name}.json"
        self.cfg = json.loads(self.cfg_path.read_text())
        self.sweep = name != "online_estimate"
        self.csv_path = OUT / f"{name}.csv"
        self.cdf_path = OUT / f"{name}_cdf.csv"


def draw_scenarios(cfg: dict, n: int, rng, shared_noise: bool = False) -> list:
    """``n`` scenarios of a workload's distribution, cycling over its sweep values.

    Fixed-topology workloads keep the packaged agents and target kinematics and
    draw the target clock offset (the sweep value itself on ``ltco_sweep``),
    the skew (+-20 ppm) and per-agent variances; ``shared_noise`` draws the
    variances once for all scenarios.
    """
    from seqtoa import model, montecarlo

    if cfg.get("scheme") == "random_topology":
        bounds = montecarlo.TopologyBounds(
            sigma_tau_sq_db=cfg["sigma_tau_sq_db"],
            sigma_s_sq_db=cfg["sweep_values"][0],
            agent_sigma_halfwidth_db=cfg["agent_sigma_halfwidth_db"],
        )
        return [montecarlo.sample_random_topology(bounds, rng) for _ in range(n)]

    base = montecarlo.fixed_topology()
    values = cfg.get("sweep_values", [cfg.get("sigma_s_sq_db")])
    hw = cfg["agent_sigma_halfwidth_db"]
    noise = None
    out = []
    for k in range(n):
        v = values[k % len(values)]
        if cfg.get("scheme") == "ltco_sweep":
            sigma_db, offset = cfg["sigma_s_sq_db"], v
        else:
            sigma_db = v
            offset = rng.uniform(-cfg["target_offset_ns"], cfg["target_offset_ns"]) * 1e-9 * model.C_LIGHT
        omega = rng.uniform(-20.0, 20.0) * 1e-6 * model.C_LIGHT
        if noise is None or not shared_noise:
            agent_db = rng.uniform(sigma_db - hw, sigma_db + hw, size=base.n_agents)
            noise = model.NoiseSpec.from_db(cfg["sigma_tau_sq_db"], agent_db)
        target = model.TargetState(p=base.target.p, v=base.target.v, T=offset, omega=omega)
        out.append(model.Scenario(agents=base.agents, target=target, noise=noise))
    return out


def set_up(name: str, seed: int) -> Workload:
    """Import seqtoa, load or generate the workload's inputs, make one warm-up call."""
    if not (ROOT / "src" / "seqtoa" / "__init__.py").is_file():
        raise SystemExit(f"error: no seqtoa sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from seqtoa import analysis, cli, estimator, model, serialize

    w = Workload(name, seed)
    OUT.mkdir(exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if w.sweep:
        scenarios = draw_scenarios(w.cfg, SWEEP_FRAMES, rng)
        w.items = [model.simulate_frame(s, int(rng.integers(2**63))) for s in scenarios]
        if w.cfg["scheme"] == "random_topology":
            w.truths = [s.target.as_vector().tolist() for s in scenarios]
            w.frame_crlb_pos = [float(np.trace(analysis.crlb_target(s).crlb_x[:2, :2])) for s in scenarios]
        w.call = lambda frame: estimator.estimate(frame)
        w.state_of = lambda r: [*r.x_hat.as_vector().tolist(), r.iterations, r.converged]
        w.cli = cli
        warm_argv = ["experiment", "--input", str(w.cfg_path), "--output", str(OUT / f"{name}_warmup.csv"),
                     "--threads", "1", "--set", "n_trials=1", "--set", f"base_seed={block_seed(seed, 0)}"]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(warm_argv) != 0:
                raise SystemExit("error: warm-up experiment failed")
    else:
        scenarios = draw_scenarios(w.cfg, w.cfg["n_frames"], rng, shared_noise=True)
        frames = [model.simulate_frame(s, int(rng.integers(2**63))) for s in scenarios]
        w.items = [json.loads(json.dumps(serialize.frame_to_dict(f))) for f in frames]
        w.truths = [s.target.as_vector().tolist() for s in scenarios]
        # Agents and noise are shared and the offset and skew do not enter the
        # Fisher information, so one bound holds for every frame.
        crlb = analysis.crlb_target(scenarios[0]).crlb_x
        w.crlb_pos = float(crlb[0, 0] + crlb[1, 1])
        w.scale = np.sqrt(np.diag(crlb)).tolist()
        w.call = lambda doc: serialize.report_to_dict(estimator.estimate(serialize.frame_from_dict(doc)))
        keys = ("px", "py", "vx", "vy", "T", "omega")
        w.state_of = lambda r: [*(float(r[k]) for k in keys), r["iterations"], r["converged"]]
    w.state_of(w.call(w.items[0]))
    return w


# --- timed phases ---------------------------------------------------------------------


class Yardstick:
    """Fixed work timed next to every workload sample, to correct for host speed.

    On a shared host the CPU speed can change by a factor of two within
    seconds and between runs.  Each timed sample (a sweep block, a chunk of
    frames) is scaled by the yardstick's nominal time over its median time
    around the sample, so a time reads as it would at the reference speed.
    The work mixes small LAPACK calls, pure-Python loops and small-object
    churn, the three kinds of work a trial does.
    """

    def __init__(self):
        import numpy as np
        import scipy.linalg

        self.np, self.linalg = np, scipy.linalg
        self.a = np.random.default_rng(0).standard_normal((10, 9))
        self.samples: list[float] = []

    def __call__(self) -> float:
        np, linalg, a = self.np, self.linalg, self.a
        t0 = time.perf_counter()
        for i in range(100):
            q, r = np.linalg.qr(a)
            np.linalg.solve(r, q.T @ a[:, 0])
        acc, table = 0, {}
        for i in range(7500):
            acc += i * i % 7
            table[i & 255] = acc
        for i in range(12):
            rows = tuple(_YardRow(a[j, :2] + i, 0.05 * j) for j in range(10))
            t = np.array([row.t for row in rows])
            m = np.column_stack([2.0 * np.array([row.p for row in rows]), np.ones(10), t**2, t])
            q, r, _ = linalg.qr(m, mode="economic", pivoting=True)
            ",".join(f"{v:.17g}" for v in linalg.solve_triangular(r, q.T @ a[:, 0]))
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def scale(self) -> float:
        """Take a sample; return the nominal time over the median of the last five.

        The median keeps a disturbed sample from rescaling a whole chunk.
        """
        self()
        return YARD_NOMINAL_S / statistics.median(self.samples[-5:])

    def speed(self) -> float:
        """Run-level factor: nominal time over the median sample."""
        return YARD_NOMINAL_S / statistics.median(self.samples)


class _YardRow:
    __slots__ = ("p", "t")

    def __init__(self, p, t):
        self.p, self.t = p, t


def run_block(w: Workload, block: int):
    """One in-process ``seqtoa experiment`` call; returns (exit code, seconds, CSV text, CDF text)."""
    argv = ["experiment", "--input", str(w.cfg_path), "--output", str(w.csv_path),
            "--threads", "1", "--set", f"base_seed={block_seed(w.seed, block)}"]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = w.cli.main(argv)
        dt = time.perf_counter() - t0
    cdf = w.cdf_path.read_text() if len(w.cfg["sweep_values"]) == 1 else None
    return rc, dt, w.csv_path.read_text(), cdf


class Loop:
    """Result of :func:`frame_loop`.

    ``lat`` holds per-call latencies in ns and ``busy_s`` the loop's time,
    both scaled by the yardstick when one is given; ``states`` holds the
    outputs of items seen for the first time.
    """

    def __init__(self, first: int):
        self.first = first
        self.lat: list[float] = []
        self.raw_lat: list[int] = []
        self.busy_s = 0.0
        self.states: list = []
        self.failed = 0

    def item_latencies(self, n_items: int) -> list[float]:
        """Each distinct item's fastest latency over its first ``REPEATS`` calls.

        A call hit by a burst of host interference then does not move the
        item's value, and percentiles over items describe the program's own
        spread.  The count is fixed because the value falls as calls are added.
        """
        calls: dict[int, list[float]] = {}
        for k, lat in enumerate(self.lat, start=self.first):
            calls.setdefault(k % n_items, []).append(lat)
        return [min(v[:REPEATS]) for v in calls.values()]


def frame_loop(w: Workload, seconds: float, count: int, first: int = 0, tracer=None, yard=None) -> Loop:
    """Closed loop with one caller over items ``first, first+1, ...`` (cycling).

    Runs at least ``count`` calls and until ``seconds`` have passed, in chunks
    of ``YARD_EVERY`` calls with a yardstick sample after each chunk.
    """
    from seqtoa.errors import EstimationError

    res = Loop(first)
    n_items = len(w.items)
    gc.collect()
    if yard is not None:
        yard()
        yard()
    deadline = time.perf_counter() + seconds
    k = first
    while k < first + count or time.perf_counter() < deadline:
        n = YARD_EVERY if k >= first + count else min(YARD_EVERY, first + count - k)
        chunk = []
        t_chunk = time.perf_counter()
        for k in range(k, k + n):
            span = tracer.span("frame", item=[k]) if tracer else contextlib.nullcontext()
            with span:
                t0 = time.perf_counter_ns()
                try:
                    out = w.call(w.items[k % n_items])
                except EstimationError:
                    out = None
                chunk.append(time.perf_counter_ns() - t0)
            state = None if out is None else w.state_of(out)
            if state is None or not all(math.isfinite(x) for x in state[:6]):
                res.failed += 1
                state = None
            if k < n_items:
                res.states.append(state)
        k += 1
        wall = time.perf_counter() - t_chunk
        scale = yard.scale() if yard is not None else 1.0
        res.raw_lat += chunk
        res.lat += [x * scale for x in chunk]
        res.busy_s += wall * scale
    return res


# --- output checks --------------------------------------------------------------------


def parse_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def check_block(w: Workload, rc: int, text: str, cdf: str | None) -> list[str]:
    """Checks that hold at every seed: schema, row count, finiteness, counts."""
    if rc != 0:
        return [f"experiment exited {rc}"]
    cfg = w.cfg
    rows = parse_csv(text)
    if not rows or rows[0] != bl.SWEEP_HEADER:
        return [f"sweep header {rows[:1]}"]
    rows = rows[1:]
    expect = [(float(v), e, b) for v in cfg["sweep_values"] for e in cfg["estimators"] for b in bl.STATE_BLOCKS]
    if [(float(r[0]), r[1], r[2]) for r in rows] != expect:
        return [f"sweep rows do not follow sweep_values x estimators x blocks ({len(rows)} rows)"]
    problems = []
    for r in rows:
        n_ok, n_bad = int(r[6]), int(r[7])
        if n_ok + n_bad != cfg["n_trials"]:
            problems.append(f"{r[:3]}: n_success + n_diverged != {cfg['n_trials']}")
        if not math.isfinite(float(r[5])) or (n_ok and not all(math.isfinite(float(x)) for x in r[3:5])):
            problems.append(f"{r[:3]}: non-finite value {r[3:6]}")
        if cfg["scheme"] == "ltco_sweep" and r[1] == "proposed" and n_bad:
            problems.append(f"{r[:3]}: proposed failed {n_bad} times at a large clock offset")
    if cdf is not None:
        crows = parse_csv(cdf)
        n_expect = sum(int(r[6]) for r in rows if r[2] == "position")
        if not crows or crows[0] != bl.CDF_HEADER or len(crows) - 1 != n_expect:
            problems.append(f"cdf csv: header {crows[:1]}, {len(crows) - 1} rows, expected {n_expect}")
        elif not all(math.isfinite(float(x)) for r in crows[1:] for x in r[1:]):
            problems.append("cdf csv: non-finite value")
    return problems


def reference_path(w: Workload) -> Path:
    return HERE / "reference" / f"{w.name}_seed{w.seed}.json"


def check_reference(w: Workload, block0_text: str | None = None, states=None) -> list[str]:
    """Block 0 (sweeps) or the first frames (online) against the recorded reference, if any."""
    path = reference_path(w)
    if not path.is_file():
        return []
    ref = json.loads(path.read_text())
    if w.sweep:
        problems = bl.check_sweep_rows(parse_csv(block0_text)[1:], ref["rows"])
    else:
        problems = bl.check_frames(states, ref["frames"], ref["scale"])
    return [f"reference {path.name}: {p}" for p in problems]


def sweep_accuracy(texts: list[str]) -> tuple[float, float]:
    """(success_frac, pos_mse_over_crlb) pooled over blocks.

    success_frac = 1 - sum(n_diverged) / sum(n_success + n_diverged) over every
    estimator and cell.  pos_mse_over_crlb is the median over cells of the
    pooled ``proposed`` position MSE over the mean position CRLB trace.
    """
    attempted = failed = 0
    cells: dict[str, list[float]] = {}
    for text in texts:
        for r in parse_csv(text)[1:]:
            if r[2] != "position":
                continue
            n_ok, n_bad = int(r[6]), int(r[7])
            attempted += n_ok + n_bad
            failed += n_bad
            if r[1] == "proposed":
                c = cells.setdefault(r[0], [0.0, 0, 0.0, 0])
                if n_ok:
                    c[0] += n_ok * float(r[3])
                    c[1] += n_ok
                c[2] += float(r[5])
                c[3] += 1
    ratios = [(c[0] / c[1]) / (c[2] / c[3]) for c in cells.values()]
    return 1.0 - failed / attempted, statistics.median(ratios)


def online_accuracy(w: Workload, states) -> tuple[float, float]:
    """(success_frac, position MSE over the shared position CRLB trace) over frames."""
    ok = [(s, t) for s, t in zip(states, w.truths) if s is not None]
    sq = sum((s[0] - t[0]) ** 2 + (s[1] - t[1]) ** 2 for s, t in ok)
    return len(ok) / len(states), sq / len(ok) / w.crlb_pos


def random_topology_accuracy(w: Workload, states) -> float:
    """Median over frames of the squared position error over that frame's CRLB trace.

    A random geometry is now and then nearly degenerate, and one such trial
    dominates an MSE: per-block MSE/CRLB ranged from 0.5 to 16 at one seed.
    """
    ratios = [((s[0] - t[0]) ** 2 + (s[1] - t[1]) ** 2) / c
              for s, t, c in zip(states, w.truths, w.frame_crlb_pos) if s is not None]
    return statistics.median(ratios)


# --- per-layer metrics from spans -------------------------------------------------------


def layer_metrics(spans, n_trials: int, wall_ns: int, speed: float) -> dict:
    """Per-layer metrics; ``.us`` is scaled by the yardstick ``speed``."""
    selfs = bl.self_times(spans)
    by_name: dict[str, list] = {}
    for s, st in zip(spans, selfs):
        by_name.setdefault(s.name, []).append((s, st))
    out = {}
    for layer in LAYERS:
        calls = by_name.get(layer, [])
        out[f"{layer}.us"] = statistics.median(s.end - s.start for s, _ in calls) * speed / 1e3 if calls else 0.0
        out[f"{layer}.calls"] = len(calls) / n_trials
        out[f"{layer}.self_share"] = sum(st for _, st in calls) / wall_ns

    def spans_of(layer):
        return [s for s, _ in by_name.get(layer, [])]

    def frac(items, bad):
        return sum(1 for s in items if bad(s)) / len(items) if items else 0.0

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    gn = [s.note for s in spans_of("estimator.gauss_newton_refine") if s.note]
    out["estimator.gauss_newton_refine.iterations"] = mean([n["iterations"] for n in gn])
    out["estimator.gauss_newton_refine.unconverged_frac"] = frac(gn, lambda n: not n["converged"])
    conds = [math.log10(s.note["cond"]) for s in spans_of("estimator.solve_wls_qr") if s.note and s.note["cond"] > 0]
    out["estimator.solve_wls_qr.cond_log10_p50"] = statistics.median(conds) if conds else 0.0
    out["estimator.estimate.fail_frac"] = frac(spans_of("estimator.estimate"), lambda s: s.error or not s.note["ok"])
    mle = spans_of("baselines.mle_estimate")
    out["baselines.mle_estimate.iterations"] = mean([s.note["iterations"] for s in mle if s.note])
    out["baselines.mle_estimate.diverged_frac"] = frac(mle, lambda s: s.error or s.note["diverged"])
    out["baselines.tswls_static_estimate.fail_frac"] = frac(
        spans_of("baselines.tswls_static_estimate"), lambda s: s.error or not s.note["ok"])
    out["analysis.crlb_target.fail_frac"] = frac(spans_of("analysis.crlb_target"), lambda s: s.error)
    return out


def install_layers(tracer: bl.Tracer) -> None:
    """Wrap every function of ``LAYERS`` and tag spans with their Monte-Carlo trial."""
    import numpy as np
    from seqtoa import analysis, baselines, estimator, model, montecarlo, serialize

    modules = {"montecarlo": montecarlo, "model": model, "estimator": estimator,
               "baselines": baselines, "analysis": analysis, "serialize": serialize}
    notes = {
        "estimator.estimate": lambda r: {"ok": bool(np.all(np.isfinite(r.x_hat.as_vector())))},
        "estimator.solve_wls_qr": lambda r: {"cond": r.cond_estimate},
        "estimator.gauss_newton_refine": lambda r: {"iterations": r.iterations, "converged": r.converged},
        "baselines.mle_estimate": lambda r: {"iterations": r.iterations, "diverged": r.diverged},
        "baselines.tswls_static_estimate": lambda r: {"ok": r.success},
    }
    for layer in LAYERS:
        mod, attr = layer.split(".")
        if not tracer.install(modules[mod], attr, layer, notes.get(layer)):
            print(f"# warning: seqtoa.{layer} not found; its metrics read 0", file=sys.stderr)
    tracer.tag_items(montecarlo, "_run_trial")


def write_spans(w: Workload, spans) -> Path:
    path = OUT / f"{w.name}_seed{w.seed}_spans.jsonl"
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s.to_dict()) + "\n")
    return path


# --- runs -------------------------------------------------------------------------------


def machine_facts() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def probe_setups(w: Workload, n: int) -> list[float]:
    """Scaled set-up seconds of ``n`` fresh processes, run one after another."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w.name,
             "--seed", str(w.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_untraced(w: Workload, seconds: float, setup_s: float):
    """End-to-end metrics; ``setup_s`` is this process's scaled set-up time.

    Returns (metrics, notes, problems, attempted, failed).
    """
    yard = Yardstick()
    metrics, notes, problems = {}, {}, []
    attempted = failed = 0
    if w.sweep:
        texts, secs, raw_secs = [], [], []
        n_trials = w.cfg["n_trials"] * len(w.cfg["sweep_values"])
        deadline = time.perf_counter() + SWEEP_SHARE * seconds
        block = 0
        yard()
        yard()
        while block < ACCURACY_BLOCKS or time.perf_counter() < deadline:
            gc.collect()
            rc, dt, text, cdf = run_block(w, block)
            secs.append(dt * yard.scale())
            raw_secs.append(dt)
            attempted += 1
            failed += rc != 0
            block_problems = check_block(w, rc, text, cdf)
            problems += [f"block {block}: {p}" for p in block_problems]
            if block == 0 and not block_problems:
                problems += check_reference(w, block0_text=text)
            if block < ACCURACY_BLOCKS:
                texts.append(text)
            block += 1
        metrics["trials_per_s"] = n_trials / statistics.median(secs)
        raw_tps = n_trials / statistics.median(raw_secs)
        notes["trials_per_s"] = f"median of {len(secs)} blocks of {n_trials} trials"
        if not problems:
            metrics["success_frac"], metrics["pos_mse_over_crlb"] = sweep_accuracy(texts)
        notes["success_frac"] = notes["pos_mse_over_crlb"] = f"pooled over {ACCURACY_BLOCKS} blocks"
        loop = frame_loop(w, (1.0 - SWEEP_SHARE) * seconds, REPEATS * len(w.items), yard=yard)
        if w.cfg["scheme"] == "random_topology" and "pos_mse_over_crlb" in metrics:
            metrics["pos_mse_over_crlb"] = random_topology_accuracy(w, loop.states)
            notes["pos_mse_over_crlb"] = f"median over the first {len(loop.states)} frames"
        notes["frame_p50_us"] = notes["frame_p99_us"] = (
            f"over {len(w.items)} frames, each the fastest of {REPEATS} estimate() calls")
    else:
        loop = frame_loop(w, seconds, REPEATS * len(w.items), yard=yard)
        problems += check_reference(w, states=loop.states)
        metrics["trials_per_s"] = len(loop.lat) / loop.busy_s
        raw_tps = len(loop.raw_lat) * 1e9 / sum(loop.raw_lat)
        metrics["success_frac"], metrics["pos_mse_over_crlb"] = online_accuracy(w, loop.states)
        notes["trials_per_s"] = f"{len(loop.lat)} frames"
        notes["frame_p50_us"] = notes["frame_p99_us"] = (
            f"over {len(w.items)} documents, each the fastest of {REPEATS} calls")
        notes["success_frac"] = notes["pos_mse_over_crlb"] = f"first {len(loop.states)} frames"
    attempted += len(loop.lat)
    failed += loop.failed
    per_item = loop.item_latencies(len(w.items))
    metrics["frame_p50_us"] = bl.percentile(per_item, 50) / 1e3
    metrics["frame_p99_us"] = bl.percentile(per_item, 99) / 1e3
    probes = probe_setups(w, SETUP_RUNS - 1)
    metrics["setup_s"] = statistics.median([setup_s, *probes])
    notes["setup_s"] = f"median of {SETUP_RUNS} fresh-process set-ups"
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes["peak_rss_mb"] = "ru_maxrss of this workload's process"
    notes["speed"] = (f"yardstick median {statistics.median(yard.samples) * 1e3:.3f} ms over {len(yard.samples)} "
                      f"samples (nominal {YARD_NOMINAL_S * 1e3:g} ms); unscaled trials_per_s {raw_tps:.6g}, "
                      f"frame_p50_us {bl.percentile(loop.raw_lat, 50) / 1e3:.6g}")
    return metrics, notes, problems, attempted, failed


def run_traced(w: Workload):
    """The same work untraced and traced, interleaved; per-layer metrics from the traced half."""
    yard = Yardstick()
    tracer = bl.Tracer("seqtoa")
    problems = []
    wall_plain = wall_traced = 0.0
    attempted = failed = 0
    if w.sweep:
        n_units = ACCURACY_BLOCKS * w.cfg["n_trials"] * len(w.cfg["sweep_values"])
        for b in range(ACCURACY_BLOCKS):
            gc.collect()
            plain = run_block(w, b)
            block_problems = check_block(w, plain[0], plain[2], plain[3])
            problems += [f"block {b}: {p}" for p in block_problems]
            if b == 0 and not block_problems:
                problems += check_reference(w, block0_text=plain[2])
            gc.collect()
            install_layers(tracer)
            tracer.block = b
            try:
                with tracer.span("block", item=[b]):
                    traced = run_block(w, b)
            finally:
                tracer.restore()
            yard()
            if traced[0] != plain[0] or traced[2:] != plain[2:]:
                problems.append(f"block {b}: traced outputs differ from untraced")
            wall_plain += plain[1]
            wall_traced += traced[1]
            attempted += 2
            failed += (plain[0] != 0) + (traced[0] != 0)
    else:
        n_units = len(w.items)
        states = {"plain": [], "traced": []}
        for first in range(0, n_units, TRACE_CHUNK):
            count = min(TRACE_CHUNK, n_units - first)
            plain = frame_loop(w, 0.0, count, first)
            install_layers(tracer)
            try:
                traced = frame_loop(w, 0.0, count, first, tracer=tracer)
            finally:
                tracer.restore()
            yard()
            states["plain"] += plain.states
            states["traced"] += traced.states
            wall_plain += sum(plain.lat) / 1e9
            wall_traced += sum(traced.lat) / 1e9
            attempted += 2 * count
            failed += plain.failed + traced.failed
        problems += check_reference(w, states=states["plain"])
        if json.dumps(states["plain"]) != json.dumps(states["traced"]):
            problems.append("traced frame outputs differ from untraced")
    metrics = layer_metrics(tracer.spans, n_units, round(wall_traced * 1e9), yard.speed())
    metrics["tracing.overhead_frac"] = wall_traced / wall_plain - 1.0
    path = write_spans(w, tracer.spans)
    notes = {"spans": f"{len(tracer.spans)} spans in {path.relative_to(ROOT)}",
             "calls": f"per trial over {n_units} {'trials' if w.sweep else 'frames'}",
             "speed": f"yardstick median {statistics.median(yard.samples) * 1e3:.3f} ms over {len(yard.samples)} samples"}
    return metrics, notes, problems, attempted, failed


def record_reference(w: Workload) -> Path:
    path = reference_path(w)
    path.parent.mkdir(exist_ok=True)
    if w.sweep:
        rc, _, text, cdf = run_block(w, 0)
        problems = check_block(w, rc, text, cdf)
        if problems:
            raise SystemExit(f"error: block 0 fails its checks: {problems}")
        ref = {"workload": w.name, "seed": w.seed, "rows": parse_csv(text)[1:]}
    else:
        states = frame_loop(w, 0.0, REFERENCE_FRAMES).states
        ref = {"workload": w.name, "seed": w.seed, "scale": w.scale, "frames": states}
    path.write_text(json.dumps(ref) + "\n")
    return path


def run_workload(args) -> int:
    w = set_up(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    yard = Yardstick()
    for _ in range(3):
        yard()
    setup_s *= yard.speed()
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    if args.record_reference:
        print(f"wrote {record_reference(w).relative_to(ROOT)}")
        return 0
    gc.collect()
    gc.freeze()  # set-up objects stay out of the collector's scans during timing
    facts = machine_facts()
    print("# machine " + json.dumps(facts))
    if args.trace:
        metrics, notes, problems, attempted, failed = run_traced(w)
        units = per_layer_units()
    else:
        metrics, notes, problems, attempted, failed = run_untraced(w, args.seconds, setup_s)
        units = dict(END_TO_END)
    for p in problems:
        print(f"# CHECK FAILED {w.name}: {p}")
    for name, unit in units.items():
        if name in metrics:
            note = notes.get(name) or notes.get(name.rsplit(".", 1)[-1], "")
            print(f"# {w.name:<16} {name:<48} {metrics[name]:>14.6g} {unit:<12} {note}")
    for key in ("spans", "speed"):
        if key in notes:
            print(f"# {w.name:<16} {notes[key]}")
    result = {
        "correct": not problems and all(n in metrics for n in units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics},
    }
    (OUT / f"{w.name}_seed{w.seed}_trace{args.trace}.json").write_text(
        json.dumps({"result": result, "notes": notes, "problems": problems, "machine": facts}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own fresh process; prints each one's metric table."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"# {name}: FAILED (exit {proc.returncode})")
            status = 1
    print("# all workloads " + ("FAILED" if status else "passed their output checks"))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="write perfbench/reference/<workload>_seed<seed>.json from the current code")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy is imported; inherited by probes
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
