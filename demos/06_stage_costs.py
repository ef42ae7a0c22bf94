"""Stage costs: what one frame costs in each public single-frame stage.

Simulates one frame of the packaged fixed topology (M = 10) and times, one
call at a time, the stages a frame passes through on its own: its
simulation (``simulate_frame``), its JSON document (``frame_to_dict``) and
parsing it back (``frame_from_dict``; the ``between estimates`` row parses a
new frame's document after each ``estimate``, as the online loop does, and
times the parse alone), the squared-pseudorange design
(``build_design``), the equation-error model at the pass-1 state
(``build_error_model``), the weighted QR solve (``solve_wls_qr``), the
Gauss-Newton retraction (``gauss_newton_refine``), the whole two-pass
``estimate`` and the flat report (``report_to_dict``), and, on the
scenario itself, its TOA gradients (``toa_gradients``) and its CRLB
(``crlb_target``): the benchmark's random_topology workload runs
``crlb_target`` 1024 times in its set-up (``setup_s``) and online_estimate
once, and times it as a layer only under ``--trace 1``.  Two more
``estimate`` rows time the frame kinds of the other sweeps: a 1 ms LTCO
frame (the clock-offset sweep's largest offset) and a random-topology frame
at -20.5 dB; each ``estimate`` row names the retraction iterations its frame
runs, which set most of its cost.  Each stage is
called ``CALLS`` times in a row, ``REPEATS`` times over; the table gives
the best and the median of the repeats in microseconds per call.

A noise spec's work is done once per spec: the reader shares one spec
among equal noise documents, and the writer and ``simulate_frame`` keep
what they derive from the last few specs.  The rows on the same frame show
that shared cost; the ``distinct noise`` rows give every call a noise spec,
or a document, not seen before, so each call pays for its noise in full:
``simulate_frame, distinct noise`` takes the square-root factor of every
call's agent blocks, which the ``simulate_frame`` row takes once.

Two rows time the agent-trusting MLE baseline: ``mle_estimate`` on the same
frame from its true state (a batch of one), and ``mle_batch`` on a stack of
``MLE_FRAMES`` random-topology frames, each from its true state plus unit
Gaussian noise as the sweeps draw it, given per frame.

The last rows time a sweep's stacked stages on one chunk of ``CHUNK``
noise-sweep units with all three estimators, per trial: the static solver
(``tswls_static_batch``) and the CRLB (``crlb_columns``) on the chunk's
columns, and the draws (``montecarlo._draw_chunk``), which seed every
trial's streams and fill its row with one call per stream (its scenario's
uniforms, its frame's standard normals, the MLE's initial-state normals),
map the chunk's uniforms through the scheme's draw table at once, and
simulate the chunk's frames.  Each stacked stage
returns columns, so these rows hold no per-trial object.

``estimate`` is not the sum of the stage rows: it runs both passes on the
stacked kernels directly, while the stage functions are the single-frame
wrappers over the same kernels.

Below the table, the demo counts the Python-level calls (``sys.setprofile``
``call`` events, the outermost call included) of one ``estimate`` on each
of its three frame kinds, and of one online frame (``frame_from_dict``,
``estimate``, ``report_to_dict``), and how many of them run numpy's own
Python code.  On frames of M = 10 the per-call overhead, not the
arithmetic, sets a frame's cost, so these counts track it.
"""

import dataclasses
import json
import os
import statistics
import sys
import time

import numpy as np

from seqtoa import (
    ExperimentSpec,
    FrameStack,
    NoiseSpec,
    TargetState,
    TopologyBounds,
    build_design,
    build_error_model,
    crlb_target,
    estimate,
    fixed_topology,
    gauss_newton_refine,
    mle_batch,
    mle_estimate,
    sample_random_topology,
    simulate_frame,
    solve_wls_qr,
    toa_gradients,
    tswls_static_batch,
)
from seqtoa import montecarlo
from seqtoa.analysis import crlb_columns
from seqtoa.model import C_LIGHT
from seqtoa.serialize import frame_from_dict, frame_to_dict, report_to_dict

CALLS = 200
REPEATS = 5
MLE_FRAMES = 75
MLE_BATCH_CALLS = 10
CHUNK = 256
CHUNK_CALLS = 10


def row(name: str, fn, calls: int = CALLS, per: int = 1, timed: bool = False) -> None:
    """Print the best and the median over REPEATS runs of ``calls`` calls of
    ``fn``, in microseconds per call divided by ``per``, the frames or
    trials that one call runs.  A ``timed`` ``fn`` returns the seconds of
    the part of its call that counts."""
    fn()  # warm up
    runs = []
    for _ in range(REPEATS):
        if timed:
            seconds = sum(fn() for _ in range(calls))
        else:
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            seconds = time.perf_counter() - t0
        runs.append(seconds / calls / per * 1e6)
    print(f"{name:<36} {min(runs):>10.1f} {statistics.median(runs):>12.1f}")


scenario = fixed_topology()
frame = simulate_frame(scenario, 7)
doc = json.loads(json.dumps(frame_to_dict(frame)))
noise_rng = np.random.default_rng(11)
n_distinct = 1 + REPEATS * CALLS  # one noise spec per timed call


def distinct_noise_frame():
    """``frame`` with agent variances drawn anew: a noise spec no stage has seen."""
    return dataclasses.replace(frame, noise=NoiseSpec.from_db(-30.0, noise_rng.uniform(-25.5, -15.5, frame.n_agents)))


def parse_between_estimates() -> float:
    """Seconds of ``frame_from_dict`` on a new frame's document (the same
    noise as every other), after an untimed ``estimate``."""
    estimate(frame)
    t0 = time.perf_counter()
    frame_from_dict(next(online_docs))
    return time.perf_counter() - t0


distinct_docs = iter([json.loads(json.dumps(frame_to_dict(distinct_noise_frame()))) for _ in range(n_distinct)])
online_docs = iter([json.loads(json.dumps(frame_to_dict(simulate_frame(scenario, k)))) for k in range(n_distinct)])
distinct_frames = iter([distinct_noise_frame() for _ in range(n_distinct)])
distinct_scenarios = iter([dataclasses.replace(scenario, noise=distinct_noise_frame().noise) for _ in range(n_distinct)])
design = build_design(frame)
pass1 = solve_wls_qr(design, np.eye(frame.n_agents))
x_ref = TargetState.from_vector(pass1.theta_hat[:6])
error_model = build_error_model(frame, x_ref)
wls = solve_wls_qr(design, error_model.C_e)
traces = frame.noise.position_cov_traces()
report = estimate(frame)
ltco_target = dataclasses.replace(scenario.target, T=1e-3 * C_LIGHT)  # the clock-offset sweep's largest offset
ltco_frame = simulate_frame(dataclasses.replace(scenario, target=ltco_target), 7)
mle_init = fixed_topology().target
rng = np.random.default_rng(7)
scenarios = [sample_random_topology(TopologyBounds(), rng) for _ in range(MLE_FRAMES)]
random_frame = simulate_frame(scenarios[0], 7)
mle_stack = FrameStack.of([simulate_frame(sc, k) for k, sc in enumerate(scenarios)])
mle_inits = np.array([sc.target.as_vector() for sc in scenarios]) + rng.normal(size=(MLE_FRAMES, 6))
sweep = ExperimentSpec(scheme="noise_sweep", n_trials=CHUNK, base_seed=0, sweep_values=(-20.5,),
                       estimators=("proposed", "tswls_static", "mle"))
units = [(-20.5, trial) for trial in range(CHUNK)]
chunk = montecarlo._draw_chunk(sweep, units)

stages = {
    "simulate_frame": lambda: simulate_frame(scenario, 7),
    "simulate_frame, distinct noise": lambda: simulate_frame(next(distinct_scenarios), 7),
    "frame_to_dict": lambda: frame_to_dict(frame),
    "frame_to_dict, distinct noise": lambda: frame_to_dict(next(distinct_frames)),
    "frame_from_dict": lambda: frame_from_dict(doc),
    "frame_from_dict, distinct noise": lambda: frame_from_dict(next(distinct_docs)),
    "build_design": lambda: build_design(frame),
    "build_error_model": lambda: build_error_model(frame, x_ref),
    "solve_wls_qr": lambda: solve_wls_qr(design, error_model.C_e),
    "gauss_newton_refine": lambda: gauss_newton_refine(wls, traces),
    f"estimate ({report.iterations} it)": lambda: estimate(frame),
    f"estimate, LTCO 1 ms ({estimate(ltco_frame).iterations} it)": lambda: estimate(ltco_frame),
    f"estimate, random ({estimate(random_frame).iterations} it)": lambda: estimate(random_frame),
    "report_to_dict": lambda: report_to_dict(report),
    "toa_gradients": lambda: toa_gradients(scenario.target, scenario.agents),
    "crlb_target": lambda: crlb_target(scenario),
}
print(f"one fixed-topology frame, M = {frame.n_agents}; {REPEATS} x {CALLS} calls per stage")
print(f"{'stage':<36} {'best (us)':>10} {'median (us)':>12}")
for name, fn in stages.items():
    row(name, fn)
row("frame_from_dict, between estimates", parse_between_estimates, timed=True)
row("mle_estimate", lambda: mle_estimate(frame, mle_init))
row(f"mle_batch, per frame of {MLE_FRAMES}", lambda: mle_batch(mle_stack, mle_inits), MLE_BATCH_CALLS, MLE_FRAMES)
s = chunk.stack
row(f"tswls_static_batch, per frame of {CHUNK}", lambda: tswls_static_batch(s), CHUNK_CALLS, CHUNK)
row(f"crlb_columns, per trial of {CHUNK}", lambda: crlb_columns(chunk.x, s.t, chunk.p_m, s.c_tau, s.blocks),
    CHUNK_CALLS, CHUNK)
row(f"_draw_chunk, per trial of {CHUNK}", lambda: montecarlo._draw_chunk(sweep, units), CHUNK_CALLS, CHUNK)
print(f"estimate: {report.iterations} retraction iterations, cond_estimate {report.cond_estimate:.3g}")

NUMPY_DIR = os.path.dirname(np.__file__)


def python_calls(fn) -> tuple[int, int]:
    """The Python-level calls of one call of ``fn``, its own call left out,
    and how many of them run code under numpy's package directory."""
    fn()  # warm up: caches are filled as in the timed rows
    counts = [0, 0]

    def profile(frame, event, arg):
        if event == "call":
            counts[0] += 1
            counts[1] += frame.f_code.co_filename.startswith(NUMPY_DIR)

    sys.setprofile(profile)
    fn()
    sys.setprofile(None)
    return counts[0] - 1, counts[1]


print()
print(f"{'python-level calls of one call':<56} {'all':>5} {'numpy':>6}")
calls = {
    f"estimate ({report.iterations} it)": lambda: estimate(frame),
    f"estimate, LTCO 1 ms ({estimate(ltco_frame).iterations} it)": lambda: estimate(ltco_frame),
    f"estimate, random ({estimate(random_frame).iterations} it)": lambda: estimate(random_frame),
    "online frame (frame_from_dict, estimate, report_to_dict)": lambda: report_to_dict(estimate(frame_from_dict(doc))),
}
for name, fn in calls.items():
    total, in_numpy = python_calls(fn)
    print(f"{name:<56} {total:>5} {in_numpy:>6}")
