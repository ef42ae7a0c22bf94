"""Stage costs: what one frame costs in each public single-frame stage.

Simulates one frame of the packaged fixed topology (M = 10) and times, one
call at a time, the stages a frame passes through on its own: parsing its
JSON document (``frame_from_dict``), the squared-pseudorange design
(``build_design``), the equation-error model at the pass-1 state
(``build_error_model``), the weighted QR solve (``solve_wls_qr``), the
Gauss-Newton retraction (``gauss_newton_refine``), the whole two-pass
``estimate`` and the flat report (``report_to_dict``).  Each stage is
called ``CALLS`` times in a row, ``REPEATS`` times over; the table gives
the best and the median of the repeats in microseconds per call.

Two rows time the agent-trusting MLE baseline: ``mle_estimate`` on the same
frame from its true state (a batch of one), and ``mle_batch`` on a stack of
``MLE_FRAMES`` random-topology frames, each from its true state plus unit
Gaussian noise as the sweeps draw it, given per frame.

The last row times a sweep's draws: ``montecarlo._draw_chunk`` on one
chunk of ``CHUNK`` noise-sweep units with all three estimators, per trial.
It seeds every trial's streams, draws its scenario, its frame's standard
normals and the MLE's initial state, and simulates the chunk's frames.

``estimate`` is not the sum of the stage rows: it runs both passes on the
stacked kernels directly, while the stage functions are the single-frame
wrappers over the same kernels.
"""

import json
import statistics
import time

import numpy as np

from seqtoa import (
    ExperimentSpec,
    FrameStack,
    MleConfig,
    TargetState,
    TopologyBounds,
    build_design,
    build_error_model,
    estimate,
    fixed_topology,
    gauss_newton_refine,
    mle_batch,
    mle_estimate,
    sample_random_topology,
    simulate_frame,
    solve_wls_qr,
)
from seqtoa import montecarlo
from seqtoa.serialize import frame_from_dict, frame_to_dict, report_to_dict

CALLS = 200
REPEATS = 5
MLE_FRAMES = 75
MLE_BATCH_CALLS = 10
CHUNK = 256
CHUNK_CALLS = 10


def per_call_us(fn, calls: int = CALLS) -> tuple[float, float]:
    """(best, median) over REPEATS runs of ``calls`` calls, in microseconds per call."""
    fn()  # warm up
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        runs.append((time.perf_counter() - t0) / calls * 1e6)
    return min(runs), statistics.median(runs)


frame = simulate_frame(fixed_topology(), 7)
doc = json.loads(json.dumps(frame_to_dict(frame)))
design = build_design(frame)
pass1 = solve_wls_qr(design, np.eye(frame.n_agents))
x_ref = TargetState.from_vector(pass1.theta_hat[:6])
error_model = build_error_model(frame, x_ref)
wls = solve_wls_qr(design, error_model.C_e)
traces = frame.noise.position_cov_traces()
report = estimate(frame)
mle_cfg = MleConfig(init=fixed_topology().target)
rng = np.random.default_rng(7)
scenarios = [sample_random_topology(TopologyBounds(), rng) for _ in range(MLE_FRAMES)]
mle_stack = FrameStack.of([simulate_frame(sc, k) for k, sc in enumerate(scenarios)])
mle_inits = np.array([sc.target.as_vector() for sc in scenarios]) + rng.normal(size=(MLE_FRAMES, 6))
sweep = ExperimentSpec(scheme="noise_sweep", n_trials=CHUNK, base_seed=0, sweep_values=(-20.5,),
                       estimators=("proposed", "tswls_static", "mle"))
units = [(-20.5, trial) for trial in range(CHUNK)]

stages = {
    "frame_from_dict": lambda: frame_from_dict(doc),
    "build_design": lambda: build_design(frame),
    "build_error_model": lambda: build_error_model(frame, x_ref),
    "solve_wls_qr": lambda: solve_wls_qr(design, error_model.C_e),
    "gauss_newton_refine": lambda: gauss_newton_refine(wls, traces),
    "estimate": lambda: estimate(frame),
    "report_to_dict": lambda: report_to_dict(report),
}
print(f"one fixed-topology frame, M = {frame.n_agents}; {REPEATS} x {CALLS} calls per stage")
print(f"{'stage':<30} {'best (us)':>10} {'median (us)':>12}")
for name, fn in stages.items():
    best, median = per_call_us(fn)
    print(f"{name:<30} {best:>10.1f} {median:>12.1f}")
best, median = per_call_us(lambda: mle_estimate(frame, mle_cfg))
print(f"{'mle_estimate':<30} {best:>10.1f} {median:>12.1f}")
best, median = per_call_us(lambda: mle_batch(mle_stack, mle_inits), MLE_BATCH_CALLS)
print(f"{f'mle_batch, per frame of {MLE_FRAMES}':<30} {best / MLE_FRAMES:>10.1f} {median / MLE_FRAMES:>12.1f}")
best, median = per_call_us(lambda: montecarlo._draw_chunk(sweep, units), CHUNK_CALLS)
print(f"{f'_draw_chunk, per trial of {CHUNK}':<30} {best / CHUNK:>10.1f} {median / CHUNK:>12.1f}")
print(f"estimate: {report.iterations} retraction iterations, cond_estimate {report.cond_estimate:.3g}")
