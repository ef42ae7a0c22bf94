"""Large frames: time and memory of one frame's stages as the network grows.

Draws one random topology of M agents (agents uniform on [0,50]^2, slots
50 ms apart), simulates one frame, estimates the target state and computes
its CRLB, for M = 100, 300 and 1000.  Each stage is timed on its own (best
of a few calls), then run once more under ``tracemalloc`` for its peak of
traced memory.  With the compact per-agent noise, every stage grows about
linearly in M; nothing builds the (3M, 3M) broadcast-error covariance.
"""

import time
import tracemalloc

import numpy as np

from seqtoa import TopologyBounds, crlb_target, estimate, sample_random_topology, simulate_frame

REPEATS = 3


def measure(fn):
    """(best seconds over REPEATS calls, tracemalloc peak in bytes of one more call, result)."""
    best = np.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    tracemalloc.start()
    fn()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return best, peak, result


print(f"{'M':>5} {'stage':<24} {'time (ms)':>10} {'peak (MB)':>10}")
for M in (100, 300, 1000):
    bounds = TopologyBounds(n_agents=M)
    stages = {}
    stages["sample_random_topology"] = lambda: sample_random_topology(bounds, np.random.default_rng(M))
    scenario = stages["sample_random_topology"]()
    stages["simulate_frame"] = lambda: simulate_frame(scenario, 7)
    frame = stages["simulate_frame"]()
    stages["estimate"] = lambda: estimate(frame)
    stages["crlb_target"] = lambda: crlb_target(scenario)
    for name, fn in stages.items():
        seconds, peak, result = measure(fn)
        print(f"{M:>5} {name:<24} {seconds * 1e3:>10.2f} {peak / 1e6:>10.3f}")
    err = np.linalg.norm(estimate(frame).x_hat.p - scenario.target.p)
    bound = np.sqrt(np.trace(crlb_target(scenario).crlb_x[:2, :2]))
    print(f"{M:>5} position error {err:.3g} m, CRLB {bound:.3g} m")
