"""Random-topology robustness: error CDF of the estimator vs the static solver.

Every trial draws a fresh network (agents uniform on [0,50]^2, target on
[-50,100]^2 with random velocity and clocks), simulates one frame, and runs
both estimators.  The per-trial position squared errors form an empirical
CDF; a steeper/left-shifted curve is better.  The demo prints deciles and
writes the CDF table to ``random_topology_cdf.csv`` in the working directory
(same format the CLI emits).
"""

from pathlib import Path

import numpy as np

from seqtoa import ExperimentSpec, run_trials, write_cdf_csv

spec = ExperimentSpec(
    scheme="random_topology",
    n_trials=600,
    base_seed=4,
    sweep_values=(-20.5,),
    estimators=("proposed", "tswls_static"),
)
results = run_trials(spec)

print(f"{'decile':>8} {'proposed (m^2)':>16} {'static (m^2)':>16}")
prop = np.sort(results[(-20.5, "proposed")].cdf_samples)
stat = np.sort(results[(-20.5, "tswls_static")].cdf_samples)
for q in range(1, 10):
    print(
        f"{q * 10:>7d}% {np.percentile(prop, q * 10):>16.4g} {np.percentile(stat, q * 10):>16.4g}"
    )

for est in spec.estimators:
    st = results[(-20.5, est)]
    print(f"{est}: {st.n_success}/{st.n_trials} trials succeeded")

out = Path("random_topology_cdf.csv")
write_cdf_csv(results, spec, out)
print(f"\nwrote {out}")
