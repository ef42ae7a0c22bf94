"""Quickstart: simulate one TDMA frame and estimate the target state.

A moving target passively receives one broadcast per agent per frame.  Each
broadcast carries the agent's self-reported position and clock offset (both
uncertain); the target timestamps the arrival.  From the ten broadcasts of a
single frame the estimator recovers position, velocity, clock offset and
clock skew jointly.
"""

import numpy as np

from seqtoa import estimate, fixed_topology, simulate_frame, validate_scenario

scenario = fixed_topology()
print("scenario check:", validate_scenario(scenario) or "OK")
print(f"{scenario.n_agents} agents; slot times {scenario.agents.t} s")
print("truth:", scenario.target.as_vector())

frame = simulate_frame(scenario, seed=7)
print("\nobserved TOAs (range-equivalent meters):")
print(np.round(frame.tau, 3))

report = estimate(frame)
x = report.x_hat
print("\nestimate:")
print(f"  position  {x.p}  m        (truth {scenario.target.p})")
print(f"  velocity  {x.v}  m/s      (truth {scenario.target.v})")
print(f"  offset    {x.T:.4f} m        (truth {scenario.target.T})")
print(f"  skew      {x.omega:.4f} m/s   (truth {scenario.target.omega})")
print(f"  converged={report.converged} after {report.iterations} iterations;"
      f" design condition ~{report.cond_estimate:.2e}")

err = x.as_vector() - scenario.target.as_vector()
print("\ncomponent errors:", np.round(err, 4))
