"""Large target clock offset: why the linear stage solves by QR.

An unsynchronized target (offset up to 1 ms, i.e. 3e5 m range-equivalent)
makes every pseudorange nearly equal, so the squared-pseudorange design
matrix becomes badly ill-conditioned.  This demo sweeps the offset and
shows three things per level:

* the condition number of the whitened design,
* the position error of the QR solve vs an explicit
  normal-equations solve of the same weighted system,
* whether the classic static solver (normal equations only) survives.
"""

import numpy as np

from seqtoa import (
    EstimationError,
    NoiseSpec,
    Scenario,
    TargetState,
    build_design,
    build_error_model,
    estimate,
    fixed_topology,
    simulate_frame,
    tswls_static_estimate,
    whitening_matrix,
)
from seqtoa.model import C_LIGHT

base = fixed_topology()
noise = NoiseSpec.from_db(-30.0, np.full(10, -20.5))

offsets_ns = [10, 1e3, 1e5, 1e6]  # 10 ns .. 1 ms
print(f"{'offset':>10} {'cond(WA)':>10} {'QR pos err':>12} {'NE pos err':>12} {'static solver':>14}")
for off_ns in offsets_ns:
    T = off_ns * 1e-9 * C_LIGHT
    target = TargetState(p=base.target.p, v=base.target.v, T=T, omega=base.target.omega)
    scenario = Scenario(agents=base.agents, target=target, noise=noise)
    frame = simulate_frame(scenario, seed=3)

    report = estimate(frame)
    qr_err = np.linalg.norm(report.x_hat.p - target.p)

    design = build_design(frame)
    em = build_error_model(frame, report.x_hat)
    cond = np.linalg.cond(whitening_matrix(em.C_e) @ design.A)
    try:
        Ci = np.linalg.inv(em.C_e)
        theta_ne = np.linalg.solve(design.A.T @ Ci @ design.A, design.A.T @ Ci @ design.y)
        ne_err = np.linalg.norm(theta_ne[:2] - target.p)
        ne_text = f"{ne_err:12.3f}"
    except np.linalg.LinAlgError:
        ne_text = f"{'solve failed':>12}"

    try:
        tswls_static_estimate(frame)
        static_text = "ok"
    except EstimationError:
        static_text = "FAILED"
    print(f"{off_ns * 1e-9:>10.1e} {cond:>10.2e} {qr_err:>12.3f} {ne_text} {static_text:>14}")

print("\nthe QR path keeps meter-level errors across the whole sweep; the")
print("normal-equations path and the static solver break once the offset is large")
