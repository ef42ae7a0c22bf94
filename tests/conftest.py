import dataclasses

import numpy as np
import pytest
from hypothesis import strategies as st

from seqtoa import (
    Agents,
    NoiseSpec,
    Scenario,
    TargetState,
    TopologyBounds,
    fixed_topology,
    sample_random_topology,
)

C = 299_792_458.0


@pytest.fixture(scope="session")
def fixed_scenario():
    return fixed_topology()


def random_scenario(
    rng: np.random.Generator,
    M: int = 10,
    sigma_tau_sq: float = 1e-3,
    sigma_s_sq_db: float = -30.0,
    slot_interval: float = 0.05,
    target_box: tuple[float, float] = (10.0, 40.0),
    moving: bool = True,
) -> Scenario:
    """Well-posed random scenario: agents on [0,50]^2, target inside the hull."""
    p_m, T_m = np.empty((M, 2)), np.empty(M)
    for m in range(M):  # per agent: its position pair, then its offset
        p_m[m] = rng.uniform(0.0, 50.0, size=2)
        T_m[m] = rng.uniform(-10.0, 10.0) * 1e-9 * C
    agents = Agents(t=slot_interval * np.arange(M), p_m=p_m, T_m=T_m)
    target = TargetState(
        p=rng.uniform(*target_box, size=2),
        v=rng.uniform(-5.0, 5.0, size=2) if moving else np.zeros(2),
        T=rng.uniform(-10.0, 10.0) * 1e-9 * C,
        omega=rng.uniform(-20.0, 20.0) * 1e-6 * C if moving else 0.0,
    )
    sigma_db = rng.uniform(sigma_s_sq_db - 5.0, sigma_s_sq_db + 5.0, size=M)
    noise = NoiseSpec.from_db(10.0 * np.log10(sigma_tau_sq), sigma_db)
    return Scenario(agents=agents, target=target, noise=noise)


def random_state(rng: np.random.Generator) -> TargetState:
    return TargetState(
        p=rng.uniform(-50.0, 100.0, size=2),
        v=rng.uniform(-5.0, 5.0, size=2),
        T=rng.uniform(-10.0, 10.0) * 1e-9 * C,
        omega=rng.uniform(-20.0, 20.0) * 1e-6 * C,
    )


LTCO_OFFSETS = tuple(float(v) * C for v in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3))


def sweep_scenario(kind: str, value: float, seed: int) -> Scenario:
    """A scenario drawn as the Monte-Carlo schemes draw their trials.

    ``"noise"``: fixed topology, agent variances around ``value`` dB;
    ``"ltco"``: fixed topology at target clock offset ``value`` (m) and
    -20.5 dB; ``"random"``: a random topology around ``value`` dB.
    """
    rng = np.random.default_rng(seed)
    if kind == "random":
        return sample_random_topology(TopologyBounds(sigma_s_sq_db=value), rng)
    base = fixed_topology()
    if kind == "ltco":
        sigma_db, offset = -20.5, value
    else:
        sigma_db, offset = value, rng.uniform(-10.0, 10.0) * 1e-9 * C
    target = TargetState(p=base.target.p, v=base.target.v, T=offset, omega=rng.uniform(-20.0, 20.0) * 1e-6 * C)
    noise = NoiseSpec.from_db(-30.0, rng.uniform(sigma_db - 5.0, sigma_db + 5.0, size=base.n_agents))
    return Scenario(agents=base.agents, target=target, noise=noise)


def anisotropic_scenario(seed: int) -> Scenario:
    """A noise-sweep scenario at -20.5 dB whose noise takes the model's most
    general form, which no scheme draws: a TOA variance per agent around
    -30 dB and full 3x3 broadcast-error blocks, correlated within each agent."""
    base = sweep_scenario("noise", -20.5, seed)
    rng = np.random.default_rng([seed, 1])
    M = base.n_agents
    G = rng.normal(size=(M, 3, 3))
    blocks = 10.0 ** (-20.5 / 10.0) * (G @ G.swapaxes(-1, -2) / 3.0 + 0.2 * np.eye(3))
    c_tau = 10.0 ** (rng.uniform(-35.0, -25.0, size=M) / 10.0)
    return dataclasses.replace(base, noise=NoiseSpec(c_tau=c_tau, blocks=blocks))


#: (kind, value) pairs of :func:`sweep_scenario`, as the three schemes sweep them
SWEEP_POINTS = st.one_of(
    st.tuples(st.just("noise"), st.sampled_from(range(-50, -5, 5))),
    st.tuples(st.just("ltco"), st.sampled_from(LTCO_OFFSETS)),
    st.tuples(st.just("random"), st.sampled_from((-30.0, -20.5, -10.0))),
)


#: the message of each path in the unread-key tests' cases that is not an unread key
UNREAD_MESSAGES = {"experiment.topology.random": "expected an object of bounds"}


def entries(estimates):
    """The per-frame entries of :class:`~seqtoa.estimator.Estimates`: each
    row's report, or the error that stopped it."""
    return [estimates.errors.get(n) or estimates.report(n) for n in range(len(estimates.x))]
