import dataclasses

import numpy as np
import pytest

from seqtoa import (
    AgentTruth,
    NoiseSpec,
    NotPositiveDefiniteError,
    Scenario,
    TargetState,
    exact_frame,
    forward_toa,
    simulate_frame,
    validate_scenario,
)
from seqtoa.model import db_to_variance, variance_to_db

from conftest import C, random_scenario


def make_agent(p=(10.0, 0.0), T=0.0, t=0.0):
    return AgentTruth(p_m=np.asarray(p), T_m=T, t_m=t)


class TestForwardToa:
    def test_pure_geometric_range(self):
        x = TargetState(p=[0, 0], v=[0, 0], T=0.0, omega=0.0)
        assert forward_toa(x, make_agent()) == 10.0

    def test_moving_skewed_target(self):
        # independent hand evaluation: ||(-0.25,0)-(10,0)|| + 3 + 6000*0.05 = 313.25
        x = TargetState(p=[0, 0], v=[-5, 0], T=3.0, omega=6000.0)
        assert forward_toa(x, make_agent(t=0.05)) == pytest.approx(313.25, abs=1e-12)

    def test_offset_cancellation(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.uniform(-50, 50, 2)
            pm = rng.uniform(-50, 50, 2)
            T = rng.uniform(-100, 100)
            x = TargetState(p=p, v=[0, 0], T=T, omega=0.0)
            agent = make_agent(pm, T=T, t=rng.uniform(0, 0.5))
            assert forward_toa(x, agent) == pytest.approx(np.linalg.norm(p - pm), rel=1e-12)

    def test_common_offset_shift_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = TargetState(p=rng.uniform(-50, 50, 2), v=rng.uniform(-5, 5, 2),
                            T=rng.uniform(-10, 10), omega=rng.uniform(-100, 100))
            agent = make_agent(rng.uniform(-50, 50, 2), T=rng.uniform(-10, 10), t=0.3)
            shift = rng.uniform(-1e5, 1e5)
            x2 = TargetState(p=x.p, v=x.v, T=x.T + shift, omega=x.omega)
            agent2 = make_agent(agent.p_m, T=agent.T_m + shift, t=agent.t_m)
            assert forward_toa(x2, agent2) == pytest.approx(forward_toa(x, agent), rel=1e-12)

    def test_zero_slot_time_reduction(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = TargetState(p=rng.uniform(-50, 50, 2), v=rng.uniform(-5, 5, 2),
                            T=rng.uniform(-10, 10), omega=rng.uniform(-100, 100))
            agent = make_agent(rng.uniform(-50, 50, 2), T=rng.uniform(-10, 10), t=0.0)
            expected = np.linalg.norm(x.p - agent.p_m) + x.T - agent.T_m
            assert forward_toa(x, agent) == pytest.approx(expected, rel=1e-14)


class TestSimulateFrame:
    def test_zero_noise_limit(self):
        rng = np.random.default_rng(4)
        base = random_scenario(rng, M=5)
        scenario = Scenario(
            agents=base.agents,
            target=base.target,
            noise=NoiseSpec(C_tau=np.zeros((5, 5)), C_beta=np.zeros((15, 15))),
        )
        frame = simulate_frame(scenario, seed=7)
        for m, agent in enumerate(scenario.agents):
            assert frame.tau[m] == forward_toa(scenario.target, agent)
            assert np.array_equal(frame.p_hat[m], agent.p_m)
            assert frame.T_hat[m] == agent.T_m

    def test_determinism(self):
        scenario = random_scenario(np.random.default_rng(5))
        f1 = simulate_frame(scenario, seed=123)
        f2 = simulate_frame(scenario, seed=123)
        assert np.array_equal(f1.tau, f2.tau)
        assert np.array_equal(f1.p_hat, f2.p_hat)
        assert np.array_equal(f1.T_hat, f2.T_hat)
        f3 = simulate_frame(scenario, seed=124)
        assert f3.tau[0] != f1.tau[0]

    def test_noise_variance_and_mean(self):
        # one-agent scenario, 1e5 seeded frames: sample variance of the TOA
        # noise must sit in [0.95, 1.05] * 1e-3 and the mean within 3 SE of 0
        agent = make_agent((30.0, 20.0), T=1.0, t=0.0)
        target = TargetState(p=[5, 5], v=[1, 0], T=2.0, omega=0.0)
        scenario = Scenario(
            agents=(agent,),
            target=target,
            noise=NoiseSpec.isotropic(1e-3, 1e-4, n_agents=1),
        )
        truth = forward_toa(target, agent)
        n = 100_000
        deltas = np.empty(n)
        for seed in range(n):
            deltas[seed] = simulate_frame(scenario, seed).tau[0] - truth
        var = deltas.var(ddof=1)
        assert 0.95e-3 <= var <= 1.05e-3
        se = np.sqrt(var / n)
        assert abs(deltas.mean()) <= 3 * se

    def test_rejects_indefinite_cbeta(self):
        rng = np.random.default_rng(6)
        base = random_scenario(rng, M=3)
        C_beta = np.eye(9)
        C_beta[0, 0] = -1.0
        bad = Scenario(
            agents=base.agents,
            target=base.target,
            noise=NoiseSpec(C_tau=np.eye(3) * 1e-3, C_beta=C_beta),
        )
        with pytest.raises(NotPositiveDefiniteError):
            simulate_frame(bad, seed=0)

    def test_full_cbeta_sampling_matches_covariance(self):
        # correlated broadcast errors: empirical covariance ~ C_beta
        rng = np.random.default_rng(7)
        M = 2
        A = rng.normal(size=(3 * M, 3 * M))
        C_beta = A @ A.T / 10 + np.eye(3 * M) * 0.05
        base = random_scenario(rng, M=M)
        scenario = Scenario(
            agents=base.agents,
            target=base.target,
            noise=NoiseSpec(C_tau=np.eye(M) * 1e-6, C_beta=C_beta),
        )
        n = 4000
        draws = np.empty((n, 3 * M))
        for seed in range(n):
            f = simulate_frame(scenario, seed)
            for m, agent in enumerate(scenario.agents):
                draws[seed, 3 * m : 3 * m + 2] = f.p_hat[m] - agent.p_m
                draws[seed, 3 * m + 2] = f.T_hat[m] - agent.T_m
        emp = np.cov(draws.T)
        assert np.abs(emp - C_beta).max() < 0.15 * np.abs(C_beta).max()


class TestExactFrame:
    def test_matches_forward_model(self, fixed_scenario):
        frame = exact_frame(fixed_scenario)
        for m, agent in enumerate(fixed_scenario.agents):
            assert frame.tau[m] == forward_toa(fixed_scenario.target, agent)
            assert np.array_equal(frame.p_hat[m], agent.p_m)


class TestValidateScenario:
    def test_well_formed_scenario_is_clean(self, fixed_scenario):
        assert validate_scenario(fixed_scenario) == []

    def test_slot_origin_violation(self):
        rng = np.random.default_rng(8)
        base = random_scenario(rng, M=3)
        agents = tuple(
            AgentTruth(p_m=a.p_m, T_m=a.T_m, t_m=a.t_m + 0.05) for a in base.agents
        )
        bad = Scenario(agents=agents, target=base.target, noise=base.noise)
        codes = [d.code for d in validate_scenario(bad)]
        assert "slot-origin" in codes

    def test_underdetermined_warning(self):
        scenario = random_scenario(np.random.default_rng(9), M=8)
        diags = validate_scenario(scenario)
        match = [d for d in diags if d.code == "underdetermined"]
        assert len(match) == 1 and match[0].severity == "warning"

    def test_skew_bound(self):
        base = random_scenario(np.random.default_rng(10), M=9)
        bad_target = TargetState(p=base.target.p, v=base.target.v, T=base.target.T,
                                 omega=200e-6 * C)
        bad = Scenario(agents=base.agents, target=bad_target, noise=base.noise)
        assert "skew-bound" in [d.code for d in validate_scenario(bad)]

    def test_slot_order_violation(self):
        rng = np.random.default_rng(11)
        base = random_scenario(rng, M=3)
        a = list(base.agents)
        a[2] = AgentTruth(p_m=a[2].p_m, T_m=a[2].T_m, t_m=a[1].t_m)
        bad = Scenario(agents=tuple(a), target=base.target, noise=base.noise)
        assert "slot-order" in [d.code for d in validate_scenario(bad)]


class TestNoiseSpec:
    def test_db_roundtrip(self):
        assert db_to_variance(-30.0) == pytest.approx(1e-3, rel=1e-12)
        assert variance_to_db(1e-3) == pytest.approx(-30.0, abs=1e-12)

    def test_position_cov_traces(self):
        spec = NoiseSpec.isotropic(1e-3, [1e-2, 4e-2], n_agents=2)
        assert np.allclose(spec.position_cov_traces(), [2e-2, 8e-2])

    def test_size_mismatch_rejected(self, fixed_scenario):
        with pytest.raises(ValueError):
            Scenario(
                agents=(make_agent(),),
                target=TargetState(p=[0, 0], v=[0, 0], T=0, omega=0),
                noise=NoiseSpec.isotropic(1e-3, 1e-3, n_agents=2),
            )
        frame = exact_frame(fixed_scenario)
        for name, bad in (("t", frame.t[:, None]), ("tau", frame.tau[None]), ("T_hat", frame.T_hat.reshape(2, 5))):
            with pytest.raises(ValueError, match=f"{name} must have shape"):
                dataclasses.replace(frame, **{name: bad})
