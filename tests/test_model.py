import dataclasses

import numpy as np
import pytest

from seqtoa import (
    Agents,
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


def one_agent(p=(10.0, 0.0), T=0.0, t=0.0):
    return Agents(t=[t], p_m=[p], T_m=[T])


class TestForwardToa:
    def test_pure_geometric_range(self):
        x = TargetState(p=[0, 0], v=[0, 0], T=0.0, omega=0.0)
        assert forward_toa(x, one_agent())[0] == 10.0

    def test_moving_skewed_target(self):
        # independent hand evaluation: ||(-0.25,0)-(10,0)|| + 3 + 6000*0.05 = 313.25
        x = TargetState(p=[0, 0], v=[-5, 0], T=3.0, omega=6000.0)
        assert forward_toa(x, one_agent(t=0.05))[0] == pytest.approx(313.25, abs=1e-12)

    def test_offset_cancellation(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.uniform(-50, 50, 2)
            pm = rng.uniform(-50, 50, 2)
            T = rng.uniform(-100, 100)
            x = TargetState(p=p, v=[0, 0], T=T, omega=0.0)
            agent = one_agent(pm, T=T, t=rng.uniform(0, 0.5))
            assert forward_toa(x, agent)[0] == pytest.approx(np.linalg.norm(p - pm), rel=1e-12)

    def test_common_offset_shift_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = TargetState(p=rng.uniform(-50, 50, 2), v=rng.uniform(-5, 5, 2),
                            T=rng.uniform(-10, 10), omega=rng.uniform(-100, 100))
            agent = one_agent(rng.uniform(-50, 50, 2), T=rng.uniform(-10, 10), t=0.3)
            shift = rng.uniform(-1e5, 1e5)
            x2 = TargetState(p=x.p, v=x.v, T=x.T + shift, omega=x.omega)
            agent2 = dataclasses.replace(agent, T_m=agent.T_m + shift)
            assert forward_toa(x2, agent2)[0] == pytest.approx(forward_toa(x, agent)[0], rel=1e-12)

    def test_zero_slot_time_reduction(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = TargetState(p=rng.uniform(-50, 50, 2), v=rng.uniform(-5, 5, 2),
                            T=rng.uniform(-10, 10), omega=rng.uniform(-100, 100))
            agent = one_agent(rng.uniform(-50, 50, 2), T=rng.uniform(-10, 10), t=0.0)
            expected = np.linalg.norm(x.p - agent.p_m[0]) + x.T - agent.T_m[0]
            assert forward_toa(x, agent)[0] == pytest.approx(expected, rel=1e-14)


class TestSimulateFrame:
    def test_zero_noise_limit(self):
        rng = np.random.default_rng(4)
        base = random_scenario(rng, M=5)
        scenario = Scenario(
            agents=base.agents,
            target=base.target,
            noise=NoiseSpec.from_dense(np.zeros((5, 5)), np.zeros((15, 15))),
        )
        frame = simulate_frame(scenario, seed=7)
        assert np.array_equal(frame.tau, forward_toa(scenario.target, scenario.agents))
        assert np.array_equal(frame.p_hat, scenario.agents.p_m)
        assert np.array_equal(frame.T_hat, scenario.agents.T_m)

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
        agent = one_agent((30.0, 20.0), T=1.0, t=0.0)
        target = TargetState(p=[5, 5], v=[1, 0], T=2.0, omega=0.0)
        scenario = Scenario(
            agents=agent,
            target=target,
            noise=NoiseSpec.isotropic(1e-3, 1e-4, n_agents=1),
        )
        truth = forward_toa(target, agent)[0]
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
            noise=NoiseSpec.from_dense(np.eye(3) * 1e-3, C_beta),
        )
        with pytest.raises(NotPositiveDefiniteError):
            simulate_frame(bad, seed=0)

    def test_full_cbeta_sampling_matches_covariance(self):
        # a C_beta with full 3x3 agent blocks (errors correlated within each
        # agent, not across agents): empirical covariance ~ C_beta
        rng = np.random.default_rng(7)
        M = 2
        A = rng.normal(size=(M, 3, 3))
        C_beta = np.zeros((3 * M, 3 * M))
        for m in range(M):
            C_beta[3 * m : 3 * m + 3, 3 * m : 3 * m + 3] = A[m] @ A[m].T / 10 + np.eye(3) * 0.05
        base = random_scenario(rng, M=M)
        scenario = Scenario(
            agents=base.agents,
            target=base.target,
            noise=NoiseSpec.from_dense(np.eye(M) * 1e-6, C_beta),
        )
        n = 4000
        draws = np.empty((n, 3 * M))
        for seed in range(n):
            f = simulate_frame(scenario, seed)
            a = scenario.agents
            draws[seed] = np.column_stack([f.p_hat - a.p_m, f.T_hat - a.T_m]).reshape(-1)
        emp = np.cov(draws.T)
        assert np.abs(emp - C_beta).max() < 0.15 * np.abs(C_beta).max()


    def test_singular_blocks_sampling_matches_covariance(self):
        # per-agent blocks of rank 2 and 0: the block factors reproduce them,
        # and an agent with a zero block broadcasts its truth exactly
        rng = np.random.default_rng(12)
        A = rng.normal(size=(3, 2))
        C_beta = np.zeros((6, 6))
        C_beta[0:3, 0:3] = A @ A.T / 10
        base = random_scenario(rng, M=2)
        scenario = dataclasses.replace(base, noise=NoiseSpec.from_dense(np.eye(2) * 1e-6, C_beta))
        n = 4000
        draws = np.empty((n, 6))
        for seed in range(n):
            f = simulate_frame(scenario, seed)
            draws[seed] = np.column_stack([f.p_hat, f.T_hat]).reshape(-1)
        truth = np.column_stack([base.agents.p_m, base.agents.T_m]).reshape(-1)
        assert np.array_equal(draws[:, 3:], np.broadcast_to(truth[3:], (n, 3)))
        emp = np.cov((draws - truth).T)
        assert np.abs(emp - C_beta).max() < 0.15 * np.abs(C_beta).max()


class TestExactFrame:
    def test_matches_forward_model(self, fixed_scenario):
        frame = exact_frame(fixed_scenario)
        assert np.array_equal(frame.tau, forward_toa(fixed_scenario.target, fixed_scenario.agents))
        assert np.array_equal(frame.p_hat, fixed_scenario.agents.p_m)


class TestValidateScenario:
    def test_well_formed_scenario_is_clean(self, fixed_scenario):
        assert validate_scenario(fixed_scenario) == []

    def test_slot_origin_violation(self):
        rng = np.random.default_rng(8)
        base = random_scenario(rng, M=3)
        agents = dataclasses.replace(base.agents, t=base.agents.t + 0.05)
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
        t = base.agents.t.copy()
        t[2] = t[1]
        bad = Scenario(agents=dataclasses.replace(base.agents, t=t), target=base.target, noise=base.noise)
        assert "slot-order" in [d.code for d in validate_scenario(bad)]


class TestNoiseSpec:
    def test_db_roundtrip(self):
        assert db_to_variance(-30.0) == pytest.approx(1e-3, rel=1e-12)
        assert variance_to_db(1e-3) == pytest.approx(-30.0, abs=1e-12)

    @pytest.mark.parametrize("case", ["toa_correlation", "cross_agent_correlation"])
    def test_from_dense_rejects_correlation_across_agents(self, case):
        base = NoiseSpec.from_db(-30.0, np.full(10, -20.0))
        C_tau, C_beta = base.C_tau.copy(), base.C_beta.copy()
        if case == "toa_correlation":
            C_tau[0, 1] = C_tau[1, 0] = 1e-4
        else:
            C_beta[0, 3] = C_beta[3, 0] = 1e-3
        with pytest.raises(ValueError, match="C_tau must be diagonal" if case == "toa_correlation" else "block diagonal"):
            NoiseSpec.from_dense(C_tau, C_beta)

    def test_position_cov_traces(self):
        spec = NoiseSpec.isotropic(1e-3, [1e-2, 4e-2], n_agents=2)
        assert np.allclose(spec.position_cov_traces(), [2e-2, 8e-2])

    def test_size_mismatch_rejected(self, fixed_scenario):
        with pytest.raises(ValueError):
            Scenario(
                agents=one_agent(),
                target=TargetState(p=[0, 0], v=[0, 0], T=0, omega=0),
                noise=NoiseSpec.isotropic(1e-3, 1e-3, n_agents=2),
            )
        frame = exact_frame(fixed_scenario)
        for name, bad in (("t", frame.t[:, None]), ("tau", frame.tau[None]), ("T_hat", frame.T_hat.reshape(2, 5))):
            with pytest.raises(ValueError, match=f"{name} must have shape"):
                dataclasses.replace(frame, **{name: bad})
        agents = fixed_scenario.agents
        one_nan = np.where(np.arange(10) == 3, np.nan, 0.0)
        for name, bad, message in (
            ("t", agents.t[:, None], "t must have shape"),
            ("t", agents.t[:9], "p_m must have shape"),
            ("p_m", agents.p_m.T, "p_m must have shape"),
            ("T_m", agents.T_m[1:], "T_m must have shape"),
            ("t", agents.t + one_nan, "t must be finite"),
            ("T_m", agents.T_m + one_nan, "T_m must be finite"),
            ("p_m", agents.p_m + np.inf, "p_m must be finite"),
        ):
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(agents, **{name: bad})
        with pytest.raises(ValueError, match="at least one agent"):
            Agents(t=[], p_m=np.empty((0, 2)), T_m=[])
