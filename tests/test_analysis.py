import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtoa import (
    Agents,
    ConditioningError,
    CrlbResult,
    DegenerateGeometryError,
    EstimationError,
    NoiseSpec,
    NotPositiveDefiniteError,
    Scenario,
    TargetState,
    analytic_cov,
    crlb_batch,
    crlb_target,
    estimate,
    fim_blocks,
    forward_toa,
    simulate_frame,
    toa_gradients,
)

from conftest import C, SWEEP_POINTS, anisotropic_scenario, random_scenario, random_state, sweep_scenario


def collinear_agents(M: int) -> Agents:
    """M agents 5 m apart on the x axis, slots 50 ms apart."""
    return Agents(t=0.05 * np.arange(M), p_m=np.column_stack([5.0 * np.arange(M), np.zeros(M)]), T_m=np.zeros(M))


class TestToaGradients:
    def test_axis_aligned(self):
        x = TargetState(p=[0, 0], v=[0, 0], T=0.0, omega=0.0)
        agent = Agents(t=[0.0], p_m=[[10.0, 0.0]], T_m=[0.0])
        gx, gb = toa_gradients(x, agent)
        assert np.allclose(gx, [[-1, 0, 0, 0, 1, 0]], atol=0)
        assert np.allclose(gb, [[1, 0, -1]], atol=0)

    def test_moving_along_axis(self):
        x = TargetState(p=[0, 0], v=[-5, 0], T=0.0, omega=0.0)
        agent = Agents(t=[0.05], p_m=[[10.0, 0.0]], T_m=[0.0])
        gx, _ = toa_gradients(x, agent)
        assert np.allclose(gx, [[-1, 0, -0.05, 0, 1, 0.05]], rtol=1e-14)

    def test_finite_difference_agreement(self):
        # central differences of forward_toa in both the state and the agent
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = random_state(rng)
            p_m, T_m, t_m = rng.uniform(0, 50, 2), rng.uniform(-3, 3), rng.uniform(0, 0.5)
            agent = Agents(t=[t_m], p_m=[p_m], T_m=[T_m])
            gx, gb = (g[0] for g in toa_gradients(x, agent))

            xv = x.as_vector()
            fd_x = np.empty(6)
            for i in range(6):
                h = 1e-6 * max(1.0, abs(xv[i]))
                xp, xm = xv.copy(), xv.copy()
                xp[i] += h
                xm[i] -= h
                fd_x[i] = (
                    forward_toa(TargetState.from_vector(xp), agent)[0]
                    - forward_toa(TargetState.from_vector(xm), agent)[0]
                ) / (2 * h)
            assert np.abs(gx - fd_x).max() <= 1e-5 * max(1.0, np.abs(gx).max())

            beta = np.array([p_m[0], p_m[1], T_m])
            fd_b = np.empty(3)
            for i in range(3):
                h = 1e-6 * max(1.0, abs(beta[i]))
                bp, bm = beta.copy(), beta.copy()
                bp[i] += h
                bm[i] -= h
                fd_b[i] = (
                    forward_toa(x, Agents(t=[t_m], p_m=[bp[:2]], T_m=[bp[2]]))[0]
                    - forward_toa(x, Agents(t=[t_m], p_m=[bm[:2]], T_m=[bm[2]]))[0]
                ) / (2 * h)
            assert np.abs(gb - fd_b).max() <= 1e-5 * max(1.0, np.abs(gb).max())

    def test_coincident_geometry_raises(self):
        x = TargetState(p=[10, 0], v=[0, 0], T=0.0, omega=0.0)
        agents = Agents(t=[0.0, 0.05, 0.1], p_m=[[0.0, 5.0], [10.0, 0.0], [10.0, 0.0]], T_m=[0.0, 0.0, 0.0])
        with pytest.raises(DegenerateGeometryError, match=r"^target coincides with agent at slot time 0.05: range 0.000e\+00$"):
            toa_gradients(x, agents)


class TestCrlbTarget:
    def test_near_perfect_agents_limit(self):
        # C_beta -> 0: the bound collapses to the target-only information R1
        rng = np.random.default_rng(1)
        base = random_scenario(rng)
        M = base.n_agents
        scenario = Scenario(
            agents=base.agents,
            target=base.target,
            noise=NoiseSpec.from_dense(base.noise.C_tau, np.eye(3 * M) * 1e-12),
        )
        res = crlb_target(scenario)
        R1_inv = np.linalg.inv(fim_blocks(scenario).R1)
        assert np.abs(res.crlb_x - R1_inv).max() <= 1e-6 * np.abs(R1_inv).max()

    def test_schur_matches_full_fim_inverse(self):
        for s in range(10):
            scenario = random_scenario(np.random.default_rng(5000 + s))
            res = crlb_target(scenario)
            top = np.linalg.inv(res.full_fim)[:6, :6]
            assert np.abs(top - res.crlb_x).max() <= 1e-8 * np.abs(res.crlb_x).max()

    def test_doubling_covariances_doubles_bound(self):
        scenario = random_scenario(np.random.default_rng(2))
        doubled = Scenario(
            agents=scenario.agents,
            target=scenario.target,
            noise=NoiseSpec.from_dense(2 * scenario.noise.C_tau, 2 * scenario.noise.C_beta),
        )
        c1 = crlb_target(scenario).crlb_x
        c2 = crlb_target(doubled).crlb_x
        assert np.allclose(c2, 2 * c1, rtol=1e-12)

    def test_agent_relabeling_invariance(self):
        # permuting agents (with their slots, offsets and noise blocks) leaves
        # the bound unchanged
        rng = np.random.default_rng(3)
        scenario = random_scenario(rng)
        M = scenario.n_agents
        perm = rng.permutation(M)
        a = scenario.agents
        agents = Agents(t=a.t[perm], p_m=a.p_m[perm], T_m=a.T_m[perm])
        C_tau = scenario.noise.C_tau[np.ix_(perm, perm)]
        idx = np.concatenate([[3 * i, 3 * i + 1, 3 * i + 2] for i in perm])
        C_beta = scenario.noise.C_beta[np.ix_(idx, idx)]
        permuted = Scenario(
            agents=agents, target=scenario.target, noise=NoiseSpec.from_dense(C_tau, C_beta)
        )
        c1 = crlb_target(scenario).crlb_x
        c2 = crlb_target(permuted).crlb_x
        assert np.allclose(c1, c2, rtol=1e-10)

    def test_rigid_translation_invariance(self):
        scenario = random_scenario(np.random.default_rng(4))
        shift = np.array([13.7, -8.2])
        agents = dataclasses.replace(scenario.agents, p_m=scenario.agents.p_m + shift)
        t = scenario.target
        moved = Scenario(
            agents=agents,
            target=TargetState(p=t.p + shift, v=t.v, T=t.T, omega=t.omega),
            noise=scenario.noise,
        )
        c1 = crlb_target(scenario).crlb_x
        c2 = crlb_target(moved).crlb_x
        assert np.abs(c1 - c2).max() <= 1e-8 * np.abs(c1).max()

    def test_collinear_agents_unobservable(self):
        # all agents on one line, target on the same line, at rest
        M = 10
        scenario = Scenario(
            agents=collinear_agents(M),
            target=TargetState(p=[75.0, 0.0], v=[0, 0], T=0.0, omega=0.0),
            noise=NoiseSpec.isotropic(1e-3, 1e-3, n_agents=M),
        )
        with pytest.raises(DegenerateGeometryError):
            crlb_target(scenario)


def coincident_scenario(seed: int) -> Scenario:
    """A noise-sweep scenario whose target sits, at rest, on agent 0 at its slot."""
    base = sweep_scenario("noise", -30.0, seed)
    target = TargetState(p=base.agents.p_m[0], v=[0.0, 0.0], T=base.target.T, omega=base.target.omega)
    return Scenario(agents=base.agents, target=target, noise=base.noise)


def schur_information(scenario: Scenario) -> np.ndarray:
    blocks = fim_blocks(scenario)
    return blocks.R1 - blocks.R2 @ np.linalg.solve(blocks.R3, blocks.R2.T)


def with_noise(scenario: Scenario, C_tau=None, C_beta=None) -> Scenario:
    noise = NoiseSpec.from_dense(
        scenario.noise.C_tau if C_tau is None else C_tau,
        scenario.noise.C_beta if C_beta is None else C_beta,
    )
    return dataclasses.replace(scenario, noise=noise)


def rel(a, b) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


class TestCrlbBatch:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.one_of(SWEEP_POINTS, st.just(("coincident", 0.0))), st.integers(0, 2**32 - 1)),
            min_size=1,
            max_size=12,
        )
    )
    def test_each_scenario_matches_its_batch_of_one(self, draws):
        scenarios = [
            coincident_scenario(seed) if kind == "coincident" else sweep_scenario(kind, value, seed)
            for (kind, value), seed in draws
        ]
        for scenario, got in zip(scenarios, crlb_batch(scenarios)):
            try:
                want = crlb_target(scenario)
            except EstimationError as exc:
                assert type(got) is type(exc)
                continue
            assert isinstance(got, CrlbResult) and got.scenario is scenario
            assert rel(got.crlb_x, want.crlb_x) <= 1e-12
            assert rel(got.information, want.information) <= 1e-12

    def test_closed_form_matches_schur_complement(self):
        for kind, value in [("noise", -50.0), ("noise", -10.0), ("ltco", 1e-3 * C), ("random", -20.5),
                            ("anisotropic", -20.5)]:
            for seed in range(10):
                scenario = anisotropic_scenario(seed) if kind == "anisotropic" else sweep_scenario(kind, value, seed)
                assert rel(crlb_target(scenario).information, schur_information(scenario)) <= 1e-10, (kind, seed)

    def test_bad_scenario_fails_alone(self):
        good = [sweep_scenario("random", -20.5, k) for k in range(4)]
        collinear = Scenario(
            agents=collinear_agents(10),
            target=TargetState(p=[75.0, 0.0], v=[0, 0], T=0.0, omega=0.0),
            noise=NoiseSpec.isotropic(1e-3, 1e-3, n_agents=10),
        )
        C_tau = good[0].noise.C_tau.copy()
        C_tau[3, 3] = 0.0
        C_beta = good[0].noise.C_beta.copy()
        C_beta[5, 5] = -1e-3
        bad = {
            DegenerateGeometryError: coincident_scenario(7),
            ConditioningError: with_noise(good[0], C_tau=C_tau),
            NotPositiveDefiniteError: with_noise(good[0], C_beta=C_beta),
        }
        alone = crlb_batch(good)
        for error, scenario in [*bad.items(), (DegenerateGeometryError, collinear)]:
            results = crlb_batch([good[0], good[1], scenario, good[2], good[3]])
            assert type(results[2]) is error
            for got, want in zip([*results[:2], *results[3:]], alone):
                assert np.array_equal(got.crlb_x, want.crlb_x)
        assert "singular" in str(crlb_batch([collinear])[0])

    def test_full_fim_built_on_first_read(self):
        res = crlb_target(sweep_scenario("noise", -20.5, 0))
        assert "full_fim" not in vars(res)
        blocks = fim_blocks(res.scenario)
        assert np.array_equal(res.full_fim, np.block([[blocks.R1, blocks.R2], [blocks.R2.T, blocks.R3]]))
        assert res.full_fim is res.full_fim

    def test_mixed_agent_counts_rejected(self):
        with pytest.raises(ValueError, match="same number"):
            crlb_batch([random_scenario(np.random.default_rng(0), M=10), random_scenario(np.random.default_rng(0), M=9)])


class TestAnalyticCov:
    def test_direct_equals_factored(self):
        for s in range(10):
            scenario = random_scenario(np.random.default_rng(6000 + s))
            c1 = analytic_cov(scenario, form="direct")
            c2 = analytic_cov(scenario, form="factored")
            assert np.abs(c1 - c2).max() <= 1e-8 * np.abs(c1).max()

    def test_matches_crlb_at_small_noise(self):
        # sigma_tau^2 = sigma_s^2 = 1e-4 m^2: prediction within 5% of the bound
        rng = np.random.default_rng(5)
        base = random_scenario(rng)
        M = base.n_agents
        scenario = Scenario(
            agents=base.agents,
            target=base.target,
            noise=NoiseSpec.isotropic(1e-4, 1e-4, n_agents=M),
        )
        cov = analytic_cov(scenario)
        crlb = crlb_target(scenario).crlb_x
        assert np.abs(np.diag(cov) / np.diag(crlb) - 1).max() <= 0.05

    def test_never_beats_the_bound(self):
        # PSD ordering: cov - crlb has no eigenvalue below -1e-9 * ||crlb||
        for s in range(10):
            scenario = random_scenario(np.random.default_rng(7000 + s))
            cov = analytic_cov(scenario)
            crlb = crlb_target(scenario).crlb_x
            min_eig = np.linalg.eigvalsh(cov - crlb).min()
            assert min_eig >= -1e-9 * np.abs(crlb).max()

    def test_translation_invariance(self):
        scenario = random_scenario(np.random.default_rng(8))
        shift = np.array([-21.0, 9.5])
        agents = dataclasses.replace(scenario.agents, p_m=scenario.agents.p_m + shift)
        t = scenario.target
        moved = Scenario(
            agents=agents,
            target=TargetState(p=t.p + shift, v=t.v, T=t.T, omega=t.omega),
            noise=scenario.noise,
        )
        c1 = analytic_cov(scenario)
        c2 = analytic_cov(moved)
        assert np.abs(c1 - c2).max() <= 1e-7 * np.abs(c1).max()

    def test_matches_empirical_covariance(self, fixed_scenario):
        # Monte-Carlo covariance of the estimator vs the analytic prediction;
        # the full-sized (N=3000, 10%) version runs in the acceptance suite
        rng = np.random.default_rng(9)
        M = fixed_scenario.n_agents
        sigma_db = rng.uniform(-35, -25, M)
        scenario = Scenario(
            agents=fixed_scenario.agents,
            target=fixed_scenario.target,
            noise=NoiseSpec.from_db(-30.0, sigma_db),
        )
        n = 800
        estimates = np.empty((n, 6))
        for seed in range(n):
            estimates[seed] = estimate(simulate_frame(scenario, seed)).x_hat.as_vector()
        emp = np.cov(estimates.T)
        cov = analytic_cov(scenario)
        assert np.abs(np.diag(emp) / np.diag(cov) - 1).max() <= 0.15
