import dataclasses
import re
import warnings

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
    crlb_target,
    estimate,
    fim_blocks,
    fixed_topology,
    forward_toa,
    simulate_frame,
    toa_gradients,
)

from seqtoa.analysis import _toa_geometry, crlb_columns

from conftest import C, SWEEP_POINTS, anisotropic_scenario, random_scenario, random_state, sweep_scenario
from test_estimator import fail_member


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

    def test_overflowing_range_raises(self):
        # finite coordinates whose squared range overflows; the first such agent is named, without a warning
        x = TargetState(p=[0, 0], v=[1e300, 0], T=0.0, omega=0.0)
        agents = Agents(t=[0.0, 0.05, 0.1], p_m=[[0.0, 5.0], [10.0, 0.0], [10.0, 0.0]], T_m=[0.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConditioningError, match=r"^range to the agent at slot time 0.05 overflows float64"):
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


def stacked_crlb(scenarios):
    """:func:`crlb_columns` on the stacked arrays of ``scenarios``."""
    return crlb_columns(
        np.array([s.target.as_vector() for s in scenarios]),
        np.array([s.agents.t for s in scenarios]),
        np.array([s.agents.p_m for s in scenarios]),
        np.array([s.noise.c_tau for s in scenarios]),
        np.array([s.noise.blocks for s in scenarios]),
    )


def crlb_entries(scenarios) -> list:
    """:func:`stacked_crlb` as per-scenario entries: each scenario's
    :class:`CrlbResult`, or the error that stopped it."""
    crlb_x, information, errors = stacked_crlb(scenarios)
    return [errors.get(n) or CrlbResult(crlb_x=crlb_x[n], information=information[n], scenario=s)
            for n, s in enumerate(scenarios)]


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
        for scenario, got in zip(scenarios, crlb_entries(scenarios)):
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
        # finite, but its squared ranges overflow float64
        far = dataclasses.replace(good[0], target=TargetState(p=[1e200, 1e200], v=[0, 0], T=0.0, omega=0.0))
        bad = [
            (DegenerateGeometryError, coincident_scenario(7)),
            (ConditioningError, with_noise(good[0], C_tau=C_tau)),
            (NotPositiveDefiniteError, with_noise(good[0], C_beta=C_beta)),
            (DegenerateGeometryError, collinear),
            (ConditioningError, far),
        ]
        alone = crlb_entries(good)
        for error, scenario in bad:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an overflow warning would surface as an exception
                results = crlb_entries([good[0], good[1], scenario, good[2], good[3]])
            assert type(results[2]) is error
            for got, want in zip([*results[:2], *results[3:]], alone):
                assert np.array_equal(got.crlb_x, want.crlb_x)
        assert "singular" in str(crlb_entries([collinear])[0])
        assert "overflows" in str(crlb_entries([far])[0])

    def test_failed_rows_hold_nan(self):
        good = sweep_scenario("random", -20.5, 0)
        crlb_x, information, errors = stacked_crlb([good, coincident_scenario(7), good])
        [(row, error)] = errors.items()
        assert type(row) is int and row == 1 and isinstance(error, DegenerateGeometryError)
        assert np.isnan(crlb_x[1]).all() and np.isnan(information[1]).all()
        assert np.array_equal(crlb_x[0], crlb_target(good).crlb_x) and np.array_equal(crlb_x[2], crlb_x[0])

    def test_full_fim_built_on_first_read(self):
        res = crlb_target(sweep_scenario("noise", -20.5, 0))
        assert "full_fim" not in vars(res)
        blocks = fim_blocks(res.scenario)
        assert np.array_equal(res.full_fim, np.block([[blocks.R1, blocks.R2], [blocks.R2.T, blocks.R3]]))
        assert res.full_fim is res.full_fim


def fault_scenario(fault: str) -> Scenario:
    """The fixed topology with one fault, or two: an agent at ``[1e200, 1e200]``
    (its range overflows), the target at rest on an agent (coincident), a
    zero TOA variance, an agent block that is not positive definite, or
    collinear agents."""
    base = fixed_topology()
    a, noise = base.agents, base.noise
    far, on = {"overflow": (3, None), "coincident": (None, 0), "overflow_first": (0, 3),
               "coincident_first": (3, 0)}.get(fault, (None, None))
    if far is not None:
        p_m = a.p_m.copy()
        p_m[far] = 1e200
        a = dataclasses.replace(a, p_m=p_m)
    target = base.target if on is None else TargetState(p=base.agents.p_m[on], v=[0, 0], T=0.0, omega=0.0)
    c_tau, blocks = noise.c_tau.copy(), noise.blocks.copy()
    if fault == "zero_c_tau":
        c_tau[3] = 0.0
    if fault == "non_pd":
        blocks[5, 1, 1] = -1e-3
    if fault == "collinear":
        a, target = collinear_agents(10), TargetState(p=[75.0, 0.0], v=[0, 0], T=0.0, omega=0.0)
    return Scenario(agents=a, target=target, noise=NoiseSpec(c_tau=c_tau, blocks=blocks))


GEOMETRY_FAULTS = ("overflow", "coincident", "overflow_first", "coincident_first")
OVERFLOW = r"range to the agent at slot time {} overflows float64: the scenario's coordinates are too large to evaluate"

FAULT_CASES = [
    ("overflow", ConditioningError, OVERFLOW.format(0.15)),
    ("coincident", DegenerateGeometryError, r"target coincides with agent at slot time 0.0: range 0.000e\+00"),
    # both faults: the overflowing agent is named, whichever agent comes first
    ("overflow_first", ConditioningError, OVERFLOW.format(0.0)),
    ("coincident_first", ConditioningError, OVERFLOW.format(0.15)),
    ("zero_c_tau", ConditioningError, "C_tau must be strictly positive for the information matrix"),
    ("non_pd", NotPositiveDefiniteError, "C_beta must be positive definite for the information matrix"),
    ("collinear", DegenerateGeometryError, r"target information is singular \(min eig .*\); geometry unobservable"),
]


class TestOneGeometryCheck:
    @pytest.mark.parametrize("fault, error, message", FAULT_CASES, ids=[case[0] for case in FAULT_CASES])
    def test_every_entry_point_gives_one_error(self, fault, error, message):
        scenario = fault_scenario(fault)
        entry_points = [crlb_target]
        if fault != "collinear":  # the joint FIM of collinear agents is not singular
            entry_points.append(fim_blocks)
        if fault in GEOMETRY_FAULTS:
            entry_points += [lambda s: toa_gradients(s.target, s.agents), analytic_cov]
        good = sweep_scenario("noise", -20.5, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a floating-point warning would surface as an exception
            crlb_x, _, errors = stacked_crlb([good, scenario, good])
            got = [errors[1]]
            for entry in entry_points:
                with pytest.raises(EstimationError) as info:
                    entry(scenario)
                got.append(info.value)
        assert list(errors) == [1] and np.array_equal(crlb_x[2], crlb_target(good).crlb_x)
        assert {(type(e), str(e)) for e in got} == {(error, str(got[0]))}
        assert re.fullmatch(message, str(got[0]))


def geometry_records(x, t, p_m) -> dict:
    """The geometry rule of :func:`toa_gradients`, evaluated agent by agent:
    ``(error class, message)`` of each failing scenario."""
    records = {}
    for i in range(len(x)):
        with np.errstate(all="ignore"):  # a squared coordinate may overflow, as in the kernel
            r = np.sqrt(((x[i, 0:2] + x[i, 2:4] * t[i][:, None] - p_m[i]) ** 2).sum(axis=-1))
            tol = 1e-12 * (1.0 + np.sqrt((p_m[i] ** 2).sum(axis=-1)))
        if not np.isfinite(r).all():
            m = int(np.argmin(np.isfinite(r)))
            records[i] = (ConditioningError, OVERFLOW.format(t[i, m]).replace("\\", ""))
        elif (r <= tol).any():
            m = int(np.argmax(r <= tol))
            records[i] = (DegenerateGeometryError, f"target coincides with agent at slot time {t[i, m]}: range {r[m]:.3e}")
    return records


class TestGeometryFastPath:
    """The geometry kernel builds its records only when one test over the
    whole stack fails; its records must be the rule's, agent by agent."""

    @pytest.mark.parametrize(
        "center, spread",
        # (0, 1e153): ranges that overflow; the last three: agents whose squared norms overflow while
        # their ranges stay finite, so the rule finds every target on an agent
        [(0.0, 0.0), (0.0, 1.0), (0.0, 1e3), (1e3, 1.0), (0.0, 1e100), (0.0, 1e149), (0.0, 1e153), (1e154, 1e150),
         (1e155, 1e151), (1e160, 1.0)],
    )
    def test_records_follow_the_rule_at_every_scale(self, center, spread):
        # targets at rest at distances around the coincidence tolerance of the agent farthest from the
        # origin, whose tolerance is the largest (agents off the axes: (1e3, 1.0))
        p_m = center + fixed_topology().agents.p_m * spread + np.arange(10)[:, None] * max(spread, 1.0) * 1e-3
        far = p_m[np.argmax(np.hypot(*p_m.T))]
        tol = 1e-12 * (1.0 + np.hypot(*far))  # finite where the rule's squared norm overflows
        xs = []
        for d in (0.0, 0.5, 0.999, 1.0, 1.001, 2.0, 1e3):
            for direction in ([1.0, 0.0], [0.6, -0.8]):
                xs.append(np.r_[far + d * tol * np.array(direction), 0.0, 0.0, 0.0, 0.0])
        x = np.array(xs)
        t = np.broadcast_to(np.zeros(10), (len(x), 10))  # every agent at its slot at once: the target is at rest
        p = np.broadcast_to(p_m, (len(x), 10, 2))
        want = geometry_records(x, t, p)
        with np.errstate(all="ignore"):  # the kernel's callers silence floating-point warnings
            # the test covers a whole stack, so each target runs alone as well
            stacks = [(_toa_geometry(x, t, p)[2], range(len(x)))]
            stacks += [(_toa_geometry(x[i:i + 1], t[i:i + 1], p[i:i + 1])[2], [i]) for i in range(len(x))]
        for errors, rows in stacks:
            got = {rows[k]: (type(e), str(e)) for k, e in errors.items()}
            assert got == {i: want[i] for i in rows if i in want}


def stack_columns(scenarios):
    """The columns :func:`crlb_columns` reads, as writable copies."""
    return [np.array([f(s) for s in scenarios]) for f in (
        lambda s: s.target.as_vector(), lambda s: s.agents.t, lambda s: s.agents.p_m,
        lambda s: s.noise.c_tau, lambda s: s.noise.blocks)]


def assert_rows_are_solo(crlb_x, information, errors, scenarios):
    """Row n of a stack is ``crlb_target(scenarios[n])``: the same bytes, or
    the same error class and message and NaN rows."""
    for n, scenario in enumerate(scenarios):
        try:
            want = crlb_target(scenario)
        except EstimationError as exc:
            assert (type(errors[n]), str(errors[n])) == (type(exc), str(exc)), n
            assert np.isnan(crlb_x[n]).all() and np.isnan(information[n]).all()
            continue
        assert n not in errors, n
        assert crlb_x[n].tobytes() == want.crlb_x.tobytes() and information[n].tobytes() == want.information.tobytes(), n


class TestCrlbFailureClasses:
    def test_mixed_stack_matches_its_batches_of_one(self):
        # every failure class (FAULT_CASES), each between good scenarios, in one stack, the later checks' first
        scenarios = []
        for k, (fault, _, _) in enumerate(reversed(FAULT_CASES)):
            scenarios += [sweep_scenario(("random", "noise", "ltco")[k % 3], (-20.5, -30.0, 1e-3 * C)[k % 3], k),
                          fault_scenario(fault)]
        scenarios.append(anisotropic_scenario(3))
        crlb_x, information, errors = crlb_columns(*stack_columns(scenarios))
        assert sorted(errors) == list(range(1, 2 * len(FAULT_CASES), 2))
        assert_rows_are_solo(crlb_x, information, errors, scenarios)
        # records come check by check (geometry, C_tau, C_beta, singular), each check's in row order
        checks = ("overflows|coincides", "C_tau", "C_beta", "singular")
        order = [(next(k for k, c in enumerate(checks) if re.search(c, str(e))), row) for row, e in errors.items()]
        assert order == sorted(order) and len({k for k, _ in order}) == len(checks)

    @pytest.mark.parametrize("entry", [(1, 1), (2, 0), (0, 2)], ids=["on_diagonal", "below_diagonal", "above_diagonal"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_agent_block_fails_alone(self, entry, value):
        # NoiseSpec refuses a non-finite block, so the stack carries it directly
        scenarios = [sweep_scenario("random", -20.5, k) for k in range(3)]
        x, t, p_m, c_tau, blocks = stack_columns(scenarios)
        blocks[1, 4][entry] = value
        crlb_x, information, errors = crlb_columns(x, t, p_m, c_tau, blocks)
        assert list(errors) == [1] and type(errors[1]) is NotPositiveDefiniteError
        assert str(errors[1]) == "C_beta must be positive definite for the information matrix"
        assert np.isnan(crlb_x[1]).all() and np.isnan(information[1]).all()
        assert_rows_are_solo(crlb_x[[0, 2]], information[[0, 2]], {}, [scenarios[0], scenarios[2]])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_toa_variance_fails_alone(self, value):
        # NoiseSpec refuses a non-finite variance, so the stack carries it directly
        scenarios = [sweep_scenario("random", -20.5, k) for k in range(2)]
        x, t, p_m, c_tau, blocks = stack_columns(scenarios)
        c_tau[1, 3] = value
        crlb_x, information, errors = crlb_columns(x, t, p_m, c_tau, blocks)
        assert list(errors) == [1] and type(errors[1]) is ConditioningError
        assert str(errors[1]) == "C_tau must be strictly positive for the information matrix"
        assert np.isnan(crlb_x[1]).all() and np.isnan(information[1]).all()
        assert_rows_are_solo(crlb_x[:1], information[:1], {}, scenarios[:1])

    def test_overflowing_information_fails_alone(self):
        # finite, positive variances so small that the Schur complement overflows float64
        scenarios = [sweep_scenario("noise", -20.5, k) for k in range(3)]
        x, t, p_m, c_tau, blocks = stack_columns(scenarios)
        c_tau[1], blocks[1] = 1e-308, 1e-308 * np.eye(3)
        crlb_x, information, errors = crlb_columns(x, t, p_m, c_tau, blocks)
        assert list(errors) == [1] and type(errors[1]) is ConditioningError
        assert str(errors[1]) == "target information overflows float64"
        assert_rows_are_solo(crlb_x[[0, 2]], information[[0, 2]], {}, [scenarios[0], scenarios[2]])


@pytest.mark.parametrize(
    "name, error, message",
    [("cholesky_lo", NotPositiveDefiniteError, r"C_beta must be positive definite for the information matrix"),
     ("eigvalsh_lo", DegenerateGeometryError, r"target information is singular \(min eig nan\); geometry unobservable"),
     ("inv", DegenerateGeometryError, r"target information is singular \(min eig [0-9.e+-]+\); geometry unobservable")],
)
def test_lapack_failure_stays_with_its_scenario(name, error, message, monkeypatch):
    # a gufunc that fails on one member, as LAPACK fails, fails that scenario alone
    scenarios = [sweep_scenario(kind, value, seed) for seed, (kind, value) in enumerate(
        [("noise", -20.5), ("ltco", 1e-3 * C), ("random", -20.5), ("noise", -50.0)])]
    alone = [crlb_target(s) for s in scenarios]
    fail_member(monkeypatch, name, 0, member=1)
    crlb_x, information, errors = crlb_columns(*stack_columns(scenarios))
    assert list(errors) == [1] and type(errors[1]) is error and re.fullmatch(message, str(errors[1]))
    assert np.isnan(crlb_x[1]).all() and np.isnan(information[1]).all()
    for k in (0, 2, 3):
        assert crlb_x[k].tobytes() == alone[k].crlb_x.tobytes()
        assert information[k].tobytes() == alone[k].information.tobytes()
    fail_member(monkeypatch, name, 0, member=0)
    with pytest.raises(error, match=message):
        crlb_target(scenarios[1])


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
