"""Feasibility solver, bisection driver, and Gaussian randomization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coopbeam as cb
from coopbeam.sdp import FEAS_TOL


def random_instance(rng, k=2, m=4, noise=1.0):
    q = rng.standard_normal((k, k, m)) + 1j * rng.standard_normal((k, k, m))
    qb = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return cb.MaxMinSdpInstance(q, qb, np.full(k, noise))


def scalar_instance(rng):
    """K=1, M'=1 instance whose optimum is (|q| + |qbar|)^2 / noise."""
    q = (rng.standard_normal() + 1j * rng.standard_normal()) * np.ones((1, 1, 1))
    qb = (rng.standard_normal() + 1j * rng.standard_normal()) * np.ones((1, 1))
    noise = np.array([abs(rng.standard_normal()) + 0.1])
    inst = cb.MaxMinSdpInstance(q, qb, noise)
    return inst, float((abs(q[0, 0, 0]) + abs(qb[0, 0])) ** 2 / noise[0])


def phase_grid_optimum(inst, points=64):
    """Best min SINR over a uniform phase grid of unit-modulus theta (M' = 2)."""
    phases = np.exp(2j * np.pi * np.arange(points) / points)
    grid = np.stack(np.meshgrid(phases, phases, indexing="ij"), axis=-1).reshape(-1, 2)
    return float(inst.min_sinr(grid).max())


def oracle_margins(inst, delta, psi):
    """Normalized margins of Psi at target delta, rebuilt from the B_{k,j} one by one.

    Constraint k is tr(C_k Psi) + e_k >= 0 with C_k = B_kk - delta sum_{j!=k} B_kj and
    e_k = |qbar_kk|^2 - delta (sum_{j!=k} |qbar_kj|^2 + noise_k), divided by
    max(||C_k||_F, |e_k|).
    """
    k = inst.n_users
    out = np.empty(k)
    for a in range(k):
        others = [j for j in range(k) if j != a]
        c = inst.constraint_matrix(a, a) - delta * sum(inst.constraint_matrix(a, j) for j in others)
        e = abs(inst.qbar[a, a]) ** 2 - delta * (
            sum(abs(inst.qbar[a, j]) ** 2 for j in others) + inst.noise[a]
        )
        out[a] = (np.real(np.einsum("ij,ji->", c, psi)) + e) / max(np.linalg.norm(c), abs(e))
    return out


def assert_certified(inst, res):
    """The returned Psi is a valid relaxation point and its reported margins are its own."""
    psi = res.psi
    assert np.allclose(psi, psi.conj().T, rtol=0, atol=1e-12)
    assert np.max(np.abs(np.diag(psi) - 1.0)) <= 1e-9
    assert np.linalg.eigvalsh(psi).min() >= 0.0
    expect = oracle_margins(inst, res.delta, psi)
    assert np.allclose(res.margins, expect, rtol=1e-9, atol=1e-12)
    # s is the epigraph variable of a strictly interior point
    assert res.s < expect.min()
    assert res.feasible == (res.s >= -FEAS_TOL)
    if res.feasible:
        assert np.all(expect >= -FEAS_TOL)


class TestInstance:
    def test_constraint_matrix_structure(self, rng):
        inst = random_instance(rng, k=3, m=5)
        for k in range(3):
            for j in range(3):
                b = inst.constraint_matrix(k, j)
                assert np.allclose(b, b.conj().T)
                assert b[-1, -1] == 0.0
                assert np.allclose(b[:-1, :-1], np.outer(inst.q[k, j], inst.q[k, j].conj()))

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25)
    def test_homogenization_identity(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, k=2, m=4)
        theta_tilde = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        k, j = rng.integers(0, 2), rng.integers(0, 2)
        lhs = np.real(theta_tilde.conj() @ inst.constraint_matrix(k, j) @ theta_tilde)
        lhs += abs(inst.qbar[k, j]) ** 2
        recovered = np.conj(theta_tilde[-1]) * theta_tilde[:-1]
        rhs = abs(inst.q[k, j].conj() @ recovered + inst.qbar[k, j]) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(rhs, 1.0)

    def test_dump_load_roundtrip(self, tmp_path, rng):
        inst = random_instance(rng, k=3, m=6)
        path = tmp_path / "inst.cbmx"
        inst.dump(path)
        back = cb.MaxMinSdpInstance.load(path)
        assert np.array_equal(back.q, inst.q)
        assert np.array_equal(back.qbar, inst.qbar)
        assert np.array_equal(back.noise, inst.noise)


class TestFeasibility:
    def test_zero_target_feasible(self, rng):
        inst = random_instance(rng)
        res = cb.feasibility_check(inst, 0.0)
        assert res.feasible
        assert np.max(np.abs(np.diag(res.psi) - 1.0)) <= 1e-6
        assert np.linalg.eigvalsh(res.psi).min() >= -1e-7 * np.linalg.norm(res.psi, 2)

    def test_scalar_oracle_feasible_below_optimum(self, rng):
        for _ in range(10):
            inst, true_opt = scalar_instance(rng)
            assert cb.feasibility_check(inst, 0.99 * true_opt).feasible
            assert not cb.feasibility_check(inst, 1.01 * true_opt + 1e-6).feasible

    def test_above_matched_filter_bound_infeasible(self, rng):
        for _ in range(5):
            inst = random_instance(rng, k=3, m=4)
            bound = cb.matched_filter_bound(inst)
            assert not cb.feasibility_check(inst, 1.05 * bound + 1.0).feasible

    def test_negative_target_rejected(self, rng):
        with pytest.raises(ValueError):
            cb.feasibility_check(random_instance(rng), -0.1)

    def test_feasible_solution_certificate(self, rng):
        # returned Psi satisfies every constraint within the documented slack
        inst = random_instance(rng, k=3, m=5)
        hi = cb.matched_filter_bound(inst)
        res = cb.bisection_maxmin(inst, 0.0, hi, eps=0.05)
        sol = res.solution
        assert sol.feasible
        assert np.all(sol.margins >= -FEAS_TOL)
        assert np.linalg.eigvalsh(sol.psi).min() >= -1e-7 * np.linalg.norm(sol.psi, 2)


class TestBenchmarkShapes:
    """The Newton kernel at the two shapes the benchmark runs: 3x3 and 17x17 Psi."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_small_feasible_below_grid_optimum(self, seed):
        inst = random_instance(np.random.default_rng(seed), k=2, m=2)
        opt = phase_grid_optimum(inst)
        for frac in (0.5, 0.9, 0.999):
            res = cb.feasibility_check(inst, frac * opt)
            assert res.feasible, (frac, res.s, res.message)
            assert_certified(inst, res)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_large_feasible_below_unit_modulus_value(self, seed):
        # any unit-modulus theta gives a feasible rank-one Psi
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, k=5, m=16)
        thetas = np.exp(1j * rng.uniform(0, 2 * np.pi, (256, 16)))
        res = cb.feasibility_check(inst, 0.999 * float(inst.min_sinr(thetas).max()))
        assert res.feasible, (res.s, res.message)
        assert_certified(inst, res)

    @pytest.mark.parametrize("k, m", [(2, 2), (5, 16)])
    def test_above_matched_filter_bound_infeasible(self, k, m):
        for seed in range(2):
            inst = random_instance(np.random.default_rng(seed), k=k, m=m)
            res = cb.feasibility_check(inst, 1.001 * cb.matched_filter_bound(inst))
            assert res.status == "infeasible", (res.s, res.message)
            assert_certified(inst, res)

    @pytest.mark.parametrize("k, m", [(2, 2), (5, 16)])
    def test_margins_match_oracle_on_bisection_path(self, k, m):
        # every target a bisection visits, feasible or not
        inst = random_instance(np.random.default_rng(3), k=k, m=m)
        hi = cb.matched_filter_bound(inst)
        res = cb.bisection_maxmin(inst, 0.0, hi, eps=hi / 16)
        for delta, status in res.history:
            sol = cb.feasibility_check(inst, delta)
            assert sol.status == status
            assert_certified(inst, sol)


class TestBisection:
    def test_saturated_bracket_flagged(self, rng):
        inst, true_opt = scalar_instance(rng)
        res = cb.bisection_maxmin(inst, 0.0, 0.5 * true_opt, eps=1e-3)
        assert res.saturated
        assert res.delta_star == pytest.approx(0.5 * true_opt)

    def test_scalar_oracle_within_eps(self, rng):
        for _ in range(5):
            inst, true_opt = scalar_instance(rng)
            eps = 1e-4 * true_opt
            res = cb.bisection_maxmin(inst, 0.0, 2.0 * true_opt, eps=eps)
            assert abs(res.delta_star - true_opt) <= eps + FEAS_TOL * true_opt

    def test_feasibility_monotone_in_target(self, rng):
        # feasible(delta) implies feasible(delta') for delta' < delta
        for _ in range(20):
            inst = random_instance(rng, k=2, m=3)
            hi = cb.matched_filter_bound(inst)
            res = cb.bisection_maxmin(inst, 0.0, hi, eps=hi / 64)
            if res.delta_star > 0:
                assert cb.feasibility_check(inst, res.delta_star / 2).feasible

    def test_step_count_bound(self, rng):
        inst = random_instance(rng, k=2, m=3)
        hi = cb.matched_filter_bound(inst)
        eps = hi / 100
        res = cb.bisection_maxmin(inst, 0.0, hi, eps=eps)
        assert res.steps <= math.ceil(math.log2(hi / eps)) + 1

    def test_invalid_bracket_rejected(self, rng):
        inst = random_instance(rng)
        hi = cb.matched_filter_bound(inst)
        with pytest.raises(ValueError):
            cb.bisection_maxmin(inst, hi, hi / 2, eps=0.1)
        with pytest.raises(ValueError):
            # infeasible lower edge
            cb.bisection_maxmin(inst, 10.0 * hi, 20.0 * hi, eps=0.1)


class TestRandomization:
    def test_rank_one_recovered_exactly(self, rng):
        inst = random_instance(rng, k=2, m=4)
        theta_tilde = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        psi = np.outer(theta_tilde, theta_tilde.conj())
        res = cb.gaussian_randomization(psi, inst, 1, rng)
        expect = np.conj(theta_tilde[-1]) * theta_tilde[:-1]
        assert np.allclose(res.theta, expect, atol=1e-10)
        assert res.objective == pytest.approx(float(inst.min_sinr(expect)), rel=1e-12)

    def test_unit_modulus_output(self, rng):
        inst = random_instance(rng, k=2, m=4)
        res = cb.bisection_maxmin(inst, 0.0, cb.matched_filter_bound(inst), eps=0.1)
        rand = cb.gaussian_randomization(res.solution.psi, inst, 25, rng)
        assert np.allclose(np.abs(rand.theta_tilde), 1.0, atol=1e-12)
        assert np.allclose(np.abs(rand.theta), 1.0, atol=1e-12)

    def test_relaxation_dominance(self, rng):
        for _ in range(5):
            inst = random_instance(rng, k=2, m=3)
            hi = cb.matched_filter_bound(inst)
            eps = max(hi / 1000, 1e-9)
            res = cb.bisection_maxmin(inst, 0.0, hi, eps=eps)
            rand = cb.gaussian_randomization(res.solution.psi, inst, 100, rng)
            assert rand.objective <= res.delta_star + eps + FEAS_TOL * max(res.delta_star, 1.0)

    def test_more_candidates_do_not_hurt_on_average(self, rng):
        gains = []
        for _ in range(50):
            inst = random_instance(rng, k=2, m=3)
            res = cb.feasibility_check(inst, 0.0)
            one = cb.gaussian_randomization(res.psi, inst, 1, np.random.default_rng(1))
            many = cb.gaussian_randomization(res.psi, inst, 100, np.random.default_rng(1))
            gains.append(many.objective - one.objective)
        assert np.mean(gains) >= 0.0

    def test_candidate_count_validated(self, rng):
        inst = random_instance(rng)
        psi = np.eye(inst.dim + 1, dtype=complex)
        with pytest.raises(ValueError):
            cb.gaussian_randomization(psi, inst, 0, rng)
