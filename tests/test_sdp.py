"""Feasibility solver, bisection driver, and Gaussian randomization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coopbeam as cb
from coopbeam import sdp
from coopbeam.experiments import mu_scenario
from coopbeam.sdp import (
    FEAS_TOL, BisectionResult, _constraint_data, _dual_bound, _homogenized,
)
from conftest import constraint_matrix


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


def plain_data(inst, delta):
    """`_constraint_data` at delta and the sigma_k = max(||C_k||_F, |e_k|) of a plain check."""
    c_mats, e = _constraint_data(inst, delta)
    return c_mats, e, np.array([max(np.linalg.norm(c), abs(v), 1e-300) for c, v in zip(c_mats, e)])


def oracle_margins(inst, delta, psi):
    """Normalized margins of Psi (n, n), or of a stack (..., n, n), at target delta.

    Rebuilt from the B_{k,j} one by one: constraint k is tr(C_k Psi) + e_k >= 0 with
    C_k = B_kk - delta sum_{j!=k} B_kj and e_k = |qbar_kk|^2 - delta (sum_{j!=k}
    |qbar_kj|^2 + noise_k), divided by max(||C_k||_F, |e_k|).
    """
    k = inst.n_users
    out = np.empty(np.shape(psi)[:-2] + (k,))
    for a in range(k):
        others = [j for j in range(k) if j != a]
        interf = sum(constraint_matrix(inst, a, j) for j in others)
        c = constraint_matrix(inst, a, a) - delta * interf
        e = abs(inst.qbar[a, a]) ** 2 - delta * (
            sum(abs(inst.qbar[a, j]) ** 2 for j in others) + inst.noise[a]
        )
        trace = np.real(np.einsum("ij,...ji->...", c, psi))
        out[..., a] = (trace + e) / max(np.linalg.norm(c), abs(e))
    return out


MU_MAXMIN = dict(k_users=5, power_dbm=20.0)  # the mu-maxmin benchmark scenario at 20 dBm
MU_TINY = dict(k_users=2, power_dbm=10.0, n_bs=2, m1=2, m2=2, paths_g1=2, paths_d=2, paths_user=2)


def a2_baseline(scn, rng):
    """The A2 single-IRS baseline paired with `scn`, drawn as the multi-user experiments draw it."""
    return cb.build_single_irs_baseline_A2(
        scn, rank_g=scn.links["g2"].paths, rank_u=min(scn.n_users, scn.m_total), rng=rng
    )


def subproblems(scenario, build=cb.build_double_irs_scenario):
    """(P3.1) and (P3.4) at the DFT start of the draws of seeds 0 and 1, as Algorithm 1 builds them.

    `build` draws the channel set; like Algorithm 1, a subproblem over an IRS with no
    subsurfaces is skipped, so the A2 baseline gives (P3.1) only.
    """
    scn = mu_scenario(**scenario)
    ctx = cb.SinrContext.from_scenario(scn)
    for seed in range(2):
        chs = build(scn, np.random.default_rng(seed))
        init = cb.dft_codebook_search(chs, ctx, rx_mode="mmse")
        blocks = ((cb.build_p31_instance, init.theta1, chs.m2), (cb.build_p34_instance, init.theta2, chs.m1))
        for make, fixed, m in blocks:
            if m:
                yield make(chs, fixed, init.w, ctx.powers, ctx.noise)


def plain_bisection(inst, delta_lo, delta_hi, eps):
    """The bisection without dual bounds: every target is solved."""
    history = []

    def check(value):
        res = cb.feasibility_check(inst, value)
        if res.status == "numerical-failure":
            raise RuntimeError(f"reference check failed at target {value}: {res.message}")
        history.append((value, res.status))
        return res

    best = check(delta_lo)
    if not best.feasible:
        raise ValueError(f"invalid bracket: delta_lo={delta_lo} is infeasible")
    res_hi = check(delta_hi)
    if res_hi.feasible:
        return BisectionResult(float(delta_hi), res_hi.psi, True, history)

    lo, hi = float(delta_lo), float(delta_hi)
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        res = check(mid)
        if res.feasible:
            lo, best = mid, res
        else:
            hi = mid
    return BisectionResult(lo, best.psi, False, history)


def assert_same_guarantee(inst, eps):
    """The bracket from the all-ones start and the plain bisection from 0 on [0, matched-filter
    bound] land within eps of each other; the bracket's delta* is at least the start's min SINR,
    it visits no target above delta* + eps, and delta* + eps is proved infeasible by a
    certificate or a solve.  Returns the certified skips."""
    hi = cb.matched_filter_bound(inst)
    start = np.ones(inst.dim)
    got = cb.bisection_maxmin(inst, start, hi, eps)
    want = plain_bisection(inst, 0.0, hi, eps)
    assert abs(got.delta_star - want.delta_star) < eps
    assert got.saturated == want.saturated
    assert got.delta_star >= float(inst.min_sinr(start))
    assert max((t for t, _ in got.history), default=0.0) <= got.delta_star + eps
    if not got.saturated:
        assert min(t for t, verdict in got.history if verdict == "infeasible") <= got.delta_star + eps
        assert cb.feasibility_check(inst, got.delta_star + eps).status == "infeasible"
    return got.certified


def assert_certified(inst, res):
    """The returned Psi is a valid relaxation point, its reported margins are its own, and an
    infeasible verdict's dual weights prove it through the weak-duality bound."""
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
    if res.status == "infeasible":
        mu, nu = res.dual
        assert _dual_bound(*plain_data(inst, res.delta), mu[None], nu[None])[0] < -FEAS_TOL


class TestInstance:
    def test_constraint_matrix_structure(self, rng):
        inst = random_instance(rng, k=3, m=5)
        batched = _homogenized(inst.q, inst.qbar)  # the (K, K) stack the margins are built from
        for k in range(3):
            for j in range(3):
                b = _homogenized(inst.q[k, j], inst.qbar[k, j])
                assert np.allclose(b, b.conj().T)
                assert b[-1, -1] == 0.0
                assert np.array_equal(b, constraint_matrix(inst, k, j))
                assert np.array_equal(batched[k, j], b)

    def test_constraint_data_is_the_targets_own(self, rng):
        # each target gets its own data, whichever target was asked for before
        inst = random_instance(rng, k=3, m=4)
        psi = np.eye(inst.dim + 1)
        for delta in (0.5, 2.0, 2.0, 0.5):
            c_mats, e, sigma = plain_data(inst, delta)
            margins = (np.einsum("kij,ji->k", c_mats, psi).real + e) / sigma
            assert np.allclose(margins, oracle_margins(inst, delta, psi), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k, m", [(1, 1), (1, 4), (3, 1), (3, 5)])
    def test_matched_filter_bound_value(self, k, m):
        # min_k ((M'+1) max(lambda_max(B_kk), 0) + |qbar_kk|^2) / noise_k, B_kk written out
        rng = np.random.default_rng(10 * k + m)
        q = rng.standard_normal((k, k, m)) + 1j * rng.standard_normal((k, k, m))
        qb = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        inst = cb.MaxMinSdpInstance(q, qb, rng.uniform(0.5, 2.0, k))
        expect = min(
            ((m + 1) * max(np.linalg.eigvalsh(constraint_matrix(inst, u, u)).max(), 0.0)
             + abs(qb[u, u]) ** 2) / inst.noise[u]
            for u in range(k)
        )
        assert cb.matched_filter_bound(inst) == pytest.approx(expect, rel=1e-12)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25)
    def test_homogenization_identity(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, k=2, m=4)
        theta_tilde = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        k, j = rng.integers(0, 2), rng.integers(0, 2)
        b = _homogenized(inst.q[k, j], inst.qbar[k, j])
        lhs = np.real(theta_tilde.conj() @ b @ theta_tilde)
        lhs += abs(inst.qbar[k, j]) ** 2
        recovered = np.conj(theta_tilde[-1]) * theta_tilde[:-1]
        rhs = abs(inst.q[k, j].conj() @ recovered + inst.qbar[k, j]) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(rhs, 1.0)


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

    @pytest.mark.parametrize("delta", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_target_rejected(self, rng, delta):
        # both reached the kernel and escaped as a LinAlgError
        with pytest.raises(ValueError, match="finite"):
            cb.feasibility_check(random_instance(rng), delta)

    def test_feasible_solution_certificate(self, rng):
        # returned Psi satisfies every constraint within the documented slack
        inst = random_instance(rng, k=3, m=5)
        hi = cb.matched_filter_bound(inst)
        res = cb.bisection_maxmin(inst, np.ones(inst.dim), hi, eps=0.05)
        n_k, d_k = inst.powers(res.psi)
        assert np.all(n_k - res.delta_star * d_k >= -FEAS_TOL * d_k)
        assert np.linalg.eigvalsh(res.psi).min() >= -1e-7 * np.linalg.norm(res.psi, 2)


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

    @pytest.mark.parametrize(
        "k, m, build, min_certified",
        [
            (2, 2, None, 1),
            # the A2 baseline's (P3.1) adds M' = 32; no target above delta* + eps is visited,
            # and on these K = 5 draws no bound fires at lo + eps, so every verdict comes from a
            # solve (the bound's soundness at K = 5 is test_bound_covers_unit_diagonal_psi[5-16])
            (5, 16, a2_baseline, 0),
            # no dual bound fires on these draws, so every verdict comes from a solve
            (None, None, cb.build_double_irs_scenario, 0),
        ],
        ids=["2-2", "5-16", "mu-maxmin"],
    )
    def test_margins_match_oracle_on_bisection_path(self, k, m, build, min_certified):
        # every target a bisection visits, feasible, infeasible or certified infeasible
        cases = []
        if k:
            insts = [random_instance(np.random.default_rng(seed), k=k, m=m) for seed in (3, 0)]
            cases += [(inst, cb.matched_filter_bound(inst) / 16) for inst in insts]
        if build:
            cases += [(inst, 0.1) for inst in subproblems(MU_MAXMIN, build)]
        certified = 0
        for inst, eps in cases:
            res = cb.bisection_maxmin(inst, np.ones(inst.dim), cb.matched_filter_bound(inst), eps)
            certified += res.certified
            assert max((t for t, _ in res.history), default=0.0) <= res.delta_star + eps
            for delta, status in res.history:
                sol = cb.feasibility_check(inst, delta)
                assert sol.status == status
                assert_certified(inst, sol)
        assert certified >= min_certified


class TestKernelTrajectory:
    """Exit records of fixed solves, written down from the kernel before its iteration was
    rewritten with fewer numpy calls: a refactor that keeps the iterates keeps these.

    The targets sit a few percent from the feasibility boundary.  Nearer to it, a change of
    one ulp in the instance data moved s by 1e-10 relative, more than a different BLAS build
    may; here it moved s and the margins by at most 3e-13."""

    @pytest.mark.parametrize(
        "k, m, delta, ratio_step, status, message, iterations, s, margins",
        [
            (2, 2, 1.3, False, "feasible", "feasible margin", 3, 0.03529690536912401,
             [0.03740498654526636, 0.042969170282722596]),
            (2, 2, 1.4, False, "infeasible", "dual bound certificate", 2, -0.07702894827995888,
             [-0.06737608546543083, -0.04051611661098464]),
            (5, 16, 3.2, False, "feasible", "feasible margin", 5, 0.01889969546628945,
             [0.01973422389552092, 0.019363555156146475, 0.019469458683095894,
              0.02017088528657992, 0.019302525267916787]),
            (5, 16, 3.6, False, "infeasible", "dual bound certificate", 4, -0.037435441455158786,
             [-0.0318052593902346, -0.03442312499817974, -0.03373566991195752,
              -0.029920437432903964, -0.03477375538794669]),
            # a Dinkelbach step (a gap_tol solve): target the all-ones start's min SINR,
            # constraints divided by its D_k
            (5, 16, None, True, "feasible", "duality gap closed", 4, 0.7267789379430809,
             [0.7394126764272855, 0.7440278951278902, 0.7393475410047049, 0.7496677805240175,
              0.7343025547757159]),
        ],
        ids=["3x3-feasible", "3x3-infeasible", "17x17-feasible", "17x17-infeasible",
             "17x17-ratio-step"],
    )
    def test_exit_record_unchanged(self, k, m, delta, ratio_step, status, message, iterations,
                                   s, margins):
        inst = random_instance(np.random.default_rng(0), k=k, m=m)
        if ratio_step:
            start = np.ones(m + 1)
            d_start = inst.powers(np.outer(start, start))[1]
            res = cb.feasibility_check(inst, float(inst.min_sinr(start[:-1])), scales=d_start,
                                       gap_tol=1e-3)
        else:
            res = cb.feasibility_check(inst, delta)
        assert (res.status, res.message, res.iterations) == (status, message, iterations)
        assert res.s == pytest.approx(s, rel=1e-12, abs=0)
        assert res.margins == pytest.approx(margins, rel=1e-12, abs=0)


class TestDualBound:
    """The weak-duality bound that lets the bisection skip provably infeasible targets."""

    @pytest.mark.parametrize("k, m", [(2, 2), (5, 16)])
    @given(seed=st.integers(0, 2**31), frac=st.floats(0.0, 1.5))
    @settings(max_examples=25, deadline=None)
    def test_bound_covers_unit_diagonal_psi(self, k, m, seed, frac):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, k=k, m=m)
        delta = frac * cb.matched_filter_bound(inst)
        n = m + 1
        # each user alone and all users alike (nu = 0), random weights with random nu, and an
        # infeasible verdict's exit dual
        mu = np.vstack([np.eye(k), np.ones((1, k)), rng.exponential(size=(4, k))])
        nu = np.vstack([np.zeros((k + 1, n)), 3.0 * rng.standard_normal((4, n))])
        sol = cb.feasibility_check(inst, delta)
        if sol.dual is not None:
            mu, nu = np.vstack([mu, sol.dual[0]]), np.vstack([nu, sol.dual[1]])
        bounds = _dual_bound(*plain_data(inst, delta), mu, nu)
        tilde = np.exp(1j * rng.uniform(0, 2 * np.pi, (256, n)))
        worst = oracle_margins(inst, delta, tilde[:, :, None] * tilde.conj()[:, None, :]).min(axis=1)
        best = worst.max()
        if sol.feasible:
            best = max(best, oracle_margins(inst, delta, sol.psi).min())
        assert bounds.min() >= best - 1e-12 * max(1.0, abs(bounds).max())

    @pytest.mark.parametrize(
        "k, m, eps_frac, build, min_certified",
        # K = 5: no bound fires on these draws, as in test_margins_match_oracle_on_bisection_path
        [(2, 2, 1e-3, None, 1), (5, 16, 1 / 64, a2_baseline, 0)],
        ids=["2-2-0.001", "5-16-0.015625"],
    )
    def test_matches_bisection_without_bounds(self, k, m, eps_frac, build, min_certified):
        insts = [random_instance(np.random.default_rng(seed), k=k, m=m) for seed in range(4)]
        cases = [(inst, eps_frac * cb.matched_filter_bound(inst)) for inst in insts]
        if build:
            cases += [(inst, 0.1) for inst in subproblems(MU_MAXMIN, build)]
        certified = 0
        for inst, eps in cases:
            certified += assert_same_guarantee(inst, eps)
        assert certified >= min_certified

    @pytest.mark.parametrize(
        "scenario, eps, min_certified",
        [
            # mu-tiny: K = 2, M' = 2 at 10 dBm; mu-maxmin: K = 5, M' = 16 at 20 dBm, where no
            # bound fires on these draws
            (MU_TINY, 1e-3, 1),
            (MU_MAXMIN, 0.1, 0),
        ],
        ids=["mu-tiny", "mu-maxmin"],
    )
    def test_matches_bisection_without_bounds_on_subproblems(self, scenario, eps, min_certified):
        # (P3.1) and (P3.4) at the DFT start of a draw, as Algorithm 1 builds them
        certified = 0
        for inst in subproblems(scenario):
            certified += assert_same_guarantee(inst, eps)
        assert certified >= min_certified


class TestBisection:
    def test_saturated_bracket_flagged(self, rng):
        inst, true_opt = scalar_instance(rng)
        res = cb.bisection_maxmin(inst, np.ones(inst.dim), 0.5 * true_opt, eps=1e-3)
        assert res.saturated
        assert res.delta_star == pytest.approx(0.5 * true_opt)

    def test_scalar_oracle_within_eps(self, rng):
        for _ in range(5):
            inst, true_opt = scalar_instance(rng)
            eps = 1e-4 * true_opt
            res = cb.bisection_maxmin(inst, np.ones(inst.dim), 2.0 * true_opt, eps=eps)
            assert abs(res.delta_star - true_opt) <= eps + FEAS_TOL * true_opt

    def test_feasibility_monotone_in_target(self, rng):
        # feasible(delta) implies feasible(delta') for delta' < delta
        for _ in range(20):
            inst = random_instance(rng, k=2, m=3)
            hi = cb.matched_filter_bound(inst)
            res = cb.bisection_maxmin(inst, np.ones(inst.dim), hi, eps=hi / 64)
            if res.delta_star > 0:
                assert cb.feasibility_check(inst, res.delta_star / 2).feasible

    def test_step_count_bound(self, rng):
        inst = random_instance(rng, k=2, m=3)
        hi = cb.matched_filter_bound(inst)
        eps = hi / 100
        res = cb.bisection_maxmin(inst, np.ones(inst.dim), hi, eps=eps)
        assert len(res.history) <= math.ceil(math.log2(hi / eps)) + 1

    def test_invalid_bracket_rejected(self, rng):
        inst = random_instance(rng)
        hi = cb.matched_filter_bound(inst)
        with pytest.raises(ValueError):
            cb.bisection_maxmin(inst, np.ones(inst.dim + 1), hi, eps=0.1)  # wrong length
        with pytest.raises(ValueError):
            cb.bisection_maxmin(inst, 2.0 * np.ones(inst.dim), hi, eps=0.1)  # not unit modulus
        with pytest.raises(ValueError):
            # within np.allclose of unit modulus, but its rank-one Psi has diagonal 1.00001
            cb.bisection_maxmin(inst, (1 + 5e-6) * np.ones(inst.dim), hi, eps=0.1)
        with pytest.raises(ValueError):
            cb.bisection_maxmin(inst, np.ones(inst.dim), hi, eps=0.0)

    @pytest.mark.parametrize(
        "hi, eps", [(math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf)],
        ids=["hi-nan", "hi-inf", "eps-nan", "eps-inf"],
    )
    def test_non_finite_bracket_rejected(self, rng, hi, eps):
        # a non-finite delta_hi escaped as a LinAlgError, and a non-finite eps returned the
        # start's min SINR after one check
        inst = random_instance(rng)
        with pytest.raises(ValueError, match="finite"):
            cb.bisection_maxmin(inst, np.ones(inst.dim), hi, eps)

    @pytest.mark.parametrize("build", [cb.build_double_irs_scenario, a2_baseline], ids=["double", "a2"])
    def test_solution_reaches_delta_star_up_to_the_feasible_slack(self, build):
        # the checks divide constraint k by D_k of the best verified Psi, so the FEAS_TOL
        # slack is about FEAS_TOL in SINR units and the returned Psi reaches delta* up to
        # eps; 30 dBm, the mu-maxmin benchmark's second sweep value, is where a slack of
        # FEAS_TOL sigma_k / D_k overshot by up to 231 eps
        eps = 0.1
        scenarios = (MU_MAXMIN, dict(MU_MAXMIN, power_dbm=30.0))
        for inst in (inst for scn in scenarios for inst in subproblems(scn, build)):
            res = cb.bisection_maxmin(inst, np.ones(inst.dim), cb.matched_filter_bound(inst), eps)
            n_k, d_k = inst.powers(res.psi)
            assert (n_k / d_k).min() >= res.delta_star - eps

    def test_bound_weights_are_earlier_solves_exit_duals(self, monkeypatch):
        # before each solve the bisection tries exactly the exit duals of its own earlier
        # solves, in order, and no weights on the first pass; the bound calls made inside
        # feasibility_check are the kernel's own and are told apart
        real_check, real_bound = sdp.feasibility_check, sdp._dual_bound
        duals, tried, inside = [], [], []

        def check(*args, **kwargs):
            inside.append(True)
            try:
                res = real_check(*args, **kwargs)
            finally:
                inside.pop()
            duals.append(res.dual)
            return res

        def bound(c_mats, e, scales, mu, nu):
            if not inside:
                tried.append((mu.copy(), nu.copy(), list(duals)))
            return real_bound(c_mats, e, scales, mu, nu)

        monkeypatch.setattr(sdp, "feasibility_check", check)
        monkeypatch.setattr(sdp, "_dual_bound", bound)
        insts = [random_instance(np.random.default_rng(seed), k=2, m=2) for seed in range(4)]
        cases = [(inst, 1e-3 * cb.matched_filter_bound(inst)) for inst in insts]
        cases += [(inst, 1e-3) for inst in subproblems(MU_TINY)]
        reused = 0
        for inst, eps in cases:
            duals.clear()
            tried.clear()
            res = cb.bisection_maxmin(inst, np.ones(inst.dim), cb.matched_filter_bound(inst), eps)
            assert len(tried) == len(res.history)  # one bound test per target
            for mu, nu, earlier in tried:
                assert len(mu) == len(nu) == len(earlier)
                for row_mu, row_nu, (dual_mu, dual_nu) in zip(mu, nu, earlier):
                    assert np.array_equal(row_mu, dual_mu) and np.array_equal(row_nu, dual_nu)
                reused += len(earlier) > 0
        assert reused > 0

    @staticmethod
    def failing_solves(monkeypatch, passes=0):
        """Make every solve after the first `passes` fail numerically; returns the list of
        solved targets, failed ones included."""
        real = cb.feasibility_check
        solved = []

        def failing(inst, delta, scales=None, gap_tol=None):
            res = real(inst, delta, scales, gap_tol)
            solved.append(delta)
            if len(solved) > passes:
                res.status, res.message = "numerical-failure", "synthetic failure"
            return res

        monkeypatch.setattr(sdp, "feasibility_check", failing)
        return solved

    @pytest.mark.parametrize("passes", [0, 2])
    def test_failed_step_ends_at_low_end(self, rng, monkeypatch, passes):
        # a Dinkelbach step that fails numerically is recorded and ends the call, with no
        # further solve, at the low end that the best verified Psi reaches
        solved = self.failing_solves(monkeypatch, passes)
        for _ in range(5):
            inst = random_instance(rng, k=2, m=3)
            start = np.ones(inst.dim)
            solved.clear()
            res = cb.bisection_maxmin(inst, start, cb.matched_filter_bound(inst), 1e-3)
            assert len(solved) == passes + 1
            assert res.history[-1] == (solved[-1], "numerical-failure")
            assert res.delta_star >= float(inst.min_sinr(start))
            n_k, d_k = inst.powers(res.psi)
            assert (n_k / d_k).min() >= res.delta_star - FEAS_TOL


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
        res = cb.bisection_maxmin(inst, np.ones(inst.dim), cb.matched_filter_bound(inst), eps=0.1)
        rand = cb.gaussian_randomization(res.psi, inst, 25, rng)
        assert np.allclose(np.abs(rand.theta), 1.0, atol=1e-12)

    def test_relaxation_dominance(self, rng):
        for _ in range(5):
            inst = random_instance(rng, k=2, m=3)
            hi = cb.matched_filter_bound(inst)
            eps = max(hi / 1000, 1e-9)
            res = cb.bisection_maxmin(inst, np.ones(inst.dim), hi, eps=eps)
            rand = cb.gaussian_randomization(res.psi, inst, 100, rng)
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
