"""Closed-form single-user optimization and its oracles."""

import copy
import math

import numpy as np
import pytest

import coopbeam as cb
from conftest import explicit_channel, explicit_su_terms, random_channel_set, random_init


@pytest.fixture
def ctx():
    return cb.SinrContext(np.array([1.0]), 1.0)


def unit(v):
    return v / np.linalg.norm(v)


def phase_grid(points):
    return 2 * np.pi * np.arange(points) / points


def grid_combos(m, points=64):
    grids = np.meshgrid(*([phase_grid(points)] * m), indexing="ij")
    return np.exp(1j * np.stack([g.ravel() for g in grids], axis=1))


def sdr_benchmark(chs, ctx, w, rng, pattern=None, eps=1e-3):
    """The single-user SDR benchmark: Algorithm 1 with MRC receivers from (pattern, w)."""
    pattern = pattern or cb.ReflectPattern(np.ones(chs.m1), np.ones(chs.m2))
    state, _ = cb.algorithm1(
        chs, ctx, init=cb.MuSolveState(pattern.theta1, pattern.theta2, np.asarray(w)[:, None]),
        rx_mode="mrc", max_iters=20, xi=1e-6, eps=eps, rng=rng,
    )
    return state


def one_by_one_single_irs_opt(chs, ctx, restarts, rng):
    """The restarts one after another: `random_init`, then `ao_single_user`; first best kept."""
    best = None
    for _ in range(restarts):
        state, _ = cb.ao_single_user(chs, ctx, random_init(chs, rng))
        if best is None or state.snr > best.snr:
            best = state
    return best


def conditional_bound(chs, ctx, state, eps=1e-3):
    """Tighter relaxation bound of the theta2 and theta1 subproblems at the iterate.

    The iterate is feasible for both, so the bound covers its SNR.
    """
    bounds = []
    for build, other, m in (
        (cb.build_p31_instance, state.theta1, chs.m2),
        (cb.build_p34_instance, state.theta2, chs.m1),
    ):
        if m:
            inst = build(chs, other, state.w, ctx.powers, ctx.noise)
            hi = max(cb.matched_filter_bound(inst), 1e-12)
            bounds.append(cb.bisection_maxmin(inst, np.ones(inst.dim), hi, eps).delta_star + eps)
    return min(bounds, default=state.min_sinr)


class TestThetaClosedForms:
    def test_scalar_alignment_m2_one(self, rng):
        chs = random_channel_set(rng, n=3, m1=2, m2=1, k=1)
        t1 = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        w = unit(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        t2 = cb.opt_theta_closed_form(chs, 2, t1, w)
        b, b0 = explicit_su_terms(chs, 2, t1, w)
        # phase of b^H theta2 equals phase of the reference term
        assert abs(np.angle(np.vdot(b, t2)) - np.angle(b0)) % (2 * np.pi) < 1e-10

    def test_zero_reference_still_maximizes_magnitude(self, rng):
        chs = random_channel_set(rng, n=2, m1=3, m2=3, k=1)
        chs = cb.ChannelSet.from_links(
            np.zeros_like(chs.u1), chs.u2, chs.d, np.zeros_like(chs.g1), chs.g2
        )  # u1 = 0 and G1 = 0, so b0 = 0
        t1 = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        w = unit(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        t2 = cb.opt_theta_closed_form(chs, 2, t1, w)
        b, b0 = explicit_su_terms(chs, 2, t1, w)
        assert b0 == 0
        assert abs(np.vdot(b, t2)) == pytest.approx(np.sum(np.abs(b)), rel=1e-12)

    def test_triangle_equality_certificate(self, rng):
        # the alignment constraint holds to 1e-8 whenever the reference is nonzero
        for _ in range(10):
            chs = random_channel_set(rng, n=3, m1=3, m2=4, k=1)
            t1 = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
            w = unit(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            t2 = cb.opt_theta_closed_form(chs, 2, t1, w)
            b, b0 = explicit_su_terms(chs, 2, t1, w)
            if abs(b0) > 1e-12:
                diff = (np.angle(np.vdot(b, t2)) - np.angle(b0)) % (2 * np.pi)
                assert min(diff, 2 * np.pi - diff) < 1e-8

    @pytest.mark.parametrize("block", [2, 1], ids=["theta2", "theta1"])
    def test_beats_exhaustive_grid(self, rng, ctx, block):
        # closed form is a global maximizer: never below the 64-point grid
        slack_hits = 0
        for _ in range(50):
            chs = random_channel_set(rng, n=2, m1=3, m2=3, k=1)
            other = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
            w = unit(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            combos = grid_combos(3)
            best = cb.opt_theta_closed_form(chs, block, other, w)
            if block == 2:
                closed = cb.snr_value(chs, w, other, best, ctx)
            else:
                closed = cb.snr_value(chs, w, best, other, ctx)
            b, b0 = explicit_su_terms(chs, block, other, w)
            vals = np.abs(combos @ b.conj() + b0) ** 2
            grid_max = float(vals.max()) * ctx.powers[0] / ctx.noise
            mags = np.abs(b)
            lipschitz = 2.0 * (mags.sum() + abs(b0)) * mags.sum()
            slack = lipschitz * (np.pi / 64) * ctx.powers[0] / ctx.noise
            assert closed >= grid_max - slack
            slack_hits += closed >= grid_max - 1e-9 * max(grid_max, 1.0)
        assert slack_hits == 50  # exact optimality, not just within slack


class TestMrc:
    def test_single_antenna(self, rng, ctx):
        chs = random_channel_set(rng, n=1, m1=2, m2=2, k=1)
        t1 = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        t2 = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        w = cb.mrc_receivers(chs.compose(t1, t2))[:, 0]
        h = explicit_channel(chs, t1, t2)[:, 0]
        assert np.allclose(w, h / abs(h[0]))
        assert cb.snr_value(chs, w, t1, t2, ctx) == pytest.approx(
            ctx.powers[0] * abs(h[0]) ** 2 / ctx.noise, rel=1e-10
        )

    def test_beats_random_receivers(self, rng, ctx):
        chs = random_channel_set(rng, n=4, m1=2, m2=2, k=1)
        t1 = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        t2 = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        w = cb.mrc_receivers(chs.compose(t1, t2))[:, 0]
        snr = cb.snr_value(chs, w, t1, t2, ctx)
        for _ in range(100):
            w_rand = unit(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            assert snr >= cb.snr_value(chs, w_rand, t1, t2, ctx) - 1e-12 * snr

    def test_snr_equals_channel_norm(self, rng, ctx):
        chs = random_channel_set(rng, n=4, m1=2, m2=3, k=1)
        t1 = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        t2 = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        w = cb.mrc_receivers(chs.compose(t1, t2))[:, 0]
        h = cb.effective_channel(chs, cb.ReflectPattern(t1, t2))
        expect = ctx.powers[0] * np.linalg.norm(h[:, 0]) ** 2 / ctx.noise
        assert cb.snr_value(chs, w, t1, t2, ctx) == pytest.approx(expect, rel=1e-10)

    def test_zero_channel_gives_unit_receiver_and_zero_snr(self, ctx):
        zero = cb.ChannelSet.from_links(
            np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((3, 2))
        )
        t = np.ones(2, complex)
        w = cb.mrc_receivers(zero.compose(t, t))[:, 0]
        assert np.linalg.norm(w) == 1.0
        assert cb.snr_value(zero, w, t, t, ctx) == 0.0
        state, _ = cb.ao_single_user(zero, ctx, random_init(zero, 0))
        assert state.snr == 0.0 and np.linalg.norm(state.w) == 1.0
        # column by column: only the zero column gets the first unit vector
        w = cb.mrc_receivers([[0, 3], [0, 4j]])
        assert np.allclose(w, [[1, 0.6], [0, 0.8j]], rtol=0, atol=1e-15)


class TestReflectVectorLength:
    def test_wrong_length_rejected(self, rng, ctx):
        # a length-1 theta1 used to broadcast over M1 = 3 and give a finite SNR
        chs = random_channel_set(rng, n=3, m1=3, m2=2, k=1)
        w = unit(np.ones(3, complex))
        with pytest.raises(ValueError, match="does not match"):
            cb.snr_value(chs, w, np.ones(1), np.ones(2), ctx)
        with pytest.raises(ValueError, match="does not match"):
            chs.compose(np.ones(1), np.ones(2))
        with pytest.raises(ValueError, match="does not match"):
            cb.ao_single_user(chs, ctx, cb.SuSolveState(w, np.ones(1), np.ones(2)))
        base = random_channel_set(rng, n=3, m1=0, m2=2, k=1)
        with pytest.raises(ValueError, match="does not match"):
            cb.snr_value(base, w, np.ones(1), np.ones(2), ctx)


class TestAlternatingOptimization:
    def test_monotone_trace(self, rng, ctx):
        for _ in range(5):
            chs = random_channel_set(rng, n=3, m1=4, m2=4, k=1)
            state, _ = cb.ao_single_user(chs, ctx, random_init(chs, rng))
            trace = np.asarray(state.trace)
            assert np.all(np.diff(trace) >= -1e-10 * max(trace.max(), 1.0))

    def test_stationary_init_returns_unchanged(self, rng, ctx):
        chs = random_channel_set(rng, n=3, m1=3, m2=3, k=1)
        state, _ = cb.ao_single_user(chs, ctx, random_init(chs, rng))
        again, rep = cb.ao_single_user(chs, ctx, state)
        assert rep.iterations == 1
        assert rep.converged
        assert again.snr == pytest.approx(state.snr, rel=1e-8)

    def test_decoupled_problem_matches_enumeration(self, rng, ctx):
        # no inter-IRS link and no IRS1->BS link: optimum over theta2 alone
        chs = random_channel_set(rng, n=2, m1=2, m2=3, k=1)
        chs = cb.ChannelSet.from_links(
            chs.u1, chs.u2, np.zeros_like(chs.d), np.zeros_like(chs.g1), chs.g2
        )
        state, _ = cb.ao_single_user(chs, ctx, random_init(chs, rng))
        # MRC makes the objective P ||R2 theta2||^2 / noise; enumerate it
        best = max(
            np.linalg.norm(chs.g2 @ np.diag(c) @ chs.u2[:, 0]) ** 2
            for c in grid_combos(3, points=64)
        )
        assert state.snr >= ctx.powers[0] * best / ctx.noise * (1 - 1e-6)

    def test_matches_sdr_benchmark(self, rng, ctx):
        chs = random_channel_set(rng, n=2, m1=4, m2=4, k=1)
        state, _ = cb.ao_single_user(chs, ctx, random_init(chs, rng))
        bench = sdr_benchmark(chs, ctx, state.w, rng)
        assert state.snr >= 0.98 * bench.min_sinr
        assert bench.min_sinr <= conditional_bound(chs, ctx, bench) * (1 + 1e-9)

    def test_bound_covers_ao_solution(self, rng, ctx):
        chs = random_channel_set(rng, n=2, m1=3, m2=3, k=1)
        state, _ = cb.ao_single_user(chs, ctx, random_init(chs, rng))
        bench = sdr_benchmark(chs, ctx, state.w, rng, pattern=state.pattern())
        assert conditional_bound(chs, ctx, bench) >= state.snr * (1 - 1e-9)
        assert bench.min_sinr >= state.snr * (1 - 1e-9)  # monotone acceptance from the AO point


class TestSingleIrsOpt:
    def test_single_antenna_closed_form(self, rng, ctx):
        chs = random_channel_set(rng, n=1, m1=0, m2=5, k=1)
        best = cb.single_irs_opt(chs, ctx, restarts=3, rng=rng)
        rbar = chs.g2 @ np.diag(chs.u2[:, 0])  # N = 1
        expect = ctx.powers[0] * np.sum(np.abs(rbar)) ** 2 / ctx.noise
        assert best.snr == pytest.approx(expect, rel=1e-9)

    def test_rank_one_channel_closed_form(self, rng, ctx):
        g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rbar = np.outer(g, u.conj())
        chs = cb.ChannelSet.from_links(
            np.zeros((0, 1)), np.ones((4, 1)), np.zeros((4, 0)), np.zeros((3, 0)), rbar
        )
        best = cb.single_irs_opt(chs, ctx, restarts=3, rng=rng)
        expect = ctx.powers[0] * np.linalg.norm(g) ** 2 * np.sum(np.abs(u)) ** 2 / ctx.noise
        assert best.snr == pytest.approx(expect, rel=1e-9)

    def test_matches_exhaustive_grid(self, rng, ctx):
        # N=2, M=4: enumerate 64^4 phase combinations with MRC receivers
        chs = random_channel_set(rng, n=2, m1=0, m2=4, k=1)
        rbar = chs.g2 @ np.diag(chs.u2[:, 0])
        best = cb.single_irs_opt(chs, ctx, restarts=20, rng=rng)
        phases = phase_grid(64)
        grid_max = 0.0
        head = np.exp(1j * phases)
        for ph0 in head:  # chunk the 64^4 enumeration over the first phase
            combos = grid_combos(3, points=64)
            theta = np.concatenate(
                [np.full((combos.shape[0], 1), ph0), combos], axis=1
            )
            vals = np.linalg.norm(theta @ rbar.T, axis=1) ** 2
            grid_max = max(grid_max, float(vals.max()))
        grid_max *= ctx.powers[0] / ctx.noise
        sig = np.linalg.svd(rbar, compute_uv=False)[0]
        slack = (
            2.0 * sig**2 * 4 * (np.pi / 64) * ctx.powers[0] / ctx.noise
        )  # norm-gradient bound over the 4 phase errors
        assert best.snr >= grid_max - slack

    def test_zero_restarts_rejected(self, rng, ctx):
        # zero restarts used to run one restart silently
        chs = random_channel_set(rng, n=2, m1=0, m2=3, k=1)
        with pytest.raises(ValueError, match="restarts"):
            cb.single_irs_opt(chs, ctx, restarts=0, rng=rng)


class TestBatchedRestarts:
    @pytest.mark.parametrize("restarts", [1, 3, 20])
    @pytest.mark.parametrize("m", [1, 4, 32])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_matches_one_by_one_restarts(self, ctx, n, m, restarts):
        rng = np.random.default_rng(100 * n + m)
        chs = random_channel_set(rng, n=n, m1=0, m2=m, k=1)
        ref_rng = copy.deepcopy(rng)
        ref = one_by_one_single_irs_opt(chs, ctx, restarts, ref_rng)
        best = cb.single_irs_opt(chs, ctx, restarts=restarts, rng=rng)
        assert best.snr == pytest.approx(ref.snr, rel=1e-12)
        assert best.iteration == ref.iteration
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_tie_goes_to_first_restart(self, ctx):
        # a zero channel gives every start SNR 0 exactly; with no cycle run, the first start wins
        zero = cb.ChannelSet.from_links(
            np.zeros((0, 1)), np.zeros((3, 1)), np.zeros((3, 0)), np.zeros((2, 0)), np.zeros((2, 3))
        )
        first = random_init(zero, np.random.default_rng(7))
        best = cb.single_irs_opt(zero, ctx, restarts=3, max_iters=0, rng=np.random.default_rng(7))
        assert best.snr == 0.0 and best.iteration == 0 and best.trace == [0.0]
        assert np.array_equal(best.w, first.w) and np.array_equal(best.theta2, first.theta2)

    def test_double_irs_trace_has_every_sub_step(self, rng, ctx):
        for _ in range(5):
            chs = random_channel_set(rng, n=3, m1=4, m2=4, k=1)
            state, rep = cb.ao_single_user(chs, ctx, random_init(chs, rng))
            assert len(state.trace) == 3 * state.iteration + 1
            assert rep.trace == state.trace and rep.iterations == state.iteration
            assert np.all(np.diff(state.trace) >= -1e-10 * max(state.trace))
            assert state.snr == state.trace[-1]


class TestBaselineInitialization:
    def _paired(self, rng, m1=3, m2=3, kill_double=False):
        chs = random_channel_set(rng, n=3, m1=m1, m2=m2, k=1)
        if kill_double:
            chs = cb.ChannelSet.from_links(
                chs.u1, chs.u2, np.zeros_like(chs.d), chs.g1, chs.g2
            )
        return chs, cb.build_single_irs_baseline_A1(chs)

    def test_vanishing_double_link_gives_equality(self, rng, ctx):
        chs, base = self._paired(rng, kill_double=True)
        best = cb.single_irs_opt(base, ctx, restarts=5, rng=rng)
        init = cb.init_from_single_irs(chs, best)
        snr = cb.snr_value(chs, init.w, init.theta1, init.theta2, ctx)
        assert snr == pytest.approx(best.snr, rel=1e-12)

    def test_init_never_below_baseline(self, rng, ctx):
        for _ in range(25):
            chs, base = self._paired(rng)
            best = cb.single_irs_opt(base, ctx, restarts=5, rng=rng)
            init = cb.init_from_single_irs(chs, best)
            snr = cb.snr_value(chs, init.w, init.theta1, init.theta2, ctx)
            assert snr >= best.snr * (1 - 1e-9)

    def test_init_snr_formula(self, rng, ctx):
        chs, base = self._paired(rng)
        best = cb.single_irs_opt(base, ctx, restarts=5, rng=rng)
        init = cb.init_from_single_irs(chs, best)
        theta = best.pattern().theta
        part1, part2 = theta[: chs.m1], theta[chs.m1 :]
        h_d = chs.g2 @ np.diag(part2) @ chs.d @ np.diag(part1) @ chs.u1[:, 0]
        h = explicit_channel(chs, part1, part2)[:, 0]
        a1 = np.vdot(best.w, h_d)
        a2 = np.vdot(best.w, h - h_d)
        expect = ctx.powers[0] * (abs(a1) + abs(a2)) ** 2 / ctx.noise
        got = cb.snr_value(chs, init.w, init.theta1, init.theta2, ctx)
        assert got == pytest.approx(expect, rel=1e-10)


class TestSdrBenchmark:
    def test_m2_one_bound_matches_closed_form(self, rng, ctx):
        # with a single subsurface on IRS2 and none on IRS1 the conditional
        # optimum is analytic and the relaxation is tight
        chs = random_channel_set(rng, n=3, m1=0, m2=1, k=1)
        w = unit(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        bench = sdr_benchmark(chs, ctx, w, rng, eps=1e-5)
        w_fin = cb.mrc_receivers(chs.compose(np.zeros(0), bench.theta2))[:, 0]
        b = (chs.g2 @ np.diag(chs.u2[:, 0])).conj().T @ w_fin
        expect = ctx.powers[0] * np.sum(np.abs(b)) ** 2 / ctx.noise
        bound = conditional_bound(chs, ctx, bench, eps=1e-5)
        assert bench.min_sinr == pytest.approx(expect, rel=1e-6)
        assert bound >= bench.min_sinr
        assert bound <= expect * (1 + 1e-3)

    def test_feasible_to_bound_ratio(self, rng, ctx):
        chs = random_channel_set(rng, n=2, m1=3, m2=3, k=1)
        w = unit(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        bench = sdr_benchmark(chs, ctx, w, rng)
        assert bench.min_sinr / conditional_bound(chs, ctx, bench) >= 0.9
        # relaxation dominance on every K = 1 subproblem
        assert bench.sdr_records
        for delta_star, achieved in bench.sdr_records:
            assert achieved <= delta_star + 1e-3 + 1e-6 * max(delta_star, 1.0)


class TestBaselineDominance:
    def test_ao_with_init_never_loses_to_baseline(self, ctx):
        # scenario-built channels with mixed Rician factors
        from coopbeam.experiments import su_scenario

        violations = 0
        for i in range(30):
            kappa = [-10.0, 0.0, 10.0][i % 3]
            scn = su_scenario(kappa_far_db=kappa, m1=4, m2=4, n_bs=3)
            rng = np.random.default_rng(4000 + i)
            chs = cb.build_double_irs_scenario(scn, rng)
            sctx = cb.SinrContext.from_scenario(scn)
            base = cb.build_single_irs_baseline_A1(chs)
            best = cb.single_irs_opt(base, sctx, restarts=20, rng=rng)
            init = cb.init_from_single_irs(chs, best)
            state, _ = cb.ao_single_user(chs, sctx, init)
            violations += state.snr < best.snr * (1 - 1e-9)
        assert violations == 0
