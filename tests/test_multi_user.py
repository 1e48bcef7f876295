"""Instance builders, linear receivers, Algorithm-1 driver, codebook search."""

import numpy as np
import pytest

import coopbeam as cb
from coopbeam.multi_user import _receivers
from conftest import random_channel_set, random_init, zf_min_sinr_formula


@pytest.fixture
def ctx2():
    return cb.SinrContext(np.array([1.0, 2.0]), 0.5)


def unit_cols(w):
    return w / np.linalg.norm(w, axis=0, keepdims=True)


class TestInstanceBuilders:
    def test_p31_reproduces_sinrs(self, rng, ctx2):
        chs = random_channel_set(rng, n=4, m1=3, m2=3, k=2)
        pat = cb.ReflectPattern.random(3, 3, rng)
        w = unit_cols(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        inst = cb.build_p31_instance(chs, pat.theta1, w, ctx2.powers, ctx2.noise)
        direct = cb.sinr_per_user(cb.effective_channel(chs, pat), w, ctx2)
        assert np.allclose(inst.sinr_values(pat.theta2), direct, rtol=1e-10)

    def test_p34_reproduces_sinrs(self, rng, ctx2):
        chs = random_channel_set(rng, n=4, m1=3, m2=3, k=2)
        pat = cb.ReflectPattern.random(3, 3, rng)
        w = unit_cols(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        inst = cb.build_p34_instance(chs, pat.theta2, w, ctx2.powers, ctx2.noise)
        direct = cb.sinr_per_user(cb.effective_channel(chs, pat), w, ctx2)
        assert np.allclose(inst.sinr_values(pat.theta1), direct, rtol=1e-10)

    def test_m1_zero_reference_terms_vanish(self, rng):
        chs = random_channel_set(rng, n=3, m1=0, m2=4, k=2)
        w = unit_cols(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        inst = cb.build_p31_instance(chs, np.zeros(0), w, np.ones(2), 1.0)
        assert np.allclose(inst.qbar, 0.0)

    def test_d_zero_p34_comes_from_r1_alone(self, rng):
        chs = random_channel_set(rng, n=3, m1=3, m2=2, k=2)
        chs = cb.ChannelSet.from_links(chs.u1, chs.u2, np.zeros_like(chs.d), chs.g1, chs.g2)
        t2 = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        w = unit_cols(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        inst = cb.build_p34_instance(chs, t2, w, np.ones(2), 1.0)
        r1 = [chs.g1 @ np.diag(chs.u1[:, j]) for j in range(2)]
        expect = np.stack([[r1[j].conj().T @ w[:, k] for j in range(2)] for k in range(2)])
        assert np.allclose(inst.q, expect)

    def test_k1_instance_has_single_constraint(self, rng):
        chs = random_channel_set(rng, n=3, m1=2, m2=3, k=1)
        w = unit_cols(rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)))
        inst = cb.build_p31_instance(chs, np.exp(1j * np.ones(2)), w, np.ones(1), 1.0)
        assert inst.n_users == 1 and inst.dim == 3

    def test_dimension_mismatch_rejected(self, rng):
        chs = random_channel_set(rng, n=3, m1=2, m2=3, k=2)
        w = np.ones((3, 2), dtype=complex)
        with pytest.raises(ValueError):
            cb.build_p31_instance(chs, np.ones(3, complex), w, np.ones(2), 1.0)


class TestReceivers:
    def test_zf_orthonormal_unit_power(self):
        h = np.linalg.qr(np.random.default_rng(1).standard_normal((5, 3)))[0]
        w = cb.zf_receivers(h, np.ones(3))
        assert np.allclose(w, h, atol=1e-10)

    def test_zf_zero_interference_identity(self, rng, ctx2):
        h = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        w = cb.zf_receivers(h, ctx2.powers)
        ident = w.conj().T @ h
        assert np.max(np.abs(ident - np.diag(1 / np.sqrt(ctx2.powers)))) <= 1e-10
        off = ident - np.diag(np.diag(ident))
        assert np.max(np.abs(off)) <= 1e-10

    def test_zf_matches_formula(self, rng):
        h = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        ctx = cb.SinrContext(np.full(3, 2.5), 0.7)
        w = cb.zf_receivers(h, ctx.powers)
        got = cb.sinr_per_user(h, w, ctx).min()
        assert got == pytest.approx(zf_min_sinr_formula(h, 2.5, 0.7), rel=1e-8)

    def test_zf_rank_deficient_raises(self):
        h = np.ones((4, 2), dtype=complex)
        with pytest.raises(cb.RankDeficiencyError):
            cb.zf_receivers(h, np.ones(2))

    def test_mmse_approaches_zf_at_vanishing_noise(self, rng):
        h = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        powers = np.ones(3)
        ctx = cb.SinrContext(powers, 1e-12)
        gz = cb.sinr_per_user(h, cb.zf_receivers(h, powers), ctx)
        gm = cb.sinr_per_user(h, cb.mmse_receivers(h, powers, 1e-12), ctx)
        assert np.all(np.abs(gm - gz) <= 0.01 * gz)

    def test_mmse_single_user_is_matched_filter(self, rng):
        h = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        w = cb.mmse_receivers(h, np.ones(1), 0.3)[:, 0]
        cosine = abs(np.vdot(w, h[:, 0])) / (np.linalg.norm(w) * np.linalg.norm(h))
        assert cosine == pytest.approx(1.0, abs=1e-12)

    def test_zero_channel_column_gets_first_unit_vector(self, rng):
        # the rule of mrc_receivers; ZF falls back to MMSE on the rank-deficient channel
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h[:, 1] = 0
        ctx = cb.SinrContext(np.ones(3), 0.5)
        w = cb.mmse_receivers(h, ctx.powers, ctx.noise)
        np.testing.assert_array_equal(w[:, 1], [1, 0, 0])
        full = cb.mmse_receivers(h[:, [0, 2]], ctx.powers[:2], ctx.noise)
        np.testing.assert_allclose(w[:, [0, 2]], full, rtol=1e-12)
        for mode in ("mmse", "zf"):
            w, substituted = _receivers(h, ctx, mode)
            assert substituted == (mode == "zf")
            sinr = cb.sinr_per_user(h, w, ctx)
            assert sinr[1] == 0.0 and np.all(sinr[[0, 2]] > 0)

    def test_mmse_dominates_zf_and_random(self, rng):
        for _ in range(10):
            h = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
            ctx = cb.SinrContext(np.full(3, 1.3), 0.8)
            gm = cb.sinr_per_user(h, cb.mmse_receivers(h, ctx.powers, ctx.noise), ctx)
            gz = cb.sinr_per_user(h, cb.zf_receivers(h, ctx.powers), ctx)
            assert np.all(gm >= gz - 1e-10 * np.maximum(gz, 1.0))
            for _ in range(100):
                w = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
                gr = cb.sinr_per_user(h, w, ctx)
                assert np.all(gm >= gr - 1e-10 * np.maximum(gr, 1.0))


class TestDftCodebook:
    def test_codebook_is_unit_modulus_dft(self):
        f = cb.dft_codebook(4)
        assert f.shape == (4, 4)
        assert np.allclose(np.abs(f), 1.0)
        grid = np.arange(4)
        expect = np.exp(-2j * np.pi * np.outer(grid, grid) / 4)
        assert np.allclose(f, expect.T)

    def test_empty_codebook_for_no_subsurfaces(self):
        f = cb.dft_codebook(0)
        assert f.shape == (1, 0)

    def test_single_pair_equals_direct_evaluation(self, rng):
        chs = random_channel_set(rng, n=3, m1=1, m2=1, k=2)
        ctx = cb.SinrContext(np.ones(2), 1.0)
        found = cb.dft_codebook_search(chs, ctx, rx_mode="mmse")
        h = cb.effective_channel(chs, found.pattern())
        direct = cb.sinr_per_user(h, found.w, ctx).min()
        assert found.min_sinr == pytest.approx(direct, rel=1e-12)

    def test_matches_independent_enumeration(self, rng):
        chs = random_channel_set(rng, n=3, m1=2, m2=2, k=2)
        ctx = cb.SinrContext(np.ones(2), 1.0)
        found = cb.dft_codebook_search(chs, ctx, rx_mode="mmse")
        best = -1.0
        for t1 in cb.dft_codebook(2):
            for t2 in cb.dft_codebook(2):
                h = cb.effective_channel(chs, cb.ReflectPattern(t1, t2))
                w = cb.mmse_receivers(h, ctx.powers, ctx.noise)
                best = max(best, float(cb.sinr_per_user(h, w, ctx).min()))
        assert found.min_sinr == pytest.approx(best, rel=1e-12)

    def test_single_user_uses_mrc(self, rng):
        chs = random_channel_set(rng, n=3, m1=2, m2=2, k=1)
        ctx = cb.SinrContext(np.ones(1), 1.0)
        found = cb.dft_codebook_search(chs, ctx, rx_mode="mrc")
        mrc = cb.mrc_receivers(chs.compose(found.theta1, found.theta2))
        assert np.allclose(found.w, mrc)


class TestAlgorithm1:
    def test_monotone_trace_and_sdr_consistency(self, rng, ctx2):
        chs = random_channel_set(rng, n=4, m1=3, m2=3, k=2)
        eps = 0.05
        init = cb.dft_codebook_search(chs, ctx2, rx_mode="mmse")
        state, report = cb.algorithm1(chs, ctx2, init, max_iters=4, eps=eps, n_rand=50, rng=rng)
        trace = np.asarray(state.trace)
        assert np.all(np.diff(trace) >= 0.0)
        for delta_star, achieved in state.sdr_records:
            assert achieved <= delta_star + eps + 1e-6 * max(delta_star, 1.0)
        assert report.iterations == state.iterations

    def test_improves_on_codebook_init(self, rng, ctx2):
        chs = random_channel_set(rng, n=4, m1=3, m2=3, k=2)
        found = cb.dft_codebook_search(chs, ctx2, rx_mode="mmse")
        state, _ = cb.algorithm1(chs, ctx2, init=found, max_iters=4, eps=0.05, rng=rng)
        assert state.min_sinr >= found.min_sinr

    def test_single_user_matches_closed_form_ao(self, rng):
        chs = random_channel_set(rng, n=3, m1=3, m2=3, k=1)
        ctx = cb.SinrContext(np.ones(1), 1.0)
        su_state, _ = cb.ao_single_user(chs, ctx, random_init(chs, rng))
        eps = max(su_state.snr * 1e-3, 1e-9)
        init = cb.dft_codebook_search(chs, ctx, rx_mode="mrc")
        mu_state, _ = cb.algorithm1(chs, ctx, init, max_iters=8, eps=eps, n_rand=200, rng=rng)
        assert mu_state.min_sinr >= 0.98 * su_state.snr

    def test_zf_fallback_flagged_on_rank_deficient_baseline(self):
        from coopbeam.experiments import mu_scenario

        scn = mu_scenario(k_users=5)
        rng = np.random.default_rng(6)
        base = cb.build_single_irs_baseline_A2(scn, rank_g=2, rank_u=5, rng=rng)
        ctx = cb.SinrContext.from_scenario(scn)
        init = cb.dft_codebook_search(base, ctx, rx_mode="zf")
        state, _ = cb.algorithm1(base, ctx, init, max_iters=1, rx_mode="zf", rng=rng)
        assert state.zf_substituted
