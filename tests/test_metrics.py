"""Effective channel composition, SINR metrics, rank analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coopbeam as cb
from conftest import random_channel_set, zf_min_sinr_formula


class TestEffectiveChannel:
    def test_no_inter_irs_coupling_kills_double_part(self, rng):
        chs = random_channel_set(rng, n=3, m1=2, m2=4, k=2)
        chs = cb.ChannelSet.from_links(chs.u1, chs.u2, np.zeros_like(chs.d), chs.g1, chs.g2)
        pat = cb.ReflectPattern.random(2, 4, rng)
        h = cb.effective_channel(chs, pat)
        single = chs.g2 @ np.diag(pat.theta2) @ chs.u2 + chs.g1 @ np.diag(pat.theta1) @ chs.u1
        assert np.allclose(h, single)

    def test_m1_zero_single_irs_special_case(self, rng):
        chs = random_channel_set(rng, n=3, m1=0, m2=4, k=1)
        pat = cb.ReflectPattern(np.zeros(0), np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
        h = cb.effective_channel(chs, pat)
        assert np.allclose(h[:, 0], chs.g2 @ np.diag(pat.theta2) @ chs.u2[:, 0])

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20)
    def test_cascaded_form_equals_raw_link_form(self, seed):
        rng = np.random.default_rng(seed)
        chs = random_channel_set(rng, n=3, m1=3, m2=2, k=3)
        pat = cb.ReflectPattern.random(3, 2, rng)
        h = cb.effective_channel(chs, pat)
        direct = (
            chs.g2 @ np.diag(pat.theta2) @ chs.d @ np.diag(pat.theta1) @ chs.u1
            + chs.g2 @ np.diag(pat.theta2) @ chs.u2
            + chs.g1 @ np.diag(pat.theta1) @ chs.u1
        )
        scale = max(np.max(np.abs(direct)), 1e-30)
        assert h.shape == (3, 3)
        assert np.array_equal(h, chs.compose(pat.theta1, pat.theta2))
        assert np.max(np.abs(h - direct)) <= 1e-10 * scale

    def test_dimension_mismatch_rejected(self, rng):
        chs = random_channel_set(rng, n=3, m1=3, m2=2, k=2)
        with pytest.raises(ValueError):
            cb.effective_channel(chs, cb.ReflectPattern.random(2, 2, rng))


class TestSinr:
    def test_single_user_no_interference(self, rng):
        h = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        w = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        ctx = cb.SinrContext(np.array([2.0]), 0.5)
        got = cb.sinr_per_user(h, w, ctx)[0]
        expect = 2.0 * abs(np.vdot(w[:, 0], h[:, 0])) ** 2 / (0.5 * np.linalg.norm(w) ** 2)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_orthogonal_receiver_gives_zero(self, rng):
        h = np.array([[1.0 + 0j], [0.0]])
        w = np.array([[0.0 + 0j], [1.0]])
        ctx = cb.SinrContext(np.array([1.0]), 1.0)
        assert cb.sinr_per_user(h, w, ctx)[0] == 0.0

    def test_two_user_scalar_hand_evaluation(self):
        # N=1: everything is scalar, evaluate the definition directly
        h = np.array([[1.0 + 1.0j, 0.5 - 0.25j]])
        w = np.array([[0.8 - 0.1j, -0.3 + 0.9j]])
        p = np.array([1.5, 0.7])
        noise = 0.2
        ctx = cb.SinrContext(p, noise)
        got = cb.sinr_per_user(h, w, ctx)
        for k in range(2):
            sig = p[k] * abs(np.conj(w[0, k]) * h[0, k]) ** 2
            j = 1 - k
            interf = p[j] * abs(np.conj(w[0, k]) * h[0, j]) ** 2
            expect = sig / (interf + noise * abs(w[0, k]) ** 2)
            assert got[k] == pytest.approx(expect, rel=1e-12)

    @given(
        seed=st.integers(0, 2**31),
        scale_re=st.floats(-3.0, 3.0),
        scale_im=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=20)
    def test_receiver_scale_invariance(self, seed, scale_re, scale_im):
        c = complex(scale_re, scale_im)
        if abs(c) < 1e-3:
            c = 1.0 + 1.0j
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        w = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        ctx = cb.SinrContext(np.array([1.0, 2.0]), 0.3)
        base = cb.sinr_per_user(h, w, ctx)
        scaled = w.copy()
        scaled[:, 0] *= c
        again = cb.sinr_per_user(h, scaled, ctx)
        assert np.all(np.abs(again - base) <= 1e-12 * np.maximum(base, 1.0))

    def test_zero_receiver_rejected(self):
        h = np.ones((2, 1), dtype=complex)
        ctx = cb.SinrContext(np.array([1.0]), 1.0)
        with pytest.raises(ValueError):
            cb.sinr_per_user(h, np.zeros((2, 1), dtype=complex), ctx)


class TestMaxMinRate:
    def test_unit_sinrs(self):
        assert cb.max_min_rate([1.0, 1.0, 1.0]) == 1.0

    def test_min_rules(self):
        assert cb.max_min_rate([3.0, 1.0]) == 1.0

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=6))
    def test_matches_direct_evaluation(self, sinrs):
        assert cb.max_min_rate(sinrs) == pytest.approx(np.log2(1.0 + min(sinrs)), rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cb.max_min_rate([-0.1])


class TestZfFormula:
    def test_orthonormal_columns(self):
        h = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 3)))[0]
        assert zf_min_sinr_formula(h, 2.0, 0.5) == pytest.approx(4.0, rel=1e-10)

    def test_linear_in_power(self, rng):
        h = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        assert zf_min_sinr_formula(h, 2.0, 0.3) == pytest.approx(
            2.0 * zf_min_sinr_formula(h, 1.0, 0.3), rel=1e-12
        )

    def test_matches_receiver_pipeline(self, rng):
        h = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        ctx = cb.SinrContext(np.full(3, 1.7), 0.9)
        w = cb.zf_receivers(h, ctx.powers)
        pipeline = cb.sinr_per_user(h, w, ctx).min()
        assert zf_min_sinr_formula(h, 1.7, 0.9) == pytest.approx(pipeline, rel=1e-8)

    def test_rank_deficient_rejected(self):
        h = np.ones((4, 2), dtype=complex)
        with pytest.raises(cb.RankDeficiencyError):
            zf_min_sinr_formula(h, 1.0, 1.0)


def _mu_setup(seed, k=5):
    from coopbeam.experiments import mu_scenario

    scn = mu_scenario(k_users=k)
    rng = np.random.default_rng(seed)
    chs = cb.build_double_irs_scenario(scn, rng)
    base = cb.build_single_irs_baseline_A2(scn, rank_g=2, rank_u=min(k, scn.m_total), rng=rng)
    return scn, chs, base, rng


class TestRankAnalysis:
    def test_reference_multiuser_setup(self):
        scn, chs, base, rng = _mu_setup(0)
        rep = cb.rank_gain_report(chs, base, rng=rng)
        assert rep.rank_h == 5
        assert rep.rank_hbar == 2
        assert cb.numerical_rank(chs.g2) == 2 and cb.numerical_rank(chs.g1) == 4
        # Prop. 2 in its min(N, K)-clipped form, the gain taken from the raw links
        gain = min(cb.numerical_rank(chs.g1), cb.numerical_rank(chs.u1))
        assert rep.rank_h >= min(chs.n_bs, chs.n_users, rep.rank_hbar + gain)

    def test_m1_zero_double_equals_baseline_rank(self):
        from coopbeam.experiments import mu_scenario

        scn = mu_scenario(k_users=4, m1=0, m2=32)
        rng = np.random.default_rng(1)
        chs = cb.build_double_irs_scenario(scn, rng)
        base = cb.build_single_irs_baseline_A2(scn, rank_g=2, rank_u=4, rng=rng)
        rep = cb.rank_gain_report(chs, base, rng=rng)
        assert rep.rank_h == rep.rank_hbar == 2
        # with no IRS-1 elements its links are empty, and the paths through it all-zero
        assert chs.u1.size == chs.g1.size == 0 and not (chs.g1 @ chs.u1).any()
        assert cb.numerical_rank(chs.u1) == cb.numerical_rank(chs.g1) == 0
        assert cb.numerical_rank(chs.g1 @ chs.u1) == 0

    def test_baseline_rank_is_min_of_link_ranks(self):
        for seed in range(5):
            scn, chs, base, rng = _mu_setup(seed, k=3)
            pat = cb.ReflectPattern.random(base.m1, base.m2, rng)
            hbar = cb.effective_channel(base, pat)
            expect = min(cb.numerical_rank(base.g2), cb.numerical_rank(base.u2))
            assert cb.numerical_rank(hbar) == expect

    def test_double_reflection_rank_product_rule(self):
        for seed in range(5):
            scn, chs, base, rng = _mu_setup(seed)
            pat = cb.ReflectPattern.random(16, 16, rng)
            double_refl = chs.g2 @ np.diag(pat.theta2) @ chs.d @ np.diag(pat.theta1) @ chs.u1
            expect = min(
                cb.numerical_rank(chs.g2),
                cb.numerical_rank(chs.d),
                cb.numerical_rank(chs.u1),
            )
            assert cb.numerical_rank(double_refl) == expect

    def test_clipped_lower_bound_on_random_patterns(self):
        for seed in range(5):
            scn, chs, base, rng = _mu_setup(seed)
            pat = cb.ReflectPattern.random(16, 16, rng)
            h = cb.effective_channel(chs, pat)
            n, k = chs.n_bs, chs.n_users
            prod_rank = cb.numerical_rank(chs.g2 @ chs.u2)
            lower = min(
                min(n, k),
                prod_rank + min(cb.numerical_rank(chs.g1), cb.numerical_rank(chs.u1)),
            )
            assert cb.numerical_rank(h) >= lower
            assert cb.numerical_rank(h) <= min(n, k)
