"""Instance builders, linear receivers, Algorithm-1 driver, codebook search."""

import numpy as np
import pytest

import coopbeam as cb
from coopbeam import multi_user
from coopbeam.multi_user import _receivers
from conftest import explicit_su_terms, random_channel_set, random_init, zf_min_sinr_formula


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
        assert np.allclose(inst.v[..., -1], 0.0)

    def test_d_zero_p34_comes_from_r1_alone(self, rng):
        chs = random_channel_set(rng, n=3, m1=3, m2=2, k=2)
        chs = cb.ChannelSet.from_links(chs.u1, chs.u2, np.zeros_like(chs.d), chs.g1, chs.g2)
        t2 = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        w = unit_cols(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        inst = cb.build_p34_instance(chs, t2, w, np.ones(2), 1.0)
        r1 = [chs.g1 @ np.diag(chs.u1[:, j]) for j in range(2)]
        expect = np.stack([[r1[j].conj().T @ w[:, k] for j in range(2)] for k in range(2)])
        assert np.allclose(inst.v[..., :-1], expect)

    @pytest.mark.parametrize("block, m1, m2", [(2, 2, 3), (1, 2, 3), (2, 0, 3)])
    def test_k1_instance_is_the_written_out_link_terms(self, rng, block, m1, m2):
        # v_11 = sqrt(P) [b; conj(b0)] with w^H h = b^H theta_block + b0 from the raw links
        chs = random_channel_set(rng, n=3, m1=m1, m2=m2, k=1)
        other = np.exp(1j * rng.uniform(0, 2 * np.pi, m1 if block == 2 else m2))
        w = unit_cols(rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)))
        build = cb.build_p31_instance if block == 2 else cb.build_p34_instance
        inst = build(chs, other, w, np.array([2.0]), 0.5)
        b, b0 = explicit_su_terms(chs, block, other, w[:, 0])
        assert np.allclose(inst.v[0, 0], np.sqrt(2.0) * np.append(b, np.conj(b0)), rtol=1e-12, atol=1e-14)

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

    @pytest.mark.parametrize("fn", ["zf", "mmse", "sinr", "rank"])
    def test_stack_equals_per_slice_calls(self, rng, fn):
        ctx = cb.SinrContext(np.array([1.0, 2.0, 0.5]), 0.3)
        h = rng.standard_normal((6, 5, 3)) + 1j * rng.standard_normal((6, 5, 3))
        w = rng.standard_normal((6, 5, 3)) + 1j * rng.standard_normal((6, 5, 3))
        call = {
            "zf": lambda h, w: cb.zf_receivers(h, ctx.powers),
            "mmse": lambda h, w: cb.mmse_receivers(h, ctx.powers, ctx.noise),
            "sinr": lambda h, w: cb.sinr_per_user(h, w, ctx),
            "rank": lambda h, w: cb.numerical_rank(h),
        }[fn]
        if fn != "zf":
            h[2, :, 1] = 0  # a zero column: MMSE's unit-vector rule in one slice, rank 2 there
        np.testing.assert_array_equal(call(h, w), [call(h[b], w[b]) for b in range(len(h))])
        assert call(h[None, None], w[None, None]).shape[:2] == (1, 1)

    @pytest.mark.parametrize("batch", [1, 3], ids=["one", "k"])
    def test_stack_of_one_or_k_channels_equals_per_slice_calls(self, rng, batch):
        # a stack as long as K, or of one channel, is where a K x K right-hand side read as a
        # stack of vectors would pass unnoticed; the ZF -> MMSE fallback gets such a stack too
        ctx = cb.SinrContext(np.array([1.0, 2.0, 0.5]), 0.3)
        h = rng.standard_normal((batch, 5, 3)) + 1j * rng.standard_normal((batch, 5, 3))
        w = cb.mmse_receivers(h, ctx.powers, ctx.noise)
        np.testing.assert_array_equal(w, [cb.mmse_receivers(c, ctx.powers, ctx.noise) for c in h])
        h[0, :, 2] = h[0, :, 0]
        w, substituted = _receivers(h, ctx, "zf")
        assert substituted
        np.testing.assert_array_equal(w[0], cb.mmse_receivers(h[0], ctx.powers, ctx.noise))

    def test_stack_keeps_the_2d_contracts(self, rng):
        ctx = cb.SinrContext(np.ones(2), 0.5)
        h = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
        assert type(cb.numerical_rank(h[0])) is int
        assert cb.numerical_rank(h).dtype.kind == "i"
        w = h.copy()
        w[3, :, 0] = 0
        with pytest.raises(ValueError, match="zero receive vector"):
            cb.sinr_per_user(h, w, ctx)
        h[1, :, 1] = h[1, :, 0]
        with pytest.raises(cb.RankDeficiencyError):
            cb.zf_receivers(h, ctx.powers)
        with pytest.raises(cb.RankDeficiencyError):
            cb.zf_receivers(h[1], ctx.powers)

    @pytest.mark.parametrize("fn", ["zf", "mmse"])
    @pytest.mark.parametrize("powers", [[2.0], [1.0, -1.0, 1.0], [1.0, np.nan, 1.0], [1.0, np.inf, 1.0],
                                        [[1.0, 1.0, 1.0]]], ids=["length-1", "negative", "nan", "inf", "2-d"])
    def test_rejects_powers_that_are_not_k_finite_positive_values(self, rng, fn, powers):
        h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        with pytest.raises(ValueError, match="powers must be 3 finite positive values"):
            if fn == "zf":
                cb.zf_receivers(h, powers)
            else:
                cb.mmse_receivers(h, powers, 0.5)

    @pytest.mark.parametrize("noise", [np.nan, np.inf])
    def test_mmse_rejects_noise_that_is_not_finite_positive(self, rng, noise):
        h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        with pytest.raises(ValueError, match="noise power must be finite and positive"):
            cb.mmse_receivers(h, np.ones(3), noise)

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


def covariance_mmse(h, powers, noise):
    """MMSE receivers in covariance form, solve(H P H^H + noise I_N, H sqrt(P)): the reference
    for the push-through form that `mmse_receivers` computes (zero-column rule not applied)."""
    cov = (h * powers) @ h.conj().swapaxes(-1, -2) + noise * np.eye(h.shape[-2])
    return np.linalg.solve(cov, h * np.sqrt(powers))


# the two forms agree to about 1e-13 to 1e-12 relative on these well-conditioned channels;
# the bound leaves two orders of magnitude for other BLAS builds
PUSH_THROUGH_RTOL = 1e-10


def assert_close_per_channel(w, ref, rtol=PUSH_THROUGH_RTOL):
    """||W - ref||_F <= rtol ||ref||_F for every channel of a stack (..., N, K)."""
    err = np.linalg.norm(w - ref, axis=(-2, -1))
    assert np.all(err <= rtol * np.linalg.norm(ref, axis=(-2, -1))), np.max(err)


class TestPushThroughMmse:
    @pytest.mark.parametrize("shape", [(6, 3), (4, 4), (3, 5), (8, 6, 3), (2, 3, 5, 4)],
                             ids=["n>k", "n=k", "n<k", "stack", "two-axis"])
    def test_equals_covariance_form(self, rng, shape):
        k = shape[-1]
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        powers, noise = np.linspace(0.5, 2.0, k), 0.3
        assert_close_per_channel(cb.mmse_receivers(h, powers, noise), covariance_mmse(h, powers, noise))

    def test_zero_column_gets_first_unit_vector(self, rng):
        h = rng.standard_normal((4, 5, 3)) + 1j * rng.standard_normal((4, 5, 3))
        h[2, :, 1] = 0
        powers, noise = np.array([1.0, 2.0, 0.5]), 0.4
        w, ref = cb.mmse_receivers(h, powers, noise), covariance_mmse(h, powers, noise)
        assert (w[2, :, 1] == [1, 0, 0, 0, 0]).all()
        assert (ref[2, :, 1] == 0).all()
        ref[2, 0, 1] = 1.0
        assert_close_per_channel(w, ref)

    def test_zf_fallback_on_rank_deficient_stack(self, rng):
        ctx = cb.SinrContext(np.array([1.0, 2.0, 0.5]), 0.3)
        h = rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))
        h[[1, 3], :, 2] = h[[1, 3], :, 0]
        w, substituted = _receivers(h, ctx, "zf")
        assert substituted
        assert_close_per_channel(w[[1, 3]], covariance_mmse(h[[1, 3]], ctx.powers, ctx.noise))
        assert (w[[0, 2, 4]] == cb.zf_receivers(h[[0, 2, 4]], ctx.powers)).all()


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


def per_pair_search(chs, ctx, rx_mode):
    """The codebook search one pair at a time: the reference for the chunked search."""
    best, substituted = None, False
    for t1 in cb.dft_codebook(chs.m1):
        for t2 in cb.dft_codebook(chs.m2):
            h = cb.effective_channel(chs, cb.ReflectPattern(t1, t2))
            if rx_mode == "mrc":
                w = cb.mrc_receivers(h)
            elif rx_mode == "mmse":
                w = cb.mmse_receivers(h, ctx.powers, ctx.noise)
            else:
                try:
                    w = cb.zf_receivers(h, ctx.powers)
                except cb.RankDeficiencyError:
                    w = cb.mmse_receivers(h, ctx.powers, ctx.noise)
                    substituted = True
            obj = float(cb.sinr_per_user(h, w, ctx).min())
            if best is None or obj > best.min_sinr:
                best = cb.MuSolveState(t1, t2, w, min_sinr=obj)
    best.zf_substituted = substituted
    return best


def mixed_rank_channels(rng, n=5, m=4):
    """H = G diag(theta1 + theta2) diag(a): user k's column vanishes (to rounding) where the
    two DFT codewords cancel at k, so some pairs are column rank deficient and some are not."""
    g = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    u = np.diag(rng.uniform(0.5, 2.0, m)).astype(complex)
    return cb.ChannelSet.from_links(u, u, np.zeros((m, m), complex), g, g)


def zero_column_channels(rng):
    chs = random_channel_set(rng, n=4, m1=4, m2=4, k=3)
    chs.u1[:, 1] = chs.u2[:, 1] = 0
    return chs


def all_zero_channels(rng):
    chs = random_channel_set(rng, n=3, m1=4, m2=3, k=2)
    return cb.ChannelSet.from_links(*(np.zeros_like(x) for x in (chs.u1, chs.u2, chs.d, chs.g1, chs.g2)))


class TestChunkedSearch:
    @pytest.mark.parametrize("rx_mode", ["mrc", "zf", "mmse"])
    @pytest.mark.parametrize("make", [mixed_rank_channels, zero_column_channels, all_zero_channels])
    def test_equals_per_pair_loop(self, rng, monkeypatch, rx_mode, make):
        chs = make(rng)
        ctx = cb.SinrContext(np.linspace(1.0, 2.0, chs.n_users), 0.3)
        pair_bytes = 16 * max(chs.n_bs, chs.m1, chs.m2) * chs.n_users
        monkeypatch.setattr(multi_user, "_CHUNK_BYTES", pair_bytes * 3)  # 3 pairs per chunk
        sizes = []

        def sinr(h, w, ctx):
            sizes.append(len(h))
            return cb.sinr_per_user(h, w, ctx)

        monkeypatch.setattr(multi_user, "sinr_per_user", sinr)
        pairs = max(chs.m1, 1) * max(chs.m2, 1)
        assert pairs > 3
        got = cb.dft_codebook_search(chs, ctx, rx_mode)
        assert sizes == [3] * (pairs // 3) + [pairs % 3] * (pairs % 3 > 0)
        want = per_pair_search(chs, ctx, rx_mode)
        for name in ("theta1", "theta2", "w"):
            assert getattr(got, name).shape == getattr(want, name).shape
            assert (getattr(got, name) == getattr(want, name)).all(), name
        assert got.min_sinr == want.min_sinr
        assert got.zf_substituted == want.zf_substituted == (rx_mode == "zf")  # every case has a deficient pair
        if make is all_zero_channels:  # every pair ties at 0: the first pair wins across chunks
            assert got.min_sinr == 0.0
            assert (got.theta1 == cb.dft_codebook(chs.m1)[0]).all()
            assert (got.theta2 == cb.dft_codebook(chs.m2)[0]).all()

    def test_mixed_rank_channels_mix_ranks(self, rng):
        chs = mixed_rank_channels(rng)
        ranks = [cb.numerical_rank(chs.compose(t1, t2))
                 for t1 in cb.dft_codebook(chs.m1) for t2 in cb.dft_codebook(chs.m2)]
        assert min(ranks) < chs.n_users == max(ranks)

    def test_result_owns_its_arrays(self, rng):
        chs = random_channel_set(rng, n=3, m1=2, m2=3, k=2)
        found = cb.dft_codebook_search(chs, cb.SinrContext(np.ones(2), 1.0), "mmse")
        assert all(x.base is None for x in (found.theta1, found.theta2, found.w))


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
