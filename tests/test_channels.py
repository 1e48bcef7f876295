"""Link synthesis, cascaded channels, and baseline construction."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coopbeam as cb
from coopbeam.channels import LINK_NAMES, ura_shape
from coopbeam.experiments import mu_scenario
from conftest import explicit_channel, random_channel_set


class TestPathLoss:
    def test_reference_distance(self):
        # -30 dB at the 1 m reference
        assert cb.path_loss_linear(1.0, 2.2, -30.0) == pytest.approx(1e-3, rel=1e-12)

    def test_ten_meters_exponent_three(self):
        assert cb.path_loss_linear(10.0, 3.0, -30.0) == pytest.approx(1e-6, rel=1e-12)

    def test_two_meters(self):
        assert cb.path_loss_linear(2.0, 2.2, -30.0) == pytest.approx(1e-3 / 2**2.2, rel=1e-12)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            cb.path_loss_linear(0.0, 2.2, -30.0)
        with pytest.raises(ValueError):
            cb.path_loss_linear(-1.0, 2.2, -30.0)

    @given(
        d1=st.floats(0.1, 100.0),
        factor=st.floats(1.001, 10.0),
        alpha=st.floats(0.1, 4.0),
    )
    def test_strictly_decreasing_in_distance(self, d1, factor, alpha):
        assert cb.path_loss_linear(d1 * factor, alpha, -30.0) < cb.path_loss_linear(
            d1, alpha, -30.0
        )


class TestArrayResponse:
    def test_single_element(self):
        a = cb.array_response((1, 1), (0.7, -0.3))
        assert a.shape == (1,)
        assert a[0] == 1.0

    def test_broadside_ula_all_ones(self):
        a = cb.array_response((1, 4), (0.0, 0.0), spacing=0.5)
        assert np.allclose(a, np.ones(4))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_row_matches_closed_form_ula_phase(self, n):
        # a (1, n) array is a ULA: element i has phase 2*pi*s*i*sin(az)*cos(el)
        az, el, s = 0.9, -0.4, 0.37
        a = cb.array_response((1, n), (az, el), spacing=s)
        ula = np.exp(2j * math.pi * s * np.arange(n) * math.sin(az) * math.cos(el))
        assert a.shape == (n,)
        assert np.allclose(a, ula, rtol=0, atol=1e-12)

    def test_ura_matches_elementwise_phase_oracle(self):
        # brute force: phase of element (r, c) is 2*pi*s*(c*uh + r*uv)
        az, el = math.pi / 4, math.pi / 4
        s = 0.5
        a = cb.array_response((2, 2), (az, el), spacing=s)
        uh = math.sin(az) * math.cos(el)
        uv = math.sin(el)
        brute = np.array(
            [
                np.exp(2j * math.pi * s * (c * uh + r * uv))
                for r in range(2)
                for c in range(2)
            ]
        )
        assert np.allclose(a, brute, atol=1e-12)
        horiz = cb.array_response((1, 2), (az, el), spacing=s)
        vert = np.exp(2j * math.pi * s * np.arange(2) * uv)
        assert np.allclose(a, np.kron(vert, horiz), atol=1e-12)

    @given(az=st.floats(-np.pi, np.pi), el=st.floats(-np.pi / 2, np.pi / 2))
    def test_unit_modulus_and_reference_entry(self, az, el):
        a = cb.array_response((2, 3), (az, el))
        assert np.allclose(np.abs(a), 1.0)
        assert a[0] == 1.0

    def test_ura_shape_factoring(self):
        assert ura_shape(16) == (4, 4)
        assert ura_shape(32) == (4, 8)
        assert ura_shape(7) == (1, 7)


class TestRicianLink:
    def test_los_dominant_limit(self, rng):
        los = np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 4)))
        out = cb.rician_link(los, 1e12, 0.25, rng)
        assert np.allclose(out, math.sqrt(0.25) * los, rtol=1e-5)

    def test_zero_kappa_mean_vanishes(self, rng):
        los = np.ones((2, 2), dtype=complex)
        draws = np.stack([cb.rician_link(los, 0.0, 1.0, rng) for _ in range(10_000)])
        # sample mean of a CSCG entry: |mean| <= 3 sigma / sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0)) < 3.0 / math.sqrt(10_000))

    @pytest.mark.parametrize("kappa", [0.0, 1.0, 10.0])
    def test_energy_normalization(self, kappa, rng):
        los = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 3)))
        gain = 0.37
        total = 0.0
        n_draws = 10_000
        for _ in range(n_draws):
            h = cb.rician_link(los, kappa, gain, rng)
            total += np.sum(np.abs(h) ** 2)
        ratio = total / n_draws / (gain * los.size)
        assert 0.95 <= ratio <= 1.05

    def test_negative_kappa_rejected(self, rng):
        with pytest.raises(ValueError):
            cb.rician_link(np.ones((2, 2)), -0.5, 1.0, rng)

    def test_non_unit_los_rejected(self, rng):
        with pytest.raises(ValueError):
            cb.rician_link(2.0 * np.ones((2, 2)), 1.0, 1.0, rng)


def _steer_sampler(n):
    def sample(rng):
        return cb.array_response((1, n), (rng.uniform(-np.pi / 2, np.pi / 2), 0.0))

    return sample


class TestGeometricLink:
    def test_single_path_is_rank_one(self, rng):
        g = cb.geometric_link(1, _steer_sampler(4), _steer_sampler(8), 1.0, rng)
        s = np.linalg.svd(g, compute_uv=False)
        assert s[1] < 1e-10 * s[0]

    def test_two_paths_rank_two(self, rng):
        g = cb.geometric_link(2, _steer_sampler(4), _steer_sampler(8), 1.0, rng)
        assert cb.numerical_rank(g) == 2

    def test_energy_normalization(self, rng):
        gain, paths, n, m = 0.6, 3, 4, 8
        rho = math.sqrt(gain / paths)
        total = 0.0
        n_draws = 10_000
        for _ in range(n_draws):
            g = cb.geometric_link(paths, _steer_sampler(n), _steer_sampler(m), rho, rng)
            total += np.sum(np.abs(g) ** 2)
        assert 0.95 <= total / n_draws / (gain * n * m) <= 1.05

    def test_zero_paths_rejected(self, rng):
        with pytest.raises(ValueError):
            cb.geometric_link(0, _steer_sampler(2), _steer_sampler(2), 1.0, rng)


class TestScenarioBuild:
    def test_reference_geometry_is_symmetric(self):
        d = cb.SystemScenario().link_distances()
        assert abs(d["u1"] - d["g2"]) < 1e-9
        assert abs(d["u2"] - d["g1"]) < 1e-9

    def test_seed_determinism_bit_for_bit(self):
        scn = cb.SystemScenario(n_bs=3, m1=4, m2=4, n_users=2)
        a = cb.build_double_irs_scenario(scn, np.random.default_rng(99))
        b = cb.build_double_irs_scenario(scn, np.random.default_rng(99))
        for name in LINK_NAMES:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_m1_zero_degenerates_to_single_reflection(self):
        scn = cb.SystemScenario(n_bs=3, m1=0, m2=5, n_users=1)
        chs = cb.build_double_irs_scenario(scn, np.random.default_rng(1))
        assert chs.u1.shape == (0, 1) and chs.g1.shape == (3, 0) and chs.d.shape == (5, 0)
        pat = cb.ReflectPattern.random(0, 5, np.random.default_rng(0))
        h = cb.effective_channel(chs, pat)
        assert np.allclose(h[:, 0], chs.g2 @ (pat.theta2 * chs.u2[:, 0]))

    def test_coincident_nodes_rejected(self):
        # the constructor rejects them, so a spec that would build them fails validation
        with pytest.raises(ValueError, match="coincident nodes"):
            cb.SystemScenario(pos_irs1=(1.0, 0.0, 2.0), pos_bs=(1.0, 0.0, 2.0))

    @given(
        seed=st.integers(0, 2**32 - 1),
        m1=st.integers(0, 4),
        m2=st.integers(0, 4),
        block=st.sampled_from([1, 2]),
    )
    @example(seed=1, m1=0, m2=3, block=1)
    @example(seed=1, m1=0, m2=3, block=2)
    @example(seed=2, m1=3, m2=0, block=1)
    @example(seed=2, m1=3, m2=0, block=2)
    @settings(max_examples=15)
    def test_cascaded_channel_identity(self, seed, m1, m2, block):
        # the block-affine form reproduces the raw-link product for every user
        rng = np.random.default_rng(seed)
        chs = random_channel_set(rng, n=3, m1=m1, m2=m2, k=2)
        pat = cb.ReflectPattern.random(m1, m2, rng)
        own, other = (pat.theta2, pat.theta1) if block == 2 else (pat.theta1, pat.theta2)
        a, c = chs.affine(block, other)
        assert a.shape == (2, 3, own.size) and c.shape == (3, 2)
        direct = explicit_channel(chs, pat.theta1, pat.theta2)
        affine = np.stack([a[k] @ own + c[:, k] for k in range(2)], axis=1)
        scale = max(np.max(np.abs(direct)), 1e-30)
        assert np.max(np.abs(affine - direct)) <= 1e-10 * scale
        assert np.max(np.abs(affine - chs.compose(pat.theta1, pat.theta2))) <= 1e-10 * scale


    @pytest.mark.parametrize("m1,m2", [(3, 4), (0, 4), (3, 0)])
    def test_batched_compose_and_affine_match_each_entry(self, rng, m1, m2):
        # a leading batch axis gives, entry by entry, the 1-D results bit for bit
        chs = random_channel_set(rng, n=3, m1=m1, m2=m2, k=2)
        t1 = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 5, m1)))
        t2 = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 5, m2)))
        h = chs.compose(t1, t2)
        assert h.shape == (2, 5, 3, 2)
        for i, j in np.ndindex(2, 5):
            assert np.array_equal(h[i, j], chs.compose(t1[i, j], t2[i, j]))
            for block, other in ((2, t1), (1, t2)):
                a, c = chs.affine(block, other)
                a1, c1 = chs.affine(block, other[i, j])
                assert np.array_equal(a[i, j], a1) and np.array_equal(c[i, j], c1)

    def test_wrong_length_reflect_vector_rejected(self, rng):
        chs = random_channel_set(rng, n=3, m1=3, m2=2, k=1)
        for t1, t2 in ((np.ones(1), np.ones(2)), (np.ones(3), np.ones(1)), (np.ones((4, 3)), np.ones((4, 3)))):
            with pytest.raises(ValueError, match="does not match"):
                chs.compose(t1, t2)
        with pytest.raises(ValueError, match="theta1 length"):
            chs.affine(2, np.ones((4, 2)))


def _mixed_links():
    return {
        "u1": cb.LinkModel("geometric", paths=2), "u2": cb.LinkModel("rician", rician_k=0.5),
        "d": cb.LinkModel("rician", rician_k=2.0), "g1": cb.LinkModel("geometric", paths=3),
        "g2": cb.LinkModel("rician", rician_k=10.0),
    }


def _pinned_builds():
    """name -> (ChannelSet, the generator's next uniform after the build or None)."""
    out = {}
    rng = np.random.default_rng(2024)
    su = cb.build_double_irs_scenario(cb.SystemScenario(n_bs=3, m1=4, m2=4), rng)
    out["rician-su"] = (su, rng.uniform())
    rng = np.random.default_rng(2025)
    su0 = cb.build_double_irs_scenario(cb.SystemScenario(n_bs=3, m1=0, m2=6), rng)
    out["rician-su-m1-0"] = (su0, rng.uniform())
    mu = mu_scenario(k_users=3, n_bs=4, m1=4, m2=9)
    out["geometric-mu"] = (cb.build_double_irs_scenario(mu, np.random.default_rng(8)), None)
    rng = np.random.default_rng(2026)
    mixed = cb.SystemScenario(n_bs=2, m1=3, m2=5, n_users=2, links=_mixed_links())
    out["mixed"] = (cb.build_double_irs_scenario(mixed, rng), rng.uniform())
    out["a1"] = (cb.build_single_irs_baseline_A1(su), None)
    rng = np.random.default_rng(2027)
    out["a2"] = (cb.build_single_irs_baseline_A2(mu, rank_g=2, rank_u=3, rng=rng), rng.uniform())
    return out


# per link: squared Frobenius norm and the complex sum of the entries, then the
# generator's next uniform; recorded from the synthesis these tests pin
PINNED = {
    "rician-su": (
        {"u1": (0.009193920297557997, 0.14202084994006486 + 0.00013697537825525796j),
         "u2": (5.78897527073195e-07, 0.00016800975486396547 - 0.00047825943080785887j),
         "d": (8.055680610050569e-05, -0.00019169850784935558 - 0.00416393167702583j),
         "g1": (1.672110328919514e-06, 0.0006937664299400109 + 0.00045852996602441893j),
         "g2": (0.11894815492413775, 0.4149490447645203 + 0.14088680474389734j)},
        0.2090192612295143),
    "rician-su-m1-0": (
        {"u1": (0.0, 0j),
         "u2": (1.1425804728498408e-06, -0.0010992015044576317 + 0.0007932261211287602j),
         "d": (0.0, 0j), "g1": (0.0, 0j),
         "g2": (0.16473198106239653, 0.3607406454770343 + 0.2336161825318643j)},
        0.2254540558069994),
    "geometric-mu": (
        {"u1": (0.04164598234733552, 0.31456430076216246 + 0.12099319256857247j),
         "u2": (5.5514060730966145e-06, 0.0016787261487759557 - 0.0005938269698554013j),
         "d": (0.00020688032246599932, -0.015984947538592573 - 0.005083820502623892j),
         "g1": (3.226618987619383e-06, -0.0012611777894868093 + 0.00032058755035101975j),
         "g2": (0.3661754641008307, 0.5784489274373393 + 0.04075894257210182j)},
        None),
    "mixed": (
        {"u1": (0.07017670012641992, -0.004224360040974207 - 0.3315327317128716j),
         "u2": (1.4693671187358146e-06, -0.000780852725672478 + 0.0011378065532139704j),
         "d": (9.340497467073369e-05, 0.00980606319477901 - 0.00267077468877889j),
         "g1": (1.039588591002975e-06, -0.0006242176063280481 - 0.00028783433582744425j),
         "g2": (0.09827442764027132, -0.21906380134985784 + 0.24976377264887972j)},
        0.6283478623630906),
    "a1": (
        {"u1": (0.0, 0j), "u2": (8.0, 8.0 + 0j), "d": (0.0, 0j), "g1": (0.0, 0j),
         "g2": (2.119226815090074e-08, 0.00010440797021984146 - 7.613807412455367e-05j)},
        None),
    "a2": (
        {"u1": (0.0, 0j),
         "u2": (9.955066667513151e-06, 0.00269677104806031 - 1.3394048100262774e-05j),
         "d": (0.0, 0j), "g1": (0.0, 0j),
         "g2": (0.531255151312606, 0.002244997254495451 + 0.03101548788597308j)},
        0.9913665438752679),
}


class TestDrawOrder:
    def test_fixed_seed_builds_match_recorded_statistics(self):
        # a change in the order or number of random draws moves these by O(1);
        # a last-ulp difference between CPUs stays far below rtol
        for name, (chs, next_uniform) in _pinned_builds().items():
            links, expected_next = PINNED[name]
            for link, (fro2, total) in links.items():
                x = getattr(chs, link)
                got = (np.sum(np.abs(x) ** 2), np.sum(x))
                np.testing.assert_allclose(got, (fro2, total), rtol=1e-9, atol=1e-15,
                                           err_msg=f"{name}/{link}")
            assert next_uniform == expected_next, name  # exact: the generator's own bits


class TestBaselines:
    def test_a1_concatenation_columns(self, small_su_channels):
        chs = small_su_channels
        base = cb.build_single_irs_baseline_A1(chs)
        assert np.array_equal(base.u2, np.ones((chs.m1 + chs.m2, 1)))
        assert np.array_equal(base.g2[:, : chs.m1], chs.g1 * chs.u1[:, 0])
        assert np.array_equal(base.g2[:, chs.m1 :], chs.g2 * chs.u2[:, 0])

    def test_a1_m1_zero_is_r2(self):
        scn = cb.SystemScenario(n_bs=3, m1=0, m2=5, n_users=1)
        chs = cb.build_double_irs_scenario(scn, np.random.default_rng(2))
        base = cb.build_single_irs_baseline_A1(chs)
        assert np.array_equal(base.g2, chs.g2 * chs.u2[:, 0])

    def test_a1_rank_matches_svd_oracle(self, small_su_channels):
        chs = small_su_channels
        base = cb.build_single_irs_baseline_A1(chs)
        stacked = np.concatenate([chs.g1 * chs.u1[:, 0], chs.g2 * chs.u2[:, 0]], axis=1)
        assert cb.numerical_rank(base.g2) == cb.numerical_rank(stacked)

    def test_a1_requires_single_user(self, rng):
        chs = random_channel_set(rng, k=2)
        with pytest.raises(ValueError):
            cb.build_single_irs_baseline_A1(chs)

    def test_a2_rank_requests(self):
        scn = cb.SystemScenario(n_bs=40, m1=16, m2=16, n_users=5)
        base = cb.build_single_irs_baseline_A2(scn, rank_g=2, rank_u=5, rng=np.random.default_rng(4))
        assert cb.numerical_rank(base.g2) == 2
        assert cb.numerical_rank(base.u2) == 5  # geographically separated users

    def test_a2_full_rank_request(self):
        scn = cb.SystemScenario(n_bs=4, m1=3, m2=3, n_users=2)
        base = cb.build_single_irs_baseline_A2(scn, rank_g=4, rank_u=2, rng=np.random.default_rng(5))
        assert cb.numerical_rank(base.g2) == 4

    def test_a2_infeasible_rank_rejected(self):
        scn = cb.SystemScenario(n_bs=4, m1=3, m2=3, n_users=2)
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            cb.build_single_irs_baseline_A2(scn, rank_g=7, rank_u=2, rng=rng)
        with pytest.raises(ValueError):
            cb.build_single_irs_baseline_A2(scn, rank_g=2, rank_u=3, rng=rng)


class TestReflectPattern:
    def test_unit_modulus_enforced(self):
        with pytest.raises(ValueError):
            cb.ReflectPattern(np.array([1.0 + 0j, 0.5]), np.ones(2, dtype=complex))

    def test_theta_is_concatenation(self, rng):
        pat = cb.ReflectPattern.random(3, 4, rng)
        assert np.array_equal(pat.theta, np.concatenate([pat.theta1, pat.theta2]))

    @given(seed=st.integers(0, 10_000))
    def test_random_patterns_unit_modulus(self, seed):
        pat = cb.ReflectPattern.random(5, 5, np.random.default_rng(seed))
        assert np.allclose(np.abs(pat.theta), 1.0, atol=1e-12)


class TestSerialization:
    def test_scenario_json_roundtrip(self):
        # the dict form is what spec scenario overrides go through
        scn = cb.SystemScenario(n_bs=7, m1=5, m2=3, n_users=2)
        back = cb.SystemScenario.from_dict(json.loads(json.dumps(scn.to_dict())))
        assert back == scn
