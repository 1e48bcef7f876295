"""Link synthesis, cascaded channels, and baseline construction."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coopbeam as cb
from coopbeam.channels import LINK_NAMES, ura_shape
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
        a = cb.array_response("ula", 1, (0.7, -0.3))
        assert a.shape == (1,)
        assert a[0] == 1.0

    def test_broadside_ula_all_ones(self):
        a = cb.array_response("ula", 4, (0.0, 0.0), spacing=0.5)
        assert np.allclose(a, np.ones(4))

    def test_ura_matches_elementwise_phase_oracle(self):
        # brute force: phase of element (r, c) is 2*pi*s*(c*uh + r*uv)
        az, el = math.pi / 4, math.pi / 4
        s = 0.5
        a = cb.array_response("ura", (2, 2), (az, el), spacing=s)
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
        horiz = cb.array_response("ula", 2, (az, el), spacing=s)
        vert = np.exp(2j * math.pi * s * np.arange(2) * uv)
        assert np.allclose(a, np.kron(vert, horiz), atol=1e-12)

    @given(az=st.floats(-np.pi, np.pi), el=st.floats(-np.pi / 2, np.pi / 2))
    def test_unit_modulus_and_reference_entry(self, az, el):
        a = cb.array_response("ura", (2, 3), (az, el))
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
        return cb.array_response("ula", n, (rng.uniform(-np.pi / 2, np.pi / 2), 0.0))

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
        scn = cb.SystemScenario(n_bs=3, m1=4, m2=4, n_users=2, seed=99)
        a = cb.build_double_irs_scenario(scn)
        b = cb.build_double_irs_scenario(scn)
        for name in LINK_NAMES:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_m1_zero_degenerates_to_single_reflection(self):
        scn = cb.SystemScenario(n_bs=3, m1=0, m2=5, n_users=1, seed=1)
        chs = cb.build_double_irs_scenario(scn)
        assert chs.u1.shape == (0, 1) and chs.g1.shape == (3, 0) and chs.d.shape == (5, 0)
        pat = cb.ReflectPattern.random(0, 5, np.random.default_rng(0))
        h = cb.effective_channel(chs, pat)
        assert np.allclose(h[:, 0], chs.g2 @ (pat.theta2 * chs.u2[:, 0]))

    def test_coincident_nodes_rejected(self):
        scn = cb.SystemScenario(pos_irs1=(1.0, 0.0, 2.0), pos_bs=(1.0, 0.0, 2.0))
        with pytest.raises(ValueError):
            cb.build_double_irs_scenario(scn)

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


class TestBaselines:
    def test_a1_concatenation_columns(self, small_su_channels):
        chs = small_su_channels
        base = cb.build_single_irs_baseline_A1(chs)
        assert np.array_equal(base.u2, np.ones((chs.m1 + chs.m2, 1)))
        assert np.array_equal(base.g2[:, : chs.m1], chs.g1 * chs.u1[:, 0])
        assert np.array_equal(base.g2[:, chs.m1 :], chs.g2 * chs.u2[:, 0])

    def test_a1_m1_zero_is_r2(self):
        scn = cb.SystemScenario(n_bs=3, m1=0, m2=5, n_users=1, seed=2)
        chs = cb.build_double_irs_scenario(scn)
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
        scn = cb.SystemScenario(n_bs=40, m1=16, m2=16, n_users=5, seed=4)
        base = cb.build_single_irs_baseline_A2(scn, rank_g=2, rank_u=5)
        assert cb.numerical_rank(base.g2) == 2
        assert cb.numerical_rank(base.u2) == 5  # geographically separated users

    def test_a2_full_rank_request(self):
        scn = cb.SystemScenario(n_bs=4, m1=3, m2=3, n_users=2, seed=5)
        base = cb.build_single_irs_baseline_A2(scn, rank_g=4, rank_u=2)
        assert cb.numerical_rank(base.g2) == 4

    def test_a2_infeasible_rank_rejected(self):
        scn = cb.SystemScenario(n_bs=4, m1=3, m2=3, n_users=2, seed=5)
        with pytest.raises(ValueError):
            cb.build_single_irs_baseline_A2(scn, rank_g=7, rank_u=2)
        with pytest.raises(ValueError):
            cb.build_single_irs_baseline_A2(scn, rank_g=2, rank_u=3)


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
        scn = cb.SystemScenario(n_bs=7, m1=5, m2=3, n_users=2, seed=123)
        back = cb.SystemScenario.from_dict(json.loads(json.dumps(scn.to_dict())))
        assert back == scn
