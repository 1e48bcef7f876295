"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Shared heavy computations live in module-scoped fixtures so
the monotonicity criterion can inspect the traces of the other suites."""

import math
import time

import numpy as np
import pytest

import coopbeam as cb
from coopbeam.experiments import mu_scenario, su_scenario
from coopbeam.sdp import _homogenized
from conftest import explicit_su_terms, random_channel_set, zf_min_sinr_formula

RESULTS = {}


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


def _su_trace_monotone(trace):
    trace = np.asarray(trace)
    scale = max(float(trace.max()), 1.0)
    return bool(np.all(np.diff(trace) >= -1e-10 * scale))


# ---------------------------------------------------------------------------
# shared heavy suites


@pytest.fixture(scope="module")
def prop1_suite():
    """200 A1-paired single-user draws with mixed Rician factors."""
    t0 = time.perf_counter()
    violations = 0
    worst_margin = np.inf
    traces_ok = True
    for i in range(200):
        kappa = (-10.0, 0.0, 10.0)[i % 3]
        scn = su_scenario(kappa_far_db=kappa, m1=16, m2=16, n_bs=5)
        rng = np.random.default_rng(10_000 + i)
        chs = cb.build_double_irs_scenario(scn, rng)
        ctx = cb.SinrContext.from_scenario(scn)
        base = cb.build_single_irs_baseline_A1(chs)
        base_best = cb.single_irs_opt(base, ctx, restarts=20, rng=rng)
        init = cb.init_from_single_irs(chs, base_best)
        state, _ = cb.ao_single_user(chs, ctx, init, max_iters=100)
        margin = state.snr / base_best.snr - 1.0
        worst_margin = min(worst_margin, margin)
        violations += margin < -1e-9
        traces_ok &= _su_trace_monotone(state.trace)
    out = {
        "violations": violations,
        "worst_margin": worst_margin,
        "traces_ok": traces_ok,
        "runtime": time.perf_counter() - t0,
    }
    RESULTS["prop1"] = out
    return out


@pytest.fixture(scope="module")
def saturation_suite():
    """20 multi-user draws: reflect patterns optimized at 20 dBm, min SINR
    under MMSE evaluated at 20 and 30 dBm for both systems."""
    t0 = time.perf_counter()
    sinr = {("double", 20): [], ("double", 30): [], ("single", 20): [], ("single", 30): []}
    sdr_records = []
    traces_ok = True
    for i in range(20):
        scn = mu_scenario(k_users=5, power_dbm=20.0)
        ctx20 = cb.SinrContext.from_scenario(scn)
        ctx30 = cb.SinrContext(cb.dbm_to_watt(30.0) * np.ones(5), scn.noise_w)
        rng_ch = np.random.default_rng(20_000 + i)
        chs = cb.build_double_irs_scenario(scn, rng_ch)
        base = cb.build_single_irs_baseline_A2(scn, rank_g=2, rank_u=5, rng=rng_ch)
        rng = np.random.default_rng(21_000 + i)
        for name, target in (("double", chs), ("single", base)):
            found = cb.dft_codebook_search(target, ctx20, rx_mode="mmse")
            state, _ = cb.algorithm1(
                target, ctx20, init=found, max_iters=4, rx_mode="mmse",
                eps=0.1, n_rand=100, rng=rng,
            )
            sdr_records.extend(state.sdr_records)
            traces_ok &= all(b >= a for a, b in zip(state.trace, state.trace[1:]))
            h = cb.effective_channel(target, state.pattern())
            for ctx, p in ((ctx20, 20), (ctx30, 30)):
                w = cb.mmse_receivers(h, ctx.powers, ctx.noise)
                sinr[(name, p)].append(float(cb.sinr_per_user(h, w, ctx).min()))
    out = {
        "sinr": {k: float(np.mean(v)) for k, v in sinr.items()},
        "sdr_records": sdr_records,
        "eps": 0.1,
        "traces_ok": traces_ok,
        "runtime": time.perf_counter() - t0,
    }
    RESULTS["saturation"] = out
    return out


def _tiny_grid_optimum(chs, power, noise, points=16):
    """Independent oracle: exhaustive 16^4 phase grid with per-user optimal
    (MMSE-direction) receivers evaluated in closed form for K = 2, N = 2."""
    ph = np.exp(2j * np.pi * np.arange(points) / points)
    t2 = np.stack(np.meshgrid(ph, ph, indexing="ij"), -1).reshape(-1, 2)
    t1 = t2.copy()
    h = []  # h[k][c, d] = G2 diag(t2[c]) (D diag(t1[d]) u1_k + u2_k) + G1 diag(t1[d]) u1_k
    for k in range(2):
        x1 = t1 * chs.u1[:, k]                   # (d, M1)
        inner = x1 @ chs.d.T + chs.u2[:, k]      # (d, M2)
        hk = np.einsum("np,cp,dp->cdn", chs.g2, t2, inner)
        hk += (x1 @ chs.g1.T)[None, :, :]
        h.append(hk)
    n11 = np.sum(np.abs(h[0]) ** 2, -1)
    n22 = np.sum(np.abs(h[1]) ** 2, -1)
    cross = np.abs(np.einsum("cdn,cdn->cd", h[0].conj(), h[1])) ** 2
    g1 = (power / noise) * (n11 - power * cross / (noise + power * n22))
    g2 = (power / noise) * (n22 - power * cross / (noise + power * n11))
    return float(np.minimum(g1, g2).max())


@pytest.fixture(scope="module")
def tiny_suite():
    """50 tiny instances: continuous optimizer (best of 6 starts) vs the
    exhaustive 16-point phase grid."""
    t0 = time.perf_counter()
    wins = 0
    ratios = []
    sdr_records = []  # (delta_star, achieved, eps)
    traces_ok = True
    for s in range(50):
        scn = mu_scenario(
            k_users=2, n_bs=2, m1=2, m2=2, power_dbm=10.0,
            paths_g2=2, paths_g1=2, paths_d=2, paths_user=2,
        )
        rng = np.random.default_rng(30_000 + s)
        chs = cb.build_double_irs_scenario(scn, rng)
        ctx = cb.SinrContext.from_scenario(scn)
        grid_opt = _tiny_grid_optimum(chs, ctx.powers[0], ctx.noise)
        eps = max(grid_opt * 2e-3, 1e-9)
        best = 0.0
        for r in range(6):
            if r == 0:
                init = cb.dft_codebook_search(chs, ctx, rx_mode="mmse")
            else:
                pat = cb.ReflectPattern.random(2, 2, rng)
                h = cb.effective_channel(chs, pat)
                w0 = cb.mmse_receivers(h, ctx.powers, ctx.noise)
                init = cb.MuSolveState(pat.theta1, pat.theta2, w0)
            state, _ = cb.algorithm1(
                chs, ctx, init=init, max_iters=4, rx_mode="mmse",
                eps=eps, n_rand=100, rng=rng,
            )
            best = max(best, state.min_sinr)
            sdr_records.extend((d, a, eps) for d, a in state.sdr_records)
            traces_ok &= all(b >= a for a, b in zip(state.trace, state.trace[1:]))
        ratios.append(best / grid_opt)
        wins += best >= 0.9 * grid_opt
    out = {
        "wins": wins,
        "ratios": ratios,
        "sdr_records": sdr_records,
        "traces_ok": traces_ok,
        "runtime": time.perf_counter() - t0,
    }
    RESULTS["tiny"] = out
    return out


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_initialization_dominates_baseline(prop1_suite, capsys):
    """AO seeded from the single-IRS optimum never loses to it (200 draws)."""
    ok = prop1_suite["violations"] == 0 and prop1_suite["runtime"] < 60.0
    _report(
        capsys, 1, ok,
        f"{prop1_suite['violations']}/200 violations, worst margin "
        f"{prop1_suite['worst_margin']:.2e}, runtime {prop1_suite['runtime']:.1f}s (< 60s)",
    )
    assert prop1_suite["violations"] == 0
    assert prop1_suite["runtime"] < 60.0


def test_criterion_2_closed_forms_beat_phase_grid(capsys):
    """Closed-form updates match/beat an exhaustive 64-point phase grid."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    phases = 2 * np.pi * np.arange(64) / 64
    grids = np.meshgrid(*([phases] * 3), indexing="ij")
    combos = np.exp(1j * np.stack([g.ravel() for g in grids], axis=1))
    failures = 0
    for block in (2, 1):
        for _ in range(50):
            chs = random_channel_set(rng, n=2, m1=3, m2=3, k=1)
            other = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            w = w / np.linalg.norm(w)
            theta = cb.opt_theta_closed_form(chs, block, other, w)
            vec, ref = explicit_su_terms(chs, block, other, w)
            closed = abs(np.vdot(vec, theta) + ref) ** 2
            grid_max = float((np.abs(combos @ vec.conj() + ref) ** 2).max())
            slack = 2.0 * (np.abs(vec).sum() + abs(ref)) * np.abs(vec).sum() * (np.pi / 64)
            failures += closed < grid_max - slack
    runtime = time.perf_counter() - t0
    ok = failures == 0 and runtime < 60.0
    _report(capsys, 2, ok, f"{failures}/100 grid-oracle failures, runtime {runtime:.1f}s (< 60s)")
    assert failures == 0
    assert runtime < 60.0


def test_criterion_3_power_scaling_on_doubling(capsys):
    """Doubling the subsurface budget gains ~4 bits (double) vs ~2 (single)."""
    t0 = time.perf_counter()
    rates = {}
    for m in (32, 64):
        dd, ss = [], []
        for i in range(50):
            scn = su_scenario(kappa_far_db=10.0, m1=m // 2, m2=m // 2)
            rng = np.random.default_rng(40_000 + i)
            chs = cb.build_double_irs_scenario(scn, rng)
            ctx = cb.SinrContext.from_scenario(scn)
            base = cb.build_single_irs_baseline_A1(chs)
            base_best = cb.single_irs_opt(base, ctx, restarts=20, rng=rng)
            init = cb.init_from_single_irs(chs, base_best)
            state, _ = cb.ao_single_user(chs, ctx, init)
            dd.append(cb.max_min_rate([state.snr]))
            ss.append(cb.max_min_rate([base_best.snr]))
        rates[m] = (float(np.mean(dd)), float(np.mean(ss)))
    gain_double = rates[64][0] - rates[32][0]
    gain_single = rates[64][1] - rates[32][1]
    runtime = time.perf_counter() - t0
    ok = abs(gain_double - 4.0) <= 0.7 and abs(gain_single - 2.0) <= 0.7 and runtime < 300.0
    _report(
        capsys, 3, ok,
        f"doubling M 32->64: double {gain_double:.2f} bits (4 +- 0.7), "
        f"single {gain_single:.2f} bits (2 +- 0.7), runtime {runtime:.1f}s (< 300s)",
    )
    assert abs(gain_double - 4.0) <= 0.7
    assert abs(gain_single - 2.0) <= 0.7
    assert runtime < 300.0


def test_criterion_4_rank_reproduction(capsys):
    """rank(H) = 5 and rank(Hbar) = 2 on at least 95% of 100 draws."""
    t0 = time.perf_counter()
    ok_h = ok_hbar = 0
    for i in range(100):
        scn = mu_scenario(k_users=5)
        rng = np.random.default_rng(50_000 + i)
        chs = cb.build_double_irs_scenario(scn, rng)
        base = cb.build_single_irs_baseline_A2(scn, rank_g=2, rank_u=5, rng=rng)
        rep = cb.rank_gain_report(chs, base, rng=rng)
        ok_h += rep.rank_h == 5
        ok_hbar += rep.rank_hbar == 2
    runtime = time.perf_counter() - t0
    ok = ok_h >= 95 and ok_hbar >= 95 and runtime < 60.0
    _report(
        capsys, 4, ok,
        f"rank(H)=5 on {ok_h}/100, rank(Hbar)=2 on {ok_hbar}/100, "
        f"runtime {runtime:.1f}s (< 60s)",
    )
    assert ok_h >= 95 and ok_hbar >= 95
    assert runtime < 60.0


def test_criterion_5_maxmin_saturation(saturation_suite, capsys):
    """Single-IRS min SINR saturates (< 5% growth 20->30 dBm) while the
    double-IRS optimized min SINR grows by more than 50%."""
    s = saturation_suite["sinr"]
    growth_single = s[("single", 30)] / s[("single", 20)] - 1.0
    growth_double = s[("double", 30)] / s[("double", 20)] - 1.0
    runtime = saturation_suite["runtime"]
    ok = growth_single < 0.05 and growth_double > 0.5 and runtime < 900.0
    _report(
        capsys, 5, ok,
        f"single growth {100 * growth_single:.2f}% (< 5%), "
        f"double growth {100 * growth_double:.0f}% (> 50%), runtime {runtime:.0f}s (< 900s)",
    )
    assert growth_single < 0.05
    assert growth_double > 0.5
    assert runtime < 900.0


def test_criterion_6_sdr_machinery(saturation_suite, tiny_suite, capsys):
    """Homogenization identity, analytic bisection boundary, and relaxation
    dominance on every SDP solved by the other suites."""
    rng = np.random.default_rng(333)
    ident_failures = 0
    for _ in range(1000):
        k, m = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        q = rng.standard_normal((k, k, m)) + 1j * rng.standard_normal((k, k, m))
        qb = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        inst = cb.MaxMinSdpInstance(q, qb, np.ones(k))
        tt = np.exp(1j * rng.uniform(0, 2 * np.pi, m + 1))
        a, b = int(rng.integers(0, k)), int(rng.integers(0, k))
        b_ab = _homogenized(inst.q[a, b], inst.qbar[a, b])
        lhs = np.real(tt.conj() @ b_ab @ tt) + abs(inst.qbar[a, b]) ** 2
        rec = np.conj(tt[-1]) * tt[:-1]
        rhs = abs(inst.q[a, b].conj() @ rec + inst.qbar[a, b]) ** 2
        ident_failures += abs(lhs - rhs) > 1e-10 * max(rhs, 1.0)

    boundary_failures = 0
    for _ in range(10):
        qv = rng.standard_normal() + 1j * rng.standard_normal()
        qbv = rng.standard_normal() + 1j * rng.standard_normal()
        noise = abs(rng.standard_normal()) + 0.1
        inst = cb.MaxMinSdpInstance(
            qv * np.ones((1, 1, 1)), qbv * np.ones((1, 1)), np.array([noise])
        )
        true_opt = (abs(qv) + abs(qbv)) ** 2 / noise
        eps = 1e-4 * true_opt
        res = cb.bisection_maxmin(inst, np.ones(inst.dim), 2 * true_opt, eps=eps)
        boundary_failures += abs(res.delta_star - true_opt) > eps + 1e-6 * true_opt

    dominance_failures = 0
    checked = 0
    for delta_star, achieved in saturation_suite["sdr_records"]:
        checked += 1
        dominance_failures += achieved > delta_star + saturation_suite["eps"] + 1e-6 * max(
            delta_star, 1.0
        )
    for delta_star, achieved, eps in tiny_suite["sdr_records"]:
        checked += 1
        dominance_failures += achieved > delta_star + eps + 1e-6 * max(delta_star, 1.0)

    ok = ident_failures == 0 and boundary_failures == 0 and dominance_failures == 0
    _report(
        capsys, 6, ok,
        f"homogenization {1000 - ident_failures}/1000, analytic bisection "
        f"{10 - boundary_failures}/10, relaxation dominance on {checked - dominance_failures}"
        f"/{checked} solved instances",
    )
    assert ident_failures == 0
    assert boundary_failures == 0
    assert dominance_failures == 0


def test_criterion_7_tiny_instance_oracle(tiny_suite, capsys):
    """Continuous optimizer reaches >= 0.9x the exhaustive 16^4 grid optimum
    on at least 90% of 50 seeds."""
    wins = tiny_suite["wins"]
    runtime = tiny_suite["runtime"]
    ok = wins >= 45 and runtime < 300.0
    _report(
        capsys, 7, ok,
        f"{wins}/50 seeds at >= 0.9x grid optimum (min ratio "
        f"{min(tiny_suite['ratios']):.3f}), runtime {runtime:.0f}s (< 300s)",
    )
    assert wins >= 45
    assert runtime < 300.0


def test_criterion_8_receiver_identities(capsys):
    """ZF zero-interference, closed-form min SINR agreement, and MMSE
    per-user dominance on 100 random full-rank instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(888)
    zf_fail = formula_fail = dom_fail = 0
    for _ in range(100):
        n, k = 6, 3
        h = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        powers = rng.uniform(0.5, 2.0)
        ctx = cb.SinrContext(np.full(k, powers), 0.7)
        wz = cb.zf_receivers(h, ctx.powers)
        ident = wz.conj().T @ h - np.diag(1 / np.sqrt(ctx.powers))
        zf_fail += np.max(np.abs(ident)) > 1e-9
        lam = zf_min_sinr_formula(h, powers, 0.7)
        pipe = float(cb.sinr_per_user(h, wz, ctx).min())
        formula_fail += abs(lam - pipe) > 1e-8 * max(lam, 1e-30)
        gm = cb.sinr_per_user(h, cb.mmse_receivers(h, ctx.powers, ctx.noise), ctx)
        gz = cb.sinr_per_user(h, wz, ctx)
        dom_fail += not np.all(gm >= gz - 1e-10 * np.maximum(gz, 1.0))
        for _ in range(100):
            w = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            gr = cb.sinr_per_user(h, w, ctx)
            if not np.all(gm >= gr - 1e-10 * np.maximum(gr, 1.0)):
                dom_fail += 1
                break
    runtime = time.perf_counter() - t0
    ok = zf_fail == formula_fail == dom_fail == 0 and runtime < 60.0
    _report(
        capsys, 8, ok,
        f"ZF identity {100 - zf_fail}/100, formula {100 - formula_fail}/100, "
        f"MMSE dominance {100 - dom_fail}/100, runtime {runtime:.1f}s (< 60s)",
    )
    assert zf_fail == 0 and formula_fail == 0 and dom_fail == 0
    assert runtime < 60.0


def test_criterion_9_objective_monotonicity(prop1_suite, saturation_suite, tiny_suite, capsys):
    """Objective traces never decrease: exactly for the multi-user optimizer
    (acceptance rule), within float noise of the objective scale for the
    closed-form single-user updates."""
    ok = (
        prop1_suite["traces_ok"]
        and saturation_suite["traces_ok"]
        and tiny_suite["traces_ok"]
    )
    _report(
        capsys, 9, ok,
        "monotone traces in suites 1 (200 runs), 5 (40 runs), 7 (300 runs): "
        + ("all non-decreasing" if ok else "violation found"),
    )
    assert prop1_suite["traces_ok"]
    assert saturation_suite["traces_ok"]
    assert tiny_suite["traces_ok"]
