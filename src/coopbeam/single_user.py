"""Single-user joint beamforming: closed-form alternating optimization (AO),
the single-IRS baseline optimizer, and the baseline-derived initialization
that provably matches or beats the baseline SNR.

`_ao` is the one AO loop.  It runs R starts at once as w (R, N), theta1 (R, M1)
and theta2 (R, M2), composing the channel once per sub-step with
`ChannelSet.compose` and taking the MRC receiver (`multi_user.mrc_receivers`)
and the SNR from it; a zero channel gets a unit receiver and SNR 0.
`ao_single_user` is its R = 1 case.  `single_irs_opt` draws its R starts with
`_random_starts` and keeps the first best restart.
The single-user SDR benchmark is `multi_user.algorithm1` with K = 1 and MRC."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelSet, ReflectPattern, dehomogenize
from .metrics import SinrContext, effective_channel
from .multi_user import mrc_receivers
from .reports import SolveReport

AO_TOL = 1e-8  # relative SNR gain of a full AO cycle below which it stops


@dataclass
class SuSolveState:
    """Iterate of the single-user optimizer (unit-norm w, unit-modulus thetas)."""

    w: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    snr: float = 0.0
    iteration: int = 0
    trace: list = field(default_factory=list)  # objective after every sub-step
    converged: bool = False

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=complex).reshape(-1)
        self.theta1 = np.asarray(self.theta1, dtype=complex).reshape(-1)
        self.theta2 = np.asarray(self.theta2, dtype=complex).reshape(-1)
        if not abs(np.linalg.norm(self.w) - 1.0) <= 2e-9:  # np.isclose(., 1, rtol=atol=1e-9)
            raise ValueError("receive vector must be unit norm")

    def pattern(self):
        return ReflectPattern(self.theta1, self.theta2)


def _require_single_user(chs: ChannelSet):
    if chs.n_users != 1:
        raise ValueError("single-user operation called on a multi-user channel set")


def _snr(ctx: SinrContext, w, h):
    """P |w^H h|^2 / (noise ||w||^2) of receivers w (..., N) on channels h (..., N, 1)."""
    wh = (w.conj()[..., None, :] @ h)[..., 0, 0]
    return ctx.powers[0] * np.abs(wh) ** 2 / (ctx.noise * (w.conj() * w).real.sum(axis=-1))


def snr_value(chs: ChannelSet, w, theta1, theta2, ctx: SinrContext):
    """P |w^H h|^2 / (noise ||w||^2) for the single user."""
    _require_single_user(chs)
    return float(_snr(ctx, np.asarray(w, dtype=complex), chs.compose(theta1, theta2)))


def opt_theta_closed_form(chs: ChannelSet, block, theta_other, w):
    """Globally optimal theta_block for the other IRS and w fixed.

    With h = A~ [theta_block; 1] (`ChannelSet.affine`), w^H h = x^H [theta_block; 1]
    for x = A~^H w.  Aligning every term with the last one (phase 0 when it
    vanishes) attains the triangle-inequality upper bound: theta_block =
    `dehomogenize`(x).  Leading batch axes of theta_other and w (..., N) give one
    theta_block per entry.
    """
    _require_single_user(chs)
    w = np.asarray(w, dtype=complex)
    if w.shape[-1] != chs.n_bs:
        raise ValueError("dimension mismatch")
    a = chs.affine(block, theta_other)[..., 0, :, :]
    return dehomogenize((a.conj().swapaxes(-1, -2) @ w[..., None])[..., 0])


def _random_starts(chs: ChannelSet, rng, restarts):
    """`restarts` random starts as arrays w (R, N), theta1 (R, M1), theta2 (R, M2).

    Each start draws its uniform phases (M1 + M2), as `ReflectPattern.random`
    does, then the real and the imaginary part of w (N each)."""
    theta = np.empty((restarts, chs.m1 + chs.m2), dtype=complex)
    w = np.empty((restarts, chs.n_bs), dtype=complex)
    for r in range(restarts):
        theta[r] = np.exp(1j * rng.uniform(0.0, 2 * math.pi, chs.m1 + chs.m2))
        w[r] = rng.standard_normal(chs.n_bs) + 1j * rng.standard_normal(chs.n_bs)
        w[r] /= np.linalg.norm(w[r])
    return w, theta[:, : chs.m1], theta[:, chs.m1 :]


def _ao(chs: ChannelSet, ctx: SinrContext, w, t1, t2, max_iters):
    """Run the AO from the R starts w (R, N), t1 (R, M1), t2 (R, M2) at once and return the best.

    Each cycle gives every running restart the closed-form theta2, then theta1,
    then MRC, so each follows its own trajectory.  A restart stops, frozen, once
    a cycle raises its SNR by at most AO_TOL relative, or after `max_iters`.  The
    best final SNR wins (the first restart on a tie); its trace has the SNR
    after every sub-step, 3 * iteration + 1 entries."""
    w, t1, t2 = (np.array(x, dtype=complex) for x in (w, t1, t2))  # the caller's stay as they are
    trace = np.empty((3 * max_iters + 1, len(w)))  # row 3i: after cycle i
    trace[0] = _snr(ctx, w, chs.compose(t1, t2))
    iters = np.full(len(w), max_iters)
    converged = np.zeros(len(w), dtype=bool)
    run, rw, r1, r2 = np.arange(len(w)), w, t1, t2  # the restarts still running
    for it in range(1, max_iters + 1):
        r2 = opt_theta_closed_form(chs, 2, r1, rw)
        h = chs.compose(r1, r2)
        trace[3 * it - 2, run] = _snr(ctx, rw, h)
        if chs.m1:  # a single-IRS baseline (m1 = 0) has no theta1 to update
            r1 = opt_theta_closed_form(chs, 1, r2, rw)
            h = chs.compose(r1, r2)
        trace[3 * it - 1, run] = _snr(ctx, rw, h)
        rw = mrc_receivers(h)[..., 0]
        trace[3 * it, run] = snr = _snr(ctx, rw, h)
        prev = trace[3 * it - 3, run]
        done = snr - prev <= AO_TOL * np.maximum(prev, 1e-300)
        if done.any():
            end = run[done]
            w[end], t1[end], t2[end], iters[end], converged[end] = rw[done], r1[done], r2[done], it, True
            run, rw, r1, r2 = run[~done], rw[~done], r1[~done], r2[~done]
            if not run.size:
                break
    w[run], t1[run], t2[run] = rw, r1, r2
    r = int(np.argmax(trace[3 * iters, np.arange(len(w))]))
    trace = trace[: 3 * iters[r] + 1, r].tolist()
    return SuSolveState(w[r], t1[r], t2[r], snr=trace[-1], iteration=int(iters[r]),
                        trace=trace, converged=bool(converged[r]))


def ao_single_user(chs: ChannelSet, ctx: SinrContext, init: SuSolveState, max_iters=100):
    """Alternate the closed-form theta2, theta1 and MRC updates from `init`: `_ao` with R = 1.

    Every sub-step is a global optimum of its block, so the SNR trace is non-decreasing.
    Stops as `_ao` says.  Returns (SuSolveState, SolveReport)."""
    _require_single_user(chs)
    state = _ao(chs, ctx, init.w[None], init.theta1[None], init.theta2[None], max_iters)
    return state, SolveReport(objective=state.snr, trace=state.trace,
                              converged=state.converged, iterations=state.iteration)


def single_irs_opt(baseline: ChannelSet, ctx: SinrContext, rng, restarts=20, max_iters=100):
    """Best single-IRS solution found by multi-start alternating optimization.

    The baseline is a ChannelSet with m1 = 0, so each restart alternates the
    phase-alignment update theta = exp(j angle(Rbar^H w)) with MRC.  The starts
    are drawn one after another from the generator `rng` by `_random_starts`, then
    all run through `_ao` together.  Returns the best restart's SuSolveState, the
    first one on a tie."""
    _require_single_user(baseline)
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    return _ao(baseline, ctx, *_random_starts(baseline, rng, restarts), max_iters)


def init_from_single_irs(chs: ChannelSet, baseline_state: SuSolveState) -> SuSolveState:
    """Seed the double-IRS optimizer from a single-IRS solution.

    Splits the baseline's reflect vector across the two IRSs and applies the
    common phase shift that aligns the double-reflection term with the
    single-reflection sum, so the starting SNR is at least the baseline SNR
    (equal exactly when the double-reflection term vanishes; phase 0 is used
    then).  Assumes the baseline is the [R1, R2]-concatenation pair of `chs`.
    """
    _require_single_user(chs)
    theta_star = baseline_state.pattern().theta
    if theta_star.size != chs.m1 + chs.m2:
        raise ValueError("baseline solution does not match the channel split")
    w = baseline_state.w
    part1, part2 = theta_star[: chs.m1], theta_star[chs.m1 :]
    h = effective_channel(chs, ReflectPattern(part1, part2))[:, 0]
    a1 = np.vdot(w, chs.g2 @ (part2 * (chs.d @ (part1 * chs.u1[:, 0]))))  # w^H G2 Phi2 D Phi1 u1
    a2 = np.vdot(w, h) - a1
    phi = np.angle(a2 / a1) if np.abs(a1) > 0 else 0.0
    rot = np.exp(1j * phi)
    return SuSolveState(w, rot * part1, rot * part2)

