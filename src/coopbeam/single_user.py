"""Single-user joint beamforming: closed-form alternating optimization,
the single-IRS baseline optimizer, and the baseline-derived initialization
that provably matches or beats the baseline SNR.

The single-user SDR benchmark is `multi_user.algorithm1` with K = 1 and MRC
receivers; this module needs no SDP machinery."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelSet, ReflectPattern
from .metrics import SinrContext, effective_channel
from .reports import SolveReport


class DegenerateChannelError(ValueError):
    """Raised when the effective channel vanishes and MRC is undefined."""


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
        nrm = np.linalg.norm(self.w)
        if not np.isclose(nrm, 1.0, rtol=1e-9, atol=1e-9):
            raise ValueError("receive vector must be unit norm")

    def pattern(self):
        return ReflectPattern(self.theta1, self.theta2)


def _require_single_user(chs: ChannelSet):
    if chs.n_users != 1:
        raise ValueError("single-user operation called on a multi-user channel set")


def _channel_vector(chs, theta1, theta2):
    x1 = theta1 * chs.u1[:, 0]
    return chs.g2 @ (theta2 * (chs.d @ x1 + chs.u2[:, 0])) + chs.g1 @ x1


def snr_value(chs: ChannelSet, w, theta1, theta2, ctx: SinrContext):
    """P |w^H h|^2 / (noise ||w||^2) for the single user."""
    _require_single_user(chs)
    h = _channel_vector(chs, np.asarray(theta1, complex), np.asarray(theta2, complex))
    w = np.asarray(w, dtype=complex)
    return float(ctx.powers[0] * np.abs(np.vdot(w, h)) ** 2 / (ctx.noise * np.vdot(w, w).real))


def opt_theta_closed_form(chs: ChannelSet, block, theta_other, w):
    """Globally optimal theta_block for the other IRS and w fixed.

    With h = A theta_block + c (`ChannelSet.affine`), w^H h = (A^H w)^H theta_block
    + w^H c.  Aligning every term of the first part with the reference w^H c
    (phase 0 when it vanishes) attains the triangle-inequality upper bound:
    theta_block = exp(j(angle(w^H c) + angle(A^H w))).
    """
    _require_single_user(chs)
    w = np.asarray(w, dtype=complex)
    if w.size != chs.n_bs:
        raise ValueError("dimension mismatch")
    a, c = chs.affine(block, theta_other)
    return np.exp(1j * (np.angle(np.vdot(w, c[:, 0])) + np.angle(a[0].conj().T @ w)))


def mrc_receive(chs: ChannelSet, theta1, theta2):
    """Optimal (maximum-ratio combining) unit-norm receive vector w = h/||h||."""
    _require_single_user(chs)
    h = _channel_vector(chs, np.asarray(theta1, complex), np.asarray(theta2, complex))
    nrm = np.linalg.norm(h)
    if nrm == 0:
        raise DegenerateChannelError("effective channel is zero")
    return h / nrm


def random_init(chs: ChannelSet, rng) -> SuSolveState:
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    pat = ReflectPattern.random(chs.m1, chs.m2, rng)
    w = rng.standard_normal(chs.n_bs) + 1j * rng.standard_normal(chs.n_bs)
    return SuSolveState(w / np.linalg.norm(w), pat.theta1, pat.theta2)


def ao_single_user(
    chs: ChannelSet, ctx: SinrContext, init: SuSolveState, max_iters=100, tol=1e-8
):
    """Alternate the closed-form theta2, theta1 and MRC updates.

    Every sub-step is a global optimum of its block, so the SNR trace is
    non-decreasing; stops when the relative gain of a full cycle falls below
    `tol` or after `max_iters` iterations.  Returns (SuSolveState, SolveReport).
    """
    _require_single_user(chs)
    w = init.w.copy()
    t1, t2 = init.theta1.copy(), init.theta2.copy()
    trace = [snr_value(chs, w, t1, t2, ctx)]
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        prev = trace[-1]
        t2 = opt_theta_closed_form(chs, 2, t1, w)
        trace.append(snr_value(chs, w, t1, t2, ctx))
        t1 = opt_theta_closed_form(chs, 1, t2, w)
        trace.append(snr_value(chs, w, t1, t2, ctx))
        try:
            w = mrc_receive(chs, t1, t2)
        except DegenerateChannelError:
            pass  # keep the previous receiver; objective is zero anyway
        trace.append(snr_value(chs, w, t1, t2, ctx))
        if trace[-1] - prev <= tol * max(prev, 1e-300):
            converged = True
            break
    state = SuSolveState(
        w, t1, t2, snr=trace[-1], iteration=it, trace=trace, converged=converged
    )
    report = SolveReport(
        objective=state.snr,
        trace=trace,
        converged=converged,
        iterations=it,
    )
    return state, report


def single_irs_opt(
    baseline: ChannelSet, ctx: SinrContext, restarts=20, max_iters=100, tol=1e-8, rng=None
):
    """Best single-IRS solution found by multi-start alternating optimization.

    The baseline is a ChannelSet with m1 = 0, so each restart alternates the
    phase-alignment update theta = exp(j angle(Rbar^H w)) with MRC.  Returns
    the best SuSolveState across `restarts` random initializations.
    """
    _require_single_user(baseline)
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    best = None
    for _ in range(restarts):
        state, _rep = ao_single_user(baseline, ctx, random_init(baseline, rng), max_iters, tol)
        if best is None or state.snr > best.snr:
            best = state
    return best


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
    eff = effective_channel(chs, ReflectPattern(part1, part2))
    a1 = np.vdot(w, eff.double_refl[:, 0])
    a2 = np.vdot(w, eff.single_refl[:, 0])
    phi = np.angle(a2 / a1) if np.abs(a1) > 0 else 0.0
    rot = np.exp(1j * phi)
    return SuSolveState(w, rot * part1, rot * part2)

