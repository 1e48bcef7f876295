"""Multi-user max-min SINR machinery: SDR subproblem builders, linear
receivers, the alternating SDR/bisection optimizer, and the DFT joint
codebook search benchmark.

`algorithm1` is the one alternating SDR driver: with K = 1 and
``rx_mode="mrc"`` it is the single-user SDR benchmark."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelSet, ReflectPattern
from .metrics import RankDeficiencyError, SinrContext, effective_channel, numerical_rank, sinr_per_user
from .sdp import (
    MaxMinSdpInstance,
    SdpSolverError,
    bisection_maxmin,
    gaussian_randomization,
    matched_filter_bound,
)
from .reports import SolveReport


@dataclass
class ReceiveBeamformers:
    """Per-user receive vectors stacked as the columns of W."""

    w: np.ndarray
    mode: str = "fixed"  # zf | mmse | mrc | fixed

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=complex)
        if self.w.ndim != 2:
            raise ValueError("W must be an N x K matrix")
        if np.any(np.sum(np.abs(self.w) ** 2, axis=0) == 0):
            raise ValueError("zero receive vector")


def zf_receivers(h, powers) -> ReceiveBeamformers:
    """Zero-forcing receivers W = H (P H^H H)^{-1} with P = diag(sqrt(P_k)).

    Requires full column rank; satisfies W^H H = P^{-1} so all cross-user
    interference vanishes.
    """
    h = np.asarray(h, dtype=complex)
    powers = np.atleast_1d(np.asarray(powers, dtype=float))
    k = h.shape[1]
    if numerical_rank(h) < k:
        raise RankDeficiencyError("ZF requires rank(H) = K")
    gram = h.conj().T @ h
    w = h @ np.linalg.inv(np.sqrt(powers)[:, None] * gram)
    return ReceiveBeamformers(w, "zf")


def mmse_receivers(h, powers, noise) -> ReceiveBeamformers:
    """MMSE receivers W = (H P P H^H + noise I)^{-1} H P (per-user optimal)."""
    h = np.asarray(h, dtype=complex)
    powers = np.atleast_1d(np.asarray(powers, dtype=float))
    if noise <= 0:
        raise ValueError("noise power must be positive")
    n = h.shape[0]
    cov = (h * powers[None, :]) @ h.conj().T + noise * np.eye(n)
    w = np.linalg.solve(cov, h * np.sqrt(powers)[None, :])
    return ReceiveBeamformers(w, "mmse")


def _receivers(h, ctx: SinrContext, mode):
    """Receiver factory with the documented ZF -> MMSE fallback."""
    substituted = False
    if mode == "mrc":
        rx = ReceiveBeamformers(h / np.linalg.norm(h, axis=0, keepdims=True), "mrc")
    elif mode == "zf":
        try:
            rx = zf_receivers(h, ctx.powers)
        except RankDeficiencyError:
            rx = mmse_receivers(h, ctx.powers, ctx.noise)
            substituted = True
    elif mode == "mmse":
        rx = mmse_receivers(h, ctx.powers, ctx.noise)
    else:
        raise ValueError(f"unknown receiver mode {mode!r}")
    return rx, substituted


def _build_instance(chs: ChannelSet, block, theta_other, w, powers, noise) -> MaxMinSdpInstance:
    """Subproblem data over theta_block for the other IRS fixed and receivers W.

    With h_j = A_j theta_block + c_j from `ChannelSet.affine`,
    q_{k,j} = sqrt(P_j) A_j^H w_k and qbar_{k,j} = sqrt(P_j) w_k^H c_j; plugging
    any unit-modulus theta_block into the instance reproduces the exact
    per-user SINRs.
    """
    w = np.asarray(w, dtype=complex)
    a, c = chs.affine(block, theta_other)
    if w.shape != (chs.n_bs, chs.n_users):
        raise ValueError("receive matrix does not match the channel set")
    sqrt_p = np.sqrt(np.atleast_1d(np.asarray(powers, dtype=float)))
    q = np.einsum("jnm,nk->kjm", a.conj(), w) * sqrt_p[None, :, None]
    qbar = (w.conj().T @ c) * sqrt_p[None, :]
    sig = noise * np.sum(np.abs(w) ** 2, axis=0)
    return MaxMinSdpInstance(q, qbar, sig)


def build_p31_instance(chs: ChannelSet, theta1, w, powers, noise) -> MaxMinSdpInstance:
    """(P3.1): subproblem over theta2 for fixed theta1 and receivers W."""
    return _build_instance(chs, 2, theta1, w, powers, noise)


def build_p34_instance(chs: ChannelSet, theta2, w, powers, noise) -> MaxMinSdpInstance:
    """(P3.4): subproblem over theta1 for fixed theta2 and receivers W."""
    return _build_instance(chs, 1, theta2, w, powers, noise)


def dft_codebook(m):
    """Columns of the m x m DFT matrix (unit modulus); empty set for m = 0."""
    if m == 0:
        return np.zeros((1, 0), dtype=complex)
    grid = np.arange(m)
    return np.exp(-2j * np.pi * np.outer(grid, grid) / m).T  # rows are codewords


@dataclass
class DftSearchResult:
    pattern: ReflectPattern
    rx: ReceiveBeamformers
    objective: float  # min SINR (SNR for K = 1)
    zf_substituted: bool = False


def dft_codebook_search(chs: ChannelSet, ctx: SinrContext, rx_mode=None) -> DftSearchResult:
    """Exhaustive joint search of (theta1, theta2) over the two DFT codebooks.

    Either codebook collapses to the single trivial empty codeword when its
    IRS has no subsurfaces.  Receivers are MRC for K = 1 and ZF/MMSE
    otherwise (with the ZF -> MMSE fallback flagged).
    """
    if rx_mode is None:
        rx_mode = "mrc" if chs.n_users == 1 else "mmse"
    best = None
    substituted_any = False
    for t1 in dft_codebook(chs.m1):
        for t2 in dft_codebook(chs.m2):
            pat = ReflectPattern(t1, t2)
            eff = effective_channel(chs, pat)
            rx, subst = _receivers(eff.h, ctx, rx_mode)
            substituted_any |= subst
            obj = float(sinr_per_user(eff, rx.w, ctx).min())
            if best is None or obj > best.objective:
                best = DftSearchResult(pat, rx, obj, subst)
    best.zf_substituted = substituted_any
    return best


@dataclass
class MuSolveState:
    """State of the alternating max-min optimizer (monotone by acceptance)."""

    theta1: np.ndarray
    theta2: np.ndarray
    w: np.ndarray
    min_sinr: float = 0.0
    trace: list = field(default_factory=list)  # min SINR after each outer iteration
    iterations: int = 0
    converged: bool = False
    accept_flags: list = field(default_factory=list)   # (step, accepted) pairs
    sdr_records: list = field(default_factory=list)    # (delta_star, achieved) pairs
    zf_substituted: bool = False

    def pattern(self):
        return ReflectPattern(self.theta1, self.theta2)


def _min_sinr(chs, ctx, theta1, theta2, w):
    eff = effective_channel(chs, ReflectPattern(theta1, theta2))
    return float(sinr_per_user(eff, w, ctx).min())


def algorithm1(
    chs: ChannelSet,
    ctx: SinrContext,
    init=None,
    max_iters=4,
    xi=1e-3,
    rx_mode="mmse",
    eps=0.1,
    n_rand=100,
    rng=None,
    feas_tol=1e-6,
):
    """Alternating SDR/bisection optimization of the max-min SINR.

    Per outer iteration: theta2 via its subproblem (bisection + Gaussian
    randomization), then theta1 likewise, then the receivers.  Because
    randomization does not guarantee improvement, every candidate (including
    the receiver update) is accepted only if the exact min SINR does not
    decrease, which makes the trace exactly non-decreasing.  Stops when the
    fractional increase drops below `xi` or after `max_iters` iterations.
    `eps` is the absolute bisection accuracy in SINR units.  `init` is a
    `DftSearchResult`, a `MuSolveState` or a ``(theta1, theta2, W)`` tuple;
    by default the DFT codebook search picks it.

    Returns (MuSolveState, SolveReport).
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    if init is None:
        init = dft_codebook_search(chs, ctx, rx_mode=rx_mode if chs.n_users > 1 else None)
    if isinstance(init, DftSearchResult):
        state = MuSolveState(init.pattern.theta1, init.pattern.theta2, init.rx.w)
    elif isinstance(init, MuSolveState):
        state = MuSolveState(init.theta1.copy(), init.theta2.copy(), init.w.copy())
    else:
        t1, t2, w0 = init
        state = MuSolveState(np.asarray(t1, complex), np.asarray(t2, complex), np.asarray(w0, complex))

    state.min_sinr = _min_sinr(chs, ctx, state.theta1, state.theta2, state.w)
    state.trace.append(state.min_sinr)

    def theta_step(block):
        if (chs.m1, chs.m2)[block - 1] == 0:
            return
        thetas = [state.theta1, state.theta2]
        build = build_p31_instance if block == 2 else build_p34_instance
        inst = build(chs, thetas[2 - block], state.w, ctx.powers, ctx.noise)
        hi = max(matched_filter_bound(inst), 1e-12)
        bis = bisection_maxmin(inst, 0.0, hi, eps, feas_tol=feas_tol)
        rand = gaussian_randomization(bis.solution.psi, inst, n_rand, rng)
        state.sdr_records.append((bis.delta_star, rand.objective))
        thetas[block - 1] = rand.theta
        cand = _min_sinr(chs, ctx, *thetas, state.w)
        accept = cand >= state.min_sinr
        if accept:
            state.theta1, state.theta2 = thetas
            state.min_sinr = cand
        state.accept_flags.append((f"theta{block}", accept))

    try:
        for it in range(max_iters):
            prev = state.min_sinr
            theta_step(2)
            theta_step(1)
            eff = effective_channel(chs, state.pattern())
            rx, subst = _receivers(eff.h, ctx, rx_mode)
            state.zf_substituted |= subst
            cand = float(sinr_per_user(eff, rx.w, ctx).min())
            accept = cand >= state.min_sinr
            if accept:
                state.w = rx.w
                state.min_sinr = cand
            state.accept_flags.append(("receivers", accept))

            state.iterations = it + 1
            state.trace.append(state.min_sinr)
            if prev > 0 and (state.min_sinr - prev) / prev < xi:
                state.converged = True
                break
    except SdpSolverError as err:
        err.partial_state = state  # best iterate so far stays inspectable
        raise

    report = SolveReport(
        objective=state.min_sinr,
        trace=list(state.trace),
        converged=state.converged,
        iterations=state.iterations,
    )
    return state, report
