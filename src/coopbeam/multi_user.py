"""Multi-user max-min SINR machinery: SDR subproblem builders, linear
receivers, the alternating SDR/bisection optimizer, and the DFT joint
codebook search benchmark.

The channel is composed by `ChannelSet.compose` (through
`metrics.effective_channel`).  `mrc_receivers` is the one MRC body, used here
and by the single-user AO; the receivers return W itself and take leading
batch axes like `compose`, so `dft_codebook_search` solves a chunk of pairs at once.
`MuSolveState` is the one multi-user result: `dft_codebook_search` returns it
and `algorithm1` starts from it.  `algorithm1` is the one alternating SDR
driver: with K = 1 and ``rx_mode="mrc"`` it is the single-user SDR
benchmark."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelSet, ReflectPattern
from .metrics import RankDeficiencyError, SinrContext, effective_channel, numerical_rank, sinr_per_user
from .sdp import (
    MaxMinSdpInstance,
    bisection_maxmin,
    gaussian_randomization,
    matched_filter_bound,
)
from .reports import SolveReport


def mrc_receivers(h):
    """Unit-norm maximum-ratio receivers w_k = h_k / ||h_k|| of H (..., N, K).

    A zero channel column gets the first unit vector, so that user's SINR is 0.
    """
    h = np.asarray(h, dtype=complex)
    norms = np.sqrt((h.conj() * h).real.sum(axis=-2))  # np.linalg.norm(h, axis=-2), minus its overhead
    if not norms.all():
        zero = norms == 0
        h = h.copy()
        h[..., 0, :][zero] = norms[zero] = 1.0
    return h / norms[..., None, :]


def _receiver_powers(powers, k):
    """powers as a float (K,) array; ValueError unless it holds K finite positive values."""
    powers = np.asarray(powers, dtype=float)
    if powers.shape != (k,) or not (0 < powers.min() and powers.max() < np.inf):
        raise ValueError(f"powers must be {k} finite positive values, got shape {powers.shape}")
    return powers


def zf_receivers(h, powers):
    """Zero-forcing receivers W = H (P H^H H)^{-1} with P = diag(sqrt(P_k)), batched like H (..., N, K).

    Requires full column rank of every channel; satisfies W^H H = P^{-1} so
    all cross-user interference vanishes.  `powers` must be K finite positive values.
    """
    h = np.asarray(h, dtype=complex)
    powers = _receiver_powers(powers, h.shape[-1])
    if np.any(numerical_rank(h) < h.shape[-1]):
        raise RankDeficiencyError("ZF requires rank(H) = K")
    gram = h.conj().swapaxes(-1, -2) @ h
    return h @ np.linalg.inv(np.sqrt(powers)[:, None] * gram)


def mmse_receivers(h, powers, noise):
    """MMSE receivers (per-user optimal) of channels H (..., N, K), batched like H.

    With D = diag(P_1, ..., P_K), the covariance form
        W = (H D H^H + noise I_N)^{-1} H D^{1/2}
    equals, by the push-through identity (H D H^H + s I)^{-1} H = H (D H^H H + s I)^{-1},
        W = H (D H^H H + noise I_K)^{-1} D^{1/2},
    which is what is computed: one K x K Gram and one K x K solve per channel,
    whatever N.  D H^H H + noise I is invertible for noise > 0, since D H^H H
    is similar to the PSD D^{1/2} H^H H D^{1/2}.  A zero channel column gets
    the first unit vector, so that user's SINR is 0.  `powers` must be K finite
    positive values and `noise` finite and positive.
    """
    h = np.asarray(h, dtype=complex)
    k = h.shape[-1]
    powers = _receiver_powers(powers, k)
    if not 0 < noise < np.inf:
        raise ValueError(f"noise power must be finite and positive, got {noise!r}")
    gram = h.conj().swapaxes(-1, -2) @ h
    # b gets as many axes as the Grams: numpy < 2 reads a b with one axis fewer as a stack of vectors
    rhs = np.diag(np.sqrt(powers))[(None,) * (gram.ndim - 2)]
    w = h @ np.linalg.solve(powers[:, None] * gram + noise * np.eye(k), rhs)
    dead = ~w.any(axis=-2)
    if dead.any():
        w[..., 0, :][dead] = 1.0
    return w


def _receivers(h, ctx: SinrContext, mode):
    """(W, substituted): receivers of one mode, batched, with the ZF -> MMSE fallback per channel."""
    if mode == "mrc":
        return mrc_receivers(h), False
    if mode == "zf":
        try:
            return zf_receivers(h, ctx.powers), False
        except RankDeficiencyError:
            deficient = numerical_rank(h) < h.shape[-1]
            w = mmse_receivers(h, ctx.powers, ctx.noise)
            if not np.all(deficient):
                w[~deficient] = zf_receivers(h[~deficient], ctx.powers)
            return w, True
    if mode == "mmse":
        return mmse_receivers(h, ctx.powers, ctx.noise), False
    raise ValueError(f"unknown receiver mode {mode!r}")


def _build_instance(chs: ChannelSet, block, theta_other, w, powers, noise) -> MaxMinSdpInstance:
    """Subproblem data over theta_block for the other IRS fixed and receivers W.

    With h_j = A~_j [theta_block; 1] from `ChannelSet.affine`,
    v_{k,j} = sqrt(P_j) A~_j^H w_k, so the user-j term at receiver k is
    |v_{k,j}^H [theta_block; 1]|^2: any unit-modulus theta_block reproduces the
    exact per-user SINRs.
    """
    w = np.asarray(w, dtype=complex)
    a = chs.affine(block, theta_other)
    if w.shape != (chs.n_bs, chs.n_users):
        raise ValueError("receive matrix does not match the channel set")
    sqrt_p = np.sqrt(np.atleast_1d(np.asarray(powers, dtype=float)))
    v = np.einsum("jnm,nk->kjm", a.conj(), w) * sqrt_p[None, :, None]
    return MaxMinSdpInstance(v, noise * np.sum(np.abs(w) ** 2, axis=0))


def build_p31_instance(chs: ChannelSet, theta1, w, powers, noise) -> MaxMinSdpInstance:
    """(P3.1): subproblem over theta2 for fixed theta1 and receivers W."""
    return _build_instance(chs, 2, theta1, w, powers, noise)


def build_p34_instance(chs: ChannelSet, theta2, w, powers, noise) -> MaxMinSdpInstance:
    """(P3.4): subproblem over theta1 for fixed theta2 and receivers W."""
    return _build_instance(chs, 1, theta2, w, powers, noise)


# bytes per search chunk of its largest per-pair array, 16 max(N, M1, M2) K: a channel,
# receiver or cascaded-link stack (the receivers' K x K Grams are no larger).  A chunk
# holds about six such arrays at once; on a mu-maxmin search (N = 40, K = 5) 256 KiB is
# no faster than 128 KiB and nearly doubles the peak memory (BENCH_27.json).
_CHUNK_BYTES = 128 * 1024


def dft_codebook(m):
    """Columns of the m x m DFT matrix (unit modulus); empty set for m = 0."""
    if m == 0:
        return np.zeros((1, 0), dtype=complex)
    grid = np.arange(m)
    return np.exp(-2j * np.pi * np.outer(grid, grid) / m).T  # rows are codewords


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


def dft_codebook_search(chs: ChannelSet, ctx: SinrContext, rx_mode) -> MuSolveState:
    """Exhaustive joint search of (theta1, theta2) over the two DFT codebooks.

    Either codebook collapses to the single trivial empty codeword when its
    IRS has no subsurfaces.  The pairs (theta1 outer) go in chunks of
    `_CHUNK_BYTES` of the largest per-pair array (16 max(N, M1, M2) K bytes),
    each one channel stack, one receiver solve of `rx_mode` and one SINR call.
    Returns the best pair (the first on a tie) with its receivers and min SINR
    (SNR for K = 1); under ZF only the rank-deficient pairs get MMSE, and
    `zf_substituted` flags that any did.
    """
    c1, c2 = dft_codebook(chs.m1), dft_codebook(chs.m2)
    theta1, theta2 = np.repeat(c1, len(c2), 0), np.tile(c2, (len(c1), 1))
    chunk = max(1, _CHUNK_BYTES // (16 * max(chs.n_bs, chs.m1, chs.m2) * chs.n_users))
    best, substituted = None, False
    for start in range(0, len(theta1), chunk):
        h = chs.compose(theta1[start:start + chunk], theta2[start:start + chunk])
        w, subst = _receivers(h, ctx, rx_mode)
        substituted |= subst
        obj = sinr_per_user(h, w, ctx).min(axis=-1)
        i = int(np.argmax(obj))
        if best is None or obj[i] > best.min_sinr:
            pair = (theta1[start + i].copy(), theta2[start + i].copy(), w[i].copy())
            best = MuSolveState(*pair, min_sinr=float(obj[i]))
    best.zf_substituted = substituted
    return best


def _min_sinr(chs, ctx, theta1, theta2, w):
    h = effective_channel(chs, ReflectPattern(theta1, theta2))
    return float(sinr_per_user(h, w, ctx).min())


def algorithm1(
    chs: ChannelSet,
    ctx: SinrContext,
    init,
    rng,
    max_iters=4,
    xi=1e-3,
    rx_mode="mmse",
    eps=0.1,
    n_rand=100,
):
    """Alternating SDR/bisection optimization of the max-min SINR.

    Per outer iteration: theta2 via its subproblem (bisection + Gaussian
    randomization), then theta1 likewise, then the receivers.  Because
    randomization does not guarantee improvement, every candidate (including
    the receiver update) is accepted only if the exact min SINR does not
    decrease, which makes the trace exactly non-decreasing.  Stops when the
    fractional increase drops below `xi` or after `max_iters` iterations.
    `eps` is the absolute bisection accuracy in SINR units.  `init` is a
    `MuSolveState` whose (theta1, theta2, w) start the iteration, and `rng`
    draws the Gaussian randomization's candidates.

    Returns (MuSolveState, SolveReport).
    """
    state = MuSolveState(*(np.array(x, dtype=complex) for x in (init.theta1, init.theta2, init.w)))

    state.min_sinr = _min_sinr(chs, ctx, state.theta1, state.theta2, state.w)
    state.trace.append(state.min_sinr)

    def theta_step(block):
        if (chs.m1, chs.m2)[block - 1] == 0:
            return
        thetas = [state.theta1, state.theta2]
        build = build_p31_instance if block == 2 else build_p34_instance
        inst = build(chs, thetas[2 - block], state.w, ctx.powers, ctx.noise)
        hi = max(matched_filter_bound(inst), 1e-12)
        bis = bisection_maxmin(inst, thetas[block - 1], hi, eps)
        rand = gaussian_randomization(bis.psi, inst, n_rand, rng)
        state.sdr_records.append((bis.delta_star, rand.objective))
        thetas[block - 1] = rand.theta
        cand = _min_sinr(chs, ctx, *thetas, state.w)
        accept = cand >= state.min_sinr
        if accept:
            state.theta1, state.theta2 = thetas
            state.min_sinr = cand
        state.accept_flags.append((f"theta{block}", accept))

    for it in range(max_iters):
        prev = state.min_sinr
        theta_step(2)
        theta_step(1)
        h = effective_channel(chs, state.pattern())
        w, subst = _receivers(h, ctx, rx_mode)
        state.zf_substituted |= subst
        cand = float(sinr_per_user(h, w, ctx).min())
        accept = cand >= state.min_sinr
        if accept:
            state.w = w
            state.min_sinr = cand
        state.accept_flags.append(("receivers", accept))

        state.iterations = it + 1
        state.trace.append(state.min_sinr)
        if prev > 0 and (state.min_sinr - prev) / prev < xi:
            state.converged = True
            break

    report = SolveReport(
        objective=state.min_sinr,
        trace=list(state.trace),
        converged=state.converged,
        iterations=state.iterations,
    )
    return state, report
