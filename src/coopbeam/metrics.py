"""Effective channels, SINR/rate metrics, and channel-rank analysis.

The channel itself is composed in one place, `ChannelSet.compose`;
`effective_channel` checks the reflect pattern against the channel set and
returns that (N, K) array.  The receivers (MRC, ZF, MMSE) live in
`multi_user`.  `rank_gain_report` measures the two ranks that Proposition 2
compares; the prop2-rank summary requires rank_h = min(N, K), which implies
the min(N, K)-clipped rank-gain inequality."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet, ReflectPattern

RANK_TOL = 1e-8  # singular values below RANK_TOL * s_max count as zero


class RankDeficiencyError(np.linalg.LinAlgError):
    """Raised when a pseudo-inverse based receiver does not exist."""


@dataclass(frozen=True)
class SinrContext:
    """Per-user transmit powers (watts) and noise power (watts)."""

    powers: np.ndarray
    noise: float

    def __post_init__(self):
        object.__setattr__(self, "powers", np.atleast_1d(np.asarray(self.powers, dtype=float)))
        if np.any(self.powers <= 0) or self.noise <= 0:
            raise ValueError("powers and noise must be strictly positive")

    @classmethod
    def from_scenario(cls, scenario):
        return cls(scenario.powers(), scenario.noise_w)


def effective_channel(chs: ChannelSet, pat: ReflectPattern) -> np.ndarray:
    """Effective channel H (N, K) of the pattern, composed by `ChannelSet.compose`."""
    return chs.compose(pat.theta1, pat.theta2)


def sinr_per_user(h, w, ctx: SinrContext):
    """SINR of each user of channel H (N x K) under receive beamformers W (columns w_k)."""
    h = np.asarray(h)
    w = np.asarray(w, dtype=complex)
    if w.ndim == 1:
        w = w[:, None]
    if w.shape != h.shape:
        raise ValueError(f"receive matrix {w.shape} does not match channel {h.shape}")
    norms = np.sum(np.abs(w) ** 2, axis=0)
    if np.any(norms == 0):
        raise ValueError("zero receive vector")
    k = h.shape[1]
    if ctx.powers.size != k:
        raise ValueError("power vector does not match user count")
    cross = np.abs(w.conj().T @ h) ** 2 * ctx.powers[None, :]  # [k, j] = P_j |w_k^H h_j|^2
    signal = np.diag(cross)
    interference = cross.sum(axis=1) - signal
    return signal / (interference + ctx.noise * norms)


def max_min_rate(sinrs):
    """Worst-user achievable rate log2(1 + min_k sinr_k) in bits/s/Hz."""
    sinrs = np.asarray(sinrs, dtype=float)
    if np.any(sinrs < 0):
        raise ValueError("SINRs must be non-negative")
    return float(np.log2(1.0 + sinrs.min()))


def numerical_rank(a):
    """Rank by singular values above RANK_TOL * s_max; 0 for an empty or all-zero matrix."""
    s = np.linalg.svd(np.asarray(a), compute_uv=False)
    return int(np.sum(s > RANK_TOL * s.max(initial=0.0)))


@dataclass
class RankReport:
    """Effective-channel ranks of the double- (`rank_h`) and single-IRS (`rank_hbar`) systems."""

    rank_h: int
    rank_hbar: int


RANK_DRAWS = 10  # reflect patterns per majority vote of rank_gain_report


def _majority_rank(matrices):
    ranks = [numerical_rank(m) for m in matrices]
    values, counts = np.unique(ranks, return_counts=True)
    return int(values[np.argmax(counts)])


def rank_gain_report(double: ChannelSet, baseline: ChannelSet, rng) -> RankReport:
    """Effective-channel rank comparison of a double/single system pair.

    The rank of H is the majority vote over RANK_DRAWS random unit-modulus
    patterns, the rank of H_bar over RANK_DRAWS - 1, all drawn from the
    generator `rng` in that order, which avoids measure-zero phase
    alignments.
    """
    pats = [ReflectPattern.random(double.m1, double.m2, rng) for _ in range(RANK_DRAWS)]
    rank_h = _majority_rank([effective_channel(double, p) for p in pats])

    bpats = [ReflectPattern.random(baseline.m1, baseline.m2, rng) for _ in range(RANK_DRAWS - 1)]
    rank_hbar = _majority_rank([effective_channel(baseline, p) for p in bpats])
    return RankReport(rank_h=rank_h, rank_hbar=rank_hbar)
