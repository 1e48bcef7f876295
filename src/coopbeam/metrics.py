"""Effective channels, SINR/rate metrics, and channel-rank analysis.

The channel itself is composed in one place, `ChannelSet.compose`;
`effective_channel` checks the reflect pattern against the channel set and
returns that (N, K) array.  The receivers (MRC, ZF, MMSE) live in
`multi_user`."""

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
    t1, t2 = pat.theta1, pat.theta2
    if t1.size != chs.m1 or t2.size != chs.m2:
        raise ValueError(
            f"pattern ({t1.size},{t2.size}) does not match channels ({chs.m1},{chs.m2})"
        )
    return chs.compose(t1, t2)


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


def zf_min_sinr_formula(h, power, noise):
    """Interference-free min SINR min_k P / (noise [(H^H H)^-1]_kk).

    Valid for equal transmit power and a full column rank channel; raises
    RankDeficiencyError otherwise.
    """
    h = np.asarray(h, dtype=complex)
    n, k = h.shape
    if numerical_rank(h) < k:
        raise RankDeficiencyError("effective channel is column rank deficient")
    gram = h.conj().T @ h
    inv_diag = np.real(np.diag(np.linalg.inv(gram)))
    return float(np.min(power / (noise * inv_diag)))


def numerical_rank(a):
    """Rank by singular values above RANK_TOL * s_max."""
    a = np.asarray(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


@dataclass
class RankReport:
    """Numerical ranks of one double/single channel pair and the Prop. 2 check.

    `rank_h` and `rank_hbar` are the effective-channel ranks of the double-
    and single-IRS systems, `bound` the rank gain min(rank g1, rank u1) of
    the extra reflection path, and `clipped_gain_holds` whether
    rank_h >= min(N, K, rank_hbar + bound).
    """

    rank_h: int
    rank_hbar: int
    bound: int = 0
    clipped_gain_holds: bool = False


RANK_DRAWS = 10  # reflect patterns per majority vote of rank_gain_report


def _majority_rank(matrices):
    ranks = [numerical_rank(m) for m in matrices]
    values, counts = np.unique(ranks, return_counts=True)
    return int(values[np.argmax(counts)])


def rank_gain_report(
    double: ChannelSet, baseline: ChannelSet, pat: ReflectPattern, rng=None
) -> RankReport:
    """Effective-channel rank comparison of a double/single system pair.

    The rank of H is the majority vote over `pat` and RANK_DRAWS - 1 random
    unit-modulus patterns, the rank of H_bar over RANK_DRAWS - 1 random
    patterns, which avoids measure-zero phase alignments.  The reported
    inequality flag uses the min(N, K)-clipped form of the rank-gain bound,
    since the raw additive bound can exceed the matrix dimensions.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    pats = [pat] + [
        ReflectPattern.random(double.m1, double.m2, rng) for _ in range(RANK_DRAWS - 1)
    ]
    rank_h = _majority_rank([effective_channel(double, p) for p in pats])

    bpats = [ReflectPattern.random(baseline.m1, baseline.m2, rng) for _ in range(RANK_DRAWS - 1)]
    rank_hbar = _majority_rank([effective_channel(baseline, p) for p in bpats])

    bound = min(numerical_rank(double.g1), numerical_rank(double.u1))
    n, k = double.n_bs, double.n_users
    clipped_target = min(min(n, k), rank_hbar + bound)
    return RankReport(
        rank_h=rank_h,
        rank_hbar=rank_hbar,
        bound=bound,
        clipped_gain_holds=rank_h >= clipped_target,
    )
