"""Effective channels, SINR/rate metrics, and channel-rank analysis."""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class EffectiveChannel:
    """Composed user->BS channel H with its double/single-reflection split."""

    h: np.ndarray            # (N, K)
    double_refl: np.ndarray  # via IRS1 -> IRS2
    single_refl: np.ndarray  # via IRS2 plus via IRS1


def effective_channel(chs: ChannelSet, pat: ReflectPattern) -> EffectiveChannel:
    """Compose H = G2 Phi2 D Phi1 U1 (double reflection) + G2 Phi2 U2 + G1 Phi1 U1."""
    t1, t2 = pat.theta1, pat.theta2
    if t1.size != chs.m1 or t2.size != chs.m2:
        raise ValueError(
            f"pattern ({t1.size},{t2.size}) does not match channels ({chs.m1},{chs.m2})"
        )
    x1 = t1[:, None] * chs.u1
    h_d = chs.g2 @ (t2[:, None] * (chs.d @ x1))
    h_s = chs.g2 @ (t2[:, None] * chs.u2) + chs.g1 @ x1
    return EffectiveChannel(h=h_d + h_s, double_refl=h_d, single_refl=h_s)


def sinr_per_user(eff, w, ctx: SinrContext):
    """SINR of each user under receive beamformers W (N x K columns w_k)."""
    h = eff.h if isinstance(eff, EffectiveChannel) else np.asarray(eff)
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


def numerical_rank(a, tol=RANK_TOL):
    """Rank by singular values above tol * s_max."""
    a = np.asarray(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0:
        return 0
    return int(np.sum(s > tol * s[0]))


@dataclass
class RankReport:
    """Numerical ranks of one double/single channel pair and the Prop. 2 check.

    `rank_h` and `rank_hbar` are the effective-channel ranks of the double-
    and single-IRS systems, `link_ranks` the ranks of the raw links, `bound`
    the rank gain min(rank g1, rank u1) of the extra reflection path, and
    `clipped_gain_holds` whether rank_h >= min(N, K, rank_hbar + bound).
    """

    rank_h: int
    rank_hbar: int
    link_ranks: dict = field(default_factory=dict)
    bound: int = 0
    clipped_gain_holds: bool = False


def _majority_rank(matrices):
    ranks = [numerical_rank(m) for m in matrices]
    values, counts = np.unique(ranks, return_counts=True)
    return int(values[np.argmax(counts)])


def rank_gain_report(
    double: ChannelSet, baseline: ChannelSet, pat: ReflectPattern, rng=None, draws=10
) -> RankReport:
    """Effective-channel rank comparison of a double/single system pair.

    The rank of H is the majority vote over `pat` and draws - 1 random
    unit-modulus patterns, the rank of H_bar over draws - 1 random patterns,
    which avoids measure-zero phase alignments.  The reported inequality flag
    uses the min(N, K)-clipped form of the rank-gain bound, since the raw
    additive bound can exceed the matrix dimensions.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    pats = [pat] + [ReflectPattern.random(double.m1, double.m2, rng) for _ in range(draws - 1)]
    rank_h = _majority_rank([effective_channel(double, p).h for p in pats])

    bpats = [
        ReflectPattern.random(baseline.m1, baseline.m2, rng) for _ in range(max(draws - 1, 1))
    ]
    rank_hbar = _majority_rank([effective_channel(baseline, p).h for p in bpats])

    link_ranks = {
        "u1": numerical_rank(double.u1),
        "u2": numerical_rank(double.u2),
        "d": numerical_rank(double.d),
        "g1": numerical_rank(double.g1),
        "g2": numerical_rank(double.g2),
        "gbar": numerical_rank(baseline.g2),
        "ubar": numerical_rank(baseline.u2),
    }
    bound = min(link_ranks["g1"], link_ranks["u1"])
    n, k = double.n_bs, double.n_users
    clipped_target = min(min(n, k), rank_hbar + bound)
    return RankReport(
        rank_h=rank_h,
        rank_hbar=rank_hbar,
        link_ranks=link_ranks,
        bound=bound,
        clipped_gain_holds=rank_h >= clipped_target,
    )
