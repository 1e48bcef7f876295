"""Wireless link synthesis for the double-IRS assisted multi-user MIMO uplink.

Builds all individual links (Rician or geometric scatterer models, power-law
path loss, steering vectors) and the matched single-IRS baselines used for
double-vs-single comparisons.

Conventions (chosen once, documented here):
  * The BS is a ULA along the global y axis; each IRS is a URA in a vertical
    plane whose outward normal has the configured azimuth w.r.t. the x axis.
  * Steering phases use the +j sign: a_i = exp(+j 2*pi*spacing * <p_i, k>).
  * A "subsurface" is one unit-modulus reflector.  The aperture gain of the
    underlying element grouping is absorbed into the per-link path gain as
    aperture_gain**(#IRS endpoints of the link), so the inter-IRS link gets
    the gain squared (one reflection aperture at each end).
  * Geometric scatterer angles are drawn uniformly in azimuth/elevation over
    the front half-space of each array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, replace

import numpy as np

LINK_NAMES = ("u1", "u2", "d", "g1", "g2")

# number of IRS endpoints per link, drives the aperture-gain exponent
_IRS_ENDPOINTS = {"u1": 1, "u2": 1, "d": 2, "g1": 1, "g2": 1}


def db_to_linear(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def dbm_to_watt(x_dbm):
    return 10.0 ** ((np.asarray(x_dbm, dtype=float) - 30.0) / 10.0)


def path_loss_linear(d, alpha, gamma0_db):
    """Linear power gain gamma0 / d**alpha with gamma0 given in dB at 1 m."""
    d = float(d)
    if d <= 0.0:
        raise ValueError(f"distance must be positive, got {d}")
    return 10.0 ** (gamma0_db / 10.0) / d**alpha


@dataclass(frozen=True)
class LinkModel:
    """Small-scale fading model of one individual link.

    kind 'rician' uses `rician_k` (linear scale); kind 'geometric' uses
    `paths` scatterers with equal per-path gain.
    """

    kind: str = "rician"
    rician_k: float = 10.0
    paths: int = 4

    def __post_init__(self):
        if self.kind not in ("rician", "geometric"):
            raise ValueError(f"unknown link model kind {self.kind!r}")
        if self.kind == "rician" and self.rician_k < 0:
            raise ValueError("Rician factor must be >= 0")
        if self.kind == "geometric" and self.paths < 1:
            raise ValueError("scatterer count must be >= 1")


def _default_links():
    # near links (user<->IRS1, IRS2<->BS) are LoS dominant at 10 dB;
    # far links share a configurable factor, -10 dB unless overridden
    far = LinkModel("rician", rician_k=db_to_linear(-10.0))
    near = LinkModel("rician", rician_k=db_to_linear(10.0))
    return {"u1": near, "u2": far, "d": replace(far), "g1": replace(far), "g2": replace(near)}


def _default_alpha():
    # 2.2 between a node and its nearby serving IRS, 3.0 for the long hops
    return {"u1": 2.2, "u2": 3.0, "d": 3.0, "g1": 3.0, "g2": 2.2}


@dataclass
class SystemScenario:
    """Full description of one simulation setup (geometry, models, powers).

    Positions are 3D coordinates in meters.  Powers are in watts, the
    reference path loss `gamma0_db` in dB at 1 m.  Channel realizations are a
    pure function of (scenario, seed).
    """

    pos_bs: tuple = (1.0, 0.0, 2.0)
    pos_irs2: tuple = (0.0, 0.5, 1.0)
    pos_irs1: tuple = (0.0, 49.5, 1.0)
    pos_users: tuple = (1.0, 50.0, 0.0)
    n_bs: int = 5
    m1: int = 16
    m2: int = 16
    n_users: int = 1
    gamma0_db: float = -30.0
    alpha: dict = field(default_factory=_default_alpha)
    links: dict = field(default_factory=_default_links)
    tx_power_w: float = dbm_to_watt(15.0)
    noise_w: float = dbm_to_watt(-64.0)
    wavelength: float = 0.05
    seed: int = 0
    aperture_gain: float = 25.0
    cluster_radius: float = 2.0
    spacing: float = 0.5
    irs1_azimuth: float = math.pi / 4
    irs2_azimuth: float = 3 * math.pi / 4

    def __post_init__(self):
        for name in ("n_bs", "m1", "m2", "n_users"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_bs < 1 or self.n_users < 1:
            raise ValueError("need at least one BS antenna and one user")
        if self.m1 < 0 or self.m2 < 0:
            raise ValueError("subsurface counts must be non-negative")
        if self.noise_w <= 0:
            raise ValueError("noise power must be positive")
        if np.any(np.asarray(self.tx_power_w) <= 0):
            raise ValueError("transmit powers must be positive")
        if self.wavelength <= 0 or self.spacing <= 0:
            raise ValueError("wavelength and spacing must be positive")
        missing = [n for n in LINK_NAMES if n not in self.alpha or n not in self.links]
        if missing:
            raise ValueError(f"missing per-link configuration for {missing}")

    @property
    def m_total(self):
        return self.m1 + self.m2

    def powers(self):
        """Per-user transmit powers as a length-K array."""
        p = np.asarray(self.tx_power_w, dtype=float)
        if p.ndim == 0:
            return np.full(self.n_users, float(p))
        if p.shape != (self.n_users,):
            raise ValueError("tx_power_w must be scalar or length n_users")
        return p.copy()

    def node_positions(self):
        return {
            "bs": np.asarray(self.pos_bs, dtype=float),
            "irs1": np.asarray(self.pos_irs1, dtype=float),
            "irs2": np.asarray(self.pos_irs2, dtype=float),
            "users": np.asarray(self.pos_users, dtype=float),
        }

    def link_distances(self):
        """Center-to-center distances of the five links."""
        pos = self.node_positions()
        pairs = {
            "u1": ("users", "irs1"),
            "u2": ("users", "irs2"),
            "d": ("irs1", "irs2"),
            "g1": ("irs1", "bs"),
            "g2": ("irs2", "bs"),
        }
        return {k: float(np.linalg.norm(pos[a] - pos[b])) for k, (a, b) in pairs.items()}

    def link_gain(self, name, distance=None):
        """Linear path gain of one link including the aperture multiplier."""
        d = self.link_distances()[name] if distance is None else distance
        pl = path_loss_linear(d, self.alpha[name], self.gamma0_db)
        return pl * self.aperture_gain ** _IRS_ENDPOINTS[name]

    def to_dict(self):
        d = asdict(self)
        d["links"] = {k: asdict(v) for k, v in self.links.items()}
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if "links" in d:
            d["links"] = {k: LinkModel(**v) for k, v in d["links"].items()}
        for key in ("pos_bs", "pos_irs1", "pos_irs2", "pos_users"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)


# ---------------------------------------------------------------------------
# array responses


def ura_shape(m):
    """Factor m subsurfaces into the most square (rows, cols) grid."""
    if m <= 0:
        return (0, max(m, 0))
    r = int(math.isqrt(m))
    while m % r:
        r -= 1
    return (r, m // r)


def array_response(kind, size, direction, spacing=0.5):
    """Steering vector of a ULA or URA toward (azimuth, elevation) in radians.

    Entries are unit modulus with the first element as phase reference
    (exactly 1).  For a URA `size` is (n_rows, n_cols) with rows stacked
    vertically; the response is the Kronecker product of the vertical and
    horizontal ULA responses.
    """
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    az, el = direction
    if kind == "ula":
        n = int(size)
        if n < 1:
            raise ValueError("array size must be >= 1")
        u = math.sin(az) * math.cos(el)
        return np.exp(2j * math.pi * spacing * np.arange(n) * u)
    if kind == "ura":
        n_v, n_h = size
        if n_v < 1 or n_h < 1:
            raise ValueError("array size must be >= 1")
        u_h = math.sin(az) * math.cos(el)
        u_v = math.sin(el)
        a_h = np.exp(2j * math.pi * spacing * np.arange(n_h) * u_h)
        a_v = np.exp(2j * math.pi * spacing * np.arange(n_v) * u_v)
        return np.kron(a_v, a_h)
    raise ValueError(f"unknown array kind {kind!r}")


class _ArrayFrame:
    """Local frame of one antenna array for geometry-derived steering."""

    def __init__(self, kind, size, origin, normal_azimuth=0.0, spacing=0.5):
        self.kind = kind
        self.size = size
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = spacing
        c, s = math.cos(normal_azimuth), math.sin(normal_azimuth)
        self.normal = np.array([c, s, 0.0])
        self.horiz = np.array([-s, c, 0.0])
        self.vert = np.array([0.0, 0.0, 1.0])

    def angles_toward(self, point):
        """(azimuth, elevation) of the unit vector from the array to `point`."""
        d = np.asarray(point, dtype=float) - self.origin
        norm = np.linalg.norm(d)
        if norm <= 0:
            raise ValueError("coincident nodes give a degenerate geometry")
        d = d / norm
        el = math.asin(max(-1.0, min(1.0, float(d @ self.vert))))
        az = math.atan2(float(d @ self.horiz), float(d @ self.normal))
        return az, el

    def steer_toward(self, point):
        return array_response(self.kind, self.size, self.angles_toward(point), self.spacing)

    def random_angles(self, rng):
        # uniform over the front half-space of the array
        az = rng.uniform(-math.pi / 2, math.pi / 2)
        el = rng.uniform(-math.pi / 2, math.pi / 2)
        return az, el

    def steer_random(self, rng):
        return array_response(self.kind, self.size, self.random_angles(rng), self.spacing)


def _frames(scn: SystemScenario):
    # BS ULA elements run along the global y axis (normal toward +x)
    return {
        "bs": _ArrayFrame("ula", scn.n_bs, scn.pos_bs, 0.0, scn.spacing),
        "irs1": _ArrayFrame("ura", ura_shape(scn.m1), scn.pos_irs1, scn.irs1_azimuth, scn.spacing),
        "irs2": _ArrayFrame("ura", ura_shape(scn.m2), scn.pos_irs2, scn.irs2_azimuth, scn.spacing),
    }


# ---------------------------------------------------------------------------
# link synthesis


def rician_link(los_component, kappa, path_gain, rng):
    """Rician fading matrix around a unit-modulus LoS component.

    Returns sqrt(path_gain) * (sqrt(k/(1+k)) * LoS + sqrt(1/(1+k)) * NLoS)
    with i.i.d. standard CSCG NLoS entries, so the expected squared Frobenius
    norm equals path_gain times the number of entries.
    """
    if kappa < 0:
        raise ValueError("Rician factor must be >= 0")
    los = np.asarray(los_component, dtype=complex)
    if los.size and not np.allclose(np.abs(los), 1.0, rtol=1e-6, atol=1e-6):
        raise ValueError("LoS component must have unit-modulus entries")
    nlos = (rng.standard_normal(los.shape) + 1j * rng.standard_normal(los.shape)) / math.sqrt(2)
    w_los = math.sqrt(kappa / (1.0 + kappa))
    w_nlos = math.sqrt(1.0 / (1.0 + kappa))
    return math.sqrt(path_gain) * (w_los * los + w_nlos * nlos)


def geometric_link(n_paths, rx_steering, tx_steering, rho_bar, rng):
    """Sum of `n_paths` outer products rho_l * a_rx a_tx^H with |rho_l| = rho_bar.

    `rx_steering` / `tx_steering` are samplers drawing one random-angle
    steering vector per call.  Path phases are uniform.  The numerical rank
    is min(n_paths, dims) with probability one.
    """
    if n_paths < 1:
        raise ValueError("scatterer count must be >= 1")
    a_rx = rx_steering(rng)
    a_tx = tx_steering(rng)
    out = np.zeros((a_rx.size, a_tx.size), dtype=complex)
    for ell in range(n_paths):
        if ell > 0:
            a_rx = rx_steering(rng)
            a_tx = tx_steering(rng)
        rho = rho_bar * np.exp(2j * math.pi * rng.uniform())
        out += rho * np.outer(a_rx, a_tx.conj())
    return out


# ---------------------------------------------------------------------------
# channel containers


@dataclass
class ReflectPattern:
    """Unit-modulus reflect vectors of the two IRSs (theta2 alone if m1=0)."""

    theta1: np.ndarray
    theta2: np.ndarray

    def __post_init__(self):
        self.theta1 = np.asarray(self.theta1, dtype=complex).reshape(-1)
        self.theta2 = np.asarray(self.theta2, dtype=complex).reshape(-1)
        for th in (self.theta1, self.theta2):
            if th.size and not np.allclose(np.abs(th), 1.0, rtol=1e-9, atol=1e-9):
                raise ValueError("reflect coefficients must be unit modulus")

    @property
    def theta(self):
        """Stacked [theta1; theta2] vector (the single-IRS theta when m1=0)."""
        return np.concatenate([self.theta1, self.theta2])

    @classmethod
    def random(cls, m1, m2, rng):
        ph = rng.uniform(0.0, 2 * math.pi, m1 + m2)
        vec = np.exp(1j * ph)
        return cls(vec[:m1], vec[m1:])


@dataclass
class ChannelSet:
    """One realization of the five raw links.

    Shapes: u1 (M1,K), u2 (M2,K), d (M2,M1), g1 (N,M1), g2 (N,M2).  User k
    reaches the BS through

        h_k = G2 diag(theta2) (D diag(theta1) u1_k + u2_k) + G1 diag(theta1) u1_k,

    which `compose` evaluates for both reflect vectors.  It is affine in either
    reflect vector once the other is fixed; `affine` returns that map.
    Immutable by convention after construction; safe to share across threads.
    """

    u1: np.ndarray
    u2: np.ndarray
    d: np.ndarray
    g1: np.ndarray
    g2: np.ndarray

    @classmethod
    def from_links(cls, u1, u2, d, g1, g2):
        u1 = np.asarray(u1, dtype=complex)
        u2 = np.asarray(u2, dtype=complex)
        d = np.asarray(d, dtype=complex)
        g1 = np.asarray(g1, dtype=complex)
        g2 = np.asarray(g2, dtype=complex)
        if u1.ndim != 2 or u2.ndim != 2 or u1.shape[1] != u2.shape[1]:
            raise ValueError("u1/u2 must be 2D with one column per user")
        m1, k = u1.shape
        m2 = u2.shape[0]
        if d.shape != (m2, m1):
            raise ValueError(f"inter-IRS link must be {(m2, m1)}, got {d.shape}")
        if g1.shape[1] != m1 or g2.shape[1] != m2 or g1.shape[0] != g2.shape[0]:
            raise ValueError("IRS-BS links inconsistent with subsurface counts")
        for name, arr in (("u1", u1), ("u2", u2), ("d", d), ("g1", g1), ("g2", g2)):
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError(f"link {name} contains non-finite entries")
        return cls(u1, u2, d, g1, g2)

    @property
    def n_bs(self):
        return self.g2.shape[0]

    @property
    def m1(self):
        return self.u1.shape[0]

    @property
    def m2(self):
        return self.u2.shape[0]

    @property
    def n_users(self):
        return self.u1.shape[1]

    def compose(self, theta1, theta2):
        """H (N, K): G2 (theta2 o (D (theta1 o U1) + U2)) + G1 (theta1 o U1)."""
        x1 = np.asarray(theta1)[:, None] * self.u1
        return self.g2 @ (np.asarray(theta2)[:, None] * (self.d @ x1 + self.u2)) + self.g1 @ x1

    def affine(self, block, theta_other):
        """(A, c) with h_k = A[k] @ theta_block + c[:, k], the other IRS fixed.

        A has shape (K, N, M_block) and c shape (N, K):
          block 2: A_k = G2 diag(D Phi1 u1_k + u2_k),  c_k = G1 Phi1 u1_k;
          block 1: A_k = (G2 Phi2 D + G1) diag(u1_k),  c_k = G2 Phi2 u2_k.
        """
        if block not in (1, 2):
            raise ValueError(f"block must be 1 or 2, got {block!r}")
        t = np.asarray(theta_other, dtype=complex).reshape(-1)
        if t.size != (self.m2 if block == 1 else self.m1):
            raise ValueError(f"theta{3 - block} length does not match the channel set")
        if block == 2:
            x1 = t[:, None] * self.u1
            a = self.g2[None, :, :] * (self.d @ x1 + self.u2).T[:, None, :]
            return a, self.g1 @ x1
        b = self.g2 @ (t[:, None] * self.d) + self.g1
        return b[None, :, :] * self.u1.T[:, None, :], self.g2 @ (t[:, None] * self.u2)


def build_double_irs_scenario(scenario: SystemScenario, rng=None) -> ChannelSet:
    """Draw all five links of the double-IRS system for one realization.

    Deterministic given (scenario, seed): users are placed uniformly in a
    horizontal disk around the cluster center, then the links are drawn in
    the fixed order u1, u2, d, g1, g2.
    """
    rng = _as_rng(rng, scenario.seed)
    dists = scenario.link_distances()
    if min(dists.values()) <= 0:
        raise ValueError("coincident nodes give a degenerate geometry")
    frames = _frames(scenario)
    k = scenario.n_users

    # user drop: uniform in a disk of cluster_radius around the center
    center = np.asarray(scenario.pos_users, dtype=float)
    radius = scenario.cluster_radius * np.sqrt(rng.uniform(size=k))
    angle = rng.uniform(0.0, 2 * math.pi, size=k)
    users = center[None, :] + np.stack(
        [radius * np.cos(angle), radius * np.sin(angle), np.zeros(k)], axis=1
    )

    def user_link(irs_name, link_name, m):
        if m == 0:
            return np.zeros((0, k), dtype=complex)
        cols = []
        frame = frames[irs_name]
        model = scenario.links[link_name]
        for pos in users:
            dist = float(np.linalg.norm(pos - frame.origin))
            gain = scenario.link_gain(link_name, dist)
            if model.kind == "rician":
                los = frame.steer_toward(pos)
                cols.append(rician_link(los, model.rician_k, gain, rng))
            else:
                col = geometric_link(
                    model.paths,
                    frame.steer_random,
                    lambda r: np.ones(1, dtype=complex),
                    math.sqrt(gain / model.paths),
                    rng,
                )
                cols.append(col[:, 0])
        return np.stack(cols, axis=1)

    def node_link(rx_name, tx_name, link_name, rx_point, tx_point):
        rx, tx = frames[rx_name], frames[tx_name]
        gain = scenario.link_gain(link_name)
        model = scenario.links[link_name]
        n_rx = int(np.prod(rx.size)) if rx.kind == "ura" else rx.size
        n_tx = int(np.prod(tx.size)) if tx.kind == "ura" else tx.size
        if n_rx == 0 or n_tx == 0:
            return np.zeros((n_rx, n_tx), dtype=complex)
        if model.kind == "rician":
            los = np.outer(rx.steer_toward(tx_point), tx.steer_toward(rx_point).conj())
            return rician_link(los, model.rician_k, gain, rng)
        return geometric_link(
            model.paths, rx.steer_random, tx.steer_random, math.sqrt(gain / model.paths), rng
        )

    pos = scenario.node_positions()
    u1 = user_link("irs1", "u1", scenario.m1)
    u2 = user_link("irs2", "u2", scenario.m2)
    d = node_link("irs2", "irs1", "d", pos["irs2"], pos["irs1"])
    g1 = node_link("bs", "irs1", "g1", pos["bs"], pos["irs1"])
    g2 = node_link("bs", "irs2", "g2", pos["bs"], pos["irs2"])
    return ChannelSet.from_links(u1, u2, d, g1, g2)


def build_single_irs_baseline_A1(double: ChannelSet) -> ChannelSet:
    """Single-IRS baseline whose cascaded channel is [R1, R2] (single user).

    R1 = G1 diag(u1) and R2 = G2 diag(u2) are the single-reflection cascades
    of `double`.  The result is represented as a ChannelSet with m1 = 0 whose
    combined IRS carries all M subsurfaces, so every optimizer works on it
    unchanged.
    """
    if double.n_users != 1:
        raise ValueError("the concatenation baseline is defined for K = 1 only")
    n, m = double.n_bs, double.m1 + double.m2
    rbar = np.concatenate([double.g1 * double.u1[:, 0], double.g2 * double.u2[:, 0]], axis=1)
    return ChannelSet.from_links(
        u1=np.zeros((0, 1), dtype=complex),
        u2=np.ones((m, 1), dtype=complex),
        d=np.zeros((m, 0), dtype=complex),
        g1=np.zeros((n, 0), dtype=complex),
        g2=rbar,
    )


def build_single_irs_baseline_A2(scenario: SystemScenario, rank_g, rank_u, rng=None) -> ChannelSet:
    """Single-IRS baseline with prescribed link ranks (multi-user setting).

    All M subsurfaces sit at the IRS2 position.  The IRS->BS link is drawn
    with `rank_g` scatterers and the user->IRS link with `rank_u` shared
    scatterers, so the numerical ranks match the paired double-IRS scenario's
    g2/u2 link ranks.
    """
    rng = _as_rng(rng, scenario.seed)
    n, m, k = scenario.n_bs, scenario.m_total, scenario.n_users
    if not (1 <= rank_g <= min(n, m)):
        raise ValueError(f"rank_g={rank_g} infeasible for a {n}x{m} link")
    if not (1 <= rank_u <= min(m, k)):
        raise ValueError(f"rank_u={rank_u} infeasible for a {m}x{k} link")
    irs = _ArrayFrame("ura", ura_shape(m), scenario.pos_irs2, scenario.irs2_azimuth, scenario.spacing)
    bs = _frames(scenario)["bs"]

    gain_g = scenario.link_gain("g2")
    gbar = geometric_link(rank_g, bs.steer_random, irs.steer_random, math.sqrt(gain_g / rank_g), rng)

    gain_u = scenario.link_gain("u2")
    ubar = np.zeros((m, k), dtype=complex)
    for _ in range(rank_u):
        a = irs.steer_random(rng)
        g = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / math.sqrt(2)
        ubar += math.sqrt(gain_u / rank_u) * np.outer(a, g)

    return ChannelSet.from_links(
        u1=np.zeros((0, k), dtype=complex),
        u2=ubar,
        d=np.zeros((m, 0), dtype=complex),
        g1=np.zeros((n, 0), dtype=complex),
        g2=gbar,
    )


def _as_rng(rng, fallback_seed):
    if rng is None:
        return np.random.default_rng(fallback_seed)
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    return rng
