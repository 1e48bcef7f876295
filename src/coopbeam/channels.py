"""Wireless link synthesis for the double-IRS assisted multi-user MIMO uplink.

Builds all individual links (Rician or geometric scatterer models, power-law
path loss, steering vectors) and the matched single-IRS baselines used for
double-vs-single comparisons.

Conventions (chosen once, documented here):
  * Every array is a grid of (rows, cols) elements; its response toward
    (azimuth, elevation) is the Kronecker product of a vertical and a
    horizontal ULA response.  The BS is a (1, N) array along the global y
    axis; each IRS is a near-square grid in a vertical plane whose outward
    normal has the configured azimuth w.r.t. the x axis.  A single-antenna
    user is a one-element node whose response is 1 in every direction.
  * `LINK_ENDS` names the two end nodes of each of the five links; one link
    draw serves them all, in the fixed order u1, u2, d, g1, g2.
  * Steering phases use the +j sign: a_i = exp(+j 2*pi*spacing * <p_i, k>),
    with the element spacing in wavelengths.
  * A "subsurface" is one unit-modulus reflector.  The aperture gain of the
    underlying element grouping is absorbed into the per-link path gain as
    aperture_gain**(#IRS endpoints of the link), so the inter-IRS link gets
    the gain squared (one reflection aperture at each end).
  * Geometric scatterer angles are drawn uniformly in azimuth/elevation over
    the front half-space of each array; a user draws none.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, replace

import numpy as np

# link -> (receiving node, transmitting node); a node's position is the
# scenario field pos_<node>, and "users" is the user cluster (one node per user)
LINK_ENDS = {
    "u1": ("irs1", "users"),
    "u2": ("irs2", "users"),
    "d": ("irs2", "irs1"),
    "g1": ("bs", "irs1"),
    "g2": ("bs", "irs2"),
}
LINK_NAMES = tuple(LINK_ENDS)


def db_to_linear(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def dbm_to_watt(x_dbm):
    return 10.0 ** ((np.asarray(x_dbm, dtype=float) - 30.0) / 10.0)


def _finite_real(value):
    """Whether value is a finite real number; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _finite_reals(value, n):
    """Whether value is a list, tuple or array of n finite real numbers."""
    seq = isinstance(value, (list, tuple, np.ndarray))
    return seq and len(value) == n and all(map(_finite_real, value))


def path_loss_linear(d, alpha, gamma0_db):
    """Linear power gain gamma0 / d**alpha with gamma0 given in dB at 1 m; finite and positive."""
    d = float(d)
    if d <= 0.0:
        raise ValueError(f"distance must be positive, got {d}")
    try:
        gain = 10.0 ** (gamma0_db / 10.0) / d**alpha
    except (OverflowError, ZeroDivisionError):
        gain = math.nan
    if not 0.0 < gain < math.inf:
        raise ValueError(f"path gain at {d} m is not a finite positive number")
    return gain


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
        if not _finite_real(self.rician_k) or self.rician_k < 0:
            raise ValueError(f"rician_k must be a finite real >= 0, got {self.rician_k!r}")
        paths = self.paths
        if isinstance(paths, bool) or not isinstance(paths, numbers.Integral) or paths < 1:
            raise ValueError(f"paths must be an integer >= 1, got {paths!r}")


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
    pure function of (scenario, generator state).
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
        for name in ("pos_bs", "pos_irs1", "pos_irs2", "pos_users"):
            if not _finite_reals(getattr(self, name), 3):
                raise ValueError(f"{name} must be 3 finite reals, got {getattr(self, name)!r}")
        for name in ("gamma0_db", "noise_w", "aperture_gain", "cluster_radius", "spacing",
                     "irs1_azimuth", "irs2_azimuth"):
            if not _finite_real(getattr(self, name)):
                raise ValueError(f"{name} must be a finite real, got {getattr(self, name)!r}")
        if self.noise_w <= 0:
            raise ValueError("noise power must be positive")
        if not (_finite_real(self.tx_power_w) or _finite_reals(self.tx_power_w, self.n_users)):
            raise ValueError("tx_power_w must be one finite real or one per user")
        if np.any(np.asarray(self.tx_power_w) <= 0):
            raise ValueError("transmit powers must be positive")
        if self.spacing <= 0 or self.aperture_gain <= 0 or self.cluster_radius < 0:
            raise ValueError("spacing and aperture_gain must be positive, cluster_radius >= 0")
        if not isinstance(self.alpha, dict) or not all(_finite_real(a) and a >= 0 for a in self.alpha.values()):
            raise ValueError(f"alpha must map link names to finite reals >= 0, got {self.alpha!r}")
        if not isinstance(self.links, dict):
            raise ValueError(f"links must map link names to link models, got {self.links!r}")
        missing = [n for n in LINK_NAMES if n not in self.alpha or n not in self.links]
        if missing:
            raise ValueError(f"missing per-link configuration for {missing}")
        for name, (rx, tx) in LINK_ENDS.items():
            # a user drops anywhere in the horizontal cluster_radius disk around pos_users, and
            # the gain is monotone in distance: check it at the disk's nearest and farthest points
            v = np.subtract(getattr(self, f"pos_{rx}"), getattr(self, f"pos_{tx}"), dtype=float)
            h = math.hypot(v[0], v[1])
            r = self.cluster_radius if tx == "users" else 0.0
            for d in (math.hypot(max(h - r, 0.0), v[2]), math.hypot(h + r, v[2])):
                if d <= 0:
                    raise ValueError("coincident nodes give a degenerate geometry")
                self.link_gain(name, d)

    @property
    def m_total(self):
        return self.m1 + self.m2

    def powers(self):
        """Per-user transmit powers as a length-K array."""
        p = np.asarray(self.tx_power_w, dtype=float)
        return np.full(self.n_users, float(p)) if p.ndim == 0 else p.copy()

    def link_distances(self):
        """Center-to-center distances of the five links."""
        def pos(node):
            return np.asarray(getattr(self, f"pos_{node}"), dtype=float)

        return {name: float(np.linalg.norm(pos(a) - pos(b))) for name, (a, b) in LINK_ENDS.items()}

    def link_gain(self, name, distance=None):
        """Linear path gain of one link including the aperture multiplier; finite and positive."""
        d = self.link_distances()[name] if distance is None else distance
        pl = path_loss_linear(d, self.alpha[name], self.gamma0_db)
        irs_ends = sum(end.startswith("irs") for end in LINK_ENDS[name])
        with np.errstate(over="ignore"):  # a float ** that overflows raises, a float64 one gives inf
            gain = float(pl * np.float64(self.aperture_gain) ** irs_ends)
        if not 0.0 < gain < math.inf:
            raise ValueError(f"path gain at {d} m times aperture_gain {self.aperture_gain} "
                             "is not a finite positive number")
        return gain

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if isinstance(d.get("links"), dict):
            d["links"] = {k: LinkModel(**v) for k, v in d["links"].items()}
        for key in ("pos_bs", "pos_irs1", "pos_irs2", "pos_users"):
            if isinstance(d.get(key), list):
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


def array_response(shape, direction, spacing=0.5):
    """Steering vector of a (rows, cols) array toward (azimuth, elevation) in radians.

    Entries are unit modulus with the first element as phase reference
    (exactly 1).  Rows are stacked vertically, so the response is the
    Kronecker product of the vertical and horizontal ULA responses; a ULA of
    n elements is the shape (1, n), whose vertical response is exactly [1].
    """
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    n_v, n_h = shape
    if n_v < 1 or n_h < 1:
        raise ValueError("array size must be >= 1")
    az, el = direction
    u_h = math.sin(az) * math.cos(el)
    u_v = math.sin(el)
    a_h = np.exp(2j * math.pi * spacing * np.arange(n_h) * u_h)
    a_v = np.exp(2j * math.pi * spacing * np.arange(n_v) * u_v)
    return np.kron(a_v, a_h)


class _Node:
    """One link end: a (rows, cols) array in its local frame, or a user (`shape` None)."""

    def __init__(self, shape, origin, normal_azimuth=0.0, spacing=0.5):
        self.shape = shape
        self.size = 1 if shape is None else shape[0] * shape[1]
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = spacing
        c, s = math.cos(normal_azimuth), math.sin(normal_azimuth)
        self.normal = np.array([c, s, 0.0])
        self.horiz = np.array([-s, c, 0.0])
        self.vert = np.array([0.0, 0.0, 1.0])

    def steer_toward(self, point):
        """Response toward `point`: 1 for a user, else along the unit vector to it."""
        if self.shape is None:
            return np.ones(1, dtype=complex)
        d = np.asarray(point, dtype=float) - self.origin
        norm = np.linalg.norm(d)
        if norm <= 0:
            raise ValueError("coincident nodes give a degenerate geometry")
        d = d / norm
        el = math.asin(max(-1.0, min(1.0, float(d @ self.vert))))
        az = math.atan2(float(d @ self.horiz), float(d @ self.normal))
        return array_response(self.shape, (az, el), self.spacing)

    def steer_random(self, rng):
        if self.shape is None:
            return np.ones(1, dtype=complex)
        # uniform over the front half-space of the array
        az = rng.uniform(-math.pi / 2, math.pi / 2)
        el = rng.uniform(-math.pi / 2, math.pi / 2)
        return array_response(self.shape, (az, el), self.spacing)


def _nodes(scn: SystemScenario, m1, m2):
    # the BS and IRS nodes; BS elements run along the global y axis (normal toward +x)
    return {
        "bs": _Node((1, scn.n_bs), scn.pos_bs, 0.0, scn.spacing),
        "irs1": _Node(ura_shape(m1), scn.pos_irs1, scn.irs1_azimuth, scn.spacing),
        "irs2": _Node(ura_shape(m2), scn.pos_irs2, scn.irs2_azimuth, scn.spacing),
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
    out = 0
    for _ in range(n_paths):
        a_rx, a_tx = rx_steering(rng), tx_steering(rng)
        rho = rho_bar * np.exp(2j * math.pi * rng.uniform())
        out = out + rho * np.outer(a_rx, a_tx.conj())
    return out


def _draw_link(scenario: SystemScenario, name, model: LinkModel, rx: _Node, tx: _Node, rng):
    """One realization of link `name` (fading `model`) from node `tx` to node `rx`;
    its path gain uses the distance between them.  An empty end draws nothing."""
    if rx.size == 0 or tx.size == 0:
        return np.zeros((rx.size, tx.size), dtype=complex)
    gain = scenario.link_gain(name, float(np.linalg.norm(rx.origin - tx.origin)))
    if model.kind == "rician":
        los = np.outer(rx.steer_toward(tx.origin), tx.steer_toward(rx.origin).conj())
        return rician_link(los, model.rician_k, gain, rng)
    rho_bar = math.sqrt(gain / model.paths)
    return geometric_link(model.paths, rx.steer_random, tx.steer_random, rho_bar, rng)


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
            if not np.all(np.abs(np.abs(th) - 1.0) <= 2e-9):  # np.allclose(., 1, rtol=atol=1e-9)
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
        """H (..., N, K): G2 (theta2 o (D (theta1 o U1) + U2)) + G1 (theta1 o U1), batched."""
        t1, t2 = np.asarray(theta1), np.asarray(theta2)
        if (m := (t1.shape[-1], t2.shape[-1])) != (self.m1, self.m2):
            raise ValueError(f"pattern {m} does not match channels {self.m1, self.m2}")
        x1 = t1[..., :, None] * self.u1
        return self.g2 @ (t2[..., :, None] * (self.d @ x1 + self.u2)) + self.g1 @ x1

    def affine(self, block, theta_other):
        """(A, c) with h_k = A[k] @ theta_block + c[:, k], the other IRS fixed.

        A has shape (..., K, N, M_block) and c (..., N, K), batched like theta_other:
          block 2: A_k = G2 diag(D Phi1 u1_k + u2_k),  c_k = G1 Phi1 u1_k;
          block 1: A_k = (G2 Phi2 D + G1) diag(u1_k),  c_k = G2 Phi2 u2_k.
        """
        if block not in (1, 2):
            raise ValueError(f"block must be 1 or 2, got {block!r}")
        t = np.asarray(theta_other, dtype=complex)
        if t.shape[-1] != (self.m2 if block == 1 else self.m1):
            raise ValueError(f"theta{3 - block} length does not match the channel set")
        if block == 2:
            x1 = t[..., :, None] * self.u1
            a = self.g2 * np.swapaxes(self.d @ x1 + self.u2, -1, -2)[..., :, None, :]
            return a, self.g1 @ x1
        b = self.g2 @ (t[..., :, None] * self.d) + self.g1
        return b[..., None, :, :] * self.u1.T[:, None, :], self.g2 @ (t[..., :, None] * self.u2)


def build_double_irs_scenario(scenario: SystemScenario, rng) -> ChannelSet:
    """Draw all five links of the double-IRS system for one realization.

    Deterministic given (scenario, state of the generator `rng`): users are
    placed uniformly in a horizontal disk around the cluster center, then the
    links are drawn in the fixed order u1, u2, d, g1, g2.
    """
    k = scenario.n_users

    # user drop: uniform in a disk of cluster_radius around the center
    center = np.asarray(scenario.pos_users, dtype=float)
    radius = scenario.cluster_radius * np.sqrt(rng.uniform(size=k))
    angle = rng.uniform(0.0, 2 * math.pi, size=k)
    users = center[None, :] + np.stack(
        [radius * np.cos(angle), radius * np.sin(angle), np.zeros(k)], axis=1
    )

    nodes = _nodes(scenario, scenario.m1, scenario.m2)
    nodes["users"] = [_Node(None, pos) for pos in users]
    links = {}
    for name, (rx, tx) in LINK_ENDS.items():
        # a user link is one column per user, each drawn as its own link
        ends = nodes[tx] if tx == "users" else [nodes[tx]]
        draws = [_draw_link(scenario, name, scenario.links[name], nodes[rx], e, rng) for e in ends]
        links[name] = np.concatenate(draws, axis=1)
    return ChannelSet.from_links(**links)


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


def check_baseline_A2_ranks(scenario: SystemScenario, rank_g, rank_u):
    """Raise ValueError unless the A2 baseline of `scenario` can have these link ranks."""
    n, m, k = scenario.n_bs, scenario.m_total, scenario.n_users
    if not (1 <= rank_g <= min(n, m)):
        raise ValueError(f"rank_g={rank_g} infeasible for a {n}x{m} link")
    if not (1 <= rank_u <= min(m, k)):
        raise ValueError(f"rank_u={rank_u} infeasible for a {m}x{k} link")


def build_single_irs_baseline_A2(scenario: SystemScenario, rank_g, rank_u, rng) -> ChannelSet:
    """Single-IRS baseline with prescribed link ranks (multi-user setting).

    All M subsurfaces sit at the IRS2 position.  The IRS->BS link is drawn
    with `rank_g` scatterers and the user->IRS link with `rank_u` shared
    scatterers, so the numerical ranks match the paired double-IRS scenario's
    g2/u2 link ranks.  The ranks must pass `check_baseline_A2_ranks`.
    """
    check_baseline_A2_ranks(scenario, rank_g, rank_u)
    n, m, k = scenario.n_bs, scenario.m_total, scenario.n_users
    nodes = _nodes(scenario, 0, m)  # all M subsurfaces at the IRS2 position
    irs = nodes["irs2"]
    gbar = _draw_link(scenario, "g2", LinkModel("geometric", paths=rank_g), nodes["bs"], irs, rng)

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

