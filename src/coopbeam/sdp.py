"""Feasibility-check SDP solver and bisection driver for max-min SINR.

The per-target feasibility problem (does a unit-diagonal PSD matrix exist
meeting all SINR constraints?) is decided by maximizing the worst normalized
constraint margin with a primal-dual interior-point method over the complex
Hermitian cone (`_solve_max_margin`).  Each verdict carries its proof: a
feasible Psi is positive definite with worst margin at least -FEAS_TOL, and
an infeasible verdict carries dual weights (mu, nu) whose weak-duality bound
(`_dual_bound`) is below -FEAS_TOL.

The bisection (`bisection_maxmin`) is a certified bracket: its low end
starts at the exact min SINR of the incumbent's rank-one Psi, and one loop
of generalized Dinkelbach steps, each a solve at the low end plus eps,
raises it until a target is proved infeasible; a target that the same
bound proves infeasible at the exit dual of an earlier solve needs no
solve.  A step that fails numerically ends the loop at its low end, which a
verified Psi certifies.  Its solves and bounds divide constraint k by D_k,
the interference-plus-noise power of the best verified Psi, instead of
sigma_k, so the FEAS_TOL slack is about FEAS_TOL in SINR units and the
target it returns is one its Psi reaches.  Its first solve starts cold, from
Psi = I; each later one is warm-started from the previous solve's exit
iterate, since consecutive steps differ only in the target and the scales.

Instances are tiny (dimension M'+1 up to a few dozen) and one bisection runs
many checks, so on the smallest ones an interior-point iteration costs numpy
call overhead more than arithmetic, and it is written to make few calls.  The
own and interference Grams of an instance are built once, each in one
vectorized pass, and the K margin matrices C_k are flattened to the rows of
one (K, n*n) array, so every trace tr(C_k X) and every weighted sum
sum_k mu_k C_k is one matrix product.  The primal and dual step lengths of a
Newton direction come from one eigvalsh of a stacked (2, n, n) array.  A
target's constraint data (C_k, e_k) is a pure function of the instance and
the target, built wherever it is needed; only a plain check takes sigma_k.

An instance holds only (v, noise) and is a pure function of the channel
realization and the fixed variables it was built from, so it has no file
form and no state: code that needs one again rebuilds it from the seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import dehomogenize

FEAS_TOL = 1e-6  # constraints satisfied within this relative slack count as feasible
MAX_ITER = 100  # interior-point iterations (Newton systems) per check
GAP_TOL = 1e-9  # duality gap at which a check without a certificate ends
STEP_FRACTION = 0.95  # share of the way to the cone boundary a step may go
WARM_BLEND = 0.005  # weight of the cold start in a warm start, see _solve_max_margin


@dataclass
class MaxMinSdpInstance:
    """Data of one reflect-vector subproblem in homogeneous form.

    With theta~ = [theta; 1], the user-j term seen by receiver k is
    |v[k, j]^H theta~|^2 for the length-(M'+1) vector v[k, j]; noise[k] is the
    receiver-k noise power.  At a unit-diagonal Psi, standing for
    theta~ theta~^H, that term is tr(v v^H Psi), so the constraint data are
    the Grams of `grams`, derived on demand.
    """

    v: np.ndarray      # (K, K, M'+1) complex
    noise: np.ndarray  # (K,) float

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=complex)
        self.noise = np.asarray(self.noise, dtype=float)
        k = self.v.shape[0]
        if self.v.ndim != 3 or self.v.shape[1] != k or self.v.shape[2] < 1:
            raise ValueError("v must have shape (K, K, M'+1)")
        if self.noise.shape != (k,):
            raise ValueError("noise inconsistent with v")
        if np.any(self.noise <= 0):
            raise ValueError("noise terms must be positive")

    @property
    def n_users(self):
        return self.v.shape[0]

    @property
    def dim(self):
        return self.v.shape[2] - 1

    @functools.cached_property
    def grams(self):
        """(v_kk v_kk^H, sum_{j!=k} v_kj v_kj^H) over k.  The interference Gram is one product of
        v with its j = k entries zeroed: a total minus the much larger own term would cancel it."""
        users = np.arange(self.n_users)
        own = self.v[users, users]
        others = self.v.copy()
        others[users, users] = 0.0
        return own[:, :, None] * own.conj()[:, None, :], others.swapaxes(1, 2) @ others.conj()

    def sinr_values(self, theta):
        """Per-user SINRs of one unit-modulus theta or a batch (C, M')."""
        theta = np.asarray(theta, dtype=complex)
        tilde = np.concatenate([theta, np.ones(theta.shape[:-1] + (1,))], axis=-1)
        p = np.abs(np.einsum("kjp,...p->...kj", self.v.conj(), tilde)) ** 2  # |v_kj^H theta~|^2
        sig = np.einsum("...kk->...k", p)
        return sig / (p.sum(axis=-1) - sig + self.noise)

    def min_sinr(self, theta):
        return self.sinr_values(theta).min(axis=-1)

    def powers(self, psi):
        """(N_k, D_k): signal and interference-plus-noise power of each user at a
        unit-diagonal Psi; theta~ theta~^H gives the exact SINRs of theta."""
        own, interf = self.grams
        return (np.einsum("kij,ji->k", own, psi).real,
                np.einsum("kij,ji->k", interf, psi).real + self.noise)


@dataclass
class PsdSolution:
    """Result of one feasibility check at a fixed SINR target."""

    psi: np.ndarray
    status: str                 # feasible | infeasible | numerical-failure
    margins: np.ndarray         # normalized constraint margins at psi
    s: float                    # epigraph variable of the exit iterate, below every margin
    delta: float
    iterations: int
    message: str = ""
    dual: tuple | None = None   # exit (mu, nu) of an infeasible verdict or a gap_tol solve, see _dual_bound

    @property
    def feasible(self):
        return self.status == "feasible"


def _constraint_data(inst: MaxMinSdpInstance, delta):
    """Pure (C_k, e_k) over k at target delta: constraint k reads tr(C_k Psi) + e_k >= 0."""
    own, interf = inst.grams
    return own - delta * interf, -delta * inst.noise


def feasibility_check(inst: MaxMinSdpInstance, delta, scales=None, gap_tol=None,
                      start=None) -> PsdSolution:
    """Decide whether the SINR target `delta` is achievable in relaxation.

    Runs the max-margin solve of `_solve_max_margin`.  'feasible': the
    returned Psi has unit diagonal, is positive definite and its margins
    exceed s >= -FEAS_TOL.  'infeasible': `_dual_bound` at the returned
    `dual` = (mu / scales, nu) is below -FEAS_TOL.

    A plain check takes sigma_k = max(||C_k||_F, |e_k|) as scales.
    `bisection_maxmin` passes `scales` on every solve, D_k of its best
    verified Psi, so it never takes sigma; its Dinkelbach steps also pass a
    `gap_tol` and, after the first, the previous step's exit as `start`:
    (psi, dual) of an earlier solve on the same instance (see
    `_solve_max_margin`).
    """
    if not math.isfinite(delta) or delta < 0:
        raise ValueError(f"SINR target must be finite and non-negative, got {delta!r}")
    if start is not None:
        psi, (mu, nu) = start
        n = inst.dim + 1
        if np.shape(psi) != (n, n) or np.shape(mu) != (inst.n_users,) or np.shape(nu) != (n,):
            raise ValueError("start must be (Psi, (mu, nu)) of shapes (n, n), (K,) and (n,)")
    c_mats, e = _constraint_data(inst, delta)
    if scales is None:
        scales = np.array([max(np.linalg.norm(c_mats[j]), abs(e[j]), 1e-300) for j in range(len(e))])
    return _solve_max_margin(float(delta), c_mats, e, scales, gap_tol, start)


def _solve_max_margin(delta, c_mats, e, scales, gap_tol=None, start=None):
    """maximize s  s.t.  tr(C^_k Psi) + e^_k >= s,  diag(Psi) = 1,  Psi >= 0,

    with constraint k divided by sigma_k = scales[k], and its dual: minimize
    sum_k mu_k e^_k + sum_i nu_i  s.t.  sum(mu) = 1,  mu >= 0,
    Z = Diag nu - sum_k mu_k C^_k >= 0.  With g = margins - s, the duality
    gap is mu.g + tr(Z Psi).

    Feasible-start primal-dual path following.  The cold start is Psi = I,
    s one below the least margin, mu = 1/K and
    nu = (lambda_max(sum mu C^) + 1) 1.  A warm start (Yildirim and Wright
    2002; Skajaa, Andersen and Ye 2013) takes `start` = (Psi', (mu', nu')),
    an earlier solve's exit Psi and dual, and moves it the share
    tau = WARM_BLEND towards the cold start: Psi = (1 - tau) Psi' + tau I,
    which keeps the unit diagonal and is positive definite; s one below its
    least margin; mu = (1 - tau) m / sum(m) + tau / K with m = mu' sigma,
    the earlier weights in this solve's scales; and nu = (1 - tau) nu' +
    tau nu_cold, each entry raised by one amount until lambda_min(Z) >= tau.
    With tau = 0.005 the bundled specs at their shipped draws take 20% fewer
    Newton steps than from cold starts, with no failed solve.  Both
    iterates stay exactly feasible: a step leaves diag Psi alone, and g and
    Z are rebuilt from the variables.  Each iteration forms one reduced
    Newton system of the HKM direction (Helmberg, Rendl, Vanderbei and
    Wolkowicz 1996) in (d_nu, d_mu, d_s), of size n + K + 1, and solves it
    for Mehrotra's (1992) predictor and then his corrector.

    The verdict is read before each step: 'feasible' once s >= -FEAS_TOL at
    a Psi whose Cholesky factor exists, 'infeasible' once `_dual_bound` at
    (mu / sigma, nu) is below -FEAS_TOL.  With `gap_tol` set, either verdict
    also waits for a duality gap of at most max(gap_tol, 0.1 s), so the Psi
    it returns is near the max-margin optimum on both sides, and returns the
    exit dual; the bound is then evaluated only once that gap test passes
    with s < -FEAS_TOL, the one place its value can end the solve.
    `iterations` counts Newton systems.
    """
    kk, n = c_mats.shape[0], c_mats.shape[1]
    c_hat = c_mats / scales[:, None, None]
    e_hat = e / scales
    c_flat = c_hat.reshape(kk, n * n)

    def tr_c(x):
        """tr(C^_k X) for every k."""
        return (c_flat @ x.T.ravel()).real

    def step_lengths(d_psi, d_z, d_g, d_mu):
        """STEP_FRACTION of the way to the edge of {Psi + a d_Psi >= 0, g + a d_g >= 0} and of
        {Z + a d_Z >= 0, mu + a d_mu >= 0}, at most 1.  Both cone edges come from one eigvalsh
        of the stack L^-1 (d_Psi, d_Z) L^-H, with L L^H = Psi and Z."""
        d_mats[0], d_mats[1] = d_psi, d_z
        lam = np.linalg.eigvalsh(l_inv @ d_mats @ l_inv_h)[:, 0]
        out = []
        for low, v, dv in ((lam[0], g, d_g), (lam[1], mu, d_mu)):
            rate = max(-low, float((-dv / v).max()), 0.0)
            out.append(min(1.0, STEP_FRACTION / rate) if rate > 0 else 1.0)
        return out

    # Newton system in (d_nu, d_mu, d_s) with W = Z^{-1}, P_ik = Re(W C^_k Psi)_ii and
    # M_kl = Re tr(C^_k W C^_l Psi): [[Re(W o conj Psi), -P, 0], [-P^T, M + Diag(g/mu), -1],
    # [0, -1^T, 0]]; the constant blocks and the right-hand side's last entry are set once,
    # the rest every iteration
    a_sys = np.zeros((n + kk + 1, n + kk + 1))
    a_sys[n:-1, -1] = a_sys[-1, n:-1] = -1.0
    m_diag = (n + np.arange(kk),) * 2
    rhs = np.zeros(n + kk + 1)
    l_inv = np.empty((2, n, n), dtype=complex)  # inverse Cholesky factors of Psi and Z
    d_mats = np.empty((2, n, n), dtype=complex)  # a step's d_Psi and d_Z

    psi = np.eye(n, dtype=complex)
    mu = np.full(kk, 1.0 / kk)
    nu = np.full(n, np.linalg.eigvalsh(np.dot(mu, c_flat).reshape(n, n))[-1] + 1.0)
    if start is not None:
        psi, mu, nu = _warm_start(start, c_flat, scales, mu, nu)
    margins = tr_c(psi) + e_hat
    s = float(margins.min()) - 1.0

    def done(status, message, dual=None):
        return PsdSolution(psi, status, margins, s, delta, it, message, dual)

    def proved():
        """`_dual_bound` at the current (mu / sigma, nu) is below -FEAS_TOL."""
        return _dual_bound(c_mats, e, scales, (mu / scales)[None], nu[None])[0] < -FEAS_TOL

    for it in range(MAX_ITER + 1):
        g = margins - s
        if (g <= 0).any():  # safeguard, should not happen
            return done("numerical-failure", "primal iterate left the domain")
        try:
            l_inv[0] = np.linalg.inv(np.linalg.cholesky(psi))
        except np.linalg.LinAlgError:
            return done("numerical-failure", "primal iterate left the PSD cone")
        dual = (mu / scales, nu)
        if gap_tol is None:
            if s >= -FEAS_TOL:
                return done("feasible", "feasible margin")
            if proved():
                return done("infeasible", "dual bound certificate", dual)
        z = np.diag(nu) - np.dot(mu, c_flat).reshape(n, n)
        gap = mu @ g + np.vdot(z, psi).real
        if gap_tol is not None and gap <= max(gap_tol, 0.1 * s):  # either verdict waits for the gap
            if s >= -FEAS_TOL:
                return done("feasible", "duality gap closed", dual)
            if proved():  # the certificate is tested only where a verdict can use it
                return done("infeasible", "dual bound certificate", dual)
        if gap <= GAP_TOL:  # no certificate either way, and s < -FEAS_TOL
            return done("infeasible", "duality gap closed", dual)
        if it == MAX_ITER:
            return done("numerical-failure", "interior-point iteration cap")
        try:
            l_inv[1] = np.linalg.inv(np.linalg.cholesky(z))
        except np.linalg.LinAlgError:
            return done("numerical-failure", "dual iterate left the PSD cone")
        l_inv_h = l_inv.conj().transpose(0, 2, 1)
        w = l_inv_h[1] @ l_inv[1]     # Z^{-1}
        t_mats = w @ c_hat @ psi      # W C^_k Psi
        t_flat = t_mats.reshape(kk, n * n)
        p_mat = np.diagonal(t_mats, axis1=1, axis2=2).real.T
        a_sys[:n, :n] = (w * psi.conj()).real
        a_sys[:n, n:-1] = -p_mat
        a_sys[n:-1, :n] = -p_mat.T
        a_sys[n:-1, n:-1] = (c_flat @ t_mats.transpose(0, 2, 1).reshape(kk, n * n).T).real
        a_sys[m_diag] += g / mu

        def direction(r_mat, r_g):
            """Step with d_Psi = R - sym(W d_Z Psi), zero diagonal, mu d_g + g d_mu = r_g; and its lengths."""
            rhs[:n] = np.diagonal(r_mat).real
            rhs[n:-1] = r_g / mu - tr_c(r_mat)
            sol = np.linalg.solve(a_sys, rhs)
            d_nu, d_mu, d_s = sol[:n], sol[n:-1], sol[-1]
            d_psi = r_mat - (w * d_nu) @ psi + np.dot(d_mu, t_flat).reshape(n, n)
            d_psi = 0.5 * (d_psi + d_psi.conj().T)
            np.fill_diagonal(d_psi, 0.0)
            d_z = np.diag(d_nu) - np.dot(d_mu, c_flat).reshape(n, n)
            d_g = tr_c(d_psi) - d_s
            a_p, a_d = step_lengths(d_psi, d_z, d_g, d_mu)
            return d_psi, d_s, d_g, d_nu, d_mu, d_z, a_p, a_d

        try:
            d_psi, _, d_g, _, d_mu, d_z, a_p, a_d = direction(-psi, -mu * g)  # predictor
            gap_aff = (mu + a_d * d_mu) @ (g + a_p * d_g) + np.vdot(z + a_d * d_z, psi + a_p * d_psi).real
            target = (gap_aff / gap) ** 3 * gap / (n + kk)  # Mehrotra's centering sigma * tau
            d_psi, d_s, _, d_nu, d_mu, _, a_p, a_d = direction(
                target * w - psi - w @ d_z @ d_psi, target - mu * g - d_mu * d_g
            )
        except np.linalg.LinAlgError as err:
            return done("numerical-failure", f"Newton step failed: {err}")
        psi = psi + a_p * d_psi
        s += a_p * d_s
        mu = mu + a_d * d_mu
        nu = nu + a_d * d_nu
        margins = tr_c(psi) + e_hat


def _warm_start(start, c_flat, scales, mu_cold, nu_cold):
    """(Psi, mu, nu) of a warm start from `start` = (Psi', (mu', nu')) for the flattened
    normalized C^_k of `c_flat`, each moved the share WARM_BLEND towards the cold start
    (mu_cold, nu_cold, Psi = I); see `_solve_max_margin`."""
    tau = WARM_BLEND
    psi_prev, (mu_prev, nu_prev) = start
    n = len(nu_cold)
    psi = (1.0 - tau) * np.asarray(psi_prev, dtype=complex) + tau * np.eye(n)
    np.fill_diagonal(psi, 1.0)
    m = mu_prev * scales  # the earlier weights in this solve's scales
    mu = (1.0 - tau) * m / m.sum() + tau * mu_cold
    nu = (1.0 - tau) * nu_prev + tau * nu_cold
    z_min = np.linalg.eigvalsh(np.diag(nu) - np.dot(mu, c_flat).reshape(n, n))[0]
    return psi, mu, nu + max(tau - z_min, 0.0)


def matched_filter_bound(inst: MaxMinSdpInstance):
    """Interference-free upper bound on the achievable min SINR:
    min_k ((M'+1) max(lambda_max(B_kk), 0) + |v_kk,M'|^2) / noise_k, with B_kk the
    own Gram v_kk v_kk^H with its corner set to 0.

    The exact interference-free optimum (sum_i |v_kk,i|)^2 / noise_k is tighter
    and needs no eigvalsh, but it is not used: the bisection stops once lo + eps
    reaches this bound, and with an exact bound a K = 1 bisection stops before
    its last solve, the one whose Psi raises lo (fig4's sdr loses about 0.06 bits
    at every power)."""
    own = inst.grams[0].copy()
    own[:, -1, -1] = 0.0
    lam = np.linalg.eigvalsh(own)[:, -1]  # lambda_max(B_kk) of every user
    corner = np.abs(np.diagonal(inst.v[:, :, -1])) ** 2
    return float((((inst.dim + 1) * np.maximum(lam, 0.0) + corner) / inst.noise).min())


def _dual_bound(c_mats, e, scales, mu, nu):
    """Weak-duality upper bounds on the best worst normalized margin at one target.

    (c_mats, e) is `_constraint_data` at the target.  Row d of `mu`
    (D, K) holds weights mu >= 0, row d of `nu` (D, n) any real vector.  For
    every Psi >= 0 with unit diagonal, min_k m_k <= sum_k mu_k sigma_k m_k / Z
    = (tr(M Psi) + sum_k mu_k e_k) / Z with Z = sum_k mu_k sigma_k and
    M = sum_k mu_k C_k, and tr(M Psi) = sum(nu) + tr((M - Diag nu) Psi) <=
    sum(nu) + n lam_max(M - Diag nu) since tr(Psi) = n (Boyd & Vandenberghe,
    section 5.9).  So each of the D bounds is valid whatever mu and nu are;
    they only decide how tight it is.  nu = 0 gives n lam_max(M).
    """
    d, n = nu.shape
    m = mu @ c_mats.reshape(len(e), n * n)
    m[:, :: n + 1] -= nu  # M - Diag nu
    lam = np.linalg.eigvalsh(m.reshape(d, n, n))[:, -1]
    return (mu @ e + nu.sum(axis=1) + n * lam) / (mu @ scales)


@dataclass
class BisectionResult:
    delta_star: float
    psi: np.ndarray  # the best verified Psi: the start's rank-one Psi or a solve's
    saturated: bool
    history: list = field(default_factory=list)  # (delta, status) pairs, one per target
    certified: int = 0  # targets decided infeasible by a dual bound, without a solve
    newton: int = 0  # Newton systems of its solves, the sum of their `iterations`


def bisection_maxmin(inst: MaxMinSdpInstance, theta, delta_hi, eps):
    """Largest SINR target up to delta_hi within eps of the relaxation's feasibility boundary.

    `eps` is an absolute SINR accuracy.  The low end lo starts at the exact
    min SINR of the unit-modulus start vector `theta`, whose rank-one Psi
    certifies it; every verified Psi a solve returns, feasible or not, may
    raise lo to its own min_k N_k / D_k.  A low end that reaches delta_hi
    returns delta_hi with the `saturated` flag set.

    Every solve and every `_dual_bound` test divides constraint k by D_k of
    the best verified Psi so far (`d_best`), the normalization of generalized
    fractional programming (Crouzeix, Ferland and Schaible 1985).  "Feasible"
    at target delta then means N_k >= delta D_k - FEAS_TOL D_k^best for every
    k, a slack of about FEAS_TOL in SINR units, far below any eps in use; so
    `psi`, the best verified Psi, reaches min_k N_k / D_k >= delta_star up to
    that slack.  `_dual_bound` holds for any positive scales, so an
    "infeasible" verdict keeps its proof.

    Each pass targets lo + eps.  The target is first tried against
    `_dual_bound` at the exit dual of every earlier solve (none on the first
    pass); a bound below -FEAS_TOL records it as infeasible without a solve,
    in `certified`.  Otherwise one generalized Dinkelbach step (Dinkelbach
    1967) solves the max-margin problem at the target to a duality gap of a
    quarter eps, warm-started from the previous step's exit (Psi, dual) after
    the first: "feasible" raises lo to the target or beyond, to what its Psi
    reaches, and "infeasible" closes the bracket at width eps; `newton` sums
    the steps' Newton systems.  Near rank one
    such a solve can fail numerically; its target goes into `history` as
    "numerical-failure" and the call ends at lo, which the best verified Psi
    certifies, so a failure costs at most the last eps.
    """
    theta = np.asarray(theta, dtype=complex)
    if theta.shape != (inst.dim,) or not np.all(np.abs(np.abs(theta) - 1.0) <= 2e-9):
        raise ValueError("start vector must be unit-modulus of length M'")
    if not math.isfinite(delta_hi):
        raise ValueError(f"upper SINR target must be finite, got {delta_hi!r}")
    if not math.isfinite(eps) or eps <= 0:
        raise ValueError(f"bisection accuracy must be finite and positive, got {eps!r}")
    history = []
    certified = newton = 0
    start = None  # the exit (Psi, dual) of the previous solve, the next solve's warm start
    # the exit dual (mu, nu) of each solve, tried at every later target as one batch
    mu, nu = np.empty((0, inst.n_users)), np.empty((0, inst.dim + 1))
    tilde = np.append(theta, 1.0)
    best = np.outer(tilde, tilde.conj())
    d_best = inst.powers(best)[1]
    lo = float(inst.min_sinr(theta))

    while lo + eps < delta_hi:
        target = lo + eps
        c_mats, e = _constraint_data(inst, target)
        if (_dual_bound(c_mats, e, d_best, mu, nu) < -FEAS_TOL).any():
            certified += 1
            history.append((target, "infeasible"))
            break
        res = feasibility_check(inst, target, scales=d_best, gap_tol=0.25 * eps, start=start)
        history.append((target, res.status))
        newton += res.iterations
        if res.status == "numerical-failure":
            break
        start = (res.psi, res.dual)
        mu, nu = np.vstack([mu, res.dual[0]]), np.vstack([nu, res.dual[1]])
        n_k, d_k = inst.powers(res.psi)
        reach = max(target if res.feasible else 0.0, float((n_k / d_k).min()))
        if reach > lo:
            lo, best, d_best = reach, res.psi, d_k
        if not res.feasible:
            break
    return BisectionResult(min(lo, float(delta_hi)), best, lo >= delta_hi, history, certified, newton)


@dataclass
class RandomizationResult:
    theta: np.ndarray        # recovered reflect vector of length M'
    objective: float         # true min SINR of theta on the instance
    candidates: int


def gaussian_randomization(psi, inst: MaxMinSdpInstance, n_rand, rng) -> RandomizationResult:
    """Recover a unit-modulus solution from a PSD relaxation solution.

    Draws `n_rand` Gaussian vectors with covariance Psi, turns each into a
    reflect vector with `dehomogenize`, and returns the
    candidate with the best true min SINR.  The dominant eigenvector is
    always included as a candidate, which makes rank-one relaxations exact.
    """
    if n_rand < 1:
        raise ValueError("candidate count must be >= 1")
    psi = np.asarray(psi, dtype=complex)
    n = psi.shape[0]
    if n != inst.dim + 1:
        raise ValueError("Psi dimension does not match the instance")
    lam, vec = np.linalg.eigh(0.5 * (psi + psi.conj().T))
    lam = np.maximum(lam, 0.0)
    factor = vec * np.sqrt(lam)[None, :]
    z = (rng.standard_normal((n_rand, n)) + 1j * rng.standard_normal((n_rand, n))) / math.sqrt(2)
    draws = z @ factor.T.conj()
    cands = np.concatenate([vec[:, -1][None, :], draws], axis=0)
    thetas = dehomogenize(cands)
    objs = inst.min_sinr(thetas)
    best = int(np.argmax(objs))
    return RandomizationResult(thetas[best], float(objs[best]), cands.shape[0])
