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
target it returns is one its Psi reaches.

Instances are tiny (dimension M'+1 up to a few dozen) and one bisection runs
many checks, so on the smallest ones an interior-point iteration costs numpy
call overhead more than arithmetic, and it is written to make few calls.  The
homogenized blocks B_{k,j} of an instance are built once, in one vectorized
pass, and the K margin matrices C_k are flattened to the rows of one
(K, n*n) array, so every trace tr(C_k X) and every weighted sum
sum_k mu_k C_k is one matrix product.  The primal and dual step lengths of a
Newton direction come from one eigvalsh of a stacked (2, n, n) array.  A
target's constraint data (C_k, e_k) is a pure function of the instance and
the target, built wherever it is needed; only a plain check takes sigma_k.

An instance holds only (q, qbar, noise) and is a pure function of the channel
realization and the fixed variables it was built from, so it has no file
form and no state: code that needs one again rebuilds it from the seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-6  # constraints satisfied within this relative slack count as feasible
MAX_ITER = 100  # interior-point iterations (Newton systems) per check
GAP_TOL = 1e-9  # duality gap at which a check without a certificate ends
STEP_FRACTION = 0.95  # share of the way to the cone boundary a step may go


@dataclass
class MaxMinSdpInstance:
    """Data of one reflect-vector subproblem in homogenized form.

    q[k, j] is the length-M' vector and qbar[k, j] the scalar such that the
    user-j term seen by receiver k equals |q^H theta + qbar|^2; noise[k] is
    the receiver-k noise power.  The homogenization matrices B_{k,j} are
    derived on demand.
    """

    q: np.ndarray      # (K, K, M') complex
    qbar: np.ndarray   # (K, K) complex
    noise: np.ndarray  # (K,) float

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=complex)
        self.qbar = np.asarray(self.qbar, dtype=complex)
        self.noise = np.asarray(self.noise, dtype=float)
        k = self.q.shape[0]
        if self.q.ndim != 3 or self.q.shape[1] != k:
            raise ValueError("q must have shape (K, K, M')")
        if self.qbar.shape != (k, k) or self.noise.shape != (k,):
            raise ValueError("qbar/noise inconsistent with q")
        if np.any(self.noise <= 0):
            raise ValueError("noise terms must be positive")

    @property
    def n_users(self):
        return self.q.shape[0]

    @property
    def dim(self):
        return self.q.shape[2]

    @functools.cached_property
    def _margin_parts(self):
        """(B_kk, sum_{j!=k} B_kj, |qbar_kk|^2, sum_{j!=k} |qbar_kj|^2 + noise_k) over k."""
        b = _homogenized(self.q, self.qbar)  # every B_kj, shape (K, K, M'+1, M'+1)
        k = self.n_users
        users = np.arange(k)
        others = users[:, None] != users[None, :]  # row k picks j != k in index order
        qb2 = np.abs(self.qbar) ** 2
        interf = b[others].reshape((k, k - 1) + b.shape[2:]).sum(axis=1)
        e_interf = qb2[others].reshape(k, k - 1).sum(axis=1) + self.noise
        return b[users, users], interf, qb2[users, users], e_interf

    def sinr_values(self, theta):
        """Per-user SINRs of one unit-modulus theta or a batch (C, M')."""
        theta = np.asarray(theta, dtype=complex)
        batched = theta.ndim == 2
        th = theta if batched else theta[None, :]
        # p[c, k, j] = |q_{k,j}^H theta_c + qbar_{k,j}|^2
        p = np.abs(np.einsum("kjp,cp->ckj", self.q.conj(), th) + self.qbar[None, :, :]) ** 2
        sig = np.einsum("ckk->ck", p)
        interf = p.sum(axis=2) - sig
        out = sig / (interf + self.noise[None, :])
        return out if batched else out[0]

    def min_sinr(self, theta):
        vals = self.sinr_values(theta)
        return vals.min(axis=-1)

    def powers(self, psi):
        """(N_k, D_k): signal and interference-plus-noise power of each user at a
        unit-diagonal Psi; [theta; 1][theta; 1]^H gives the exact SINRs of theta."""
        b_own, b_interf, e_own, e_interf = self._margin_parts
        return (np.einsum("kij,ji->k", b_own, psi).real + e_own,
                np.einsum("kij,ji->k", b_interf, psi).real + e_interf)


def _homogenized(q, qbar):
    """[[q q^H, qbar q], [conj(qbar) q^H, 0]] for q (..., M') and qbar (...)."""
    n = q.shape[-1] + 1
    qc = q.conj()
    b = np.zeros(q.shape[:-1] + (n, n), dtype=complex)
    b[..., :-1, :-1] = q[..., :, None] * qc[..., None, :]
    b[..., :-1, -1] = qbar[..., None] * q
    b[..., -1, :-1] = np.conj(qbar)[..., None] * qc
    return b


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
    b_own, b_interf, e_own, e_interf = inst._margin_parts
    return b_own - delta * b_interf, e_own - delta * e_interf


def feasibility_check(inst: MaxMinSdpInstance, delta, scales=None, gap_tol=None) -> PsdSolution:
    """Decide whether the SINR target `delta` is achievable in relaxation.

    Runs the max-margin solve of `_solve_max_margin`.  'feasible': the
    returned Psi has unit diagonal, is positive definite and its margins
    exceed s >= -FEAS_TOL.  'infeasible': `_dual_bound` at the returned
    `dual` = (mu / scales, nu) is below -FEAS_TOL.

    A plain check takes sigma_k = max(||C_k||_F, |e_k|) as scales.
    `bisection_maxmin` passes `scales` on every solve, D_k of its best
    verified Psi, so it never takes sigma; its Dinkelbach steps also pass a
    `gap_tol` (see `_solve_max_margin`).
    """
    if not math.isfinite(delta) or delta < 0:
        raise ValueError(f"SINR target must be finite and non-negative, got {delta!r}")
    c_mats, e = _constraint_data(inst, delta)
    if scales is None:
        scales = np.array([max(np.linalg.norm(c_mats[j]), abs(e[j]), 1e-300) for j in range(len(e))])
    return _solve_max_margin(float(delta), c_mats, e, scales, gap_tol)


def _solve_max_margin(delta, c_mats, e, scales, gap_tol=None):
    """maximize s  s.t.  tr(C^_k Psi) + e^_k >= s,  diag(Psi) = 1,  Psi >= 0,

    with constraint k divided by sigma_k = scales[k], and its dual: minimize
    sum_k mu_k e^_k + sum_i nu_i  s.t.  sum(mu) = 1,  mu >= 0,
    Z = Diag nu - sum_k mu_k C^_k >= 0.  With g = margins - s, the duality
    gap is mu.g + tr(Z Psi).

    Feasible-start primal-dual path following from Psi = I, s one below the
    least margin, mu = 1/K and nu = (lambda_max(sum mu C^) + 1) 1.  Both
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
    exit dual.  `iterations` counts Newton systems.
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
    margins = tr_c(psi) + e_hat
    s = float(margins.min()) - 1.0
    mu = np.full(kk, 1.0 / kk)
    nu = np.full(n, np.linalg.eigvalsh(np.dot(mu, c_flat).reshape(n, n))[-1] + 1.0)

    def done(status, message, dual=None):
        return PsdSolution(psi, status, margins, s, delta, it, message, dual)

    for it in range(MAX_ITER + 1):
        g = margins - s
        if (g <= 0).any():  # safeguard, should not happen
            return done("numerical-failure", "primal iterate left the domain")
        try:
            l_inv[0] = np.linalg.inv(np.linalg.cholesky(psi))
        except np.linalg.LinAlgError:
            return done("numerical-failure", "primal iterate left the PSD cone")
        if s >= -FEAS_TOL and gap_tol is None:
            return done("feasible", "feasible margin")
        dual = (mu / scales, nu)
        proved = _dual_bound(c_mats, e, scales, dual[0][None], nu[None])[0] < -FEAS_TOL
        if proved and gap_tol is None:
            return done("infeasible", "dual bound certificate", dual)
        z = np.diag(nu) - np.dot(mu, c_flat).reshape(n, n)
        gap = mu @ g + np.vdot(z, psi).real
        if gap_tol is not None and gap <= max(gap_tol, 0.1 * s):  # either verdict waits for the gap
            if s >= -FEAS_TOL:
                return done("feasible", "duality gap closed", dual)
            if proved:
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


def matched_filter_bound(inst: MaxMinSdpInstance):
    """Interference-free upper bound on the achievable min SINR:
    min_k ((M'+1) max(lambda_max(B_kk), 0) + |qbar_kk|^2) / noise_k."""
    b_own, _, e_own, _ = inst._margin_parts
    lam = np.linalg.eigvalsh(b_own)[:, -1]  # lambda_max(B_kk) of every user
    return float((((inst.dim + 1) * np.maximum(lam, 0.0) + e_own) / inst.noise).min())


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
    quarter eps: "feasible" raises lo to the target or beyond, to what its Psi
    reaches, and "infeasible" closes the bracket at width eps.  Near rank one
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
    certified = 0
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
        res = feasibility_check(inst, target, scales=d_best, gap_tol=0.25 * eps)
        history.append((target, res.status))
        if res.status == "numerical-failure":
            break
        mu, nu = np.vstack([mu, res.dual[0]]), np.vstack([nu, res.dual[1]])
        n_k, d_k = inst.powers(res.psi)
        reach = max(target if res.feasible else 0.0, float((n_k / d_k).min()))
        if reach > lo:
            lo, best, d_best = reach, res.psi, d_k
        if not res.feasible:
            break
    return BisectionResult(min(lo, float(delta_hi)), best, lo >= delta_hi, history, certified)


@dataclass
class RandomizationResult:
    theta: np.ndarray        # recovered reflect vector of length M'
    objective: float         # true min SINR of theta on the instance
    candidates: int


def gaussian_randomization(psi, inst: MaxMinSdpInstance, n_rand, rng) -> RandomizationResult:
    """Recover a unit-modulus solution from a PSD relaxation solution.

    Draws `n_rand` Gaussian vectors with covariance Psi, projects entrywise
    to unit modulus, de-homogenizes via the auxiliary entry, and returns the
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
    cands = np.exp(1j * np.angle(cands))
    thetas = np.conj(cands[:, -1])[:, None] * cands[:, :-1]
    objs = inst.min_sinr(thetas)
    best = int(np.argmax(objs))
    return RandomizationResult(thetas[best], float(objs[best]), cands.shape[0])
