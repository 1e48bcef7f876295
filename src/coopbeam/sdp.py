"""Feasibility-check SDP solver and bisection driver for max-min SINR.

The per-target feasibility problem (does a unit-norm-diagonal PSD matrix
exist meeting all SINR constraints?) is decided by maximizing the worst
normalized constraint margin with a log-barrier path-following method over
the complex Hermitian cone.  The margin sign at the certified optimum gives
the feasibility verdict; a duality-gap certificate allows early exit on
clearly feasible/infeasible targets.

Instances are tiny (dimension M'+1 up to a few dozen) and one bisection runs
many checks, so each Newton step is a few BLAS calls.  The homogenized
blocks B_{k,j} of an instance are built in one vectorized pass per check,
and the K margin matrices C_k are flattened to the rows of one (K, n*n)
array, so every trace tr(C_k X) and tr(C_k Psi C_l Psi) is a matrix
product.  The step is assembled in closed form through the inverse Hessian
of the log-det barrier, and one Cholesky factor of Psi per step serves both
Psi^{-1} and the step-length bound that keeps the iterate positive definite.

An instance holds only (q, qbar, noise) and is a pure function of the channel
realization and the fixed variables it was built from, so it has no file
form: code that needs one again rebuilds it from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-6  # constraints satisfied within this relative slack count as feasible


class SdpSolverError(RuntimeError):
    """Interior-point solve failed numerically (never silently infeasible)."""


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

    def constraint_matrix(self, k, j):
        """Homogenized Hermitian B_{k,j} with zero bottom-right entry."""
        return _homogenized(self.q[k, j], self.qbar[k, j])

    def all_constraint_matrices(self):
        """Every B_{k,j} at once, shape (K, K, M'+1, M'+1)."""
        return _homogenized(self.q, self.qbar)

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
    s: float                    # certified worst margin (max-margin value)
    delta: float
    iterations: int
    message: str = ""

    @property
    def feasible(self):
        return self.status == "feasible"


def _constraint_data(inst: MaxMinSdpInstance, delta):
    """Margin data: constraint k reads tr(C_k Psi) + e_k >= 0."""
    b = inst.all_constraint_matrices()
    k = inst.n_users
    users = np.arange(k)
    others = users[:, None] != users[None, :]  # row k picks j != k in index order
    qb2 = np.abs(inst.qbar) ** 2
    interf = b[others].reshape((k, k - 1) + b.shape[2:]).sum(axis=1)
    c_mats = b[users, users] - delta * interf
    e = qb2[users, users] - delta * (qb2[others].reshape(k, k - 1).sum(axis=1) + inst.noise)
    return c_mats, e


def feasibility_check(
    inst: MaxMinSdpInstance, delta, feas_tol=FEAS_TOL, max_newton=60
) -> PsdSolution:
    """Decide whether the SINR target `delta` is achievable in relaxation.

    Runs the max-margin barrier solve; status is 'feasible' when the worst
    normalized margin is >= -feas_tol.  The returned Psi has unit diagonal and
    is strictly positive definite.
    """
    if delta < 0:
        raise ValueError("SINR target must be non-negative")
    c_mats, e = _constraint_data(inst, delta)
    scales = np.array(
        [max(np.linalg.norm(c_mats[k]), abs(e[k]), 1e-300) for k in range(inst.n_users)]
    )
    c_hat = c_mats / scales[:, None, None]
    e_hat = e / scales
    s, psi, margins, iters, ok, msg = _solve_max_margin(c_hat, e_hat, feas_tol, max_newton)
    if not ok:
        return PsdSolution(psi, "numerical-failure", margins, s, float(delta), iters, msg)
    status = "feasible" if s >= -feas_tol else "infeasible"
    return PsdSolution(psi, status, margins, s, float(delta), iters, msg)


def _solve_max_margin(c_hat, e_hat, feas_tol, max_newton=60):
    """maximize s  s.t.  tr(c_k Psi) + e_k >= s,  diag(Psi) = 1,  Psi >= 0.

    Log-barrier path following.  The Newton step reduces the KKT system to a
    dense (K + 1 + n)-dimensional solve through the closed-form inverse of
    the log-det Hessian, Psi (.) Psi.  With the constraints flattened to rows
    of `c_flat` (K, n*n), every trace is a matrix product:
    tr(C_k X) = c_flat @ vec(X^T), and tr(C_k S_l) = c_flat @ conj(s_flat)^T
    for the Hermitian S_l = Psi C_l Psi.  One Cholesky factor L of Psi per
    step gives both Psi^{-1} = L^{-H} L^{-1} and the step-length bound from
    the eigenvalues of L^{-1} Delta L^{-H}.  The barrier value of an accepted
    point is carried into the next step at the same t.  Returns (s, Psi,
    margins at Psi, iterations, ok, message); `s` is certified to within the
    final duality gap.
    """
    kk, n = c_hat.shape[0], c_hat.shape[1]
    nu = n + kk  # barrier complexity
    gap_target = max(1e-3 * feas_tol, 1e-12)
    c_flat = c_hat.reshape(kk, n * n)

    def tr_c(x):
        """tr(C_k X) for every k."""
        return (c_flat @ x.T.ravel()).real

    def objective(psi_m, s_v, g_v, t_v):
        sign, logdet = np.linalg.slogdet(psi_m)
        if sign.real <= 0:
            return np.inf
        return -t_v * s_v - logdet - np.log(g_v).sum()

    # Newton system [[C + diag(g^2), 1, P], [1^T, 0, 0], [P^T, 0, |Psi|^2]];
    # the constant blocks are set once, the rest refilled every step
    users = np.arange(kk)
    a_sys = np.zeros((kk + 1 + n, kk + 1 + n))
    rhs = np.zeros(kk + 1 + n)
    a_sys[:kk, kk] = 1.0
    a_sys[kk, :kk] = 1.0

    psi = np.eye(n, dtype=complex)
    margins = tr_c(psi) + e_hat
    s = float(margins.min()) - 1.0
    t = 1.0
    total_newton = 0

    for _outer in range(80):
        f_cur = None  # barrier value at (psi, s) for this t
        for _ in range(max_newton):
            total_newton += 1
            g = margins - s
            if (g <= 0).any():  # safeguard, should not happen
                return s, psi, margins, total_newton, False, "left the barrier domain"
            inv_g = 1.0 / g
            try:
                lo_inv = np.linalg.inv(np.linalg.cholesky(psi))
            except np.linalg.LinAlgError:
                return s, psi, margins, total_newton, False, "iterate left the PSD cone"
            s_mats = psi @ c_hat @ psi
            s_flat = s_mats.reshape(kk, n * n)
            c_cross = (c_flat @ s_flat.conj().T).real
            p_mat = np.diagonal(s_mats, axis1=1, axis2=2).real

            a_sys[:kk, :kk] = c_cross
            a_sys[users, users] += g**2
            a_sys[:kk, kk + 1 :] = p_mat
            a_sys[kk + 1 :, :kk] = p_mat.T
            a_sys[kk + 1 :, kk + 1 :] = np.abs(psi) ** 2
            rhs[:kk] = tr_c(psi) + c_cross @ inv_g
            rhs[kk] = inv_g.sum() - t
            rhs[kk + 1 :] = 1.0 + inv_g @ p_mat
            try:
                sol = np.linalg.solve(a_sys, rhs)
            except np.linalg.LinAlgError:
                return s, psi, margins, total_newton, False, "singular Newton system"
            alpha, ds, nu_mult = sol[:kk], sol[kk], sol[kk + 1 :]

            delta = psi + ((inv_g - alpha) @ s_flat).reshape(n, n) - (psi * nu_mult) @ psi
            delta = 0.5 * (delta + delta.conj().T)
            np.fill_diagonal(delta, 0.0)

            r_psi = lo_inv.conj().T @ lo_inv + (inv_g @ c_flat).reshape(n, n)
            r_s = t - inv_g.sum()
            dec2 = np.vdot(r_psi, delta).real + r_s * ds
            if dec2 <= 1e-10:
                break

            dg = tr_c(delta) - ds
            beta = 1.0
            mid = lo_inv @ delta @ lo_inv.conj().T
            lam_min = float(np.linalg.eigvalsh(0.5 * (mid + mid.conj().T)).min())
            if lam_min < 0:
                beta = min(beta, -0.99 / lam_min)
            neg = dg < 0
            if neg.any():
                beta = min(beta, 0.99 * float(np.min(g[neg] / -dg[neg])))

            if f_cur is None:
                f_cur = objective(psi, s, g, t)
            accepted = False
            for _bt in range(50):
                psi_new = psi + beta * delta
                s_new = s + beta * ds
                m_new = tr_c(psi_new) + e_hat
                g_new = m_new - s_new
                if (g_new > 0).all():
                    f_new = objective(psi_new, s_new, g_new, t)
                    if f_new <= f_cur - 1e-4 * beta * dec2:
                        accepted = True
                        break
                beta *= 0.5
            if not accepted:
                # stalled: decide with what we have if the gap already allows
                break
            psi, s, margins, f_cur = psi_new, s_new, m_new, f_new
            if s >= feas_tol:
                return s, psi, margins, total_newton, True, "early feasible"

        gap = nu / t
        if s >= feas_tol:
            return s, psi, margins, total_newton, True, "feasible margin"
        if s + 2.0 * gap < -feas_tol:
            return s, psi, margins, total_newton, True, "infeasibility certificate"
        if gap <= gap_target:
            return s, psi, margins, total_newton, True, "path converged"
        t *= 10.0
    return s, psi, margins, total_newton, False, "barrier iteration cap"


def matched_filter_bound(inst: MaxMinSdpInstance):
    """Interference-free upper bound on the achievable min SINR."""
    n = inst.dim + 1
    bounds = []
    for k in range(inst.n_users):
        b_kk = inst.constraint_matrix(k, k)
        lam = float(np.linalg.eigvalsh(b_kk).max()) if n else 0.0
        bounds.append((n * max(lam, 0.0) + abs(inst.qbar[k, k]) ** 2) / inst.noise[k])
    return float(min(bounds))


@dataclass
class BisectionResult:
    delta_star: float
    solution: PsdSolution
    saturated: bool
    steps: int
    history: list = field(default_factory=list)  # (delta, status) pairs


def bisection_maxmin(inst: MaxMinSdpInstance, delta_lo, delta_hi, eps, feas_tol=FEAS_TOL):
    """Largest feasible SINR target on an eps-grid inside [delta_lo, delta_hi].

    `eps` is an absolute SINR accuracy: the returned target is within eps of
    the relaxation's feasibility boundary.  delta_lo must be feasible; a
    feasible delta_hi short-circuits with the `saturated` flag set.
    """
    if delta_hi < delta_lo:
        raise ValueError("invalid bracket: delta_hi < delta_lo")
    if eps <= 0:
        raise ValueError("bisection accuracy must be positive")
    history = []

    def check(value):
        res = feasibility_check(inst, value, feas_tol=feas_tol)
        if res.status == "numerical-failure":
            raise SdpSolverError(f"feasibility check failed at target {value}: {res.message}")
        history.append((value, res.status))
        return res

    best = check(delta_lo)
    if not best.feasible:
        raise ValueError(f"invalid bracket: delta_lo={delta_lo} is infeasible")
    res_hi = check(delta_hi)
    if res_hi.feasible:
        return BisectionResult(float(delta_hi), res_hi, True, 0, history)

    lo, hi = float(delta_lo), float(delta_hi)
    steps = 0
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        res = check(mid)
        steps += 1
        if res.feasible:
            lo, best = mid, res
        else:
            hi = mid
    return BisectionResult(lo, best, False, steps, history)


@dataclass
class RandomizationResult:
    theta_tilde: np.ndarray  # unit-modulus lifted vector incl. auxiliary t
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
    return RandomizationResult(cands[best], thetas[best], float(objs[best]), cands.shape[0])
