"""Shared fixtures and hypothesis profiles."""

import os

# one BLAS thread, as the benchmark and the worker processes run; must precede the numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest
from hypothesis import HealthCheck, Verbosity, settings

import coopbeam as cb
from coopbeam.single_user import _random_starts

settings.register_profile(
    "default",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("ci", max_examples=10, deadline=None)
settings.register_profile("dev", max_examples=5, deadline=None)
settings.register_profile("debug", max_examples=5, verbosity=Verbosity.verbose, deadline=None)
settings.load_profile(os.getenv("HYPOTHESIS_PROFILE", "default"))


def random_channel_set(rng, n=4, m1=3, m2=3, k=2, scale=1.0):
    """Unstructured complex-normal channel set for algebraic tests."""

    def c(*shape):
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    return cb.ChannelSet.from_links(c(m1, k), c(m2, k), c(m2, m1), c(n, m1), c(n, m2))


def explicit_channel(chs, theta1, theta2):
    """H = G2 diag(theta2) (D diag(theta1) U1 + U2) + G1 diag(theta1) U1, written out."""
    phi1, phi2 = np.diag(theta1), np.diag(theta2)
    return chs.g2 @ phi2 @ (chs.d @ phi1 @ chs.u1 + chs.u2) + chs.g1 @ phi1 @ chs.u1


def explicit_su_terms(chs, block, theta_other, w):
    """(b, b0) with w^H h = b^H theta_block + b0 for the single user, from the raw links."""
    u1, u2 = chs.u1[:, 0], chs.u2[:, 0]
    if block == 2:
        phi1 = np.diag(theta_other)
        mat, rest = chs.g2 @ np.diag(chs.d @ phi1 @ u1 + u2), chs.g1 @ phi1 @ u1
    else:
        phi2 = np.diag(theta_other)
        mat, rest = (chs.g2 @ phi2 @ chs.d + chs.g1) @ np.diag(u1), chs.g2 @ phi2 @ u2
    return mat.conj().T @ w, np.vdot(w, rest)


def random_init(chs, rng):
    """One random single-user start, drawn as one restart of `single_irs_opt` is."""
    w, t1, t2 = _random_starts(chs, np.random.default_rng(rng), 1)
    return cb.SuSolveState(w[0], t1[0], t2[0])


def constraint_matrix(inst, k, j):
    """The Gram v_kj v_kj^H of an instance's v[k, j], written out."""
    v = inst.v[k, j]
    return np.outer(v, v.conj())


def zf_min_sinr_formula(h, power, noise):
    """Interference-free ZF min SINR min_k P / (noise [(H^H H)^-1]_kk).

    Valid for equal transmit power and a full column rank channel; raises
    RankDeficiencyError otherwise.
    """
    h = np.asarray(h, dtype=complex)
    if cb.numerical_rank(h) < h.shape[1]:
        raise cb.RankDeficiencyError("effective channel is column rank deficient")
    inv_diag = np.real(np.diag(np.linalg.inv(h.conj().T @ h)))
    return float(np.min(power / (noise * inv_diag)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def small_su_scenario():
    return cb.SystemScenario(n_bs=4, m1=6, m2=6, n_users=1)


@pytest.fixture
def small_su_channels(small_su_scenario):
    return cb.build_double_irs_scenario(small_su_scenario, np.random.default_rng(3))
