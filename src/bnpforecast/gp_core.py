"""Gaussian-process prior pieces shared by the mean blocks.

The latent regression function gets a zero-mean GP prior with Gaussian
kernel k(x_t, x_s) = xi * (exp(-(phi/2) ||x_t - x_s||^2) + eps [t = s]).
The nugget eps = ``NUGGET`` is part of the covariance function (Neal 1997,
Toronto TR 9702): it keeps every kernel matrix's smallest eigenvalue at
least eps * xi, so one Cholesky factorization always suffices. The subspace
variant replaces the kernel K by K1 = (K^{-1} + (I - Phi0)/tau^2)^{-1},
where Phi0 projects onto a linear basis; tau^2 -> 0 pins the fit to the
projection (omega = 1/(1+tau^2) -> 1) and tau^2 -> inf recovers the GP.
This module holds the kernel, the Cholesky factorization, and the samplers of
tau^2 and of the kernel hyperparameters; ``model_engine`` works the
conditionals of f from Cholesky factors of K plus a diagonal.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf
from scipy.special import expit, gammainc, gammaincinv, logit

__all__ = [
    "NUGGET",
    "SingularKernelError",
    "KernelHyper",
    "AdaptiveStep",
    "squared_distances",
    "kernel_from_sqdist",
    "sample_tau2",
    "sample_kernel_hyper",
    "chol_psd",
]

NUGGET = 1e-8  # eps: the kernel's diagonal is xi * (1 + eps)


class SingularKernelError(RuntimeError):
    """A matrix the mean blocks factor is not numerically positive definite."""


@dataclass(frozen=True)
class KernelHyper:
    """Kernel amplitude xi and inverse bandwidth phi, both in (0,1)."""

    xi: float
    phi: float

    def __post_init__(self):
        if not (0.0 < self.xi < 1.0 and 0.0 < self.phi < 1.0):
            raise ValueError(f"kernel hyperparameters must lie in (0,1): xi={self.xi}, phi={self.phi}")


def squared_distances(X: np.ndarray, Z: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of X (and Z)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = X if Z is None else np.atleast_2d(np.asarray(Z, dtype=float))
    nx = np.sum(X * X, axis=1)
    nz = np.sum(Z * Z, axis=1)
    d2 = nx[:, None] + nz[None, :] - 2.0 * (X @ Z.T)
    return np.maximum(d2, 0.0)


def kernel_from_sqdist(D2: np.ndarray, hyper: KernelHyper) -> np.ndarray:
    """xi * exp(-(phi/2) D2), computed in place in one new array: the
    kernel without its nugget, as the cross-covariance k(X, x_new) is."""
    K = (-0.5 * hyper.phi) * D2
    np.exp(K, out=K)
    K *= hyper.xi
    return K


def cho_factor(M: np.ndarray):
    """(lower Cholesky factor, True) of M by one LAPACK ``dpotrf`` call, as
    ``scipy.linalg.cho_factor(M, lower=True, check_finite=False)`` returns
    it bit for bit: only the lower triangle is read and written, and the
    upper one keeps M's values. Raises LinAlgError when M is not positive
    definite."""
    c, info = dpotrf(M, lower=1, clean=0)
    if info:
        raise np.linalg.LinAlgError(f"Cholesky factorization failed (dpotrf info {info})")
    return c, True


def chol_psd(M: np.ndarray, what: str = "matrix"):
    """(lower Cholesky factor, True) of M by one ``cho_factor`` call.

    Raises SingularKernelError, naming ``what``, when M is not positive
    definite or the factor is not finite. There is no retry with added
    jitter: the T x T matrices the mean blocks factor hold the kernel's
    nugget, which keeps them positive definite.
    """
    try:
        c = cho_factor(M)
    except np.linalg.LinAlgError as exc:
        raise SingularKernelError(f"{what}: {exc}") from None
    # L[i, i]^2 = M[i, i] - sum_{j<i} L[i, j]^2 takes in the rest of row i,
    # so a finite diagonal means a finite lower triangle, all that is read.
    if not np.all(np.isfinite(np.diagonal(c[0]))):
        raise SingularKernelError(f"{what}: Cholesky factor is not finite")
    return c


def sample_tau2(f: np.ndarray, Phi0: np.ndarray, tau2_current: float,
                rng: np.random.Generator, basis_rank: int) -> float:
    """Slice-sampler update of the shrinkage scale tau^2.

    The prior p(tau) ∝ (tau^2)^(d1-1/2) / (1+tau^2)^(d0+d1) with
    d0 = d1 = 1/2 is half-Cauchy. With zeta = 1/tau^2: draw
    u ~ U(0, (1+zeta)^-(d0+d1)), set r* = u^(-1/(d0+d1)) - 1, then draw zeta
    from Gamma(d0 + (T-k)/2, f'(I-Phi0)f / 2) truncated to (0, r*), where
    k = ``basis_rank`` is the rank of the projector Phi0. Returns 1/zeta.
    Under the mean block's prior f ~ N(0, (K^-1 + zeta (I-Phi0))^-1) this
    is the exact conditional only as zeta -> inf: the zeta-factor of that
    prior is det(K^-1 + zeta (I-Phi0))^(1/2), not zeta^((T-k)/2).
    """
    d0 = d1 = 0.5
    fv = np.asarray(f, dtype=float)
    T = fv.size
    if T <= basis_rank:
        raise ValueError(f"window length {T} must exceed basis rank {basis_rank}")
    shape = d0 + 0.5 * (T - basis_rank)
    qf = float(fv @ fv - fv @ (Phi0 @ fv))
    d01 = d0 + d1
    zeta_cur = 1.0 / float(tau2_current)
    u = rng.uniform(0.0, (1.0 + zeta_cur) ** (-d01))
    r_star = u ** (-1.0 / d01) - 1.0
    v = rng.uniform()
    rate = 0.5 * qf
    if rate <= 1e-12 * max(1.0, float(fv @ fv)):
        warnings.warn("f lies in the shrinkage subspace; tau2 drawn from the rate-0 limit")
        zeta = r_star * v ** (1.0 / shape)
    else:
        cdf_at_bound = gammainc(shape, rate * r_star)
        if cdf_at_bound <= 0.0 or not np.isfinite(cdf_at_bound):
            # far-left truncation: density ~ x^(shape-1) on (0, r*)
            zeta = r_star * v ** (1.0 / shape)
        else:
            zeta = gammaincinv(shape, v * cdf_at_bound) / rate
    zeta = min(max(zeta, 1e-300), r_star)
    return 1.0 / zeta


@dataclass
class AdaptiveStep:
    """Random-walk scale tuned toward a target acceptance rate.

    Adapts in windows during burn-in; call freeze() at the end of burn-in
    to pin the scale for the retained draws. ``n_tries`` and ``n_accepts``
    count every move, frozen or not.
    """

    step: float = 0.3
    target: float = 0.3
    window: int = 25
    frozen: bool = False
    n_tries: int = 0
    n_accepts: int = 0
    _tries: int = 0
    _accepts: int = 0

    def update(self, accepted: bool) -> None:
        self.n_tries += 1
        self.n_accepts += bool(accepted)
        if self.frozen:
            return
        self._tries += 1
        self._accepts += bool(accepted)
        if self._tries >= self.window:
            rate = self._accepts / self._tries
            self.step = float(np.clip(self.step * math.exp(rate - self.target), 1e-3, 20.0))
            self._tries = 0
            self._accepts = 0

    def freeze(self) -> None:
        self.frozen = True


def sample_kernel_hyper(current: KernelHyper, loglik, rng: np.random.Generator,
                        step: float, loglik_current: float):
    """Joint random-walk MH update of (xi, phi) on the logit scale.

    ``loglik`` maps (xi, phi) to the log likelihood of the data with the
    latent function integrated out under the current error state, and
    ``loglik_current`` is its value at ``current``. The Uniform(0,1) priors
    contribute the logit Jacobian. Returns (hyper, accepted,
    loglik_at_hyper).
    """
    th = np.array([logit(current.xi), logit(current.phi)])
    prop = th + step * rng.standard_normal(2)
    xi_p, phi_p = expit(prop[0]), expit(prop[1])
    # clamp away from exact 0/1 produced by extreme proposals
    xi_p = min(max(xi_p, 1e-12), 1.0 - 1e-12)
    phi_p = min(max(phi_p, 1e-12), 1.0 - 1e-12)
    ll_prop = float(loglik(xi_p, phi_p))

    def _log_jac(a: float, b: float) -> float:
        return math.log(a) + math.log1p(-a) + math.log(b) + math.log1p(-b)

    delta = (ll_prop + _log_jac(xi_p, phi_p)) - (loglik_current + _log_jac(current.xi, current.phi))
    if math.log(rng.uniform()) < delta:
        return KernelHyper(xi_p, phi_p), True, ll_prop
    return current, False, loglik_current
