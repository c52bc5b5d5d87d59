"""Gaussian-process conditional mean with linear-subspace shrinkage.

The latent regression function gets a zero-mean GP prior with Gaussian
kernel k(x_t, x_s) = xi * exp(-(phi/2) ||x_t - x_s||^2). The subspace
variant replaces the kernel K by K1 = (K^{-1} + (I - Phi0)/tau^2)^{-1},
where Phi0 projects onto a linear basis; tau^2 -> 0 pins the fit to the
projection (omega = 1/(1+tau^2) -> 1) and tau^2 -> inf recovers the GP.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, qr
from scipy.special import expit, gammainc, gammaincinv, logit

from .data_pipeline import PC_BASIS_RANK, principal_components

__all__ = [
    "SingularKernelError",
    "PredictionError",
    "KernelHyper",
    "SubspaceWeight",
    "GpState",
    "ProjectionMatrix",
    "AdaptiveStep",
    "squared_distances",
    "kernel_from_sqdist",
    "gaussian_kernel_matrix",
    "projection_matrix",
    "subspace_kernel",
    "sample_f",
    "tau_prior_logpdf",
    "sample_tau2",
    "sample_kernel_hyper",
    "gp_predict",
    "chol_psd",
]


class SingularKernelError(RuntimeError):
    """Kernel matrix could not be factorized even at maximum jitter."""


class PredictionError(RuntimeError):
    """Augmented predictive kernel is numerically unusable."""


@dataclass(frozen=True)
class KernelHyper:
    """Kernel amplitude xi and inverse bandwidth phi, both in (0,1)."""

    xi: float
    phi: float

    def __post_init__(self):
        if not (0.0 < self.xi < 1.0 and 0.0 < self.phi < 1.0):
            raise ValueError(f"kernel hyperparameters must lie in (0,1): xi={self.xi}, phi={self.phi}")


@dataclass(frozen=True)
class SubspaceWeight:
    """Shrinkage scale tau^2; omega = 1/(1+tau^2) is the linear weight."""

    tau2: float

    def __post_init__(self):
        if not self.tau2 > 0.0:
            raise ValueError("tau2 must be positive")

    @property
    def omega(self) -> float:
        return 1.0 / (1.0 + self.tau2)


@dataclass
class GpState:
    """Latent function values at the estimation-window inputs."""

    f: np.ndarray

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        if self.f.ndim != 1 or not np.all(np.isfinite(self.f)):
            raise ValueError("f must be a finite vector")


@dataclass
class ProjectionMatrix:
    """Orthogonal projector onto the shrinkage subspace."""

    Phi0: np.ndarray
    basis_rank: int
    basis: np.ndarray


def squared_distances(X: np.ndarray, Z: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of X (and Z)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = X if Z is None else np.atleast_2d(np.asarray(Z, dtype=float))
    nx = np.sum(X * X, axis=1)
    nz = np.sum(Z * Z, axis=1)
    d2 = nx[:, None] + nz[None, :] - 2.0 * (X @ Z.T)
    return np.maximum(d2, 0.0)


def kernel_from_sqdist(D2: np.ndarray, hyper: KernelHyper) -> np.ndarray:
    """xi * exp(-(phi/2) D2), computed in place in one new array."""
    K = (-0.5 * hyper.phi) * D2
    np.exp(K, out=K)
    K *= hyper.xi
    return K


def gaussian_kernel_matrix(X: np.ndarray, hyper: KernelHyper) -> np.ndarray:
    """K[t,s] = xi * exp(-(phi/2) ||x_t - x_s||^2); diagonal exactly xi."""
    K = kernel_from_sqdist(squared_distances(X), hyper)
    np.fill_diagonal(K, hyper.xi)
    return K


# Jitter ladder: relative factors tried on the diagonal before giving up.
_JITTERS = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)


def chol_psd(M: np.ndarray, scale: float | None = None, what: str = "matrix"):
    """Lower Cholesky factor with escalating diagonal jitter.

    Jitter starts at 1e-8*scale and grows tenfold to 1e-4*scale (scale
    defaults to the largest diagonal entry) before raising.
    """
    M = np.asarray(M, dtype=float)
    if scale is None:
        scale = float(np.max(np.abs(np.diag(M)))) or 1.0
    for rel in _JITTERS:
        Mj = M
        if rel:
            Mj = M.copy()
            Mj[np.diag_indices_from(Mj)] += rel * scale
        try:
            c = cho_factor(Mj, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(c[0])):
            return c
    raise SingularKernelError(f"{what}: Cholesky failed at maximum jitter {_JITTERS[-1] * scale:g}")


def projection_matrix(X: np.ndarray, pc_rank: int = PC_BASIS_RANK) -> ProjectionMatrix:
    """Projector onto span(X), or onto leading PC scores when K >= T.

    The basis must have full numerical column rank; otherwise the caller
    should prune columns or use principal components.
    """
    X = np.asarray(X, dtype=float)
    T, K = X.shape
    B = principal_components(X, min(pc_rank, T - 1, K)) if K >= T else X
    s = np.linalg.svd(B, compute_uv=False)
    tol = s[0] * max(B.shape) * np.finfo(float).eps if s.size else 0.0
    rank = int(np.sum(s > tol))
    if rank < B.shape[1]:
        raise ValueError(
            f"projection basis is rank-deficient ({rank} < {B.shape[1]}); "
            "drop collinear columns or substitute principal components")
    Q = qr(B, mode="economic")[0]
    return ProjectionMatrix(Q @ Q.T, B.shape[1], B)


def _as_phi0(Phi0) -> tuple[np.ndarray, int | None]:
    if isinstance(Phi0, ProjectionMatrix):
        return Phi0.Phi0, Phi0.basis_rank
    return np.asarray(Phi0, dtype=float), None


def subspace_kernel(Kmat: np.ndarray, Phi0, tau2: float) -> np.ndarray:
    """K1 = (Kmat^{-1} + (I - Phi0)/tau2)^{-1} via symmetric solves."""
    if not tau2 > 0.0:
        raise ValueError("tau2 must be positive")
    P, _ = _as_phi0(Phi0)
    Kmat = np.asarray(Kmat, dtype=float)
    T = Kmat.shape[0]
    eye = np.eye(T)
    cK = chol_psd(Kmat, what="kernel")
    Kinv = cho_solve(cK, eye, check_finite=False)
    A = Kinv + (eye - P) / tau2
    A = 0.5 * (A + A.T)
    cA = chol_psd(A, what="shrunk kernel precision")
    K1 = cho_solve(cA, eye, check_finite=False)
    return 0.5 * (K1 + K1.T)


def _sigma_diag(Sigma) -> np.ndarray:
    S = np.asarray(Sigma, dtype=float)
    if S.ndim == 2:
        S = np.diag(S).copy()
    if np.any(S <= 0.0):
        raise ValueError("error variances must be positive")
    return S


def sample_f(K1: np.ndarray, Sigma, y: np.ndarray, mu: np.ndarray, rng: np.random.Generator):
    """Draw the latent function from its Gaussian full conditional.

    Returns (GpState, fbar, Vbar) where fbar = K1 (K1+Sigma)^{-1} (y-mu)
    and Vbar = K1 - K1 (K1+Sigma)^{-1} K1.
    """
    K1 = np.asarray(K1, dtype=float)
    s = _sigma_diag(Sigma)
    y = np.asarray(y, dtype=float)
    mu = np.zeros_like(y) if mu is None else np.asarray(mu, dtype=float)
    M = K1 + np.diag(s)
    cM = chol_psd(M, what="K1 + Sigma")
    r = y - mu
    fbar = K1 @ cho_solve(cM, r, check_finite=False)
    Vbar = K1 - K1 @ cho_solve(cM, K1, check_finite=False)
    Vbar = 0.5 * (Vbar + Vbar.T)
    scale = float(np.max(np.abs(np.diag(Vbar))))
    if scale <= 0.0:
        return GpState(fbar.copy()), fbar, Vbar
    cV = chol_psd(Vbar, scale=scale, what="conditional covariance")
    L = np.tril(cV[0])
    f = fbar + L @ rng.standard_normal(y.size)
    return GpState(f), fbar, Vbar


def tau_prior_logpdf(tau: float, d0: float = 0.5, d1: float = 0.5) -> float:
    """Unnormalized log prior p(tau) ∝ (tau^2)^(d1-1/2) / (1+tau^2)^(d0+d1).

    At d0 = d1 = 1/2 this is the half-Cauchy density on tau.
    """
    if tau <= 0.0:
        return -np.inf
    return (2.0 * d1 - 1.0) * math.log(tau) - (d0 + d1) * math.log1p(tau * tau)


def sample_tau2(f: np.ndarray | GpState, Phi0, tau2_current: float,
                rng: np.random.Generator, d0: float = 0.5, d1: float = 0.5,
                basis_rank: int | None = None) -> float:
    """Slice-sampler update of the shrinkage scale tau^2.

    With zeta = 1/tau^2: draw u ~ U(0, (1+zeta)^-(d0+d1)), set
    r* = u^(-1/(d0+d1)) - 1, then draw zeta from
    Gamma(d0 + (T-k)/2, f'(I-Phi0)f / 2) truncated to (0, r*),
    where k is the projection basis rank. Returns 1/zeta.
    """
    fv = f.f if isinstance(f, GpState) else np.asarray(f, dtype=float)
    P, rank = _as_phi0(Phi0)
    k = basis_rank if basis_rank is not None else rank
    if k is None:
        raise ValueError("basis_rank required when Phi0 is a bare matrix")
    T = fv.size
    if T <= k:
        raise ValueError(f"window length {T} must exceed basis rank {k}")
    shape = d0 + 0.5 * (T - k)
    qf = float(fv @ fv - fv @ (P @ fv))
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
    to pin the scale for the retained draws.
    """

    step: float = 0.3
    target: float = 0.3
    window: int = 25
    frozen: bool = False
    _tries: int = 0
    _accepts: int = 0

    def update(self, accepted: bool) -> None:
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
                        step: float = 0.3, loglik_current: float | None = None):
    """Joint random-walk MH update of (xi, phi) on the logit scale.

    ``loglik`` maps (xi, phi) to the log likelihood of the data with the
    latent function integrated out under the current error state. The
    Uniform(0,1) priors contribute the logit Jacobian. Returns
    (hyper, accepted, loglik_at_hyper).
    """
    th = np.array([logit(current.xi), logit(current.phi)])
    prop = th + step * rng.standard_normal(2)
    xi_p, phi_p = expit(prop[0]), expit(prop[1])
    # clamp away from exact 0/1 produced by extreme proposals
    xi_p = min(max(xi_p, 1e-12), 1.0 - 1e-12)
    phi_p = min(max(phi_p, 1e-12), 1.0 - 1e-12)
    if loglik_current is None:
        loglik_current = float(loglik(current.xi, current.phi))
    ll_prop = float(loglik(xi_p, phi_p))

    def _log_jac(a: float, b: float) -> float:
        return math.log(a) + math.log1p(-a) + math.log(b) + math.log1p(-b)

    delta = (ll_prop + _log_jac(xi_p, phi_p)) - (loglik_current + _log_jac(current.xi, current.phi))
    if math.log(rng.uniform()) < delta:
        return KernelHyper(xi_p, phi_p), True, ll_prop
    return current, False, loglik_current


def gp_predict(X: np.ndarray, f: np.ndarray, hyper: KernelHyper, tau2: float | None,
               x_new: np.ndarray, basis: np.ndarray | None = None,
               basis_new: np.ndarray | None = None) -> tuple[float, float]:
    """Predictive (mean, variance) of f at x_new given training f-values.

    Builds the (T+1)x(T+1) kernel over [X; x_new], applies subspace
    shrinkage with the augmented basis when tau2 is given, and conditions
    the last coordinate on the T training values.
    """
    X = np.asarray(X, dtype=float)
    fv = f.f if isinstance(f, GpState) else np.asarray(f, dtype=float)
    x_new = np.asarray(x_new, dtype=float).ravel()
    T = X.shape[0]
    Xa = np.vstack([X, x_new])
    Ka = gaussian_kernel_matrix(Xa, hyper)
    if tau2 is None:
        K1a = Ka
    else:
        if basis is None:
            basis = X
        if basis_new is None:
            basis_new = x_new
        Ba = np.vstack([np.asarray(basis, dtype=float), np.asarray(basis_new, dtype=float).ravel()])
        Q = qr(Ba, mode="economic")[0]
        K1a = subspace_kernel(Ka, Q @ Q.T, tau2)
    try:
        cT = chol_psd(K1a[:T, :T], what="augmented kernel")
    except SingularKernelError as exc:
        raise PredictionError(str(exc)) from exc
    w = cho_solve(cT, K1a[:T, T], check_finite=False)
    mean = float(w @ fv)
    var = float(K1a[T, T] - K1a[:T, T] @ w)
    return mean, max(var, 0.0)
