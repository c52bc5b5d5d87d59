"""Model composition and the MCMC forecasting engine.

Combines a conditional-mean block (GP, subspace-shrunk GP, its linear
limit, or a random-walk trend) with an error block (homoskedastic, DPM,
SV, or DPM-SV) into the sixteen model variants, runs the Gibbs/MH chain,
and simulates h-step-ahead predictive draws: ``forecast_cell`` estimates
one (model, origin) cell of the expanding-window experiment, whose
origins ``cli`` enumerates.

Every T x T matrix the GP and GPSub mean blocks factor is K plus a
diagonal, and no inverse is formed. K holds the kernel's nugget
xi * ``NUGGET`` on its diagonal, so each of them is positive definite.
GP uses the covariance form (Rasmussen & Williams 2006, Alg. 2.1): the
collapsed likelihood comes from the factor of K + Sigma. GPSub's prior
precision A = K^{-1} + zeta (I - UU') and posterior precision
P = A + Sigma^{-1} enter through k x k corrections on the window basis U
(k <= 29 columns): det(AK) through I + zeta K, and
det(PK) and P^{-1} through K + D^{-1} with D = zeta + Sigma^{-1}
(``_conditional``). f is drawn by pathwise conditioning (Wilson et al.
2020), for which K's own factor is computed only when a sweep keeps a new
hyperparameter. A sweep that proposes one therefore factors, at the
current and at the proposed hyperparameter, K + Sigma for GP, and for
GPSub K + D^{-1}, I + zeta K (after every tau^2 move) and two k x k
matrices; each also factors K when the proposal is accepted.

Linear is the exact tau^2 -> 0 limit of GPSub: f = U beta with
beta ~ N(0, M^{-1}) and M = U'K^{-1}U. Its prior and posterior precisions
are the k x k matrices M and G = M + U'Sigma^{-1}U of beta, so a sweep
with a new hyperparameter factors one T x T matrix (K at the proposal,
then M = W'W with W = L_K^{-1} U). Each retained draw records the mean
block's moments at the forecast origin, all that ``predictive_simulate``
reads of it; for GP and GPSub these are two triangular solves against the
factor of K that the sweep's draw of f left (``_GpContext.origin_moments``),
so nothing is factored outside the sweeps.
``forecast_cell`` is the one place a cell's seed is derived; ``run_chain``
runs on the generator it is given, with the one window context it builds.
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import qr
from scipy.linalg.blas import dtrmv
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .data_pipeline import (
    MEAN_KINDS,
    PC_BASIS_RANK,
    DatasetSpec,
    McmcConfig,
    ModelSpec,
    RegressionData,
    assemble_regression,
    derive_cell_seed,
    format_quarter,
    model_grid,
    principal_components,
)
from .error_models import (
    ErrorState,
    error_mean_offsets,
    error_sweep,
    error_variance_diag,
    ffbs,
    init_error_state,
)
from .evaluation import P_GRID
from .gp_core import (
    NUGGET,
    AdaptiveStep,
    KernelHyper,
    SingularKernelError,
    chol_psd,
    kernel_from_sqdist,
    sample_kernel_hyper,
    sample_tau2,
    squared_distances,
)

__all__ = [
    "MEAN_KINDS",
    "P_GRID",
    "McmcError",
    "ModelSpec",
    "McmcConfig",
    "ChainState",
    "WindowData",
    "PosteriorDraws",
    "PredictiveDraws",
    "model_grid",
    "derive_cell_seed",
    "init_state",
    "mcmc_step",
    "uc_trend_update",
    "run_chain",
    "predictive_simulate",
    "make_window",
    "forecast_cell",
    "inefficiency_factor",
]

UC_PRIOR_INIT_VAR = 10.0        # trend_1 ~ N(y_1, this)
UC_TREND_VAR_PRIOR = (3.0, 1.0)  # InvGamma(shape, rate) on sigma2_eta


class McmcError(RuntimeError):
    """Chain produced a non-finite state."""


@dataclass
class WindowData:
    """One estimation window plus the forecast-origin predictor row.

    ``y`` is centered by ``y_offset`` for the nonparametric mean kinds:
    the function prior is mean-zero and the predictor columns span only
    zero-mean directions once standardized, so the window level is
    removed before estimation and added back to the predictive draws.
    """

    y: np.ndarray
    X: np.ndarray | None
    x_new: np.ndarray | None
    horizon: int = 1
    y_offset: float = 0.0

    @property
    def T(self) -> int:
        return self.y.size


@dataclass
class ChainState:
    """Mutable chain state; exactly the blocks implied by the model spec."""

    error: ErrorState
    f: np.ndarray | None = None
    hyper: KernelHyper | None = None
    tau2: float | None = None
    trend: np.ndarray | None = None
    trend_var: float | None = None
    hyper_step: AdaptiveStep = field(default_factory=AdaptiveStep)
    alpha_step: AdaptiveStep = field(default_factory=lambda: AdaptiveStep(step=0.5))
    iteration: int = 0


@dataclass
class PosteriorDraws:
    """Retained draws stored columnarly plus per-draw predictive inputs;
    ``origin_mean`` (without the window level) and ``origin_var`` are the
    mean block's moments at the forecast origin, and ``err_mixture`` holds,
    for the DPM kinds, each draw's (weights, means, variances or None)."""

    window: WindowData
    scalars: dict[str, np.ndarray]
    origin_mean: np.ndarray
    origin_var: np.ndarray
    err_mixture: list | None
    ifs: dict[str, float]
    accept: dict[str, float]
    runtime: float
    n_retained: int


@dataclass
class PredictiveDraws:
    """Simulated h-step-ahead outcome draws at one forecast origin.

    ``mixture`` is the predictive density as one Gaussian mixture over the
    components of every retained draw: flat arrays (log weights, means,
    variances), each draw's log weights less log n for n draws.
    """

    draws: np.ndarray
    point: float
    quantiles: dict[float, float]
    mixture: tuple[np.ndarray, np.ndarray, np.ndarray]
    y_true: float | None = None
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# window context: per-window precomputations and per-hyper factor caches


def _window_basis(spec: ModelSpec, X: np.ndarray, x_new: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, int]:
    """Shrinkage-target basis for the window, its origin row and its rank:
    the raw predictors, or their leading PC scores for the Large variant and
    for windows with K >= T."""
    T, K = X.shape
    force_pc = spec.dataset is not None and spec.dataset.variant == "Large"
    if force_pc or K >= T:
        r = min(PC_BASIS_RANK, T - 1, K)
        scores, loadings = principal_components(X, r)
        return scores, x_new @ loadings, r
    return X, x_new, K


@dataclass
class _HyperSlot:
    """Kernel pieces cached for one kernel hyperparameter.

    GP and GPSub keep the kernel matrix K, nugget included, its lower
    Cholesky factor once a draw of f or the origin moments ask for it
    (``chol_k``), and for GPSub the prior's log-determinant term at one
    zeta (``_prior_logdet``). Linear keeps only its coefficient precision
    M = U'K^{-1}U and log det M, as ``prec``.
    """

    K: np.ndarray | None = None
    L: np.ndarray | None = None
    zeta: float | None = None
    logdet_ak: float | None = None  # GPSub: log det A + log det K at zeta
    prec: tuple | None = None       # Linear: (M, log det M)

    def chol_k(self) -> np.ndarray:
        """Lower Cholesky factor of K (upper triangle not cleaned), by one
        ``chol_psd`` call on first use."""
        if self.L is None:
            self.L = chol_psd(self.K, what="kernel matrix")[0]
        return self.L


class _GpContext:
    """Precomputed quantities and factor caches for one estimation window.

    ``B`` is the window basis (``_window_basis``), which also sets the
    chain's starting residual variance. ``U`` is its orthonormal factor for
    Linear and GPSub, and GPSub keeps its projector Phi0 = U U' for the
    tau^2 move. The origin row x_new enters as ``d2_new`` =
    ||x_t - x_new||^2, GPSub's ``phi_new`` (the last column of the
    projector onto [B; b_new]) and Linear's ``g`` (the minimum-norm
    solution of B'g = b_new).
    """

    def __init__(self, spec: ModelSpec, data: WindowData):
        self.kind = spec.mean_kind
        self.D2 = squared_distances(data.X)
        self.T = data.T
        x_new = np.asarray(data.x_new, dtype=float).ravel()
        self.d2_new = squared_distances(data.X, x_new)[:, 0]
        B, b_new, k = _window_basis(spec, data.X, x_new)
        self.B = B
        self.U = self.Phi0 = self.basis_rank = self.phi_new = self.g = None
        if self.kind in ("Linear", "GPSub"):
            Qb, R = qr(B, mode="economic")
            dR = np.abs(np.diag(R))
            if dR.min() <= 1e-10 * max(dR.max(), 1.0):
                raise SingularKernelError(
                    "projection basis is rank deficient; drop collinear columns")
            self.basis_rank = k
            self.U = Qb
            if self.kind == "Linear":
                self.g = np.linalg.lstsq(B.T, b_new, rcond=None)[0]
            else:
                self.Phi0 = Qb @ Qb.T
                Qa = qr(np.vstack([B, b_new]), mode="economic")[0]
                self.phi_new = Qa @ Qa[-1, :]
        # two-slot kernel cache: current hyper and latest proposal
        self._kp: list[tuple[tuple[float, float], _HyperSlot]] = []

    def kernel_pieces(self, hyper: KernelHyper) -> _HyperSlot:
        """The cached slot of the Gaussian kernel at this hyperparameter,
        K = xi (exp(-(phi/2) D2) + eps I) with eps = ``NUGGET``.

        For GP and GPSub a new slot holds K alone; nothing is factored until
        a sweep asks. For Linear it holds M = W'W with W = L^{-1} U and
        log det M. The two slots hold the last two
        hyperparameters asked for, the current one and the latest proposal;
        a hit moves its slot to the back.
        """
        key = (hyper.xi, hyper.phi)
        for i, (k, slot) in enumerate(self._kp):
            if k == key:
                self._kp.append(self._kp.pop(i))
                return slot
        K = kernel_from_sqdist(self.D2, hyper)
        K.reshape(-1)[::self.T + 1] += NUGGET * hyper.xi
        if self.kind == "Linear":
            cK, _ = chol_psd(K, what="kernel matrix")
            W = dtrtrs(cK, self.U, lower=1)[0]
            M = W.T @ W
            slot = _HyperSlot(prec=(M, _logdet(_chol_spd(M, "basis precision"))))
        else:
            slot = _HyperSlot(K)
        self._kp.append((key, slot))
        if len(self._kp) > 2:
            self._kp.pop(0)
        return slot

    def origin_moments(self, hyper: KernelHyper, f: np.ndarray,
                       zeta: float | None) -> tuple[float, float]:
        """Mean (without the window level) and variance of f_new given f,
        at ``hyper`` and zeta = 1/tau^2 (None for GP and Linear).

        Linear: g'f, variance 0. GP and GPSub: with k* = k(X, x_new),
        w = L^{-1}k*, s = max(xi (1 + eps) - w'w, 0) (the nugget is in
        f_new's prior variance, not in k*) and v = L^{-T}w = K^{-1}k*, the
        prior precision's column of f_new is [-v; 1]/s + zeta (e - phi_new),
        so mean = (v'f + s zeta phi_new[:T]'f) / d and var = s / d with
        d = 1 + s zeta (1 - phi_new[T]), finite as s -> 0. L is the factor
        the sweep's draw of f left in the slot for ``hyper``.
        """
        if self.kind == "Linear":
            return float(self.g @ f), 0.0
        L = self.kernel_pieces(hyper).chol_k()
        w = dtrtrs(L, kernel_from_sqdist(self.d2_new, hyper), lower=1)[0]
        s = max(hyper.xi * (1.0 + NUGGET) - float(w @ w), 0.0)
        mean = float(dtrtrs(L, w, lower=1, trans=1)[0] @ f)
        if zeta is None:
            return mean, s
        c = s * zeta
        denom = 1.0 + c * (1.0 - float(self.phi_new[-1]))
        return (mean + c * float(self.phi_new[:-1] @ f)) / denom, s / denom


def _chol_spd(M: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of a k x k matrix (Linear's M and P, GPSub's
    U'B^{-1}U and C) by its own ``dpotrf`` call: each is the Gram matrix
    of a full-rank T x k factor, plus a positive semidefinite term in P
    and C."""
    c, info = dpotrf(M, lower=1, clean=0)
    if info:
        raise SingularKernelError(f"{what}: Cholesky failed")
    return c


def _chol_shifted(M: np.ndarray, d, what: str) -> np.ndarray:
    """Lower Cholesky factor of M + diag(d) by ``chol_psd``; M is a fresh
    array, shifted in place."""
    M.reshape(-1)[::M.shape[0] + 1] += d
    return chol_psd(M, what=what)[0]


def _logdet(L: np.ndarray) -> float:
    """log det of a matrix from its lower Cholesky factor."""
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def _gauss_loglik(T: int, sigma: np.ndarray, logdet_p: float, logdet_a: float,
                  quad: float) -> float:
    """log N(r; 0, K1 + Sigma) = -(T log 2 pi + log det(K1 + Sigma) + quad)/2,
    where det(K1 + Sigma) = det Sigma det P / det A and
    quad = r'(K1 + Sigma)^{-1} r."""
    return -0.5 * (T * math.log(2.0 * math.pi) + float(np.sum(np.log(sigma)))
                   + logdet_p - logdet_a + quad)


def _prior_logdet(ctx: _GpContext, slot: _HyperSlot, zeta: float) -> float:
    """log det A + log det K for GPSub's prior precision
    A = K^{-1} + zeta (I - U U'), cached in the slot for one zeta.

    With B = I + zeta K, AK = B - zeta U U'K and det(AK) = det B
    det(U'B^{-1}U), since U'U = I.
    """
    if slot.zeta != zeta:
        cB = _chol_shifted(zeta * slot.K, 1.0, "prior precision")
        W = dtrtrs(cB, ctx.U, lower=1)[0]
        slot.zeta = zeta
        slot.logdet_ak = _logdet(cB) + _logdet(_chol_spd(W.T @ W, "prior precision"))
    return slot.logdet_ak


@dataclass
class _Conditional:
    """The Gaussian conditional of f at one hyperparameter, as ``_draw_f``
    reads it, with the collapsed log-likelihood ``loglik``.

    ``chol`` is the lower Cholesky factor of P (Linear, k x k), of K + Sigma
    (GP) or of K + D^{-1} (GPSub). ``b`` is U'Sigma^{-1}r (Linear), r (GP)
    or Sigma^{-1}r (GPSub). ``noise`` is the variance vector of the pathwise
    draw's noise: Sigma (GP) or D^{-1} (GPSub). GPSub adds ``c`` =
    zeta C^{-1}U'Sb and the lower factor ``chol_c`` of C.
    """

    loglik: float
    slot: _HyperSlot
    chol: np.ndarray
    b: np.ndarray
    noise: np.ndarray | None = None
    zeta: float | None = None
    c: np.ndarray | None = None
    chol_c: np.ndarray | None = None


def _conditional(ctx: _GpContext, hyper: KernelHyper, r: np.ndarray,
                 sigma: np.ndarray, zeta: float | None) -> _Conditional:
    """f's conditional given r = f + e, e ~ N(0, Sigma), at ``hyper`` and
    zeta = 1/tau^2 (GPSub), and log N(r; 0, K1 + Sigma) with f integrated
    out, where K1 is the prior covariance of f.

    Linear (K1 = U M^{-1} U'): the k x k precision P = M + U'Sigma^{-1}U
    of beta in f = U beta, by Woodbury's identity.

    GP (K1 = K): the covariance form of Rasmussen & Williams (2006,
    Alg. 2.1), from L = chol(K + Sigma).

    GPSub (K1 = A^{-1}, A = K^{-1} + zeta (I - U U')): with b = Sigma^{-1}r,
    D = zeta + Sigma^{-1} and S = (K^{-1} + D)^{-1}, the posterior
    precision is P = S^{-1} - zeta U U' and C = I - zeta U'SU, so
    det(PK) = det D det(K + D^{-1}) det C and
    b'P^{-1}b = b'Sb + zeta (U'Sb)'C^{-1}(U'Sb). With L = chol(K + D^{-1})
    and W = L^{-1}D^{-1}U, C = U'(Sigma D)^{-1}U + zeta W'W. The log det K
    in det(AK) (``_prior_logdet``) cancels.
    """
    slot = ctx.kernel_pieces(hyper)
    T = r.size
    if ctx.kind == "Linear":
        M, logdet_m = slot.prec
        U = ctx.U
        cP = _chol_spd(M + U.T @ (U / sigma[:, None]), "posterior precision")
        b = r / sigma
        c = U.T @ b
        quad = float(r @ b) - float(c @ dpotrs(cP, c, lower=1)[0])
        return _Conditional(_gauss_loglik(T, sigma, _logdet(cP), logdet_m, quad),
                            slot, cP, c)
    if zeta is None:
        L = _chol_shifted(slot.K.copy(), sigma, "kernel plus noise")
        a = dtrtrs(L, r, lower=1)[0]
        loglik = -0.5 * (T * math.log(2.0 * math.pi) + _logdet(L) + float(a @ a))
        return _Conditional(loglik, slot, L, r, sigma)
    U = ctx.U
    b = r / sigma
    d = zeta + 1.0 / sigma
    noise = 1.0 / d
    L = _chol_shifted(slot.K.copy(), noise, "kernel plus inverse precision")
    u = noise * b
    a = dtrtrs(L, u, lower=1)[0]
    Sb = u - noise * dtrtrs(L, a, lower=1, trans=1)[0]
    W = dtrtrs(L, noise[:, None] * U, lower=1)[0]
    cC = _chol_spd(U.T @ (U * (noise / sigma)[:, None]) + zeta * (W.T @ W),
                   "subspace precision")
    q = U.T @ Sb
    x = dpotrs(cC, q, lower=1)[0]
    quad = float(r @ b) - (float(b @ u) - float(a @ a)) - zeta * float(q @ x)
    logdet_pk = float(np.sum(np.log(d))) + _logdet(L) + _logdet(cC)
    loglik = _gauss_loglik(T, sigma, logdet_pk, _prior_logdet(ctx, slot, zeta), quad)
    return _Conditional(loglik, slot, L, b, noise, zeta, zeta * x, cC)


def _draw_f(ctx: _GpContext, post: _Conditional, rng: np.random.Generator) -> np.ndarray:
    """One draw of f from its conditional.

    Linear: f = U beta, beta = P^{-1}U'Sigma^{-1}r + L^{-T}z with L the
    factor of P. GP and GPSub by pathwise conditioning (Wilson et al. 2020):
    f = g + K (K + N)^{-1}(y - g - e) with g = L_K z1 ~ N(0, K) and
    e = N^{1/2} z2, which has the law of f given pseudo-data y observed with
    noise N. GP: N = Sigma, y = r. GPSub: N = D^{-1} and
    y = D^{-1}(b + U v), where v ~ N(c, zeta C^{-1}) is drawn first from
    C's factor with z3; f given v has precision K^{-1} + D and linear term
    b + U v. One normal vector carries z = (z1, z2, z3): 2T + k entries
    for GPSub, 2T for GP and k for Linear.
    """
    if ctx.kind == "Linear":
        x = dpotrs(post.chol, post.b, lower=1)[0]
        z = rng.standard_normal(post.b.size)
        x = x + dtrtrs(post.chol, z, lower=1, trans=1)[0]
        return ctx.U @ x
    T = ctx.T
    if post.zeta is None:
        z = rng.standard_normal(2 * T)
        y = post.b
    else:
        z = rng.standard_normal(2 * T + ctx.U.shape[1])
        w = dtrtrs(post.chol_c, z[2 * T:], lower=1, trans=1)[0]
        y = post.noise * (post.b + ctx.U @ (post.c + math.sqrt(post.zeta) * w))
    g = dtrmv(post.slot.chol_k(), z[:T], lower=1)
    v = y - g - np.sqrt(post.noise) * z[T:2 * T]
    return g + post.slot.K @ dpotrs(post.chol, v, lower=1)[0]


# ---------------------------------------------------------------------------
# state initialization


def _ols_residual_var(y: np.ndarray, B: np.ndarray) -> float:
    """Residual variance of y on an intercept plus basis columns."""
    T = y.size
    Z = np.column_stack([np.ones(T), B])
    beta, *_ = np.linalg.lstsq(Z, y, rcond=None)
    resid = y - Z @ beta
    dof = max(T - Z.shape[1], 1)
    return max(float(resid @ resid) / dof, 1e-8)


def init_state(spec: ModelSpec, data: WindowData, cfg: McmcConfig,
               ctx: _GpContext | None) -> ChainState:
    """Neutral starting point: zero fit, prior-midpoint hyperparameters.
    ``ctx`` is the window context (None for UC)."""
    y = data.y
    if spec.mean_kind == "UC":
        s2 = max(0.5 * float(np.var(np.diff(y))), 1e-8) if y.size > 1 else 1.0
        error = init_error_state(spec.error_kind, y.size, s2)
        state = ChainState(error=error, trend=y.copy(), trend_var=0.1)
    else:
        s2 = _ols_residual_var(y, ctx.B)
        error = init_error_state(spec.error_kind, y.size, s2)
        tau2 = 1.0 if spec.mean_kind == "GPSub" else None
        state = ChainState(error=error, f=np.zeros(y.size),
                           hyper=KernelHyper(0.5, 0.5), tau2=tau2)
    state.hyper_step = AdaptiveStep(step=cfg.hyper_step, window=cfg.adapt_window)
    state.alpha_step = AdaptiveStep(step=cfg.alpha_step, window=cfg.adapt_window)
    return state


# ---------------------------------------------------------------------------
# one sweep


def uc_trend_update(y: np.ndarray, offsets: np.ndarray, sigma: np.ndarray,
                    rng: np.random.Generator, trend_var: float) -> tuple[np.ndarray, float]:
    """Random-walk trend path plus the conjugate innovation-variance draw.

    Observation y_t = trend_t + e_t, e_t ~ N(offsets_t, sigma_t), with the
    error block's per-t means and variances as ``mcmc_step`` computed and
    checked them; trend_1 ~ N(y_1, UC_PRIOR_INIT_VAR) and sigma2_eta ~
    InvGamma(UC_TREND_VAR_PRIOR). The path is ``error_models.ffbs`` at
    mu = 0 and rho = 1, the recursion the SV log-variance path uses.
    """
    y = np.asarray(y, dtype=float)
    T = y.size
    q = max(float(trend_var), 1e-15)
    new = ffbs(y - offsets, sigma, y[0], UC_PRIOR_INIT_VAR, 0.0, 1.0, q, rng)
    a0, b0 = UC_TREND_VAR_PRIOR
    shape = a0 + 0.5 * (T - 1)
    rate = b0 + 0.5 * float(np.sum(np.diff(new) ** 2))
    q_new = float(rate / rng.gamma(shape, 1.0))
    return new, q_new


def _check_finite(arr, block: str, iteration: int) -> None:
    if not np.all(np.isfinite(arr)):
        raise McmcError(f"non-finite state in {block} block at iteration {iteration}")


def mcmc_step(spec: ModelSpec, data: WindowData, state: ChainState,
              rng: np.random.Generator, ctx: _GpContext | None) -> ChainState:
    """One full sweep: error block given residuals, then the mean block.
    ``ctx`` is the window context ``run_chain`` built (None for UC)."""
    y = data.y
    T = y.size
    fitted = state.trend if spec.mean_kind == "UC" else state.f

    # (a) error block given eps = y - fit
    state.error, alpha_acc = error_sweep(state.error, y - fitted, rng,
                                         alpha_step=state.alpha_step.step)
    if alpha_acc is not None:
        state.alpha_step.update(alpha_acc)
    sigma = error_variance_diag(state.error, T)
    offsets = error_mean_offsets(state.error, T)
    _check_finite(sigma, "error", state.iteration)
    _check_finite(offsets, "error", state.iteration)

    # (b) mean block given the error state
    if spec.mean_kind == "UC":
        state.trend, state.trend_var = uc_trend_update(y, offsets, sigma, rng,
                                                       state.trend_var)
        _check_finite(state.trend, "trend", state.iteration)
    else:
        r = y - offsets
        zeta = 1.0 / state.tau2 if spec.mean_kind == "GPSub" else None
        post = _conditional(ctx, state.hyper, r, sigma, zeta)
        pending: dict = {}

        def _ll(xi: float, phi: float) -> float:
            try:
                prop = _conditional(ctx, KernelHyper(xi, phi), r, sigma, zeta)
            except SingularKernelError:
                return -np.inf
            pending[(xi, phi)] = prop
            return prop.loglik

        new_hyper, accepted, _ = sample_kernel_hyper(
            state.hyper, _ll, rng, step=state.hyper_step.step, loglik_current=post.loglik)
        state.hyper_step.update(accepted)
        if accepted:
            state.hyper = new_hyper
            post = pending[(new_hyper.xi, new_hyper.phi)]
        state.f = _draw_f(ctx, post, rng)
        _check_finite(state.f, "mean", state.iteration)
        if spec.mean_kind == "GPSub":
            state.tau2 = sample_tau2(state.f, ctx.Phi0, state.tau2, rng,
                                     basis_rank=ctx.basis_rank)
    state.iteration += 1
    return state


# ---------------------------------------------------------------------------
# chain driver


def _draw_scalars(state: ChainState) -> dict[str, float]:
    """The scalars a retained draw records, by name: the mean block's, then
    the error block's."""
    err = state.error
    if state.trend is not None:
        out = {"trend_last": state.trend[-1], "trend_var": state.trend_var}
    else:
        out = {"xi": state.hyper.xi, "phi": state.hyper.phi, "f_mean": float(np.mean(state.f))}
        if state.tau2 is not None:
            out.update(tau2=state.tau2, omega=1.0 / (1.0 + state.tau2))
    if err.kind == "Homosk":
        out["sigma2"] = err.sigma2
    if err.dpm is not None:
        out.update(alpha=err.dpm.alpha, n_occupied=np.unique(err.dpm.alloc).size)
    if err.sv is not None:
        out.update(mu_h=err.sv.mu_h, rho_h=err.sv.rho_h, sig2_h=err.sv.sig2_h,
                   h_last=err.sv.h[-1])
    return out


def inefficiency_factor(trace: np.ndarray) -> float:
    """1 + 2 * sum of Bartlett-tapered autocorrelations (4% window)."""
    x = np.asarray(trace, dtype=float)
    n = x.size
    if n < 100:
        warnings.warn("inefficiency factor on a trace shorter than 100 draws")
    sd = float(np.std(x))
    if sd == 0.0 or not np.isfinite(sd):
        warnings.warn("constant trace; inefficiency factor defined as 1")
        return 1.0
    xc = x - x.mean()
    L = max(1, int(round(0.04 * n)))
    denom = float(xc @ xc)
    total = 0.0
    for lag in range(1, L + 1):
        rho = float(xc[lag:] @ xc[:-lag]) / denom
        total += (1.0 - lag / (L + 1.0)) * rho
    return 1.0 + 2.0 * total


def run_chain(spec: ModelSpec, data: WindowData, cfg: McmcConfig,
              rng: np.random.Generator) -> PosteriorDraws:
    """Run one chain on ``rng``, keeping retained draws and per-draw
    predictive inputs."""
    t0 = time.perf_counter()
    ctx = None if spec.mean_kind == "UC" else _GpContext(spec, data)
    state = init_state(spec, data, cfg, ctx)
    n_ret = cfg.n_retained
    scalars: dict[str, np.ndarray] = {}
    origin_mean = np.empty(n_ret)
    origin_var = np.empty(n_ret)
    err_mixture = [] if spec.error_kind in ("DPM", "DPMSV") else None
    kept = 0
    for i in range(cfg.n_iter):
        if i == cfg.n_burn:
            state.hyper_step.freeze()
            state.alpha_step.freeze()
        mcmc_step(spec, data, state, rng, ctx)
        if i >= cfg.n_burn and (i - cfg.n_burn) % cfg.thin == 0:
            record = _draw_scalars(state)
            if not scalars:
                scalars = {name: np.empty(n_ret) for name in record}
            for name, value in record.items():
                scalars[name][kept] = value
            if ctx is None:
                origin_mean[kept] = state.trend[-1]
                origin_var[kept] = data.horizon * state.trend_var
            else:
                zeta = None if state.tau2 is None else 1.0 / state.tau2
                origin_mean[kept], origin_var[kept] = ctx.origin_moments(
                    state.hyper, state.f, zeta)
            if err_mixture is not None:
                dpm = state.error.dpm
                err_mixture.append((dpm.weights, dpm.comp_mean.copy(),
                                    None if dpm.comp_var is None else dpm.comp_var.copy()))
            kept += 1
    ifs = {name: inefficiency_factor(vals) for name, vals in scalars.items()
           if np.std(vals) > 0.0}
    accept = {name: step.n_accepts / step.n_tries
              for name, step in (("hyper", state.hyper_step), ("alpha", state.alpha_step))
              if step.n_tries}
    return PosteriorDraws(
        window=data, scalars=scalars,
        origin_mean=origin_mean, origin_var=origin_var,
        err_mixture=err_mixture,
        ifs=ifs, accept=accept,
        runtime=time.perf_counter() - t0, n_retained=kept)


# ---------------------------------------------------------------------------
# prediction


def _error_mixture_for_draw(spec: ModelSpec, draws: PosteriorDraws, i: int,
                            h: int, rng: np.random.Generator):
    """(weights, offsets, variances) of the error predictive at draw i."""
    kind = spec.error_kind
    if kind == "Homosk":
        return (np.ones(1), np.zeros(1), np.array([draws.scalars["sigma2"][i]]))
    if kind in ("SV", "DPMSV"):
        s = draws.scalars
        hv = float(s["h_last"][i])
        mu, rho = float(s["mu_h"][i]), float(s["rho_h"][i])
        sd = math.sqrt(float(s["sig2_h"][i]))
        for _ in range(h):
            hv = mu + rho * (hv - mu) + sd * rng.standard_normal()
        var = math.exp(hv)
        if kind == "SV":
            return np.ones(1), np.zeros(1), np.array([var])
        w, means, _ = draws.err_mixture[i]
        return w, means, np.full(w.size, var)
    return draws.err_mixture[i]


def predictive_simulate(spec: ModelSpec, draws: PosteriorDraws,
                        rng: np.random.Generator) -> PredictiveDraws:
    """Simulate one outcome draw per retained posterior draw.

    Each retained draw contributes y* ~ N(mean + offset, var_f + var_e)
    with (mean, var_f) the mean block's moments at the origin that
    ``run_chain`` recorded, the mean shifted by the window level, and
    (offset, var_e) from the error block's h-step predictive, a mixture
    with weights w for the DPM kinds. Its components enter the flat
    ``mixture`` with log weights log(w / sum w) - log n.
    """
    n = draws.n_retained
    h = draws.window.horizon
    level = draws.window.y_offset
    out = np.empty(n)
    logw, means, variances = [], [], []
    for i in range(n):
        mean = float(draws.origin_mean[i]) + level
        var_f = float(draws.origin_var[i])
        w, off, ve = _error_mixture_for_draw(spec, draws, i, h, rng)
        prob = w / w.sum()
        j = 0 if w.size == 1 else int(rng.choice(w.size, p=prob))
        out[i] = mean + off[j] + math.sqrt(var_f + ve[j]) * rng.standard_normal()
        with np.errstate(divide="ignore"):
            logw.append(np.log(prob))
        means.append(mean + off)
        variances.append(var_f + ve)
    qs = {p: float(np.quantile(out, p)) for p in P_GRID}
    mixture = (np.concatenate(logw) - math.log(n), np.concatenate(means),
               np.concatenate(variances))
    return PredictiveDraws(
        draws=out, point=float(np.mean(out)), quantiles=qs, mixture=mixture)


# ---------------------------------------------------------------------------
# one cell of the expanding-window experiment


def make_window(full: RegressionData, panel, dspec: DatasetSpec, origin: int) -> WindowData:
    """Estimation window ending at origin-h, its predictors standardized on
    the window, plus the origin's predictor row on the same scale."""
    h = dspec.horizon
    end = origin - h
    sub = assemble_regression(panel, dspec, end_date=end, standardize=True)
    idx = np.searchsorted(full.origin_dates, origin)
    if idx >= len(full.origin_dates) or full.origin_dates[idx] != origin:
        raise ValueError(f"no predictor row at origin {format_quarter(origin)}")
    x_new = full.X[idx].astype(float).copy()
    if sub.x_sd is not None:
        x_new = (x_new - sub.x_mean) / sub.x_sd
    offset = float(np.mean(sub.y))
    return WindowData(y=sub.y - offset, X=sub.X, x_new=x_new, horizon=h, y_offset=offset)


def forecast_cell(spec: ModelSpec, panel, origin: int, cfg: McmcConfig,
                  full: RegressionData, master_seed: int) -> PredictiveDraws:
    """Estimate one (model, origin) cell and simulate its predictive draws.

    ``full`` is the whole-sample data of the cell's dataset, as
    ``cli.cell_data`` assembles it. The chain and the predictive run on one
    generator seeded from ``master_seed`` and the cell's identity
    (``derive_cell_seed``), the one place a cell's seed is made. The
    caller picks the origins whose training window is long enough
    (``cli._origins``).
    """
    dspec = spec.dataset
    if spec.mean_kind == "UC":
        h = dspec.horizon
        mask = full.origin_dates <= origin - h
        window = WindowData(y=full.y[mask].copy(), X=None, x_new=None, horizon=h)
    else:
        window = make_window(full, panel, dspec, origin)
    seed = derive_cell_seed(master_seed, spec.model_id, spec.dataset_label,
                            dspec.horizon, format_quarter(origin))
    rng = np.random.default_rng(seed)
    draws = run_chain(spec, window, cfg, rng)
    pred = predictive_simulate(spec, draws, rng)
    idx = np.searchsorted(full.origin_dates, origin)
    pred.y_true = float(full.y[idx])
    pred.diagnostics = {
        "seed": seed, "ifs": draws.ifs, "accept": draws.accept,
        "runtime": draws.runtime, "train_quarters": window.T,
    }
    return pred

