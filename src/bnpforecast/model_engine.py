"""Model composition and the MCMC forecasting engine.

Combines a conditional-mean block (GP, subspace-shrunk GP, its linear
limit, or a random-walk trend) with an error block (homoskedastic, DPM,
SV, or DPM-SV) into the sixteen model variants, runs the Gibbs/MH chain,
and simulates h-step-ahead predictive draws: ``forecast_cell`` estimates
one (model, origin) cell of the expanding-window experiment, whose
origins ``cli`` enumerates.

The GP updates work in precision form: with A = K^{-1} + (I - Phi0)/tau^2
(A = K^{-1} for the plain GP) and P = A + Sigma^{-1}, the latent function
draw and the collapsed marginal likelihood for the kernel hyperparameters
(Rasmussen & Williams 2006, Alg. 2.1, in precision form) come from the
Cholesky factors of K, A and P. K^{-1} is formed once per kernel
hyperparameter by LAPACK ``dpotri`` on the factor of K, and the factor of
A is kept per (hyperparameter, tau^2). A sweep that proposes a new
hyperparameter therefore costs three T^3/3 factorizations for GP (P at the
current and at the proposed hyperparameter, K at the proposed one) and
five for GPSub (plus A at the proposed one, and A at the current one after
every tau^2 move), and one ``dpotri``.

Linear is the exact tau^2 -> 0 limit of GPSub: f = U beta on the window's
orthonormal basis U (k <= 29 columns), with beta ~ N(0, M^{-1}) and
M = U'K^{-1}U. Its A and P are the k x k precisions of beta, M and
G = M + U'Sigma^{-1}U, so a sweep with a new hyperparameter factors one
T x T matrix (K at the proposal, then M = W'W with W = L_K^{-1} U) and
calls no ``dpotri``. Each retained draw records the mean block's moments
at the forecast origin, all that ``predictive_simulate`` reads of it; for
GP and GPSub these are two triangular solves against the chain's own
factor of K (``_GpContext.origin_moments``), so nothing is factored
outside the sweeps.
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import qr
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs

from .data_pipeline import (
    MEAN_KINDS,
    MIN_TRAIN_QUARTERS,
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
    init_error_state,
)
from .evaluation import P_GRID
from .gp_core import (
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
    "MIN_TRAIN_QUARTERS",
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
    origin_date: int | None = None
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
    mean block's moments at the forecast origin."""

    spec: ModelSpec
    window: WindowData
    scalars: dict[str, np.ndarray]
    f: np.ndarray | None
    origin_mean: np.ndarray
    origin_var: np.ndarray
    err_weights: list | None
    err_means: list | None
    err_vars: list | None
    ifs: dict[str, float]
    accept: dict[str, float]
    seed: int | None
    runtime: float
    n_retained: int


@dataclass
class PredictiveDraws:
    """Simulated h-step-ahead outcome draws at one forecast origin."""

    origin_date: int
    horizon: int
    draws: np.ndarray
    point: float
    quantiles: dict[float, float]
    components: list | None = None
    y_true: float | None = None
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# window context: per-window precomputations and per-hyper factor caches


def _window_basis(spec: ModelSpec, X: np.ndarray, x_new: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Shrinkage-target basis for the window, its origin row and its rank:
    the raw predictors, or their leading PC scores for the Large variant and
    for windows with K >= T."""
    T, K = X.shape
    force_pc = spec.dataset is not None and spec.dataset.variant == "Large"
    if force_pc or K >= T:
        r = min(PC_BASIS_RANK, T - 1, K)
        scores, loadings = principal_components(X, r, return_loadings=True)
        b_new = None if x_new is None else np.asarray(x_new, float) @ loadings
        return scores, b_new, r
    return X, (None if x_new is None else np.asarray(x_new, float)), K


@dataclass
class _HyperSlot:
    """Factors cached for one kernel hyperparameter.

    GP and GPSub keep the lower Cholesky factor L of K (for the origin
    moments), K^{-1} and log det K, and GPSub adds the prior precision A at
    one zeta. ``kinv`` and the cached A carry their values in the lower
    triangle only: ``dpotri`` fills one triangle, and every consumer (the
    lower Cholesky factorizations of A and P, and the solves against them)
    reads that triangle alone, so the upper one is never mirrored. Linear
    keeps only its coefficient precision M = U'K^{-1}U, as ``prec``.
    """

    chol: np.ndarray | None
    kinv: np.ndarray | None
    logdet_k: float | None
    zeta: float | None = None
    prec: tuple | None = None  # (A, chol A, log det A) at zeta; Linear: M


class _GpContext:
    """Precomputed quantities and factor caches for one estimation window.

    ``U`` is the window basis's orthonormal factor for Linear and None
    otherwise; GPSub keeps the projector Phi0 = U U' and Q = I - Phi0. The
    origin row x_new enters as ``d2_new`` = ||x_t - x_new||^2, GPSub's
    ``phi_new`` (the last column of the projector onto [B; b_new]) and
    Linear's ``g`` (the minimum-norm solution of B'g = b_new).
    """

    def __init__(self, spec: ModelSpec, data: WindowData):
        self.spec = spec
        self.data = data
        self.D2 = squared_distances(data.X)
        self.T = data.T
        x_new = np.asarray(data.x_new, dtype=float).ravel()
        self.d2_new = squared_distances(data.X, x_new)[:, 0]
        self.U = self.Phi0 = self.Q = self.basis_rank = self.phi_new = self.g = None
        if spec.mean_kind in ("Linear", "GPSub"):
            B, b_new, k = _window_basis(spec, data.X, x_new)
            Qb, R = qr(B, mode="economic")
            dR = np.abs(np.diag(R))
            if dR.min() <= 1e-10 * max(dR.max(), 1.0):
                raise SingularKernelError(
                    "projection basis is rank deficient; drop collinear columns")
            self.basis_rank = k
            if spec.mean_kind == "Linear":
                self.U = Qb
                self.g = np.linalg.lstsq(B.T, b_new, rcond=None)[0]
            else:
                self.Phi0 = Qb @ Qb.T
                self.Q = np.eye(self.T) - self.Phi0
                Qa = qr(np.vstack([B, b_new]), mode="economic")[0]
                self.phi_new = Qa @ Qa[-1, :]
        # two-slot kernel cache: current hyper and latest proposal
        self._kp: list[tuple[tuple[float, float], _HyperSlot]] = []

    def kernel_pieces(self, hyper: KernelHyper) -> _HyperSlot:
        """The cached factor slot of the Gaussian kernel at this hyperparameter.

        For GP and GPSub a slot holds the Cholesky factor L of K, K^{-1}
        (lower triangle only; see ``_HyperSlot``), log det K, and once
        ``_a_pieces`` has asked for them, the prior precision A at one zeta
        with its Cholesky factor and log det A. For Linear it holds
        M = W'W with W = L^{-1} U, with its factor and log det M. The two
        slots hold the last two hyperparameters asked for, the current one
        and the latest proposal; a hit moves its slot to the back.
        """
        key = (hyper.xi, hyper.phi)
        for i, (k, slot) in enumerate(self._kp):
            if k == key:
                self._kp.append(self._kp.pop(i))
                return slot
        K = kernel_from_sqdist(self.D2, hyper)
        cK, _ = chol_psd(K, what="kernel matrix")
        if self.U is not None:
            W = dtrtrs(cK, self.U, lower=1)[0]
            M = W.T @ W
            cM = _chol_spd(M, "basis precision")
            slot = _HyperSlot(None, None, None, prec=(M, cM, _logdet(cM)))
        else:
            logdet_k = 2.0 * float(np.sum(np.log(np.diag(cK))))
            Kinv, _ = dpotri(cK, lower=1)
            slot = _HyperSlot(cK, Kinv, logdet_k)
        self._kp.append((key, slot))
        if len(self._kp) > 2:
            self._kp.pop(0)
        return slot

    def origin_moments(self, hyper: KernelHyper, f: np.ndarray,
                       zeta: float | None) -> tuple[float, float]:
        """Mean (without the window level) and variance of f_new given f,
        at ``hyper`` and zeta = 1/tau^2 (None for GP and Linear).

        Linear: g'f, variance 0. GP and GPSub: with k* = k(X, x_new),
        w = L^{-1}k*, s = max(xi - w'w, 0) and v = L^{-T}w = K^{-1}k*, the
        prior precision's column of f_new is [-v; 1]/s + zeta (e - phi_new),
        so mean = (v'f + s zeta phi_new[:T]'f) / d and var = s / d with
        d = 1 + s zeta (1 - phi_new[T]), finite as s -> 0. L is the slot
        the sweep left for ``hyper``, so nothing is factored.
        """
        if self.U is not None:
            return float(self.g @ f), 0.0
        L = self.kernel_pieces(hyper).chol
        w = dtrtrs(L, kernel_from_sqdist(self.d2_new, hyper), lower=1)[0]
        s = max(hyper.xi - float(w @ w), 0.0)
        mean = float(dtrtrs(L, w, lower=1, trans=1)[0] @ f)
        if zeta is None:
            return mean, s
        c = s * zeta
        denom = 1.0 + c * (1.0 - float(self.phi_new[-1]))
        return (mean + c * float(self.phi_new[:-1] @ f)) / denom, s / denom


def _chol_spd(M: np.ndarray, what: str):
    """Lower Cholesky factor of Linear's k x k M or G, by ``dpotrf`` without
    jitter: cond(M) = cond(W)^2 is at most that of the factored kernel, and
    G = M + U'Sigma^{-1}U adds a positive definite term."""
    c, info = dpotrf(M, lower=1, clean=0)
    if info:
        raise SingularKernelError(f"{what}: Cholesky failed")
    return c, True


def _logdet(c) -> float:
    """log det of a matrix from its (lower factor, True) Cholesky pair."""
    return 2.0 * float(np.sum(np.log(np.diag(c[0]))))


def _a_pieces(ctx: _GpContext, hyper: KernelHyper, zeta: float | None):
    """Prior precision A of the mean block, its Cholesky factor and log det A.

    GP (zeta None): A = K^{-1}; nothing is factored, the factor comes back
    as None and log det A = -log det K. GPSub: A = K^{-1} + zeta (I - Phi0),
    cached with its factor in the hyperparameter's slot for this zeta; only
    A's lower triangle is meaningful. Linear: A = M = U'K^{-1}U, the k x k
    precision of beta in f = U beta.
    """
    slot = ctx.kernel_pieces(hyper)
    if ctx.U is not None:
        return slot.prec
    if zeta is None:
        return slot.kinv, None, -slot.logdet_k
    if slot.zeta != zeta:
        A = slot.kinv + zeta * ctx.Q
        cA = chol_psd(A, what="prior precision")
        slot.zeta, slot.prec = zeta, (A, cA, _logdet(cA))
    return slot.prec


def _p_pieces(A: np.ndarray, sigma: np.ndarray, U: np.ndarray | None = None):
    """P = A + Sigma^{-1} with its Cholesky factor and log-determinant.

    Reads A's lower triangle only. With a basis U (Linear) the precisions
    are those of beta in f = U beta, and P = A + U'Sigma^{-1}U.
    """
    if U is None:
        P = A.copy()
        P[np.diag_indices_from(P)] += 1.0 / sigma
        cP = chol_psd(P, what="posterior precision")
    else:
        cP = _chol_spd(A + U.T @ (U / sigma[:, None]), "posterior precision")
    return cP, _logdet(cP)


def _collapsed_loglik(r: np.ndarray, sigma: np.ndarray, logdetA: float,
                      cP, logdetP: float, U: np.ndarray | None = None) -> float:
    """log N(r; 0, K1 + Sigma) with the latent function integrated out.

    With a basis U (Linear, K1 = U M^{-1} U'), Sigma^{-1} r enters the
    solve as U'Sigma^{-1}r: Woodbury's identity in k x k matrices.
    """
    T = r.size
    b = r / sigma
    c = b if U is None else U.T @ b
    quad = float(r @ b) - float(c @ dpotrs(cP[0], c, lower=1)[0])
    return -0.5 * (T * math.log(2.0 * math.pi) + float(np.sum(np.log(sigma)))
                   + logdetP - logdetA + quad)


def _draw_f(r: np.ndarray, sigma: np.ndarray, cP, rng: np.random.Generator,
            U: np.ndarray | None = None) -> np.ndarray:
    """f ~ N(P^{-1} Sigma^{-1} r, P^{-1}) from the lower Cholesky factor L of P:
    the noise is L^{-T} z. With a basis U (Linear) the draw is f = U beta,
    beta ~ N(P^{-1} U'Sigma^{-1} r, P^{-1}), and z has one entry per column."""
    b = r / sigma
    if U is not None:
        b = U.T @ b
    x = dpotrs(cP[0], b, lower=1)[0]
    z = rng.standard_normal(b.size)
    x = x + dtrtrs(cP[0], z, lower=1, trans=1)[0]
    return x if U is None else U @ x


# ---------------------------------------------------------------------------
# state initialization


def _ols_residual_var(y: np.ndarray, B: np.ndarray | None) -> float:
    """Residual variance of y on an intercept plus basis columns."""
    T = y.size
    Z = np.ones((T, 1)) if B is None else np.column_stack([np.ones(T), B])
    beta, *_ = np.linalg.lstsq(Z, y, rcond=None)
    resid = y - Z @ beta
    dof = max(T - Z.shape[1], 1)
    return max(float(resid @ resid) / dof, 1e-8)


def init_state(spec: ModelSpec, data: WindowData, cfg: McmcConfig) -> ChainState:
    """Neutral starting point: zero fit, prior-midpoint hyperparameters."""
    y = data.y
    if spec.mean_kind == "UC":
        s2 = max(0.5 * float(np.var(np.diff(y))), 1e-8) if y.size > 1 else 1.0
        error = init_error_state(spec.error_kind, y.size, s2)
        state = ChainState(error=error, trend=y.copy(), trend_var=0.1)
    else:
        B, _, _ = _window_basis(spec, data.X)
        s2 = _ols_residual_var(y, B)
        error = init_error_state(spec.error_kind, y.size, s2)
        tau2 = 1.0 if spec.mean_kind == "GPSub" else None
        state = ChainState(error=error, f=np.zeros(y.size),
                           hyper=KernelHyper(0.5, 0.5), tau2=tau2)
    state.hyper_step = AdaptiveStep(step=cfg.hyper_step, window=cfg.adapt_window)
    state.alpha_step = AdaptiveStep(step=cfg.alpha_step, window=cfg.adapt_window)
    return state


# ---------------------------------------------------------------------------
# one sweep


def uc_trend_update(y: np.ndarray, trend: np.ndarray, error_state: ErrorState,
                    rng: np.random.Generator, trend_var: float) -> tuple[np.ndarray, float]:
    """Random-walk trend FFBS plus the conjugate innovation-variance draw.

    Observation y_t = trend_t + e_t with per-t means/variances taken from
    the error state; trend_1 ~ N(y_1, UC_PRIOR_INIT_VAR) and sigma2_eta ~
    InvGamma(UC_TREND_VAR_PRIOR). The recursions run on
    Python floats, which round each operation exactly as numpy's float64
    scalars do.
    """
    y = np.asarray(y, dtype=float)
    T = y.size
    sigma = error_variance_diag(error_state, T).tolist()
    obs = (y - error_mean_offsets(error_state, T)).tolist()
    q = max(float(trend_var), 1e-15)
    m = [0.0] * T
    C = [0.0] * T
    a, R = float(y[0]), UC_PRIOR_INIT_VAR
    for t in range(T):
        if t > 0:
            a, R = m[t - 1], C[t - 1] + q
        gain = R / (R + sigma[t])
        m[t] = a + gain * (obs[t] - a)
        C[t] = (1.0 - gain) * R
    new = [0.0] * T
    z = rng.standard_normal(T).tolist()
    new[-1] = m[-1] + math.sqrt(max(C[-1], 0.0)) * z[-1]
    for t in range(T - 2, -1, -1):
        prec = 1.0 / C[t] + 1.0 / q
        var = 1.0 / prec
        mean = var * (m[t] / C[t] + new[t + 1] / q)
        new[t] = mean + math.sqrt(var) * z[t]
    new = np.array(new)
    a0, b0 = UC_TREND_VAR_PRIOR
    shape = a0 + 0.5 * (T - 1)
    rate = b0 + 0.5 * float(np.sum(np.diff(new) ** 2))
    q_new = float(rate / rng.gamma(shape, 1.0))
    return new, q_new


def _check_finite(arr, block: str, iteration: int) -> None:
    if not np.all(np.isfinite(arr)):
        raise McmcError(f"non-finite state in {block} block at iteration {iteration}")


def mcmc_step(spec: ModelSpec, data: WindowData, state: ChainState,
              rng: np.random.Generator, ctx: _GpContext | None = None) -> ChainState:
    """One full sweep: error block given residuals, then the mean block."""
    if ctx is None and spec.mean_kind != "UC":
        ctx = _GpContext(spec, data)
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
        state.trend, state.trend_var = uc_trend_update(
            y, state.trend, state.error, rng, state.trend_var)
        _check_finite(state.trend, "trend", state.iteration)
    else:
        r = y - offsets
        zeta = 1.0 / state.tau2 if spec.mean_kind == "GPSub" else None
        U = ctx.U
        A, _, logdetA = _a_pieces(ctx, state.hyper, zeta)
        cP, logdetP = _p_pieces(A, sigma, U)
        ll_cur = _collapsed_loglik(r, sigma, logdetA, cP, logdetP, U)
        pending: dict = {}

        def _ll(xi: float, phi: float) -> float:
            hyp = KernelHyper(xi, phi)
            try:
                A_p, _, ldA_p = _a_pieces(ctx, hyp, zeta)
                cP_p, ldP_p = _p_pieces(A_p, sigma, U)
            except SingularKernelError:
                return -np.inf
            pending[(xi, phi)] = cP_p
            return _collapsed_loglik(r, sigma, ldA_p, cP_p, ldP_p, U)

        new_hyper, accepted, _ = sample_kernel_hyper(
            state.hyper, _ll, rng, step=state.hyper_step.step, loglik_current=ll_cur)
        state.hyper_step.update(accepted)
        if accepted:
            state.hyper = new_hyper
            cP = pending[(new_hyper.xi, new_hyper.phi)]
        state.f = _draw_f(r, sigma, cP, rng, U)
        _check_finite(state.f, "mean", state.iteration)
        if spec.mean_kind == "GPSub":
            state.tau2 = sample_tau2(state.f, ctx.Phi0, state.tau2, rng,
                                     basis_rank=ctx.basis_rank)
    state.iteration += 1
    return state


# ---------------------------------------------------------------------------
# chain driver


def _trace_names(spec: ModelSpec) -> list[str]:
    names: list[str] = []
    if spec.mean_kind == "UC":
        names += ["trend_last", "trend_var"]
    else:
        names += ["xi", "phi", "f_mean"]
        if spec.mean_kind == "GPSub":
            names += ["tau2", "omega"]
    if spec.error_kind == "Homosk":
        names += ["sigma2"]
    if spec.error_kind in ("DPM", "DPMSV"):
        names += ["alpha", "n_occupied"]
    if spec.error_kind in ("SV", "DPMSV"):
        names += ["mu_h", "rho_h", "sig2_h", "h_last"]
    return names


def _record(spec: ModelSpec, state: ChainState, scalars: dict, i: int) -> None:
    s = state
    if spec.mean_kind == "UC":
        scalars["trend_last"][i] = s.trend[-1]
        scalars["trend_var"][i] = s.trend_var
    else:
        scalars["xi"][i] = s.hyper.xi
        scalars["phi"][i] = s.hyper.phi
        scalars["f_mean"][i] = float(np.mean(s.f))
        if spec.mean_kind == "GPSub":
            scalars["tau2"][i] = s.tau2
            scalars["omega"][i] = 1.0 / (1.0 + s.tau2)
    if spec.error_kind == "Homosk":
        scalars["sigma2"][i] = s.error.sigma2
    if spec.error_kind in ("DPM", "DPMSV"):
        scalars["alpha"][i] = s.error.dpm.alpha
        scalars["n_occupied"][i] = np.unique(s.error.dpm.alloc).size
    if spec.error_kind in ("SV", "DPMSV"):
        scalars["mu_h"][i] = s.error.sv.mu_h
        scalars["rho_h"][i] = s.error.sv.rho_h
        scalars["sig2_h"][i] = s.error.sv.sig2_h
        scalars["h_last"][i] = s.error.sv.h[-1]


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
              rng: np.random.Generator | None = None) -> PosteriorDraws:
    """Run one chain, keeping retained draws and per-draw predictive inputs."""
    t0 = time.perf_counter()
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    ctx = None if spec.mean_kind == "UC" else _GpContext(spec, data)
    state = init_state(spec, data, cfg)
    n_ret = cfg.n_retained
    scalars = {name: np.empty(n_ret) for name in _trace_names(spec)}
    f_draws = None if spec.mean_kind == "UC" else np.empty((n_ret, data.T))
    origin_mean = np.empty(n_ret)
    origin_var = np.empty(n_ret)
    dpm_kind = spec.error_kind in ("DPM", "DPMSV")
    err_w = [] if dpm_kind else None
    err_m = [] if dpm_kind else None
    err_v = [] if spec.error_kind == "DPM" else None
    hyper_acc = alpha_acc_n = 0
    hyper_try = alpha_try = 0
    kept = 0
    for i in range(cfg.n_iter):
        if i == cfg.n_burn:
            state.hyper_step.freeze()
            state.alpha_step.freeze()
        prev_hyper = state.hyper
        prev_alpha = None if not dpm_kind else state.error.dpm.alpha
        mcmc_step(spec, data, state, rng, ctx)
        if ctx is not None:
            hyper_try += 1
            hyper_acc += state.hyper is not prev_hyper
        if dpm_kind:
            alpha_try += 1
            alpha_acc_n += state.error.dpm.alpha != prev_alpha
        if i >= cfg.n_burn and (i - cfg.n_burn) % cfg.thin == 0:
            _record(spec, state, scalars, kept)
            if ctx is None:
                origin_mean[kept] = state.trend[-1]
                origin_var[kept] = data.horizon * state.trend_var
            else:
                f_draws[kept] = state.f
                zeta = None if state.tau2 is None else 1.0 / state.tau2
                origin_mean[kept], origin_var[kept] = ctx.origin_moments(
                    state.hyper, state.f, zeta)
            if dpm_kind:
                err_w.append(state.error.dpm.weights.copy())
                err_m.append(state.error.dpm.comp_mean.copy())
                if err_v is not None:
                    err_v.append(state.error.dpm.comp_var.copy())
            kept += 1
    ifs = {name: inefficiency_factor(vals) for name, vals in scalars.items()
           if np.std(vals) > 0.0}
    accept = {}
    if hyper_try:
        accept["hyper"] = hyper_acc / hyper_try
    if alpha_try:
        accept["alpha"] = alpha_acc_n / alpha_try
    return PosteriorDraws(
        spec=spec, window=data, scalars=scalars, f=f_draws,
        origin_mean=origin_mean, origin_var=origin_var,
        err_weights=err_w, err_means=err_m, err_vars=err_v,
        ifs=ifs, accept=accept, seed=cfg.seed,
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
        w = draws.err_weights[i]
        return w, draws.err_means[i], np.full(w.size, var)
    return draws.err_weights[i], draws.err_means[i], draws.err_vars[i]


def predictive_simulate(spec: ModelSpec, draws: PosteriorDraws,
                        rng: np.random.Generator) -> PredictiveDraws:
    """Simulate one outcome draw per retained posterior draw.

    Each retained draw contributes y* ~ N(mean + offset, var_f + var_e)
    with (mean, var_f) the mean block's moments at the origin that
    ``run_chain`` recorded, the mean shifted by the window level, and
    (offset, var_e) from the error block's h-step predictive.
    """
    n = draws.n_retained
    h = draws.window.horizon
    level = draws.window.y_offset
    out = np.empty(n)
    components: list = []
    for i in range(n):
        mean = float(draws.origin_mean[i]) + level
        var_f = float(draws.origin_var[i])
        w, off, ve = _error_mixture_for_draw(spec, draws, i, h, rng)
        j = 0 if w.size == 1 else int(rng.choice(w.size, p=w / w.sum()))
        out[i] = mean + off[j] + math.sqrt(var_f + ve[j]) * rng.standard_normal()
        components.append((mean, off, var_f + ve, w))
    qs = {p: float(np.quantile(out, p)) for p in P_GRID}
    return PredictiveDraws(
        origin_date=draws.window.origin_date, horizon=h, draws=out,
        point=float(np.mean(out)), quantiles=qs, components=components)


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
    return WindowData(y=sub.y - offset, X=sub.X, x_new=x_new,
                      origin_date=origin, horizon=h, y_offset=offset)


def forecast_cell(spec: ModelSpec, panel, origin: int, cfg: McmcConfig,
                  full: RegressionData, master_seed: int | None = None,
                  min_train: int = MIN_TRAIN_QUARTERS) -> PredictiveDraws:
    """Estimate one (model, origin) cell and simulate its predictive draws.

    ``full`` is the whole-sample data of the cell's dataset, as
    ``cli.cell_data`` assembles it. Raises ValueError when the training
    window is shorter than ``min_train``.
    """
    dspec = spec.dataset
    if spec.mean_kind == "UC":
        h = dspec.horizon
        mask = full.origin_dates <= origin - h
        window = WindowData(y=full.y[mask].copy(), X=None, x_new=None,
                            origin_date=origin, horizon=h)
    else:
        window = make_window(full, panel, dspec, origin)
    if window.T < min_train:
        raise ValueError(
            f"training window at {format_quarter(origin)} has {window.T} quarters "
            f"(minimum {min_train})")
    seed = cfg.seed
    if master_seed is not None:
        seed = derive_cell_seed(master_seed, spec.model_id, spec.dataset_label,
                                dspec.horizon, format_quarter(origin))
    rng = np.random.default_rng(seed)
    cell_cfg = replace(cfg, seed=seed)
    draws = run_chain(spec, window, cell_cfg, rng=rng)
    pred = predictive_simulate(spec, draws, rng)
    idx = np.searchsorted(full.origin_dates, origin)
    pred.y_true = float(full.y[idx])
    pred.diagnostics = {
        "seed": seed, "ifs": draws.ifs, "accept": draws.accept,
        "runtime": draws.runtime, "train_quarters": window.T,
        "model": spec.model_id, "dataset": spec.dataset_label,
    }
    return pred

