"""Model composition and the MCMC forecasting engine.

Combines a conditional-mean block (GP, subspace-shrunk GP, its linear
limit, or a random-walk trend) with an error block (homoskedastic, DPM,
SV, or DPM-SV) into the sixteen model variants, runs the Gibbs/MH chain,
simulates h-step-ahead predictive draws, and drives the recursive
expanding-window forecast experiment.

The GP updates work in precision form: with A = K^{-1} + (I - Phi0)/tau^2
(A = K^{-1} for the plain GP) and P = A + Sigma^{-1}, the latent function
draw and the collapsed marginal likelihood for the kernel hyperparameters
(Rasmussen & Williams 2006, Alg. 2.1, in precision form) come from the
Cholesky factors of K, A and P. K^{-1} is formed once per kernel
hyperparameter by LAPACK ``dpotri`` on the factor of K, and the factor of
A is kept per (hyperparameter, tau^2). A sweep that proposes a new
hyperparameter therefore costs three T^3/3 factorizations for GP (P at the
current and at the proposed hyperparameter, K at the proposed one), four
for Linear (plus A at the proposed one) and five for GPSub (plus A at the
current one, after every tau^2 move), and one ``dpotri``. The predictive
conditional at a new point takes one Cholesky of the augmented kernel per
distinct retained hyperparameter.
"""
from __future__ import annotations

import hashlib
import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_solve, qr, solve_triangular
from scipy.linalg.lapack import dpotri

from .data_pipeline import (
    DatasetSpec,
    RegressionData,
    assemble_regression,
    build_target,
    format_quarter,
    parse_quarter,
    principal_components,
)
from .error_models import (
    ERROR_KINDS,
    DpmPriors,
    ErrorState,
    SvPriors,
    SvState,
    error_mean_offsets,
    error_sweep,
    error_variance_diag,
    init_error_state,
)
from .evaluation import P_GRID
from .gp_core import (
    PC_BASIS_RANK,
    AdaptiveStep,
    GpState,
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
    "LINEAR_TAU2",
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
    "assemble_target_only",
    "forecast_origins",
    "make_window",
    "forecast_cell",
    "recursive_forecast",
    "inefficiency_factor",
]

MEAN_KINDS = ("UC", "Linear", "GP", "GPSub")

# tau^2 value realizing the omega = 1 linear limit of the subspace model
LINEAR_TAU2 = 1e-8

MIN_TRAIN_QUARTERS = 40

UC_PRIOR_INIT_VAR = 10.0        # trend_1 ~ N(y_1, this)
UC_TREND_VAR_PRIOR = (3.0, 1.0)  # InvGamma(shape, rate) on sigma2_eta


class McmcError(RuntimeError):
    """Chain produced a non-finite state."""


@dataclass(frozen=True)
class ModelSpec:
    """One cell of the model grid.

    The dataset specification always travels with the model because it
    names the target series and horizon; the trend model ignores its
    predictor variant.
    """

    mean_kind: str
    error_kind: str
    dataset: DatasetSpec
    horizon: int | None = None

    def __post_init__(self):
        if self.mean_kind not in MEAN_KINDS:
            raise ValueError(f"unknown mean kind {self.mean_kind!r}")
        if self.error_kind not in ERROR_KINDS:
            raise ValueError(f"unknown error kind {self.error_kind!r}")
        if self.horizon is None:
            object.__setattr__(self, "horizon", self.dataset.horizon)
        elif self.horizon != self.dataset.horizon:
            raise ValueError("model horizon must match the dataset horizon")

    @property
    def model_id(self) -> str:
        return f"{self.mean_kind}-{self.error_kind}"

    @property
    def dataset_label(self) -> str:
        # the trend model carries no predictors
        if self.mean_kind == "UC":
            return "none"
        return self.dataset.variant

    @property
    def pinned_tau2(self) -> float | None:
        return LINEAR_TAU2 if self.mean_kind == "Linear" else None


@dataclass
class McmcConfig:
    """Chain length, seeding, and proposal-adaptation settings."""

    n_iter: int = 20000
    n_burn: int = 10000
    thin: int = 1
    seed: int | None = None
    adapt_window: int = 25
    hyper_step: float = 0.3
    alpha_step: float = 0.5
    fix_kernel_hyper: bool = False
    pc_rank: int = PC_BASIS_RANK

    def __post_init__(self):
        if not 0 <= self.n_burn < self.n_iter:
            raise ValueError("need 0 <= n_burn < n_iter")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")

    @property
    def n_retained(self) -> int:
        return (self.n_iter - self.n_burn + self.thin - 1) // self.thin


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
    """Retained draws stored columnarly plus per-draw predictive inputs."""

    spec: ModelSpec
    window: WindowData
    scalars: dict[str, np.ndarray]
    f: np.ndarray | None
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


def model_grid(mean_kinds=MEAN_KINDS, error_kinds=ERROR_KINDS) -> list[str]:
    """All mean x error identifiers, benchmark (UC-SV) included."""
    return [f"{m}-{e}" for m in mean_kinds for e in error_kinds]


def derive_cell_seed(master_seed: int, model_id: str, dataset: str, horizon: int,
                     origin: str) -> int:
    """Order-independent per-cell seed from the master seed and cell identity."""
    key = f"{master_seed}|{model_id}|{dataset}|{horizon}|{origin}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:16], "big")


# ---------------------------------------------------------------------------
# window context: per-window precomputations and per-hyper factor caches


def _window_basis(X: np.ndarray, x_new: np.ndarray | None, force_pc: bool,
                  pc_rank: int) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Shrinkage-target basis for the window (raw predictors or PC scores)."""
    T, K = X.shape
    if force_pc or K >= T:
        r = min(pc_rank, T - 1, K)
        scores, loadings = principal_components(X, r, return_loadings=True)
        b_new = None if x_new is None else np.asarray(x_new, float) @ loadings
        return scores, b_new, r
    return X, (None if x_new is None else np.asarray(x_new, float)), K


@dataclass
class _HyperSlot:
    """Factors cached for one kernel hyperparameter.

    ``kinv`` and the cached A carry their values in the lower triangle
    only: ``dpotri`` fills one triangle, and every consumer (the lower
    Cholesky factorizations of A and P, and the solves against them) reads
    that triangle alone, so the upper one is never mirrored.
    """

    kinv: np.ndarray
    logdet_k: float
    zeta: float | None = None
    prec: tuple | None = None  # (A, chol A, log det A) at zeta


class _GpContext:
    """Precomputed quantities and factor caches for one estimation window."""

    def __init__(self, spec: ModelSpec, data: WindowData, pc_rank: int = PC_BASIS_RANK,
                 fix_kernel_hyper: bool = False):
        self.spec = spec
        self.data = data
        self.fix_kernel_hyper = fix_kernel_hyper
        self.D2 = squared_distances(data.X)
        self.T = data.T
        self.Phi0 = None
        self.Q = None
        self.basis_rank = None
        if spec.mean_kind in ("Linear", "GPSub"):
            force_pc = spec.dataset is not None and spec.dataset.variant == "Large"
            B, b_new, k = _window_basis(data.X, data.x_new, force_pc, pc_rank)
            Qb, R = qr(B, mode="economic")
            dR = np.abs(np.diag(R))
            if dR.min() <= 1e-10 * max(dR.max(), 1.0):
                raise SingularKernelError(
                    "projection basis is rank deficient; drop collinear columns")
            self.Phi0 = Qb @ Qb.T
            self.Q = np.eye(self.T) - self.Phi0
            self.basis_rank = k
            self.basis = B
            self.basis_new = b_new
        # two-slot kernel cache: current hyper and latest proposal
        self._kp: list[tuple[tuple[float, float], _HyperSlot]] = []

    def kernel_pieces(self, hyper: KernelHyper) -> _HyperSlot:
        """The cached factor slot of the Gaussian kernel at this hyperparameter.

        A slot holds K^{-1} (lower triangle only; see ``_HyperSlot``),
        log det K, and once ``_a_pieces`` has asked for them, the prior
        precision A at one zeta with its Cholesky factor and log det A. The
        two slots hold the last two hyperparameters asked for, the current
        one and the latest proposal; a hit moves its slot to the back.
        """
        key = (hyper.xi, hyper.phi)
        for i, (k, slot) in enumerate(self._kp):
            if k == key:
                self._kp.append(self._kp.pop(i))
                return slot
        K = kernel_from_sqdist(self.D2, hyper)
        cK, _ = chol_psd(K, what="kernel matrix")
        logdet_k = 2.0 * float(np.sum(np.log(np.diag(cK))))
        Kinv, _ = dpotri(cK, lower=1, overwrite_c=1)
        slot = _HyperSlot(Kinv, logdet_k)
        self._kp.append((key, slot))
        if len(self._kp) > 2:
            self._kp.pop(0)
        return slot


def _a_pieces(ctx: _GpContext, hyper: KernelHyper, zeta: float | None):
    """A = K^{-1} (+ zeta (I - Phi0)), its Cholesky factor and log-determinant.

    For the plain GP (zeta None) A is K^{-1}: nothing is factored, the
    factor comes back as None and log det A = -log det K. Otherwise A and
    its factor are cached in the hyperparameter's slot for this zeta.
    Only A's lower triangle is meaningful.
    """
    slot = ctx.kernel_pieces(hyper)
    if zeta is None:
        return slot.kinv, None, -slot.logdet_k
    if slot.zeta != zeta:
        A = slot.kinv + zeta * ctx.Q
        cA = chol_psd(A, what="prior precision")
        slot.zeta, slot.prec = zeta, (A, cA, 2.0 * float(np.sum(np.log(np.diag(cA[0])))))
    return slot.prec


def _p_pieces(A: np.ndarray, sigma: np.ndarray):
    """P = A + Sigma^{-1} with its Cholesky factor and log-determinant.

    Reads A's lower triangle only.
    """
    P = A.copy()
    P[np.diag_indices_from(P)] += 1.0 / sigma
    cP = chol_psd(P, what="posterior precision")
    logdetP = 2.0 * float(np.sum(np.log(np.diag(cP[0]))))
    return cP, logdetP


def _collapsed_loglik(r: np.ndarray, sigma: np.ndarray, logdetA: float,
                      cP, logdetP: float) -> float:
    """log N(r; 0, K1 + Sigma) with the latent function integrated out."""
    T = r.size
    b = r / sigma
    quad = float(r @ b) - float(b @ cho_solve(cP, b, check_finite=False))
    return -0.5 * (T * math.log(2.0 * math.pi) + float(np.sum(np.log(sigma)))
                   + logdetP - logdetA + quad)


def _draw_f(r: np.ndarray, sigma: np.ndarray, cP, rng: np.random.Generator) -> np.ndarray:
    """f ~ N(P^{-1} Sigma^{-1} r, P^{-1}) from the lower Cholesky factor L of P:
    the noise is L^{-T} z."""
    fbar = cho_solve(cP, r / sigma, check_finite=False)
    z = rng.standard_normal(r.size)
    return fbar + solve_triangular(cP[0], z, lower=True, trans="T", check_finite=False)


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
        force_pc = spec.dataset is not None and spec.dataset.variant == "Large"
        B, _, _ = _window_basis(data.X, None, force_pc, cfg.pc_rank)
        s2 = _ols_residual_var(y, B)
        error = init_error_state(spec.error_kind, y.size, s2)
        tau2 = spec.pinned_tau2 if spec.mean_kind == "Linear" else (
            1.0 if spec.mean_kind == "GPSub" else None)
        state = ChainState(error=error, f=np.zeros(y.size),
                           hyper=KernelHyper(0.5, 0.5), tau2=tau2)
    state.hyper_step = AdaptiveStep(step=cfg.hyper_step, window=cfg.adapt_window)
    state.alpha_step = AdaptiveStep(step=cfg.alpha_step, window=cfg.adapt_window)
    return state


# ---------------------------------------------------------------------------
# one sweep


def uc_trend_update(y: np.ndarray, trend: np.ndarray, error_state: ErrorState,
                    rng: np.random.Generator, trend_var: float,
                    prior: tuple[float, float] = UC_TREND_VAR_PRIOR,
                    init_var: float = UC_PRIOR_INIT_VAR) -> tuple[np.ndarray, float]:
    """Random-walk trend FFBS plus the conjugate innovation-variance draw.

    Observation y_t = trend_t + e_t with per-t means/variances taken from
    the error state; trend_1 ~ N(y_1, init_var).
    """
    y = np.asarray(y, dtype=float)
    T = y.size
    sigma = error_variance_diag(error_state, T)
    obs = y - error_mean_offsets(error_state, T)
    q = max(float(trend_var), 1e-15)
    m = np.empty(T)
    C = np.empty(T)
    a, R = y[0], init_var
    for t in range(T):
        if t > 0:
            a, R = m[t - 1], C[t - 1] + q
        gain = R / (R + sigma[t])
        m[t] = a + gain * (obs[t] - a)
        C[t] = (1.0 - gain) * R
    new = np.empty(T)
    z = rng.standard_normal(T)
    new[-1] = m[-1] + math.sqrt(max(C[-1], 0.0)) * z[-1]
    for t in range(T - 2, -1, -1):
        prec = 1.0 / C[t] + 1.0 / q
        var = 1.0 / prec
        mean = var * (m[t] / C[t] + new[t + 1] / q)
        new[t] = mean + math.sqrt(var) * z[t]
    a0, b0 = prior
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
        zeta = None if spec.mean_kind == "GP" else 1.0 / state.tau2
        A, _, logdetA = _a_pieces(ctx, state.hyper, zeta)
        cP, logdetP = _p_pieces(A, sigma)
        if not ctx.fix_kernel_hyper:
            ll_cur = _collapsed_loglik(r, sigma, logdetA, cP, logdetP)
            pending: dict = {}

            def _ll(xi: float, phi: float) -> float:
                hyp = KernelHyper(xi, phi)
                try:
                    A_p, _, ldA_p = _a_pieces(ctx, hyp, zeta)
                    cP_p, ldP_p = _p_pieces(A_p, sigma)
                except SingularKernelError:
                    return -np.inf
                pending[(xi, phi)] = cP_p
                return _collapsed_loglik(r, sigma, ldA_p, cP_p, ldP_p)

            new_hyper, accepted, _ = sample_kernel_hyper(
                state.hyper, _ll, rng, step=state.hyper_step.step, loglik_current=ll_cur)
            state.hyper_step.update(accepted)
            if accepted:
                state.hyper = new_hyper
                cP = pending[(new_hyper.xi, new_hyper.phi)]
        state.f = _draw_f(r, sigma, cP, rng)
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


def inefficiency_factor(trace: np.ndarray, taper_frac: float = 0.04) -> float:
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
    L = max(1, int(round(taper_frac * n)))
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
    ctx = None
    if spec.mean_kind != "UC":
        ctx = _GpContext(spec, data, pc_rank=cfg.pc_rank,
                         fix_kernel_hyper=cfg.fix_kernel_hyper)
    state = init_state(spec, data, cfg)
    n_ret = cfg.n_retained
    scalars = {name: np.empty(n_ret) for name in _trace_names(spec)}
    f_draws = None if spec.mean_kind == "UC" else np.empty((n_ret, data.T))
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
        if spec.mean_kind != "UC" and not cfg.fix_kernel_hyper:
            hyper_try += 1
            hyper_acc += state.hyper is not prev_hyper
        if dpm_kind:
            alpha_try += 1
            alpha_acc_n += state.error.dpm.alpha != prev_alpha
        if i >= cfg.n_burn and (i - cfg.n_burn) % cfg.thin == 0:
            _record(spec, state, scalars, kept)
            if f_draws is not None:
                f_draws[kept] = state.f
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
        err_weights=err_w, err_means=err_m, err_vars=err_v,
        ifs=ifs, accept=accept, seed=cfg.seed,
        runtime=time.perf_counter() - t0, n_retained=kept)


# ---------------------------------------------------------------------------
# prediction


class _GpPredictor:
    """Conditional (mean, var) of f at the origin row via the precision row.

    The joint precision over (f, f_new) is P_aug = K_aug^{-1}
    (+ zeta (I - Phi_aug)); conditioning the last coordinate needs only its
    column, so the kernel Cholesky is cached per distinct hyperparameter
    pair and the subspace part enters as a fixed projector column.
    """

    def __init__(self, spec: ModelSpec, data: WindowData, pc_rank: int = PC_BASIS_RANK):
        X = np.asarray(data.X, dtype=float)
        x_new = np.asarray(data.x_new, dtype=float).ravel()
        self.T = X.shape[0]
        Xa = np.vstack([X, x_new])
        self.D2a = squared_distances(Xa)
        self.e_last = np.zeros(self.T + 1)
        self.e_last[-1] = 1.0
        self.phi_col = None
        if spec.mean_kind in ("Linear", "GPSub"):
            force_pc = spec.dataset is not None and spec.dataset.variant == "Large"
            B, b_new, _ = _window_basis(X, x_new, force_pc, pc_rank)
            Ba = np.vstack([B, b_new])
            Qa = qr(Ba, mode="economic")[0]
            self.phi_col = Qa @ Qa[-1, :]
        self._key = None
        self._kinv_col = None

    def __call__(self, f: np.ndarray, xi: float, phi: float,
                 zeta: float | None) -> tuple[float, float]:
        key = (xi, phi)
        if key != self._key:
            Ka = kernel_from_sqdist(self.D2a, KernelHyper(xi, phi))
            cKa = chol_psd(Ka, what="augmented kernel")
            self._kinv_col = cho_solve(cKa, self.e_last, check_finite=False)
            self._key = key
        col = self._kinv_col
        if zeta is not None:
            col = col + zeta * (self.e_last - self.phi_col)
        prec = max(float(col[-1]), 1e-300)
        mean = -float(col[:-1] @ f) / prec
        return mean, max(1.0 / prec, 0.0)


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
                        x_origin: np.ndarray | None,
                        rng: np.random.Generator) -> PredictiveDraws:
    """Simulate one outcome draw per retained posterior draw.

    Each retained draw contributes y* ~ N(mean + offset, var_f + var_e)
    with (mean, var_f) from the conditional-mean block and
    (offset, var_e) from the error block's h-step predictive.
    """
    n = draws.n_retained
    h = draws.window.horizon
    s = draws.scalars
    out = np.empty(n)
    components: list = []
    predictor = None
    if spec.mean_kind != "UC":
        data = draws.window
        if x_origin is not None and data.x_new is None:
            data = WindowData(data.y, data.X, np.asarray(x_origin, float),
                              data.origin_date, data.horizon, data.y_offset)
        predictor = _GpPredictor(spec, data)
    level = draws.window.y_offset
    for i in range(n):
        if spec.mean_kind == "UC":
            mean = float(s["trend_last"][i])
            var_f = h * float(s["trend_var"][i])
        else:
            zeta = None
            if spec.mean_kind == "Linear":
                zeta = 1.0 / LINEAR_TAU2
            elif spec.mean_kind == "GPSub":
                zeta = 1.0 / float(s["tau2"][i])
            mean, var_f = predictor(draws.f[i], float(s["xi"][i]),
                                    float(s["phi"][i]), zeta)
            mean += level
        w, off, ve = _error_mixture_for_draw(spec, draws, i, h, rng)
        j = 0 if w.size == 1 else int(rng.choice(w.size, p=w / w.sum()))
        out[i] = mean + off[j] + math.sqrt(var_f + ve[j]) * rng.standard_normal()
        components.append((mean, off, var_f + ve, w))
    qs = {p: float(np.quantile(out, p)) for p in P_GRID}
    return PredictiveDraws(
        origin_date=draws.window.origin_date, horizon=h, draws=out,
        point=float(np.mean(out)), quantiles=qs, components=components)


# ---------------------------------------------------------------------------
# recursive experiment


def assemble_target_only(panel, dspec: DatasetSpec) -> RegressionData:
    """Target series alone (no predictors), for the trend benchmark."""
    prices = panel.column(dspec.target_series)
    finite = np.isfinite(prices)
    lo = int(np.argmax(finite))
    hi = len(prices) - int(np.argmax(finite[::-1]))
    p, pdates = prices[lo:hi], panel.dates[lo:hi]
    y = build_target(p, dspec.horizon)
    return RegressionData(y, np.empty((y.size, 0)), pdates[:-dspec.horizon],
                          dspec.horizon, [])


def forecast_origins(data: RegressionData, eval_start: int, eval_end: int) -> list[int]:
    """Origins whose realization date origin+h falls inside the window."""
    h = data.horizon
    return [int(o) for o in data.origin_dates if eval_start <= o + h <= eval_end]


def make_window(full: RegressionData, panel, dspec: DatasetSpec, origin: int,
                standardize: bool = True) -> WindowData:
    """Estimation window ending at origin-h plus the origin's predictor row."""
    h = dspec.horizon
    end = origin - h
    sub = assemble_regression(panel, dspec, end_date=end, standardize=standardize)
    idx = np.searchsorted(full.origin_dates, origin)
    if idx >= len(full.origin_dates) or full.origin_dates[idx] != origin:
        raise ValueError(f"no predictor row at origin {format_quarter(origin)}")
    x_new = full.X[idx].astype(float).copy()
    if standardize and sub.x_sd is not None:
        x_new = (x_new - sub.x_mean) / sub.x_sd
    offset = float(np.mean(sub.y))
    return WindowData(y=sub.y - offset, X=sub.X, x_new=x_new,
                      origin_date=origin, horizon=h, y_offset=offset)


def forecast_cell(spec: ModelSpec, panel, origin: int, cfg: McmcConfig,
                  master_seed: int | None = None,
                  full: RegressionData | None = None,
                  min_train: int = MIN_TRAIN_QUARTERS) -> PredictiveDraws:
    """Estimate one (model, origin) cell and simulate its predictive draws.

    Raises ValueError when the training window is shorter than ``min_train``.
    """
    dspec = spec.dataset
    if full is None:
        full = (assemble_target_only(panel, dspec) if spec.mean_kind == "UC"
                else assemble_regression(panel, dspec, standardize=False))
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
    pred = predictive_simulate(spec, draws, window.x_new, rng)
    idx = np.searchsorted(full.origin_dates, origin)
    pred.y_true = float(full.y[idx])
    pred.diagnostics = {
        "seed": seed, "ifs": draws.ifs, "accept": draws.accept,
        "runtime": draws.runtime, "train_quarters": window.T,
        "model": spec.model_id, "dataset": spec.dataset_label,
    }
    return pred


def recursive_forecast(spec: ModelSpec, panel, eval_start, eval_end,
                       cfg: McmcConfig, master_seed: int | None = None,
                       min_train: int = MIN_TRAIN_QUARTERS) -> list[PredictiveDraws]:
    """Expanding-window experiment: a fresh chain at every origin with at
    least ``min_train`` training quarters."""
    if isinstance(eval_start, str):
        eval_start = parse_quarter(eval_start)
    if isinstance(eval_end, str):
        eval_end = parse_quarter(eval_end)
    dspec = spec.dataset
    full = (assemble_target_only(panel, dspec) if spec.mean_kind == "UC"
            else assemble_regression(panel, dspec, standardize=False))
    results: list[PredictiveDraws] = []
    for origin in forecast_origins(full, eval_start, eval_end):
        h = dspec.horizon
        n_train = int(np.sum(full.origin_dates <= origin - h))
        if n_train < min_train:
            warnings.warn(
                f"skipping origin {format_quarter(origin)}: {n_train} training "
                f"quarters (minimum {min_train})")
            continue
        results.append(forecast_cell(spec, panel, origin, cfg, master_seed=master_seed,
                                     full=full, min_train=min_train))
    return results
