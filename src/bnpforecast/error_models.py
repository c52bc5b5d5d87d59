"""Error-term specifications and their Gibbs updates.

Four error models for regression residuals: homoskedastic Gaussian, a
Dirichlet-process mixture of Gaussians (stick-breaking weights, slice
sampling with the deterministic sequence pi_j = (1-kappa) kappa^(j-1)),
stochastic volatility (AR(1) log variance sampled through the standard
log-chi-squared Gaussian-mixture approximation), and the hybrid carrying
mixture means with a common SV variance, under the priors ``DPM_PRIORS``
and ``SV_PRIORS``. ``ffbs``, the scalar state-path sampler, draws both the
SV log-variance path and the UC trend (``model_engine.uc_trend_update``).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .data_pipeline import ERROR_KINDS

__all__ = [
    "KAPPA",
    "TRUNCATION_CAP",
    "DpmState",
    "SvState",
    "ErrorState",
    "DpmPriors",
    "SvPriors",
    "DPM_PRIORS",
    "SV_PRIORS",
    "slice_sequence",
    "stick_to_weights",
    "stick_beta_params",
    "sample_sticks",
    "sample_slice_and_alloc",
    "truncation_level",
    "update_truncation",
    "sample_alpha",
    "sample_component_means",
    "sample_component_vars",
    "sample_homosk_var",
    "ffbs",
    "sv_update",
    "error_variance_diag",
    "error_sweep",
    "init_error_state",
]

KAPPA = 0.8
TRUNCATION_CAP = 100

# floor inside log(eps^2) guarding zero residuals
LOG_RESID_FLOOR = 1e-6


@dataclass(frozen=True)
class DpmPriors:
    """Base-measure and concentration priors for the mixture."""

    mean_var: float = 4.0       # mu_j ~ N(0, mean_var)
    prec_shape: float = 10.0    # 1/sigma2_j ~ Gamma(prec_shape, prec_rate)
    prec_rate: float = 5.0
    alpha_shape: float = 2.0    # alpha ~ Gamma(alpha_shape, alpha_rate)
    alpha_rate: float = 4.0


@dataclass(frozen=True)
class SvPriors:
    """AR(1) log-volatility priors.

    mu_h ~ N(0, mu_var); (rho_h+1)/2 ~ Beta(rho_a, rho_b) on the stationary
    region; sig2_h ~ Gamma(sig_shape, sig_rate).
    """

    mu_var: float = 10.0
    rho_a: float = 25.0
    rho_b: float = 5.0
    sig_shape: float = 0.5
    sig_rate: float = 0.5


DPM_PRIORS = DpmPriors()
SV_PRIORS = SvPriors()


@dataclass
class DpmState:
    """Truncated stick-breaking mixture state.

    Cluster labels in ``alloc`` are zero-based; the stored representation
    always forces the last stick to one so weights sum to one.
    ``comp_var`` is None under the SV hybrid (common variance exp(h_t)).
    """

    sticks: np.ndarray
    weights: np.ndarray
    alloc: np.ndarray
    slice_u: np.ndarray
    comp_mean: np.ndarray
    comp_var: np.ndarray | None
    alpha: float

    @property
    def J(self) -> int:
        return self.sticks.size

    def validate(self) -> None:
        J = self.J
        if J < 1:
            raise ValueError("at least one mixture component required")
        if self.sticks[-1] != 1.0:
            raise ValueError("last stick must equal 1")
        if J > 1 and not np.all((self.sticks[:-1] > 0.0) & (self.sticks[:-1] < 1.0)):
            raise ValueError("interior sticks must lie in (0,1)")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if self.alloc.min(initial=0) < 0 or self.alloc.max(initial=0) >= J:
            raise ValueError("allocation outside {0..J-1}")
        if np.any(self.weights[self.alloc] <= 0.0):
            raise ValueError("observations allocated to zero-weight components")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        if self.comp_mean.shape != (J,):
            raise ValueError("one mean per component required")
        if self.comp_var is not None:
            if self.comp_var.shape != (J,) or np.any(self.comp_var <= 0.0):
                raise ValueError("component variances must be positive")


@dataclass
class SvState:
    """AR(1) log-variance path and parameters."""

    h: np.ndarray
    mu_h: float
    rho_h: float
    sig2_h: float

    def validate(self) -> None:
        if not np.all(np.isfinite(self.h)):
            raise ValueError("log-volatility path must be finite")
        if not -1.0 < self.rho_h < 1.0:
            raise ValueError("rho_h must lie inside the stationary region")
        if not self.sig2_h > 0.0:
            raise ValueError("sig2_h must be positive")


@dataclass
class ErrorState:
    """State container for whichever error model is active."""

    kind: str
    sigma2: float | None = None
    sigma2_prior: tuple[float, float] | None = None
    dpm: DpmState | None = None
    sv: SvState | None = None

    def validate(self) -> None:
        if self.kind not in ERROR_KINDS:
            raise ValueError(f"unknown error kind {self.kind!r}")
        if self.kind == "Homosk":
            if self.sigma2 is None or self.sigma2 <= 0.0:
                raise ValueError("homoskedastic state requires a positive variance")
        if self.kind in ("DPM", "DPMSV"):
            if self.dpm is None:
                raise ValueError(f"{self.kind} requires mixture state")
            self.dpm.validate()
            if self.kind == "DPM" and self.dpm.comp_var is None:
                raise ValueError("DPM requires component variances")
            if self.kind == "DPMSV" and self.dpm.comp_var is not None:
                raise ValueError("the SV hybrid carries no component variances")
        if self.kind in ("SV", "DPMSV"):
            if self.sv is None:
                raise ValueError(f"{self.kind} requires volatility state")
            self.sv.validate()


def slice_sequence(J: int) -> np.ndarray:
    """Deterministic slice bounds pi_j = (1-kappa) kappa^(j-1), j = 1..J."""
    return (1.0 - KAPPA) * KAPPA ** np.arange(J)


def stick_to_weights(sticks: np.ndarray) -> np.ndarray:
    """w_1 = s_1, w_j = s_j prod_{i<j} (1-s_i); sums to 1 when the last stick is 1."""
    s = np.asarray(sticks, dtype=float)
    remain = np.concatenate([[1.0], np.cumprod(1.0 - s[:-1])])
    return s * remain


def stick_beta_params(alloc: np.ndarray, alpha: float, J: int):
    """Beta(1+T_j, alpha + sum_{i>j} T_i) parameters for each stick."""
    counts = np.bincount(np.asarray(alloc, dtype=int), minlength=J).astype(float)
    above = np.concatenate([np.cumsum(counts[::-1])[::-1][1:], [0.0]])
    return 1.0 + counts, alpha + above


def sample_sticks(alloc: np.ndarray, alpha: float, J: int, rng: np.random.Generator) -> np.ndarray:
    """Posterior stick draws; the last stick is set to 1 (truncated representation)."""
    a, b = stick_beta_params(alloc, alpha, J)
    sticks = rng.beta(a, b)
    sticks = np.clip(sticks, 1e-12, 1.0 - 1e-12)
    sticks[-1] = 1.0
    return sticks


def _slice_coverage_level(min_u: float) -> int:
    """Smallest J with pi_{J+1} <= min_u, i.e. every reachable component exists."""
    if min_u >= (1.0 - KAPPA):
        return 1
    # (1-kappa) kappa^J <= min_u
    J = math.ceil(math.log(min_u / (1.0 - KAPPA)) / math.log(KAPPA))
    return max(1, J)


def _grow_components(state: DpmState, target_J: int, rng: np.random.Generator) -> DpmState:
    """Extend the truncated representation with fresh prior components.

    The forced last stick is first re-drawn from its Beta full conditional
    (counts above J are zero), then prior sticks/atoms are appended and the
    new final stick is forced to one.
    """
    J = state.J
    if target_J <= J:
        return state
    if target_J > TRUNCATION_CAP:
        warnings.warn(f"mixture truncation capped at {TRUNCATION_CAP} components")
        target_J = TRUNCATION_CAP
        if target_J <= J:
            return state
    counts = np.bincount(state.alloc, minlength=J)
    sticks = state.sticks.copy()
    sticks[-1] = np.clip(rng.beta(1.0 + counts[-1], state.alpha), 1e-12, 1.0 - 1e-12)
    n_new = target_J - J
    new_sticks = np.clip(rng.beta(1.0, state.alpha, size=n_new), 1e-12, 1.0 - 1e-12)
    sticks = np.concatenate([sticks, new_sticks])
    sticks[-1] = 1.0
    mean = np.concatenate([state.comp_mean,
                           rng.normal(0.0, math.sqrt(DPM_PRIORS.mean_var), size=n_new)])
    var = None
    if state.comp_var is not None:
        var = np.concatenate([state.comp_var,
                              1.0 / rng.gamma(DPM_PRIORS.prec_shape, 1.0 / DPM_PRIORS.prec_rate,
                                              size=n_new)])
    return replace(state, sticks=sticks, weights=stick_to_weights(sticks),
                   comp_mean=mean, comp_var=var)


def sample_slice_and_alloc(resid: np.ndarray, state: DpmState, rng: np.random.Generator,
                           sv_var: np.ndarray | None = None) -> DpmState:
    """Slice variables then cluster allocations.

    u_t ~ U(0, pi_{delta_t}); components reachable under the new slices but
    beyond the current truncation are instantiated from the prior before
    allocating; delta_t is then drawn with mass proportional to
    1{u_t < pi_j} / pi_j * w_j * N(eps_t; mu_j, sigma2_j) (sigma2_t under
    the SV hybrid).
    """
    resid = np.asarray(resid, dtype=float)
    T = resid.size
    pw = slice_sequence(state.J)
    u = rng.uniform(0.0, pw[state.alloc])
    u = np.maximum(u, 1e-300)
    state = _grow_components(state, _slice_coverage_level(float(u.min())), rng)
    J = state.J
    pw = slice_sequence(J)
    var = sv_var if sv_var is not None else state.comp_var
    if sv_var is not None:
        v = np.broadcast_to(np.asarray(var, dtype=float)[:, None], (T, J))
    else:
        v = np.broadcast_to(np.asarray(var, dtype=float)[None, :], (T, J))
    dev = resid[:, None] - state.comp_mean[None, :]
    with np.errstate(divide="ignore", over="ignore"):
        logmass = (np.log(state.weights)[None, :] - np.log(pw)[None, :]
                   - 0.5 * np.log(2.0 * math.pi * v) - 0.5 * dev * dev / v)
    logmass = np.where(u[:, None] < pw[None, :], logmass, -np.inf)
    finite_rows = np.isfinite(logmass).any(axis=1)
    if not finite_rows.all():
        warnings.warn("slice allocation underflow; assigning by maximum log-kernel")
        with np.errstate(divide="ignore", over="ignore"):
            fallback = (np.log(state.weights)[None, :]
                        - 0.5 * np.log(2.0 * math.pi * v) - 0.5 * dev * dev / v)
        logmass[~finite_rows] = fallback[~finite_rows]
    gumbel = rng.gumbel(size=(T, J))
    alloc = np.argmax(logmass + gumbel, axis=1)
    return replace(state, slice_u=u, alloc=alloc)


def truncation_level(weights: np.ndarray, slice_u: np.ndarray) -> int:
    """Smallest J with 1 - sum_{j<=J} w_j < min(u)."""
    w = np.asarray(weights, dtype=float)
    min_u = float(np.min(slice_u))
    tail = 1.0 - np.cumsum(w)
    ok = np.where(tail < min_u)[0]
    if ok.size:
        return int(ok[0]) + 1
    return w.size


def update_truncation(state: DpmState, rng: np.random.Generator) -> DpmState:
    """Adapt the truncation level to the weight-tail rule.

    The level never drops below the highest occupied component; growth adds
    prior-drawn components, shrinkage discards unoccupied trailing ones.
    """
    J_rule = truncation_level(state.weights, state.slice_u)
    occupied = int(state.alloc.max()) + 1
    J_new = max(J_rule, occupied)
    if J_new > TRUNCATION_CAP:
        warnings.warn(f"mixture truncation capped at {TRUNCATION_CAP} components")
        J_new = TRUNCATION_CAP
    if J_new > state.J:
        return _grow_components(state, J_new, rng)
    if J_new == state.J:
        return state
    sticks = state.sticks[:J_new].copy()
    sticks[-1] = 1.0
    var = None if state.comp_var is None else state.comp_var[:J_new].copy()
    return replace(state, sticks=sticks, weights=stick_to_weights(sticks),
                   comp_mean=state.comp_mean[:J_new].copy(), comp_var=var)


def sample_alpha(sticks: np.ndarray, alpha: float, rng: np.random.Generator,
                 step: float = 0.5) -> tuple[float, bool]:
    """Random-walk MH on log(alpha).

    Target: Gamma(alpha_shape, alpha_rate) prior times the Beta(1, alpha)
    density of each free stick (the forced final stick carries no
    information about alpha).
    """
    free = np.asarray(sticks, dtype=float)[:-1]
    log1m = float(np.sum(np.log1p(-free)))
    n_free = free.size

    def logpost(a: float) -> float:
        # includes the log-scale Jacobian
        return (n_free * math.log(a) + (a - 1.0) * log1m
                + DPM_PRIORS.alpha_shape * math.log(a) - DPM_PRIORS.alpha_rate * a)

    prop = alpha * math.exp(step * rng.standard_normal())
    if math.log(rng.uniform()) < logpost(prop) - logpost(alpha):
        return prop, True
    return alpha, False


def sample_component_means(resid: np.ndarray, state: DpmState, rng: np.random.Generator,
                           sv_var: np.ndarray | None = None) -> np.ndarray:
    """Conjugate Gaussian update of each component mean.

    Posterior precision = sum_{t in j} 1/sigma2_(t or j) + 1/v; posterior
    mean = posterior variance * sum_{t in j} eps_t / sigma2_(t or j).
    Empty components draw from the N(0, v) prior.
    """
    resid = np.asarray(resid, dtype=float)
    J = state.J
    if sv_var is not None:
        w = 1.0 / np.asarray(sv_var, dtype=float)
        prec_sum = np.bincount(state.alloc, weights=w, minlength=J)
        mean_sum = np.bincount(state.alloc, weights=w * resid, minlength=J)
    else:
        counts = np.bincount(state.alloc, minlength=J).astype(float)
        prec_sum = counts / state.comp_var
        mean_sum = np.bincount(state.alloc, weights=resid, minlength=J) / state.comp_var
    post_prec = prec_sum + 1.0 / DPM_PRIORS.mean_var
    post_var = 1.0 / post_prec
    post_mean = post_var * mean_sum
    return post_mean + np.sqrt(post_var) * rng.standard_normal(J)


def sample_component_vars(resid: np.ndarray, state: DpmState,
                          rng: np.random.Generator) -> np.ndarray:
    """Exact conjugate inverse-Gamma update of each component variance.

    sigma2_j ~ InvGamma(c0 + T_j/2, c1 + SSR_j/2); empty components draw
    from the prior.
    """
    resid = np.asarray(resid, dtype=float)
    J = state.J
    counts = np.bincount(state.alloc, minlength=J).astype(float)
    dev = resid - state.comp_mean[state.alloc]
    ssr = np.bincount(state.alloc, weights=dev * dev, minlength=J)
    shape = DPM_PRIORS.prec_shape + 0.5 * counts
    rate = DPM_PRIORS.prec_rate + 0.5 * ssr
    return rate / rng.gamma(shape, 1.0, size=J)


def sample_homosk_var(resid: np.ndarray, prior: tuple[float, float],
                      rng: np.random.Generator) -> float:
    """Conjugate InvGamma(a0 + T/2, b0 + SSR/2) draw of the common variance."""
    resid = np.asarray(resid, dtype=float)
    a0, b0 = prior
    shape = a0 + 0.5 * resid.size
    rate = b0 + 0.5 * float(resid @ resid)
    return float(rate / rng.gamma(shape, 1.0))


# 10-component Gaussian mixture approximation to log chi^2_1
# (Omori, Chib, Shephard & Nakajima 2007)
_SV_P = np.array([0.00609, 0.04775, 0.13057, 0.20674, 0.22715,
                  0.18842, 0.12047, 0.05591, 0.01575, 0.00115])
_SV_M = np.array([1.92677, 1.34744, 0.73504, 0.02266, -0.85173,
                  -1.97278, -3.46788, -5.55246, -8.68384, -14.65000])
_SV_V = np.array([0.11265, 0.17788, 0.26768, 0.40611, 0.62699,
                  0.98583, 1.57469, 2.54498, 4.16591, 7.33342])


def _sv_indicators(ystar: np.ndarray, h: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    dev = ystar[:, None] - h[:, None] - _SV_M[None, :]
    logp = np.log(_SV_P)[None, :] - 0.5 * np.log(2.0 * math.pi * _SV_V)[None, :] \
        - 0.5 * dev * dev / _SV_V[None, :]
    return np.argmax(logp + rng.gumbel(size=logp.shape), axis=1)


def ffbs(obs: np.ndarray, v: np.ndarray, a0: float, R0: float, mu: float, rho: float,
         q: float, rng: np.random.Generator) -> np.ndarray:
    """Forward filter, backward sample (Carter & Kohn 1994) of a scalar
    Gaussian state path.

    State x_t = mu + rho (x_{t-1} - mu) + N(0, q) with x_1 ~ N(a0, R0);
    observation obs_t = x_t + N(0, v_t). The recursions run on Python
    floats, which round each operation exactly as numpy's float64 scalars
    do. At mu = 0 and rho = 1 (a random walk) the extra operations are
    exact, so the path is the one a random-walk recursion gives bit for bit.
    """
    T = len(obs)
    obs = np.asarray(obs, dtype=float).tolist()
    v = np.asarray(v, dtype=float).tolist()
    mu, rho, q = float(mu), float(rho), float(q)
    rho2 = rho * rho
    m = [0.0] * T
    C = [0.0] * T
    a, R = float(a0), float(R0)
    for t in range(T):
        if t > 0:
            a = mu + rho * (m[t - 1] - mu)
            R = rho2 * C[t - 1] + q
        gain = R / (R + v[t])
        m[t] = a + gain * (obs[t] - a)
        C[t] = (1.0 - gain) * R
    x = [0.0] * T
    z = rng.standard_normal(T).tolist()
    x[-1] = m[-1] + math.sqrt(max(C[-1], 0.0)) * z[-1]
    rho2_q = rho2 / q
    shift = mu * (1.0 - rho)
    for t in range(T - 2, -1, -1):
        var = 1.0 / (1.0 / C[t] + rho2_q)
        mean = var * (m[t] / C[t] + rho * (x[t + 1] - shift) / q)
        x[t] = mean + math.sqrt(var) * z[t]
    return np.array(x)


def _sv_ffbs(ystar: np.ndarray, s: np.ndarray, mu: float, rho: float, q: float,
             rng: np.random.Generator) -> np.ndarray:
    """The log-variance path given the mixture indicators s: ystar_t = h_t +
    m_{s_t} + N(0, v_{s_t}), with h from its stationary AR(1) start."""
    return ffbs(ystar - _SV_M[s], _SV_V[s], mu, q / (1.0 - rho * rho), mu, rho, q, rng)


# Exact ports of scipy 1.17's truncnorm.rvs, beta.logpdf and geninvgauss.rvs
# for the AR(1) parameter block below. Each repeats scipy's arithmetic with
# the same numpy / scipy.special ufuncs, the same operand types and the same
# Generator draws, so every draw is bit-for-bit the one scipy returns from
# the same stream; tests/test_error_models.py pins the parity. rng.random()
# stands for scipy's rng.uniform(): both return the next double unchanged,
# and random() skips uniform()'s argument handling. Importing scipy's
# statistics package would about double every command's start-up time.

def _logaddexp(lp: float, lq: float) -> float:
    """log(e^lp + e^lq), rounded as scipy.special.logsumexp([lp, lq]) rounds it."""
    big, small = (lp, lq) if lp > lq else (lq, lp)
    if lp == lq or not math.isfinite(big) or math.isnan(small):
        return special.logsumexp([lp, lq])   # ties and non-finite edge cases
    return np.log1p(np.exp(small - big)) + big


def _logsubexp(lp: float, lq: float) -> float:
    """log(e^lp - e^lq), lp > lq, as the real part of logsumexp([lp, lq + i pi])."""
    if lp > lq and math.isfinite(lp):
        # the log(m) = log(1 + 0j) term of logsumexp contributes the + 0.0
        out = np.log1p(np.exp(complex(lq - lp, np.pi))).real + 0.0 + lp
        if math.isfinite(out):
            return out
    return float(np.real(special.logsumexp([lp, lq + np.pi * 1j])))


def _log_gauss_mass(a: float, b: float) -> float:
    """log(Phi(b) - Phi(a)), computed in the left tail as scipy does."""
    if b <= 0:
        return _logsubexp(special.log_ndtr(b), special.log_ndtr(a))
    if a > 0:
        return _logsubexp(special.log_ndtr(-a), special.log_ndtr(-b))
    return special.log1p(-special.ndtr(a) - special.ndtr(-b))


def _truncnorm_rvs(lo: float, hi: float, loc: float, scale: float,
                   rng: np.random.Generator) -> float:
    """loc + scale * Z, Z ~ N(0, 1) truncated to (lo, hi), by inverse CDF of one uniform."""
    if not lo < hi:
        raise ValueError(f"truncated normal needs lo < hi, got ({lo}, {hi})")
    u = rng.random()
    if lo < 0:
        x = special.ndtri_exp(_logaddexp(special.log_ndtr(lo),
                                         np.log(u) + _log_gauss_mass(lo, hi)))
    else:
        x = -special.ndtri_exp(_logaddexp(special.log_ndtr(-hi),
                                          np.log1p(-u) + _log_gauss_mass(lo, hi)))
    return float(x * scale + loc)


def _beta_logpdf(x: float, a: float, b: float) -> float:
    """Beta(a, b) log density at x in (0, 1)."""
    return special.xlog1py(b - 1.0, -x) + special.xlogy(a - 1.0, x) - special.betaln(a, b)


def _gig_logquasipdf(x, p: float, b: float):
    """(p-1) log x - b (x + 1/x) / 2; -inf off the support."""
    if not x > 0:
        return -np.inf
    return (p - 1) * np.log(x) - b * (x + 1 / x) / 2


def _gig_rvs(p: float, b: float, scale: float, rng: np.random.Generator) -> float:
    """scale * X, X ~ GIG(p, b) with density prop. to x^(p-1) exp(-b (x + 1/x) / 2).

    Ratio of uniforms with mode shift (Hormann & Leydold 2014, Stat. Comput.):
    the bounding rectangle comes from the roots of a cubic (Cardano), and
    each attempt draws two uniforms. For p < 0 the draw is 1/X' with
    X' ~ GIG(-p, b). The method covers |p| >= 1 or b > 1; with
    p = sig_shape - T/2 under the default priors, that is every T >= 3. The
    paper's two methods for |p| < 1 with b <= 1 are not carried.
    """
    if not b > 0:
        raise ValueError(f"GIG draw needs b > 0, got {b}")
    invert = p < 0
    if invert:
        p = -p
    if not (p >= 1 or b > 1):
        raise ValueError(f"GIG draw supports |p| >= 1 or b > 1 only, got |p|={p}, b={b}")
    if p < 1:
        m = b / (np.sqrt((p - 1)**2 + b**2) + 1 - p)
    else:
        m = (np.sqrt((1 - p)**2 + b**2) - (1 - p)) / b
    a2 = -2 * (p + 1) / b - m
    a1 = 2 * m * (p - 1) / b - 1
    p1 = a1 - a2**2 / 3
    q1 = 2 * a2**3 / 27 - a2 * a1 / 3 + m
    phi = np.arccos(-q1 * np.sqrt(-27 / p1**3) / 2)
    s1 = -np.sqrt(-4 * p1 / 3)
    root1 = s1 * np.cos(phi / 3 + np.pi / 3) - a2 / 3
    root2 = -s1 * np.cos(phi / 3) - a2 / 3
    lm = _gig_logquasipdf(m, p, b)
    vmin = (root1 - m) * np.exp(0.5 * (_gig_logquasipdf(root1, p, b) - lm))
    vmax = (root2 - m) * np.exp(0.5 * (_gig_logquasipdf(root2, p, b) - lm))
    if vmin >= vmax:
        raise ValueError(f"GIG bounding rectangle is empty (p={p}, b={b})")
    for _ in range(50000):
        u = rng.random()
        x = (vmin + (vmax - vmin) * rng.random()) / u + m
        if 2 * np.log(u) <= _gig_logquasipdf(x, p, b) - lm:
            break
    else:
        raise RuntimeError(f"no GIG variate accepted in 50000 attempts (p={p}, b={b})")
    if invert:
        x = 1 / x
    return float(x * scale)


def _sv_params(h: np.ndarray, state: SvState,
               rng: np.random.Generator) -> tuple[float, float, float]:
    """One Gibbs/MH pass over (mu_h, rho_h, sig2_h) given the log-variance path.

    mu_h is Gaussian. rho_h takes a truncated-normal proposal from the t >= 2
    likelihood with an MH correction for the Beta prior and the stationary
    initial term (Kastner & Fruhwirth-Schnatter 2014, CSDA). sig2_h is a
    generalized inverse Gaussian draw (Hormann & Leydold 2014, Stat. Comput.).
    The samplers match scipy 1.17's truncnorm/beta/geninvgauss streams draw
    for draw.
    """
    T = h.size
    priors = SV_PRIORS
    mu, rho, q = state.mu_h, state.rho_h, state.sig2_h

    # mu_h | h, rho, q  (Gaussian)
    prec = 1.0 / priors.mu_var + (1.0 - rho * rho) / q + (T - 1) * (1.0 - rho) ** 2 / q
    num = (1.0 - rho * rho) * h[0] / q + (1.0 - rho) * np.sum(h[1:] - rho * h[:-1]) / q
    mu = float(num / prec + math.sqrt(1.0 / prec) * rng.standard_normal())

    # rho_h | h, mu, q  (truncated-normal proposal from the t>=2 likelihood,
    # MH-corrected by the Beta prior and the stationary initial term)
    z = h - mu
    sz = float(z[:-1] @ z[:-1])
    if sz > 1e-12:
        mean_l = float(z[1:] @ z[:-1]) / sz
        sd_l = math.sqrt(q / sz)
        lo, hi = (-1.0 + 1e-6 - mean_l) / sd_l, (1.0 - 1e-6 - mean_l) / sd_l
        prop = _truncnorm_rvs(lo, hi, mean_l, sd_l, rng)

        def _extra(r: float) -> float:
            return (_beta_logpdf((r + 1.0) / 2.0, priors.rho_a, priors.rho_b)
                    + 0.5 * math.log1p(-r * r) - (1.0 - r * r) * z[0] ** 2 / (2.0 * q))

        if math.log(rng.uniform()) < _extra(prop) - _extra(rho):
            rho = prop

    # sig2_h | h, mu, rho: generalized inverse Gaussian under the Gamma prior
    S = (1.0 - rho * rho) * z[0] ** 2 + float(np.sum((z[1:] - rho * z[:-1]) ** 2))
    S = max(S, 1e-12)
    psi = 2.0 * priors.sig_rate
    p = priors.sig_shape - 0.5 * T
    b = math.sqrt(S * psi)
    q_new = _gig_rvs(p, b, math.sqrt(S / psi), rng)
    return mu, rho, max(q_new, 1e-12)


def sv_update(resid: np.ndarray, state: SvState, rng: np.random.Generator) -> SvState:
    """One volatility sweep: mixture indicators, FFBS path, AR(1) parameters.

    Inputs are raw residuals (SV) or residuals net of component means
    (the SV hybrid). Squared residuals are floored at 1e-6 inside the log.
    """
    resid = np.asarray(resid, dtype=float)
    ystar = np.log(np.maximum(resid * resid, LOG_RESID_FLOOR))
    s = _sv_indicators(ystar, state.h, rng)
    h = _sv_ffbs(ystar, s, state.mu_h, state.rho_h, state.sig2_h, rng)
    mu, rho, q = _sv_params(h, state, rng)
    return SvState(h=h, mu_h=mu, rho_h=rho, sig2_h=q)


def error_variance_diag(state: ErrorState, T: int) -> np.ndarray:
    """Per-observation error variances implied by the current state."""
    if state.kind == "Homosk":
        return np.full(T, float(state.sigma2))
    if state.kind == "DPM":
        return state.dpm.comp_var[state.dpm.alloc]
    return np.exp(state.sv.h)


def error_mean_offsets(state: ErrorState, T: int) -> np.ndarray:
    """Per-observation error means (component means under DPM kinds)."""
    if state.kind in ("DPM", "DPMSV"):
        return state.dpm.comp_mean[state.dpm.alloc]
    return np.zeros(T)


def error_sweep(state: ErrorState, resid: np.ndarray, rng: np.random.Generator,
                alpha_step: float = 0.5) -> tuple[ErrorState, bool | None]:
    """One full error-block Gibbs sweep given current residuals.

    Returns the updated state and, for DPM kinds, whether the alpha move
    was accepted (None otherwise).
    """
    resid = np.asarray(resid, dtype=float)
    if state.kind == "Homosk":
        sigma2 = sample_homosk_var(resid, state.sigma2_prior, rng)
        return replace(state, sigma2=sigma2), None
    if state.kind == "SV":
        return replace(state, sv=sv_update(resid, state.sv, rng)), None

    dpm = state.dpm
    sticks = sample_sticks(dpm.alloc, dpm.alpha, dpm.J, rng)
    dpm = replace(dpm, sticks=sticks, weights=stick_to_weights(sticks))
    sv_var = np.exp(state.sv.h) if state.kind == "DPMSV" else None
    dpm = sample_slice_and_alloc(resid, dpm, rng, sv_var=sv_var)
    alpha, alpha_accepted = sample_alpha(dpm.sticks, dpm.alpha, rng, alpha_step)
    dpm = replace(dpm, alpha=alpha)
    dpm = replace(dpm, comp_mean=sample_component_means(resid, dpm, rng, sv_var=sv_var))
    sv = state.sv
    if state.kind == "DPM":
        dpm = replace(dpm, comp_var=sample_component_vars(resid, dpm, rng))
    else:
        sv = sv_update(resid - dpm.comp_mean[dpm.alloc], sv, rng)
    dpm = update_truncation(dpm, rng)
    return replace(state, dpm=dpm, sv=sv), alpha_accepted


def init_error_state(kind: str, T: int, resid_var: float) -> ErrorState:
    """Neutral starting state: one mixture cluster, flat log-volatility."""
    state = ErrorState(kind=kind)
    if kind == "Homosk":
        state.sigma2 = resid_var
        state.sigma2_prior = (3.0, 3.0 * resid_var)
    if kind in ("DPM", "DPMSV"):
        var = None
        if kind == "DPM":
            var = np.array([DPM_PRIORS.prec_rate / DPM_PRIORS.prec_shape])
        state.dpm = DpmState(
            sticks=np.array([1.0]), weights=np.array([1.0]),
            alloc=np.zeros(T, dtype=int),
            slice_u=np.full(T, 0.5 * (1.0 - KAPPA)),
            comp_mean=np.zeros(1), comp_var=var, alpha=0.5)
    if kind in ("SV", "DPMSV"):
        h0 = math.log(max(resid_var, 1e-8))
        state.sv = SvState(h=np.full(T, h0), mu_h=h0, rho_h=2.0 / 3.0, sig2_h=0.1)
    state.validate()
    return state
