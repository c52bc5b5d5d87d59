"""Error-term specifications and their Gibbs updates.

Four error models for regression residuals: homoskedastic Gaussian, a
Dirichlet-process mixture of Gaussians (stick-breaking weights, slice
sampling with the deterministic sequence pi_j = (1-kappa) kappa^(j-1)),
stochastic volatility (AR(1) log variance sampled through the standard
log-chi-squared Gaussian-mixture approximation), and the hybrid carrying
mixture means with a common SV variance, under the priors ``DPM_PRIORS``
and ``SV_PRIORS``. ``ffbs``, the scalar state-path sampler, draws both the
SV log-variance path and the UC trend (``model_engine.uc_trend_update``).
The AR(1) parameters take the full conditionals of Kastner &
Fruhwirth-Schnatter (2014, CSDA), drawn with numpy alone: a Gaussian mu_h,
an independence MH move on rho_h, and sig2_h by rejection from an
inverse-gamma envelope.

``error_sweep`` updates the ``ErrorState`` it is given in place, and the
mixture keeps one copy of its state: the weights are derived from the
sticks, and the slice variables live only within a sweep. The states
carry no checks of their own: ``data_pipeline.ModelSpec`` checks the
error kind before a chain starts, and the test suite asserts the states'
invariants after each sweep.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

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
    """Truncated stick-breaking mixture state, which the sweep updates in
    place.

    Cluster labels in ``alloc`` are zero-based; the stored representation
    always forces the last stick to one, so the ``weights`` derived from
    the sticks sum to one. ``comp_var`` is None under the SV hybrid (common
    variance exp(h_t)).
    """

    sticks: np.ndarray
    alloc: np.ndarray
    comp_mean: np.ndarray
    comp_var: np.ndarray | None
    alpha: float

    @property
    def J(self) -> int:
        return self.sticks.size

    @property
    def weights(self) -> np.ndarray:
        return stick_to_weights(self.sticks)


@dataclass
class SvState:
    """AR(1) log-variance path and parameters."""

    h: np.ndarray
    mu_h: float
    rho_h: float
    sig2_h: float


@dataclass
class ErrorState:
    """State container for whichever error model is active."""

    kind: str
    sigma2: float | None = None
    sigma2_prior: tuple[float, float] | None = None
    dpm: DpmState | None = None
    sv: SvState | None = None


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


def _resize(state: DpmState, J: int, rng: np.random.Generator) -> None:
    """Set the truncation level to J, at most ``TRUNCATION_CAP`` (with a
    warning when J exceeds it).

    Shrinking drops trailing components. Growing first re-draws the forced
    last stick from its Beta full conditional (counts above J are zero),
    then appends prior sticks and atoms. The new last stick is forced to one.
    """
    if J > TRUNCATION_CAP:
        warnings.warn(f"mixture truncation capped at {TRUNCATION_CAP} components")
        J = TRUNCATION_CAP
    if J == state.J:
        return
    if J < state.J:
        state.sticks = state.sticks[:J].copy()
        state.comp_mean = state.comp_mean[:J]
        if state.comp_var is not None:
            state.comp_var = state.comp_var[:J]
    else:
        n_new = J - state.J
        drawn = np.concatenate([
            [rng.beta(1.0 + np.count_nonzero(state.alloc == state.J - 1), state.alpha)],
            rng.beta(1.0, state.alpha, size=n_new)])
        state.sticks = np.concatenate([state.sticks[:-1], np.clip(drawn, 1e-12, 1.0 - 1e-12)])
        state.comp_mean = np.concatenate([
            state.comp_mean, rng.normal(0.0, math.sqrt(DPM_PRIORS.mean_var), size=n_new)])
        if state.comp_var is not None:
            state.comp_var = np.concatenate([
                state.comp_var,
                1.0 / rng.gamma(DPM_PRIORS.prec_shape, 1.0 / DPM_PRIORS.prec_rate, size=n_new)])
    state.sticks[-1] = 1.0


def sample_slice_and_alloc(resid: np.ndarray, state: DpmState, rng: np.random.Generator,
                           sv_var: np.ndarray | None = None) -> np.ndarray:
    """Slice variables then cluster allocations; returns the slices u.

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
    _resize(state, max(state.J, _slice_coverage_level(float(u.min()))), rng)
    J = state.J
    pw = slice_sequence(J)
    var = sv_var if sv_var is not None else state.comp_var
    if sv_var is not None:
        v = np.broadcast_to(np.asarray(var, dtype=float)[:, None], (T, J))
    else:
        v = np.broadcast_to(np.asarray(var, dtype=float)[None, :], (T, J))
    dev = resid[:, None] - state.comp_mean[None, :]
    with np.errstate(divide="ignore", over="ignore"):
        logw = np.log(state.weights)[None, :]
        logmass = (logw - np.log(pw)[None, :]
                   - 0.5 * np.log(2.0 * math.pi * v) - 0.5 * dev * dev / v)
    logmass = np.where(u[:, None] < pw[None, :], logmass, -np.inf)
    finite_rows = np.isfinite(logmass).any(axis=1)
    if not finite_rows.all():
        warnings.warn("slice allocation underflow; assigning by maximum log-kernel")
        with np.errstate(divide="ignore", over="ignore"):
            fallback = logw - 0.5 * np.log(2.0 * math.pi * v) - 0.5 * dev * dev / v
        logmass[~finite_rows] = fallback[~finite_rows]
    gumbel = rng.gumbel(size=(T, J))
    state.alloc = np.argmax(logmass + gumbel, axis=1)
    return u


def truncation_level(weights: np.ndarray, slice_u: np.ndarray) -> int:
    """Smallest J with 1 - sum_{j<=J} w_j < min(u)."""
    w = np.asarray(weights, dtype=float)
    min_u = float(np.min(slice_u))
    tail = 1.0 - np.cumsum(w)
    ok = np.where(tail < min_u)[0]
    if ok.size:
        return int(ok[0]) + 1
    return w.size


def update_truncation(state: DpmState, slice_u: np.ndarray, rng: np.random.Generator) -> None:
    """Adapt the truncation level to the weight-tail rule at the sweep's
    slices ``slice_u``.

    The level never drops below the highest occupied component; growth adds
    prior-drawn components, shrinkage discards unoccupied trailing ones.
    """
    occupied = int(state.alloc.max()) + 1
    _resize(state, max(truncation_level(state.weights, slice_u), occupied), rng)


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


def _sv_rho_move(z: np.ndarray, rho: float, q: float, rng: np.random.Generator) -> float:
    """Independence MH move on rho_h given the demeaned path z = h - mu_h.

    The proposal is the t >= 2 likelihood, N(mean_l, q/sz) with sz the sum
    of z_{t-1}^2 and mean_l the least-squares slope of z_t on z_{t-1}. A
    proposal outside (-1 + 1e-6, 1 - 1e-6) is rejected; one inside is
    accepted with the ratio of the terms the proposal leaves out, the Beta
    prior on x = (r + 1)/2 and the stationary start z_1 ~ N(0, q/(1 - r^2)):
    (rho_a - 1) log x + (rho_b - 1) log(1 - x) + log(1 - r^2)/2
    - (1 - r^2) z_1^2/(2q), here up to constants. A truncated proposal would
    give the same stationary law, as its normalizer cancels in the ratio. A
    path with no spread (sz <= 1e-12) holds rho.
    """
    sz = float(z[:-1] @ z[:-1])
    if sz <= 1e-12:
        return rho
    prop = float(z[1:] @ z[:-1]) / sz + math.sqrt(q / sz) * rng.standard_normal()
    if not -1.0 + 1e-6 < prop < 1.0 - 1e-6:
        return rho
    a, b, c = SV_PRIORS.rho_a - 0.5, SV_PRIORS.rho_b - 0.5, float(z[0]) ** 2 / (2.0 * q)

    def extra(r: float) -> float:
        return a * math.log1p(r) + b * math.log1p(-r) - (1.0 - r * r) * c

    if math.log(rng.random()) < extra(prop) - extra(rho):
        return prop
    return rho


def _sv_sig2_draw(S: float, T: int, rng: np.random.Generator) -> float:
    """sig2_h from its full conditional, a generalized inverse Gaussian
    prop. to q^(-a-1) exp(-b/q - c q) with a = T/2 - sig_shape, b = S/2 and
    c = sig_rate, by rejection from the inverse-gamma envelope IG(a, b - d).

    The target over the envelope is exp(-d/q - c q) <= exp(-2 sqrt(c d)), so
    q' is kept with probability exp(-(sqrt(d/q') - sqrt(c q'))^2). The shift
    d = s^2 b, s = w / (a + sqrt(a^2 + w^2)) with w = 2 sqrt(b c), maximizes
    the acceptance rate. As S -> 0 the shift vanishes, leaving the
    likelihood's IG(a, S/2) kept with probability exp(-c q'); unshifted,
    that rate falls like exp(-c q), and at T = 6, S = 193 no draw in 50,000
    was kept.
    Needs T/2 > sig_shape (T >= 2 under the default priors).
    """
    a, b, c = 0.5 * T - SV_PRIORS.sig_shape, 0.5 * S, SV_PRIORS.sig_rate
    if not a > 0.0:
        raise ValueError(f"sig2_h draw needs T/2 > sig_shape, got T={T}")
    w = 2.0 * math.sqrt(b * c)
    d = b * (w / (a + math.sqrt(a * a + w * w))) ** 2
    for _ in range(50000):
        q = (b - d) / rng.gamma(a)
        if rng.random() < math.exp(-(math.sqrt(d / q) - math.sqrt(c * q)) ** 2):
            return q
    raise RuntimeError(f"no sig2_h draw accepted in 50000 tries (S={S}, T={T})")


def _sv_params(h: np.ndarray, state: SvState,
               rng: np.random.Generator) -> tuple[float, float, float]:
    """One Gibbs/MH pass over (mu_h, rho_h, sig2_h) given the log-variance path
    (Kastner & Fruhwirth-Schnatter 2014, CSDA).

    mu_h is a Gaussian draw, rho_h an independence MH move (``_sv_rho_move``)
    and sig2_h an exact draw from its generalized inverse Gaussian
    conditional by rejection from an inverse-gamma envelope with a shifted
    scale (``_sv_sig2_draw``).
    """
    T = h.size
    mu, rho, q = state.mu_h, state.rho_h, state.sig2_h

    # mu_h | h, rho, q  (Gaussian)
    prec = 1.0 / SV_PRIORS.mu_var + (1.0 - rho * rho) / q + (T - 1) * (1.0 - rho) ** 2 / q
    num = (1.0 - rho * rho) * h[0] / q + (1.0 - rho) * np.sum(h[1:] - rho * h[:-1]) / q
    mu = float(num / prec + math.sqrt(1.0 / prec) * rng.standard_normal())

    z = h - mu
    rho = _sv_rho_move(z, rho, q, rng)
    S = float((1.0 - rho * rho) * z[0] ** 2 + np.sum((z[1:] - rho * z[:-1]) ** 2))
    q = _sv_sig2_draw(max(S, 1e-12), T, rng)
    return mu, rho, max(q, 1e-12)


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
    """One full error-block Gibbs sweep given current residuals, in place.

    Returns the updated state and, for DPM kinds, whether the alpha move
    was accepted (None otherwise).
    """
    resid = np.asarray(resid, dtype=float)
    if state.kind == "Homosk":
        state.sigma2 = sample_homosk_var(resid, state.sigma2_prior, rng)
        return state, None
    if state.kind == "SV":
        state.sv = sv_update(resid, state.sv, rng)
        return state, None

    dpm = state.dpm
    dpm.sticks = sample_sticks(dpm.alloc, dpm.alpha, dpm.J, rng)
    sv_var = np.exp(state.sv.h) if state.kind == "DPMSV" else None
    slice_u = sample_slice_and_alloc(resid, dpm, rng, sv_var=sv_var)
    dpm.alpha, alpha_accepted = sample_alpha(dpm.sticks, dpm.alpha, rng, alpha_step)
    dpm.comp_mean = sample_component_means(resid, dpm, rng, sv_var=sv_var)
    if state.kind == "DPM":
        dpm.comp_var = sample_component_vars(resid, dpm, rng)
    else:
        state.sv = sv_update(resid - dpm.comp_mean[dpm.alloc], state.sv, rng)
    update_truncation(dpm, slice_u, rng)
    return state, alpha_accepted


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
        state.dpm = DpmState(sticks=np.array([1.0]), alloc=np.zeros(T, dtype=int),
                             comp_mean=np.zeros(1), comp_var=var, alpha=0.5)
    if kind in ("SV", "DPMSV"):
        h0 = math.log(max(resid_var, 1e-8))
        state.sv = SvState(h=np.full(T, h0), mu_h=h0, rho_h=2.0 / 3.0, sig2_h=0.1)
    return state
