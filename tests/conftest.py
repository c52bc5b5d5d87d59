import os

# As the CLI does, before numpy loads: single-threaded BLAS in this process,
# so the workers that an in-process ``main(["run", ...])`` forks are too.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

from unittest import mock

import numpy as np
import pytest

import bnpforecast.model_engine as me
from bnpforecast.data_pipeline import DatasetSpec, ModelSpec, load_panel
from bnpforecast.synthetic import synthetic_panel, write_panel_csv

ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_RESULTS,
                           key=lambda s: int(s.split()[1].rstrip(":"))):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def panel_files(tmp_path_factory):
    """Synthetic quarterly panel written to disk once per session."""
    d = tmp_path_factory.mktemp("panel")
    panel_csv = os.path.join(d, "panel.csv")
    sidecar_csv = os.path.join(d, "sidecar.csv")
    write_panel_csv(synthetic_panel(), panel_csv, sidecar_csv)
    return panel_csv, sidecar_csv


@pytest.fixture(scope="session")
def panel(panel_files):
    return load_panel(*panel_files)


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)


def dense_kernel(X, hyper):
    """Oracle Gaussian kernel from explicit pairwise differences:
    K[t, s] = xi * exp(-(phi/2) ||x_t - x_s||^2), diagonal exactly xi."""
    X = np.asarray(X, dtype=float)
    D2 = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=-1)
    return hyper.xi * np.exp(-0.5 * hyper.phi * D2)


class ZeroRng:
    """Stub generator: all normals zero, gamma draws pinned at their mean.
    ``n`` is the length of the last normal vector asked for."""

    n = None

    def standard_normal(self, n=None):
        self.n = n
        return np.zeros(n) if n is not None else 0.0

    def gamma(self, shape, scale=1.0, size=None):
        return float(shape) * scale


class UnitRng:
    """Stub generator whose normal vector is the i-th unit vector."""

    def __init__(self, i):
        self.i = i

    def standard_normal(self, n):
        z = np.zeros(n)
        z[self.i] = 1.0
        return z


def mixture_density(weights, means, variances, grid):
    """Gaussian-mixture density evaluated on a grid."""
    g = np.asarray(grid, dtype=float)[:, None]
    dens = np.exp(-0.5 * (g - means[None, :]) ** 2 / variances[None, :]) \
        / np.sqrt(2.0 * np.pi * variances[None, :])
    return dens @ np.asarray(weights, dtype=float)


def run_chain_recording_f(spec, data, cfg, seed):
    """``run_chain``'s draws on a generator seeded with ``seed``, and the f
    of each retained draw, read from the state after each ``mcmc_step``;
    the chain itself keeps only the origin moments of f."""
    seen = []
    step = me.mcmc_step

    def recording_step(spec, data, state, rng, ctx):
        out = step(spec, data, state, rng, ctx)
        seen.append(state.f.copy())
        return out

    with mock.patch.object(me, "mcmc_step", recording_step):
        draws = me.run_chain(spec, data, cfg, np.random.default_rng(seed))
    return draws, np.array(seen[cfg.n_burn::cfg.thin])


def engine_context(mean_kind, X):
    """The engine's window context for a mean kind on predictors X."""
    X = np.asarray(X, dtype=float)
    spec = ModelSpec(mean_kind, "Homosk", DatasetSpec("Moderate", "PRICE", 1, False))
    data = me.WindowData(y=np.zeros(X.shape[0]), X=X, x_new=np.zeros(X.shape[1]),
                         horizon=1)
    return me._GpContext(spec, data)


def engine_conditional(mean_kind, X, r, sigma, hyper, zeta=None, ctx=None):
    """(collapsed log-likelihood, mean, covariance) of f from the engine's
    mean block, the path ``run`` executes: the window context (``ctx`` if
    given), the conditional at (hyper, zeta) and the f draw. The mean is the
    draw at z = 0, and the covariance W W' from the draws at each unit
    vector z of the draw's normal vector (2T + k entries for GPSub, 2T for
    GP, k for Linear)."""
    if ctx is None:
        ctx = engine_context(mean_kind, X)
    r = np.asarray(r, dtype=float)
    post = me._conditional(ctx, hyper, r, np.asarray(sigma, dtype=float), zeta)
    zero = ZeroRng()
    fbar = me._draw_f(ctx, post, zero)
    W = np.column_stack([me._draw_f(ctx, post, UnitRng(i)) - fbar
                         for i in range(zero.n)])
    return post.loglik, fbar, W @ W.T


def geweke_z(chain, direct, n_batches=50):
    """z-score of a chain's mean against direct draws' mean (Geweke 2004),
    with a batch-means standard error for the chain."""
    means = chain[: chain.size // n_batches * n_batches].reshape(n_batches, -1).mean(axis=1)
    se2 = means.var(ddof=1) / n_batches + direct.var() / direct.size
    return (chain.mean() - direct.mean()) / np.sqrt(se2)
