"""Forward simulation of the spatial exceedance model and Monte Carlo
estimation of the pairwise extremal-dependence curve chi(u)."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import DomainError
from .latent_field import (
    SpatialModel,
    build_correlation,
    copula_sample_rows,
    copula_sample_rows_t,
    make_design,
    site_marginal,
)
from .likelihood import ExceedanceData, HyperParams

COVARIATE_NAMES = ("x", "y", "z3")


@dataclass(frozen=True)
class ScenarioSpec:
    """Synthetic-data scenario: sites uniform on the unit square, covariates
    (x, y, z3) with z3 a unit-variance Gaussian field, site-wise censoring at
    an empirical quantile, and optional fully censored prediction sites."""

    d: int
    n: int
    hyper: HyperParams
    censor_quantile: float | None = 0.75
    n_predict_sites: int = 0
    copula: str = "gaussian"
    nu: float | None = None
    covariate_field_range: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.copula not in ("gaussian", "student_t"):
            raise DomainError(f"unknown copula {self.copula!r}")
        if self.copula == "student_t" and not (self.nu and self.nu > 0):
            raise DomainError("student_t copula needs nu > 0")
        if self.censor_quantile is not None and not 0.0 < self.censor_quantile < 1.0:
            raise DomainError("censor_quantile must lie in (0, 1)")
        if self.n_predict_sites >= self.d:
            raise DomainError("need at least one non-prediction site")


def gaussian_field_sample(design, corr_range, rng):
    """One zero-mean, unit-variance draw with correlation exp(-dist/range)."""
    corr = build_correlation(design, corr_range)
    eps = rng.standard_normal(len(corr.chol))
    return corr.chol @ eps


def _latent_rows(marg, corr, n, spec, rng):
    if spec.copula == "student_t":
        return copula_sample_rows_t(marg, corr, spec.nu, n, rng)
    return copula_sample_rows(marg, corr, n, rng)


def simulate_dataset(spec):
    """Draw a dataset; returns (data, model, true log rates).

    The returned model carries the raw (unstandardized) covariates; fitting
    code standardizes its own copy. Prediction sites are a random subset
    whose thresholds are set to +inf (their true values stay in data.y for
    scoring).
    """
    rng = np.random.default_rng(spec.seed)
    coords = rng.uniform(size=(spec.d, 2))
    design = make_design(coords)
    z3 = gaussian_field_sample(design, spec.covariate_field_range, rng)
    covariates = np.column_stack([coords[:, 0], coords[:, 1], z3])
    if len(spec.hyper.alpha_coefs) != covariates.shape[1] + 1:
        raise DomainError("hyper.alpha_coefs must have one slope per covariate")

    marg = site_marginal(spec.hyper, covariates)
    corr = build_correlation(design, spec.hyper.rho)
    lam = _latent_rows(marg, corr, spec.n, spec, rng)
    y = rng.gamma(shape=spec.hyper.beta1, scale=1.0 / lam)

    if spec.censor_quantile is None:
        u = np.zeros_like(y)
    else:
        u = np.tile(np.quantile(y, spec.censor_quantile, axis=0), (spec.n, 1))
    if spec.n_predict_sites:
        predict = np.sort(
            rng.choice(spec.d, size=spec.n_predict_sites, replace=False)
        )
        u[:, predict] = np.inf

    model = SpatialModel(
        design=design,
        covariates=covariates,
        covariate_names=COVARIATE_NAMES,
        cov_mean=np.zeros(covariates.shape[1]),
        cov_sd=np.ones(covariates.shape[1]),
    )
    return ExceedanceData.from_thresholds(y, u), model, np.log(lam)


@dataclass
class ChiCurve:
    """Empirical pairwise tail-dependence estimates with binomial SEs."""

    u: np.ndarray
    chi: np.ndarray
    se: np.ndarray
    pair_distance: float
    n_mc: int


def chi_u_curve(spec, pair_distance, u_grid, n_mc):
    """Monte Carlo chi(u) for two sites a fixed distance apart.

    chi(u) = P(Y1 > q1(u), Y2 > q2(u)) / (1 - u) with per-margin empirical
    quantiles taken from the same sample. Warns when fewer than 100 draws
    are expected past a grid point.
    """
    if not pair_distance > 0:
        raise DomainError("pair_distance must be positive")
    u_grid = np.asarray(u_grid, dtype=float)
    if np.any((u_grid <= 0) | (u_grid >= 1)):
        raise DomainError("u grid must lie in (0, 1)")
    if np.min((1.0 - u_grid) * n_mc) < 100:
        warnings.warn("fewer than 100 joint-tail draws expected at the far grid end")

    rng = np.random.default_rng(spec.seed)
    design = make_design(np.array([[0.0, 0.0], [pair_distance, 0.0]]))
    covariates = np.zeros((2, len(spec.hyper.alpha_coefs) - 1))
    marg = site_marginal(spec.hyper, covariates)
    corr = build_correlation(design, spec.hyper.rho)
    lam = _latent_rows(marg, corr, n_mc, spec, rng)
    y = rng.gamma(shape=spec.hyper.beta1, scale=1.0 / lam)

    chi = np.empty(u_grid.shape)
    se = np.empty(u_grid.shape)
    for k, u in enumerate(u_grid):
        q1, q2 = np.quantile(y[:, 0], u), np.quantile(y[:, 1], u)
        p_joint = np.mean((y[:, 0] > q1) & (y[:, 1] > q2))
        chi[k] = p_joint / (1.0 - u)
        se[k] = np.sqrt(p_joint * (1.0 - p_joint) / n_mc) / (1.0 - u)
    return ChiCurve(
        u=u_grid, chi=chi, se=se, pair_distance=pair_distance, n_mc=n_mc
    )
