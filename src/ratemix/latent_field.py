"""Spatial layer: site geometry, exponential correlation with cached
Cholesky factor, the Gaussian (and Student-t) copula over gamma margins for
the latent rates, and the log-linear site scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg, special

from .distributions import DomainError

# clamp for the probability fed to the normal quantile; keeps z-scores finite
Z_CLIP = 1e-15
# largest admissible log alpha(s); beyond this exp overflows double range
LOG_ALPHA_MAX = 700.0
# diagonal jitter used for a single factorization retry
CHOL_JITTER = 1e-10


class FactorizationError(RuntimeError):
    """Correlation matrix failed to factorize even after the jitter retry."""


@dataclass(frozen=True)
class SpatialDesign:
    """Immutable site coordinates with the pairwise distance matrix."""

    coords: np.ndarray
    dist: np.ndarray


def make_design(coords):
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise DomainError("coords must be a (d, 2) array")
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    off = dist + np.eye(len(coords))
    if np.any(off == 0.0):
        raise DomainError("duplicate site coordinates")
    return SpatialDesign(coords=coords, dist=dist)


@dataclass(frozen=True)
class CorrelationModel:
    """Exponential correlation exp(-dist/rho) with its lower Cholesky factor."""

    rho: float
    matrix: np.ndarray
    chol: np.ndarray
    log_det: float


def build_correlation(design, rho):
    if not rho > 0:
        raise DomainError(f"correlation range must be positive, got {rho}")
    corr = np.exp(-design.dist / rho)
    try:
        chol = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        try:
            chol = np.linalg.cholesky(corr + CHOL_JITTER * np.eye(len(corr)))
        except np.linalg.LinAlgError as err:
            raise FactorizationError(
                f"correlation factorization failed at rho={rho}"
            ) from err
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    return CorrelationModel(rho=rho, matrix=corr, chol=chol, log_det=float(log_det))


@dataclass(frozen=True)
class LatentMarginal:
    """Site-wise gamma margins of the latent rates: Gamma(alpha_site, beta2)."""

    alpha_site: np.ndarray
    beta2: np.ndarray | float


def site_marginal(h, covariates):
    """Latent margins at the sites for hyperparameters h.

    log alpha(s) = h.alpha_coefs[0] + covariates @ h.alpha_coefs[1:]; with
    beta2 slopes, log beta2(s) = log h.beta2 + covariates[:, :q] @ slopes,
    otherwise beta2 is shared. Raises DomainError when either log scale
    leaves [-LOG_ALPHA_MAX, LOG_ALPHA_MAX], where exp over- or underflows.
    """
    log_alpha = h.alpha_coefs[0] + covariates @ h.alpha_coefs[1:]
    if np.any(np.abs(log_alpha) > LOG_ALPHA_MAX):
        raise DomainError("log alpha(s) exceeds the overflow guard")
    if h.beta2_slopes is None:
        beta2_site = h.beta2
    else:
        q = len(h.beta2_slopes)
        log_beta2 = math.log(h.beta2) + covariates[:, :q] @ h.beta2_slopes
        if np.any(np.abs(log_beta2) > LOG_ALPHA_MAX):
            raise DomainError("log beta2(s) exceeds the overflow guard")
        beta2_site = np.exp(log_beta2)
    return LatentMarginal(alpha_site=np.exp(log_alpha), beta2=beta2_site)


def z_scores(lam, marg):
    """Normal scores of the latent rates under their gamma margins.

    Returns the clamped scores together with the mask of cells where the
    probability hit the clamp (their derivative is treated as zero).
    """
    p = special.gammainc(np.asarray(marg.beta2, dtype=float), marg.alpha_site * lam)
    clipped = (p < Z_CLIP) | (p > 1.0 - Z_CLIP)
    z = special.ndtri(np.clip(p, Z_CLIP, 1.0 - Z_CLIP))
    return z, clipped


def copula_cells(z, lam, log_lam, marg, corr):
    """Cell terms of the Gaussian copula density over gamma margins.

    z are the normal scores of the (n, d) rates lam, and log_lam their logs.
    Returns the whitened scores w = L^-1 z^T, (d, n), and the gamma log
    density of every rate, (n, d). Row i has log density
    -0.5 (|w[:, i]|^2 - |z[i]|^2) - 0.5 log|Sigma| + sum of its margin terms.
    """
    w = linalg.solve_triangular(corr.chol, z.T, lower=True)
    b2 = np.asarray(marg.beta2, dtype=float)
    a = marg.alpha_site
    margin_cells = b2 * np.log(a) - special.gammaln(b2) + (b2 - 1.0) * log_lam - a * lam
    return w, margin_cells


def copula_loglik_rows(lam, marg, corr):
    """Joint log density of latent-rate rows: Gaussian copula + gamma margins.

    lam is (n, d); returns one value per row.
    """
    lam = np.asarray(lam, dtype=float)
    z, _ = z_scores(lam, marg)
    w, margin_cells = copula_cells(z, lam, np.log(lam), marg, corr)
    quad = np.sum(w * w, axis=0)
    zz = np.sum(z * z, axis=1)
    return -0.5 * (quad - zz) - 0.5 * corr.log_det + np.sum(margin_cells, axis=1)


def _gamma_quantile_rows(u, marg):
    b2 = np.asarray(marg.beta2, dtype=float)
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    return special.gammaincinv(b2, u) / marg.alpha_site


def copula_sample_rows(marg, corr, n, rng):
    """n independent rows of latent rates under the Gaussian copula."""
    eps = rng.standard_normal((n, corr.chol.shape[0]))
    z = eps @ corr.chol.T
    return _gamma_quantile_rows(special.ndtr(z), marg)


def copula_sample_rows_t(marg, corr, nu, n, rng):
    """Student-t copula variant with nu degrees of freedom (same margins)."""
    if not nu > 0:
        raise DomainError("t copula needs nu > 0")
    eps = rng.standard_normal((n, corr.chol.shape[0]))
    z = eps @ corr.chol.T
    w = rng.chisquare(nu, size=n) / nu
    t = z / np.sqrt(w)[:, None]
    return _gamma_quantile_rows(special.stdtr(nu, t), marg)


@dataclass
class SpatialModel:
    """Bundle used by the likelihood: geometry, covariates, correlation cache.

    Covariates are stored as used for fitting (usually standardized); the
    standardization constants are kept so new sites can be mapped into the
    same basis.
    """

    design: SpatialDesign
    covariates: np.ndarray
    covariate_names: tuple
    cov_mean: np.ndarray
    cov_sd: np.ndarray
    _cached_corr: CorrelationModel | None = field(default=None, repr=False)

    @property
    def n_sites(self):
        return self.design.coords.shape[0]

    def correlation(self, rho):
        """Correlation model for the given range, memoizing the last value."""
        cached = self._cached_corr
        if cached is not None and cached.rho == rho:
            return cached
        corr = build_correlation(self.design, rho)
        self._cached_corr = corr
        return corr
