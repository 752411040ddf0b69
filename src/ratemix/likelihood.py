"""Censored data-augmented posterior for the spatial gamma-gamma model.

Observation layer per cell (threshold u, indicator e):
  exceedance (e=1):        gamma log density of y given rate lambda, shape beta1
  censored (e=0, u finite): log gamma cdf at u
  fully censored (u=inf):   no contribution (missing or prediction cell)

Latent layer per row: Gaussian copula over sites with Gamma(alpha(s), beta2)
margins for the rates. Sampling happens on log rates and on transformed
hyperparameters, so the target carries the corresponding Jacobian terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg, special

from . import priors as priors_mod
from .distributions import DomainError
from .latent_field import (
    FactorizationError,
    LatentMarginal,
    copula_cells,
    site_marginal,
    z_scores,
)

_LOG_2PI = math.log(2.0 * math.pi)


class ValidationError(ValueError):
    """Input data violating the censoring bookkeeping."""


# ---------------------------------------------------------------------------
# data container
# ---------------------------------------------------------------------------

class ExceedanceData:
    """Replicates x sites matrices (y, u, e) with derived index caches.

    y: observed values (NaN allowed only where u = inf)
    u: censoring thresholds, in [0, inf]; u = 0 means uncensored, u = inf
       means the cell contributes nothing to the observation layer
    e: exceedance indicators; must equal 1{y >= u} wherever u is finite
    """

    def __init__(self, y, u, e):
        y = np.asarray(y, dtype=float)
        u = np.asarray(u, dtype=float)
        e = np.asarray(e)
        if y.ndim != 2 or y.shape != u.shape or y.shape != e.shape:
            raise ValidationError("y, u, e must be matrices of one shape")
        if np.any(np.isnan(u)) or np.any(u < 0):
            raise ValidationError("thresholds must lie in [0, inf]")
        e = e.astype(float)
        if np.any((e != 0.0) & (e != 1.0)):
            raise ValidationError("e must be 0/1")
        finite_u = np.isfinite(u)
        if np.any(e[~finite_u] != 0.0):
            raise ValidationError("cells with u = inf must have e = 0")
        if np.any(np.isnan(y) & finite_u):
            raise ValidationError("missing y allowed only where u = inf")
        with np.errstate(invalid="ignore"):
            expect_e = (y >= u) & finite_u
        if np.any(e[finite_u] != expect_e[finite_u].astype(float)):
            raise ValidationError("e must equal 1{y >= u} wherever u is finite")
        exceed = e == 1.0
        if np.any(y[exceed] <= 0.0):
            raise ValidationError("exceedance values must be positive")

        self.y = y
        self.u = u
        self.e = e
        self.n, self.d = y.shape
        self.exceed_flat = np.flatnonzero(exceed.ravel())
        self.y_exceed = y.ravel()[self.exceed_flat]
        censored = (~exceed) & finite_u
        self.cens_flat = np.flatnonzero(censored.ravel())
        self.u_cens = u.ravel()[self.cens_flat]

    @classmethod
    def from_thresholds(cls, y, u):
        """Data whose indicators follow from the values and thresholds:
        e = 1{y >= u} where u is finite, 0 elsewhere."""
        y = np.asarray(y, dtype=float)
        u = np.asarray(u, dtype=float)
        with np.errstate(invalid="ignore"):
            e = np.where(np.isfinite(u), (y >= u).astype(float), 0.0)
        return cls(y, u, e)

    @property
    def shape(self):
        return (self.n, self.d)

    def prediction_sites(self):
        """Indices of sites whose entire column is fully censored."""
        return np.flatnonzero(np.all(~np.isfinite(self.u), axis=0))


# ---------------------------------------------------------------------------
# hyperparameters and the sampling transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperParams:
    """Natural-scale hyperparameters.

    alpha_coefs holds the log intercept first, then covariate slopes. beta2
    is the (intercept) shape of the rate margin; beta2_slopes, when present,
    put the same covariates into log beta2(s) and switch its prior from the
    PC prior to vague Gaussians. beta1_fixed pins beta1 = 1.
    """

    alpha_coefs: np.ndarray
    beta1: float
    beta2: float
    rho: float
    beta2_slopes: np.ndarray | None = None
    beta1_fixed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alpha_coefs", np.asarray(self.alpha_coefs, dtype=float))
        if self.beta2_slopes is not None:
            object.__setattr__(
                self, "beta2_slopes", np.asarray(self.beta2_slopes, dtype=float)
            )
        if self.beta1_fixed and self.beta1 != 1.0:
            raise DomainError("beta1_fixed requires beta1 = 1")
        if not (self.beta1 > 0 and self.beta2 > 0 and self.rho > 0):
            raise DomainError("beta1, beta2, rho must be positive")


@dataclass(frozen=True)
class TransformedHyperParams:
    """Sampling-scale coordinates; beta1_t is None when beta1 is pinned."""

    alpha_t: float
    alpha_slopes: np.ndarray
    beta1_t: float | None
    beta2_t: float
    beta2_slopes: np.ndarray | None
    rho_t: float


@dataclass(frozen=True)
class ParamStructure:
    """Vector layout of the transformed hyperparameters."""

    n_alpha_slopes: int
    beta1_free: bool
    n_beta2_slopes: int | None

    @classmethod
    def from_hyper(cls, h):
        return cls(
            n_alpha_slopes=len(h.alpha_coefs) - 1,
            beta1_free=not h.beta1_fixed,
            n_beta2_slopes=None if h.beta2_slopes is None else len(h.beta2_slopes),
        )

    @property
    def size(self):
        n = 2 + self.n_alpha_slopes + 1  # alpha_t, slopes, beta2_t, rho_t
        if self.beta1_free:
            n += 1
        if self.n_beta2_slopes is not None:
            n += self.n_beta2_slopes
        return n

    def names(self, covariate_names):
        cov = list(covariate_names)
        if len(cov) != self.n_alpha_slopes:
            raise ValueError("covariate name count does not match slopes")
        out = ["alpha0"] + [f"alpha_{c}" for c in cov]
        if self.beta1_free:
            out.append("beta1")
        out.append("beta2")
        if self.n_beta2_slopes is not None:
            out.extend(f"beta2_{c}" for c in cov[: self.n_beta2_slopes])
        out.append("rho")
        return tuple(out)


def transform(h):
    """Map natural hyperparameters to the decorrelated sampling scale."""
    log_a0 = float(h.alpha_coefs[0])
    lb1 = math.log(h.beta1)
    lb2 = math.log(h.beta2)
    return TransformedHyperParams(
        alpha_t=log_a0 + lb1 - lb2,
        alpha_slopes=np.array(h.alpha_coefs[1:], dtype=float),
        beta1_t=None if h.beta1_fixed else log_a0 + 2.0 * lb1 - lb2,
        beta2_t=-lb2,
        beta2_slopes=None if h.beta2_slopes is None else np.array(h.beta2_slopes),
        rho_t=math.log(h.rho),
    )


def inverse_transform(t):
    """Inverse of `transform`; exact round trip."""
    if t.beta1_t is None:
        log_a0 = t.alpha_t - t.beta2_t
        beta1 = 1.0
        beta1_fixed = True
    else:
        log_a0 = 2.0 * t.alpha_t - t.beta1_t - t.beta2_t
        beta1 = math.exp(t.beta1_t - t.alpha_t)
        beta1_fixed = False
    return HyperParams(
        alpha_coefs=np.concatenate(([log_a0], t.alpha_slopes)),
        beta1=beta1,
        beta2=math.exp(-t.beta2_t),
        rho=math.exp(t.rho_t),
        beta2_slopes=None if t.beta2_slopes is None else np.array(t.beta2_slopes),
        beta1_fixed=beta1_fixed,
    )


def log_jacobian(t):
    """log |d(natural)/d(transformed)| of the hyperparameter map."""
    return t.rho_t + t.alpha_t - 2.0 * t.beta2_t


def pack(t):
    parts = [np.array([t.alpha_t]), t.alpha_slopes]
    if t.beta1_t is not None:
        parts.append(np.array([t.beta1_t]))
    parts.append(np.array([t.beta2_t]))
    if t.beta2_slopes is not None:
        parts.append(t.beta2_slopes)
    parts.append(np.array([t.rho_t]))
    return np.concatenate(parts)


def unpack(vec, structure):
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (structure.size,):
        raise ValueError(f"expected vector of length {structure.size}")
    i = 0
    alpha_t = vec[i]
    i += 1
    p = structure.n_alpha_slopes
    alpha_slopes = vec[i : i + p].copy()
    i += p
    beta1_t = None
    if structure.beta1_free:
        beta1_t = vec[i]
        i += 1
    beta2_t = vec[i]
    i += 1
    beta2_slopes = None
    if structure.n_beta2_slopes is not None:
        q = structure.n_beta2_slopes
        beta2_slopes = vec[i : i + q].copy()
        i += q
    rho_t = vec[i]
    return TransformedHyperParams(
        alpha_t=float(alpha_t),
        alpha_slopes=alpha_slopes,
        beta1_t=None if beta1_t is None else float(beta1_t),
        beta2_t=float(beta2_t),
        beta2_slopes=beta2_slopes,
        rho_t=float(rho_t),
    )


def natural_vector(h):
    """Trace row on the natural scale, matching ParamStructure.names order."""
    parts = [np.array([math.exp(h.alpha_coefs[0])]), h.alpha_coefs[1:]]
    if not h.beta1_fixed:
        parts.append(np.array([h.beta1]))
    parts.append(np.array([h.beta2]))
    if h.beta2_slopes is not None:
        parts.append(h.beta2_slopes)
    parts.append(np.array([h.rho]))
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# priors on the hyperparameters
# ---------------------------------------------------------------------------

def hyper_logprior(h, priors):
    """Joint log prior as a density in the natural coordinates.

    The Gaussians sit on the log intercepts, so converting them to densities
    in alpha_0 (and beta2_0 when covariates enter beta2) subtracts the log
    intercept; the sampling-scale Jacobian is added separately.
    """
    log_a0 = float(h.alpha_coefs[0])
    lp = priors_mod.vague_logprior_coef(log_a0) - log_a0
    for c in h.alpha_coefs[1:]:
        lp += priors_mod.vague_logprior_coef(float(c))
    if not h.beta1_fixed:
        lp += priors_mod.pc_logprior_beta1(h.beta1, priors.kappa1)
    if h.beta2_slopes is None:
        lp += priors_mod.pc_logprior_beta2(h.beta2, priors.kappa2)
    else:
        log_b20 = math.log(h.beta2)
        lp += priors_mod.vague_logprior_coef(log_b20) - log_b20
        for c in h.beta2_slopes:
            lp += priors_mod.vague_logprior_coef(float(c))
    lp += priors_mod.vague_logprior_range(h.rho)
    return lp


# ---------------------------------------------------------------------------
# observation layer
# ---------------------------------------------------------------------------

def obs_logcontrib(y, u, e, lam, beta1):
    """Per-cell observation log contribution (scalar form)."""
    if not (lam > 0 and beta1 > 0):
        raise DomainError("lam and beta1 must be positive")
    if not math.isfinite(u):
        return 0.0
    if e == 1:
        return (
            beta1 * math.log(lam)
            - special.gammaln(beta1)
            + (beta1 - 1.0) * math.log(y)
            - lam * y
        )
    p = special.gammainc(beta1, lam * u)
    return math.log(p) if p > 0 else -math.inf


def _obs_loglik(data, lam_flat, beta1):
    """Total observation log likelihood; lam_flat is the raveled rate matrix."""
    lam_exc = lam_flat[data.exceed_flat]
    total = np.sum(
        beta1 * np.log(lam_exc)
        - special.gammaln(beta1)
        + (beta1 - 1.0) * np.log(data.y_exceed)
        - lam_exc * data.y_exceed
    )
    if data.cens_flat.size:
        x = lam_flat[data.cens_flat] * data.u_cens
        p = special.gammainc(beta1, x)
        if np.any(p == 0.0):
            return -math.inf, None, None
        logp = np.log(p)
        total += np.sum(logp)
        return float(total), x, logp
    return float(total), None, None


def _obs_grad(data, lam_flat, beta1, x_cens, logp_cens):
    """d obs / d log-lambda, cell by cell, as a raveled vector."""
    g = np.zeros(lam_flat.shape)
    g[data.exceed_flat] = beta1 - lam_flat[data.exceed_flat] * data.y_exceed
    if data.cens_flat.size:
        # lam*u * pdf(lam*u) / cdf(lam*u) for the gamma with unit rate
        g[data.cens_flat] = np.exp(
            beta1 * np.log(x_cens) - x_cens - special.gammaln(beta1) - logp_cens
        )
    return g


# ---------------------------------------------------------------------------
# posterior evaluator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperContext:
    """Per-hyperparameter-state quantities reused across latent evaluations."""

    hyper: HyperParams
    marg: LatentMarginal
    corr: object
    prior_and_jac: float
    beta1: float


class PosteriorEvaluator:
    """Evaluates the augmented log posterior and its latent gradient.

    Split into `prepare` (hyperparameter-dependent work: site scales,
    correlation factor, prior mass) and the latent-dependent parts, so the
    sampler can reuse a context across many latent proposals.
    """

    def __init__(self, data, model, priors=None):
        self.data = data
        self.model = model
        self.priors = priors
        if model.covariates.shape[0] != data.d:
            raise ValidationError("covariate rows must match data sites")

    def prepare(self, h):
        """Context for a hyperparameter state, or None when log-zero."""
        try:
            marg = site_marginal(h, self.model.covariates)
        except DomainError:
            return None
        prior_and_jac = 0.0
        if self.priors is not None:
            prior_and_jac = hyper_logprior(h, self.priors) + log_jacobian(transform(h))
            if not math.isfinite(prior_and_jac):
                return None
        try:
            corr = self.model.correlation(h.rho)
        except FactorizationError:
            return None
        return HyperContext(
            hyper=h, marg=marg, corr=corr, prior_and_jac=prior_and_jac, beta1=h.beta1
        )

    def _latent_parts(self, ctx, log_lam):
        lam = np.exp(log_lam)
        obs, x_cens, logp_cens = _obs_loglik(self.data, lam.ravel(), ctx.beta1)
        if not math.isfinite(obs):
            return None
        marg, corr = ctx.marg, ctx.corr
        z, clipped = z_scores(lam, marg)
        w, margin_cells = copula_cells(z, lam, log_lam, marg, corr)
        quad = np.sum(w * w)
        zz = np.sum(z * z)
        copula = (
            -0.5 * (quad - zz) - 0.5 * self.data.n * corr.log_det + np.sum(margin_cells)
        )
        lp = obs + copula + ctx.prior_and_jac + np.sum(log_lam)
        return lp, lam, z, clipped, w, margin_cells, x_cens, logp_cens

    def logpost(self, ctx, log_lam):
        parts = self._latent_parts(ctx, log_lam)
        return -math.inf if parts is None else float(parts[0])

    def logpost_and_grad(self, ctx, log_lam):
        parts = self._latent_parts(ctx, log_lam)
        if parts is None:
            return -math.inf, None
        lp, lam, z, clipped, w, margin_cells, x_cens, logp_cens = parts
        marg, corr = ctx.marg, ctx.corr
        b2 = np.asarray(marg.beta2, dtype=float)
        v = linalg.solve_triangular(corr.chol.T, w, lower=False).T  # Sigma^-1 z
        # dz/dlambda = gamma pdf / normal pdf at z, zero where the cdf clamped
        ratio = np.exp(margin_cells + 0.5 * z * z + 0.5 * _LOG_2PI)
        ratio[clipped] = 0.0
        grad = (z - v) * lam * ratio + (b2 - 1.0) - lam * marg.alpha_site + 1.0
        grad_obs = _obs_grad(self.data, lam.ravel(), ctx.beta1, x_cens, logp_cens)
        grad += grad_obs.reshape(lam.shape)
        return float(lp), grad


def augmented_logpost(h, log_lam, data, model, priors):
    """Reference assembly of the augmented log posterior (log-zero on
    unsupported hyperparameters or factorization failure)."""
    ev = PosteriorEvaluator(data, model, priors)
    ctx = ev.prepare(h)
    if ctx is None:
        return -math.inf
    return ev.logpost(ctx, np.asarray(log_lam, dtype=float))


def grad_logpost_latent(h, log_lam, data, model):
    """Gradient of the augmented log posterior in the log rates."""
    ev = PosteriorEvaluator(data, model, priors=None)
    ctx = ev.prepare(h)
    if ctx is None:
        raise DomainError("hyperparameter state outside the supported region")
    lp, grad = ev.logpost_and_grad(ctx, np.asarray(log_lam, dtype=float))
    if grad is None:
        raise DomainError("log posterior is -inf at the requested state")
    return grad
