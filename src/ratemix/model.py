"""Model variants and the fitting pipeline.

Four nested variants: D1 puts the covariates in the scale alpha(s) only, D2
also puts them in the shape beta2(s), D3 and D4 are the same two with the
observation shape beta1 pinned to 1 (exponential observation layer). When
covariates enter beta2 its PC prior is replaced by vague Gaussians on the
log intercept and slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import holdout_scores
from .latent_field import SpatialModel
from .likelihood import ExceedanceData, HyperParams, ValidationError
from .priors import PriorSet
from .sampler import SamplerConfig, run_chain


@dataclass(frozen=True)
class ModelVariant:
    name: str
    beta1_fixed: bool
    beta2_covariates: bool


VARIANTS = {
    "D1": ModelVariant("D1", beta1_fixed=False, beta2_covariates=False),
    "D2": ModelVariant("D2", beta1_fixed=False, beta2_covariates=True),
    "D3": ModelVariant("D3", beta1_fixed=True, beta2_covariates=False),
    "D4": ModelVariant("D4", beta1_fixed=True, beta2_covariates=True),
}


def get_variant(name):
    try:
        return VARIANTS[name]
    except KeyError:
        raise ValidationError(f"unknown model variant {name!r}") from None


def build_model(design, covariates, covariate_names, train_sites=None, standardize=True):
    """Assemble a SpatialModel, standardizing covariates to mean 0, sd 1.

    Standardization constants come from the training sites only; prediction
    sites are mapped with the same constants.
    """
    covariates = np.asarray(covariates, dtype=float)
    if covariates.ndim != 2 or covariates.shape[0] != design.coords.shape[0]:
        raise ValidationError("covariates must be (n_sites, p)")
    if len(covariate_names) != covariates.shape[1]:
        raise ValidationError("covariate_names must match covariate columns")
    if standardize:
        idx = np.arange(covariates.shape[0]) if train_sites is None else np.asarray(train_sites)
        mean = covariates[idx].mean(axis=0)
        sd = covariates[idx].std(axis=0)
        if np.any(sd == 0.0):
            raise ValidationError("constant covariate column cannot be standardized")
        covariates = (covariates - mean) / sd
    else:
        mean = np.zeros(covariates.shape[1])
        sd = np.ones(covariates.shape[1])
    return SpatialModel(
        design=design,
        covariates=covariates,
        covariate_names=tuple(covariate_names),
        cov_mean=mean,
        cov_sd=sd,
    )


def standardized_truth(hyper, model):
    """Map natural-scale generating coefficients into the standardized basis.

    With x_std = (x - mean)/sd the slopes scale by sd and the log intercept
    absorbs sum(slope * mean); beta1, beta2, rho are unchanged.
    """
    slopes = hyper.alpha_coefs[1:]
    new_log_a0 = hyper.alpha_coefs[0] + float(np.dot(slopes, model.cov_mean))
    new_slopes = slopes * model.cov_sd
    out = {"alpha0": math.exp(new_log_a0)}
    for name, s in zip(model.covariate_names, new_slopes):
        out[f"alpha_{name}"] = float(s)
    if not hyper.beta1_fixed:
        out["beta1"] = hyper.beta1
    out["beta2"] = hyper.beta2
    out["rho"] = hyper.rho
    out["xi"] = 1.0 / hyper.beta2
    return out


def apply_censoring(y, censor_quantile, predict_sites=(), missing=None):
    """Build ExceedanceData from raw values: site thresholds at the given
    empirical quantile, +inf thresholds at prediction sites and missing cells."""
    y = np.asarray(y, dtype=float)
    u = np.empty_like(y)
    missing = (
        np.zeros(y.shape, dtype=bool) if missing is None else np.asarray(missing, dtype=bool)
    )
    if censor_quantile is None:
        u[:] = 0.0
    else:
        for j in range(y.shape[1]):
            col = y[:, j][~missing[:, j]]
            col = col[~np.isnan(col)]
            if col.size == 0:
                raise ValidationError(f"site {j} has no usable values")
            u[:, j] = np.quantile(col, censor_quantile)
    u[missing] = np.inf
    predict_sites = np.asarray(list(predict_sites), dtype=int)
    if predict_sites.size:
        u[:, predict_sites] = np.inf
    return ExceedanceData.from_thresholds(y, u)


def initial_hyper(variant, model, rng, spread=0.5):
    """Random but plausible starting hyperparameters within prior support."""
    p = model.covariates.shape[1]
    log_a0 = spread * rng.standard_normal()
    slopes = spread * rng.standard_normal(p)
    beta1 = 1.0 if variant.beta1_fixed else float(np.exp(math.log(2.0) + spread * rng.standard_normal()))
    beta2 = 1.0 + float(np.exp(math.log(2.0) + spread * rng.standard_normal()))
    off = model.design.dist[np.triu_indices(model.n_sites, k=1)]
    rho = float(np.exp(math.log(np.median(off)) + spread * rng.standard_normal()))
    beta2_slopes = 0.2 * rng.standard_normal(p) if variant.beta2_covariates else None
    return HyperParams(
        alpha_coefs=np.concatenate(([log_a0], slopes)),
        beta1=beta1,
        beta2=beta2,
        rho=rho,
        beta2_slopes=beta2_slopes,
        beta1_fixed=variant.beta1_fixed,
    )


@dataclass
class FitSpec:
    """What to fit: variant name, sampler settings, prior penalties."""

    variant: str = "D1"
    sampler: SamplerConfig = None
    priors: PriorSet = None

    def __post_init__(self):
        if self.sampler is None:
            raise ValidationError("FitSpec needs a SamplerConfig")
        if self.priors is None:
            self.priors = PriorSet()


def chain_seeds(base_seed, n_chains):
    """Independent, reproducible per-chain seeds."""
    seq = np.random.SeedSequence(base_seed)
    return [int(s.generate_state(1)[0]) for s in seq.spawn(n_chains)]


def fit(
    spec,
    data,
    design,
    covariates,
    covariate_names,
    n_chains=1,
    init_spread=0.5,
    progress=None,
    checkpoint_paths=None,
    resume_payloads=None,
    fingerprint="",
):
    """Standardize covariates, pick starting points, run the chains.

    Returns (model, [ChainOutput per chain]). Chains differ in their RNG
    seed and their random starting point, both derived from spec.sampler.seed.
    """
    variant = get_variant(spec.variant)
    train = np.setdiff1d(np.arange(data.d), data.prediction_sites())
    model = build_model(design, covariates, covariate_names, train_sites=train)
    seeds = chain_seeds(spec.sampler.seed, 2 * n_chains)
    outputs = []
    for c in range(n_chains):
        init_rng = np.random.default_rng(seeds[2 * c])
        init = initial_hyper(variant, model, init_rng, spread=init_spread)
        config = replace(spec.sampler, seed=seeds[2 * c + 1])
        chain_model = SpatialModel(
            design=model.design,
            covariates=model.covariates,
            covariate_names=model.covariate_names,
            cov_mean=model.cov_mean,
            cov_sd=model.cov_sd,
        )
        outputs.append(
            run_chain(
                config,
                data,
                chain_model,
                spec.priors,
                init,
                progress=(lambda *a, _c=c: progress(_c, *a)) if progress else None,
                checkpoint_path=None if checkpoint_paths is None else checkpoint_paths[c],
                resume_payload=None if resume_payloads is None else resume_payloads[c],
                fingerprint=fingerprint,
            )
        )
    return model, outputs


def compare(outputs_by_variant, data, censor_quantile=0.75, seed=0):
    """Score each variant's predictive draws against held-out truth.

    Returns rows of {variant, crps, twcrps, best_crps, best_twcrps}; the
    lowest mean score per column is flagged best.
    """
    rows = []
    for name, outputs in outputs_by_variant.items():
        crps_mean, tw_mean = holdout_scores(outputs, data, censor_quantile, seed=seed)
        rows.append({"variant": name, "crps": crps_mean, "twcrps": tw_mean})
    best_c = min(r["crps"] for r in rows)
    best_t = min(r["twcrps"] for r in rows)
    for r in rows:
        r["best_crps"] = r["crps"] == best_c
        r["best_twcrps"] = r["twcrps"] == best_t
    return rows
