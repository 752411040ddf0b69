"""Chain and forecast diagnostics: effective sample size, split R-hat,
posterior summaries, posterior predictive draws, CRPS variants, QQ data."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import gamma_gamma_quantile, gamma_gamma_sample


# ---------------------------------------------------------------------------
# sample-quality measures
# ---------------------------------------------------------------------------

def ess(trace):
    """Effective sample size via the initial monotone sequence estimator.

    Autocorrelations are summed in consecutive pairs up to the first
    negative pair, after forcing the pair sums to be non-increasing.
    """
    x = np.asarray(trace, dtype=float)
    if x.ndim != 1 or x.size < 10:
        raise ValueError("need a 1-d trace with at least 10 values")
    n = x.size
    if np.all(x == x[0]):
        raise ValueError("trace is constant; ESS undefined")
    x = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, n=nfft)
    acov = np.fft.irfft(f * np.conj(f), n=nfft)[:n].real / n
    rho = acov / acov[0]
    pair_sums = []
    for m in range(n // 2):
        g = rho[2 * m] + (rho[2 * m + 1] if 2 * m + 1 < n else 0.0)
        if g <= 0.0:
            break
        pair_sums.append(g)
    if not pair_sums:
        return float(n)
    pair_sums = np.minimum.accumulate(pair_sums)
    tau = -1.0 + 2.0 * float(np.sum(pair_sums))
    tau = max(tau, 1.0 / n)
    return float(min(n / tau, n))


def split_rhat(traces):
    """Split potential-scale-reduction factor across one or more chains."""
    pieces = []
    for t in traces:
        t = np.asarray(t, dtype=float)
        half = t.size // 2
        if half < 4:
            raise ValueError("each chain needs at least 8 retained draws")
        pieces.append(t[:half])
        pieces.append(t[half : 2 * half])
    length = min(p.size for p in pieces)
    arr = np.stack([p[:length] for p in pieces])
    w = np.mean(np.var(arr, axis=1, ddof=1))
    if w == 0.0:
        return 1.0
    b = length * np.var(np.mean(arr, axis=1), ddof=1)
    var_plus = (length - 1.0) / length * w + b / length
    return float(np.sqrt(var_plus / w))


# ---------------------------------------------------------------------------
# scoring rules
# ---------------------------------------------------------------------------

def _mean_abs_pairwise(sorted_draws):
    m = sorted_draws.size
    weights = 2.0 * np.arange(m) - m + 1.0
    return 2.0 * float(np.dot(weights, sorted_draws)) / (m * m)


def crps_sample(draws, obs):
    """Sample CRPS in the energy form mean|X - y| - 0.5 mean|X - X'|."""
    x = np.sort(np.asarray(draws, dtype=float))
    if x.size < 2:
        raise ValueError("need at least two forecast draws")
    term1 = float(np.mean(np.abs(x - obs)))
    return term1 - 0.5 * _mean_abs_pairwise(x)


def _chain_transform(z, threshold, scale):
    """Antiderivative of the weight Phi((z - threshold)/scale)."""
    zeta = (np.asarray(z, dtype=float) - threshold) / scale
    return scale * (zeta * special.ndtr(zeta) + np.exp(-0.5 * zeta * zeta) / math.sqrt(2.0 * math.pi))


def twcrps_sample(draws, obs, threshold, scale=5.0):
    """Threshold-weighted CRPS with weight Phi((z - threshold)/scale).

    Computed as the CRPS of the draws mapped through the weight's
    antiderivative; the weight tends to one (plain CRPS) as the threshold
    goes to -inf and to zero as it goes to +inf.
    """
    return crps_sample(
        _chain_transform(draws, threshold, scale),
        float(_chain_transform(obs, threshold, scale)),
    )


# ---------------------------------------------------------------------------
# posterior summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PosteriorSummary:
    name: str
    mean: float
    ci_low: float
    ci_high: float
    ess: float
    rhat: float
    mean_outside_ci: bool


def _summarize(name, chains):
    pooled = np.concatenate(chains)
    mean = float(np.mean(pooled))
    lo, hi = np.percentile(pooled, [2.5, 97.5])
    try:
        total_ess = float(sum(ess(c) for c in chains))
    except ValueError:
        # a constant chain still gets a (width zero) summary; its ESS is
        # undefined rather than an error at this level
        total_ess = math.nan
    rhat = split_rhat(chains)
    return PosteriorSummary(
        name=name,
        mean=mean,
        ci_low=float(lo),
        ci_high=float(hi),
        ess=total_ess,
        rhat=rhat,
        mean_outside_ci=not (lo <= mean <= hi),
    )


def posterior_summaries(outputs, extra_discard=0):
    """Natural-scale summaries per hyperparameter plus the tail index xi.

    `outputs` is one ChainOutput or a list of them (multiple chains of the
    same model). xi is summarized from the elementwise 1/beta2 draws.
    """
    if not isinstance(outputs, (list, tuple)):
        outputs = [outputs]
    names = outputs[0].names
    if any(o.names != names for o in outputs):
        raise ValueError("chains disagree on parameter names")
    retained = [o.retained_hyper(extra_discard) for o in outputs]
    if any(r.shape[0] < 20 for r in retained):
        raise ValueError("need at least 20 retained draws per chain")
    out = {}
    for k, name in enumerate(names):
        out[name] = _summarize(name, [r[:, k] for r in retained])
    k2 = names.index("beta2")
    out["xi"] = _summarize("xi", [1.0 / r[:, k2] for r in retained])
    return out


def latent_summaries(outputs):
    """Summaries of tracked latent rates (natural scale)."""
    if not isinstance(outputs, (list, tuple)):
        outputs = [outputs]
    cells = outputs[0].latent_cells
    out = {}
    for m, (i, j) in enumerate(cells):
        chains = [np.exp(o.retained_latent()[0][:, m]) for o in outputs]
        out[f"lambda_{i}_{j}"] = _summarize(f"lambda_{i}_{j}", chains)
    return out


# ---------------------------------------------------------------------------
# posterior predictive
# ---------------------------------------------------------------------------

def _beta1_draws(output, hyper_rows):
    if output.structure.beta1_free:
        return hyper_rows[:, output.names.index("beta1")]
    return np.ones(hyper_rows.shape[0])


def predictive_cell_draws(output, site, data, rng):
    """Posterior predictive draws per replicate row at a fully censored site.

    Returns (n_draws, n_rows): one gamma draw Y ~ Gamma(rate lambda, shape
    beta1) per retained posterior draw and replicate, using the chain's own
    sampled latent rates.
    """
    if site not in data.prediction_sites():
        raise ValueError(f"site {site} is not fully censored")
    mask = output.latent_cells[:, 1] == site
    if not np.any(mask):
        raise ValueError(f"no latent trace recorded for site {site}")
    lat_rows, hyper_rows = output.retained_latent()
    lam = np.exp(lat_rows[:, mask])
    beta1 = _beta1_draws(output, hyper_rows)
    return rng.gamma(shape=beta1[:, None], scale=1.0 / lam)


def holdout_scores(outputs, data, censor_quantile, seed=0):
    """Mean CRPS and twCRPS over non-missing cells at prediction sites.

    The twCRPS weight centers at each site's empirical `censor_quantile`
    threshold computed from the held-out values themselves.
    """
    if not isinstance(outputs, (list, tuple)):
        outputs = [outputs]
    rng = np.random.default_rng(seed)
    crps_vals = []
    tw_vals = []
    for site in data.prediction_sites():
        truth = data.y[:, site]
        have = ~np.isnan(truth)
        if not np.any(have):
            continue
        threshold = float(np.quantile(truth[have], censor_quantile))
        per_chain = [
            predictive_cell_draws(o, site, data, rng) for o in outputs
        ]
        draws = np.concatenate(per_chain, axis=0)
        for i in np.flatnonzero(have):
            crps_vals.append(crps_sample(draws[:, i], truth[i]))
            tw_vals.append(twcrps_sample(draws[:, i], truth[i], threshold))
    if not crps_vals:
        raise ValueError("no scorable cells at prediction sites")
    return float(np.mean(crps_vals)), float(np.mean(tw_vals))


# ---------------------------------------------------------------------------
# marginal goodness of fit
# ---------------------------------------------------------------------------

def qq_data(obs, params):
    """Model vs empirical quantiles at plotting positions k/(m+1)."""
    obs = np.sort(np.asarray(obs, dtype=float))
    m = obs.size
    if m < 10:
        raise ValueError("need at least 10 observations")
    probs = np.arange(1, m + 1) / (m + 1.0)
    return gamma_gamma_quantile(probs, params), obs


def qq_parametric_band(params, m, n_boot=300, rng=None, level=0.95):
    """Pointwise band for the empirical quantiles of samples of size m
    drawn from the fitted marginal (parametric bootstrap)."""
    if rng is None:
        rng = np.random.default_rng(0)
    sims = np.sort(gamma_gamma_sample(params, rng, size=(n_boot, m)), axis=1)
    tail = 100.0 * (1.0 - level) / 2.0
    lo = np.percentile(sims, tail, axis=0)
    hi = np.percentile(sims, 100.0 - tail, axis=0)
    return lo, hi
