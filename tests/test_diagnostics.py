"""Tests for chain diagnostics, scoring rules, and posterior predictions."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from ratemix.distributions import (
    GammaGammaParams,
    GpParams,
    gamma_gamma_cdf,
    gamma_gamma_quantile,
    gamma_gamma_sample,
    gp_quantile,
)
from ratemix.likelihood import HyperParams, ParamStructure
from ratemix.model import FitSpec, fit
from ratemix.sampler import ChainOutput, SamplerConfig
from ratemix.simulate import ScenarioSpec, simulate_dataset
from ratemix.diagnostics import (
    crps_sample,
    ess,
    holdout_scores,
    latent_summaries,
    posterior_summaries,
    predictive_cell_draws,
    qq_data,
    qq_parametric_band,
    split_rhat,
    twcrps_sample,
)


class TestEss:
    def test_white_noise(self):
        rng = np.random.default_rng(0)
        n = 5000
        trace = rng.normal(size=n)
        assert abs(ess(trace) - n) < 0.10 * n

    def test_ar1(self):
        rng = np.random.default_rng(1)
        phi = 0.9
        n = 20000
        x = np.empty(n)
        x[0] = rng.normal()
        eps = rng.normal(size=n)
        for t in range(1, n):
            x[t] = phi * x[t - 1] + eps[t]
        want = n * (1 - phi) / (1 + phi)
        got = ess(x)
        assert abs(got - want) < 0.25 * want
        assert got <= n

    def test_constant_trace_errors(self):
        with pytest.raises(ValueError):
            ess(np.full(100, 3.14))

    def test_short_trace_errors(self):
        with pytest.raises(ValueError):
            ess(np.arange(5.0))


class TestSplitRhat:
    def test_well_mixed_chains_near_one(self):
        rng = np.random.default_rng(2)
        chains = [rng.normal(size=2000) for _ in range(2)]
        assert abs(split_rhat(chains) - 1.0) < 0.05

    def test_separated_chains_flagged(self):
        rng = np.random.default_rng(3)
        chains = [rng.normal(size=2000), rng.normal(loc=3.0, size=2000)]
        assert split_rhat(chains) > 1.5

    def test_within_chain_drift_flagged(self):
        # split halves catch a trend inside a single chain
        drift = np.linspace(0.0, 5.0, 2000) + np.random.default_rng(4).normal(size=2000)
        assert split_rhat([drift]) > 1.2

    def test_constant_chains_return_one(self):
        assert split_rhat([np.full(100, 2.0), np.full(100, 2.0)]) == 1.0

    def test_too_short_errors(self):
        with pytest.raises(ValueError):
            split_rhat([np.arange(6.0)])


class TestCrps:
    def test_hand_value(self):
        assert_allclose(crps_sample([0.0, 2.0], 1.0), 0.5, rtol=1e-12)

    def test_perfect_forecast(self):
        assert_allclose(crps_sample(np.full(50, 1.7), 1.7), 0.0, atol=1e-12)

    def test_point_forecast_is_absolute_error(self):
        assert_allclose(crps_sample(np.full(20, 2.0), 5.0), 3.0, rtol=1e-12)

    def test_standard_normal_closed_form(self):
        # CRPS of N(0,1) at obs 0 is (sqrt(2)-1)/sqrt(pi)
        rng = np.random.default_rng(5)
        want = (math.sqrt(2.0) - 1.0) / math.sqrt(math.pi)
        batches = [crps_sample(rng.normal(size=10000), 0.0) for _ in range(20)]
        got = float(np.mean(batches))
        sem = float(np.std(batches, ddof=1)) / math.sqrt(len(batches))
        assert abs(got - want) < 3.0 * sem

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        draws = rng.gamma(2.0, size=101)
        shuffled = rng.permutation(draws)
        assert crps_sample(draws, 1.0) == crps_sample(shuffled, 1.0)

    def test_needs_two_draws(self):
        with pytest.raises(ValueError):
            crps_sample([1.0], 1.0)


class TestTwcrps:
    def test_unit_weight_recovers_crps(self):
        rng = np.random.default_rng(7)
        draws = rng.gamma(2.0, size=500)
        want = crps_sample(draws, 1.3)
        got = twcrps_sample(draws, 1.3, threshold=-1e9)
        assert_allclose(got, want, rtol=1e-6)

    def test_zero_weight_scores_zero(self):
        rng = np.random.default_rng(8)
        draws = rng.gamma(2.0, size=500)
        assert twcrps_sample(draws, 1.3, threshold=1e9) < 1e-12

    def test_weighted_below_unweighted_at_center(self):
        rng = np.random.default_rng(9)
        draws = rng.normal(size=20000)
        assert twcrps_sample(draws, 0.0, threshold=0.0) < crps_sample(draws, 0.0)

    def test_never_exceeds_crps(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            draws = rng.gamma(2.0, size=64)
            obs = float(rng.gamma(2.0))
            thr = float(rng.normal(scale=2.0))
            assert twcrps_sample(draws, obs, thr) <= crps_sample(draws, obs) + 1e-12


def synthetic_output(hyper_cols, seed_names=("alpha0", "beta2", "rho"),
                     n_iter=1000, burnin1=100, burnin2=100):
    """ChainOutput stub around a given natural-scale trace matrix."""
    config = SamplerConfig(n_iter=n_iter, burnin1=burnin1, burnin2=burnin2, seed=0)
    structure = ParamStructure(n_alpha_slopes=0, beta1_free=False, n_beta2_slopes=None)
    trace = np.column_stack(hyper_cols)
    assert trace.shape[0] == n_iter + 1
    return ChainOutput(
        names=tuple(seed_names),
        hyper_trace=trace,
        latent_cells=np.array([[0, 0]]),
        latent_trace=np.zeros((n_iter // 50 + 1, 1)),
        latent_iters=np.arange(n_iter // 50 + 1) * 50,
        accept_history=np.zeros((2, 3)),
        step_history=np.zeros((2, 3)),
        config=config,
        structure=structure,
        final_tau_theta=0.1,
        final_tau_lambda=0.1,
        seed=0,
    )


class TestPosteriorSummaries:
    def test_constant_parameter_zero_width(self):
        rng = np.random.default_rng(11)
        rows = 1001
        out = synthetic_output([np.full(rows, 2.5), rng.gamma(4.0, size=rows),
                                np.full(rows, 0.7)])
        summ = posterior_summaries(out)
        assert summ["alpha0"].ci_low == summ["alpha0"].ci_high == summ["alpha0"].mean == 2.5
        assert math.isnan(summ["alpha0"].ess)
        assert summ["alpha0"].rhat == 1.0

    def test_xi_is_elementwise_reciprocal(self):
        rng = np.random.default_rng(12)
        rows = 1001
        beta2 = rng.gamma(9.0, size=rows) + 1.0
        out = synthetic_output([rng.normal(size=rows), beta2, np.full(rows, 1.0)])
        summ = posterior_summaries(out)
        retained = beta2[201:]
        assert_allclose(summ["xi"].mean, np.mean(1.0 / retained), rtol=1e-12)
        assert abs(summ["xi"].mean - 1.0 / summ["beta2"].mean) > 1e-4
        lo, hi = np.percentile(1.0 / retained, [2.5, 97.5])
        assert_allclose([summ["xi"].ci_low, summ["xi"].ci_high], [lo, hi], rtol=1e-12)

    def test_extra_discard_drops_leading_draws(self):
        rng = np.random.default_rng(13)
        rows = 1001
        col = rng.normal(size=rows)
        out = synthetic_output([col, np.abs(col) + 1.5, col])
        full = posterior_summaries(out)
        late = posterior_summaries(out, extra_discard=300)
        assert_allclose(late["alpha0"].mean, np.mean(col[501:]), rtol=1e-12)
        assert full["alpha0"].mean != late["alpha0"].mean

    def test_thinning_shifts_mean_within_mc_error(self):
        rng = np.random.default_rng(14)
        n = 4000
        phi = 0.8
        x = np.empty(n + 1)
        x[0] = 0.0
        for t in range(1, n + 1):
            x[t] = phi * x[t - 1] + rng.normal()
        full = synthetic_output([x, np.full(n + 1, 2.0), np.full(n + 1, 1.0)],
                                n_iter=n, burnin1=500, burnin2=500)
        thin = synthetic_output([x[::2], np.full(n // 2 + 1, 2.0), np.full(n // 2 + 1, 1.0)],
                                n_iter=n // 2, burnin1=250, burnin2=250)
        a = posterior_summaries(full)["alpha0"]
        b = posterior_summaries(thin)["alpha0"]
        sd_stat = math.sqrt(1.0 / (1.0 - phi**2)) * math.sqrt(1.0 / a.ess + 1.0 / b.ess)
        assert abs(a.mean - b.mean) < 4.0 * sd_stat

    def test_rejects_mismatched_chains(self):
        rng = np.random.default_rng(15)
        rows = 1001
        a = synthetic_output([rng.normal(size=rows), np.full(rows, 2.0), np.full(rows, 1.0)])
        b = synthetic_output([rng.normal(size=rows), np.full(rows, 2.0), np.full(rows, 1.0)],
                             seed_names=("alpha0", "beta2", "range"))
        with pytest.raises(ValueError):
            posterior_summaries([a, b])

    def test_rejects_insufficient_draws(self):
        rng = np.random.default_rng(16)
        out = synthetic_output(
            [rng.normal(size=216), np.full(216, 2.0), np.full(216, 1.0)],
            n_iter=215, burnin1=100, burnin2=100,
        )
        with pytest.raises(ValueError):
            posterior_summaries(out)


@pytest.fixture(scope="module")
def small_fit():
    """A short two-chain fit on a small simulated scenario with holdout."""
    truth = HyperParams(alpha_coefs=np.array([0.0, 0.5, 0.5, 0.5]), beta1=2.0,
                        beta2=5.0, rho=1.0)
    scen = ScenarioSpec(d=6, n=15, hyper=truth, censor_quantile=0.75,
                        n_predict_sites=1, seed=77)
    data, raw_model, _ = simulate_dataset(scen)
    config = SamplerConfig(n_iter=4000, burnin1=1000, burnin2=1000, thin=20, seed=123,
                           audit_interval=2000)
    spec = FitSpec(variant="D1", sampler=config)
    model, outputs = fit(spec, data, raw_model.design, raw_model.covariates,
                         raw_model.covariate_names, n_chains=2)
    return data, model, outputs


class TestPredictive:
    def test_cell_draw_shapes_and_positivity(self, small_fit):
        data, model, outputs = small_fit
        site = int(data.prediction_sites()[0])
        rng = np.random.default_rng(0)
        draws = predictive_cell_draws(outputs[0], site, data, rng)
        lat_rows, _ = outputs[0].retained_latent()
        assert draws.shape == (lat_rows.shape[0], data.n)
        assert np.all(draws > 0)
        pooled = predictive_cell_draws(outputs[0], site, data, np.random.default_rng(1)).ravel()
        assert pooled.shape == (lat_rows.shape[0] * data.n,)

    def test_rejects_training_site(self, small_fit):
        data, model, outputs = small_fit
        train_site = int(np.setdiff1d(np.arange(data.d), data.prediction_sites())[0])
        with pytest.raises(ValueError):
            predictive_cell_draws(outputs[0], train_site, data, np.random.default_rng(0))

    def test_wider_than_plugin(self, small_fit):
        data, model, outputs = small_fit
        site = int(data.prediction_sites()[0])
        pooled = np.concatenate(
            [
                predictive_cell_draws(o, site, data, np.random.default_rng(5)).ravel()
                for o in outputs
            ]
        )
        summ = posterior_summaries(outputs)
        b2_hat = summ["beta2"].mean
        assert b2_hat > 2.2
        names = outputs[0].names
        hyper_rows = np.concatenate([o.retained_hyper() for o in outputs], axis=0)
        a_mean = float(np.mean(hyper_rows[:, names.index("alpha0")]))
        covs = model.covariates[site]
        slopes = [float(np.mean(hyper_rows[:, names.index(f"alpha_{c}")]))
                  for c in ("x", "y", "z3")]
        alpha_site = a_mean * math.exp(float(np.dot(covs, slopes)))
        params = GammaGammaParams(alpha=alpha_site, beta1=summ["beta1"].mean, beta2=b2_hat)
        plug = gamma_gamma_sample(params, np.random.default_rng(6), size=pooled.size)
        assert pooled.var() > plug.var()

    def test_latent_summaries_cover_tracked_cells(self, small_fit):
        data, model, outputs = small_fit
        summ = latent_summaries(outputs)
        cells = outputs[0].latent_cells
        assert len(summ) == len(cells)
        for i, j in cells:
            s = summ[f"lambda_{i}_{j}"]
            assert s.ci_low <= s.mean <= s.ci_high

    def test_holdout_scores_finite_and_ordered(self, small_fit):
        data, model, outputs = small_fit
        crps_mean, tw_mean = holdout_scores(outputs, data, censor_quantile=0.75, seed=2)
        assert math.isfinite(crps_mean) and math.isfinite(tw_mean)
        assert 0.0 < tw_mean <= crps_mean

    def test_fit_chains_summarize_cleanly(self, small_fit):
        _, _, outputs = small_fit
        summ = posterior_summaries(outputs)
        for name in ("alpha0", "beta1", "beta2", "rho", "xi"):
            s = summ[name]
            assert math.isfinite(s.rhat)
            assert 0 < s.ess <= 2 * outputs[0].retained_hyper().shape[0]
            assert s.ci_low < s.ci_high


class TestQq:
    def test_self_consistency(self):
        params = GammaGammaParams(alpha=1.4, beta1=2.2, beta2=3.3)
        rng = np.random.default_rng(17)
        obs = gamma_gamma_sample(params, rng, size=500)
        model_q, emp_q = qq_data(obs, params)
        # compare on the probability scale against a Kolmogorov band
        probs = np.arange(1, 501) / 501.0
        gap = np.max(np.abs(gamma_gamma_cdf(emp_q, params) - probs))
        assert gap < 3.0 * 1.36 / math.sqrt(500)

    def test_repeated_value_degenerates(self):
        params = GammaGammaParams(alpha=1.0, beta1=2.0, beta2=3.0)
        model_q, emp_q = qq_data(np.full(25, 4.2), params)
        assert np.all(emp_q == 4.2)
        assert np.all(np.diff(model_q) > 0)

    def test_beta1_one_matches_gp_quantiles(self):
        params = GammaGammaParams(alpha=2.0, beta1=1.0, beta2=4.0)
        rng = np.random.default_rng(18)
        obs = rng.gamma(2.0, size=40)
        model_q, _ = qq_data(obs, params)
        probs = np.arange(1, 41) / 41.0
        gp = GpParams(tau=0.5, xi=0.25)
        assert_allclose(model_q, gp_quantile(probs, gp), rtol=1e-9)

    def test_needs_ten_observations(self):
        with pytest.raises(ValueError):
            qq_data(np.arange(5.0) + 1.0, GammaGammaParams(1.0, 2.0, 3.0))

    def test_parametric_band_brackets_model_quantiles(self):
        params = GammaGammaParams(alpha=1.4, beta1=2.2, beta2=3.3)
        m = 200
        lo, hi = qq_parametric_band(params, m, n_boot=300, rng=np.random.default_rng(19))
        assert lo.shape == hi.shape == (m,)
        assert np.all(lo <= hi)
        probs = np.arange(1, m + 1) / (m + 1.0)
        model_q = gamma_gamma_quantile(probs, params)
        inside = np.mean((model_q >= lo) & (model_q <= hi))
        assert inside > 0.8
