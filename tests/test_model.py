"""Tests for model variants, covariate handling, and the fit pipeline."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ratemix.latent_field import make_design
from ratemix.likelihood import (
    HyperParams,
    ParamStructure,
    ValidationError,
    augmented_logpost,
)
from ratemix.priors import PriorSet, pc_logprior_beta1
from ratemix.model import (
    VARIANTS,
    FitSpec,
    apply_censoring,
    build_model,
    chain_seeds,
    compare,
    fit,
    get_variant,
    initial_hyper,
    standardized_truth,
)
from ratemix.sampler import SamplerConfig
from ratemix.simulate import ScenarioSpec, simulate_dataset


def random_design(d, seed=0):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(size=(d, 2))
    covariates = np.column_stack([
        rng.uniform(2.0, 9.0, size=d),
        rng.normal(5.0, 3.0, size=d),
        rng.gamma(2.0, size=d),
    ])
    return make_design(coords), covariates, ("x", "y", "z3")


def variant_structure(variant, n_covariates):
    return ParamStructure(
        n_alpha_slopes=n_covariates,
        beta1_free=not variant.beta1_fixed,
        n_beta2_slopes=n_covariates if variant.beta2_covariates else None,
    )


class TestVariants:
    def test_parameter_counts(self):
        assert variant_structure(VARIANTS["D1"], 3).size == 7
        assert variant_structure(VARIANTS["D2"], 3).size == 10
        assert variant_structure(VARIANTS["D3"], 3).size == 6
        assert variant_structure(VARIANTS["D4"], 3).size == 9

    def test_counts_agree_with_vector_layout(self):
        design, covariates, names = random_design(6)
        model = build_model(design, covariates, names)
        rng = np.random.default_rng(1)
        for name, variant in VARIANTS.items():
            h = initial_hyper(variant, model, rng)
            structure = ParamStructure.from_hyper(h)
            expected = variant_structure(variant, 3).size
            assert structure.size == expected, name
            assert len(structure.names(names)) == expected

    def test_beta1_pinned_in_d3_d4(self):
        design, covariates, names = random_design(6)
        model = build_model(design, covariates, names)
        rng = np.random.default_rng(2)
        for key in ("D3", "D4"):
            h = initial_hyper(VARIANTS[key], model, rng)
            assert h.beta1 == 1.0 and h.beta1_fixed

    def test_unknown_variant(self):
        with pytest.raises(ValidationError):
            get_variant("D5")


class TestBuildModel:
    def test_standardizes_columns(self):
        design, covariates, names = random_design(9)
        model = build_model(design, covariates, names)
        assert_allclose(model.covariates.mean(axis=0), 0.0, atol=1e-12)
        assert_allclose(model.covariates.std(axis=0), 1.0, rtol=1e-12)
        assert_allclose(model.cov_mean, covariates.mean(axis=0), rtol=1e-12)
        assert_allclose(model.cov_sd, covariates.std(axis=0), rtol=1e-12)

    def test_train_site_constants_apply_everywhere(self):
        design, covariates, names = random_design(9)
        train = np.arange(7)
        model = build_model(design, covariates, names, train_sites=train)
        assert_allclose(model.covariates[train].mean(axis=0), 0.0, atol=1e-12)
        assert_allclose(model.covariates[train].std(axis=0), 1.0, rtol=1e-12)
        want = (covariates[7:] - covariates[train].mean(axis=0)) / covariates[train].std(axis=0)
        assert_allclose(model.covariates[7:], want, rtol=1e-12)

    def test_standardize_off_keeps_raw_values(self):
        design, covariates, names = random_design(5)
        model = build_model(design, covariates, names, standardize=False)
        assert_allclose(model.covariates, covariates)
        assert_allclose(model.cov_mean, 0.0)
        assert_allclose(model.cov_sd, 1.0)

    def test_rejects_constant_column(self):
        design, covariates, names = random_design(6)
        covariates[:, 1] = 3.0
        with pytest.raises(ValidationError):
            build_model(design, covariates, names)

    def test_rejects_shape_and_name_mismatches(self):
        design, covariates, names = random_design(6)
        with pytest.raises(ValidationError):
            build_model(design, covariates[:4], names)
        with pytest.raises(ValidationError):
            build_model(design, covariates, ("x", "y"))


class TestStandardizedTruth:
    def test_site_rates_invariant(self):
        design, covariates, names = random_design(8, seed=3)
        model = build_model(design, covariates, names)
        hyper = HyperParams(alpha_coefs=np.array([0.4, 0.3, -0.2, 0.1]),
                            beta1=2.0, beta2=4.0, rho=1.5)
        truth = standardized_truth(hyper, model)
        raw_rate = np.exp(hyper.alpha_coefs[0] + covariates @ hyper.alpha_coefs[1:])
        std_slopes = np.array([truth[f"alpha_{c}"] for c in names])
        std_rate = truth["alpha0"] * np.exp(model.covariates @ std_slopes)
        assert_allclose(std_rate, raw_rate, rtol=1e-12)

    def test_reports_scale_free_parameters_unchanged(self):
        design, covariates, names = random_design(8, seed=4)
        model = build_model(design, covariates, names)
        hyper = HyperParams(alpha_coefs=np.zeros(4), beta1=5.0, beta2=5.0, rho=1.0)
        truth = standardized_truth(hyper, model)
        assert truth["beta1"] == 5.0
        assert truth["beta2"] == 5.0
        assert truth["rho"] == 1.0
        assert truth["xi"] == 0.2

    def test_pinned_beta1_omitted(self):
        design, covariates, names = random_design(8, seed=5)
        model = build_model(design, covariates, names)
        hyper = HyperParams(alpha_coefs=np.zeros(4), beta1=1.0, beta2=3.0, rho=1.0,
                            beta1_fixed=True)
        assert "beta1" not in standardized_truth(hyper, model)


class TestApplyCensoring:
    def test_thresholds_and_flags(self):
        rng = np.random.default_rng(6)
        y = rng.gamma(2.0, size=(40, 3))
        data = apply_censoring(y, 0.75)
        for j in range(3):
            assert_allclose(data.u[:, j], np.quantile(y[:, j], 0.75))
        assert np.array_equal(data.e, (y >= data.u).astype(float))

    def test_prediction_sites_fully_censored(self):
        rng = np.random.default_rng(7)
        y = rng.gamma(2.0, size=(20, 4))
        data = apply_censoring(y, 0.5, predict_sites=[1, 3])
        assert np.all(np.isinf(data.u[:, [1, 3]]))
        assert np.all(data.e[:, [1, 3]] == 0.0)
        assert np.array_equal(data.prediction_sites(), [1, 3])
        assert np.all(np.isfinite(data.u[:, [0, 2]]))

    def test_missing_cells(self):
        rng = np.random.default_rng(8)
        y = rng.gamma(2.0, size=(30, 2))
        missing = np.zeros_like(y, dtype=bool)
        missing[:5, 0] = True
        data = apply_censoring(y, 0.5, missing=missing)
        assert np.all(np.isinf(data.u[:5, 0]))
        assert np.all(data.e[:5, 0] == 0.0)
        # threshold excludes the missing rows
        assert_allclose(data.u[10, 0], np.quantile(y[5:, 0], 0.5))

    def test_nan_values_never_flagged(self):
        y = np.array([[1.0, 2.0], [np.nan, 3.0], [4.0, 5.0], [2.0, 1.0]])
        missing = np.isnan(y)
        data = apply_censoring(y, 0.5, missing=missing)
        assert data.e[1, 0] == 0.0
        assert np.isinf(data.u[1, 0])

    def test_no_censoring_keeps_everything(self):
        rng = np.random.default_rng(9)
        y = rng.gamma(2.0, size=(15, 2))
        data = apply_censoring(y, None)
        assert np.all(data.u == 0.0)
        assert np.all(data.e == 1.0)

    def test_all_missing_site_rejected(self):
        y = np.ones((10, 2))
        missing = np.zeros_like(y, dtype=bool)
        missing[:, 1] = True
        with pytest.raises(ValidationError):
            apply_censoring(y, 0.5, missing=missing)


class TestInitialHyper:
    def test_within_prior_support(self):
        design, covariates, names = random_design(10, seed=10)
        model = build_model(design, covariates, names)
        priors = PriorSet()
        truth = HyperParams(alpha_coefs=np.zeros(4), beta1=2.0, beta2=3.0, rho=1.0)
        scen_design = design
        rng_y = np.random.default_rng(0)
        y = rng_y.gamma(2.0, size=(8, 10))
        data = apply_censoring(y, 0.5)
        for name, variant in VARIANTS.items():
            for seed in range(5):
                h = initial_hyper(variant, model, np.random.default_rng(seed))
                assert h.beta2 > 1.0
                log_lam = np.zeros((8, 10))
                lp = augmented_logpost(h, log_lam, data, model, priors)
                assert math.isfinite(lp), (name, seed)

    def test_seed_controls_draw(self):
        design, covariates, names = random_design(6, seed=11)
        model = build_model(design, covariates, names)
        v = VARIANTS["D1"]
        a = initial_hyper(v, model, np.random.default_rng(3))
        b = initial_hyper(v, model, np.random.default_rng(3))
        c = initial_hyper(v, model, np.random.default_rng(4))
        assert_allclose(a.alpha_coefs, b.alpha_coefs)
        assert a.beta1 == b.beta1 and a.rho == b.rho
        assert a.beta1 != c.beta1


class TestNesting:
    def test_d2_zero_slopes_matches_d1(self):
        design, covariates, names = random_design(5, seed=12)
        model = build_model(design, covariates, names)
        rng = np.random.default_rng(13)
        y = rng.gamma(2.0, size=(6, 5))
        data = apply_censoring(y, 0.5)
        log_lam = rng.normal(size=(6, 5))
        h1 = HyperParams(alpha_coefs=np.array([0.2, 0.3, -0.1, 0.2]), beta1=1.7,
                         beta2=3.1, rho=0.9)
        h2 = HyperParams(alpha_coefs=h1.alpha_coefs, beta1=1.7, beta2=3.1, rho=0.9,
                         beta2_slopes=np.zeros(3))
        lp1 = augmented_logpost(h1, log_lam, data, model, priors=None)
        lp2 = augmented_logpost(h2, log_lam, data, model, priors=None)
        assert_allclose(lp2, lp1, rtol=1e-12)

    def test_d3_differs_from_d1_by_beta1_prior_only(self):
        design, covariates, names = random_design(5, seed=14)
        model = build_model(design, covariates, names)
        rng = np.random.default_rng(15)
        y = rng.gamma(2.0, size=(6, 5))
        data = apply_censoring(y, 0.5)
        log_lam = rng.normal(size=(6, 5))
        priors = PriorSet(kappa1=1.4)
        free = HyperParams(alpha_coefs=np.array([0.2, 0.3, -0.1, 0.2]), beta1=1.0,
                           beta2=3.1, rho=0.9)
        pinned = HyperParams(alpha_coefs=free.alpha_coefs, beta1=1.0, beta2=3.1,
                             rho=0.9, beta1_fixed=True)
        lp_free = augmented_logpost(free, log_lam, data, model, priors)
        lp_pinned = augmented_logpost(pinned, log_lam, data, model, priors)
        assert_allclose(lp_free - lp_pinned, pc_logprior_beta1(1.0, 1.4), rtol=1e-10)


class TestChainSeeds:
    def test_deterministic_and_distinct(self):
        a = chain_seeds(42, 6)
        b = chain_seeds(42, 6)
        assert a == b
        assert len(set(a)) == 6
        assert all(isinstance(s, int) for s in a)

    def test_prefix_stable(self):
        assert chain_seeds(7, 2) == chain_seeds(7, 4)[:2]


@pytest.fixture(scope="module")
def tiny_fit():
    truth = HyperParams(alpha_coefs=np.array([0.0, 0.5, 0.5, 0.5]), beta1=2.0,
                        beta2=5.0, rho=1.0)
    scen = ScenarioSpec(d=5, n=12, hyper=truth, censor_quantile=0.75,
                        n_predict_sites=1, seed=21)
    data, raw_model, _ = simulate_dataset(scen)
    config = SamplerConfig(n_iter=1500, burnin1=400, burnin2=400, thin=10, seed=5)
    spec = FitSpec(variant="D1", sampler=config)
    model, outputs = fit(spec, data, raw_model.design, raw_model.covariates,
                         raw_model.covariate_names, n_chains=2)
    return data, model, outputs


class TestFit:
    def test_requires_sampler_config(self):
        with pytest.raises(ValidationError):
            FitSpec(variant="D1")

    def test_standardizes_on_training_sites(self, tiny_fit):
        data, model, outputs = tiny_fit
        train = np.setdiff1d(np.arange(data.d), data.prediction_sites())
        assert_allclose(model.covariates[train].mean(axis=0), 0.0, atol=1e-12)
        assert_allclose(model.covariates[train].std(axis=0), 1.0, rtol=1e-12)

    def test_chains_differ_but_share_layout(self, tiny_fit):
        _, _, outputs = tiny_fit
        a, b = outputs
        assert a.names == b.names == ("alpha0", "alpha_x", "alpha_y", "alpha_z3",
                                      "beta1", "beta2", "rho")
        assert a.seed != b.seed
        assert a.hyper_trace.shape == b.hyper_trace.shape
        assert not np.allclose(a.hyper_trace[-1], b.hyper_trace[-1])

    def test_rerun_is_deterministic(self, tiny_fit):
        data, model, outputs = tiny_fit
        truth = HyperParams(alpha_coefs=np.array([0.0, 0.5, 0.5, 0.5]), beta1=2.0,
                            beta2=5.0, rho=1.0)
        scen = ScenarioSpec(d=5, n=12, hyper=truth, censor_quantile=0.75,
                            n_predict_sites=1, seed=21)
        data2, raw_model, _ = simulate_dataset(scen)
        config = SamplerConfig(n_iter=1500, burnin1=400, burnin2=400, thin=10, seed=5)
        spec = FitSpec(variant="D1", sampler=config)
        model2, outputs2 = fit(spec, data2, raw_model.design, raw_model.covariates,
                               raw_model.covariate_names, n_chains=2)
        for a, b in zip(outputs, outputs2):
            assert np.array_equal(a.hyper_trace, b.hyper_trace)
            assert np.array_equal(a.latent_trace, b.latent_trace)

    def test_compare_identical_outputs_tie(self, tiny_fit):
        data, _, outputs = tiny_fit
        rows = compare({"A": outputs, "B": outputs}, data, censor_quantile=0.75, seed=3)
        assert len(rows) == 2
        assert rows[0]["crps"] == rows[1]["crps"]
        assert rows[0]["twcrps"] == rows[1]["twcrps"]
        assert all(r["best_crps"] and r["best_twcrps"] for r in rows)
        assert all(math.isfinite(r["crps"]) for r in rows)

    def test_compare_flags_single_best(self, tiny_fit):
        data, _, outputs = tiny_fit
        rows = compare({"A": outputs, "B": [outputs[0]], "C": [outputs[1]]}, data,
                       censor_quantile=0.75, seed=3)
        assert sum(r["best_crps"] for r in rows) == 1
        assert sum(r["best_twcrps"] for r in rows) == 1
