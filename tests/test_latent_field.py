import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

from ratemix.distributions import DomainError, GammaParams, gamma_logpdf
from ratemix.latent_field import (
    FactorizationError,
    LatentMarginal,
    SpatialModel,
    build_correlation,
    copula_loglik_rows,
    copula_sample_rows,
    copula_sample_rows_t,
    make_design,
    site_marginal,
)
from ratemix.likelihood import HyperParams
from ratemix.simulate import ScenarioSpec, chi_u_curve, simulate_dataset


def pair_design(distance):
    return make_design(np.array([[0.0, 0.0], [distance, 0.0]]))


def row_loglik(lam_row, marg, corr):
    """Log density of a single row of latent rates."""
    return float(copula_loglik_rows(np.asarray(lam_row, dtype=float)[None, :], marg, corr)[0])


class TestCorrelation:
    def test_unit_diagonal(self):
        design = make_design(np.array([[0.0, 0.0], [1.0, 0.5], [0.2, 0.9]]))
        corr = build_correlation(design, 2.0)
        assert_allclose(np.diag(corr.matrix), 1.0, rtol=1e-15)

    def test_distance_equals_range(self):
        corr = build_correlation(pair_design(1.5), 1.5)
        assert_allclose(corr.matrix[0, 1], math.exp(-1.0), rtol=1e-12)

    def test_large_range_value(self):
        # pair 10 apart with range 205 stays correlated at about 0.95
        corr = build_correlation(pair_design(10.0), 205.0)
        assert_allclose(corr.matrix[0, 1], 0.9524, atol=5e-5)

    def test_duplicate_sites_rejected(self):
        with pytest.raises(DomainError):
            make_design(np.array([[0.1, 0.1], [0.1, 0.1]]))

    def test_cholesky_reconstruction(self):
        rng = np.random.default_rng(1)
        design = make_design(rng.uniform(0.0, 1.0, size=(25, 2)))
        corr = build_correlation(design, 0.7)
        assert np.max(np.abs(corr.chol @ corr.chol.T - corr.matrix)) < 1e-10

    def test_log_det(self):
        design = make_design(np.array([[0.0, 0.0], [0.4, 0.0], [0.0, 0.9]]))
        corr = build_correlation(design, 1.1)
        sign, want = np.linalg.slogdet(corr.matrix)
        assert sign > 0
        assert_allclose(corr.log_det, want, rtol=1e-12)

    def test_entries_decreasing_in_distance(self):
        design = make_design(np.array([[0.0, 0.0], [0.3, 0.0], [2.0, 0.0]]))
        corr = build_correlation(design, 1.0)
        assert corr.matrix[0, 1] > corr.matrix[0, 2] > 0.0

    def test_invalid_range(self):
        with pytest.raises(DomainError):
            build_correlation(pair_design(1.0), 0.0)

    def test_coincident_sites_survive_via_jitter(self):
        # effectively coincident sites give a singular matrix; the one-shot
        # jitter retry must still produce a usable factor
        coords = np.array([[0.0, 0.0], [1e-13, 0.0], [2e-13, 0.0]])
        corr = build_correlation(make_design(coords), 1e12)
        assert np.all(np.isfinite(corr.chol))

    def test_indefinite_matrix_raises(self):
        # a distance matrix violating the triangle inequality yields an
        # indefinite "correlation" that no jitter can rescue
        from ratemix.latent_field import SpatialDesign

        dist = np.array(
            [
                [0.0, -math.log(0.9), -math.log(0.9)],
                [-math.log(0.9), 0.0, -math.log(0.1)],
                [-math.log(0.9), -math.log(0.1), 0.0],
            ]
        )
        design = SpatialDesign(coords=np.zeros((3, 2)), dist=dist)
        with pytest.raises(FactorizationError):
            build_correlation(design, 1.0)


class TestCopulaDensity:
    def test_tiny_range_reduces_to_independent_gammas(self):
        one = build_correlation(make_design(np.array([[0.0, 0.0], [100.0, 0.0]])), 0.01)
        lam = np.array([0.7, 1.9])
        marg = LatentMarginal(alpha_site=np.array([1.3, 0.6]), beta2=2.1)
        got = row_loglik(lam, marg, one)
        want = gamma_logpdf(0.7, GammaParams(1.3, 2.1)) + gamma_logpdf(1.9, GammaParams(0.6, 2.1))
        assert_allclose(got, want, atol=1e-10)

    def test_two_site_oracle(self):
        corr = build_correlation(pair_design(0.5), 1.0)
        marg = LatentMarginal(alpha_site=np.array([0.9, 1.4]), beta2=3.0)
        lam = np.array([0.55, 2.3])
        g = stats.gamma.cdf(lam, a=3.0, scale=1.0 / marg.alpha_site)
        z = stats.norm.ppf(g)
        want = (
            stats.multivariate_normal(mean=np.zeros(2), cov=corr.matrix).logpdf(z)
            - stats.norm.logpdf(z).sum()
            + stats.gamma.logpdf(lam, a=3.0, scale=1.0 / marg.alpha_site).sum()
        )
        assert_allclose(row_loglik(lam, marg, corr), want, atol=1e-10)

    def test_rows_vectorization(self):
        rng = np.random.default_rng(3)
        design = make_design(rng.uniform(0.0, 1.0, size=(4, 2)))
        corr = build_correlation(design, 0.8)
        marg = LatentMarginal(alpha_site=rng.uniform(0.5, 2.0, size=4), beta2=2.5)
        lam = rng.gamma(2.0, 1.0, size=(6, 4))
        rows = copula_loglik_rows(lam, marg, corr)
        singles = [row_loglik(lam[i], marg, corr) for i in range(6)]
        assert_allclose(rows, singles, rtol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        coords = rng.uniform(0.0, 1.0, size=(5, 2))
        alpha = rng.uniform(0.5, 2.0, size=5)
        lam = rng.gamma(2.0, 1.0, size=5)
        perm = np.array([3, 0, 4, 1, 2])
        base = row_loglik(
            lam, LatentMarginal(alpha, 2.0), build_correlation(make_design(coords), 0.9)
        )
        shuffled = row_loglik(
            lam[perm],
            LatentMarginal(alpha[perm], 2.0),
            build_correlation(make_design(coords[perm]), 0.9),
        )
        assert_allclose(shuffled, base, atol=1e-10)

    def test_extreme_lambda_stays_finite(self):
        corr = build_correlation(pair_design(0.5), 1.0)
        marg = LatentMarginal(alpha_site=np.array([1.0, 1.0]), beta2=2.0)
        val = row_loglik(np.array([1e-14, 1e9]), marg, corr)
        assert math.isfinite(val)

    def test_density_integrates_to_one_d2(self):
        corr = build_correlation(pair_design(0.4), 1.2)
        marg = LatentMarginal(alpha_site=np.array([1.0, 1.5]), beta2=2.0)

        def dens(x, y):
            return math.exp(row_loglik(np.array([x, y]), marg, corr))

        val, _ = integrate.dblquad(dens, 1e-6, 40.0, 1e-6, 40.0, epsabs=1e-6)
        assert_allclose(val, 1.0, atol=1e-4)


class TestCopulaSampling:
    def test_margins_preserved(self):
        rng = np.random.default_rng(7)
        corr = build_correlation(pair_design(0.3), 1.0)
        marg = LatentMarginal(alpha_site=np.array([0.8, 1.7]), beta2=2.2)
        draws = copula_sample_rows(marg, corr, 100_000, rng)
        for j, a in enumerate(marg.alpha_site):
            ks = stats.kstest(draws[:, j], lambda x: stats.gamma.cdf(x, a=2.2, scale=1.0 / a)).statistic
            assert ks < 0.01

    def test_spearman_increases_with_range(self):
        rng = np.random.default_rng(9)
        marg = LatentMarginal(alpha_site=np.array([1.0, 1.0]), beta2=2.0)
        rhos = []
        for rho in (0.1, 1.0, 10.0):
            corr = build_correlation(pair_design(0.5), rho)
            draws = copula_sample_rows(marg, corr, 20_000, rng)
            rhos.append(stats.spearmanr(draws[:, 0], draws[:, 1]).statistic)
        assert rhos[0] < rhos[1] < rhos[2]

    def test_t_copula_margins_and_limit(self):
        rng = np.random.default_rng(11)
        corr = build_correlation(pair_design(0.5), 1.0)
        marg = LatentMarginal(alpha_site=np.array([1.0, 1.3]), beta2=2.0)
        t_draws = copula_sample_rows_t(marg, corr, 0.5, 50_000, rng)
        for j, a in enumerate(marg.alpha_site):
            ks = stats.kstest(t_draws[:, j], lambda x: stats.gamma.cdf(x, a=2.0, scale=1.0 / a)).statistic
            assert ks < 0.015
        big_nu = copula_sample_rows_t(marg, corr, 1e6, 50_000, rng)
        gauss = copula_sample_rows(marg, corr, 50_000, rng)
        ks = stats.ks_2samp(big_nu[:, 0], gauss[:, 0]).statistic
        assert ks < 0.012

    def test_t_copula_tail_heavier(self):
        rng = np.random.default_rng(13)
        corr = build_correlation(pair_design(0.5), 1.0)
        marg = LatentMarginal(alpha_site=np.array([1.0, 1.0]), beta2=2.0)
        n = 200_000
        g = copula_sample_rows(marg, corr, n, rng)
        t = copula_sample_rows_t(marg, corr, 1.0, n, rng)
        q = 0.99
        joint_g = np.mean((g[:, 0] > np.quantile(g[:, 0], q)) & (g[:, 1] > np.quantile(g[:, 1], q)))
        joint_t = np.mean((t[:, 0] > np.quantile(t[:, 0], q)) & (t[:, 1] > np.quantile(t[:, 1], q)))
        assert joint_t > joint_g

    def test_t_copula_nu_domain(self):
        rng = np.random.default_rng(15)
        corr = build_correlation(pair_design(0.5), 1.0)
        marg = LatentMarginal(alpha_site=np.array([1.0, 1.0]), beta2=2.0)
        with pytest.raises(DomainError):
            copula_sample_rows_t(marg, corr, 0.0, 10, rng)

    def test_single_row_shape(self):
        rng = np.random.default_rng(17)
        corr = build_correlation(pair_design(0.5), 1.0)
        marg = LatentMarginal(alpha_site=np.array([1.0, 1.0]), beta2=2.0)
        row = copula_sample_rows(marg, corr, 1, rng)[0]
        assert row.shape == (2,)
        assert np.all(row > 0.0)


def alpha_at_sites(log_coefs, covariates, **hyper):
    h = HyperParams(alpha_coefs=log_coefs, beta1=1.0, beta2=2.0, rho=1.0, **hyper)
    return site_marginal(h, covariates).alpha_site


class TestSiteAlpha:
    def test_constant_intercept(self):
        cov = np.zeros((4, 3))
        assert_allclose(alpha_at_sites(np.array([0.0, 0.3, -0.2, 0.9]), cov), np.ones(4), rtol=1e-15)

    def test_log_linear_form(self):
        cov = np.array([[0.2, -0.4, 1.0], [0.0, 0.0, 0.0]])
        coefs = np.array([math.log(2.0), 1.0, 1.0, 1.0])
        want = 2.0 * np.exp(cov.sum(axis=1))
        assert_allclose(alpha_at_sites(coefs, cov), want, rtol=1e-12)

    def test_doubling_covariate(self):
        cov = np.array([[1.0], [2.0]])
        coefs = np.array([math.log(1.5), 0.7])
        vals = alpha_at_sites(coefs, cov)
        assert_allclose(vals[1] / vals[0], math.exp(0.7), rtol=1e-12)

    def test_overflow_guard(self):
        with pytest.raises(DomainError):
            alpha_at_sites(np.array([800.0, 0.0]), np.zeros((2, 1)))
        with pytest.raises(DomainError):
            alpha_at_sites(np.array([0.0, 500.0]), np.full((3, 1), 2.0))

    def test_underflow_guard(self):
        # exp(-800) is 0: a zero scale is as unusable as an infinite one
        with pytest.raises(DomainError):
            alpha_at_sites(np.array([-800.0, 0.0]), np.zeros((2, 1)))
        h = HyperParams(alpha_coefs=np.array([-800.0]), beta1=1.0, beta2=3.0, rho=1.0)
        with pytest.raises(DomainError):
            chi_u_curve(ScenarioSpec(d=2, n=1, hyper=h), 0.5, [0.9], 2000)

    @pytest.mark.parametrize("slope", [1e6, -1e6])
    def test_beta2_guard_both_sides(self, slope):
        with pytest.raises(DomainError):
            alpha_at_sites(np.array([0.0, 0.0]), np.full((3, 1), 2.0), beta2_slopes=[slope])
        h = HyperParams(
            alpha_coefs=np.zeros(4), beta1=1.0, beta2=3.0, rho=1.0, beta2_slopes=[slope]
        )
        with pytest.raises(DomainError):
            simulate_dataset(ScenarioSpec(d=4, n=3, hyper=h, seed=1))

    def test_beta2_slopes_scale_the_shape(self):
        cov = np.array([[1.0], [-0.5]])
        h = HyperParams(
            alpha_coefs=np.zeros(2), beta1=1.0, beta2=2.0, rho=1.0, beta2_slopes=[0.3]
        )
        assert_allclose(site_marginal(h, cov).beta2, 2.0 * np.exp([0.3, -0.15]), rtol=1e-12)


class TestSpatialModel:
    def test_correlation_memo(self):
        design = make_design(np.array([[0.0, 0.0], [1.0, 0.0]]))
        model = SpatialModel(
            design=design,
            covariates=np.zeros((2, 1)),
            covariate_names=("x",),
            cov_mean=np.zeros(1),
            cov_sd=np.ones(1),
        )
        first = model.correlation(1.0)
        assert model.correlation(1.0) is first
        other = model.correlation(2.0)
        assert other is not first
        assert model.correlation(2.0) is other
