"""Tests for the adaptive random-walk + MALA sampler."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from ratemix.latent_field import make_design
from ratemix.likelihood import ExceedanceData, HyperParams
from ratemix.model import build_model
from ratemix.priors import PriorSet
from ratemix.sampler import (
    ChainOutput,
    InitializationError,
    SamplerConfig,
    adapt_step,
    init_latents,
    load_checkpoint,
    mala_logq,
    mala_mean,
    mala_propose,
    mh_accept,
    run_chain,
    rw_propose,
)

from _oracles import onecell_quad_cdf


def toy_model(coords, covariates, names=None):
    covariates = np.asarray(covariates, dtype=float)
    if names is None:
        names = tuple(f"c{k}" for k in range(covariates.shape[1]))
    return build_model(make_design(np.asarray(coords, dtype=float)), covariates, names,
                       standardize=False)


def chain_scene(seed=0):
    """Three sites (one fully censored) with both censoring kinds present."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 1.0, size=(3, 2))
    covariates = rng.normal(size=(3, 1))
    model = toy_model(coords, covariates)
    y = np.array([[2.0, 0.5, np.nan], [1.4, 0.9, np.nan], [0.6, 2.2, np.nan]])
    u = np.array([[1.0, 1.2, np.inf], [1.0, 1.2, np.inf], [1.0, 1.2, np.inf]])
    e = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    data = ExceedanceData(y, u, e)
    hyper = HyperParams(alpha_coefs=np.array([0.1, 0.2]), beta1=1.5, beta2=2.2, rho=0.8)
    return data, model, hyper


class TestSamplerConfig:
    def test_burnin_must_leave_sampling(self):
        with pytest.raises(ValueError):
            SamplerConfig(n_iter=1000, burnin1=600, burnin2=400)

    def test_band_must_contain_target(self):
        with pytest.raises(ValueError):
            SamplerConfig(n_iter=1000, burnin1=100, burnin2=100, p_target_rw=0.4)

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            SamplerConfig(n_iter=1000, burnin1=100, burnin2=100, thin=0)


class TestProposals:
    def test_rw_zero_variance_is_identity(self):
        theta = np.array([0.3, -1.2])
        out = rw_propose(theta, 0.0, np.random.default_rng(0))
        assert_allclose(out, theta, rtol=0, atol=0)

    def test_rw_empirical_variance(self):
        rng = np.random.default_rng(1)
        theta = np.zeros(4)
        tau = 0.37
        draws = np.array([rw_propose(theta, tau, rng) for _ in range(25000)])
        assert_allclose(draws.var(axis=0), tau, rtol=0.05)
        assert_allclose(draws.mean(axis=0), 0.0, atol=3.0 * math.sqrt(tau / 25000))

    def test_mala_zero_gradient_is_centered_walk(self):
        rng = np.random.default_rng(2)
        cur = np.zeros((2, 3))
        tau = 0.21
        draws = np.array([mala_propose(cur, np.zeros_like(cur), tau, rng)[0]
                          for _ in range(20000)])
        assert_allclose(draws.mean(axis=0), 0.0, atol=4.0 * math.sqrt(2 * tau / 20000))
        assert_allclose(draws.var(axis=0), 2.0 * tau, rtol=0.08)

    def test_mala_mean_shift(self):
        cur = np.array([[0.5, -0.5]])
        grad = np.array([[2.0, -4.0]])
        assert_allclose(mala_mean(cur, grad, 0.1), [[0.7, -0.9]], rtol=1e-15)

    def test_mala_logq_matches_gaussian_density(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2))
        mean = rng.normal(size=(2, 2))
        tau = 0.6
        want = stats.multivariate_normal(mean.ravel(), 2.0 * tau * np.eye(4)).logpdf(x.ravel())
        assert_allclose(mala_logq(x, mean, tau), want, rtol=1e-12)

    def test_mala_propose_reports_its_own_density(self):
        rng = np.random.default_rng(4)
        cur = np.array([[0.2]])
        grad = np.array([[1.5]])
        prop, logq = mala_propose(cur, grad, 0.3, rng)
        assert_allclose(logq, mala_logq(prop, mala_mean(cur, grad, 0.3), 0.3), rtol=1e-12)


class TestMhAccept:
    def test_equal_posterior_always_accepts(self):
        rng = np.random.default_rng(5)
        assert all(mh_accept(-10.0, -10.0, 0.0, 0.0, rng) for _ in range(50))

    def test_log_zero_never_accepts(self):
        rng = np.random.default_rng(6)
        assert not any(mh_accept(-10.0, -math.inf, 0.0, 0.0, rng) for _ in range(50))

    def test_unit_gap_rate(self):
        rng = np.random.default_rng(7)
        n = 100000
        hits = sum(mh_accept(0.0, -1.0, 0.0, 0.0, rng) for _ in range(n))
        p = math.exp(-1.0)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3.0 * se

    def test_asymmetric_correction_enters_rate(self):
        rng = np.random.default_rng(8)
        n = 50000
        # lp gap -2 offset by +1 of reverse-minus-forward proposal density
        hits = sum(mh_accept(0.0, -2.0, -1.5, -0.5, rng) for _ in range(n))
        p = math.exp(-1.0)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3.0 * se


class TestAdaptStep:
    def test_on_target_unchanged(self):
        assert adapt_step(0.2, 0.57, 0.57, 0.4) == 0.2

    def test_stated_multiplier(self):
        assert_allclose(adapt_step(1.0, 0.97, 0.57, 0.4), math.e, rtol=1e-12)

    def test_zero_acceptance_shrinks(self):
        assert_allclose(adapt_step(1.0, 0.0, 0.23, 0.4), math.exp(-0.23 / 0.4), rtol=1e-12)

    def test_multiplier_bounds(self):
        omega = 0.4
        lo = adapt_step(1.0, 0.0, 1.0, omega)
        hi = adapt_step(1.0, 1.0, 0.0, omega)
        assert math.exp(-1.0 / omega) <= lo < 1.0 < hi <= math.exp(1.0 / omega)
        assert lo > 0.0


class TestInitLatents:
    def test_draws_are_finite_and_seed_dependent(self):
        data, model, hyper = chain_scene()
        a = init_latents(hyper, data, model, np.random.default_rng(0))
        b = init_latents(hyper, data, model, np.random.default_rng(1))
        assert a.shape == data.shape
        assert np.all(np.isfinite(a))
        assert not np.allclose(a, b)

    def test_unsupported_hyper_raises(self):
        data, model, _ = chain_scene()
        bad = HyperParams(alpha_coefs=np.array([0.0, 1e4]), beta1=1.5, beta2=2.2, rho=0.8)
        with pytest.raises(InitializationError):
            init_latents(bad, data, model, np.random.default_rng(0))


def expected_tau_path(output, config):
    """Replay the adaptation rules from the recorded window acceptances."""
    tau_t, tau_l = config.tau_theta0, config.tau_lambda0
    rows = []
    for it, p_rw, p_mala in output.accept_history:
        if it <= config.burnin1:
            phase = 1
        elif it <= config.burnin1 + config.burnin2:
            phase = 2
        else:
            phase = 3
        if phase == 1:
            tau_t = adapt_step(tau_t, p_rw, config.p_target_rw, config.omega)
            tau_l = adapt_step(tau_l, p_mala, config.p_target_mala, config.omega)
        elif phase == 2:
            if not config.rw_band[0] <= p_rw <= config.rw_band[1]:
                tau_t = adapt_step(tau_t, p_rw, config.p_target_rw, config.omega)
            if not config.mala_band[0] <= p_mala <= config.mala_band[1]:
                tau_l = adapt_step(tau_l, p_mala, config.p_target_mala, config.omega)
        rows.append((tau_t, tau_l))
    return np.asarray(rows)


class TestRunChain:
    def run_small(self, seed=11, **kw):
        data, model, hyper = chain_scene()
        config = SamplerConfig(n_iter=1500, burnin1=500, burnin2=500, thin=50,
                               audit_interval=500, seed=seed, **kw)
        out = run_chain(config, data, model, PriorSet(), hyper)
        return out, config, data

    def test_deterministic_given_seed(self):
        a, _, _ = self.run_small()
        b, _, _ = self.run_small()
        assert np.array_equal(a.hyper_trace, b.hyper_trace)
        assert np.array_equal(a.latent_trace, b.latent_trace)
        assert np.array_equal(a.accept_history, b.accept_history)
        assert np.array_equal(a.step_history, b.step_history)
        assert a.final_tau_theta == b.final_tau_theta
        c, _, _ = self.run_small(seed=12)
        assert not np.array_equal(a.hyper_trace, c.hyper_trace)

    def test_output_shapes_and_retention(self):
        out, config, data = self.run_small()
        assert out.hyper_trace.shape == (1501, 5)
        assert out.names == ("alpha0", "alpha_c0", "beta1", "beta2", "rho")
        # default latent cells are every replicate of the fully censored site
        assert sorted(map(tuple, out.latent_cells)) == [(0, 2), (1, 2), (2, 2)]
        assert out.latent_trace.shape == (31, 3)
        assert out.retained_hyper().shape == (500, 5)
        lat, hyp = out.retained_latent()
        assert lat.shape == (10, 3)
        assert hyp.shape == (10, 5)
        rw_rate, mala_rate = out.sampling_acceptance()
        assert 0.0 <= rw_rate <= 1.0 and 0.0 <= mala_rate <= 1.0

    def test_adaptation_follows_recorded_windows(self):
        out, config, _ = self.run_small()
        want = expected_tau_path(out, config)
        assert_allclose(out.step_history[:, 1:3], want, rtol=1e-14)
        assert np.all(out.step_history[:, 1:3] > 0.0)
        frozen = out.step_history[out.step_history[:, 0] > 1000, 1:3]
        assert np.all(frozen[:, 0] == out.final_tau_theta)
        assert np.all(frozen[:, 1] == out.final_tau_lambda)

    def test_adaptation_multiplier_bounded_per_window(self):
        out, config, _ = self.run_small()
        taus = np.vstack([[config.tau_theta0, config.tau_lambda0], out.step_history[:, 1:3]])
        ratios = taus[1:] / taus[:-1]
        bound = math.exp(1.0 / config.omega)
        assert np.all(ratios <= bound * (1 + 1e-12))
        assert np.all(ratios >= 1.0 / bound * (1 - 1e-12))

    def test_unsupported_init_raises(self):
        data, model, _ = chain_scene()
        config = SamplerConfig(n_iter=1500, burnin1=500, burnin2=500, seed=0)
        outside = HyperParams(alpha_coefs=np.array([0.1, 0.2]), beta1=1.5, beta2=0.9, rho=0.8)
        with pytest.raises(InitializationError):
            run_chain(config, data, model, PriorSet(), outside)

    def test_log_zero_initial_latents_raise(self):
        data, model, hyper = chain_scene()
        config = SamplerConfig(n_iter=1500, burnin1=500, burnin2=500, seed=0)
        with pytest.raises(InitializationError):
            run_chain(config, data, model, PriorSet(), hyper,
                      init_log_lam=np.full((3, 3), -700.0))

    def test_rw_block_samples_gaussian_toy_target(self):
        # hyperparameter-style symmetric walk against a known 1-d Gaussian
        rng = np.random.default_rng(21)
        mu, sd, tau = 3.0, 2.0, 16.0

        def logp(x):
            return -0.5 * ((x - mu) / sd) ** 2

        x = np.array([0.0])
        lp = logp(x[0])
        kept = []
        for it in range(200000):
            prop = rw_propose(x, tau, rng)
            lp_prop = logp(prop[0])
            if mh_accept(lp, lp_prop, 0.0, 0.0, rng):
                x, lp = prop, lp_prop
            if it % 20 == 0:
                kept.append(x[0])
        kept = np.asarray(kept[500:])
        n = kept.size
        se_mean = sd / math.sqrt(n)
        assert abs(kept.mean() - mu) < 3.0 * se_mean
        se_var = sd**2 * math.sqrt(2.0 / n)
        assert abs(kept.var() - sd**2) < 3.0 * se_var

    def test_onecell_stationary_law_matches_quadrature(self):
        alpha0, beta1, beta2 = 0.3, 1.6, 2.4
        model = toy_model([[0.0, 0.0]], np.zeros((1, 0)))
        data = ExceedanceData(np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]]))
        hyper = HyperParams(alpha_coefs=np.array([alpha0]), beta1=beta1, beta2=beta2, rho=1.0)
        config = SamplerConfig(n_iter=50000, burnin1=4000, burnin2=4000, thin=1,
                               seed=5, sample_hyper=False, audit_interval=10000)
        out = run_chain(config, data, model, None, hyper,
                        latent_cells=np.array([[0, 0]]))
        draws, _ = out.retained_latent()
        draws = np.sort(draws[:, 0])
        grid = np.linspace(-9.0, 6.0, 4001)
        cdf = onecell_quad_cdf(2.0, 1.0, 1.0, math.exp(alpha0), beta1, beta2, grid)
        f_quad = np.interp(draws, grid, cdf)
        emp = np.arange(1, draws.size + 1) / draws.size
        ks = np.max(np.abs(f_quad - emp))
        assert ks < 0.03

    def test_checkpoint_resume_is_bit_exact(self, tmp_path):
        data, model, hyper = chain_scene()
        config = SamplerConfig(n_iter=3000, burnin1=1000, burnin2=1000, thin=50,
                               audit_interval=1000, checkpoint_interval=1000, seed=9)
        ref = run_chain(config, data, model, PriorSet(), hyper)

        path = tmp_path / "chain.ckpt"

        class Stop(Exception):
            pass

        def interrupt(it, *rest):
            if it >= 2500:
                raise Stop()

        with pytest.raises(Stop):
            run_chain(config, data, model, PriorSet(), hyper,
                      checkpoint_path=str(path), fingerprint="fp", progress=interrupt)
        payload = load_checkpoint(str(path))
        assert payload["state"]["iteration"] == 2000
        out = run_chain(config, data, model, PriorSet(), hyper,
                        resume_payload=payload, fingerprint="fp")
        assert np.array_equal(out.hyper_trace, ref.hyper_trace)
        assert np.array_equal(out.latent_trace, ref.latent_trace)
        assert np.array_equal(out.accept_history, ref.accept_history)
        assert np.array_equal(out.step_history, ref.step_history)
        assert out.final_tau_theta == ref.final_tau_theta
        assert out.final_tau_lambda == ref.final_tau_lambda

    def test_checkpoint_bytes_are_reproducible(self, tmp_path):
        # 1300 is not a multiple of 500, so the last checkpoint (iteration
        # 1000) is written while later trace rows are still unwritten
        data, model, hyper = chain_scene()
        config = SamplerConfig(n_iter=1300, burnin1=500, burnin2=500, thin=50,
                               checkpoint_interval=500, seed=9)
        paths = [tmp_path / f"run{k}.ckpt" for k in range(2)]
        for path in paths:
            run_chain(config, data, model, PriorSet(), hyper,
                      checkpoint_path=str(path), fingerprint="fp")
        assert paths[0].read_bytes() == paths[1].read_bytes()
        traces = load_checkpoint(str(paths[0]))["traces"]
        assert traces["hyper_trace"].shape == (1001, 5)
        assert traces["latent_trace"].shape == (21, 3)

    def test_resumed_checkpoint_bytes_match_uninterrupted(self, tmp_path):
        data, model, hyper = chain_scene()
        config = SamplerConfig(n_iter=1300, burnin1=500, burnin2=500, thin=50,
                               checkpoint_interval=500, seed=9)
        straight, interrupted = tmp_path / "straight.ckpt", tmp_path / "resumed.ckpt"
        run_chain(config, data, model, PriorSet(), hyper,
                  checkpoint_path=str(straight), fingerprint="fp")

        class Stop(Exception):
            pass

        def interrupt(it, *rest):
            if it >= 600:
                raise Stop()

        with pytest.raises(Stop):
            run_chain(config, data, model, PriorSet(), hyper,
                      checkpoint_path=str(interrupted), fingerprint="fp", progress=interrupt)
        payload = load_checkpoint(str(interrupted))
        assert payload["state"]["iteration"] == 500
        run_chain(config, data, model, PriorSet(), hyper, checkpoint_path=str(interrupted),
                  resume_payload=payload, fingerprint="fp")
        assert interrupted.read_bytes() == straight.read_bytes()

    def test_resume_rejects_wrong_fingerprint(self, tmp_path):
        data, model, hyper = chain_scene()
        config = SamplerConfig(n_iter=1500, burnin1=500, burnin2=500,
                               checkpoint_interval=500, seed=9)
        path = tmp_path / "chain.ckpt"
        run_chain(config, data, model, PriorSet(), hyper,
                  checkpoint_path=str(path), fingerprint="fp")
        payload = load_checkpoint(str(path))
        with pytest.raises(ValueError):
            run_chain(config, data, model, PriorSet(), hyper,
                      resume_payload=payload, fingerprint="other")
