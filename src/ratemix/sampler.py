"""Adaptive MCMC for the augmented posterior: random-walk updates on the
transformed hyperparameters and a MALA update on the whole log-rate matrix.

Step variances adapt on tumbling windows: every `adapt_interval` iterations
tau <- tau * exp((p_acc - p_target)/omega) during the first burn-in phase,
only when the window rate leaves the tolerance band during the second phase,
and never afterwards.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass, field

import numpy as np

from ._blas import single_blas_thread
from .latent_field import copula_sample_rows
from .likelihood import (
    ParamStructure,
    PosteriorEvaluator,
    augmented_logpost,
    inverse_transform,
    natural_vector,
    pack,
    transform,
    unpack,
)


class InitializationError(RuntimeError):
    """Starting state has a non-finite log posterior."""


class ChainDivergedError(RuntimeError):
    """Cached log posterior drifted from a fresh recomputation."""


@dataclass
class SamplerConfig:
    """Chain length, phase split, adaptation constants, output thinning.

    burnin1 is the freely adapting phase, burnin2 the band-guarded phase;
    both are discarded as warm-up. Iteration counts should be multiples of
    adapt_interval for clean window bookkeeping. This is not validated: a
    window that straddles a phase boundary adapts under the phase of its
    last iteration, and a trailing partial window is never closed.
    """

    n_iter: int
    burnin1: int
    burnin2: int
    adapt_interval: int = 500
    omega: float = 0.4
    p_target_mala: float = 0.57
    p_target_rw: float = 0.23
    mala_band: tuple = (0.50, 0.65)
    rw_band: tuple = (0.15, 0.30)
    thin: int = 50
    tau_theta0: float = 0.01
    tau_lambda0: float = 0.001
    seed: int = 0
    audit_interval: int = 10000
    checkpoint_interval: int = 0
    sample_hyper: bool = True

    def __post_init__(self):
        if self.burnin1 + self.burnin2 >= self.n_iter:
            raise ValueError("burn-in phases must leave sampling iterations")
        if min(self.n_iter, self.adapt_interval, self.thin) <= 0:
            raise ValueError("n_iter, adapt_interval, thin must be positive")
        if not (self.omega > 0 and self.tau_theta0 > 0 and self.tau_lambda0 > 0):
            raise ValueError("omega and initial step variances must be positive")
        for target, band in (
            (self.p_target_mala, self.mala_band),
            (self.p_target_rw, self.rw_band),
        ):
            if not band[0] <= target <= band[1]:
                raise ValueError("acceptance band must contain its target")


# ---------------------------------------------------------------------------
# proposal/accept primitives
# ---------------------------------------------------------------------------

def rw_propose(theta, tau, rng):
    """Symmetric Gaussian step with variance tau per coordinate."""
    return theta + math.sqrt(tau) * rng.standard_normal(theta.shape)


def mala_mean(log_lam, grad, tau):
    return log_lam + tau * grad


def mala_logq(x, mean, tau):
    """Log density of N(mean, 2*tau*I) at x."""
    diff = x - mean
    return float(
        -0.25 / tau * np.sum(diff * diff) - 0.5 * x.size * math.log(4.0 * math.pi * tau)
    )


def mala_propose(log_lam, grad, tau, rng):
    """Gradient-shifted Gaussian proposal; returns it with its forward log q."""
    mean = mala_mean(log_lam, grad, tau)
    prop = mean + math.sqrt(2.0 * tau) * rng.standard_normal(log_lam.shape)
    return prop, mala_logq(prop, mean, tau)


def mh_accept(lp_current, lp_proposed, logq_fwd, logq_rev, rng):
    """Metropolis-Hastings coin flip; -inf proposals never accept."""
    delta = lp_proposed - lp_current + logq_rev - logq_fwd
    if delta >= 0.0:
        rng.random()
        return True
    u = rng.random()
    return math.log(u) < delta if u > 0.0 else False


def adapt_step(tau, p_acc, p_target, omega):
    """Multiplicative step-variance update toward the target rate."""
    return tau * math.exp((p_acc - p_target) / omega)


def init_latents(hyper, data, model, rng):
    """Log rates drawn from the copula prior under the given hyperparameters."""
    ev = PosteriorEvaluator(data, model, priors=None)
    ctx = ev.prepare(hyper)
    if ctx is None:
        raise InitializationError("initial hyperparameters are unsupported")
    lam = copula_sample_rows(ctx.marg, ctx.corr, data.n, rng)
    return np.log(lam)


# ---------------------------------------------------------------------------
# chain state and output
# ---------------------------------------------------------------------------

@dataclass
class TuningState:
    tau_theta: float
    tau_lambda: float
    acc_rw: int = 0
    acc_mala: int = 0
    prop_rw: int = 0
    prop_mala: int = 0

    def reset_window(self):
        self.acc_rw = self.acc_mala = self.prop_rw = self.prop_mala = 0


@dataclass
class ChainState:
    """Everything needed to continue a chain deterministically."""

    iteration: int
    t_vec: np.ndarray
    log_lam: np.ndarray
    lp: float
    grad: np.ndarray
    tuning: TuningState
    rng_state: dict


@dataclass
class ChainOutput:
    names: tuple
    hyper_trace: np.ndarray
    latent_cells: np.ndarray
    latent_trace: np.ndarray
    latent_iters: np.ndarray
    accept_history: np.ndarray
    step_history: np.ndarray
    config: SamplerConfig
    structure: ParamStructure
    final_tau_theta: float
    final_tau_lambda: float
    seed: int
    covariate_names: tuple = ()

    def retained_hyper(self, extra_discard=0):
        """Post-burn-in rows of the natural-scale trace."""
        start = self.config.burnin1 + self.config.burnin2 + 1 + extra_discard
        return self.hyper_trace[start:]

    def retained_latent(self):
        """Thinned latent rows after burn-in, with their matching hyper rows."""
        cut = self.config.burnin1 + self.config.burnin2
        keep = self.latent_iters > cut
        return self.latent_trace[keep], self.hyper_trace[self.latent_iters[keep]]

    def sampling_acceptance(self):
        """Mean window acceptance rates over the frozen sampling phase."""
        cut = self.config.burnin1 + self.config.burnin2
        rows = self.accept_history[self.accept_history[:, 0] > cut]
        return float(np.mean(rows[:, 1])), float(np.mean(rows[:, 2]))


def _phase(iteration, config):
    if iteration <= config.burnin1:
        return 1
    if iteration <= config.burnin1 + config.burnin2:
        return 2
    return 3


def _default_cells(data):
    pred = data.prediction_sites()
    if pred.size:
        cells = [(i, j) for j in pred for i in range(data.n)]
    else:
        cells = [(0, 0)]
    return np.asarray(cells, dtype=int)


def save_checkpoint(path, state, fingerprint, traces):
    payload = {
        "fingerprint": fingerprint,
        "state": {
            "iteration": state.iteration,
            "t_vec": state.t_vec,
            "log_lam": state.log_lam,
            "lp": state.lp,
            "grad": state.grad,
            "tau_theta": state.tuning.tau_theta,
            "tau_lambda": state.tuning.tau_lambda,
            "window": (
                state.tuning.acc_rw,
                state.tuning.acc_mala,
                state.tuning.prop_rw,
                state.tuning.prop_mala,
            ),
            "rng_state": state.rng_state,
        },
        "traces": traces,
    }
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)


def load_checkpoint(path):
    with open(path, "rb") as fh:
        return pickle.load(fh)


def run_chain(
    config,
    data,
    model,
    priors,
    init_hyper,
    init_log_lam=None,
    latent_cells=None,
    progress=None,
    checkpoint_path=None,
    resume_payload=None,
    fingerprint="",
):
    """Run one adaptive chain and collect traces.

    The hyperparameter block is a symmetric random walk on the transformed
    scale; the latent block is a joint MALA move on all log rates. Setting
    config.sample_hyper False freezes the hyperparameters (used for
    single-cell validation runs). The natural-scale hyperparameter trace is
    kept for every iteration; latent cells listed in `latent_cells` (default:
    every cell of fully censored sites) are recorded every `thin` iterations.
    """
    structure = ParamStructure.from_hyper(init_hyper)
    ev = PosteriorEvaluator(data, model, priors)
    rng = np.random.default_rng(config.seed)

    if latent_cells is None:
        latent_cells = _default_cells(data)
    else:
        latent_cells = np.asarray(latent_cells, dtype=int)
    cell_rows = latent_cells[:, 0]
    cell_cols = latent_cells[:, 1]

    n_lat_rows = config.n_iter // config.thin + 1
    latent_iters = np.arange(n_lat_rows) * config.thin
    hyper_trace = np.empty((config.n_iter + 1, structure.size))
    latent_trace = np.empty((n_lat_rows, len(latent_cells)))

    with single_blas_thread():
        if resume_payload is None:
            t_vec = pack(transform(init_hyper))
            if init_log_lam is None:
                log_lam = init_latents(init_hyper, data, model, rng)
            else:
                log_lam = np.array(init_log_lam, dtype=float)
            ctx = ev.prepare(init_hyper)
            if ctx is None:
                raise InitializationError("initial hyperparameters are unsupported")
            lp, grad = ev.logpost_and_grad(ctx, log_lam)
            if not math.isfinite(lp):
                raise InitializationError("initial state has non-finite log posterior")
            tuning = TuningState(config.tau_theta0, config.tau_lambda0)
            start_iter = 0
            hyper_trace[0] = natural_vector(init_hyper)
            latent_trace[0] = log_lam[cell_rows, cell_cols]
            accept_history = []
            step_history = []
        else:
            if resume_payload["fingerprint"] != fingerprint:
                raise ValueError("checkpoint fingerprint does not match this run")
            saved = resume_payload["state"]
            # unpickled arrays carry their own dtype instance, which numpy
            # passes on to arrays computed from them; rebind to the
            # process-wide one so later checkpoints pickle byte-identically
            t_vec = saved["t_vec"].view(np.float64)
            log_lam = saved["log_lam"].view(np.float64)
            lp = saved["lp"]
            grad = saved["grad"].view(np.float64)
            tuning = TuningState(saved["tau_theta"], saved["tau_lambda"])
            (tuning.acc_rw, tuning.acc_mala, tuning.prop_rw, tuning.prop_mala) = saved[
                "window"
            ]
            rng.bit_generator.state = saved["rng_state"]
            start_iter = saved["iteration"]
            traces = resume_payload["traces"]
            n_hyper_rows = start_iter + 1
            n_latent_rows = start_iter // config.thin + 1
            hyper_trace[:n_hyper_rows] = traces["hyper_trace"][:n_hyper_rows]
            latent_trace[:n_latent_rows] = traces["latent_trace"][:n_latent_rows]
            accept_history = list(traces["accept_history"])
            step_history = list(traces["step_history"])
            ctx = ev.prepare(inverse_transform(unpack(t_vec, structure)))
            if ctx is None:
                raise InitializationError("resumed hyperparameters are unsupported")
        # natural-scale trace row of the current state; only an accepted RW step
        # changes it
        hyper_row = natural_vector(inverse_transform(unpack(t_vec, structure)))

        for it in range(start_iter + 1, config.n_iter + 1):
            # hyperparameter block first, then the latent block
            if config.sample_hyper:
                tuning.prop_rw += 1
                prop_vec = rw_propose(t_vec, tuning.tau_theta, rng)
                prop_hyper = inverse_transform(unpack(prop_vec, structure))
                ctx_prop = ev.prepare(prop_hyper)
                lp_prop = -math.inf if ctx_prop is None else ev.logpost(ctx_prop, log_lam)
                if mh_accept(lp, lp_prop, 0.0, 0.0, rng):
                    t_vec, ctx = prop_vec, ctx_prop
                    lp, grad = ev.logpost_and_grad(ctx, log_lam)
                    hyper_row = natural_vector(prop_hyper)
                    tuning.acc_rw += 1

            tuning.prop_mala += 1
            prop_lam, logq_fwd = mala_propose(log_lam, grad, tuning.tau_lambda, rng)
            lp_prop, grad_prop = ev.logpost_and_grad(ctx, prop_lam)
            if grad_prop is None:
                logq_rev = 0.0
            else:
                rev_mean = mala_mean(prop_lam, grad_prop, tuning.tau_lambda)
                logq_rev = mala_logq(log_lam, rev_mean, tuning.tau_lambda)
            if mh_accept(lp, lp_prop, logq_fwd, logq_rev, rng):
                log_lam, lp, grad = prop_lam, lp_prop, grad_prop
                tuning.acc_mala += 1

            hyper_trace[it] = hyper_row
            if it % config.thin == 0:
                latent_trace[it // config.thin] = log_lam[cell_rows, cell_cols]

            if it % config.adapt_interval == 0:
                p_rw = tuning.acc_rw / tuning.prop_rw if tuning.prop_rw else 0.0
                p_mala = tuning.acc_mala / tuning.prop_mala
                phase = _phase(it, config)
                if phase == 1:
                    if config.sample_hyper:
                        tuning.tau_theta = adapt_step(
                            tuning.tau_theta, p_rw, config.p_target_rw, config.omega
                        )
                    tuning.tau_lambda = adapt_step(
                        tuning.tau_lambda, p_mala, config.p_target_mala, config.omega
                    )
                elif phase == 2:
                    if config.sample_hyper and not (
                        config.rw_band[0] <= p_rw <= config.rw_band[1]
                    ):
                        tuning.tau_theta = adapt_step(
                            tuning.tau_theta, p_rw, config.p_target_rw, config.omega
                        )
                    if not (config.mala_band[0] <= p_mala <= config.mala_band[1]):
                        tuning.tau_lambda = adapt_step(
                            tuning.tau_lambda, p_mala, config.p_target_mala, config.omega
                        )
                accept_history.append((it, p_rw, p_mala))
                step_history.append((it, tuning.tau_theta, tuning.tau_lambda))
                tuning.reset_window()
                if progress is not None:
                    progress(it, p_rw, p_mala, tuning.tau_theta, tuning.tau_lambda)

            if config.audit_interval and it % config.audit_interval == 0:
                hyper_now = inverse_transform(unpack(t_vec, structure))
                lp_ref = augmented_logpost(hyper_now, log_lam, data, model, priors)
                if not abs(lp_ref - lp) <= 1e-8:
                    raise ChainDivergedError(
                        f"cached lp {lp} vs recomputed {lp_ref} at iteration {it}"
                    )

            if (
                checkpoint_path is not None
                and config.checkpoint_interval
                and it % config.checkpoint_interval == 0
            ):
                state = ChainState(
                    iteration=it,
                    t_vec=t_vec,
                    log_lam=log_lam,
                    lp=lp,
                    grad=grad,
                    tuning=tuning,
                    rng_state=rng.bit_generator.state,
                )
                traces = {
                    "hyper_trace": hyper_trace[: it + 1],
                    "latent_trace": latent_trace[: it // config.thin + 1],
                    "accept_history": accept_history,
                    "step_history": step_history,
                }
                save_checkpoint(checkpoint_path, state, fingerprint, traces)

    return ChainOutput(
        names=structure.names(
            model.covariate_names[: structure.n_alpha_slopes]
        ),
        hyper_trace=hyper_trace,
        latent_cells=latent_cells,
        latent_trace=latent_trace,
        latent_iters=latent_iters,
        accept_history=np.asarray(accept_history, dtype=float),
        step_history=np.asarray(step_history, dtype=float),
        config=config,
        structure=structure,
        final_tau_theta=tuning.tau_theta,
        final_tau_lambda=tuning.tau_lambda,
        seed=config.seed,
        covariate_names=tuple(model.covariate_names),
    )
