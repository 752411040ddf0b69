"""In-memory span tracer that wraps the public functions of each ratemix layer.

A wrapped name is rebound where the calling code looks it up: `likelihood`
binds `z_scores` by `from ... import`, `io_cli` binds `fit`, `compare`,
`predictive_cell_draws` and `chi_u_curve` the same way, so patching only the
defining module would miss those calls. `Tracer.installed()` rebinds every
site and restores the original objects on exit.

Each span records (name, operation id, start, end, parent index). Spans stay
in memory and are written out once, by `write_spans`, after the run. A
layer's self time is its span durations minus the durations of its direct
child spans; calls run on one thread, so spans nest strictly.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import os
import time
from collections import Counter

from ratemix import diagnostics, io_cli, latent_field, likelihood, model, sampler, simulate
from ratemix.diagnostics import ess

# (owner, attribute, layer name, span?) — span=False wraps with a call
# counter only, so the callee's time stays in its caller's self time
# (build_correlation inside SpatialModel.correlation; crps_sample, whose calls
# are the count that matters and whose span would cost more than its body).
PATCH_SITES = (
    (latent_field.SpatialModel, "correlation", "latent_field.correlation", True),
    (latent_field, "build_correlation", "latent_field.build_correlation", False),
    (latent_field, "z_scores", "latent_field.z_scores", True),
    (likelihood, "z_scores", "latent_field.z_scores", True),
    (latent_field, "copula_sample_rows", "latent_field.copula_sample_rows", True),
    (sampler, "copula_sample_rows", "latent_field.copula_sample_rows", True),
    (simulate, "copula_sample_rows", "latent_field.copula_sample_rows", True),
    (likelihood.PosteriorEvaluator, "prepare", "likelihood.prepare", True),
    (likelihood.PosteriorEvaluator, "logpost", "likelihood.logpost", True),
    (likelihood.PosteriorEvaluator, "logpost_and_grad", "likelihood.logpost_and_grad", True),
    (model, "run_chain", "sampler.run_chain", True),
    (sampler, "augmented_logpost", "sampler.audit", True),
    (sampler, "save_checkpoint", "sampler.save_checkpoint", True),
    (io_cli, "fit", "model.fit", True),
    (io_cli, "compare", "model.compare", True),
    (io_cli, "posterior_summaries", "diagnostics.posterior_summaries", True),
    (io_cli, "predictive_cell_draws", "diagnostics.predictive_cell_draws", True),
    (diagnostics, "predictive_cell_draws", "diagnostics.predictive_cell_draws", True),
    (model, "holdout_scores", "diagnostics.holdout_scores", True),
    (diagnostics, "crps_sample", "diagnostics.crps_sample", False),
    (io_cli, "simulate_dataset", "simulate.simulate_dataset", True),
    (io_cli, "chi_u_curve", "simulate.chi_u_curve", True),
    (io_cli, "read_dataset", "io_cli.read_dataset", True),
    (io_cli, "write_manifest", "io_cli.write_manifest", True),
    (io_cli, "cmd_fit", "io_cli.cmd_fit", True),
    (io_cli, "cmd_predict", "io_cli.cmd_predict", True),
)

# layers reported by call count and by self time
CALLS = (
    "latent_field.correlation",
    "latent_field.z_scores",
    "likelihood.prepare",
    "likelihood.logpost",
    "likelihood.logpost_and_grad",
    "sampler.audit",
    "sampler.save_checkpoint",
    "diagnostics.predictive_cell_draws",
    "diagnostics.crps_sample",
    "io_cli.read_dataset",
)
SELF_TIMES = (
    "latent_field.correlation",
    "latent_field.z_scores",
    "latent_field.copula_sample_rows",
    "likelihood.prepare",
    "likelihood.logpost",
    "likelihood.logpost_and_grad",
    "sampler.run_chain",
    "sampler.audit",
    "sampler.save_checkpoint",
    "model.fit",
    "model.compare",
    "diagnostics.posterior_summaries",
    "diagnostics.predictive_cell_draws",
    "diagnostics.holdout_scores",
    "simulate.chi_u_curve",
    "io_cli.read_dataset",
    "io_cli.write_manifest",
    "io_cli.cmd_fit",
    "io_cli.cmd_predict",
)


class Tracer:
    """Collects spans, call counts and sampler outcomes while installed."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.prepare_rejects = 0
        self.iterations = 0
        self.checkpoint_bytes = 0
        self.chain_outputs = []
        self.op = 0
        self._stack = []

    # -- wrapping -----------------------------------------------------------

    def _after(self, name, args, kwargs, result):
        if name == "likelihood.prepare" and result is None:
            self.prepare_rejects += 1
        elif name == "sampler.run_chain":
            config = args[0]
            resume = kwargs.get("resume_payload")
            start = resume["state"]["iteration"] if resume else 0
            self.iterations += config.n_iter - start
            self.chain_outputs.append(result)
        elif name == "sampler.save_checkpoint":
            self.checkpoint_bytes += os.stat(args[0]).st_size

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, self.op, t0, t1, parent)
            self.calls[name] += 1
            self._after(name, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every patch site to a wrapper; restore the originals on exit."""
        saved = []
        wrappers = {}
        try:
            for owner, attr, name, span in PATCH_SITES:
                original = vars(owner)[attr]
                key = (name, id(original))
                if key not in wrappers:
                    make = self._span_wrapper if span else self._count_wrapper
                    wrappers[key] = make(name, original)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[key])
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, _op, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = Counter()
        for k, (name, _op, t0, t1, _parent) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[k]
        return out

    def sampler_quality(self):
        """(mean RW acceptance, mean MALA acceptance, min ESS per 1000 draws)
        over the recorded chains, from their frozen sampling phase."""
        if not self.chain_outputs:
            return 0.0, 0.0, 0.0
        acc = [o.sampling_acceptance() for o in self.chain_outputs]
        ess_rates = []
        for o in self.chain_outputs:
            kept = o.retained_hyper()
            for k in range(kept.shape[1]):
                try:
                    ess_rates.append(1000.0 * ess(kept[:, k]) / kept.shape[0])
                except ValueError:
                    continue  # constant or too short: ESS undefined
        return (
            sum(a[0] for a in acc) / len(acc),
            sum(a[1] for a in acc) / len(acc),
            min(ess_rates) if ess_rates else 0.0,
        )

    def layer_metrics(self, cycles):
        """Per-layer metrics, with counts and times per workload cycle."""
        self_s = self.self_times()
        per = 1.0 / cycles
        out = {}
        for name in CALLS:
            out[f"{name}.calls"] = (self.calls[name] * per, "count")
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = (self_s[name] * per, "s")
        corr_calls = self.calls["latent_field.correlation"]
        out["latent_field.corr_rebuild_ratio"] = (
            _ratio(self.calls["latent_field.build_correlation"], corr_calls),
            "ratio",
        )
        prep = self.calls["likelihood.prepare"]
        out["likelihood.prepare_reject_ratio"] = (_ratio(self.prepare_rejects, prep), "ratio")
        evals = self.calls["likelihood.logpost"] + self.calls["likelihood.logpost_and_grad"]
        out["likelihood.evals_per_iter"] = (_ratio(evals, self.iterations), "count")
        acc_rw, acc_mala, min_ess = self.sampler_quality()
        out["sampler.iterations"] = (self.iterations * per, "count")
        out["sampler.acc_rw"] = (acc_rw, "ratio")
        out["sampler.acc_mala"] = (acc_mala, "ratio")
        out["sampler.min_ess_per_kiter"] = (min_ess, "ess/kiter")
        out["sampler.checkpoint_bytes"] = (self.checkpoint_bytes * per, "bytes")
        return out

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "op", "start_s", "end_s", "parent"])
            for k, (name, op, t0, t1, parent) in enumerate(self.spans):
                w.writerow([k, name, op, repr(t0), repr(t1), parent])


def _ratio(num, den):
    return num / den if den else 0.0
