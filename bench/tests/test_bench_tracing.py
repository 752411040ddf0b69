"""Checks of the benchmark tracer against the sampler's known structure.

    python3 -m pytest bench/tests
"""

import time

import pytest

from ratemix import io_cli
from tracing import PATCH_SITES, Tracer

N_ITER = 200
CHAINS = 2

SIM = """\
[simulate]
alpha0 = 1.0
alpha_slopes = 1.0 1.0 1.0
beta1 = 5.0
beta2 = 5.0
rho = 1.0
censor_quantile = 0.75
d = 6
n = 12
n_predict_sites = 1
seed = 5
"""

FIT = f"""\
[model]
variant = D1
covariates = x, y, z3

[sampler]
n_iter = {N_ITER}
burnin1 = 50
burnin2 = 50
adapt_interval = 25
thin = 5
seed = 3
audit_interval = 100
checkpoint_interval = 100
"""


@pytest.fixture(scope="module")
def traced_fit(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fit")
    (tmp / "sim.ini").write_text(SIM)
    (tmp / "fit.ini").write_text(FIT)
    assert io_cli.main(["simulate", "--config", str(tmp / "sim.ini"),
                        "--out", str(tmp / "data")]) == 0
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in PATCH_SITES]
    tracer = Tracer()
    argv = ["fit", "--config", str(tmp / "fit.ini"), "--data", str(tmp / "data"),
            "--out", str(tmp / "out"), "--chains", str(CHAINS)]
    with tracer.installed():
        assert io_cli.main(argv) == 0
    return tracer, originals, argv


def test_iterations_equal_n_iter_times_chains(traced_fit):
    tracer, _, _ = traced_fit
    metrics = tracer.layer_metrics(cycles=1)
    assert metrics["sampler.iterations"][0] == N_ITER * CHAINS


def test_evals_per_iteration_within_sampler_structure(traced_fit):
    # one MALA logpost_and_grad, one RW logpost when prepare succeeds, one
    # more logpost_and_grad when the RW move is accepted
    tracer, _, _ = traced_fit
    evals = tracer.layer_metrics(cycles=1)["likelihood.evals_per_iter"][0]
    assert 2.0 <= evals <= 3.0


def test_prepare_called_at_least_once_per_iteration(traced_fit):
    tracer, _, _ = traced_fit
    assert tracer.calls["likelihood.prepare"] >= N_ITER * CHAINS


def test_checkpoints_and_audits_counted(traced_fit):
    tracer, _, _ = traced_fit
    # checkpoint_interval and audit_interval are both 100
    assert tracer.calls["sampler.save_checkpoint"] == CHAINS * N_ITER // 100
    assert tracer.calls["sampler.audit"] == CHAINS * N_ITER // 100
    assert tracer.checkpoint_bytes > 0


def test_wrapped_names_restored_and_untraced_run_stays_clean(traced_fit, tmp_path):
    tracer, originals, argv = traced_fit
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
    spans, calls = len(tracer.spans), dict(tracer.calls)
    argv = list(argv)
    argv[argv.index("--out") + 1] = str(tmp_path / "again")
    assert io_cli.main(argv) == 0
    assert len(tracer.spans) == spans and dict(tracer.calls) == calls


def test_self_time_excludes_direct_children():
    tracer = Tracer()
    wrapped_inner = tracer._span_wrapper("inner", lambda: time.sleep(0.002))

    def outer():
        time.sleep(0.001)
        wrapped_inner()
        wrapped_inner()

    tracer._span_wrapper("outer", outer)()
    # spans are stored in call order: outer first, then its two children
    (o_name, _, o0, o1, o_parent), *inner = tracer.spans
    assert o_name == "outer" and o_parent == -1
    assert [(name, parent) for name, _, _, _, parent in inner] == [("inner", 0)] * 2
    inner_s = sum(t1 - t0 for _, _, t0, t1, _ in inner)
    self_s = tracer.self_times()
    assert self_s["inner"] == pytest.approx(inner_s)
    assert self_s["outer"] == pytest.approx((o1 - o0) - inner_s)
