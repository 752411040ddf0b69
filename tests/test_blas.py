"""Tests for the single-thread OpenBLAS scope that each chain runs in."""

import os
import subprocess
import sys

import numpy as np
import pytest

from ratemix import _blas, io_cli
from ratemix.likelihood import HyperParams
from ratemix.priors import PriorSet
from ratemix.sampler import InitializationError, SamplerConfig, run_chain

from test_sampler import chain_scene

USER_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def read_counts(libs):
    return [getter() for _, getter in libs]


@pytest.fixture
def openblas(monkeypatch):
    """The loaded OpenBLAS copies, set to two threads with the user variables
    unset; their thread counts are restored afterwards."""
    for name in USER_VARS:
        monkeypatch.delenv(name, raising=False)
    libs = _blas._loaded_openblas()
    if not libs:
        pytest.skip("no OpenBLAS with a known thread setter is loaded")
    saved = read_counts(libs)
    for setter, _ in libs:
        setter(2)
    yield libs
    for (setter, _), count in zip(libs, saved):
        setter(count)


def short_chain(progress=None, hyper=None):
    data, model, scene_hyper = chain_scene()
    config = SamplerConfig(n_iter=60, burnin1=20, burnin2=20, adapt_interval=10,
                           thin=10, seed=1)
    return run_chain(config, data, model, PriorSet(), hyper or scene_hyper,
                     progress=progress)


def test_chain_runs_on_one_thread_and_restores(openblas):
    prior = read_counts(openblas)
    seen = []
    short_chain(progress=lambda *a: seen.append(read_counts(openblas)))
    assert len(seen) == 6
    assert all(counts == [1] * len(openblas) for counts in seen)
    assert read_counts(openblas) == prior
    assert _blas.chain_blas_threads() == 1


def test_counts_restored_after_chain_raises(openblas):
    prior = read_counts(openblas)
    outside = HyperParams(alpha_coefs=np.array([0.1, 0.2]), beta1=1.5, beta2=0.9, rho=0.8)
    with pytest.raises(InitializationError):
        short_chain(hyper=outside)
    assert read_counts(openblas) == prior


@pytest.mark.parametrize("name", USER_VARS)
def test_user_thread_variable_wins(openblas, monkeypatch, name):
    prior = read_counts(openblas)
    monkeypatch.setenv(name, "3")
    seen = []
    short_chain(progress=lambda *a: seen.append(read_counts(openblas)))
    assert seen and all(counts == prior for counts in seen)
    assert read_counts(openblas) == prior
    assert _blas.chain_blas_threads() == max(prior)


@pytest.mark.parametrize("maps", ["python_only", "absent"])
def test_no_library_found_is_a_no_op(openblas, monkeypatch, tmp_path, maps):
    prior = read_counts(openblas)
    path = tmp_path / "maps"
    if maps == "python_only":
        path.write_text(f"00400000-00452000 r-xp 00000000 08:02 173521 {sys.executable}\n")
    monkeypatch.setattr(_blas, "_MAPS", str(path))
    assert _blas._loaded_openblas() == []
    with _blas.single_blas_thread():
        assert read_counts(openblas) == prior
    assert _blas.chain_blas_threads() is None


def test_missing_symbol_is_a_no_op(openblas, monkeypatch):
    prior = read_counts(openblas)
    monkeypatch.setattr(_blas, "_SYMBOLS", (("no_such_setter", "no_such_getter"),))
    assert _blas._loaded_openblas() == []
    with _blas.single_blas_thread():
        assert read_counts(openblas) == prior
    assert _blas.chain_blas_threads() is None


SIM_WIDE = """\
[simulate]
alpha0 = 1.0
alpha_slopes = 0.5 0.5 0.5
beta1 = 2.0
beta2 = 5.0
rho = 0.3
censor_quantile = 0.75
d = 128
n = 3
n_predict_sites = 1
seed = 17
"""

FIT_WIDE = """\
[model]
variant = D1
covariates = x, y, z3

[sampler]
n_iter = 40
burnin1 = 10
burnin2 = 10
adapt_interval = 10
thin = 5
seed = 2
"""


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="one CPU: OpenBLAS runs single-threaded whatever its setting",
)
def test_wide_fit_bytes_do_not_depend_on_thread_setting(tmp_path):
    # at d = 128 OpenBLAS's threaded Cholesky and triangular solves round
    # differently from the single-threaded ones
    (tmp_path / "sim.ini").write_text(SIM_WIDE)
    (tmp_path / "fit.ini").write_text(FIT_WIDE)
    assert io_cli.main(["simulate", "--config", str(tmp_path / "sim.ini"),
                        "--out", str(tmp_path / "data")]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(io_cli.__file__)))
    base = {k: v for k, v in os.environ.items() if k not in USER_VARS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    outputs = []
    for label, extra in (("default", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / label
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from ratemix import io_cli; sys.exit(io_cli.main(sys.argv[1:]))",
             "fit", "--config", str(tmp_path / "fit.ini"), "--data", str(tmp_path / "data"),
             "--out", str(out)],
            env={**base, **extra}, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append({name: (out / name).read_bytes() for name in ("trace.csv", "chains.pkl")})
    assert outputs[0]["trace.csv"] == outputs[1]["trace.csv"]
    assert outputs[0]["chains.pkl"] == outputs[1]["chains.pkl"]
