"""Golden output bytes of the command-line pipeline.

Runs simulate, a two-chain D1 fit with checkpoints, a `--resume` of that fit
from its last checkpoint, a D2 fit, predict, score and chi on one small fixed
configuration, and compares the SHA-256 of every output file with the
digests stored in golden_digests.json. A change that leaves the arithmetic
alone keeps every digest. Manifests are hashed without their wall-clock
timing, their BLAS thread count, their absolute-path fields and the
fingerprint that covers those paths. Checkpoints are hashed as a re-pickle
of their state and of the trace rows up to their iteration, the rows a
checkpoint stores.

The digests depend on the numpy and scipy builds, so the test skips when the
installed versions differ from the recorded ones. Rewrite the file with

    PYTHONPATH=src python tests/test_golden.py

only for a change that is meant to alter outputs, and say so.
"""

import hashlib
import json
import os
import pickle
import shutil
import sys

import numpy as np
import pytest
import scipy

from ratemix import io_cli

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")

SIM = """\
[simulate]
alpha0 = 1.0
alpha_slopes = 0.5 0.5 0.5
beta1 = 2.0
beta2 = 5.0
rho = 1.0
censor_quantile = 0.75
d = 6
n = 8
n_predict_sites = 1
seed = 23
"""

FIT = """\
[model]
variant = {variant}
covariates = x, y, z3

[sampler]
n_iter = 400
burnin1 = 100
burnin2 = 100
adapt_interval = 50
thin = {thin}
seed = 5
audit_interval = 100
checkpoint_interval = {checkpoint}
"""

CHI = """\
[chi]
beta1 = 1.0
beta2 = 3.0
rho = 1.0
pair_distance = 0.5
u_grid = 0.90 0.95
n_mc = 4000
seed = 4
"""

THIN = 10
# manifest fields that hold wall time, the machine's BLAS threads or absolute paths
_VOLATILE = ("timing_seconds", "blas_threads", "fingerprint", "fit", "fits")


def _digest(path):
    name = os.path.basename(path)
    if name == "manifest.json":
        with open(path) as fh:
            manifest = json.load(fh)
        for key in _VOLATILE:
            manifest.pop(key, None)
        raw = json.dumps(manifest, sort_keys=True).encode()
    elif name.startswith("checkpoint_chain"):
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        it = payload["state"]["iteration"]
        traces = payload["traces"]
        traces["hyper_trace"] = traces["hyper_trace"][: it + 1]
        traces["latent_trace"] = traces["latent_trace"][: it // THIN + 1]
        raw = pickle.dumps(payload, protocol=4)
    else:
        with open(path, "rb") as fh:
            raw = fh.read()
    return hashlib.sha256(raw).hexdigest()


def _run(*argv):
    assert io_cli.main([str(a) for a in argv]) == 0, argv


def run_pipeline(root):
    """Run every subcommand under `root`; returns {relative path: digest}."""
    root = str(root)
    path = lambda *p: os.path.join(root, *p)  # noqa: E731
    configs = {
        "sim.ini": SIM,
        "fit_d1.ini": FIT.format(variant="D1", thin=THIN, checkpoint=150),
        "fit_d2.ini": FIT.format(variant="D2", thin=THIN, checkpoint=0),
        "chi.ini": CHI,
    }
    for name, text in configs.items():
        with open(path(name), "w") as fh:
            fh.write(text)

    _run("simulate", "--config", path("sim.ini"), "--out", path("data"))
    _run("fit", "--config", path("fit_d1.ini"), "--data", path("data"),
         "--out", path("fit_d1"), "--chains", 2)
    # resume from the iteration-300 checkpoints of a copy of the D1 fit
    os.makedirs(path("fit_d1_resume"))
    for c in range(2):
        shutil.copy(path("fit_d1", f"checkpoint_chain{c}.pkl"), path("fit_d1_resume"))
    _run("fit", "--config", path("fit_d1.ini"), "--data", path("data"),
         "--out", path("fit_d1_resume"), "--chains", 2, "--resume")
    _run("fit", "--config", path("fit_d2.ini"), "--data", path("data"),
         "--out", path("fit_d2"))
    _run("predict", "--fit", path("fit_d1"), "--data", path("data"),
         "--out", path("pred"), "--seed", 7)
    _run("score", "--fit", path("fit_d1"), path("fit_d2"), "--data", path("data"),
         "--out", path("scores"), "--seed", 3)
    _run("chi", "--config", path("chi.ini"), "--out", path("chi"))

    digests = {}
    for out in ("data", "fit_d1", "fit_d1_resume", "fit_d2", "pred", "scores", "chi"):
        for name in sorted(os.listdir(path(out))):
            digests[f"{out}/{name}"] = _digest(path(out, name))
    return digests


def _versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def test_pipeline_outputs_match_golden_digests(tmp_path):
    with open(DIGESTS) as fh:
        golden = json.load(fh)
    if golden["versions"] != _versions():
        pytest.skip(
            f"digests were recorded with {golden['versions']}, "
            f"installed versions are {_versions()}"
        )
    got = run_pipeline(tmp_path)
    assert sorted(got) == sorted(golden["files"])
    changed = [k for k in sorted(got) if got[k] != golden["files"][k]]
    assert not changed, f"output bytes changed: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = run_pipeline(tmp)
    with open(DIGESTS, "w") as fh:
        json.dump({"versions": _versions(), "files": files}, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {len(files)} digests to {DIGESTS}", file=sys.stderr)
