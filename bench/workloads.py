"""Workload definitions, input generation, the closed client loop and the
output checks.

Every workload is one client running a closed loop of `ratemix` CLI calls,
in process, through `ratemix.io_cli.main`. The loop repeats a fixed cycle of
operations; the program sees only the generated INI files and data
directories.

- fit_paper: cycle = one paper-size fit (d=20, n=50, D1, two chains,
  checkpoints on) of one of eight datasets in turn, then predict/score/chi
  queries against that fit.
- fit_wide: cycle = one wide-site fit (d=200, n=5, D2, two chains,
  checkpoints off), then the same queries against it.
- serve_posterior: D1 and D3 are fitted once per set-up; the cycle is a
  seeded shuffle of predict, score (D1 vs D3) and chi queries.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import time
from dataclasses import dataclass, field

from ratemix import io_cli

QUERY_TYPES = ("predict", "score", "chi")
# p90 needs at least ten queries beyond it
MIN_QUERIES = 110
SETUP_REPEATS = 3
# the untimed warm-up fit of the fit workloads: the job's model and step
# settings, the fewest iterations that keep the CLI's 20 draws per chain
WARMUP_SAMPLER = {"n_iter": 30, "burnin1": 5, "burnin2": 5, "adapt_interval": 5,
                  "thin": 1, "audit_interval": 10}
# queries do 1/20 of the work of their README-sized counterparts: chi's
# n_mc default is 1e6, and serve_posterior's fits keep 1/20 of the README
# fit's 3200 retained draws
QUERY_SCALE = 20
CHI_N_MC = 1_000_000 // QUERY_SCALE


@dataclass(frozen=True)
class FitJob:
    label: str
    variant: str
    chains: int
    sampler: dict


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    simulate: dict
    fits: tuple
    fits_in_setup: bool
    # queries of each type per cycle; each (type, query seed) pair recurs
    # once per cycle, so repeats can be checked for byte-identical output
    queries_per_type: int
    # cycle k fits and queries dataset k mod `datasets`: per-iteration cost
    # depends on the data, so a run spreads its fits over several datasets
    datasets: int = 1
    # when set, it is the dataset's simulate seed, the fits' seeds derive
    # from it, and --seed drives only the query stream
    fixture_seed: int | None = None


PAPER_TRUTH = {
    "alpha0": "1.0",
    "alpha_slopes": "1.0 1.0 1.0",
    "beta1": "5.0",
    "beta2": "5.0",
    "rho": "1.0",
    "censor_quantile": "0.75",
}

WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="fit_paper",
            simulate={**PAPER_TRUTH, "d": "20", "n": "50", "n_predict_sites": "4"},
            fits=(
                FitJob("d1", "D1", 2, {
                    "n_iter": 500, "burnin1": 125, "burnin2": 125,
                    "adapt_interval": 25, "thin": 10,
                    "audit_interval": 125, "checkpoint_interval": 125,
                }),
            ),
            fits_in_setup=False,
            queries_per_type=4,
            datasets=8,
        ),
        WorkloadSpec(
            name="fit_wide",
            simulate={**PAPER_TRUTH, "d": "200", "n": "5", "n_predict_sites": "10"},
            fits=(
                # short windows and a damped step update let 120 warm-up
                # iterations tune a 1000-cell latent field; a first RW
                # (hyperparameter) step 33x below the CLI's and a first MALA
                # (latent) step 2x above it keep the 160 sampling
                # iterations' RW acceptance off 0 (see README.md)
                FitJob("d2", "D2", 2, {
                    "n_iter": 280, "burnin1": 80, "burnin2": 40,
                    "adapt_interval": 10, "omega": 0.8, "thin": 8,
                    "tau_theta0": 0.0003, "tau_lambda0": 0.002,
                    "audit_interval": 70, "checkpoint_interval": 0,
                }),
            ),
            fits_in_setup=False,
            queries_per_type=40,
        ),
        WorkloadSpec(
            name="serve_posterior",
            # the README's sim.ini, seed 101 included
            simulate={**PAPER_TRUTH, "d": "20", "n": "50", "n_predict_sites": "4"},
            fits=tuple(
                # 80 retained draws per chain: 1/20 of the README fit's 1600;
                # the long warm-up gives fit_iters_per_s seconds of fitting
                FitJob(label, variant, 2, {
                    "n_iter": 760, "burnin1": 300, "burnin2": 300,
                    "adapt_interval": 50, "thin": 2,
                    "audit_interval": 380, "checkpoint_interval": 0,
                })
                for label, variant in (("d1", "D1"), ("d3", "D3"))
            ),
            fits_in_setup=True,
            queries_per_type=10,
            fixture_seed=101,
        ),
    )
}


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _write_ini(path, section, values):
    with open(path, "w") as fh:
        fh.write(f"[{section}]\n")
        for k, v in values.items():
            fh.write(f"{k} = {v}\n")


def _write_fit_ini(path, job, seed):
    with open(path, "w") as fh:
        fh.write(f"[model]\nvariant = {job.variant}\ncovariates = x, y, z3\n\n[sampler]\n")
        for k, v in {**job.sampler, "seed": seed}.items():
            fh.write(f"{k} = {v}\n")


@dataclass
class Inputs:
    """Paths of one workload's generated inputs and its derived seeds."""

    work: str
    sim_inis: tuple
    chi_ini: str
    datas: tuple
    fit_inis: dict
    warmup_inis: dict
    fit_dirs: dict
    query_seeds: tuple
    shuffle_seed: int


def generate_inputs(spec, seed, work):
    """Write the INI files a workload needs; all values derive from `seed`
    (dataset and fits from `spec.fixture_seed` instead, when it is set)."""
    rng = random.Random(seed)
    data_rng = rng if spec.fixture_seed is None else random.Random(spec.fixture_seed)
    os.makedirs(work, exist_ok=True)
    sim_inis = tuple(os.path.join(work, f"sim{k}.ini") for k in range(spec.datasets))
    for sim_ini in sim_inis:
        sim_seed = data_rng.randrange(1, 2**31) if spec.fixture_seed is None else spec.fixture_seed
        _write_ini(sim_ini, "simulate", {**spec.simulate, "seed": sim_seed})
    chi_ini = os.path.join(work, "chi.ini")
    _write_ini(chi_ini, "chi", {
        "beta1": "1.0", "beta2": "3.0", "rho": "1.0", "pair_distance": "0.5",
        "u_grid": "0.90 0.95 0.99", "n_mc": CHI_N_MC, "seed": 0,
    })
    fit_inis, warmup_inis, fit_dirs = {}, {}, {}
    for job in spec.fits:
        fit_inis[job.label] = os.path.join(work, f"fit_{job.label}.ini")
        warmup_inis[job.label] = os.path.join(work, f"fit_{job.label}_warmup.ini")
        fit_dirs[job.label] = os.path.join(work, f"fit_{job.label}")
        fit_seed = data_rng.randrange(1, 2**31)
        _write_fit_ini(fit_inis[job.label], job, fit_seed)
        checkpoints = {"checkpoint_interval": 10 if job.sampler["checkpoint_interval"] else 0}
        _write_fit_ini(warmup_inis[job.label], FitJob(job.label, job.variant, job.chains, {
            **job.sampler, **WARMUP_SAMPLER, **checkpoints}), fit_seed)
    return Inputs(
        work=work,
        sim_inis=sim_inis,
        chi_ini=chi_ini,
        datas=tuple(os.path.join(work, f"data{k}") for k in range(spec.datasets)),
        fit_inis=fit_inis,
        warmup_inis=warmup_inis,
        fit_dirs=fit_dirs,
        query_seeds=tuple(rng.randrange(1, 2**31) for _ in range(spec.queries_per_type)),
        shuffle_seed=rng.randrange(1, 2**31),
    )


# ---------------------------------------------------------------------------
# operations and their checks
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    """An operation's output violates a guarantee the benchmark checks."""


@dataclass
class Record:
    """Outcome counts and latencies of the measured operations."""

    attempted: int = 0
    failed: int = 0
    queries: int = 0
    reasons: dict = field(default_factory=dict)
    fit_rates: list = field(default_factory=list)
    latency_ms: dict = field(default_factory=lambda: {t: [] for t in QUERY_TYPES})
    bytes_written: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)

    def fail(self, reason):
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def all_latencies(self):
        return [v for kind in QUERY_TYPES for v in self.latency_ms[kind]]


def _dir_bytes(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _digest(out_dir):
    """Hash of every output file; the manifest without its timing field."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name == "manifest.json":
            with open(path) as fh:
                manifest = json.load(fh)
            manifest.pop("timing_seconds", None)
            blob = json.dumps(manifest, sort_keys=True).encode()
        else:
            with open(path, "rb") as fh:
                blob = fh.read()
        h.update(name.encode() + b"\0" + hashlib.sha256(blob).digest())
    return h.hexdigest()


def _csv_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return [line.split(",") for line in lines[1:]]


def check_fit(out_dir, chains):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    for name, stats in summary["parameters"].items():
        if not all(math.isfinite(v) for v in stats.values()):
            raise CheckFailed(f"fit: non-finite summary for {name}")
    for kind in ("rw", "mala"):
        rates = summary["acceptance"][kind]
        if len(rates) != chains or not all(0.0 < r < 1.0 for r in rates):
            raise CheckFailed(f"fit: {kind} acceptance {rates} outside (0, 1)")
    rows = _csv_rows(os.path.join(out_dir, "trace.csv"))
    if not rows or not all(math.isfinite(float(v)) for r in rows for v in r[2:]):
        raise CheckFailed("fit: trace.csv empty or non-finite")


def check_predict(out_dir):
    rows = _csv_rows(os.path.join(out_dir, "predictions.csv"))
    if not rows:
        raise CheckFailed("predict: no rows")
    for r in rows:
        v = float(r[3])
        if not (math.isfinite(v) and v >= 0.0):
            raise CheckFailed(f"predict: bad draw {r}")


def check_score(out_dir, variants):
    rows = _csv_rows(os.path.join(out_dir, "scores.csv"))
    if len(rows) != variants:
        raise CheckFailed(f"score: {len(rows)} rows for {variants} fits")
    for r in rows:
        crps, tw = float(r[1]), float(r[2])
        if not (0.0 <= tw <= crps * (1.0 + 1e-12) + 1e-15):
            raise CheckFailed(f"score: twcrps {tw} outside [0, crps={crps}]")


def check_chi(out_dir):
    for r in _csv_rows(os.path.join(out_dir, "chi.csv")):
        if not 0.0 <= float(r[1]) <= 1.0:
            raise CheckFailed(f"chi: estimate {r[1]} outside [0, 1]")


class Client:
    """Runs the CLI operations of one workload and checks each output."""

    def __init__(self, spec, inputs):
        self.spec = spec
        self.inputs = inputs
        self.out = os.path.join(inputs.work, "out")
        # index of the dataset the current cycle fits and queries
        self.dataset = 0

    @property
    def data(self):
        return self.inputs.datas[self.dataset]

    def _call(self, argv):
        t0 = time.perf_counter()
        rc = io_cli.main(argv)
        return rc, time.perf_counter() - t0

    def simulate(self, record):
        """Simulate every dataset; False when one fails (counted in record)."""
        for sim_ini, data in zip(self.inputs.sim_inis, self.inputs.datas):
            shutil.rmtree(data, ignore_errors=True)
            record.attempted += 1
            try:
                rc, _ = self._call(["simulate", "--config", sim_ini, "--out", data])
            except Exception as err:  # noqa: BLE001 - any crash is a counted failure
                rc = f"{type(err).__name__}: {err}"
            if rc != 0:
                record.fail(f"set-up simulate: exit {rc}")
                return False
        return True

    def fit(self, job, warmup=False):
        """One fit (with the warm-up sampler settings when `warmup` is set);
        returns (exit code, wall seconds)."""
        out = self.inputs.fit_dirs[job.label]
        inis = self.inputs.warmup_inis if warmup else self.inputs.fit_inis
        shutil.rmtree(out, ignore_errors=True)
        return self._call([
            "fit", "--config", inis[job.label], "--data", self.data,
            "--out", out, "--chains", str(job.chains),
        ])

    def query_argv(self, kind, qseed, out):
        fits = list(self.inputs.fit_dirs.values())
        if kind == "predict":
            return ["predict", "--fit", fits[0], "--data", self.data,
                    "--out", out, "--seed", str(qseed)]
        if kind == "score":
            return ["score", "--fit", *fits, "--data", self.data,
                    "--out", out, "--seed", str(qseed)]
        return ["chi", "--config", self.inputs.chi_ini, "--out", out, "--seed", str(qseed)]

    def _checked(self, record, key, out_dir, check):
        """Check an output the first time its key is seen; afterwards require
        byte-identical files."""
        digest = _digest(out_dir)
        seen = record.digests.get(key)
        if seen is None:
            check()
            record.digests[key] = digest
        elif seen != digest:
            raise CheckFailed(f"{key[0]}: repeat of {key[1]} on dataset {key[2]} "
                              "is not byte-identical")

    def measured_fit(self, record, job):
        record.attempted += 1
        try:
            rc, wall = self.fit(job)
            if rc != 0:
                record.fail("fit: ChainDivergedError or numeric failure (exit 3)"
                            if rc == 3 else f"fit: exit {rc}")
                return
            out = self.inputs.fit_dirs[job.label]
            self._checked(record, ("fit", job.label, self.dataset), out,
                          lambda: check_fit(out, job.chains))
        except CheckFailed as err:
            record.fail(str(err))
            return
        except Exception as err:  # noqa: BLE001 - any crash is a counted failure
            record.fail(f"fit: {type(err).__name__}: {err}")
            return
        record.fit_rates.append(job.sampler["n_iter"] * job.chains / wall)
        record.bytes_written.setdefault("fit", []).append(_dir_bytes(out))

    def measured_query(self, record, kind, qseed):
        record.attempted += 1
        record.queries += 1
        out = os.path.join(self.out, kind)
        shutil.rmtree(out, ignore_errors=True)
        checks = {
            "predict": lambda: check_predict(out),
            "score": lambda: check_score(out, len(self.inputs.fit_dirs)),
            "chi": lambda: check_chi(out),
        }
        wall = None
        try:
            rc, wall = self._call(self.query_argv(kind, qseed, out))
            if rc != 0:
                raise CheckFailed(f"{kind}: exit {rc}")
            self._checked(record, (kind, qseed, self.dataset), out, checks[kind])
        except CheckFailed as err:
            record.fail(str(err))
        except Exception as err:  # noqa: BLE001 - any crash is a counted failure
            record.fail(f"{kind}: {type(err).__name__}: {err}")
        if wall is not None:
            record.latency_ms[kind].append(1000.0 * wall)
            if os.path.isdir(out):
                record.bytes_written.setdefault(kind, []).append(_dir_bytes(out))

    def warm_up(self, record):
        """Untimed first calls of every operation the loop makes, so that
        lazy imports, first-use set-up and the file cache are paid before
        timing: on the fit workloads a short fit, then one query of each
        type. Outputs are not checked or remembered, only exit codes (every
        call counts in `record`); the loop refits before its own queries."""
        ops = [("fit", job) for job in self.spec.fits] if not self.spec.fits_in_setup else []
        ops += [(kind, self.inputs.query_seeds[0]) for kind in QUERY_TYPES]
        for op, arg in ops:
            record.attempted += 1
            try:
                if op == "fit":
                    rc, _ = self.fit(arg, warmup=True)
                else:
                    out = os.path.join(self.out, op)
                    shutil.rmtree(out, ignore_errors=True)
                    rc, _ = self._call(self.query_argv(op, arg, out))
            except Exception as err:  # noqa: BLE001 - any crash is a counted failure
                rc = f"{type(err).__name__}: {err}"
            if rc != 0:
                record.fail(f"warm-up {op}: exit {rc}")
                return

    def cycle_ops(self, cycle):
        """Select the cycle's dataset and return its operations: fits first,
        then shuffled queries."""
        self.dataset = cycle % self.spec.datasets
        ops = [("fit", job) for job in self.spec.fits] if not self.spec.fits_in_setup else []
        queries = [(kind, q) for kind in QUERY_TYPES for q in self.inputs.query_seeds]
        random.Random(self.inputs.shuffle_seed + cycle).shuffle(queries)
        return ops + queries


def set_up(spec, inputs, record):
    """One set-up: simulate the datasets and, for serve_posterior, fit every
    variant. Failures are counted in `record`. Returns (fit iterations, fit
    seconds) of the fits that passed their checks."""
    client = Client(spec, inputs)
    iters, fit_s = 0, 0.0
    if not client.simulate(record):
        return iters, fit_s
    if spec.fits_in_setup:
        for job in spec.fits:
            record.attempted += 1
            try:
                rc, wall = client.fit(job)
                if rc != 0:
                    raise CheckFailed(f"set-up fit {job.label}: exit {rc}")
                check_fit(inputs.fit_dirs[job.label], job.chains)
            except CheckFailed as err:
                record.fail(str(err))
                continue
            except Exception as err:  # noqa: BLE001 - any crash is a counted failure
                record.fail(f"set-up fit {job.label}: {type(err).__name__}: {err}")
                continue
            iters += job.sampler["n_iter"] * job.chains
            fit_s += wall
    return iters, fit_s


def run_loop(client, record, seconds, tracer=None, whole_cycles=False):
    """Closed loop over the workload's cycles until `seconds` have passed and
    enough queries were attempted for a p90, checked after every operation,
    or after every cycle when `whole_cycles` is set (the traced loop reports
    per-cycle numbers). Returns (cycles begun, wall seconds)."""
    t0 = time.perf_counter()
    cycle = 0
    while True:
        for op, arg in client.cycle_ops(cycle):
            if tracer is not None:
                tracer.op += 1
            if op == "fit":
                client.measured_fit(record, arg)
            else:
                client.measured_query(record, op, arg)
            if not whole_cycles and _done(t0, record, seconds):
                return cycle + 1, time.perf_counter() - t0
        cycle += 1
        if _done(t0, record, seconds):
            return cycle, time.perf_counter() - t0


def _done(t0, record, seconds):
    return time.perf_counter() - t0 >= seconds and record.queries >= MIN_QUERIES
