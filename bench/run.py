"""ratemix benchmark: one workload, one process, one JSON result line.

    python3 bench/run.py --workload fit_paper --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload fit_paper --seed 1 --seconds 30 --trace 1

Run from the repository root; the package is imported from ./src. With
--trace 0 the result carries the end-to-end metrics, with --trace 1 the
per-layer metrics. See bench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")


def environment():
    """What the numbers depend on, recorded as found; nothing is set here."""
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.__config__.CONFIG["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def one_thread_fit_rate(spec, inputs, work, record):
    """fit_wide's fit rate in a child process with OPENBLAS_NUM_THREADS=1;
    0 when the child fails or its fit fails the output checks (counted in
    record)."""
    from workloads import CheckFailed, check_fit

    job = spec.fits[0]
    out = os.path.join(work, "fit_1thread")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    record.attempted += 1
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "fit_once.py"), "--src", SRC,
             "--config", inputs.fit_inis[job.label], "--data", inputs.datas[0],
             "--out", out, "--chains", str(job.chains),
             "--iterations", str(job.sampler["n_iter"] * job.chains)],
            env=env, capture_output=True, text=True, timeout=150, check=False,
        )
        if proc.returncode != 0:
            raise CheckFailed(f"single-thread baseline: exit {proc.returncode}: "
                              f"{proc.stderr.strip()[-200:]}")
        check_fit(out, job.chains)
        return json.loads(proc.stdout.strip().splitlines()[-1])["iters_per_s"]
    except Exception as err:  # noqa: BLE001 - any failure is a counted failure
        record.fail(f"single-thread baseline: {type(err).__name__}: {err}")
        return 0.0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(SRC, "ratemix", "io_cli.py")):
        print(f"error: no ratemix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import ratemix.io_cli  # noqa: F401 - timed import, part of setup_s

    import_s = time.perf_counter() - t0
    if not os.path.abspath(ratemix.io_cli.__file__).startswith(SRC + os.sep):
        print(f"error: ratemix imported from {ratemix.io_cli.__file__}", file=sys.stderr)
        return 2

    import workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = os.path.join(WORK, f"{spec.name}-s{args.seed}-p{os.getpid()}")
    try:
        metrics, records = run(spec, args, import_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(spec, args, metrics, records)
    return 0


def run(spec, args, import_s, work):
    """Set up, measure, and return (metrics, records of the measured loops)."""
    import workloads as wl
    from tracing import Tracer

    setup_tracer = Tracer()
    setup_record = wl.Record()
    setups = []
    for _ in range(wl.SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = wl.generate_inputs(spec, args.seed, work)
        if args.trace:
            with setup_tracer.installed():
                iters, fit_s = wl.set_up(spec, inputs, setup_record)
        else:
            iters, fit_s = wl.set_up(spec, inputs, setup_record)
        setups.append((time.perf_counter() - t0, iters, fit_s))

    client = wl.Client(spec, inputs)
    t0 = time.perf_counter()
    client.warm_up(setup_record)
    # paid once per process, like the import: lazy first-use work the
    # warm-up absorbs shows in setup_s
    once_s = import_s + time.perf_counter() - t0
    untraced = wl.Record()
    if not args.trace:
        wl.run_loop(client, untraced, args.seconds)
        return e2e_metrics(spec, untraced, setups, once_s), [setup_record, untraced]

    # the traced run splits its time between an untraced and a traced loop,
    # whose main metrics give the tracing overhead
    wl.run_loop(client, untraced, args.seconds / 2)
    tracer = Tracer()
    traced = wl.Record()
    with tracer.installed():
        cycles, wall = wl.run_loop(client, traced, args.seconds / 2, tracer,
                                   whole_cycles=True)
    metrics = tracer.layer_metrics(cycles)
    metrics["simulate.simulate_dataset.self_s"] = (
        setup_tracer.self_times()["simulate.simulate_dataset"] / len(setups), "s")
    for kind in ("fit", *wl.QUERY_TYPES):
        sizes = traced.bytes_written.get(kind, [])
        metrics[f"io_cli.bytes_written.{kind}"] = (
            statistics.mean(sizes) if sizes else 0.0, "bytes")
    main_metric = query_rate if spec.fits_in_setup else fit_rate
    metrics["trace.overhead_frac"] = (
        main_metric(untraced) / main_metric(traced) - 1.0 if main_metric(traced) else 0.0,
        "ratio")
    metrics["trace.cycles"] = (cycles, "count")
    metrics["trace.cycle_s"] = (wall / cycles, "s")
    baseline = (one_thread_fit_rate(spec, inputs, work, traced)
                if spec.name == "fit_wide" else 0.0)
    metrics["baseline.fit_wide_1thread_iters_per_s"] = (baseline, "iter/s")
    os.makedirs(WORK, exist_ok=True)
    tracer.write_spans(os.path.join(WORK, f"spans-{spec.name}-s{args.seed}.csv"))
    return metrics, [setup_record, untraced, traced]


def _median(values):
    return statistics.median(values) if values else 0.0


def fit_rate(record):
    """Median iterations per second over the record's fits."""
    return _median(record.fit_rates)


def query_rate(record):
    """Completed queries per second of time spent inside query calls."""
    latencies = record.all_latencies()
    return len(latencies) / (sum(latencies) / 1000.0) if latencies else 0.0


def e2e_metrics(spec, record, setups, once_s):
    """End-to-end metrics; a metric left with nothing to measure (every
    operation behind it failed) reads 0."""
    from workloads import QUERY_TYPES

    latencies = record.all_latencies()
    if spec.fits_in_setup:
        fit_s = sum(f for _, _, f in setups)
        rate = sum(i for _, i, _ in setups) / fit_s if fit_s > 0 else 0.0
    else:
        rate = fit_rate(record)
    return {
        "setup_s": (once_s + statistics.median(s for s, _, _ in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fit_iters_per_s": (rate, "iter/s"),
        "serve_queries_per_s": (query_rate(record), "query/s"),
        "query_ms_p50": (_median(latencies), "ms"),
        # ten or more queries lie beyond p90: every run attempts at least 110
        "query_ms_p90": (statistics.quantiles(latencies, n=10)[8]
                         if len(latencies) >= 2 else 0.0, "ms"),
        **{f"{kind}_ms_p50": (_median(record.latency_ms[kind]), "ms")
           for kind in QUERY_TYPES},
    }


def report(spec, args, metrics, records):
    """Human-readable lines, then the environment, then the JSON result."""
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    for r in records:
        for reason, n in sorted(r.reasons.items()):
            print(f"failure x{n}: {reason}")
    last = records[-1]
    print(f"workload {spec.name} seed {args.seed}: {len(last.all_latencies())} queries, "
          f"{len(last.fit_rates)} measured fits in the last loop")
    print(f"{'fail_frac':44s} {failed / attempted:<14.6g} ratio ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:<14.6g} {unit}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
