"""Fixed per-call work of each serve_posterior query type, at the benchmark's
query size and at the README's.

    python3 bench/query_cost.py [--repeats 9]

Run from the repository root. Each query type is timed, median over
--repeats rounds that go round-robin over every type and size, at three
sizes of the work that scales:

- minimal: fits with 20 retained draws per chain (the CLI's least), chi
           with n_mc = 1000;
- bench:   serve_posterior's own fits (80 per chain), n_mc = 50 000;
- readme:  fits with the README fit's 1600 retained draws per chain,
           n_mc = 1 000 000 (the CLI default).

The fixed work of a call, the work that does not grow with draws or n_mc
(argument and config parsing, read_dataset, pickle loads, per-cell set-up,
the manifest), is the time extrapolated to zero size along the line
through the minimal and bench sizes; its share is fixed / time at a size.
Fits keep serve_posterior's warm-up and thin 1: query cost depends on the
number of retained draws and held-out cells, not on how well the chain
mixed.
"""

import argparse
import dataclasses
import os
import shutil
import statistics
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402

# (size, retained draws per chain, chi n_mc)
SIZES = (("minimal", 20, 1000), ("bench", 80, wl.CHI_N_MC), ("readme", 1600, 1_000_000))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--repeats", type=int, default=9)
    args = p.parse_args()
    work = os.path.join(ROOT, ".bench_work", f"query_cost-p{os.getpid()}")
    try:
        times = measure(work, args.repeats)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{'query':8s} {'size':8s} {'median_ms':>10s} {'fixed_ms':>9s} {'fixed_share':>12s}")
    for kind in wl.QUERY_TYPES:
        (_, k0, n0), (_, k1, n1) = SIZES[:2]
        x0, x1 = (n0, n1) if kind == "chi" else (k0, k1)
        t0, t1 = times[(kind, "minimal")], times[(kind, "bench")]
        fixed = max(0.0, (t0 * x1 - t1 * x0) / (x1 - x0))
        for size, _, _ in SIZES:
            t = times[(kind, size)]
            print(f"{kind:8s} {size:8s} {t:10.1f} {fixed:9.1f} {fixed / t:12.2f}")
    return 0


def measure(work, repeats):
    """Median latency per (query type, size). Calls go round-robin over every
    type and size, so a change in machine speed during the run reaches all
    of them alike."""
    spec = wl.WORKLOADS["serve_posterior"]
    inputs = wl.generate_inputs(spec, 1, work)
    record = wl.Record()
    wl.set_up(spec, inputs, record)
    clients = {"bench": wl.Client(spec, inputs)}
    for size, kept, n_mc in SIZES:
        if size == "bench":
            continue
        size_inputs = dataclasses.replace(
            inputs, fit_dirs={}, fit_inis={}, chi_ini=os.path.join(work, f"chi_{size}.ini"))
        for job in spec.fits:
            # serve_posterior's warm-up, then `kept` unthinned draws
            warmup = job.sampler["burnin1"] + job.sampler["burnin2"]
            sampler = {**job.sampler, "thin": 1, "n_iter": warmup + kept}
            job = dataclasses.replace(job, label=f"{job.label}_{size}", sampler=sampler)
            size_inputs.fit_inis[job.label] = os.path.join(work, f"fit_{job.label}.ini")
            size_inputs.fit_dirs[job.label] = os.path.join(work, f"fit_{job.label}")
            wl._write_fit_ini(size_inputs.fit_inis[job.label], job, 7)
            rc, _ = wl.Client(spec, size_inputs).fit(job)
            if rc != 0:
                raise RuntimeError(f"{size} fit {job.label} exited {rc}")
        with open(inputs.chi_ini) as src, open(size_inputs.chi_ini, "w") as dst:
            dst.write(src.read().replace(f"n_mc = {wl.CHI_N_MC}", f"n_mc = {n_mc}"))
        clients[size] = wl.Client(spec, size_inputs)
    latencies = {}
    for _ in range(repeats):
        for size, client in clients.items():
            for kind in wl.QUERY_TYPES:
                record = wl.Record()
                client.measured_query(record, kind, 1)
                if record.failed:
                    raise RuntimeError(f"{kind} at {size} size failed: {record.reasons}")
                latencies.setdefault((kind, size), []).extend(record.latency_ms[kind])
    return {key: statistics.median(values) for key, values in latencies.items()}


if __name__ == "__main__":
    sys.exit(main())
