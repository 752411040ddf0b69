"""Time `ratemix fit` in a fresh interpreter and print the median rate.

The benchmark runs this in a child process with OPENBLAS_NUM_THREADS=1 to
get the single-threaded baseline of fit_wide; the variable only takes effect
when it is set before numpy loads, hence the separate process.

    python3 bench/fit_once.py --src src --config fit.ini --data data/ \
        --out fit/ --chains 2 --iterations 560
"""

import argparse
import json
import shutil
import statistics
import sys
import time

REPEATS = 3


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--chains", type=int, required=True)
    p.add_argument("--iterations", type=int, required=True, help="n_iter x chains")
    args = p.parse_args()
    sys.path.insert(0, args.src)
    from ratemix.io_cli import main as ratemix_main

    rates = []
    for _ in range(REPEATS):
        shutil.rmtree(args.out, ignore_errors=True)
        t0 = time.perf_counter()
        rc = ratemix_main(["fit", "--config", args.config, "--data", args.data,
                           "--out", args.out, "--chains", str(args.chains)])
        wall = time.perf_counter() - t0
        if rc != 0:
            return rc
        rates.append(args.iterations / wall)
    print(json.dumps({"iters_per_s": statistics.median(rates)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
