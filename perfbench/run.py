#!/usr/bin/env python3
"""The ergmkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an ergmkit checkout; it benchmarks the library
under ``src/`` of the checkout that holds this file.  Workloads:
``simulate``, ``strat_ess``, ``fit`` and ``mple_sweep`` (see
``workloads.py``; why each exists is in ``BENCHMARK.json`` and
``expectations.json``).

One run is one process.  Before anything is imported, the process
re-executes itself with BLAS/OpenMP threads pinned to 1 and a fixed
``PYTHONHASHSEED``.  It then runs cycles until ``--seconds`` are used.  A
cycle sets up the workload's inputs from ``--seed`` (repeated while it is
short), runs one job with its own seed derived from ``--seed`` and the
cycle number, and checks the job's outputs; a job that raises or fails a
check counts as failed and is left out of the timings.  A fixed
reference loop is timed between the job's library calls, and each call's
seconds are rescaled to a machine of fixed speed (``clock.py``).

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``:
medians over the cycles.  ``--trace 1`` runs cycles untraced for half
the time, then the same cycles again with every layer's entry points
wrapped (``spans.py``), and prints the per-layer metrics.  The traced
jobs must reproduce the untraced outputs byte for byte.

The last line of standard output is the JSON result
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before
it is a JSON record of the run: environment, git revision, the SHA-256
digest of the first job's outputs, per-job figures, and in traced runs
the spans and per-name call aggregates.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("simulate", "strat_ess", "fit", "mple_sweep")
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ergmkit", "__init__.py")):
        print(f"perfbench: no ergmkit sources at {SRC}; run the benchmark "
              "from an ergmkit checkout", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *argv],
                  {**os.environ, **PINNED_ENV})

    sys.path.insert(0, SRC)
    import ergmkit
    if os.path.dirname(os.path.abspath(ergmkit.__file__)) != os.path.join(SRC, "ergmkit"):
        print(f"perfbench: imported ergmkit from {ergmkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import runner

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    record, result = runner.run(args, ROOT, declared, PINNED_ENV)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
