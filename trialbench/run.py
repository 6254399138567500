"""Insertion-trial benchmark command.

    python3 trialbench/run.py --workload dense_corrected --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. It benchmarks the ``insertsim``
package under ``src/`` of that checkout, prints an environment line and a
report line, and prints the result as its last line: one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``). A
traced run also writes its spans to ``trialbench/out/``. A failed output
check exits with status 1 and prints no result.
"""

import os

# OpenBLAS must be pinned before numpy loads it: the bundled build starts up
# to 64 threads, which contend with the single trial thread on a small host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "insertsim" / "__init__.py").is_file():
        print(f"no insertsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import insertsim
    if Path(insertsim.__file__).resolve().parent != SRC / "insertsim":
        print(f"insertsim imported from {insertsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    print(json.dumps({"environment": harness.environment()}), flush=True)
    spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
    try:
        report = harness.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), spans_path)
    except workloads.OutputCheckError as e:
        print(f"output check failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}), flush=True)
    print(harness.result_line(report, correct=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
