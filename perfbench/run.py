"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload ud-parse --seed 3 --seconds 12 --trace 0

Run from the root of a checkout; the parser is imported from ``src/``
of that checkout.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is 1 when an output check failed, and 2
when the checkout holds no parser to run.
"""

import os

# One BLAS thread, set before numpy is first imported, so that a run uses
# one core whatever the machine's default is.  It is recorded with the
# rest of the environment on every run.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "g2gt" / "__init__.py").is_file():
        print(f"perfbench: no parser sources at {SRC / 'g2gt'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, run

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        outcome = run(WORKLOADS[args.workload](), work, args.seed, args.seconds,
                      trace=bool(args.trace))
        if args.trace:
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            shutil.move(work / "spans.jsonl", spans)
            print(f"spans written to {spans}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = outcome.per_layer if args.trace else outcome.end_to_end
    print("env " + json.dumps(environment()))
    print(f"digest {outcome.digest}")
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"failed_share {share} ({outcome.failed}/{outcome.attempted})")
    for n, value in outcome.length_tok_s.items():
        print(f"parse n={n}: {value} tok/s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
