"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads ud-parse]
                                [--trace] [--out summary.json]
                                [--against earlier-summary.json]

Every (workload, seed) pair runs ``run.py`` in a fresh process, one after
another.  For each end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
next to the bound in BENCHMARK.json.  With ``--trace`` every seed also
runs traced: the traced run must reproduce the untraced output digest,
and the tracing overhead is reported as the traced median job time over
the untraced one.  With ``--against`` each median is compared with the
median of an earlier ``--out`` summary of the same code.  Exits 1 when a
run fails, a digest differs, a spread reaches its bound, or a median is
worse than the earlier one by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (Q3 - Q1) / median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in BENCHMARK["end_to_end"]}
    earlier = (json.loads(args.against.read_text(encoding="utf-8"))
               if args.against else {})
    summary: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, digest = run_once(workload, seed, args.seconds, 0)
            ok &= result["correct"]
            row = {"seed": seed, "digest": digest, "result": result}
            if args.trace:
                traced, traced_digest = run_once(workload, seed, args.seconds, 1)
                ok &= traced["correct"] and traced_digest == digest
                row.update(traced=traced, traced_digest=traced_digest)
            runs.append(row)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        stats = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            stats[name] = {"values": values, "median": median, "q1": q1, "q3": q3,
                           "spread": share, "bound": bound}
            ok &= share < bound
            print(f"  {name:12s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {share:.3f} (bound {bound}, a third {bound / 3:.3f})")
            if workload in earlier:
                base = earlier[workload]["stats"][name]["median"]
                worse = (median / base - 1) if lower[name] else (base / median - 1)
                stats[name]["worse_than_earlier"] = worse
                ok &= worse <= bound
                print(f"  {'':12s} {worse:+.3f} worse than the earlier median {base:.6g}")
        entry = {"runs": runs, "stats": stats}
        if args.trace:
            traced_job = statistics.median(
                r["traced"]["metrics"]["trace.job_s"]["value"] for r in runs)
            entry["trace_overhead"] = traced_job / stats["job_s"]["median"] - 1
            same = all(r["traced_digest"] == r["digest"] for r in runs)
            print(f"  tracing overhead {entry['trace_overhead']:+.3%} on job_s; "
                  f"traced digests {'match' if same else 'DIFFER'}")
        summary[workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
