"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workloads stream-small,train-series \\
        --seeds 0-9 [--trace 0] [--out perfbench/results/NAME.json]

Runs `run.py` once per workload and seed, one at a time, and prints per
metric the median, the quartiles (`statistics.quantiles(values, n=4)`) and the
spread: (Q3 - Q1) / median.  With --out, every run's result line and run
record are saved with the summary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from reference import parse_seeds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record_path = os.path.join(
                ROOT, ".perfbench_out", f"{workload}-seed{seed}-trace{args.trace}.json")
            with open(record_path, encoding="utf-8") as fh:
                record = json.load(fh)
            record.pop("trace_spans", None)
            runs.append({"seed": seed, "wall_s": wall, "result": result, "record": record})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall={wall:.1f}s",
                  file=sys.stderr)
        summary = summarise([r["result"] for r in runs])
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        for name, s in summary.items():
            print(f"{workload:13s} {name:40s} median {s['median']:12.6g} {s['unit']:6s} "
                  f"spread {s['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
