"""Record the exact output values the benchmark checks, per workload and seed.

    python3 perfbench/reference.py --seeds 0-31 [--workloads stream-small,...]

Runs set-up, the CLI chain and the grid once for each workload and seed and
writes the segment count, matched-step histogram, tracks born, record and
zero-IoU counts, the feature-column and `iou_adj` sums, and each grid cell's
test AUROC or R^2 to `reference.json`.  Run it only on a commit whose outputs
are known good; the committed file comes from the seed commit of the
benchmark.
"""

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-23 or 1,5,9")
    parser.add_argument("--workloads", default="", help="comma-separated; default all")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks
    import workloads
    from segquality import tensor_io

    names = [n for n in args.workloads.split(",") if n] or list(workloads.WORKLOADS)
    with open(checks.REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)
    for name in names:
        wl = workloads.WORKLOADS[name]
        for seed in parse_seeds(args.seeds):
            paths = workloads.Paths(os.path.join(ROOT, ".perfbench_work", f"ref-{name}-{seed}"))
            try:
                workloads.generate(wl, seed, paths)
                num_classes = tensor_io.read_manifest(paths.manifest).num_classes
                chain = workloads.run_chain(wl, paths, num_classes)
                if chain.errors:
                    print(f"{name} seed {seed}: chain failed: {chain.errors}", file=sys.stderr)
                    return 1
                values = checks.ChainOutputs(paths).values()
                grid = workloads.run_grid(wl, seed, paths)
                problems = checks.grid_problems(grid, None)
                if problems:
                    print(f"{name} seed {seed}: grid failed: {problems}", file=sys.stderr)
                    return 1
                values["cells"] = checks.reference_cells(grid)
            finally:
                shutil.rmtree(paths.root, ignore_errors=True)
            reference.setdefault(name, {})[str(seed)] = values
            print(f"{name} seed {seed}: {values['segments']} segments, "
                  f"{values['records']} records, grid {grid.seconds:.1f} s", file=sys.stderr)
            with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
                json.dump(reference, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
