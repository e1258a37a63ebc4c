"""segquality benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload stream-small --seed 3 --seconds 10 --trace 0

Run from the root of a segquality checkout; the program is imported from
`src/`.  The last line of standard output is
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}` with the
end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
A run record with the machine description (and, when traced, every span) is
written to `.perfbench_out/`.  README.md explains workloads and metrics.
"""

import os
import sys

# One BLAS thread: the box has 2 cores, the pipeline runs one caller, and the
# benchmark measures the program, not the BLAS thread pool.  Set before numpy
# is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-up (stream generation) is repeated and its median reported.
SETUP_REPEATS = 3
# Rounds per untraced run, at least: the chain and grid times are medians
# over rounds, and the host's speed moves by tens of percent between them.
MIN_ROUNDS = 2


def git_commit(root: str) -> str:
    """Commit of the checkout, read from .git without running git."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_info() -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(ROOT),
    }


def metric(value, unit):
    # a failed grid leaves auroc/r2 undefined; JSON has no NaN
    return {"value": value if math.isfinite(value) else None, "unit": unit}


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, attempted: int, failures: dict):
        self.attempted += attempted
        self.failed += len(failures)
        for key, msg in failures.items():
            if len(self.messages) < 20:
                self.messages.append(f"{key}: {msg}")


@dataclass
class Context:
    """What every round of one run shares."""

    wl: object  # workloads.Workload
    seed: int
    paths: object  # workloads.Paths
    num_classes: int
    reference: dict | None  # reference.json entry for this workload and seed
    tally: Tally


def check_chain(checks, ctx, chain):
    """Count the three chain stages; returns the parsed outputs or None."""
    failures = dict(chain.errors)
    outputs = None
    try:
        outputs = checks.ChainOutputs(ctx.paths)
    except (OSError, ValueError, StopIteration) as exc:
        for stage in ("track", "extract", "dataset"):
            failures.setdefault(stage, f"outputs unreadable: {exc}")
    else:
        for stage, msgs in checks.stage_problems(outputs, ctx.reference).items():
            failures.setdefault(stage, "; ".join(msgs[:3]))
    ctx.tally.add(3, {f"stage {k}": v for k, v in failures.items()})
    return outputs if not failures else None


def check_frames(checks, ctx, online, outputs):
    failures = dict(online.errors)
    for step, output in enumerate(online.outputs):
        if output is not None:
            index = step % online.manifest.num_frames
            problem = checks.frame_problem(index, output, outputs)
            if problem:
                failures[step] = problem
    ctx.tally.add(len(online.outputs), {f"frame {k}": v for k, v in failures.items()})


def check_grid(checks, ctx, grid, first_grid=None):
    """Count the grid's fits: a bad cell fails its fit, a grid-wide problem every fit."""
    problems = checks.grid_problems(grid, ctx.reference)
    if first_grid is not None and grid.cells != first_grid.cells:
        problems.setdefault("grid", "grid metrics differ between rounds")
    failures = {f"fit {k}": v for k, v in problems.items()}
    if "grid" in problems:
        failures = {f"fit {i}": problems["grid"] for i in range(grid.fits)}
    ctx.tally.add(grid.fits, failures)


def frame_quantiles(latencies):
    import numpy

    ms = numpy.array(latencies) * 1e3
    return float(numpy.percentile(ms, 50)), float(numpy.percentile(ms, 90))


def run_round(ctx, tracer=None, first_grid=None, grid=True):
    """One round: online frames in three chunks, around the chain and the grid.

    The host's speed shifts on a scale of seconds, so spreading the frames
    over the round makes the latency percentiles sample all of it.  With
    `grid=False` the round skips the grid (a warm-up).
    """
    import checks
    import workloads

    span = tracer.span if tracer else workloads.no_span

    def enter(phase):
        if tracer:
            tracer.phase = phase

    online = workloads.OnlinePath(ctx.paths)
    frames = online.total
    enter("frame")
    online.run_until(frames // 3, span)
    enter("chain")
    with span("bench.chain"):
        chain = workloads.run_chain(ctx.wl, ctx.paths, ctx.num_classes, span)
    enter("frame")
    online.run_until(2 * frames // 3, span)
    result = None
    if grid:
        enter("grid")
        with span("bench.grid"):
            result = workloads.run_grid(ctx.wl, ctx.seed, ctx.paths)
    enter("frame")
    online.run_until(frames, span)
    outputs = check_chain(checks, ctx, chain)
    check_frames(checks, ctx, online, outputs)
    if result is not None:
        check_grid(checks, ctx, result, first_grid)
    return chain, online, result


def untraced_run(ctx, seconds, setup_times):
    chains, latencies, grids = [], [], []
    start = time.perf_counter()
    while len(chains) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        chain, online, grid = run_round(ctx, first_grid=grids[0] if grids else None)
        chains.append(chain.seconds)
        latencies.extend(online.latencies)
        grids.append(grid)
    p50, p90 = frame_quantiles(latencies)
    details = {
        "setup_s": setup_times,
        "chain_s": chains,
        "grid_s": [g.seconds for g in grids],
        "frames": len(latencies),
        "cells": grids[0].cells,
    }
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "chain_s": metric(statistics.median(chains), "s"),
        "frame_ms_p50": metric(p50, "ms"),
        "frame_ms_p90": metric(p90, "ms"),
        "grid_s": metric(statistics.median(g.seconds for g in grids), "s"),
        "auroc": metric(grids[0].auroc, "1"),
        "r2": metric(grids[0].r2, "1"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, details


def traced_run(ctx):
    """A warm-up, then an untraced, a traced and another untraced round.

    The first chain of a process runs slower than later ones, so a warm-up
    (chain and online path, no grid) comes first.  The tracing overhead is the
    traced round against the mean of the untraced rounds on either side of
    it, which cancels a steady drift of the host's speed.
    """
    import tracing

    run_round(ctx, grid=False)
    before_chain, _, before_grid = run_round(ctx)
    tracer = tracing.Tracer()
    with tracing.traced_layers(tracer):
        # the traced grid must reproduce the untraced one exactly
        chain, online, grid = run_round(ctx, tracer=tracer, first_grid=before_grid)
    after_chain, _, after_grid = run_round(ctx, first_grid=before_grid)
    untraced = ((before_chain.seconds + after_chain.seconds) / 2,
                (before_grid.seconds + after_grid.seconds) / 2)
    traced = (chain.seconds, grid.seconds)
    num_frames = online.manifest.num_frames
    metrics = layer_metrics(tracer, num_frames, untraced, traced)
    details = {
        "frames": len(online.outputs),
        "chain_s": {"untraced": [before_chain.seconds, after_chain.seconds],
                    "traced": chain.seconds},
        "grid_s": {"untraced": [before_grid.seconds, after_grid.seconds],
                   "traced": grid.seconds},
    }
    return metrics, details, tracer


# Layers whose self-time share of each phase the traced run reports.
SHARE_LAYERS = {
    "chain": ("cli", "tensor_io", "heatmaps", "segmentation", "seg_metrics",
              "tracking", "pipeline", "dataset"),
    "frame": ("tensor_io", "heatmaps", "segmentation", "seg_metrics", "tracking",
              "pipeline"),
    "grid": ("evaluation", "dataset", "meta_models"),
}


def layer_metrics(tracer, num_frames, untraced, traced) -> dict:
    import tracing

    selfs = tracer.self_times()

    def self_s(*names, phase=None):
        return sum(t for n, p, t in selfs if n in names and phase in (None, p))

    def span_s(name):
        return sum(end - start for _, n, _, _, start, end in tracer.spans if n == name)

    def share(a, b):
        return a / b if b else 0.0

    count = tracer.total
    out = {
        "tensor_io.read_s": metric(self_s("tensor_io.read"), "s"),
        "tensor_io.read_mb": metric(count("tensor_io.read_bytes") / 1e6, "MB"),
        "heatmaps.dispersion_s": metric(self_s("heatmaps.dispersion"), "s"),
        "heatmaps.stability_s": metric(self_s("heatmaps.stability"), "s"),
        "segmentation.components_s": metric(self_s("segmentation.components"), "s"),
        "segmentation.components_per_frame": metric(
            share(count("segmentation.labelings", "chain"), num_frames), "1"),
        "segmentation.segments": metric(count("segmentation.segments", "frame"), "count"),
        "seg_metrics.features_s": metric(self_s("seg_metrics.features"), "s"),
        "seg_metrics.features_computed": metric(
            count("seg_metrics.features_computed", "chain"), "count"),
        "seg_metrics.features_written": metric(
            count("seg_metrics.features_written", "chain"), "count"),
        "seg_metrics.features_useful_share": metric(share(
            count("seg_metrics.features_written", "chain"),
            count("seg_metrics.features_computed", "chain")), "1"),
        "seg_metrics.iou_s": metric(self_s("seg_metrics.iou"), "s"),
        "tracking.track_s": metric(self_s("tracking.track"), "s"),
    }
    for step in range(1, 6):
        out[f"tracking.step{step}"] = metric(count(f"tracking.step{step}", "frame"), "count")
    out.update({
        "tracking.tracks": metric(count("tracking.tracks", "frame"), "count"),
        "pipeline.self_s": metric(self_s(
            "pipeline.process_stream", "pipeline.extract_frame", "pipeline.apply_tracking"), "s"),
        "pipeline.csv_s": metric(self_s("pipeline.csv"), "s"),
        "pipeline.csv_mb": metric(count("pipeline.csv_bytes") / 1e6, "MB"),
        "dataset.build_s": metric(self_s("dataset.build"), "s"),
        "dataset.io_s": metric(self_s("dataset.io"), "s"),
        "dataset.records": metric(count("dataset.records", "chain"), "count"),
        "evaluation.self_s": metric(self_s("evaluation.run_experiment"), "s"),
        "evaluation.pack_s": metric(self_s("evaluation.pack"), "s"),
    })
    mm = "meta_models"
    for family in ("linear", "gradient_boosting", "shallow_nn", "shallow_lstm"):
        p = f"{mm}.{family}"
        out[f"{p}.fit_s"] = metric(self_s(f"{p}.fit"), "s")
        out[f"{p}.fits"] = metric(count(f"{p}.fits"), "count")
    out.update({
        f"{mm}.linear.logistic_fits": metric(count(f"{mm}.linear.iterative_fits"), "count"),
        f"{mm}.linear.iterations": metric(count(f"{mm}.linear.iterations"), "count"),
        f"{mm}.linear.converged_share": metric(share(
            count(f"{mm}.linear.converged"), count(f"{mm}.linear.iterative_fits")), "1"),
        f"{mm}.gradient_boosting.rounds_trained": metric(
            count(f"{mm}.gradient_boosting.rounds_trained"), "count"),
        f"{mm}.gradient_boosting.kept_share": metric(share(
            count(f"{mm}.gradient_boosting.rounds_kept"),
            count(f"{mm}.gradient_boosting.rounds_trained")), "1"),
        f"{mm}.shallow_nn.epochs": metric(count(f"{mm}.shallow_nn.epochs"), "count"),
        f"{mm}.shallow_nn.best_epoch_share": metric(share(
            count(f"{mm}.shallow_nn.best_epoch"), count(f"{mm}.shallow_nn.epochs")), "1"),
        f"{mm}.shallow_lstm.epochs": metric(count(f"{mm}.shallow_lstm.epochs"), "count"),
        f"{mm}.predict_s": metric(self_s(f"{mm}.predict"), "s"),
        "cli.track_s": metric(span_s("cli.track"), "s"),
        "cli.extract_s": metric(span_s("cli.extract"), "s"),
        "cli.dataset_s": metric(span_s("cli.dataset"), "s"),
    })
    for phase, layers in SHARE_LAYERS.items():
        wall = span_s(f"bench.{phase}")
        for layer in layers:
            busy = sum(t for n, p, t in selfs if p == phase and tracing.layer_of(n) == layer)
            out[f"share.{phase}.{layer}"] = metric(share(busy, wall), "1")
    for i, name in enumerate(("chain", "grid")):
        out[f"trace.{name}_untraced_s"] = metric(untraced[i], "s")
        out[f"trace.{name}_overhead_s"] = metric(traced[i] - untraced[i], "s")
        out[f"trace.{name}_overhead_share"] = metric(
            share(traced[i] - untraced[i], untraced[i]), "1")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "segquality", "__init__.py")):
        print(f"error: {SRC}/segquality not found; run from the root of a "
              "segquality checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks
    import workloads
    from segquality import tensor_io

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    run_name = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    paths = workloads.Paths(os.path.join(ROOT, ".perfbench_work", f"{run_name}-{os.getpid()}"))
    reference = checks.load_reference(wl.name, args.seed)
    if reference is None:
        print(f"warning: reference.json has no values for {wl.name} seed {args.seed}; "
              "the reference comparisons are skipped", file=sys.stderr)
    tally = Tally()
    tracer = None
    try:
        repeats = SETUP_REPEATS if args.trace == 0 else 1
        setup_times = [workloads.generate(wl, args.seed, paths) for _ in range(repeats)]
        num_classes = tensor_io.read_manifest(paths.manifest).num_classes
        ctx = Context(wl, args.seed, paths, num_classes, reference, tally)
        if args.trace:
            metrics, details, tracer = traced_run(ctx)
        else:
            metrics, details = untraced_run(ctx, args.seconds, setup_times)
    finally:
        shutil.rmtree(paths.root, ignore_errors=True)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    machine = machine_info()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "details": details,
              "reference_checked": reference is not None,
              "failures": tally.messages, "result": result}
    if tracer is not None:
        record["trace_spans"] = tracer.to_json()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{run_name}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(f"machine: {json.dumps(machine)}", file=sys.stderr)
    for message in tally.messages:
        print(f"failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
