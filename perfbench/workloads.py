"""Workload definitions and the three timed operations every workload runs.

A round is the user's batch CLI chain (track -> extract -> dataset), the
online no-ground-truth path frame by frame, and the meta-model grid over the
dataset the chain wrote.  Each workload sizes these differently so that a
different layer dominates; BENCHMARK.json and README.md record why each one
exists.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time
from dataclasses import dataclass, field

from segquality import cli, dataset, evaluation, pipeline, synth, tensor_io, tracking
from segquality.dataset import SplitSpec
from segquality.meta_models import TASKS

# Stability maps the chain extracts (`extract --m 9`); the synthetic streams
# have 10 cell-state blocks, so 9 is every map.
NUM_STABILITY = 9


@dataclass(frozen=True)
class GridPart:
    """One `run_experiment` call: families x both tasks x m values, one split."""

    families: tuple
    m_values: tuple
    sample_size: int | None = None

    def split_spec(self, seed: int) -> SplitSpec:
        return SplitSpec(sample_size=self.sample_size, runs=1, base_seed=seed)

    def fits(self) -> int:
        return len(self.families) * len(TASKS) * len(self.m_values)


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict
    history: int
    grid: tuple  # GridPart, ...

    def synth_config(self, seed: int) -> synth.SynthConfig:
        return synth.SynthConfig(seed=seed, **self.synth)

    def fits(self) -> int:
        return sum(part.fits() for part in self.grid)


# Fits use the program's default ModelSpec (only family, task and the split
# seed vary), so networks stop early where the program would.
# stream-small's grid is not what it is about: it runs at m=9 on a sub-sample,
# cheap and steady from seed to seed (classification is saturated there, R^2 is
# high).  It leaves out the LSTM, which sees length-1 sequences at T=0 and
# whose early-stopping epoch moved that grid's time by 12% between seeds.
# train-series fits all four families and measures model quality at m=0.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stream-small",
            synth={},
            history=0,
            grid=(GridPart(("linear", "gradient_boosting", "shallow_nn"), (9,), sample_size=600),),
        ),
        Workload(
            name="train-series",
            synth={"num_frames": 100},
            history=2,
            grid=(
                GridPart(("shallow_lstm", "shallow_nn"), (0, 9)),
                GridPart(("linear", "gradient_boosting"), (0,)),
            ),
        ),
    )
}


@dataclass
class Paths:
    root: str

    def __post_init__(self):
        self.stream = os.path.join(self.root, "stream")
        self.manifest = os.path.join(self.stream, "manifest.json")
        self.tracking = os.path.join(self.root, "tracking.csv")
        self.features = os.path.join(self.root, "features.csv")
        self.dataset = os.path.join(self.root, "dataset.csv")
        self.header = os.path.join(self.root, "dataset.json")


def generate(workload: Workload, seed: int, paths: Paths) -> float:
    """Write the workload's stream; returns the seconds it took."""
    start = time.perf_counter()
    synth.generate_stream(workload.synth_config(seed), paths.stream)
    return time.perf_counter() - start


def chain_stages(workload: Workload, paths: Paths, num_classes: int):
    """The CLI argument lists of the batch chain, in order."""
    return [
        ("track", ["track", "--manifest", paths.manifest, "--out", paths.tracking]),
        (
            "extract",
            [
                "extract", "--manifest", paths.manifest, "--out", paths.features,
                "--m", str(NUM_STABILITY), "--tracking", paths.tracking,
            ],
        ),
        (
            "dataset",
            [
                "dataset", "--features", paths.features, "--tracking", paths.tracking,
                "--out", paths.dataset, "--header", paths.header,
                "--classes", str(num_classes), "--m", str(NUM_STABILITY),
                "--history", str(workload.history),
            ],
        ),
    ]


@dataclass
class ChainResult:
    seconds: float
    errors: dict = field(default_factory=dict)  # stage -> message


def no_span(name: str):
    return contextlib.nullcontext()


def run_chain(workload: Workload, paths: Paths, num_classes: int, span=no_span) -> ChainResult:
    """Run track -> extract -> dataset in-process through `cli.main`."""
    errors = {}
    start = time.perf_counter()
    for stage, args in chain_stages(workload, paths, num_classes):
        try:
            with span(f"cli.{stage}"), contextlib.redirect_stdout(io.StringIO()):
                cli.main(args, standalone_mode=False)
        except Exception as exc:  # a failed stage is counted, the run goes on
            errors[stage] = f"{type(exc).__name__}: {exc}"
    return ChainResult(time.perf_counter() - start, errors)


# Frames of the online path per round.  A stream shorter than this is run in
# several passes, each from a fresh tracker, so every workload's latency
# percentiles rest on as many frames.
MIN_ROUND_FRAMES = 300


class OnlinePath:
    """The online, no-ground-truth path over the stream, one frame at a time.

    Frames run in chunks (`run_until`), so a round can spread them over its
    whole duration; the tracker state carries over between chunks and starts
    afresh with each pass over the stream.
    """

    def __init__(self, paths: Paths):
        self.manifest = tensor_io.read_manifest(paths.manifest)
        passes = -(-MIN_ROUND_FRAMES // self.manifest.num_frames)
        self.total = passes * self.manifest.num_frames
        self.state = tracking.TrackState()
        self.params = tracking.TrackingParams()
        self.latencies = []
        self.outputs = []  # per step: (rows, assignments), or None if it raised
        self.errors = {}  # step -> message

    def run_until(self, stop: int, span=no_span) -> None:
        """Read, extract without ground truth, and track frames up to step `stop`."""
        shape = (self.manifest.height, self.manifest.width)
        for step in range(len(self.outputs), stop):
            index = step % self.manifest.num_frames
            if index == 0:
                self.state = tracking.TrackState()
            start = time.perf_counter()
            try:
                with span("bench.frame"):
                    softmax = self.manifest.load_softmax(index)
                    cell_stack = self.manifest.load_cell_state(index)
                    segments, rows = pipeline.extract_frame(
                        softmax, cell_stack, None, index, NUM_STABILITY
                    )
                    assignments = tracking.track_frame(
                        self.state, segments, index, self.params, shape
                    )
                self.outputs.append((rows, assignments))
            except Exception as exc:
                self.errors[step] = f"{type(exc).__name__}: {exc}"
                self.outputs.append(None)
            self.latencies.append(time.perf_counter() - start)


@dataclass
class GridResult:
    seconds: float
    fits: int  # cells the grid should train
    cells: dict = field(default_factory=dict)  # "family/task/m" -> {metric: mean}
    error: str | None = None

    def mean(self, task: str, name: str) -> float:
        values = [m[name] for key, m in self.cells.items() if key.split("/")[1] == task]
        return sum(values) / len(values) if values else math.nan

    @property
    def auroc(self) -> float:
        return self.mean("classification", "auroc")

    @property
    def r2(self) -> float:
        return self.mean("regression", "r2")


def run_grid(workload: Workload, seed: int, paths: Paths) -> GridResult:
    """Read the chain's dataset and time `run_experiment` over each grid part."""
    result = GridResult(0.0, workload.fits())
    try:
        table = dataset.read_dataset(paths.dataset, paths.header)
    except Exception as exc:
        result.error = f"read: {type(exc).__name__}: {exc}"
        return result
    for part in workload.grid:
        start = time.perf_counter()
        try:
            report = evaluation.run_experiment(
                table,
                list(part.families),
                list(TASKS),
                list(part.m_values),
                part.split_spec(seed),
                include_baselines=False,
                workers=1,
            )
        except Exception as exc:
            result.error = f"{type(exc).__name__}: {exc}"
            return result
        finally:
            result.seconds += time.perf_counter() - start
        for cell in report.cells:
            key = f"{cell.family}/{cell.task}/{cell.num_stability}"
            result.cells[key] = {name: mean for name, (mean, _) in cell.metrics.items()}
    return result
