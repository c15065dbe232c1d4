"""The repository's benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload pa64_flat --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced calls with calls traced from outside
(see ``spans.py``) and reports per-layer metrics, self-time tables, the
tracing overhead and a Chrome trace file.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 1 when any output check failed, 2 when
the program cannot be found.

Every run is hermetic: a fresh model cache and temp directory under
``perfbench/results/tmp``, BLAS pinned to one thread, and at most
``min(2, nproc)`` worker processes.  Each run appends one record, with
its provenance, to ``perfbench/results/history.jsonl``.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread per process, set before numpy is first imported: two
# pool workers would otherwise oversubscribe two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import host  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("pa64_flat", "pa64_hier", "fleet_ota", "train_ota")
#: Cold set-ups per run whose median is ``setup_s``: this process's own
#: plus fresh child processes.
SETUP_SAMPLES = 3
MIN_OPS = 3
MIN_TRACED_OPS = 2

#: Metric → (unit, meaning).  ``--trace 0`` prints exactly these.  Times
#: are scaled to the reference host (see ``host.Calibration``).
END_TO_END = {
    "setup_s": ("s", "process start to the first timed call; median of "
                f"{SETUP_SAMPLES} cold set-ups"),
    "call_s.p50": ("s", "median wall-clock of one timed call: run() per "
                   "pa64 deck, run_many() per fleet, per epoch of a "
                   "training run"),
    "peak_rss_mb": ("MB", "peak resident set of the benchmark process"),
    "accuracy": ("ratio", "final-class accuracy against generator truth; "
                 "best validation accuracy for train_ota; agreement with "
                 "the flat path for pa64_hier"),
}
#: The everyday names of ``call_s.p50``, its throughput view and
#: ``accuracy`` on each workload, printed alongside.  Throughput is
#: items per call over the median call: a mean over the window follows
#: the host's slow phases and spread twice as much between runs.
ALIASES = {
    "pa64_flat": ("deck_s.p50", "decks_per_s", "label_accuracy"),
    "pa64_hier": ("deck_s.p50", "decks_per_s", "flat_agreement"),
    "fleet_ota": ("run_many_s.p50", "decks_per_s", "label_accuracy"),
    "train_ota": ("epoch_s.p50", "epochs_per_s", "val_accuracy"),
}


@dataclass
class Tally:
    """Operations attempted and failed, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += min(len(problems), attempted)
        self.problems += problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument(
        "--record-goldens", action="store_true",
        help="write this run's reference outputs to goldens.json instead "
        "of checking them (seed 0; only for an intended output change)",
    )
    args = parser.parse_args(argv)
    if args.record_goldens and args.seed != 0:
        parser.error("--record-goldens records seed 0 only")
    return args


def child_setup_seconds(args) -> float:
    """One cold set-up in a fresh process, imports included."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(seconds, workload, tracer, calibration, tally):
    """Timed calls until ``seconds`` have passed, a calibration pass
    after each; with a tracer, untraced and traced calls alternate.
    Returns both lists of calls and the run's host scale."""
    untraced, traced, passes = [], [], []
    calls = [0, 0]  # untraced, traced; failed calls included
    deadline = time.perf_counter() + seconds
    while True:
        use_trace = tracer is not None and calls[1] < calls[0]
        calls[use_trace] += 1
        if use_trace:
            tracer.install()
        try:
            op = workload.op()
        except Exception as exc:  # a raise fails the operation, not the run
            tally.add(1, [f"{type(exc).__name__}: {exc}"])
            op = None
        finally:
            if use_trace:
                tracer.remove()
        passes.append(calibration.seconds())
        if op is not None:
            tally.add(op.attempted, op.problems)
            (traced if use_trace else untraced).append(op)
        if (
            time.perf_counter() >= deadline
            and calls[0] >= MIN_OPS
            and (tracer is None or calls[1] >= MIN_TRACED_OPS)
        ):
            break
    scale = host.CALIBRATION_REFERENCE_S / statistics.median(passes)
    return untraced, traced, scale


def median_call_s(workload, ops, factor=1.0) -> float:
    """Median seconds per call (per epoch for training), times ``factor``."""
    per_epoch = workload.item == "epoch"
    return factor * statistics.median(
        op.seconds / op.items if per_epoch else op.seconds for op in ops
    )


def traced_report(workload, tracer, untraced, traced, tally):
    """Per-layer metrics, tables and the Chrome trace of a traced run."""
    import report
    import workloads
    from repro.runtime.parallel import pool_health
    from spans import Tracer, write_chrome_trace

    items = sum(op.items for op in traced)
    values = report.per_item_layers(
        workload.name, tracer, items, traced[-1].hier
    )
    lines = report.layer_table(tracer, items, f"{len(traced)} traced calls")
    tracers = {f"{workload.name} traced calls": tracer}
    extra: dict = {}
    if workload.name == "fleet_ota":
        # Pool workers' spans are invisible from here: the layer split
        # comes from one serial pass of the same fleet, in this process.
        serial = Tracer()
        serial.install()
        try:
            op = workload.op(workers=1)
        finally:
            serial.remove()
        tally.add(op.attempted, op.problems)
        parent_map_s = values["runtime.parallel_map_s"]
        values = report.per_item_layers(workload.name, serial, op.items, {})
        values["runtime.parallel_map_s"] = parent_map_s
        lines += report.layer_table(serial, op.items,
                                    "SERIAL workers=1 pass of the fleet")
        tracers["fleet_ota serial workers=1 pass"] = serial
    for health in pool_health().values():
        values["runtime.pool_breaks"] += health.breaks
        values["runtime.pool_rebuilt"] += health.rebuilt
    traced_s = median_call_s(workload, traced)
    untraced_s = median_call_s(workload, untraced)
    values["trace.overhead_frac"] = traced_s / untraced_s - 1
    lines.append(
        f"tracing overhead: call_s.p50 traced {traced_s:.5f} s vs untraced "
        f"{untraced_s:.5f} s ({values['trace.overhead_frac']:+.1%}; "
        f"{len(traced)} traced and {len(untraced)} untraced calls, "
        f"interleaved, unscaled)"
    )
    if workload.name == "train_ota":
        lines.append(report.training_split(values, traced_s))
    if workload.name == "pa64_flat":
        extra["scaling"] = workloads.scaling_table(
            workload.pipeline, workload.seed
        )
        lines += report.sec5b_table(values, extra["scaling"])
    path = RESULTS / (
        f"trace-{workload.name}-seed{workload.seed}-{os.getpid()}.json"
    )
    write_chrome_trace(path, tracers)
    lines.append(f"chrome trace: {path.relative_to(ROOT)}")
    units = {name: unit for name, (unit, _) in report.PER_LAYER.items()}
    return values, units, lines, extra


def end_to_end_report(args, workload, untraced, scale, setup, tally):
    """The end-to-end metrics of an untraced run."""
    from repro.runtime.parallel import shutdown_pools

    setup_s, setup_peak_mb, table_mb = setup
    shutdown_pools(wait=True)
    samples = [setup_s] + [
        child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)
    ]
    accuracies = [op.accuracy for op in untraced if op.accuracy is not None]
    metrics = {
        "setup_s": statistics.median(samples),
        "call_s.p50": median_call_s(workload, untraced, scale),
        "peak_rss_mb": max(setup_peak_mb,
                           host.memory_mb("VmHWM") - table_mb),
        "accuracy": statistics.median(accuracies) if accuracies else 0.0,
    }
    latency, throughput, quality = ALIASES[workload.name]
    per_call = 1 if workload.item == "epoch" else untraced[0].items
    lines = [
        f"  also known as: {latency} = {metrics['call_s.p50']:.5f} s "
        f"(median of {len(untraced)} calls), {throughput} = "
        f"{per_call / metrics['call_s.p50']:.4f} 1/s, {quality} = "
        f"{metrics['accuracy']:.4f}, fail_frac = "
        f"{tally.failed}/{tally.attempted}",
        f"  unscaled: call_s.p50 = {median_call_s(workload, untraced):.5f} s; "
        f"host scale {scale:.4f} (calibration reference "
        f"{host.CALIBRATION_REFERENCE_S} s); set-up samples "
        + ", ".join(f"{x:.3f}" for x in samples) + " s",
    ]
    extra = {
        "setup_samples": samples,
        "call_seconds": [op.seconds for op in untraced],
        "host_scale": scale,
    }
    units = {name: unit for name, (unit, _) in END_TO_END.items()}
    return metrics, units, lines, extra


def run_workload(args) -> int:
    """Run one workload in a fresh work directory, removed afterwards."""
    (RESULTS / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS / "tmp"))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = None
    os.environ["GANA_CACHE_DIR"] = str(workdir / "model-cache")
    os.environ["GANA_WORKERS"] = str(host.worker_count())
    os.environ.pop("GANA_NO_CACHE", None)
    sys.path.insert(0, str(SRC))
    try:
        return _run_in(args, workdir)
    finally:
        parallel = sys.modules.get("repro.runtime.parallel")
        if parallel is not None:
            parallel.shutdown_pools(wait=True)
        shutil.rmtree(workdir, ignore_errors=True)


def _run_in(args, workdir: Path) -> int:
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from repro.runtime.parallel import shutdown_pools
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload](
        args.seed, host.worker_count(), workdir
    )
    workload.setup()
    setup_s = host.process_age()
    # The calibration table is the benchmark's, not the program's: keep
    # it out of the reported peak resident set.
    setup_peak_mb, before_mb = host.memory_mb("VmHWM"), host.memory_mb("VmRSS")
    calibration = host.Calibration()
    table_mb = host.memory_mb("VmRSS") - before_mb
    setup_s *= calibration.scale()
    if args.setup_only:
        shutdown_pools(wait=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = Tally()
    tracer = Tracer() if args.trace else None
    untraced, traced, scale = measure(
        args.seconds, workload, tracer, calibration, tally
    )
    if not untraced or (tracer is not None and not traced):
        print("error: every timed call failed:", *tally.problems[:5],
              sep="\n  ", file=sys.stderr)
        return 1
    checks = workload.checks()
    reference = workload.reference()
    if args.record_goldens and reference:
        goldens = workloads.load_goldens()
        goldens[workload.name] = reference
        with open(workloads.GOLDENS_PATH, "w") as handle:
            json.dump(goldens, handle, indent=1, sort_keys=True)
            handle.write("\n")
    elif reference:
        checks += workloads.golden_problems(
            workload.name, reference, workloads.load_goldens()
        )
    tally.add(1, checks)

    if args.trace:
        metrics, units, lines, extra = traced_report(
            workload, tracer, untraced, traced, tally
        )
    else:
        metrics, units, lines, extra = end_to_end_report(
            args, workload, untraced, scale,
            (setup_s, setup_peak_mb, table_mb), tally,
        )
    correct = tally.failed == 0
    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"workers={workload.workers} item={workload.item}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:14.6f} {units[name]}")
    print(*lines, sep="\n")
    for problem in tally.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": host.provenance(ROOT, SRC),
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:20],
        "metrics": metrics,
        **extra,
    }
    with open(RESULTS / "history.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        print(*lines[:-1], sep="\n")
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {done.returncode}",
                  file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
