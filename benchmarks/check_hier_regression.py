"""CI smoke check: hierarchy-scoped annotation must beat per-CCC matching.

Runs the quick-trained RF pipeline on the hierarchical phased array
(one ``channel`` subckt definition instantiated N times) and compares
the ``post1`` (primitive annotation) stage wall-clock of three runs:

* ``reference`` — the flat path with every CCC matched on its own
  (:func:`repro.testing.reference.per_ccc_annotate_components`);
* ``flat`` — the production flat path, which matches each distinct CCC
  shape once;
* ``hier`` — the ``--hier`` path, which matches each unique definition
  once and replays the match sets onto every sibling instance.

``hier`` must beat ``reference`` by at least ``--factor`` (default 2x)
warm, and ``flat`` by at least ``FLAT_FACTOR`` (2x); the hier-over-flat
ratio is printed.  No run uses an artifact cache: the speedups measured
here are pure in-run dedup, not disk-cache hits.

With ``--commit`` the measurement also lands in ``BENCH_runtime.json``
under ``hier_annotation`` (the committed baseline CI compares against).

Usage::

    PYTHONPATH=src python benchmarks/check_hier_regression.py
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from _common import load_pipeline, per_ccc_matching, update_bench_json

#: Repeated channel instances — well above the ISSUE's >= 8 floor so
#: the per-unique-definition costs (one representative walk, one packed
#: definition forward) amortize visibly.
N_CHANNELS = 16

#: Flat post1 must beat the per-CCC reference by this factor: CCC shape
#: sharing alone is worth more than 2x on a repeated-channel design.
FLAT_FACTOR = 2.0


def measure(reps: int) -> dict:
    from repro.core.stages import pipeline_result_fingerprint
    from repro.datasets.systems import phased_array_hier

    pipeline = load_pipeline("rf")
    netlist, port_labels = phased_array_hier(n_channels=N_CHANNELS)

    # Warm both paths (library match profiles, predicate memos) before
    # timing anything, and assert byte-identity while at it.
    flat = pipeline.run(netlist, port_labels=port_labels, name="pa_hier")
    hier = pipeline.run(
        netlist, port_labels=port_labels, name="pa_hier", hier=True
    )
    if pipeline_result_fingerprint(flat) != pipeline_result_fingerprint(hier):
        raise AssertionError(
            "--hier produced a different annotation than the flat path"
        )

    def timed_post1(hier_mode: bool) -> float:
        result = pipeline.run(
            netlist,
            port_labels=port_labels,
            name="pa_hier",
            hier=hier_mode,
        )
        return result.timings["post1"]

    def timed_reference_post1() -> float:
        with per_ccc_matching():
            return timed_post1(False)

    # Interleave the modes so CPU-frequency / scheduler drift hits all
    # equally, and keep the collector out of the timed region — the
    # best-of then compares like with like.
    reference_s = flat_s = hier_s = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(reps):
            reference_s = min(reference_s, timed_reference_post1())
            flat_s = min(flat_s, timed_post1(False))
            hier_s = min(hier_s, timed_post1(True))
    finally:
        gc.enable()
    report = hier.hier
    return {
        "n_channels": N_CHANNELS,
        "reference_post1_s": round(reference_s, 6),
        "flat_post1_s": round(flat_s, 6),
        "hier_post1_s": round(hier_s, 6),
        "speedup": round(reference_s / hier_s, 3),
        "flat_speedup": round(reference_s / flat_s, 3),
        "hier_over_flat": round(flat_s / hier_s, 3),
        "interior_cccs": report.interior,
        "reused": report.reused,
        "replayed": report.replayed,
        "guard_failures": report.guard_failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="fail when hier post1 is not FACTOR x faster than the "
        "per-CCC reference (default 2)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=5,
        help="runs per mode; the fastest post1 of each is compared "
        "(default 5)",
    )
    parser.add_argument(
        "--commit",
        action="store_true",
        help="also write the measurement to BENCH_runtime.json",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    stats = measure(args.reps)
    elapsed = time.perf_counter() - started
    print(
        f"hier annotation ({stats['n_channels']} channels): "
        f"per-CCC reference post1 {stats['reference_post1_s']:.4f}s vs hier "
        f"{stats['hier_post1_s']:.4f}s -> {stats['speedup']:.2f}x "
        f"(gate {args.factor:.1f}x); vs flat "
        f"{stats['flat_post1_s']:.4f}s -> {stats['flat_speedup']:.2f}x "
        f"(gate {FLAT_FACTOR:.1f}x); hier over flat "
        f"{stats['hier_over_flat']:.2f}x (reused {stats['reused']}/"
        f"{stats['interior_cccs']} interior CCCs, "
        f"{stats['guard_failures']} guard failures; "
        f"{args.reps} reps/mode in {elapsed:.1f}s)"
    )
    if args.commit:
        update_bench_json("hier_annotation", stats)
        print("committed to BENCH_runtime.json [hier_annotation]")
    failed = False
    if stats["speedup"] < args.factor:
        print("FAIL: --hier did not beat the per-CCC reference by the gate factor")
        failed = True
    if stats["flat_speedup"] < FLAT_FACTOR:
        print("FAIL: flat post1 did not beat the per-CCC reference by the gate factor")
        failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
