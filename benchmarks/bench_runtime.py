"""Sec. V-B runtime — annotation wall-clock per stage.

Paper (Intel Core i7 @ 2.6 GHz, 8 cores, 32 GB): 135 s for the
switched-capacitor filter, 514 s for the phased array, postprocessing
< 30 s; "dominated by the runtime of the GCN".

Our numby GCN does inference only (training is offline), so absolute
numbers are far smaller; the *shape* claims checked here:

* the phased array costs more than the SC filter,
* postprocessing stays a small fraction of the total,
* runtime scales roughly linearly in vertex count across phased-array
  sizes (the pipeline is O(K·E) + O(n) postprocessing).
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks._common import (
    BENCH_JSON,
    load_pipeline,
    update_bench_json,
    write_result,
)
from repro.core.stages import TIMING_STAGES
from repro.datasets.systems import phased_array, switched_cap_filter

__all__ = ["BENCH_JSON", "update_bench_json"]  # re-exported from _common


@pytest.fixture(scope="module")
def pipelines():
    return load_pipeline("ota"), load_pipeline("rf")


def _timed_run(pipeline, system):
    start = time.perf_counter()
    result = pipeline.run(
        system.circuit, port_labels=system.port_labels, name=system.name
    )
    total = time.perf_counter() - start
    return result, total


def bench_runtime_pipeline_stages(benchmark, pipelines):
    ota_pipe, rf_pipe = pipelines
    sc = switched_cap_filter()
    pa = phased_array()

    sc_result, sc_total = _timed_run(ota_pipe, sc)
    pa_result, pa_total = _timed_run(rf_pipe, pa)

    benchmark.pedantic(
        lambda: rf_pipe.run(pa.circuit, port_labels=pa.port_labels),
        rounds=3,
        iterations=1,
    )

    lines = [
        "{:<28} {:>10} {:>10}".format("stage", "SC filter", "phased array"),
    ]
    for stage in TIMING_STAGES:
        lines.append(
            "{:<28} {:>9.4f}s {:>9.4f}s".format(
                stage, sc_result.timings[stage], pa_result.timings[stage]
            )
        )
    lines.append("{:<28} {:>9.4f}s {:>9.4f}s".format("total", sc_total, pa_total))
    lines.append("")
    lines.append("paper (authors' host): 135s SC filter, 514s phased array,")
    lines.append("postprocessing < 30s; runtime dominated by the GCN stage")
    write_result("runtime", "\n".join(lines))
    update_bench_json(
        "pipeline_stages",
        {
            "sc_filter": {**sc_result.timings, "total": sc_total},
            "phased_array": {**pa_result.timings, "total": pa_total},
        },
    )

    # Shape: the bigger circuit costs more end to end.
    assert pa_total > sc_total
    # Postprocessing is a bounded share of the total (paper: <30/514).
    pa_post = pa_result.timings["post1"] + pa_result.timings["post2"]
    assert pa_post <= 0.9 * pa_total


def bench_runtime_scaling_with_size(benchmark, pipelines):
    """Pipeline wall-clock grows sublinearly-to-linearly in channels."""
    _ota_pipe, rf_pipe = pipelines
    times: dict[int, float] = {}
    sizes: dict[int, int] = {}
    for n_channels in (2, 4, 8):
        system = phased_array(n_channels=n_channels)
        result, total = _timed_run(rf_pipe, system)
        times[n_channels] = total
        sizes[n_channels] = result.graph.n_vertices

    benchmark.pedantic(
        lambda: rf_pipe.run(
            phased_array(n_channels=2).circuit,
        ),
        rounds=2,
        iterations=1,
    )

    lines = ["{:>9} {:>9} {:>10}".format("channels", "vertices", "seconds")]
    for n_channels in (2, 4, 8):
        lines.append(
            "{:>9} {:>9} {:>9.4f}s".format(
                n_channels, sizes[n_channels], times[n_channels]
            )
        )
    write_result("runtime_scaling", "\n".join(lines))

    # 4× the channels should cost well under 16× (i.e. far from quadratic).
    assert times[8] <= 16 * max(times[2], 1e-3)
    assert times[8] >= times[2] * 0.5  # monotone-ish, allowing noise

    update_bench_json(
        "scaling",
        {
            "seconds_by_channels": {str(k): v for k, v in times.items()},
            "vertices_by_channels": {str(k): v for k, v in sizes.items()},
        },
    )


def bench_runtime_model_cache(benchmark, tmp_path, monkeypatch):
    """Second ``pretrained()`` call must be a cache hit ≥ 5× faster.

    The paper retrains nothing at annotation time; neither should we.
    A fresh cache dir isolates the measurement: the first call trains
    and stores, the second call is a millisecond ``np.load``.
    """
    from repro.core.pipeline import GanaPipeline

    monkeypatch.setenv("GANA_CACHE_DIR", str(tmp_path / "bench-cache"))
    spec = dict(task="ota", quick=True, train_size=48, seed=17)

    start = time.perf_counter()
    cold_pipe = GanaPipeline.pretrained(**spec)
    cold = time.perf_counter() - start

    start = time.perf_counter()
    warm_pipe = GanaPipeline.pretrained(**spec)
    warm = time.perf_counter() - start

    benchmark.pedantic(
        lambda: GanaPipeline.pretrained(**spec), rounds=3, iterations=1
    )

    speedup = cold / max(warm, 1e-9)
    lines = [
        f"pretrained() cold (trains + stores): {cold:9.4f}s",
        f"pretrained() warm (cache hit):       {warm:9.4f}s",
        f"speedup:                             {speedup:9.1f}x",
    ]
    write_result("runtime_model_cache", "\n".join(lines))
    update_bench_json(
        "model_cache",
        {
            "cold_seconds": cold,
            "warm_seconds": warm,
            "speedup": speedup,
            # Native JSON types: a str()-formatted spec ("True", "17")
            # could not be fed back into pretrained() without hitting a
            # different cache key than the run it records.
            "spec": dict(spec),
        },
    )

    # Same vocabulary and config either way.
    assert warm_pipe.class_names == cold_pipe.class_names
    assert speedup >= 5.0


#: post1 wall-clock on the phased array before the signature-index /
#: CCC-scoping rework (commit 42ca62e's committed BENCH_runtime.json,
#: quick scale, 1-CPU host) — the fixed reference the ≥5x tentpole
#: speedup target is measured against.
PRE_INDEX_POST1_SECONDS = 0.26375


def bench_runtime_post1_matching(benchmark, pipelines):
    """Primitive matching (post1): indexed hot path vs. naive VF2.

    The indexed path (template profiles + signature candidate pruning +
    per-CCC scoping + symmetry breaking) must produce *identical*
    results to the naive reference matcher
    (``repro.testing.reference.naive_annotate_components``, swapped in
    for ``annotate_components`` inside whole ``postprocess_ccc`` calls)
    and beat the pre-index baseline by ≥5x; the per-template profile
    shows where the remaining time goes.
    """
    from contextlib import contextmanager

    from repro.core import postprocess
    from repro.core.postprocess import postprocess_ccc
    from repro.graph.ccc import channel_connected_components
    from repro.runtime.profile import PipelineProfiler
    from repro.testing.reference import naive_annotate_components

    @contextmanager
    def matching(naive: bool):
        indexed_matcher = postprocess.annotate_components
        if naive:
            postprocess.annotate_components = naive_annotate_components
        try:
            yield
        finally:
            postprocess.annotate_components = indexed_matcher

    _ota_pipe, rf_pipe = pipelines
    system = phased_array()
    run = rf_pipe.run(
        system.circuit, port_labels=system.port_labels, name=system.name
    )
    annotation = run.gcn_annotation
    partition = channel_connected_components(annotation.graph)

    with matching(naive=True):
        naive = postprocess_ccc(
            annotation, rf_pipe.library, partition=partition
        )
    profiler = PipelineProfiler()
    indexed = postprocess_ccc(
        annotation,
        rf_pipe.library,
        partition=partition,
        profiler=profiler,
    )
    # Bit-identical annotations, match lists included.
    assert (
        naive.annotation.vertex_classes == indexed.annotation.vertex_classes
    ).all()
    assert naive.ccc_classes == indexed.ccc_classes
    assert naive.ccc_matches == indexed.ccc_matches

    def best_of(naive, reps=5):
        best = float("inf")
        with matching(naive):
            for _ in range(reps):
                start = time.perf_counter()
                postprocess_ccc(annotation, rf_pipe.library, partition=partition)
                best = min(best, time.perf_counter() - start)
        return best

    naive_seconds = best_of(naive=True)
    indexed_seconds = best_of(naive=False)

    benchmark.pedantic(
        lambda: postprocess_ccc(
            annotation, rf_pipe.library, partition=partition
        ),
        rounds=3,
        iterations=1,
    )

    live_speedup = naive_seconds / max(indexed_seconds, 1e-9)
    baseline_speedup = PRE_INDEX_POST1_SECONDS / max(indexed_seconds, 1e-9)
    per_template = profiler.as_dict()["per_template"]
    lines = [
        f"naive full-setup VF2:     {naive_seconds:9.4f}s",
        f"indexed + CCC-scoped:     {indexed_seconds:9.4f}s",
        f"speedup (live naive):     {live_speedup:9.2f}x",
        f"speedup (vs pre-index):   {baseline_speedup:9.2f}x"
        f"  (baseline {PRE_INDEX_POST1_SECONDS}s)",
        "",
        "{:<12} {:>8} {:>8} {:>8} {:>10}".format(
            "template", "launches", "matches", "skips", "seconds"
        ),
    ]
    for name, stats in per_template.items():
        lines.append(
            "{:<12} {:>8} {:>8} {:>8} {:>9.4f}s".format(
                name,
                stats["launches"],
                stats["matches"],
                stats["skips"],
                stats["seconds"],
            )
        )
    write_result("runtime_post1_matching", "\n".join(lines))
    update_bench_json(
        "post1_matching",
        {
            "naive_seconds": naive_seconds,
            "indexed_seconds": indexed_seconds,
            "live_speedup": live_speedup,
            "pre_index_baseline_seconds": PRE_INDEX_POST1_SECONDS,
            "baseline_speedup": baseline_speedup,
            "per_template": per_template,
        },
    )

    assert live_speedup >= 2.0
    assert baseline_speedup >= 5.0


def bench_runtime_batch_annotation(benchmark, pipelines):
    """``run_many`` over 8 netlists vs. the serial loop.

    On a multi-core host the pool must win by ≥ 1.5×; on a single-core
    host (no parallelism available) we only require parity-with-overhead
    and still record the measured ratio.
    """
    from repro.datasets.ota import generate_ota, ota_variants
    from repro.spice.writer import write_circuit

    ota_pipe, _rf_pipe = pipelines
    decks = [
        write_circuit(generate_ota(spec, name=f"fleet{i}").circuit)
        for i, spec in enumerate(ota_variants(8, seed="bench-batch"))
    ]
    names = [f"fleet{i}" for i in range(len(decks))]

    start = time.perf_counter()
    serial = [ota_pipe.run(d, name=n) for d, n in zip(decks, names)]
    serial_seconds = time.perf_counter() - start

    workers = os.cpu_count() or 1
    start = time.perf_counter()
    batch = ota_pipe.run_many(decks, names=names, workers=workers)
    batch_seconds = time.perf_counter() - start

    benchmark.pedantic(
        lambda: ota_pipe.run_many(decks, names=names, workers=workers),
        rounds=2,
        iterations=1,
    )

    speedup = serial_seconds / max(batch_seconds, 1e-9)
    lines = [
        f"netlists:              {len(decks)}",
        f"workers:               {workers}",
        f"serial run() loop:     {serial_seconds:9.4f}s",
        f"run_many():            {batch_seconds:9.4f}s",
        f"speedup:               {speedup:9.2f}x",
    ]
    write_result("runtime_batch_annotation", "\n".join(lines))
    update_bench_json(
        "batch_annotation",
        {
            "n_netlists": len(decks),
            "workers": workers,
            "serial_seconds": serial_seconds,
            "run_many_seconds": batch_seconds,
            "speedup": speedup,
        },
    )

    # Identical results, parallel or not.
    for got, want in zip(batch, serial):
        assert got.annotation.element_classes == want.annotation.element_classes
        assert set(got.timings) == set(want.timings)
    if workers > 1:
        assert speedup >= 1.5
    else:
        # Single-core host: the serial fallback must stay overhead-free.
        assert speedup >= 0.8


def bench_runtime_gcn_batching(benchmark):
    """Block-diagonal packed minibatches vs the per-sample training loop.

    Trains the quick OTA spec from one seed at several batch sizes —
    once with packed minibatches (one Chebyshev recurrence and one tall
    GEMM per layer per minibatch) and once with the per-sample
    reference loop (``repro.testing.reference.train_per_sample``).
    :func:`measure` asserts curve parity on every rep (same losses, same
    val-accuracy trajectory, same best epoch), so the ratio is a pure
    throughput comparison at matched accuracy.  The headline batch size
    must clear ≥2x epoch throughput; the quick spec (batch 8, what CI
    re-measures via ``check_batch_regression.py``) guards a 1.5x floor.
    """
    from benchmarks.check_batch_regression import EPOCHS, measure

    headline_batch = 32
    sweep = {bs: measure(reps=2, batch_size=bs) for bs in (8, 16, headline_batch)}
    quick = sweep[8]
    headline = sweep[headline_batch]

    benchmark.pedantic(
        lambda: measure(reps=1, batch_size=headline_batch),
        rounds=1,
        iterations=1,
    )

    lines = [
        "{:>11} {:>12} {:>12} {:>9} {:>10}".format(
            "batch size", "per-sample", "batched", "speedup", "epochs/s"
        ),
    ]
    for bs, stats in sorted(sweep.items()):
        lines.append(
            "{:>11} {:>11.4f}s {:>11.4f}s {:>8.2f}x {:>10.1f}".format(
                bs,
                stats["per_sample_seconds"],
                stats["batched_seconds"],
                stats["speedup"],
                stats["epochs_per_second_batched"],
            )
        )
    lines.append("")
    lines.append(
        f"{EPOCHS} epochs, quick OTA spec; identical loss/accuracy curves "
        f"(asserted); best val acc {headline['best_val_accuracy']:.4f}"
    )
    write_result("runtime_gcn_batching", "\n".join(lines))
    update_bench_json(
        "gcn_batching",
        {
            "quick_spec": quick,
            "by_batch_size": {str(bs): s for bs, s in sorted(sweep.items())},
            "headline_batch_size": headline_batch,
            "speedup": headline["speedup"],
            "epochs_per_second_batched": headline["epochs_per_second_batched"],
            "epochs_per_second_per_sample": headline[
                "epochs_per_second_per_sample"
            ],
        },
    )

    assert headline["speedup"] >= 2.0
    assert quick["speedup"] >= 1.5
