"""Slower reference twins of production code, kept only for comparison.

* :func:`run_monolith` — the pre-staged GANA flow as one function; the
  golden tests (``tests/core/test_stages.py``) and the
  ``staged_vs_monolith`` oracle assert ``GanaPipeline.run`` matches it.
* ``naive_*`` — primitive matching with per-call VF2 setup, no
  kind-histogram rejection and no symmetry breaking.  It shares match
  translation and overlap resolution with
  :mod:`repro.primitives.matcher`; ``tests/primitives/test_index.py``
  and the ``indexed_matching`` oracle assert exact equality.
* :func:`per_ccc_annotate_components` — CCC matching without the
  per-call shape memo; ``benchmarks/check_hier_regression.py`` and
  ``benchmarks/check_incremental_regression.py`` time it as their
  slow side.
* :func:`cross_entropy`, :func:`run_epoch_per_sample` and
  :func:`train_per_sample` — the per-sample GCN training loop that
  block-diagonal packing replaced; ``tests/gcn/test_batch.py`` and
  ``benchmarks/check_batch_regression.py`` compare training curves.
"""

from __future__ import annotations

import importlib

import numpy as np

from repro.core.pipeline import GanaPipeline, PipelineResult, build_hierarchy
from repro.core.postprocess import apply_port_rules, postprocess_ccc
from repro.gcn.loss import softmax
from repro.graph.bipartite import CircuitGraph
from repro.graph.features import NetRole
from repro.primitives.isomorphism import VF2Matcher
from repro.primitives.matcher import (
    AnnotationResult,
    PrimitiveMatch,
    annotate_primitives,
    claim_matches,
    collect_matches,
)
from repro.runtime.resilience import Diagnostic, stage
from repro.spice.flatten import flatten
from repro.spice.netlist import Circuit, Netlist, reset_power_net_memo
from repro.spice.parser import parse_netlist
from repro.spice.preprocess import preprocess


def run_monolith(
    pipeline: GanaPipeline,
    netlist: str | Netlist | Circuit,
    net_roles: dict[str, NetRole] | None = None,
    port_labels: dict[str, str] | None = None,
    name: str = "",
    infer_testbench: bool = True,
    mode: str = "strict",
    profile: bool = False,
) -> PipelineResult:
    """The pre-staged single-function implementation, kept verbatim.

    This is the behavioral reference for the staged runner: the golden
    tests assert ``pipeline.run`` produces a semantically identical
    :class:`~repro.core.pipeline.PipelineResult` on every example
    netlist.  Do not add features here — it exists to be compared
    against.
    """
    reset_power_net_memo()
    timings: dict[str, float] = {}
    diagnostics: list[Diagnostic] = []
    lenient = mode == "lenient"
    profiler = None
    if profile:
        from repro.runtime.profile import PipelineProfiler

        profiler = PipelineProfiler()

    with stage("preprocess", timings, diagnostics):
        with stage("parse", diagnostics=diagnostics):
            if isinstance(netlist, str):
                netlist = parse_netlist(netlist, mode=mode)
            if isinstance(netlist, Netlist):
                diagnostics.extend(netlist.diagnostics)
                flat = flatten(netlist, diagnostics=diagnostics if lenient else None)
            else:
                flat = netlist
        if infer_testbench and any(d.kind.is_source for d in flat.devices):
            from repro.core.testbench import infer_net_roles, infer_port_labels

            inferred_labels = infer_port_labels(flat)
            inferred_labels.update(port_labels or {})
            port_labels = inferred_labels
            inferred_roles = infer_net_roles(flat)
            inferred_roles.update(net_roles or {})
            net_roles = inferred_roles
        reduced, report = preprocess(flat)

    with stage("graph", timings, diagnostics):
        graph = CircuitGraph.from_circuit(reduced)

    degraded_reason: str | None = None
    with stage("gcn", timings, diagnostics):
        try:
            gcn_annotation = pipeline.annotator.annotate(graph, net_roles=net_roles)
        except Exception as exc:
            if not pipeline.degrade:
                raise
            degraded_reason = (
                f"GCN inference failed "
                f"({type(exc).__name__}: {exc}); fell back to the "
                f"template-library classifier"
            )
        else:
            if (
                pipeline.degrade
                and pipeline.confidence_floor > 0.0
                and gcn_annotation.probabilities is not None
                and graph.n_vertices > 0
            ):
                top = gcn_annotation.probabilities.max(axis=1)
                if float(top.max()) < pipeline.confidence_floor:
                    degraded_reason = (
                        f"every vertex confidence below the "
                        f"{pipeline.confidence_floor:g} floor; fell back "
                        f"to the template-library classifier"
                    )
        if degraded_reason is not None:
            gcn_annotation = pipeline._degraded_annotation(graph)

    with stage("post1", timings, diagnostics):
        post1 = postprocess_ccc(
            gcn_annotation,
            pipeline.library,
            detect_bpf=pipeline.detect_bpf,
            profiler=profiler,
        )

    with stage("post2", timings, diagnostics):
        post2 = apply_port_rules(post1, port_labels or {})

    with stage("hierarchy", timings, diagnostics):
        hierarchy, constraints = build_hierarchy(post2, system_name=name or flat.name)

    profile_dict = None
    if profiler is not None:
        for stage_name, seconds in timings.items():
            profiler.record_stage(stage_name, seconds)
        profile_dict = profiler.as_dict()

    return PipelineResult(
        graph=graph,
        gcn_annotation=gcn_annotation,
        post1=post1,
        post2=post2,
        hierarchy=hierarchy,
        constraints=constraints,
        preprocess_report=report,
        timings=timings,
        diagnostics=diagnostics,
        degraded=degraded_reason is not None,
        degraded_reason=degraded_reason,
        profile=profile_dict,
    )


def naive_find_primitive_matches(template, target, target_index=None) -> list[PrimitiveMatch]:
    """``find_primitive_matches`` with per-call setup, enumerate then
    deduplicate; ``target_index`` shares signature tables."""
    from repro.primitives.index import template_profile

    matcher = VF2Matcher(template.pattern, target, target_index=target_index, symmetry_break=False)
    # The profile only canonicalizes and names the raw mappings.
    return collect_matches(matcher, template_profile(template), target)


def naive_annotate_primitives(target, library, allow_overlap: bool = False) -> AnnotationResult:
    """``annotate_primitives`` launching the naive matcher for every
    template, largest first."""
    from repro.primitives.signatures import TargetIndex

    index = TargetIndex.build(target)
    found = [
        naive_find_primitive_matches(template, target, index)
        for template in library.by_size_desc()
    ]
    return claim_matches(target.elements, found, allow_overlap)


def naive_annotate_components(
    graph, partition, library, profiler=None, match_cache=None
) -> dict[int, AnnotationResult]:
    """Drop-in ``annotate_components`` over the naive matcher (the last
    two arguments are ignored)."""
    return {
        cid: naive_annotate_primitives(graph.subgraph_of_elements(members), library)
        for cid, members in enumerate(partition.components)
    }


def per_ccc_annotate_components(
    graph, partition, library, budget=None, profiler=None, match_cache=None
) -> dict[int, AnnotationResult]:
    """``annotate_components`` with one subgraph, one target context and
    one full library pass per CCC, sharing nothing between CCCs of the
    same shape.  Production matching, cache protocol included."""
    results: dict[int, AnnotationResult] = {}
    for cid, members in enumerate(partition.components):
        if profiler is not None:
            profiler.count("ccc_matched")
        subgraph = graph.subgraph_of_elements(members)
        memo = None
        cache_key = None
        known = 0
        if match_cache is not None:
            cache_key = match_cache.ccc_key(subgraph.elements)
            memo = match_cache.load(cache_key)
            known = len(memo)
        results[cid] = annotate_primitives(
            subgraph,
            library,
            budget=budget,
            profiler=profiler,
            match_memo=memo,
        )
        if match_cache is not None and len(memo) > known:
            match_cache.store(cache_key, memo)
    return results


def cross_entropy(
    logits: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray | None = None,
    class_weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean masked cross-entropy of one graph and its (n, C) gradient.

    Sums with ``np.add.reduceat`` like ``batched_cross_entropy``, so the
    two agree bitwise graph by graph.
    """
    n, _ = logits.shape
    if mask is None:
        mask = np.ones(n, dtype=bool)
    count = int(mask.sum())
    grad = np.zeros_like(logits)
    if count == 0:
        return 0.0, grad

    probs = softmax(logits)
    picked = probs[np.arange(n), labels]
    weights = np.ones(n)
    if class_weights is not None:
        weights = class_weights[labels]
    log_losses = -np.log(np.clip(picked, 1e-12, None)) * weights
    loss = float(np.add.reduceat(log_losses[mask], [0])[0] / count)

    grad[mask] = probs[mask]
    grad[np.arange(n)[mask], labels[mask]] -= 1.0
    grad[mask] *= weights[mask, None] / count
    return loss, grad


def run_epoch_per_sample(
    model, optimizer, train_samples, config, rng, weights, grad_limit
) -> tuple[float, int, int]:
    """:func:`repro.gcn.train._run_epoch` with one forward, loss and
    backward per graph instead of one packed pass per minibatch."""
    from repro.gcn.train import _guarded_step

    order = rng.permutation(len(train_samples))
    epoch_loss = 0.0
    epoch_correct = 0
    epoch_total = 0
    for batch_start in range(0, len(order), config.batch_size):
        batch = order[batch_start : batch_start + config.batch_size]
        model.zero_grad()
        batch_loss = 0.0
        for sample_idx in batch:
            sample = train_samples[sample_idx]
            logits = model.forward(sample, training=True)
            loss, grad = cross_entropy(logits, sample.labels, sample.mask, weights)
            model.backward(grad / len(batch))
            count = int(sample.mask.sum())
            batch_loss += loss * count
            predictions = logits.argmax(axis=1)
            epoch_correct += int((predictions[sample.mask] == sample.labels[sample.mask]).sum())
            epoch_total += count
        _guarded_step(optimizer, batch_loss, batch_start // config.batch_size, grad_limit)
        epoch_loss += batch_loss
    return epoch_loss, epoch_correct, epoch_total


def train_per_sample(model, train_samples, val_samples=None, config=None, fault=None):
    """``train`` over :func:`run_epoch_per_sample`; everything but the
    epoch loop is production code.  Not thread-safe: it swaps the
    module's epoch loop for the call."""
    # ``repro.gcn`` re-exports ``train`` under the submodule's name.
    module = importlib.import_module("repro.gcn.train")
    packed = module._run_epoch
    module._run_epoch = run_epoch_per_sample
    try:
        return module.train(model, train_samples, val_samples, config, fault)
    finally:
        module._run_epoch = packed
