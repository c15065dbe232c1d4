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
* :func:`naive_normalized_laplacian`, :func:`naive_rescaled_laplacian`,
  :func:`naive_graclus_matching`, :func:`naive_coarsen_adjacency` and
  :func:`naive_channel_connected_components` — the sample build and
  CCC partition as scipy matrix products and walks over the
  :class:`~repro.graph.bipartite.Edge` list, before the edge arrays;
  ``tests/graph/test_array_passes.py`` asserts the production passes
  match them bit for bit.
"""

from __future__ import annotations

import importlib
from collections import defaultdict

import numpy as np
import scipy.sparse as sp

from repro.core.pipeline import GanaPipeline, PipelineResult, build_hierarchy
from repro.core.postprocess import apply_port_rules, postprocess_ccc
from repro.gcn.loss import softmax
from repro.graph.bipartite import DRAIN_BIT, SOURCE_BIT, CircuitGraph
from repro.graph.ccc import CCCPartition
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
from repro.spice.netlist import Circuit, Netlist, is_power_net, reset_power_net_memo
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


def naive_normalized_laplacian(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """``I − D^{-1/2} A D^{-1/2}`` as scipy products."""
    adjacency = sp.csr_matrix(adjacency, dtype=np.float64)
    n = adjacency.shape[0]
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(degrees)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    d_inv_sqrt = sp.diags(inv_sqrt)
    identity = sp.identity(n, format="csr", dtype=np.float64)
    return sp.csr_matrix(identity - d_inv_sqrt @ adjacency @ d_inv_sqrt)


def naive_rescaled_laplacian(laplacian: sp.spmatrix, lmax: float | None = None) -> sp.csr_matrix:
    """``2 L / λmax − I`` as scipy arithmetic (λmax defaults to 2)."""
    laplacian = sp.csr_matrix(laplacian, dtype=np.float64)
    lmax = 2.0 if lmax is None else lmax
    if lmax <= 0:
        raise ValueError(f"λmax must be positive, got {lmax}")
    identity = sp.identity(laplacian.shape[0], format="csr", dtype=np.float64)
    return sp.csr_matrix(laplacian * (2.0 / lmax) - identity)


def naive_graclus_matching(adjacency: sp.spmatrix, rng) -> np.ndarray:
    """Greedy normalized-cut matching reading numpy scalars one at a time."""
    adjacency = sp.csr_matrix(adjacency, dtype=np.float64)
    n = adjacency.shape[0]
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_deg = np.where(degrees > 0, 1.0 / np.maximum(degrees, 1e-12), 0.0)

    order = rng.permutation(n)
    matched = np.full(n, -1, dtype=np.int64)
    next_cluster = 0
    indptr, indices, data = adjacency.indptr, adjacency.indices, adjacency.data
    for vertex in order:
        if matched[vertex] >= 0:
            continue
        best_neighbor = -1
        best_score = -np.inf
        for idx in range(indptr[vertex], indptr[vertex + 1]):
            neighbor = indices[idx]
            if neighbor == vertex or matched[neighbor] >= 0:
                continue
            score = data[idx] * (inv_deg[vertex] + inv_deg[neighbor])
            if score > best_score:
                best_score = score
                best_neighbor = neighbor
        matched[vertex] = next_cluster
        if best_neighbor >= 0:
            matched[best_neighbor] = next_cluster
        next_cluster += 1
    return matched


def naive_coarsen_adjacency(adjacency: sp.spmatrix, assign: np.ndarray) -> sp.csr_matrix:
    """``Sᵀ W S`` as scipy products, diagonal removed."""
    n = adjacency.shape[0]
    n_coarse = int(assign.max()) + 1 if assign.size else 0
    selector = sp.csr_matrix((np.ones(n), (np.arange(n), assign)), shape=(n, n_coarse))
    coarse = (selector.T @ adjacency @ selector).tocsr()
    coarse.setdiag(0)
    coarse.eliminate_zeros()
    return coarse


def naive_channel_connected_components(graph: CircuitGraph) -> CCCPartition:
    """The CCC partition as a union–find over walks of the ``Edge`` list."""
    parent = list(range(graph.n_elements))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    power = {net_local for net_local, net in enumerate(graph.nets) if is_power_net(net)}
    ds_on_net: dict[int, list[int]] = defaultdict(list)
    for edge in graph.edges:
        dev = graph.elements[edge.element]
        if not dev.kind.is_transistor or edge.net in power:
            continue
        if edge.label & (SOURCE_BIT | DRAIN_BIT):
            ds_on_net[edge.net].append(edge.element)
    for members in ds_on_net.values():
        for other in members[1:]:
            root_a, root_b = find(members[0]), find(other)
            if root_a != root_b:
                parent[root_a] = root_b

    root_to_id: dict[int, int] = {}
    components: list[set[int]] = []
    of_element: dict[int, int] = {}
    for idx, dev in enumerate(graph.elements):
        if not dev.kind.is_transistor:
            continue
        root = find(idx)
        if root not in root_to_id:
            root_to_id[root] = len(components)
            components.append(set())
        components[root_to_id[root]].add(idx)
        of_element[idx] = root_to_id[root]

    of_net: dict[int, set[int]] = defaultdict(set)
    for edge in graph.edges:
        cid = of_element.get(edge.element)
        if cid is not None:
            of_net[edge.net].add(cid)
    edges_of: dict[int, list] = defaultdict(list)
    for edge in graph.edges:
        edges_of[edge.element].append(edge)
    for idx, dev in enumerate(graph.elements):
        if dev.kind.is_transistor:
            continue
        touching: set[int] = set()
        for edge in edges_of.get(idx, ()):
            if edge.net not in power:
                touching |= of_net.get(edge.net, set())
        if touching:
            cid = min(touching)
        else:
            cid = len(components)
            components.append(set())
        components[cid].add(idx)
        of_element[idx] = cid

    of_net = defaultdict(set)
    for edge in graph.edges:
        cid = of_element.get(edge.element)
        if cid is not None:
            of_net[edge.net].add(cid)
    return CCCPartition(components=components, of_element=of_element, of_net=dict(of_net))
