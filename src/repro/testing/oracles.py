"""Differential oracle registry.

Each oracle takes one generated deck and runs it through a *pair* of
execution paths that the repo promises are equivalent, raising
:class:`DivergenceError` on the first observable difference:

====================  =====================================================
oracle                paired paths
====================  =====================================================
parse_modes           strict parse/flatten vs lenient on clean decks
                      (identical flat circuit); strict-fatal vs
                      lenient-recovered on dirty decks
elaboration           ``flatten`` vs ``flatten_hierarchical`` flat circuit
include_roundtrip     ``.include``-split files vs self-contained text
indexed_matching      ``find_primitive_matches`` vs the naive reference
                      matcher (:mod:`repro.testing.reference`), per
                      template
packed_gcn            ``GcnAnnotator.annotate_batch`` (block-diagonal
                      packed forward) vs ``annotate`` (a batch of one)
staged_vs_monolith    ``GanaPipeline.run`` (staged) vs ``run_monolith``
                      (:mod:`repro.testing.reference`)
hier_vs_flat          ``run(hier=True)`` vs the flat run
warm_cache            warm :class:`ArtifactCache` re-run (all stages
                      cache-hit) vs the cold run
metamorphic           a random transform from
                      :mod:`repro.testing.metamorphic` + its invariant
====================  =====================================================

Function-level imports that an oracle dereferences at call time
(``find_primitive_matches`` in particular) are module attributes on
purpose: a test can monkeypatch
``repro.testing.oracles.find_primitive_matches`` to inject a fault and
watch the fuzzer catch and shrink it.  The naive side of
``indexed_matching`` never goes through that attribute, so a fault
cannot hide on both sides.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.stages import pipeline_result_fingerprint
from repro.exceptions import GanaError
from repro.graph.bipartite import CircuitGraph
from repro.primitives.index import TargetContext
from repro.primitives.matcher import find_primitive_matches
from repro.spice.flatten import flatten, flatten_hierarchical
from repro.spice.parser import parse_netlist
from repro.testing.generator import GeneratedDeck
from repro.testing.metamorphic import (
    TRANSFORMS,
    InvariantViolation,
    apply_transform,
    check_invariant,
)
from repro.testing.reference import naive_find_primitive_matches, run_monolith


class DivergenceError(AssertionError):
    """Two supposedly equivalent execution paths disagreed."""

    def __init__(self, oracle: str, detail: str):
        super().__init__(f"[{oracle}] {detail}")
        self.oracle = oracle
        self.detail = detail


@dataclass
class OracleContext:
    """Shared (expensive) state for one fuzz campaign.

    The pipeline is built lazily so oracles that never annotate
    (parse/flatten/matching) stay model-free, and it is shared across
    iterations so the quick-trained annotator is paid for once.
    """

    seed: int = 0
    _pipeline: object = field(default=None, repr=False)

    @property
    def pipeline(self):
        if self._pipeline is None:
            from repro.core.pipeline import GanaPipeline

            self._pipeline = GanaPipeline.pretrained(
                "ota", quick=True, seed=0, train_size=150
            )
        return self._pipeline

    def rng(self, deck: GeneratedDeck, salt: str) -> random.Random:
        """Deterministic per-deck/per-oracle randomness."""
        return random.Random(f"{self.seed}:{deck.seed}:{salt}")


@dataclass(frozen=True)
class Oracle:
    """One registered differential check."""

    name: str
    description: str
    fn: Callable[[GeneratedDeck, OracleContext], None]
    #: Whether the check needs a trained annotator (model training /
    #: loading is the expensive part of a campaign).
    needs_pipeline: bool = False


ORACLES: dict[str, Oracle] = {}


def _oracle(description: str, needs_pipeline: bool = False):
    def register(fn):
        name = fn.__name__.removeprefix("check_")
        ORACLES[name] = Oracle(
            name=name,
            description=description,
            fn=fn,
            needs_pipeline=needs_pipeline,
        )
        return fn

    return register


def run_oracle(name: str, deck: GeneratedDeck, ctx: OracleContext) -> None:
    """Run one registered oracle; raises :class:`DivergenceError`."""
    ORACLES[name].fn(deck, ctx)


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def _diverge(oracle: str, detail: str) -> None:
    raise DivergenceError(oracle, detail)


def _circuit_repr(circuit) -> list[str]:
    return [repr(d) for d in circuit.devices]


def _flat_graph(deck: GeneratedDeck) -> CircuitGraph:
    netlist = parse_netlist(deck.text, mode=deck.mode)
    diags = [] if deck.mode == "lenient" else None
    return CircuitGraph.from_circuit(flatten(netlist, diagnostics=diags))


def _match_key(match) -> tuple:
    return (match.primitive, match.element_map, match.net_map)


# ---------------------------------------------------------------------------
# Parse / elaboration oracles (no model needed)
# ---------------------------------------------------------------------------


@_oracle("strict vs lenient parse+flatten agree on clean decks; dirt is strict-fatal, lenient-recovered")
def check_parse_modes(deck: GeneratedDeck, ctx: OracleContext) -> None:
    if deck.mode == "strict":
        strict = flatten(parse_netlist(deck.text, mode="strict"))
        diags = []
        lenient_netlist = parse_netlist(deck.text, mode="lenient")
        lenient = flatten(lenient_netlist, diagnostics=diags)
        if _circuit_repr(strict) != _circuit_repr(lenient):
            _diverge(
                "parse_modes",
                "strict and lenient flat circuits differ on a clean deck",
            )
        if diags or lenient_netlist.diagnostics:
            _diverge(
                "parse_modes",
                f"lenient mode reported diagnostics on a clean deck: "
                f"{[d.message for d in diags + list(lenient_netlist.diagnostics)]}",
            )
        return
    # Dirty deck: the strict path must refuse it somewhere in
    # parse→flatten, the lenient path must absorb it with diagnostics.
    try:
        flatten(parse_netlist(deck.text, mode="strict"))
    except GanaError:
        pass
    else:
        _diverge("parse_modes", "strict mode accepted a dirty deck")
    diags = []
    netlist = parse_netlist(deck.text, mode="lenient")
    flatten(netlist, diagnostics=diags)
    if not (diags or netlist.diagnostics):
        _diverge(
            "parse_modes",
            "lenient mode recovered a dirty deck without diagnostics",
        )


@_oracle("flatten vs flatten_hierarchical produce the same flat circuit")
def check_elaboration(deck: GeneratedDeck, ctx: OracleContext) -> None:
    netlist = parse_netlist(deck.text, mode=deck.mode)
    diags = [] if deck.mode == "lenient" else None
    flat = flatten(netlist, diagnostics=diags)
    netlist2 = parse_netlist(deck.text, mode=deck.mode)
    diags2 = [] if deck.mode == "lenient" else None
    flat_h, tree = flatten_hierarchical(netlist2, diagnostics=diags2)
    if _circuit_repr(flat) != _circuit_repr(flat_h):
        _diverge(
            "elaboration",
            "flatten and flatten_hierarchical flat circuits differ",
        )
    known = {inst.path for inst in tree.instances}
    missing = {
        d.name.rsplit("/", 1)[0]
        for d in flat.devices
        if "/" in d.name
        and not any(d.name.startswith(p + "/") for p in known)
    }
    if missing:
        _diverge(
            "elaboration",
            f"DesignTree is missing instance paths: {sorted(missing)}",
        )


@_oracle(".include-split files expand to the self-contained deck")
def check_include_roundtrip(deck: GeneratedDeck, ctx: OracleContext) -> None:
    if not deck.files:
        return
    with tempfile.TemporaryDirectory(prefix="fuzz-inc-") as tmp:
        root = Path(tmp)
        for name, content in deck.files.items():
            (root / name).write_text(content)
        split = parse_netlist(
            deck.files["main.sp"], include_dir=root, mode=deck.mode
        )
        joined = parse_netlist(deck.text, mode=deck.mode)
        diags_s = [] if deck.mode == "lenient" else None
        diags_j = [] if deck.mode == "lenient" else None
        flat_s = flatten(split, diagnostics=diags_s)
        flat_j = flatten(joined, diagnostics=diags_j)
    if _circuit_repr(flat_s) != _circuit_repr(flat_j):
        _diverge(
            "include_roundtrip",
            ".include expansion and self-contained text flatten differently",
        )


@_oracle("indexed VF2 matching equals the naive reference matcher")
def check_indexed_matching(deck: GeneratedDeck, ctx: OracleContext) -> None:
    from repro.primitives.library import extended_library

    graph = _flat_graph(deck)
    context = TargetContext.build(graph)
    for template in extended_library().templates:
        naive = naive_find_primitive_matches(template, graph)
        fast = find_primitive_matches(template, graph, context=context)
        if [_match_key(m) for m in naive] != [_match_key(m) for m in fast]:
            _diverge(
                "indexed_matching",
                f"template {template.name}: indexed path returned "
                f"{len(fast)} matches vs naive {len(naive)} "
                "(or same count, different content/order)",
            )


# ---------------------------------------------------------------------------
# Pipeline oracles (need the trained annotator)
# ---------------------------------------------------------------------------


@_oracle("packed block-diagonal GCN forward equals a batch of one", needs_pipeline=True)
def check_packed_gcn(deck: GeneratedDeck, ctx: OracleContext) -> None:
    graph = _flat_graph(deck)
    annotator = ctx.pipeline.annotator
    solo = annotator.annotate(graph)
    packed = annotator.annotate_batch([graph, graph])
    for i, ann in enumerate(packed):
        if not np.array_equal(ann.vertex_classes, solo.vertex_classes):
            _diverge(
                "packed_gcn",
                f"packed sample {i}: vertex classes differ from the batch of one",
            )
        if not np.allclose(
            ann.probabilities, solo.probabilities, rtol=1e-9, atol=1e-12
        ):
            worst = float(
                np.max(np.abs(ann.probabilities - solo.probabilities))
            )
            _diverge(
                "packed_gcn",
                f"packed sample {i}: probabilities drifted (max |Δ|={worst:g})",
            )


@_oracle("staged runner equals the monolith reference", needs_pipeline=True)
def check_staged_vs_monolith(deck: GeneratedDeck, ctx: OracleContext) -> None:
    pipeline = ctx.pipeline
    staged = pipeline.run(deck.text, mode=deck.mode)
    monolith = run_monolith(pipeline, deck.text, mode=deck.mode)
    got = pipeline_result_fingerprint(staged)
    want = pipeline_result_fingerprint(monolith)
    if got != want:
        _diverge(
            "staged_vs_monolith",
            f"result fingerprints differ: staged {got[:12]} vs monolith {want[:12]}",
        )
    if staged.degraded != monolith.degraded:
        _diverge("staged_vs_monolith", "degradation flags differ")


@_oracle("hierarchy-scoped annotation is byte-identical to the flat path", needs_pipeline=True)
def check_hier_vs_flat(deck: GeneratedDeck, ctx: OracleContext) -> None:
    pipeline = ctx.pipeline
    flat = pipeline.run(deck.text, mode=deck.mode)
    hier = pipeline.run(deck.text, mode=deck.mode, hier=True)
    got = pipeline_result_fingerprint(hier)
    want = pipeline_result_fingerprint(flat)
    if got != want:
        _diverge(
            "hier_vs_flat",
            f"result fingerprints differ: hier {got[:12]} vs flat {want[:12]}",
        )


@_oracle("warm artifact-cache re-run hits every stage and matches cold", needs_pipeline=True)
def check_warm_cache(deck: GeneratedDeck, ctx: OracleContext) -> None:
    pipeline = ctx.pipeline
    with tempfile.TemporaryDirectory(prefix="fuzz-cache-") as tmp:
        cold_staged = pipeline.run_staged(
            deck.text, mode=deck.mode, artifact_cache=tmp
        )
        cold = pipeline.result_from_staged(cold_staged)
        warm_staged = pipeline.run_staged(
            deck.text, mode=deck.mode, artifact_cache=tmp
        )
        warm = pipeline.result_from_staged(warm_staged)
    missed = [
        s.value
        for s in warm_staged.artifacts
        if s not in warm_staged.cache_hits
    ]
    # The gcn stage (and everything downstream of it) deliberately
    # opts out of the content-addressed store once the pipeline holds
    # a lazily-built fallback recognizer (no stable fingerprint) or
    # the run degraded — mirror that contract: parse/preprocess/graph
    # must always hit warm; gcn+ only while gcn stays cacheable.
    gcn_cacheable = not cold.degraded and not (
        pipeline.fallback_recognizer is not None and pipeline.degrade
    )
    always_cached = {"parse", "preprocess", "graph"}
    missed = [
        s for s in missed if gcn_cacheable or s in always_cached
    ]
    if missed:
        _diverge(
            "warm_cache",
            f"warm run recomputed stages instead of cache-hitting: {missed}",
        )
    got = pipeline_result_fingerprint(warm)
    want = pipeline_result_fingerprint(cold)
    if got != want:
        _diverge(
            "warm_cache",
            f"warm result fingerprint {got[:12]} != cold {want[:12]}",
        )


@_oracle("a random metamorphic transform preserves its declared invariant", needs_pipeline=True)
def check_metamorphic(deck: GeneratedDeck, ctx: OracleContext) -> None:
    if deck.mode != "strict":
        return  # transforms re-serialize through the strict writer
    rng = ctx.rng(deck, "metamorphic")
    name = rng.choice(sorted(TRANSFORMS))
    transformed = apply_transform(name, deck.text, rng)
    if transformed.noop:
        return
    from repro.testing.metamorphic import Invariant

    pipeline = ctx.pipeline
    original = transformed_result = None
    if transformed.invariant in (
        Invariant.BYTE_IDENTICAL,
        Invariant.UP_TO_RENAME,
    ):
        original = pipeline.run(deck.text)
        transformed_result = pipeline.run(transformed.text)
    try:
        check_invariant(
            original, transformed_result, transformed, original_text=deck.text
        )
    except InvariantViolation as exc:
        _diverge("metamorphic", str(exc))
