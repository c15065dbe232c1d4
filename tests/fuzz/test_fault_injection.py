"""Acceptance: an injected matcher fault is caught, shrunk, and filed.

``repro.testing.oracles`` imports ``find_primitive_matches`` as a
module attribute precisely so a test can swap in a faulty version.
Here the fault drops the last match of every indexed (production)
call — the kind of off-by-one an index-pruning bug would produce; the
oracle's naive reference side never goes through that attribute — and
the harness must (1) detect the divergence, (2) ddmin the deck to a
sub-20-line repro that still diverges, and (3) write the repro plus
sidecar into a corpus directory via the campaign loop.
"""

from __future__ import annotations

import json

import pytest

from repro.primitives.matcher import find_primitive_matches as real_matcher
from repro.testing.reference import naive_find_primitive_matches
from repro.testing.campaign import run_campaign
from repro.testing.generator import GenConfig, GeneratedDeck, generate_deck
from repro.testing.oracles import DivergenceError, OracleContext, run_oracle
from repro.testing.shrink import shrink_deck

pytestmark = pytest.mark.fuzz

#: Flat decks only: keeps the injected-fault campaign fast and the
#: shrunken repro a pure device list.
FLAT = GenConfig(max_subckts=0)


def _install_fault(monkeypatch) -> None:
    """Indexed matching silently loses its last match."""

    def faulty(template, graph, *args, **kwargs):
        matches = real_matcher(template, graph, *args, **kwargs)
        return matches[:-1]

    monkeypatch.setattr(
        "repro.testing.oracles.find_primitive_matches", faulty
    )


def _matchable_deck() -> GeneratedDeck:
    """A generated deck that actually contains library matches."""
    from repro.graph.bipartite import CircuitGraph
    from repro.primitives.library import extended_library
    from repro.spice.flatten import flatten
    from repro.spice.parser import parse_netlist

    for seed in range(10):
        deck = generate_deck(seed, FLAT)
        graph = CircuitGraph.from_circuit(flatten(parse_netlist(deck.text)))
        if any(
            naive_find_primitive_matches(t, graph)
            for t in extended_library().templates
        ):
            return deck
    raise AssertionError("no generated deck with primitive matches")


def test_baseline_is_green_without_the_fault():
    run_oracle("indexed_matching", _matchable_deck(), OracleContext())


def test_fault_is_caught_and_shrunk_below_twenty_lines(monkeypatch):
    deck = _matchable_deck()
    _install_fault(monkeypatch)
    ctx = OracleContext()

    with pytest.raises(DivergenceError) as excinfo:
        run_oracle("indexed_matching", deck, ctx)
    assert excinfo.value.oracle == "indexed_matching"

    def predicate(text: str) -> None:
        candidate = GeneratedDeck(text=text, recipe=deck.recipe, mode="strict")
        run_oracle("indexed_matching", candidate, ctx)

    result = shrink_deck(deck.text, predicate)
    assert result.shrunk_lines < 20
    assert result.shrunk_lines <= result.original_lines
    # The minimized deck is a genuine repro, and 1-minimal.
    with pytest.raises(DivergenceError):
        predicate(result.text)


def test_campaign_files_the_shrunken_repro(monkeypatch, tmp_path):
    _install_fault(monkeypatch)
    corpus = tmp_path / "found"
    report = run_campaign(
        base_seed=0,
        iterations=10,
        oracle_names=["indexed_matching"],
        corpus_dir=str(corpus),
        stop_on_first=True,
    )
    assert not report.ok
    assert report.stopped_by == "divergence"
    divergence = report.divergences[0]
    assert divergence.oracle == "indexed_matching"
    assert divergence.shrunk_lines < 20
    assert divergence.corpus_path is not None

    written = sorted(corpus.glob("*.sp"))
    assert len(written) == 1
    sidecar = json.loads(written[0].with_suffix(".json").read_text())
    assert sidecar["oracle"] == "indexed_matching"
    assert sidecar["recipe"]["seed"] == divergence.seed
    assert "DIVERGENCES: 1" in report.summary()
