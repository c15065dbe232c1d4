"""Generative fuzzing, differential oracles and reference twins.

The correctness backstop for every fast path in the repo:

* :mod:`repro.testing.generator` — seeded random SPICE deck
  composition from grammar-level building blocks (primitive templates,
  passive/active glue, nested ``.subckt`` hierarchies with m-factors,
  ``.include`` chains, optional lenient-mode dirt), returning both the
  deck text and a JSON-serializable generation recipe;
* :mod:`repro.testing.metamorphic` — semantics-preserving deck
  transforms, each with a declared annotation-level invariant
  (byte-identical, identical up to rename, …);
* :mod:`repro.testing.oracles` — the differential oracle registry:
  one deck through paired execution paths, equivalence asserted
  (indexed vs naive matching, packed GCN vs a batch of one, staged vs
  monolith, hier vs flat, warm vs cold cache, strict vs lenient parse,
  include expansion, both elaboration modes);
* :mod:`repro.testing.reference` — the slower reference twins that
  production fast paths replaced (the monolith flow, naive primitive
  matching, the per-sample GCN training loop), kept only to be
  compared against;
* :mod:`repro.testing.shrink` — delta-debugging minimizer that turns
  any failing deck into a small committed repro;
* :mod:`repro.testing.campaign` — the fuzz loop behind
  ``python -m repro.fuzz``.
"""

from repro.testing.campaign import FuzzReport, run_campaign
from repro.testing.generator import (
    GenConfig,
    GeneratedDeck,
    generate_deck,
    regenerate,
)
from repro.testing.metamorphic import (
    Invariant,
    TransformedDeck,
    TRANSFORMS,
    apply_transform,
    check_invariant,
)
from repro.testing.oracles import (
    ORACLES,
    DivergenceError,
    Oracle,
    OracleContext,
    run_oracle,
)
from repro.testing.shrink import shrink_deck, write_corpus_entry

__all__ = [
    "DivergenceError",
    "FuzzReport",
    "GenConfig",
    "GeneratedDeck",
    "Invariant",
    "ORACLES",
    "Oracle",
    "OracleContext",
    "TRANSFORMS",
    "TransformedDeck",
    "apply_transform",
    "check_invariant",
    "generate_deck",
    "regenerate",
    "run_campaign",
    "run_oracle",
    "shrink_deck",
    "write_corpus_entry",
]
