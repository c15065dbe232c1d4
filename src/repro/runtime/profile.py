"""Stage-level profiling for the annotation pipeline.

The ISSUE's observability requirement: know *where* an annotation run
spends its time without reaching for cProfile.  A
:class:`PipelineProfiler` rides through ``GanaPipeline.run(...,
profile=True)`` and collects

* **stages** — wall-clock seconds per pipeline stage (preprocess,
  graph, gcn, post1, post2, hierarchy), the same numbers
  ``PipelineResult.timings`` reports;
* **per_template** — per primitive template: VF2 launches, matches
  found, cumulative seconds, and how often the kind-histogram test
  skipped the template without launching a search;
* **counters** — free-form event counts: channel-connected components
  matched (``ccc_matched``), distinct CCC shapes that paid for VF2
  (``ccc_shapes``) and CCCs that replayed an earlier shape's matches
  (``ccc_shape_hits``) — the CCC reuse of flat and ``--hier`` runs
  alike — and templates answered by a persisted match list
  (``match_cache_hits``).

Everything is plain ``dict``/``float``/``int`` so the profile pickles
across the ``run_many`` process pool and serializes with
``json.dump`` unchanged (``--profile out.json`` on the CLI).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator


@dataclass
class TemplateStats:
    """Accumulated matching statistics for one primitive template."""

    launches: int = 0
    matches: int = 0
    seconds: float = 0.0
    skips: int = 0  # kind-histogram rejections (no VF2 launch)

    def as_dict(self) -> dict[str, Any]:
        return {
            "launches": self.launches,
            "matches": self.matches,
            "seconds": round(self.seconds, 6),
            "skips": self.skips,
        }


@dataclass
class PipelineProfiler:
    """Collects per-stage and per-template timings for one pipeline run."""

    stages: dict[str, float] = field(default_factory=dict)
    templates: dict[str, TemplateStats] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    # -- recording ---------------------------------------------------

    @contextmanager
    def stage(self, name) -> Iterator[None]:
        """Time a block as pipeline stage ``name`` (additive on re-entry).

        ``name`` is a string or a ``repro.core.stages.StageName``
        member; labels are always stored as string values.
        """
        started = time.perf_counter()
        try:
            yield
        finally:
            self.record_stage(name, time.perf_counter() - started)

    def record_stage(self, name, seconds: float) -> None:
        name = getattr(name, "value", name)
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def _stats(self, template: str) -> TemplateStats:
        stats = self.templates.get(template)
        if stats is None:
            stats = self.templates[template] = TemplateStats()
        return stats

    def record_template(
        self, template: str, seconds: float, matches: int
    ) -> None:
        """One VF2 launch of ``template``: its wall-clock and match count."""
        stats = self._stats(template)
        stats.launches += 1
        stats.matches += matches
        stats.seconds += seconds

    def record_template_skip(self, template: str) -> None:
        """The kind-histogram test rejected ``template`` without a launch."""
        self._stats(template).skips += 1

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- reporting ---------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready profile: stages, per-template stats, counters.

        Templates are sorted by cumulative seconds, most expensive
        first, so the hot template is the first key a reader sees.
        """
        per_template = {
            name: stats.as_dict()
            for name, stats in sorted(
                self.templates.items(),
                key=lambda item: item[1].seconds,
                reverse=True,
            )
        }
        return {
            "stages": {k: round(v, 6) for k, v in self.stages.items()},
            "per_template": per_template,
            "counters": dict(self.counters),
        }

    def write_json(self, path: str | Path) -> Path:
        """Dump the profile to ``path`` (pretty-printed, trailing newline)."""
        path = Path(path)
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        return path
