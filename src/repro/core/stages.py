"""Staged pipeline architecture: canonical stage names, typed artifacts,
and a resumable, incrementally-cached runner.

The paper's flow (Sec. II-B) is a linear chain —

    parse → preprocess → graph → gcn → post1 → post2 → hierarchy

— and this module makes each link a first-class, independently
cacheable step instead of one inline monolith:

* :class:`StageName` — THE canonical stage vocabulary.  Timing keys,
  ``resilience.stage()`` failure tags, and profiler stage labels all
  derive from it (no more three ad-hoc string sets).
* :class:`Artifact` subclasses (:class:`ParsedDeck`,
  :class:`FlatDesign`, :class:`FeaturedGraph`, :class:`GcnPrediction`,
  :class:`Post1Result`, :class:`Post2Result`,
  :class:`AnnotatedDesign`) — the typed, picklable product of each
  stage.  Every artifact carries the forward context (design name,
  preprocess report, resolved port labels, cumulative diagnostics,
  degradation flags) needed to resume the chain from that point alone.
* :func:`content_fingerprint` — a canonical recursive hasher over
  dataclasses / dicts / numpy arrays (pickle bytes are *not*
  content-stable, so fingerprints get their own encoder).
* :class:`Stage` — the ``Stage[I, O]`` protocol: consume the upstream
  artifact, produce this stage's artifact, and derive a cache key from
  the upstream *fingerprint* plus the stage's own configuration.
* :class:`RunOptions` — the per-run options (port labels, mode,
  caching, hierarchy flags …), normalized once and threaded through
  the whole run as one frozen object on :attr:`RunContext.options`.
* :class:`StagedRunner` — executes a stage chain with
  derivation-fingerprint caching (unchanged fingerprint ⇒ cache hit),
  ``stop_after``/``resume`` support, and per-stage save-to-disk.

Fingerprints chain: every stage's key is a hash of the upstream key
and the stage's config fingerprint, never of artifact *contents*.  A
fully-warm run therefore probes keys as pure string hashing and
deserializes exactly one artifact (the furthest hit); a run where only
the primitive library changed reuses parse/preprocess/graph/gcn
artifacts and recomputes from Postprocessing I — with
:class:`PrimitiveMatchCache` additionally reusing per-template VF2
results for every template that survived the library change.

Concrete stage implementations live in :mod:`repro.core.pipeline`
(which owns the pipeline configuration they close over); this module
is deliberately importable from anywhere below ``core`` without
cycles.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Iterable,
    Protocol,
    TypeVar,
    runtime_checkable,
)

import numpy as np

from repro.exceptions import ArtifactError
from repro.graph.bipartite import CircuitGraph
from repro.runtime.cache import ArtifactCache, Memo
from repro.runtime.resilience import Diagnostic
from repro.runtime.resilience import stage as stage_guard
from repro.spice.netlist import Circuit, Netlist, reset_power_net_memo
from repro.spice.parser import PARSE_MODES
from repro.spice.preprocess import PreprocessReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.annotator import Annotation, GcnAnnotator
    from repro.core.constraints import ConstraintSet
    from repro.core.hierarchy import HierarchyNode
    from repro.core.postprocess import PostprocessResult
    from repro.graph.features import NetRole
    from repro.primitives.matcher import PrimitiveMatch
    from repro.runtime.profile import PipelineProfiler


# ---------------------------------------------------------------------------
# The canonical stage vocabulary
# ---------------------------------------------------------------------------


class StageName(enum.Enum):
    """The seven steps of the GANA flow, in execution order.

    This enum is the single source of truth for stage names: timing
    dicts, failure tags, profiler labels, CLI ``--stop-after`` values,
    and artifact filenames all use ``StageName.*.value``.
    """

    PARSE = "parse"
    PREPROCESS = "preprocess"
    GRAPH = "graph"
    GCN = "gcn"
    POST1 = "post1"
    POST2 = "post2"
    HIERARCHY = "hierarchy"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: All stages, in execution order.
STAGE_ORDER: tuple[StageName, ...] = tuple(StageName)

#: The keys of ``PipelineResult.timings``: ``parse`` folds into
#: ``preprocess`` (the legacy monolith timed them as one block).
TIMING_STAGES: tuple[str, ...] = tuple(
    s.value for s in STAGE_ORDER if s is not StageName.PARSE
)


def coerce_stage(value: "StageName | str") -> StageName:
    """Normalize a stage given as enum member or name string."""
    if isinstance(value, StageName):
        return value
    try:
        return StageName(str(value).strip().lower())
    except ValueError:
        known = ", ".join(s.value for s in STAGE_ORDER)
        raise ValueError(
            f"unknown pipeline stage {value!r}; expected one of: {known}"
        ) from None


def fold_timings(stage_seconds: dict[StageName, float]) -> dict[str, float]:
    """Per-stage seconds → legacy timing keys (parse under preprocess)."""
    out: dict[str, float] = {}
    for name, seconds in stage_seconds.items():
        key = (
            StageName.PREPROCESS.value
            if name is StageName.PARSE
            else name.value
        )
        out[key] = out.get(key, 0.0) + seconds
    return out


# ---------------------------------------------------------------------------
# Content fingerprints
# ---------------------------------------------------------------------------

#: Bumped whenever the fingerprint encoding changes; every digest is
#: seeded with it so old cache entries can never collide with new ones.
FINGERPRINT_VERSION = 1

_FP_SEED = f"gana-fp-v{FINGERPRINT_VERSION}".encode()


def content_fingerprint(*parts: Any) -> str:
    """Stable hex digest of arbitrarily nested plain data.

    Handles the vocabulary artifacts are made of: scalars, strings,
    bytes, tuples/lists, sets, dicts (order-insensitive), enums, numpy
    arrays (dtype + shape + buffer), paths, and dataclasses (walked
    field by field, so non-field caches like
    ``CircuitGraph._edge_arrays`` never leak in).  Pickle bytes are not
    content-stable (memoization depends on object identity), hence this
    dedicated encoder.  Unsupported types raise ``TypeError`` rather
    than silently fingerprinting their ``repr``.
    """
    digest = hashlib.sha256(_FP_SEED)
    for part in parts:
        _hash_into(digest, part)
    return digest.hexdigest()[:32]


def _hash_into(h, obj: Any) -> None:
    if obj is None:
        h.update(b"N;")
    elif isinstance(obj, bool):
        h.update(b"B1;" if obj else b"B0;")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"I%d;" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        h.update(b"F" + repr(float(obj)).encode() + b";")
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        h.update(b"S%d:" % len(raw))
        h.update(raw)
    elif isinstance(obj, bytes):
        h.update(b"Y%d:" % len(obj))
        h.update(obj)
    elif isinstance(obj, enum.Enum):
        h.update(b"E" + type(obj).__name__.encode() + b".")
        _hash_into(h, obj.name)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        header = f"A{arr.dtype.str}|{','.join(map(str, arr.shape))}:"
        h.update(header.encode())
        h.update(arr.tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"T(" if isinstance(obj, tuple) else b"L(")
        for item in obj:
            _hash_into(h, item)
        h.update(b")")
    elif isinstance(obj, (set, frozenset)):
        h.update(b"Z(")
        for digest in sorted(_item_digest(item) for item in obj):
            h.update(digest)
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(b"D(")
        for digest in sorted(
            _item_digest(key, value) for key, value in obj.items()
        ):
            h.update(digest)
        h.update(b")")
    elif isinstance(obj, Path):
        h.update(b"P")
        _hash_into(h, str(obj))
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"C" + type(obj).__qualname__.encode() + b"(")
        for f in dataclasses.fields(obj):
            _hash_into(h, f.name)
            _hash_into(h, getattr(obj, f.name))
        h.update(b")")
    else:
        raise TypeError(
            f"cannot fingerprint object of type {type(obj).__name__}"
        )


def _item_digest(*parts: Any) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        _hash_into(h, part)
    return h.digest()


_ANNOTATOR_FP_MEMO = Memo()


def annotator_fingerprint(annotator: "GcnAnnotator") -> str:
    """Fingerprint of a trained annotator: config, vocabulary, weights.

    Memoized per annotator object (weights are assumed frozen after
    training, which every construction path in this package guarantees).
    """
    return _ANNOTATOR_FP_MEMO.get_or_build(
        annotator,
        lambda a: content_fingerprint(
            "annotator",
            tuple(a.class_names),
            a.model.config,
            dict(a.model.state_dict()),
        ),
    )


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

#: Bumped when any artifact's schema changes; saved envelopes with a
#: different version refuse to load (and cache entries miss).
#: Version 2: artifacts grew the hierarchy-scoped annotation fields
#: (``tree``/``hier``) — version-1 pickles predate them.
ARTIFACT_FORMAT_VERSION = 2

#: File suffix used by :meth:`Artifact.save` / :func:`load_artifacts`.
ARTIFACT_SUFFIX = ".artifact.pkl"


class Artifact:
    """Base class for the typed product of one pipeline stage.

    ``fingerprint`` is the *derivation* fingerprint — the cache key the
    runner computed for the stage that produced this artifact — when
    the run was cached; otherwise it is filled lazily with the content
    fingerprint at save time.  Either way a saved artifact always
    carries a non-empty fingerprint, and
    :meth:`content_fingerprint` recomputes the content digest on demand
    (the round-trip tests assert save/load preserves it exactly).
    """

    stage: ClassVar[StageName]
    fingerprint: str = ""

    def content_fingerprint(self) -> str:
        """Canonical digest of every dataclass field of this artifact."""
        return content_fingerprint(
            type(self).__name__,
            *(getattr(self, f.name) for f in dataclasses.fields(self)),
        )

    def save(self, path: str | Path) -> Path:
        """Atomically pickle this artifact (with a format envelope)."""
        path = Path(path)
        if not self.fingerprint:
            self.fingerprint = self.content_fingerprint()
        envelope = {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "kind": type(self).__name__,
            "stage": self.stage.value,
            "fingerprint": self.fingerprint,
            "artifact": self,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Artifact":
        """Load a saved artifact; validates envelope, version, and type."""
        path = Path(path)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            raise ArtifactError(f"no artifact at {path}") from None
        except Exception as exc:
            raise ArtifactError(f"unreadable artifact {path}: {exc}") from exc
        if (
            not isinstance(envelope, dict)
            or envelope.get("format_version") != ARTIFACT_FORMAT_VERSION
        ):
            raise ArtifactError(
                f"{path}: not a version-{ARTIFACT_FORMAT_VERSION} artifact"
            )
        artifact = envelope.get("artifact")
        if not isinstance(artifact, Artifact):
            raise ArtifactError(f"{path}: envelope holds no artifact")
        if cls is not Artifact and not isinstance(artifact, cls):
            raise ArtifactError(
                f"{path}: expected {cls.__name__}, "
                f"found {type(artifact).__name__}"
            )
        artifact.fingerprint = (
            envelope.get("fingerprint", "") or artifact.fingerprint
        )
        return artifact

    def describe(self) -> str:
        """One-line rendering for CLI output."""
        fp = self.fingerprint or self.content_fingerprint()
        return f"{self.stage.value}: {type(self).__name__} [{fp}]"


@dataclass
class ParsedDeck(Artifact):
    """``parse`` — the deck as parsed (or the object passed through)."""

    stage: ClassVar[StageName] = StageName.PARSE

    source: "Netlist | Circuit"
    mode: str = "strict"
    #: Cumulative diagnostics through this stage (here: parse problems).
    diagnostics: tuple[Diagnostic, ...] = ()


@dataclass
class FlatDesign(Artifact):
    """``preprocess`` — flattened and reduced circuit plus testbench
    inference results (the resolved port labels / net roles downstream
    stages consume)."""

    stage: ClassVar[StageName] = StageName.PREPROCESS

    flat: Circuit
    reduced: Circuit
    report: PreprocessReport
    design_name: str
    port_labels: dict[str, str] | None = None
    net_roles: "dict[str, NetRole] | None" = None
    diagnostics: tuple[Diagnostic, ...] = ()
    #: Hierarchy sidecar (``--hier`` runs only; None on the flat path).
    tree: "DesignTree | None" = None


@dataclass
class FeaturedGraph(Artifact):
    """``graph`` — the bipartite element/net graph (feature extraction
    reads directly off it during GCN inference)."""

    stage: ClassVar[StageName] = StageName.GRAPH

    graph: CircuitGraph
    design_name: str
    report: PreprocessReport
    port_labels: dict[str, str] | None = None
    net_roles: "dict[str, NetRole] | None" = None
    diagnostics: tuple[Diagnostic, ...] = ()
    tree: "DesignTree | None" = None


@dataclass
class GcnPrediction(Artifact):
    """``gcn`` — per-vertex class annotation (possibly the degraded
    template-library fallback)."""

    stage: ClassVar[StageName] = StageName.GCN

    annotation: "Annotation"
    design_name: str
    report: PreprocessReport
    port_labels: dict[str, str] | None = None
    degraded: bool = False
    degraded_reason: str | None = None
    diagnostics: tuple[Diagnostic, ...] = ()
    tree: "DesignTree | None" = None


@dataclass
class Post1Result(Artifact):
    """``post1`` — Postprocessing I (CCC vote + primitive matching)."""

    stage: ClassVar[StageName] = StageName.POST1

    post1: "PostprocessResult"
    gcn_annotation: "Annotation"
    design_name: str
    report: PreprocessReport
    port_labels: dict[str, str] | None = None
    degraded: bool = False
    degraded_reason: str | None = None
    diagnostics: tuple[Diagnostic, ...] = ()
    tree: "DesignTree | None" = None
    #: Hierarchy-scoped annotation report (``--hier`` runs only).
    hier: "HierReport | None" = None


@dataclass
class Post2Result(Artifact):
    """``post2`` — Postprocessing II (port rules applied)."""

    stage: ClassVar[StageName] = StageName.POST2

    post2: "PostprocessResult"
    post1: "PostprocessResult"
    gcn_annotation: "Annotation"
    design_name: str
    report: PreprocessReport
    degraded: bool = False
    degraded_reason: str | None = None
    diagnostics: tuple[Diagnostic, ...] = ()
    tree: "DesignTree | None" = None
    hier: "HierReport | None" = None


@dataclass
class AnnotatedDesign(Artifact):
    """``hierarchy`` — the final product: hierarchy tree + constraints
    plus everything needed to assemble a ``PipelineResult``."""

    stage: ClassVar[StageName] = StageName.HIERARCHY

    hierarchy: "HierarchyNode"
    constraints: "ConstraintSet"
    post2: "PostprocessResult"
    post1: "PostprocessResult"
    gcn_annotation: "Annotation"
    report: PreprocessReport
    design_name: str
    degraded: bool = False
    degraded_reason: str | None = None
    diagnostics: tuple[Diagnostic, ...] = ()
    hier: "HierReport | None" = None


#: Stage → artifact type produced by it.
ARTIFACT_TYPES: dict[StageName, type[Artifact]] = {
    StageName.PARSE: ParsedDeck,
    StageName.PREPROCESS: FlatDesign,
    StageName.GRAPH: FeaturedGraph,
    StageName.GCN: GcnPrediction,
    StageName.POST1: Post1Result,
    StageName.POST2: Post2Result,
    StageName.HIERARCHY: AnnotatedDesign,
}


def load_artifacts(path: str | Path) -> list[Artifact]:
    """Load one artifact file, or every ``*.artifact.pkl`` in a directory."""
    path = Path(path)
    if path.is_dir():
        artifacts = [
            Artifact.load(entry)
            for entry in sorted(path.glob(f"*{ARTIFACT_SUFFIX}"))
        ]
        if not artifacts:
            raise ArtifactError(f"no *{ARTIFACT_SUFFIX} files in {path}")
        return artifacts
    return [Artifact.load(path)]


# ---------------------------------------------------------------------------
# The Stage protocol and run context
# ---------------------------------------------------------------------------

I = TypeVar("I", contravariant=True)
O = TypeVar("O", bound=Artifact, covariant=True)


@runtime_checkable
class Stage(Protocol[I, O]):
    """One pipeline step: upstream artifact in, this stage's artifact out.

    ``cache_key`` derives the stage's cache key from the *upstream
    fingerprint* plus the stage's own configuration — never from
    artifact contents — so the whole key chain is computable without
    deserializing anything.  A ``None`` key marks the stage (and, by
    chaining, everything downstream) uncacheable.
    """

    name: StageName

    def cache_key(self, upstream_fp: str | None, ctx: "RunContext") -> str | None:
        ...  # pragma: no cover - protocol

    def run(self, upstream: I, ctx: "RunContext") -> O:
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class RunOptions:
    """The per-run options of one pipeline execution.

    One instance flows ``run`` → ``run_staged`` →
    :attr:`RunContext.options` → every stage's ``cache_key``/``run``,
    and through each ``run_many`` job; per-item fields change with
    :func:`dataclasses.replace`.  ``__post_init__`` normalizes once:
    ``mode`` must be one of :data:`~repro.spice.parser.PARSE_MODES`,
    ``hier_tree`` implies ``hier``, an ``artifact_cache`` path becomes
    an :class:`~repro.runtime.cache.ArtifactCache`, and
    ``save_artifacts`` becomes a :class:`~pathlib.Path` (or ``None``).
    """

    #: Explicit net roles / port labels; they win over those inferred
    #: from testbench sources (``infer_testbench``, Sec. V-A footnote 2).
    net_roles: "dict[str, NetRole] | None" = None
    port_labels: dict[str, str] | None = None
    #: Hierarchy root name ("" keeps the deck's own name).
    name: str = ""
    infer_testbench: bool = True
    #: ``"lenient"`` skips malformed cards and broken instances and
    #: collects them as :class:`~repro.runtime.resilience.Diagnostic`.
    mode: str = "strict"
    #: Attach stage seconds plus per-template matching statistics
    #: (:mod:`repro.runtime.profile`).
    profile: bool = False
    #: Per-stage incremental recompute: a stage whose derivation
    #: fingerprint is unchanged loads its artifact from this cache.
    artifact_cache: "ArtifactCache | str | Path | None" = None
    #: Directory every stage's artifact is written to (for a later
    #: ``run_staged(resume_from=...)``).
    save_artifacts: "str | Path | None" = None
    #: Hierarchy-scoped annotation (``--hier``): keep the DesignTree
    #: sidecar and report it next to the flat annotation
    #: (byte-identical results; :mod:`repro.core.hier_annotate`).
    hier: bool = False
    #: Nest recognized blocks under their subckt instances in the
    #: hierarchy tree (a deliberate output-shape deviation; opt-in).
    hier_tree: bool = False

    def __post_init__(self) -> None:
        if self.mode not in PARSE_MODES:
            raise ValueError(
                f"mode must be one of {PARSE_MODES}, got {self.mode!r}"
            )
        if self.hier_tree:
            object.__setattr__(self, "hier", True)
        cache = self.artifact_cache
        if cache is not None and not isinstance(cache, ArtifactCache):
            object.__setattr__(self, "artifact_cache", ArtifactCache(cache))
        save = self.save_artifacts
        object.__setattr__(self, "save_artifacts", Path(save) if save else None)

    @classmethod
    def merge(cls, options: "RunOptions | None", **fields: Any) -> "RunOptions":
        """``options`` (``None``: all defaults) with ``fields`` replaced."""
        if options is None:
            return cls(**fields)
        return dataclasses.replace(options, **fields) if fields else options


@dataclass
class RunContext:
    """Mutable per-run state shared by every stage of one execution.

    ``diagnostics`` is the live list the resilience guards close over;
    the runner re-synchronizes it from artifact snapshots on cache hits
    and resume, and stages append to it while running.
    """

    pipeline: Any = None  # the GanaPipeline (duck-typed; no import cycle)
    netlist: "str | Netlist | Circuit | None" = None
    options: RunOptions = field(default_factory=RunOptions)
    profiler: "PipelineProfiler | None" = None
    #: Precomputed GCN annotation (batched inference): when set, the
    #: gcn stage adopts it instead of calling the annotator, so packed
    #: multi-deck forwards slot into the ordinary stage chain.
    gcn_annotation: "Annotation | None" = None
    diagnostics: list[Diagnostic] = field(default_factory=list)
    artifacts: dict[StageName, Artifact] = field(default_factory=dict)
    stage_seconds: dict[StageName, float] = field(default_factory=dict)
    cache_hits: list[StageName] = field(default_factory=list)
    #: The run's derivation-key chain (filled in by the runner once per
    #: execute); stages may key sub-stage memos off their upstream key.
    stage_keys: dict[StageName, "str | None"] = field(default_factory=dict)


@dataclass
class StagedRun:
    """Outcome of one :meth:`StagedRunner.execute` call."""

    artifacts: dict[StageName, Artifact]
    stage_seconds: dict[StageName, float]
    cache_hits: tuple[StageName, ...]
    diagnostics: list[Diagnostic]
    saved: dict[StageName, Path] = field(default_factory=dict)
    #: The run's profiler (``profile=True`` runs only).
    profiler: "PipelineProfiler | None" = None

    @property
    def complete(self) -> bool:
        """True when the chain ran through the hierarchy stage."""
        return StageName.HIERARCHY in self.artifacts

    @property
    def final(self) -> AnnotatedDesign:
        """The finished design; raises if the run stopped early."""
        artifact = self.artifacts.get(StageName.HIERARCHY)
        if not isinstance(artifact, AnnotatedDesign):
            done = ", ".join(s.value for s in self.artifacts)
            raise ArtifactError(
                f"run is incomplete (stages done: {done or 'none'})"
            )
        return artifact

    def last_artifact(self) -> Artifact:
        """The furthest artifact the run produced."""
        for name in reversed(STAGE_ORDER):
            artifact = self.artifacts.get(name)
            if artifact is not None:
                return artifact
        raise ArtifactError("run produced no artifacts")

    def timings(self) -> dict[str, float]:
        """Legacy-shaped timing dict (parse folded into preprocess)."""
        return fold_timings(self.stage_seconds)

    def profile(self) -> dict | None:
        """The profile dict (``None`` unless run with ``profile=True``):
        :meth:`timings` as its stages plus the per-template statistics."""
        if self.profiler is None:
            return None
        return _finish_profile(self.profiler, self.stage_seconds)


def _finish_profile(profiler: "PipelineProfiler", stage_seconds) -> dict:
    """Set ``profiler``'s stages to the folded stage seconds; its dict."""
    profiler.stages.update(fold_timings(stage_seconds))
    return profiler.as_dict()


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


@dataclass
class StagedRunner:
    """Executes a stage chain with caching, resume, and early stop.

    Execution plan, in order:

    1. seed ``resume`` artifacts; the chain restarts after the furthest
       one (earlier stages are never run);
    2. compute the derivation-fingerprint key chain (pure string
       hashing — no artifact is touched);
    3. probe the cache from the far end: the furthest stage whose key
       is present yields ONE artifact to deserialize, and every stage
       upstream of it is a hit that is never even loaded (with a
       ``save_dir`` the per-stage loop loads each hit instead, so all
       artifacts land on disk);
    4. run the remaining stages under ``resilience.stage`` guards,
       storing each fresh artifact back to the cache.

    Escaping exceptions carry the failure stage, pre-failure
    diagnostics, and — when profiling — a partial profile
    (``_gana_profile``) so ``failure_report`` keeps them across the
    batch pool.
    """

    stages: tuple[Stage, ...]

    def execute(
        self,
        ctx: RunContext,
        resume: Iterable[Artifact] = (),
        stop_after: "StageName | str | None" = None,
    ) -> StagedRun:
        # A fresh run must never see rail-role answers memoized under a
        # previous deck's (possibly monkeypatched) net-name conventions.
        reset_power_net_memo()
        cache = ctx.options.artifact_cache
        save_dir = ctx.options.save_artifacts

        order = [impl.name for impl in self.stages]
        end = len(order) - 1
        if stop_after is not None:
            stop = coerce_stage(stop_after)
            if stop not in order:
                raise ValueError(
                    f"stage {stop.value!r} is not part of this chain"
                )
            end = order.index(stop)

        for artifact in resume or ():
            if not isinstance(artifact, Artifact):
                raise TypeError(
                    f"resume expects Artifact instances, "
                    f"got {type(artifact).__name__}"
                )
            ctx.artifacts[artifact.stage] = artifact

        keys = self._key_chain(ctx)
        ctx.stage_keys = keys

        start = 0
        prev: Artifact | None = None
        for i, impl in enumerate(self.stages):
            seeded = ctx.artifacts.get(impl.name)
            if seeded is not None and i <= end:
                start = i + 1
                prev = seeded
        if prev is not None:
            ctx.diagnostics[:] = list(prev.diagnostics)
        # Stages skipped via seeded artifacts cost nothing but must
        # still appear in the timing dict (legacy key-set contract).
        for impl in self.stages[:start]:
            ctx.stage_seconds.setdefault(impl.name, 0.0)

        if cache is not None and save_dir is None:
            hit = self._probe_backwards(ctx, keys, start, end)
            if hit is not None:
                start, prev = hit

        try:
            for i in range(start, end + 1):
                impl = self.stages[i]
                name = impl.name
                started = time.perf_counter()
                artifact = self._load_hit(ctx, keys.get(name), name)
                if artifact is None:
                    with stage_guard(name, None, ctx.diagnostics):
                        artifact = impl.run(prev, ctx)
                    key = keys.get(name)
                    if key is not None:
                        artifact.fingerprint = key
                        if cache is not None:
                            cache.store(key, artifact)
                ctx.stage_seconds[name] = time.perf_counter() - started
                ctx.artifacts[name] = artifact
                prev = artifact
        except Exception as exc:
            self._stamp_profile(ctx, exc)
            raise

        run = StagedRun(
            artifacts=dict(ctx.artifacts),
            stage_seconds=dict(ctx.stage_seconds),
            cache_hits=tuple(ctx.cache_hits),
            diagnostics=ctx.diagnostics,
            profiler=ctx.profiler,
        )
        if save_dir is not None:
            for i, name in enumerate(STAGE_ORDER):
                artifact = run.artifacts.get(name)
                if artifact is not None:
                    run.saved[name] = artifact.save(
                        save_dir / f"{i}-{name.value}{ARTIFACT_SUFFIX}"
                    )
        return run

    # -- internals --------------------------------------------------------

    def _key_chain(self, ctx: RunContext) -> dict[StageName, str | None]:
        """Derive every stage's cache key by chaining fingerprints."""
        keys: dict[StageName, str | None] = {}
        options = ctx.options
        if options.artifact_cache is None and options.save_artifacts is None:
            return keys
        fp: str | None = None
        for impl in self.stages:
            seeded = ctx.artifacts.get(impl.name)
            if seeded is not None:
                if not seeded.fingerprint:
                    seeded.fingerprint = seeded.content_fingerprint()
                fp = seeded.fingerprint
            else:
                fp = impl.cache_key(fp, ctx)
            keys[impl.name] = fp
        return keys

    def _probe_backwards(
        self,
        ctx: RunContext,
        keys: dict[StageName, str | None],
        start: int,
        end: int,
    ) -> tuple[int, Artifact] | None:
        """Find the furthest cached stage; load only that one artifact."""
        for i in range(end, start - 1, -1):
            name = self.stages[i].name
            artifact = self._load_hit(ctx, keys.get(name), name, probe=True)
            if artifact is None:
                continue
            ctx.artifacts[name] = artifact
            for impl in self.stages[start : i + 1]:
                ctx.cache_hits.append(impl.name)
                # Hits cost ~one deserialize; charge them zero so the
                # timing dict keeps the legacy key set either way.
                ctx.stage_seconds.setdefault(impl.name, 0.0)
            ctx.diagnostics[:] = list(artifact.diagnostics)
            return i + 1, artifact
        return None

    def _load_hit(
        self,
        ctx: RunContext,
        key: str | None,
        name: StageName,
        probe: bool = False,
    ) -> Artifact | None:
        """Cache lookup; only trusts entries of the stage's artifact type."""
        cache = ctx.options.artifact_cache
        if key is None or cache is None:
            return None
        if not probe and ctx.options.save_artifacts is None:
            # Without a save dir, hits are taken by the backward probe;
            # the forward loop only computes.
            return None
        artifact = cache.load(key)
        if not isinstance(artifact, ARTIFACT_TYPES.get(name, Artifact)):
            return None
        artifact.fingerprint = key
        if not probe:
            ctx.cache_hits.append(name)
            ctx.diagnostics[:] = list(artifact.diagnostics)
        return artifact

    def _stamp_profile(self, ctx: RunContext, exc: BaseException) -> None:
        """Attach the partial profile so FailureReport can carry it."""
        if ctx.profiler is None or hasattr(exc, "_gana_profile"):
            return
        try:
            exc._gana_profile = _finish_profile(ctx.profiler, ctx.stage_seconds)
        except Exception:  # pragma: no cover - never block the raise
            pass


# ---------------------------------------------------------------------------
# Sub-stage incremental recompute: the primitive-match cache
# ---------------------------------------------------------------------------

#: Bumped when matching semantics change (predicates, canonical order…).
MATCH_CACHE_VERSION = 1


class PrimitiveMatchCache:
    """Per-CCC-subgraph, per-template VF2 match memo.

    Postprocessing I matches every library template against every
    channel-connected component's induced subgraph.  The raw match list
    of one (subgraph, template) pair is independent of the rest of the
    library (overlap claiming happens later, largest-first), so it is
    keyed by subgraph content + template fingerprint and reused across
    runs: after a library change, only templates actually *new* to the
    library pay for VF2 — the incremental-recompute half of the staged
    architecture below stage granularity.

    Entries live in the same :class:`~repro.runtime.cache.ArtifactCache`
    as stage artifacts, one pickle per subgraph holding a
    ``{template_fingerprint: [PrimitiveMatch, ...]}`` dict.
    """

    def __init__(self, cache: ArtifactCache):
        self._cache = cache

    @staticmethod
    def ccc_key(devices) -> str:
        """Content key of one CCC's member devices, in element order.

        ``repr`` of the element dataclasses is deterministic (strings,
        enums, floats, tuples) and an order of magnitude faster than
        the generic walker — this runs once per CCC per run.  The empty
        tuple is the port list of the per-CCC subgraph circuit the key
        was first taken over; keeping it keeps stored entries valid.
        """
        raw = repr((tuple(devices), ()))
        digest = hashlib.sha256(raw.encode("utf-8")).hexdigest()[:32]
        return f"ccc-matches-v{MATCH_CACHE_VERSION}-{digest}"

    def load(self, key: str) -> "dict[str, list[PrimitiveMatch]]":
        """The stored template→matches dict for ``key`` (empty on miss)."""
        value = self._cache.load(key)
        return value if isinstance(value, dict) else {}

    def store(self, key: str, memo: "dict[str, list[PrimitiveMatch]]") -> None:
        self._cache.store(key, dict(memo))


# ---------------------------------------------------------------------------
# Result comparison helper
# ---------------------------------------------------------------------------


def pipeline_result_fingerprint(result: Any) -> str:
    """Semantic digest of a ``PipelineResult``: everything except
    wall-clock (timings / profile).  Two runs that recognized the same
    design identically — annotations, constraints, hierarchy,
    diagnostics, degradation — share this fingerprint; the golden tests
    use it to assert the staged path matches the legacy monolith."""
    return content_fingerprint(
        "pipeline-result",
        result.gcn_annotation,
        result.post1,
        result.post2,
        result.hierarchy,
        result.constraints,
        result.preprocess_report,
        tuple(result.diagnostics),
        result.degraded,
        result.degraded_reason,
    )
