"""Out-of-program span tracing for the benchmark.

The program has no tracer of its own yet, so the traced run records
spans from outside: :class:`Tracer` wraps the public functions and
methods of ``repro.spice``, ``graph``, ``gcn``, ``primitives``,
``core`` and ``runtime`` (the :data:`TARGETS` table), keeps every span
in memory, and restores the original objects on :meth:`Tracer.remove`.

A span is ``(name, start_ns, end_ns, parent_index)``.  A call that
re-enters a span name already open on the stack is not recorded again
(``rescaled_laplacian`` calling ``largest_eigenvalue``, say), so a
name's total time never counts the same interval twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

#: ``(module, attribute path, span name)``.  A dotted attribute path
#: names a method; every stage class's ``run`` is a ``core.stage.*``
#: span.  A target the program no longer has is reported as missing,
#: not fatal, so a refactor shows up as zeros rather than a crash.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.spice.parser", "parse_netlist", "spice.parse"),
    ("repro.spice.flatten", "flatten", "spice.flatten"),
    ("repro.spice.flatten", "flatten_hierarchical", "spice.flatten"),
    ("repro.spice.preprocess", "preprocess", "spice.preprocess"),
    ("repro.graph.bipartite", "CircuitGraph.from_circuit", "graph.build"),
    ("repro.graph.ccc", "channel_connected_components", "graph.ccc"),
    ("repro.graph.features", "feature_matrix", "graph.features"),
    ("repro.graph.laplacian", "normalized_laplacian", "graph.laplacian"),
    ("repro.graph.laplacian", "rescaled_laplacian", "graph.laplacian"),
    ("repro.graph.laplacian", "largest_eigenvalue", "graph.laplacian"),
    ("repro.core.annotator", "GcnAnnotator.annotate", "gcn.annotate"),
    ("repro.core.annotator", "GcnAnnotator.annotate_batch", "gcn.annotate"),
    ("repro.gcn.samples", "GraphSample.from_graph", "gcn.sample_build"),
    ("repro.gcn.batch", "pack_samples", "gcn.pack"),
    ("repro.gcn.model", "GCNModel.forward", "gcn.forward"),
    ("repro.gcn.model", "GCNModel.forward_packed", "gcn.forward"),
    ("repro.gcn.model", "GCNModel.backward", "gcn.backward"),
    ("repro.gcn.layers", "ChebConv.forward", "gcn.ChebConv.fwd"),
    ("repro.gcn.layers", "ChebConv.backward", "gcn.ChebConv.bwd"),
    ("repro.gcn.layers", "Dense.forward", "gcn.Dense.fwd"),
    ("repro.gcn.layers", "Dense.backward", "gcn.Dense.bwd"),
    ("repro.gcn.layers", "BatchNorm.forward", "gcn.BatchNorm.fwd"),
    ("repro.gcn.layers", "BatchNorm.backward", "gcn.BatchNorm.bwd"),
    ("repro.gcn.layers", "GraphPool.forward", "gcn.GraphPool.fwd"),
    ("repro.gcn.layers", "GraphPool.backward", "gcn.GraphPool.bwd"),
    ("repro.gcn.layers", "GraphUnpool.forward", "gcn.GraphUnpool.fwd"),
    ("repro.gcn.layers", "GraphUnpool.backward", "gcn.GraphUnpool.bwd"),
    ("repro.gcn.layers", "Dropout.forward", "gcn.Dropout.fwd"),
    ("repro.gcn.layers", "Dropout.backward", "gcn.Dropout.bwd"),
    ("repro.gcn.layers", "ReLU.forward", "gcn.other"),
    ("repro.gcn.layers", "ReLU.backward", "gcn.other"),
    ("repro.gcn.layers", "Tanh.forward", "gcn.other"),
    ("repro.gcn.layers", "Tanh.backward", "gcn.other"),
    ("repro.gcn.layers", "Concat.forward", "gcn.other"),
    ("repro.gcn.layers", "Concat.backward", "gcn.other"),
    ("repro.gcn.optim", "Adam.step", "gcn.optim.step"),
    ("repro.gcn.optim", "SGD.step", "gcn.optim.step"),
    ("repro.gcn.checkpoint", "CheckpointStore.save", "gcn.checkpoint.save"),
    ("repro.gcn.train", "train", "gcn.train"),
    ("repro.gcn.train", "_run_epoch", "gcn.train.epoch"),
    ("repro.primitives.matcher", "find_primitive_matches", "primitives.match"),
    ("repro.primitives.isomorphism", "VF2Matcher.__init__", "primitives.vf2_init"),
    ("repro.primitives.isomorphism", "VF2Matcher.find_all", "primitives.vf2_search"),
    ("repro.primitives.signatures", "build_filter", "primitives.filter"),
    ("repro.core.pipeline", "GanaPipeline.run", "core.run"),
    ("repro.core.pipeline", "GanaPipeline.run_many", "core.run_many"),
    ("repro.core.pipeline", "ParseStage.run", "core.stage.parse"),
    ("repro.core.pipeline", "PreprocessStage.run", "core.stage.preprocess"),
    ("repro.core.pipeline", "GraphStage.run", "core.stage.graph"),
    ("repro.core.pipeline", "GcnStage.run", "core.stage.gcn"),
    ("repro.core.pipeline", "Post1Stage.run", "core.stage.post1"),
    ("repro.core.pipeline", "Post2Stage.run", "core.stage.post2"),
    ("repro.core.pipeline", "HierarchyStage.run", "core.stage.hierarchy"),
    ("repro.core.hier_annotate", "annotate_definitions", "core.hier.definitions"),
    ("repro.runtime.parallel", "parallel_map", "runtime.parallel_map"),
)

_COUNTED = {"spice.flatten", "graph.ccc", "primitives.match",
            "core.stage.graph"}


def _count_result(name: str, result, counters: Counter) -> None:
    """Counters read off a wrapped call's return value."""
    if name == "spice.flatten":
        circuit = result[0] if isinstance(result, tuple) else result
        counters["spice.devices"] += len(circuit.devices)
    elif name == "graph.ccc":
        counters["graph.cccs"] += result.n_components
    elif name == "primitives.match":
        counters["primitives.matches"] += len(result)
    elif name == "core.stage.graph":
        counters["graph.vertices"] += result.graph.n_vertices


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        # One flat list per span field: appending ints and interned
        # names allocates no objects the garbage collector must track.
        self._names: list[str] = []
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._parents: list[int] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self.active = False

    # -- recording -----------------------------------------------------

    @property
    def spans(self) -> list[tuple[str, int, int, int]]:
        """``(name, start_ns, end_ns, parent_index)`` per span."""
        return list(zip(self._names, self._starts, self._ends, self._parents))

    def _wrap(self, fn, name: str):
        names, starts, ends, parents = (
            self._names, self._starts, self._ends, self._parents
        )
        stack, open_names = self._stack, self._open
        clock = time.perf_counter_ns
        counted = name in _COUNTED
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or name in open_names:
                return fn(*args, **kwargs)
            index = len(names)
            parents.append(stack[-1] if stack else -1)
            names.append(name)
            ends.append(0)
            stack.append(index)
            open_names.add(name)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                open_names.discard(name)
            if counted:
                _count_result(name, result, tracer.counters)
            return result

        traced.__perfbench_original__ = fn
        return traced

    # -- installation --------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; see :meth:`remove`."""
        for module_name in sorted({target[0] for target in targets}):
            importlib.import_module(module_name)
        for module_name, path, name in targets:
            owner = sys.modules[module_name]
            *owner_path, attr = path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = (
                    vars(owner)[attr]
                    if isinstance(owner, type)
                    else getattr(owner, attr)
                )
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(owner, type):
                self._patch_method(owner, attr, raw, name)
            else:
                self._patch_function(raw, name)
        self.active = True

    def _patch_method(self, cls: type, attr: str, raw, name: str) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, name))
        else:
            wrapped = self._wrap(raw, name)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _patch_function(self, fn, name: str) -> None:
        # ``from x import f`` copies the binding, so every ``repro``
        # module that holds the function gets the wrapper.
        wrapped = self._wrap(fn, name)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def remove(self) -> None:
        """Restore every patched binding; the wrappers go inert."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        # A module imported while tracing may have copied a wrapper.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                original = getattr(value, "__perfbench_original__", None)
                if original is not None:
                    setattr(module, attr, original)

    # -- views ---------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name → (calls, total_s, self_s)``."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0, 0])
        for index, (name, start, end, _parent) in enumerate(spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns[index]
        return {
            name: (calls, total / 1e9, own / 1e9)
            for name, (calls, total, own) in out.items()
        }

    def covered_by(self, ancestor: str, layers: tuple[str, ...]) -> float:
        """Seconds of ``ancestor`` spans covered by their outermost
        descendants whose name starts with one of ``layers``."""
        names, parents = self._names, self._parents
        total_ns = 0
        for name, start, end, parent in self.spans:
            if not name.startswith(layers):
                continue
            while parent >= 0 and not names[parent].startswith(layers):
                if names[parent] == ancestor:
                    total_ns += end - start
                    break
                parent = parents[parent]
        return total_ns / 1e9

    def chrome_events(self, pid: int = 1) -> list[dict]:
        """Chrome trace-event ``X`` records (Perfetto, chrome://tracing)."""
        spans = self.spans
        origin = min(self._starts, default=0)
        return [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": pid,
                "tid": 1,
                "args": {
                    "id": index,
                    "parent": spans[parent][0] if parent >= 0 else None,
                    "parent_id": parent,
                },
            }
            for index, (name, start, end, parent) in enumerate(spans)
        ]


def write_chrome_trace(path, tracers: dict[str, Tracer]) -> None:
    """One trace file; each tracer becomes its own process row."""
    events: list[dict] = []
    for pid, (label, tracer) in enumerate(tracers.items(), start=1):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 1,
             "args": {"name": label}}
        )
        events.extend(tracer.chrome_events(pid))
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
