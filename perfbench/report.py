"""Per-layer metrics and the tables a traced run prints.

Every per-layer value is per work item (per deck, or per training
epoch) of the traced calls, so counts repeat exactly from run to run.
"""

from __future__ import annotations

import numpy as np

GCN_LAYERS = ("ChebConv", "Dense", "BatchNorm", "GraphPool", "GraphUnpool",
              "Dropout")
STAGES = ("parse", "preprocess", "graph", "gcn", "post1", "post2",
          "hierarchy")
HIER_COUNTS = ("interior", "reused", "replayed", "guard_failures")

#: Metric → (unit, source): a span name (its total seconds),
#: ``calls:<span>``, ``#<counter>``, or None when derived in
#: :func:`per_item_layers` (or, for pool health and overhead, by the
#: caller).
PER_LAYER: dict[str, tuple[str, str | None]] = {
    "spice.parse_s": ("s", "spice.parse"),
    "spice.flatten_s": ("s", "spice.flatten"),
    "spice.preprocess_s": ("s", "spice.preprocess"),
    "spice.devices": ("count", "#spice.devices"),
    "graph.build_s": ("s", "graph.build"),
    "graph.build_calls": ("count", "calls:graph.build"),
    "graph.ccc_s": ("s", "graph.ccc"),
    "graph.cccs": ("count", "#graph.cccs"),
    "graph.features_s": ("s", "graph.features"),
    "graph.laplacian_s": ("s", "graph.laplacian"),
    "graph.vertices": ("count", "#graph.vertices"),
    "gcn.annotate_s": ("s", "gcn.annotate"),
    "gcn.sample_build_s": ("s", "gcn.sample_build"),
    "gcn.pack_s": ("s", "gcn.pack"),
    "gcn.forward_s": ("s", "gcn.forward"),
    "gcn.forward_calls": ("count", "calls:gcn.forward"),
    "gcn.backward_s": ("s", "gcn.backward"),
    **{
        f"gcn.{layer}.{way}_s": ("s", f"gcn.{layer}.{way}")
        for layer in GCN_LAYERS
        for way in ("fwd", "bwd")
    },
    "gcn.other_s": ("s", "gcn.other"),
    "gcn.optim.step_s": ("s", "gcn.optim.step"),
    "gcn.checkpoint.save_s": ("s", "gcn.checkpoint.save"),
    "gcn.checkpoint.saves": ("count", "calls:gcn.checkpoint.save"),
    "gcn.minibatches": ("count", "calls:gcn.optim.step"),
    "primitives.match_calls": ("count", "calls:primitives.match"),
    "primitives.match_s": ("s", "primitives.match"),
    "primitives.vf2_init_s": ("s", "primitives.vf2_init"),
    "primitives.vf2_search_s": ("s", "primitives.vf2_search"),
    "primitives.vf2_searches": ("count", "calls:primitives.vf2_search"),
    "primitives.filter_s": ("s", "primitives.filter"),
    "primitives.matches": ("count", "#primitives.matches"),
    "primitives.match_yield": ("ratio", None),
    **{f"core.stage.{s}_s": ("s", f"core.stage.{s}") for s in STAGES},
    "core.post1.self_s": ("s", None),
    "core.unattributed_s": ("s", None),
    **{f"core.hier.{key}": ("count", None) for key in HIER_COUNTS},
    "core.hier.definitions_s": ("s", "core.hier.definitions"),
    "runtime.parallel_map_s": ("s", "runtime.parallel_map"),
    "runtime.pool_breaks": ("count", None),
    "runtime.pool_rebuilt": ("count", None),
    "trace.overhead_frac": ("ratio", None),
}

#: The span that brackets one timed call of each workload.
CALL_SPAN = {
    "pa64_flat": "core.run",
    "pa64_hier": "core.run",
    "fleet_ota": "core.run_many",
    "train_ota": "gcn.train",
}


def per_item_layers(workload: str, tracer, items: int,
                    hier: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, per work item."""
    totals = tracer.totals()
    items = max(items, 1)

    def total(name, index=1):
        return totals.get(name, (0, 0.0, 0.0))[index]

    values: dict[str, float] = {}
    for metric, (_unit, source) in PER_LAYER.items():
        if source is None:
            values[metric] = 0.0
        elif source.startswith("#"):
            values[metric] = tracer.counters[source[1:]] / items
        elif source.startswith("calls:"):
            values[metric] = total(source[6:], 0) / items
        else:
            values[metric] = total(source) / items
    calls = values["primitives.match_calls"]
    values["primitives.match_yield"] = (
        values["primitives.matches"] / calls if calls else 0.0
    )
    values["core.post1.self_s"] = values["core.stage.post1_s"] - (
        tracer.covered_by("core.stage.post1", ("primitives.", "graph."))
        / items
    )
    stage_s = sum(total(f"core.stage.{s}") for s in STAGES)
    if stage_s:
        values["core.unattributed_s"] = (
            (total(CALL_SPAN[workload]) - stage_s) / items
        )
    for key in HIER_COUNTS:
        values[f"core.hier.{key}"] = float(hier.get(key, 0))
    return values


def layer_table(tracer, items: int, label: str) -> list[str]:
    """Self time per layer and per span, per work item."""
    totals = tracer.totals()
    items = max(items, 1)
    roots = {span[0] for span in tracer.spans if span[3] < 0}
    wall = sum(totals[name][1] for name in roots)
    by_layer: dict[str, float] = {}
    for name, (_calls, _total, own) in totals.items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + own
    lines = [f"self time per layer ({label}; per item, {items} items)"]
    for layer, own in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        share = own / wall if wall else 0.0
        lines.append(f"  {layer:<12} {own / items:10.5f} s  {share:6.1%}")
    lines.append(f"self time per span ({label}; per item)")
    lines.append(f"  {'span':<28} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for name, (calls, total, own) in sorted(
        totals.items(), key=lambda kv: -kv[1][2]
    ):
        lines.append(
            f"  {name:<28} {calls / items:9.1f} {total / items:10.5f} "
            f"{own / items:10.5f}"
        )
    if tracer.missing:
        lines.append("  targets not found: " + ", ".join(tracer.missing))
    return lines


def sec5b_table(values: dict[str, float], scaling: list[dict]) -> list[str]:
    """Paper Sec. V-B: is a deck's runtime dominated by the GCN?  And is
    deck time linear in vertices (Sec. IV-A, V-B)?"""
    deck = sum(values[f"core.stage.{s}_s"] for s in STAGES)
    deck += values["core.unattributed_s"]
    lines = [
        "Sec. V-B check (pa64_flat, traced, per deck): the paper says "
        "runtime is 'dominated by the runtime of the GCN'",
        f"  {'stage':<14} {'seconds':>9} {'share':>7}",
    ]
    rows = [(s, values[f"core.stage.{s}_s"]) for s in STAGES]
    rows.append(("unattributed", values["core.unattributed_s"]))
    for stage, seconds in rows:
        lines.append(f"  {stage:<14} {seconds:9.4f} {seconds / deck:7.1%}")
    cccs = values["graph.cccs"] or 1.0
    lines.append(
        f"  why: {values['graph.build_calls']:.0f} graph builds and "
        f"{values['primitives.match_calls']:.0f} template match calls for "
        f"{values['graph.cccs']:.0f} CCCs "
        f"({values['graph.build_calls'] / cccs:.2f} builds and "
        f"{values['primitives.match_calls'] / cccs:.2f} matches per CCC); "
        f"post1 self time {values['core.post1.self_s']:.4f} s"
    )
    vertices = np.array([row["vertices"] for row in scaling], float)
    seconds = np.array([row["deck_s"] for row in scaling])
    slope, intercept = np.polyfit(vertices, seconds, 1)
    residual = float(((seconds - (slope * vertices + intercept)) ** 2).sum())
    spread = float(((seconds - seconds.mean()) ** 2).sum())
    lines.append("scaling (untraced median deck seconds vs vertices; "
                 "reported, not gated)")
    lines.append(f"  {'channels':>8} {'vertices':>9} {'deck_s':>9} "
                 f"{'us/vertex':>10}")
    for row in scaling:
        lines.append(
            f"  {row['channels']:8d} {row['vertices']:9d} "
            f"{row['deck_s']:9.4f} "
            f"{1e6 * row['deck_s'] / row['vertices']:10.2f}"
        )
    lines.append(
        f"  linear fit: deck_s = {intercept:.4f} + {slope * 1e6:.3f}e-6 * "
        f"vertices, R^2 = {1 - residual / spread if spread else 1.0:.4f}"
    )
    return lines


def training_split(values: dict[str, float], epoch_s: float) -> str:
    """Where a training epoch goes, next to the earlier estimate made by
    patching the layer classes by hand."""
    def share(metric):
        return f"{values[metric] / epoch_s:.1%}"

    return (
        f"training split per epoch ({epoch_s:.4f} s traced): ChebConv "
        f"backward {share('gcn.ChebConv.bwd_s')}, forward "
        f"{share('gcn.ChebConv.fwd_s')}; Dense backward "
        f"{share('gcn.Dense.bwd_s')}, forward {share('gcn.Dense.fwd_s')}; "
        f"optimizer {share('gcn.optim.step_s')}; checkpoints "
        f"{share('gcn.checkpoint.save_s')} (earlier estimate: ChebConv "
        f"backward ~55%, Dense backward ~27%)"
    )
