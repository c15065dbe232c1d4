"""The monolith reference: the pre-staged GANA flow as one function.

:func:`run_monolith` is the single-function implementation that
predates the staged runner (:mod:`repro.core.stages`), kept verbatim
apart from taking the pipeline as an argument.  It is slower and has
none of the staged features (caching, resume, hierarchy-scoped
matching), so it lives here rather than in production code.  The
golden tests (``tests/core/test_stages.py``) and the
``staged_vs_monolith`` oracle (:mod:`repro.testing.oracles`) assert
that :meth:`~repro.core.pipeline.GanaPipeline.run` produces a
semantically identical :class:`~repro.core.pipeline.PipelineResult`.
"""

from __future__ import annotations

from repro.core.pipeline import GanaPipeline, PipelineResult, build_hierarchy
from repro.core.postprocess import apply_port_rules, postprocess_ccc
from repro.graph.bipartite import CircuitGraph
from repro.graph.features import NetRole
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
