"""The whole-program rule SNIC009 (cross-tenant taint).

It is a :class:`repro.analysis.lint.ProgramRule` subclass so it plugs
into the same registry, formats, and ``# snic: ignore[...]``
suppression machinery as SNIC001–008; it runs under
``python -m repro dataflow`` because it needs every module at once.
Each finding carries a stable ``key`` fingerprint (qualnames, not line
numbers) that the committed baseline matches against.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.analysis.dataflow.graph import ProgramGraph
from repro.analysis.dataflow.taint import TaintAnalysis
from repro.analysis.lint import Finding, ModuleSource, ProgramRule


def _module_for(modules: Sequence[ModuleSource],
                modname: str) -> ModuleSource:
    for module in modules:
        if module.modname == modname:
            return module
    raise KeyError(modname)


class CrossTenantFlowRule(ProgramRule):
    rule_id = "SNIC009"
    title = "unmediated cross-tenant dataflow (taint source reaches a " \
            "sink without a mediation choke point)"
    rationale = ("§4.1–§4.2: every path from one tenant's state to "
                 "another must pass through NIC-OS denylist walks, "
                 "attestation verdicts, locked-TLB translation, "
                 "DMA-window checks, or scrub — the mediated-sharing "
                 "claim, checked interprocedurally")
    hint = ("route the flow through a mediation choke point "
            "(NICOS.os_read/os_write, DenylistPageTable.check, "
            "TLB.translate, PacketSchedulerUnit.check_dma, or the "
            "scrub path), or suppress with # snic: ignore[SNIC009] "
            "plus the mediation argument")

    def check_program(
            self, modules: Sequence[ModuleSource]) -> Iterator[Finding]:
        graph = ProgramGraph.build(modules)
        for flow in TaintAnalysis(graph).run():
            sink = flow.sink_site
            module = _module_for(modules, sink.modname)
            source = flow.source_site
            yield Finding(
                rule=self.rule_id,
                message=(
                    f"{flow.sink_describe} receives tenant-tainted data "
                    f"with no mediation on the path: "
                    f"{flow.chain_text()} (source: "
                    f"{flow.source_describe} at "
                    f"{source.modname}:{source.lineno})"),
                path=str(module.path),
                line=sink.lineno,
                col=sink.col,
                hint=self.hint,
                key=f"{flow.chain[0]}->{sink.name}"
                    f"<-{flow.chain[-1]}:{source.name}",
            )

