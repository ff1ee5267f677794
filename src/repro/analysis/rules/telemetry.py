"""SNIC004 — trace spans/metrics emitted without a tenant tag.

The observability layer's contract (DESIGN.md §1.4) is that every event
carries the paper's security-domain identity, so cross-tenant
interference is *attributable* in Perfetto and in the metrics registry.
An untagged span silently merges tenants — the exporter files it under
the infrastructure process and per-tenant analyses under-count.

The rule requires an **explicit** ``tenant=`` keyword on every tracer
emission (``complete``/``instant``/``counter_sample``/``span``) and on
every registry instrument mint (``counter``/``gauge``/``histogram``).
``tenant=None`` is the sanctioned way to mark genuine infrastructure
events — the point is that untagged emission must be a decision, not an
omission.  Receivers are matched by name (``*tracer*``, ``*registry*``),
the same approximation SNIC001 uses.

Interference-attribution metrics (name literal starting with
``interference_``, the :mod:`repro.obs.interference` families) are held
to a stricter contract: a wait means nothing without *both* sides of the
edge, so the mint must carry ``tenant=`` (the victim) **and**
``culprit=``.  A victim-only interference counter is exactly the
half-attributed telemetry this PR class exists to prevent.

SLO metrics (name literal starting with ``slo_``, the
:mod:`repro.obs.slo` families) get the same escalation on the other
axis: an SLO is *per tenant by definition* — a tenantless SLO latency
histogram cannot be judged against anyone's objectives — so the usual
``tenant=None`` infrastructure escape hatch is rejected; the mint must
carry a real tenant.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import (
    Finding,
    ModuleSource,
    Rule,
    call_name,
    has_keyword,
    receiver_token,
)

_TRACE_METHODS = {"complete", "instant", "counter_sample", "span"}
_REGISTRY_METHODS = {"counter", "gauge", "histogram"}

#: The observability plumbing itself mints/forwards instruments
#: generically and cannot know a tenant.
EXCLUDED_MODULES = ("repro.obs.tracer", "repro.obs.metrics",
                    "repro.obs.export", "repro.obs.chrome_trace",
                    "repro.analysis")


class UntaggedTelemetryRule(Rule):
    rule_id = "SNIC004"
    title = "telemetry emitted without a tenant tag"
    rationale = ("DESIGN.md §1.4 / paper §4: every observable event "
                 "belongs to a security domain; untagged telemetry "
                 "makes cross-tenant interference unattributable")
    hint = ("pass tenant=<nf_id> (or an explicit tenant=None for "
            "infrastructure events) on the emission call; interference_* "
            "metrics additionally need culprit=<nf_id>; slo_* metrics "
            "need a real tenant (tenant=None is rejected)")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if module.modname.startswith(EXCLUDED_MODULES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            method = call_name(node)
            receiver = receiver_token(node)
            if method in _TRACE_METHODS and "tracer" in receiver:
                if not has_keyword(node, "tenant"):
                    yield self.finding(
                        module, node,
                        f"tracer.{method}() without an explicit tenant= "
                        f"tag")
            elif method in _REGISTRY_METHODS and "registry" in receiver:
                metric_name = _metric_name_literal(node)
                if metric_name is not None \
                        and metric_name.startswith("interference_"):
                    missing = [label for label in ("tenant", "culprit")
                               if not has_keyword(node, label)]
                    if missing:
                        yield self.finding(
                            module, node,
                            f"registry.{method}() mints interference-"
                            f"attribution metric {metric_name!r} without "
                            + " and ".join(f"{label}=" for label in missing)
                            + " (both victim and culprit are required)")
                elif metric_name is not None \
                        and metric_name.startswith("slo_"):
                    if not has_keyword(node, "tenant") \
                            or _keyword_is_none(node, "tenant"):
                        yield self.finding(
                            module, node,
                            f"registry.{method}() mints SLO metric "
                            f"{metric_name!r} without a real tenant= "
                            f"label (SLOs are per-tenant by definition; "
                            f"tenant=None is not attributable)")
                elif not has_keyword(node, "tenant"):
                    yield self.finding(
                        module, node,
                        f"registry.{method}() mints an instrument with "
                        f"no tenant label")


def _keyword_is_none(node: ast.Call, name: str) -> bool:
    """True when ``name=None`` is passed as a literal keyword."""
    for keyword in node.keywords:
        if keyword.arg == name:
            return isinstance(keyword.value, ast.Constant) \
                and keyword.value.value is None
    return False


def _metric_name_literal(node: ast.Call) -> "str | None":
    """The metric-name string when it is a literal first argument."""
    if node.args and isinstance(node.args[0], ast.Constant) \
            and isinstance(node.args[0].value, str):
        return node.args[0].value
    return None
