"""The differential harness behind ``repro audit`` and ``repro chaos``.

Both studies ask the paper's one question (§3.3 fate-sharing, Figure 5
and §6 noninterference): does what one tenant does change what another
observes?  A rig runs on the commodity models and on the S-NIC models,
each twice — unperturbed, then perturbed by a co-tenant or an injected
fault — and the blame matrix is read after the perturbed leg.  The
verdict is always "commodity nonzero, S-NIC exactly zero".

A study (:mod:`repro.obs.audit`, :mod:`repro.faults.chaos`) is a rig
table, an entry builder over :func:`run_legs`, a verdict and a
:class:`View`; this module is everything they share.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import (IO, Any, Callable, ContextManager, Dict, Iterator,
                    Mapping, Optional, Sequence, Tuple, TypeVar)

from repro.core.errors import (IsolationViolation, RecoveryExhausted,
                               WatchdogTimeout)
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.obs import postmortem as postmortem_mod
from repro.obs.auditlog import AuditLog
from repro.obs.flight import FlightRecorder
from repro.obs.telemetry import Telemetry, current, open_run

Report = Dict[str, Any]
_Leg = TypeVar("_Leg")


@contextmanager
def study_scope() -> Iterator[bool]:
    """IsoSan outermost around a whole study, in its own telemetry run;
    yields whether IsoSan is installed."""
    from repro.analysis.isosan import get_isosan, sanitized

    with open_run(), sanitized():
        yield get_isosan().installed


def run_legs(rig: Callable[[bool], _Leg], *,
             forensic: Optional[ContextManager[object]] = None
             ) -> Tuple[_Leg, _Leg, Telemetry]:
    """One configuration's two legs, each in its own telemetry run:
    ``rig(False)``, then ``rig(True)`` inside ``forensic`` (if given).

    Returns both legs' results and the perturbed leg's telemetry, whose
    registry holds that leg's blame matrix and instruments alone.
    """
    with open_run():
        unperturbed = rig(False)
    with open_run() as telemetry:
        with forensic if forensic is not None else nullcontext():
            perturbed = rig(True)
    return unperturbed, perturbed, telemetry


@contextmanager
def armed(plan: Optional[FaultPlan],
          targets: Optional[Dict[FaultKind, Any]] = None,
          *, paced: bool = False) -> Iterator[Optional[FaultInjector]]:
    """A :class:`FaultInjector` for ``plan``, installed for the block.

    Yields ``None`` when ``plan`` is ``None`` (the unperturbed leg).
    Every event is armed on entry (``targets`` maps state-corrupting
    kinds to what they corrupt) unless ``paced``, when the rig arms
    events from its own time loop through a ``PlanDriver``.  Use inside
    :func:`study_scope`: IsoSan wraps some of the same methods, so the
    injector must unwind first.
    """
    if plan is None:
        yield None
        return
    injector = FaultInjector(plan).install()
    try:
        if not paced:
            injector.arm_all(targets)
        yield injector
    finally:
        injector.uninstall()


def injection_info(injector: Optional[FaultInjector],
                   **extra: float) -> Dict[str, float]:
    """A rig's info block: the count of faults that landed plus
    ``extra``; empty for the unperturbed leg."""
    if injector is None:
        return {}
    info = {key: float(value) for key, value in extra.items()}
    info["injected"] = float(len(injector.records))
    return info


@contextmanager
def forensics(directory: str, name: str, reason: object,
              spec: object = None) -> Iterator[None]:
    """Arm a fresh flight recorder and audit log on the current run
    around one perturbed leg, which then leaves ``POSTMORTEM_<name>.json``
    in ``directory``: a crash bundle if a containment failure escapes,
    else one carrying ``reason``.
    """
    telemetry = current()
    telemetry.arm(audit_log=AuditLog(), flight=FlightRecorder())

    def write(why: object) -> None:
        postmortem_mod.write_bundle(
            postmortem_mod.build_bundle(reason=why, spec=spec),
            postmortem_mod.bundle_path(directory, name))

    try:
        yield
    except (IsolationViolation, WatchdogTimeout, RecoveryExhausted) as exc:
        write(exc)  # containment failed: capture the crime scene
        raise
    else:
        write(reason)
    finally:
        telemetry.arm(audit_log=None, flight=None)


@dataclass(frozen=True)
class Table:
    title: str
    header: Sequence[str]
    rows: Sequence[Sequence[str]]
    notes: Sequence[str] = ()


@dataclass(frozen=True)
class View:
    """What a study shows; ``claim`` is what a passing verdict states."""

    title: str
    meta: Sequence[str]
    tables: Sequence[Table]
    verdict: Mapping[str, Any]
    claim: str


def render_text(view: View) -> str:
    lines = [f"=== {view.title} ===", *view.meta]
    for table in view.tables:
        lines += ["", f"--- {table.title} ---"]
        widths = [max(map(len, column))
                  for column in zip(table.header, *table.rows)]
        for row in (table.header, *table.rows):
            lines.append("  ".join(
                cell.ljust(width) if i == 0 else cell.rjust(width)
                for i, (cell, width) in enumerate(zip(row, widths))))
            if row is table.header:
                lines.append("-" * len(lines[-1]))
        lines += table.notes
    lines.append("")
    if view.verdict["pass"]:
        lines.append(f"VERDICT: PASS — {view.claim}")
    else:
        lines.append("VERDICT: FAIL")
        lines += [f"  - {reason}" for reason in view.verdict["reasons"]]
    return "\n".join(lines) + "\n"


def render_markdown(view: View) -> str:
    lines = [f"# {view.title}", "", *(f"- {line}" for line in view.meta)]
    for table in view.tables:
        lines += ["", f"## {table.title}", "",
                  "| " + " | ".join(table.header) + " |",
                  "|---" + "|---:" * (len(table.header) - 1) + "|"]
        lines += ["| " + " | ".join(row) + " |" for row in table.rows]
        if table.notes:
            lines += ["", *(f"- {note}" for note in table.notes)]
    lines.append("")
    if view.verdict["pass"]:
        lines.append(f"**Verdict: PASS** — {view.claim}")
    else:
        lines += ["**Verdict: FAIL**", ""]
        lines += [f"- {reason}" for reason in view.verdict["reasons"]]
    return "\n".join(lines) + "\n"


def format_json(report: Report) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


_RENDERERS = {"text": render_text, "markdown": render_markdown}


def cli(*, prog: str, description: str,
        run: Callable[[argparse.Namespace], Report],
        view: Callable[[Report], View],
        options: Callable[[argparse.ArgumentParser], None] = lambda _: None,
        out_flags: Sequence[str] = ("--out",)) -> Callable[..., int]:
    """A study's ``main(argv, stream) -> exit code``.

    Every study takes ``--quick``, ``--format`` and an output path
    spelled ``out_flags``; ``options`` adds its own flags.  Only the
    report goes to ``stream``, so ``--format json`` always parses.  The
    exit code is 0 iff the verdict passes.
    """

    def main(argv: Optional[Sequence[str]] = None,
             stream: Optional[IO[str]] = None) -> int:
        parser = argparse.ArgumentParser(prog=prog, description=description)
        parser.add_argument("--quick", action="store_true",
                            help="smaller workloads (CI smoke)")
        options(parser)
        parser.add_argument("--format", choices=("json", *_RENDERERS),
                            default="text", help="output format")
        parser.add_argument(*out_flags, dest="out", metavar="PATH",
                            help="also write the report to this file")
        args = parser.parse_args(argv)
        report = run(args)
        rendered = format_json(report) if args.format == "json" else \
            _RENDERERS[args.format](view(report))
        (stream if stream is not None else sys.stdout).write(rendered)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        return 0 if report["verdict"]["pass"] else 1

    return main
