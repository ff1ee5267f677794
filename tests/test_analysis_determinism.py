"""The determinism checker: digests, divergence reporting, and the
co-tenancy double-run gate."""

from __future__ import annotations

import json

import pytest

from repro.analysis.determinism import (
    DeterminismReport,
    RunDigest,
    check_cotenancy_determinism,
    check_determinism,
    digest_events,
    main as sanitize_main,
)
from repro.obs.telemetry import current
from repro.obs.tracer import TraceEvent, Tracer


def _event(name="e", ts=10.0, dur=5.0, tenant=1, track="t", **args):
    return TraceEvent(ph="X", name=name, ts_ns=ts, dur_ns=dur,
                      tenant=tenant, track=track, args=args)


class TestDigests:
    def test_identical_streams_digest_identically(self):
        a = digest_events([_event(), _event(name="f", ts=20.0)])
        b = digest_events([_event(), _event(name="f", ts=20.0)])
        assert a == b

    def test_value_drift_flips_the_stream_hash(self):
        a = digest_events([_event(ts=10.0)])
        b = digest_events([_event(ts=11.0)])
        assert a.stream_sha256 != b.stream_sha256

    def test_reordering_flips_the_stream_hash(self):
        e1, e2 = _event(name="a"), _event(name="b")
        a = digest_events([e1, e2])
        b = digest_events([e2, e1])
        assert a.stream_sha256 != b.stream_sha256
        # ...but the span tree, which sorts, is order-insensitive:
        assert a.span_tree_sha256 == b.span_tree_sha256

    def test_counts_and_final_ts(self):
        d = digest_events([
            _event(ts=10.0, dur=5.0),
            TraceEvent(ph="i", name="x", ts_ns=100.0),
        ])
        assert d.event_count == 2
        assert d.span_count == 1
        assert d.final_ts_ns == 100.0

    def test_diff_names_the_diverging_fields(self):
        a = digest_events([_event()])
        b = digest_events([_event(), _event(name="extra")])
        lines = a.diff(b)
        assert any("event count" in line for line in lines)
        assert any("stream sha256" in line for line in lines)


class TestCheckDeterminism:
    def test_deterministic_run_passes(self):
        def run():
            tracer = Tracer()
            current().arm(tracer=tracer)
            tracer.complete("step", 10.0, 5.0, tenant=1, track="x")
            return {"ok": True}

        report = check_determinism(run, scenario="unit")
        assert report.deterministic
        assert report.divergence == []
        assert len(report.digests) == 2
        assert report.summaries[0] == {"ok": True}
        assert "PASS" in report.render()

    def test_nondeterministic_run_fails(self):
        counter = iter(range(100))

        def run():
            tracer = Tracer()
            current().arm(tracer=tracer)
            tracer.complete("step", float(next(counter)), 5.0, tenant=1,
                            track="x")
            return None

        report = check_determinism(run, scenario="unit")
        assert not report.deterministic
        assert report.divergence
        assert "FAIL" in report.render()

    def test_report_as_dict_is_json_serializable(self):
        report = DeterminismReport(
            scenario="s",
            digests=[digest_events([]), digest_events([])])
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["deterministic"] is True

    def test_globals_are_reset_between_and_after_runs(self, telemetry):
        seen = []

        def run():
            assert current().tracer is None, "previous run leaked a tracer"
            seen.append(current())
            current().arm(tracer=Tracer())
            current().tracer.instant("x", tenant=None)
            return None

        check_determinism(run, scenario="unit")
        assert len(seen) == 2 and seen[0] is not seen[1]
        assert current() is telemetry and telemetry.tracer is None


class TestCotenancyGate:
    def test_cotenancy_demo_is_deterministic(self):
        report = check_cotenancy_determinism(n_packets=16)
        assert report.deterministic, "\n".join(report.divergence)
        assert report.digests[0].event_count > 0
        assert report.digests[0].span_count > 0

    def test_cli_exit_code(self, capsys):
        assert sanitize_main(["--packets", "8"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_cli_json_output(self, capsys):
        assert sanitize_main(["--packets", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["deterministic"] is True
        assert len(payload["digests"]) == 2
