"""The differential harness shared by ``repro audit`` and ``repro chaos``:
the leg protocol, the injector and forensics scopes, the one renderer,
the CLI contract, and golden digests of both studies' JSON reports."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.errors import WatchdogTimeout
from repro.faults import FaultKind, FaultPlan
from repro.faults.chaos import (
    blast_radius,
    format_report_json,
    format_report_text,
    main as chaos_main,
    run_chaos,
)
from repro.faults.differential import (
    Table,
    View,
    armed,
    forensics,
    injection_info,
    render_markdown,
    render_text,
    run_legs,
)
from repro.obs.interference import blame_matrix
from repro.obs.telemetry import current
from repro.obs.postmortem import load_bundle

#: sha256 of ``run_chaos(seed=0, quick=True, matrix=True)`` as
#: ``--format json``.  Item 2 of ROADMAP.md (one datapath) changes the
#: model and re-baselines this value, together with the CI fixtures.
CHAOS_QUICK_MATRIX_SHA256 = \
    "f0f642f601d44fc7f64673f27883dcf86f05228ca30c3b273b046c5e0af9c7ad"


@pytest.fixture(scope="module")
def quick_matrix():
    return run_chaos(seed=0, quick=True, matrix=True)


class TestGoldenDigest:
    def test_chaos_quick_matrix_json_is_unchanged(self, quick_matrix):
        """The report is pinned byte-for-byte; a deliberate model
        change re-baselines the digest in the change that moves the
        numbers."""
        rendered = format_report_json(quick_matrix).encode()
        assert hashlib.sha256(rendered).hexdigest() == \
            CHAOS_QUICK_MATRIX_SHA256

    def test_every_class_is_tenant_scoped(self, quick_matrix):
        assert {blast_radius(entry)
                for entry in quick_matrix["kinds"].values()} == {"tenant"}


class TestBlastRadius:
    @staticmethod
    def entry(commodity, snic, cross=0.0):
        return {"commodity": {"disruption_total": commodity},
                "snic": {"disruption_total": snic,
                         "cross_tenant_wait_ns": cross}}

    @pytest.mark.parametrize("commodity, snic, cross, radius", [
        (5.0, 0.0, 0.0, "tenant"),
        (0.0, 0.0, 0.0, "none"),
        (5.0, 1.0, 0.0, "DEVICE"),
        (0.0, 0.0, 3.0, "DEVICE"),
    ])
    def test_one_rule(self, commodity, snic, cross, radius):
        assert blast_radius(self.entry(commodity, snic, cross)) == radius

    def test_text_report_uses_the_rule(self, quick_matrix):
        report = json.loads(format_report_json(quick_matrix))
        report["kinds"] = {"wire_drop": self.entry(0.0, 0.0)}
        line = next(line for line in format_report_text(report).splitlines()
                    if line.startswith("wire_drop"))
        assert line.split()[-1] == "none"


class TestLegs:
    def test_registry_is_reset_before_each_leg(self, telemetry):
        runs = []

        def rig(perturbed):
            runs.append(current())
            if not perturbed:
                current().accountant.blame("bus", victim=1, culprit=2,
                                           wait_ns=50.0)
            return perturbed

        unperturbed, perturbed, leg = run_legs(rig)
        assert (unperturbed, perturbed) == (False, True)
        # Each leg ran in its own run; the perturbed one is returned.
        assert runs[1] is leg and runs[0] is not leg
        assert telemetry not in runs and current() is telemetry
        assert blame_matrix(leg.registry) == {}

    def test_armed_uninstalls_on_error(self):
        plan = FaultPlan(0)
        plan.at(0, FaultKind.WIRE_DROP, tenant=2)
        with pytest.raises(RuntimeError):
            with armed(plan) as injector:
                assert injector.installed
                raise RuntimeError("rig failed")
        assert not injector.installed
        assert injection_info(injector, extra=2) == \
            {"injected": 0.0, "extra": 2.0}

    def test_unperturbed_leg_has_no_injector(self):
        with armed(None) as injector:
            assert injector is None
        assert injection_info(injector, extra=2) == {}

    def test_forensics_writes_a_crash_bundle(self, tmp_path):
        with pytest.raises(WatchdogTimeout):
            with forensics(str(tmp_path), "leg", reason="not used"):
                assert current().audit is not None
                raise WatchdogTimeout("deadline missed")
        bundle = load_bundle(str(tmp_path / "POSTMORTEM_leg.json"))
        assert "WatchdogTimeout" in json.dumps(bundle["reason"])
        assert current().audit is None


class TestRender:
    VIEW = View(title="t", meta=["m"],
                tables=[Table("tbl", ("name", "value"),
                              [("a", "1"), ("bbb", "22")], notes=["n"])],
                verdict={"pass": False, "reasons": ["why"]}, claim="c")

    def test_text_aligns_columns(self):
        text = render_text(self.VIEW)
        assert "name  value\n-----------\na         1\nbbb      22\nn\n" \
            in text
        assert text.endswith("VERDICT: FAIL\n  - why\n")

    def test_markdown_tables(self):
        md = render_markdown(self.VIEW)
        assert "| name | value |\n|---|---:|\n| a | 1 |\n" in md
        assert md.endswith("**Verdict: FAIL**\n\n- why\n")


class TestCli:
    def test_postmortem_json_stdout_parses(self, tmp_path, capsys):
        code = chaos_main(["--quick", "--kind", "wire_drop", "--format",
                           "json", "--postmortem-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        assert report["postmortem"]["bundles"] == \
            ["POSTMORTEM_chaos-wire_drop-snic-s0.json"]
        assert "1 post-mortem bundle(s) written" in captured.err
