"""The lint engine: rules fire on the seeded fixture, the repo is clean,
suppressions and output formats behave."""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import (
    LintEngine,
    ModuleSource,
    call_name,
    default_rules,
    format_github,
    format_json,
    format_text,
    main as lint_main,
    module_name_for,
    receiver_token,
    run_lint,
    source_root,
)

FIXTURE = Path(__file__).parent / "fixtures" / "lint_violations.py"

ALL_RULES = {"SNIC001", "SNIC002", "SNIC003", "SNIC004", "SNIC005",
             "SNIC006", "SNIC007", "SNIC008"}


def lint_source(text: str, modname: str = "scratch") -> list:
    """Run every rule over an in-memory module (no suppressions applied
    unless present in the text)."""
    module = ModuleSource(path=Path(f"{modname}.py"), modname=modname,
                         text=text, tree=ast.parse(text),
                         lines=text.splitlines())
    findings = []
    for rule in default_rules():
        for finding in rule.check(module):
            silenced = module.suppressed_rules_at(finding.line)
            if silenced is not None and (
                    not silenced or finding.rule in silenced):
                finding.suppressed = True
            findings.append(finding)
    return findings


# ----------------------------------------------------------------------
# The acceptance criteria: fixture dirty, repo clean
# ----------------------------------------------------------------------

class TestSeededFixture:
    def test_every_rule_fires_on_the_fixture(self):
        engine = LintEngine()
        findings = engine.lint_file(FIXTURE)
        fired = {f.rule for f in findings if not f.suppressed}
        assert fired == ALL_RULES

    def test_fixture_exit_code_is_nonzero(self):
        _findings, code = run_lint([FIXTURE])
        assert code == 1

    def test_findings_carry_hints_and_positions(self):
        findings, _ = run_lint([FIXTURE])
        for f in findings:
            assert f.rule in ALL_RULES
            assert f.line >= 1 and f.col >= 1
            assert f.hint, f"rule {f.rule} must ship a fix-it hint"


class TestRepoIsClean:
    def test_src_repro_lints_clean(self):
        findings, code = run_lint()
        active = [f for f in findings if not f.suppressed]
        assert code == 0, "\n".join(
            f"{f.path}:{f.line} {f.rule} {f.message}" for f in active)

    def test_repo_suppressions_are_justified(self):
        """Every suppression in the tree carries prose beyond the tag."""
        findings, _ = run_lint()
        suppressed = [f for f in findings if f.suppressed]
        assert suppressed, "expected justified suppressions in the tree"
        for f in suppressed:
            lines = Path(f.path).read_text().splitlines()
            block = " ".join(lines[max(0, f.line - 4):f.line])
            assert "snic: ignore" in block


# ----------------------------------------------------------------------
# Individual rules on minimal sources
# ----------------------------------------------------------------------

class TestRuleBehaviour:
    def test_snic001_whitelisted_module_is_exempt(self):
        text = "def f(mem):\n    mem.claim_pages(1, [0])\n"
        findings = lint_source(text, modname="repro.hw.mmu")
        assert not [f for f in findings if f.rule == "SNIC001"]
        findings = lint_source(text, modname="repro.core.runtime")
        assert [f for f in findings if f.rule == "SNIC001"]

    def test_snic001_commodity_prefix_is_excluded(self):
        text = "def f(memory):\n    memory.read(0, 8)\n"
        findings = lint_source(text, modname="repro.commodity.attacks")
        assert not [f for f in findings if f.rule == "SNIC001"]

    def test_snic001_ignores_non_memory_receivers(self):
        text = "def f(sock):\n    sock.read(0, 8)\n"
        assert not [f for f in lint_source(text) if f.rule == "SNIC001"]

    def test_snic002_seeded_rng_is_fine(self):
        clean = "import random\nrng = random.Random(7)\nx = rng.random()\n"
        assert not [f for f in lint_source(clean) if f.rule == "SNIC002"]
        dirty = "import random\nx = random.random()\n"
        assert [f for f in lint_source(dirty) if f.rule == "SNIC002"]

    def test_snic002_hash_seeded_rng(self):
        text = textwrap.dedent("""
            import random
            import numpy as np
            a = random.Random(hash("fw"))
            b = np.random.default_rng(seed=hash(("fw", 0)) & 0xFFFF)
            random.seed(derive_seed(0, "fw"))
            c = np.random.default_rng(7).choice(hash)
        """)
        findings = [f for f in lint_source(text) if f.rule == "SNIC002"]
        assert [f.line for f in findings] == [4, 5]
        assert all("hash()" in f.message for f in findings)

    def test_snic002_set_iteration_into_schedule(self):
        text = textwrap.dedent("""
            def f(sim, items):
                for item in set(items):
                    sim.schedule(1, item)
                for item in sorted(set(items)):
                    sim.schedule(1, item)
        """)
        findings = [f for f in lint_source(text) if f.rule == "SNIC002"]
        assert len(findings) == 1  # the sorted() loop is the fix

    def test_snic003_callback_global_write(self):
        text = textwrap.dedent("""
            COUNT = 0
            def cb():
                global COUNT
                COUNT += 1
            def arm(sim):
                sim.schedule(5, cb)
        """)
        assert [f for f in lint_source(text) if f.rule == "SNIC003"]

    def test_snic003_unscheduled_global_write_not_flagged(self):
        text = textwrap.dedent("""
            COUNT = 0
            def not_a_callback():
                global COUNT
                COUNT += 1
        """)
        assert not [f for f in lint_source(text) if f.rule == "SNIC003"]

    def test_snic004_explicit_tenant_none_is_sanctioned(self):
        dirty = "def f(tracer):\n    tracer.instant('x')\n"
        clean = "def f(tracer):\n    tracer.instant('x', tenant=None)\n"
        assert [f for f in lint_source(dirty) if f.rule == "SNIC004"]
        assert not [f for f in lint_source(clean) if f.rule == "SNIC004"]

    def test_snic004_interference_metric_needs_both_edges(self):
        victim_only = ("def f(registry):\n"
                       "    registry.counter('interference_wait_ns_total',\n"
                       "                     resource='bus', tenant=1)\n")
        findings = [f for f in lint_source(victim_only)
                    if f.rule == "SNIC004"]
        assert findings and "culprit=" in findings[0].message

        neither = ("def f(registry):\n"
                   "    registry.counter('interference_events_total',\n"
                   "                     resource='bus')\n")
        findings = [f for f in lint_source(neither) if f.rule == "SNIC004"]
        assert findings
        assert "tenant=" in findings[0].message
        assert "culprit=" in findings[0].message

        both = ("def f(registry):\n"
                "    registry.counter('interference_wait_ns_total',\n"
                "                     resource='bus', tenant=1, culprit=2)\n")
        assert not [f for f in lint_source(both) if f.rule == "SNIC004"]

    def test_snic004_non_interference_mint_only_needs_tenant(self):
        text = ("def f(registry):\n"
                "    registry.counter('bytes_total', tenant=1)\n")
        assert not [f for f in lint_source(text) if f.rule == "SNIC004"]

    def test_snic004_slo_metric_rejects_tenant_none(self):
        none_tenant = ("def f(registry):\n"
                       "    registry.histogram('slo_latency_ns',\n"
                       "                       tenant=None)\n")
        findings = [f for f in lint_source(none_tenant)
                    if f.rule == "SNIC004"]
        assert findings and "slo_latency_ns" in findings[0].message

        missing = ("def f(registry):\n"
                   "    registry.counter('slo_alerts_total')\n")
        findings = [f for f in lint_source(missing) if f.rule == "SNIC004"]
        assert findings and "slo_alerts_total" in findings[0].message

        real = ("def f(registry, nf_id):\n"
                "    registry.histogram('slo_latency_ns', tenant=nf_id)\n")
        assert not [f for f in lint_source(real) if f.rule == "SNIC004"]

    def test_snic005_float_delay(self):
        dirty = "def f(sim, ns):\n    sim.schedule(ns / 2, f)\n"
        clean = "def f(sim, ns):\n    sim.schedule(ns // 2, f)\n"
        assert [f for f in lint_source(dirty) if f.rule == "SNIC005"]
        assert not [f for f in lint_source(clean) if f.rule == "SNIC005"]

    def test_snic006_unseeded_random_in_fault_module(self):
        dirty = "import random\nrng = random.Random()\n"
        findings = lint_source(dirty, modname="repro.faults.plan")
        assert [f for f in findings if f.rule == "SNIC006"]
        seeded = "import random\nrng = random.Random(7)\n"
        findings = lint_source(seeded, modname="repro.faults.plan")
        assert not [f for f in findings if f.rule == "SNIC006"]

    def test_snic006_module_level_random_in_chaos_function(self):
        text = ("import random\n"
                "def chaos_delay():\n"
                "    return random.seed(1)\n")
        findings = [f for f in lint_source(text) if f.rule == "SNIC006"]
        assert findings and "process-global" in findings[0].message

    def test_snic006_out_of_scope_code_is_exempt(self):
        text = ("import random\n"
                "def default_delay():\n"
                "    return random.Random()\n")
        assert not [f for f in lint_source(text) if f.rule == "SNIC006"]

    def test_snic006_scope_covers_the_differential_harness(self):
        from repro.analysis.rules.chaos_seed import _name_in_scope

        assert _name_in_scope("repro.faults.differential")
        assert _name_in_scope("repro.faults.chaos")

    def test_snic006_plan_rng_draws_are_fine(self):
        text = ("def fault_jitter(plan):\n"
                "    return plan.rng.randint(0, 10)\n")
        assert not [f for f in lint_source(text) if f.rule == "SNIC006"]

    def test_snic007_spec_without_seed_fires_anywhere(self):
        # Call-site explicitness is not scope-limited.
        text = ("from repro.scenario.spec import ScenarioSpec\n"
                "def make():\n"
                "    return ScenarioSpec(name='demo')\n")
        findings = [f for f in lint_source(text) if f.rule == "SNIC007"]
        assert findings and "seed" in findings[0].message

    def test_snic007_explicit_seed_is_clean(self):
        text = ("from repro.scenario.spec import ScenarioSpec\n"
                "def make():\n"
                "    return ScenarioSpec(name='demo', seed=7)\n")
        assert not [f for f in lint_source(text) if f.rule == "SNIC007"]

    def test_snic007_kwargs_spread_assumed_seeded(self):
        text = ("from repro.scenario.spec import ScenarioSpec\n"
                "def make(fields):\n"
                "    return ScenarioSpec(**fields)\n")
        assert not [f for f in lint_source(text) if f.rule == "SNIC007"]

    def test_snic007_wall_clock_in_scenario_module(self):
        text = ("import time\n"
                "def stamp(report):\n"
                "    report['at'] = time.strftime('%H:%M')\n")
        findings = lint_source(text, modname="repro.scenario.matrix")
        assert [f for f in findings if f.rule == "SNIC007"]

    def test_snic007_wall_clock_in_scenario_function(self):
        text = ("import time\n"
                "def run_scenario():\n"
                "    return time.perf_counter()\n")
        findings = [f for f in lint_source(text) if f.rule == "SNIC007"]
        assert findings and "wall-clock" in findings[0].message

    def test_snic007_wall_clock_out_of_scope_is_exempt(self):
        text = ("import time\n"
                "def default_stamp():\n"
                "    return time.time()\n")
        assert not [f for f in lint_source(text) if f.rule == "SNIC007"]

    def test_snic008_scrub_without_emit(self):
        text = ("def teardown(memory, owner):\n"
                "    memory.release_pages(owner, scrub=True)\n")
        findings = [f for f in lint_source(text) if f.rule == "SNIC008"]
        assert findings and "audit record" in findings[0].message

    def test_snic008_scrub_with_emit_is_clean(self):
        text = ("def teardown(memory, owner, _AUDIT):\n"
                "    released = memory.release_pages(owner, scrub=True)\n"
                "    if _AUDIT.active:\n"
                "        _AUDIT.emit('memory.scrub', tenant=owner,\n"
                "                    pages=released)\n")
        assert not [f for f in lint_source(text) if f.rule == "SNIC008"]

    def test_snic008_tlb_method_without_emit(self):
        text = ("class CoreTLB:\n"
                "    def install(self, entry):\n"
                "        self.entries.append(entry)\n")
        findings = [f for f in lint_source(text) if f.rule == "SNIC008"]
        assert findings and "choke point" in findings[0].message

    def test_snic008_tlb_method_with_emit_is_clean(self):
        text = ("class CoreTLB:\n"
                "    def install(self, entry):\n"
                "        self.entries.append(entry)\n"
                "        if _AUDIT.active:\n"
                "            _AUDIT.emit('tlb.install', bank=self.name)\n")
        assert not [f for f in lint_source(text) if f.rule == "SNIC008"]

    def test_snic008_non_tlb_install_is_exempt(self):
        # install/clear on a class without a TLB-ish name is out of scope.
        text = ("class PluginHost:\n"
                "    def install(self, plugin):\n"
                "        self.plugins.append(plugin)\n")
        assert not [f for f in lint_source(text) if f.rule == "SNIC008"]

    def test_snic008_attestation_raise_without_emit(self):
        text = ("def verify(quote, expected):\n"
                "    if quote.state_hash != expected:\n"
                "        raise AttestationError('bad state hash')\n")
        findings = [f for f in lint_source(text) if f.rule == "SNIC008"]
        assert findings and "witnessed" in findings[0].message

    def test_snic008_attestation_raise_with_emit_is_clean(self):
        text = ("def _reject(reason):\n"
                "    if _AUDIT.active:\n"
                "        _AUDIT.emit('attest.verdict', ok=False,\n"
                "                    reason=reason)\n"
                "    raise AttestationError(reason)\n")
        assert not [f for f in lint_source(text) if f.rule == "SNIC008"]

    def test_snic008_wall_clock_in_forensics_module(self):
        text = ("import time\n"
                "def stamp(bundle):\n"
                "    bundle['at'] = time.time()\n")
        findings = lint_source(text, modname="repro.obs.postmortem")
        assert [f for f in findings if f.rule == "SNIC008"]

    def test_snic008_wall_clock_in_flight_function(self):
        text = ("import time\n"
                "def flight_snapshot():\n"
                "    return time.perf_counter()\n")
        findings = [f for f in lint_source(text) if f.rule == "SNIC008"]
        assert findings and "byte-identical" in findings[0].message

    def test_snic008_wall_clock_out_of_scope_is_exempt(self):
        text = ("import time\n"
                "def bench_stamp():\n"
                "    return time.time()\n")
        assert not [f for f in lint_source(text) if f.rule == "SNIC008"]


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

class TestSuppressions:
    def test_inline_suppression(self):
        text = ("def f(memory):\n"
                "    memory.read(0, 8)  # snic: ignore[SNIC001] -- why\n")
        findings = [f for f in lint_source(text) if f.rule == "SNIC001"]
        assert findings and all(f.suppressed for f in findings)

    def test_comment_block_above(self):
        text = ("def f(memory):\n"
                "    # snic: ignore[SNIC001] -- a justification that\n"
                "    # runs over several comment lines.\n"
                "    memory.read(0, 8)\n")
        findings = [f for f in lint_source(text) if f.rule == "SNIC001"]
        assert findings and all(f.suppressed for f in findings)

    def test_blanket_ignore_suppresses_every_rule(self):
        text = ("import time\n"
                "def f(memory):\n"
                "    memory.read(0, int(time.time()))  # snic: ignore\n")
        findings = lint_source(text)
        flagged = [f for f in findings if f.line == 3]
        assert flagged and all(f.suppressed for f in flagged)

    def test_wrong_rule_id_does_not_suppress(self):
        text = ("def f(memory):\n"
                "    memory.read(0, 8)  # snic: ignore[SNIC005]\n")
        findings = [f for f in lint_source(text) if f.rule == "SNIC001"]
        assert findings and not any(f.suppressed for f in findings)

    def test_suppressed_findings_do_not_affect_exit_code(self):
        findings, code = run_lint()
        assert code == 0
        assert any(f.suppressed for f in findings)


# ----------------------------------------------------------------------
# Formats & CLI plumbing
# ----------------------------------------------------------------------

class TestOutputFormats:
    @pytest.fixture()
    def findings(self):
        return LintEngine().lint_file(FIXTURE)

    def test_json_format_round_trips(self, findings):
        payload = json.loads(format_json(findings))
        assert payload["n_active"] == len(
            [f for f in findings if not f.suppressed])
        assert {f["rule"] for f in payload["findings"]} == ALL_RULES

    def test_github_format_emits_error_annotations(self, findings):
        out = format_github(findings)
        assert out.count("::error ") == len(
            [f for f in findings if not f.suppressed])
        assert "line=" in out and "title=SNIC001" in out

    def test_github_format_escapes_newlines(self):
        from repro.analysis.lint import Finding

        f = Finding(rule="SNIC001", message="a\nb", path="x.py",
                    line=1, col=1)
        assert "%0A" in format_github([f]) and "\nb" not in format_github([f])

    def test_text_format_counts(self, findings):
        out = format_text(findings)
        assert "finding(s)" in out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULES:
            assert rule_id in out

    def test_rule_selection(self):
        findings, _ = run_lint([FIXTURE], rules=["SNIC002"])
        assert {f.rule for f in findings} == {"SNIC002"}

    def test_module_name_for(self):
        assert module_name_for(
            source_root() / "hw" / "cache.py") == "repro.hw.cache"
        assert module_name_for(
            source_root() / "hw" / "__init__.py") == "repro.hw"


class TestAstHelpers:
    def _call(self, text: str) -> ast.Call:
        return ast.parse(text).body[0].value

    def test_receiver_token(self):
        assert receiver_token(
            self._call("self.vnic._snic.memory.read(0, 1)")) == "memory"
        assert receiver_token(self._call("host.read(0, 1)")) == "host"
        assert receiver_token(
            self._call("get_registry().gauge('x')")) == "get_registry"
        assert receiver_token(self._call("read(0, 1)")) == ""

    def test_call_name(self):
        assert call_name(self._call("a.b.claim_pages(1)")) == "claim_pages"
        assert call_name(self._call("print(1)")) == "print"
