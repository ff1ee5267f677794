"""The repro.shard subsystem: partition plan, process pool, and the
worker-count-invariant merge.

The headline contract under test: for a fixed seed, a sharded run's
merged report is byte-identical for ANY worker count — the partition
plan is a pure function of the spec, the engine only schedules it.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.scenario.matrix import cell_spec, default_axes, expand, load_spec
from repro.scenario.spec import ScenarioSpec, ShardSpec, SpecError
from repro.shard import engine
from repro.shard.engine import (
    ShardError,
    registry_from_frame,
    registry_to_frame,
    run_cell_sharded,
    run_scorecard_sharded,
    run_sharded_partitions,
)
from repro.shard.partition import effective_partitions, partition_specs

EXAMPLES = Path(__file__).parent.parent / "examples"


def quick_cell(index: int = 0):
    return expand(default_axes(quick=True), base_seed=7, reps=1)[index]


# ----------------------------------------------------------------------
# ShardSpec schema
# ----------------------------------------------------------------------

class TestShardSpec:
    def test_defaults(self):
        assert ShardSpec().partitions == 4

    @pytest.mark.parametrize("kwargs", [
        {"partitions": 0},
        {"partitions": -1},
        {"partitions": True},
        {"partitions": 2.0},
        {"partitions": "3"},
        {"partitions": None},
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(SpecError):
            ShardSpec(**kwargs)

    def test_round_trip(self):
        shard = ShardSpec(partitions=8)
        assert ShardSpec.from_dict(shard.to_dict()) == shard

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError):
            ShardSpec.from_dict({"partitions": 2, "workers": 4})

    def test_retired_link_latency_field_rejected(self):
        with pytest.raises(SpecError, match="unknown ShardSpec fields"):
            ShardSpec.from_dict({"partitions": 2, "link_latency_ns": 800})

    @pytest.mark.parametrize("partitions", [2.7, True, "3", "abc", None],
                             ids=["float", "bool", "numeric-str", "str",
                                  "null"])
    @pytest.mark.parametrize("fmt", ["json", "yaml"])
    def test_spec_files_reject_uncoerced_partitions(self, tmp_path, fmt,
                                                    partitions):
        data = cell_spec(quick_cell(), quick=True).to_dict()
        data["shard"] = {"partitions": partitions}
        path = tmp_path / f"spec.{fmt}"
        if fmt == "yaml":
            yaml = pytest.importorskip("yaml")
            path.write_text(yaml.safe_dump(data))
        else:
            path.write_text(json.dumps(data))
        with pytest.raises(SpecError, match="partitions must be an int"):
            load_spec(str(path))
        with pytest.raises(SpecError, match="partitions must be an int"):
            ScenarioSpec.from_dict(data)

    def test_scenario_spec_round_trips_shard_block(self):
        spec = cell_spec(quick_cell(), quick=True)
        sharded = dataclasses.replace(spec, shard=ShardSpec(partitions=2))
        again = ScenarioSpec.from_dict(sharded.to_dict())
        assert again.shard == sharded.shard
        # Absent block stays absent.
        assert ScenarioSpec.from_dict(spec.to_dict()).shard is None


# ----------------------------------------------------------------------
# The partition plan
# ----------------------------------------------------------------------

class TestPartitionPlan:
    def test_partition_count_clamps_to_tenants(self):
        spec = cell_spec(quick_cell(), quick=True)  # 2 tenants
        assert effective_partitions(spec) == 2
        assert effective_partitions(
            dataclasses.replace(spec, shard=ShardSpec(partitions=1))) == 1

    def test_chunks_are_contiguous_in_spec_order(self):
        spec = cell_spec(quick_cell(1), quick=True)
        parts = partition_specs(spec)
        flattened = [t.name for p in parts for t in p.tenants]
        assert flattened == [t.name for t in spec.tenants]

    def test_packet_shares_sum_exactly(self):
        spec = cell_spec(quick_cell(1), quick=True)
        parts = partition_specs(spec)
        assert sum(p.traffic.n_packets for p in parts) \
            == spec.traffic.n_packets

    def test_partition_seeds_are_distinct_and_deterministic(self):
        spec = cell_spec(quick_cell(), quick=True)
        seeds = [p.seed for p in partition_specs(spec)]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [p.seed for p in partition_specs(spec)]

    def test_fault_lands_only_on_its_targets_chunk(self):
        spec = cell_spec(quick_cell(), quick=True)
        assert spec.fault is not None
        target = spec.fault.tenant or spec.tenants[-1].name
        parts = partition_specs(spec)
        with_fault = [p for p in parts if p.fault is not None]
        assert len(with_fault) == 1
        assert target in {t.name for t in with_fault[0].tenants}

    def test_plan_never_depends_on_worker_count(self):
        # There is no worker-count input to take: the plan is a pure
        # function of the spec, which is the invariance argument.
        spec = cell_spec(quick_cell(), quick=True)
        a = [p.to_dict() for p in partition_specs(spec)]
        b = [p.to_dict() for p in partition_specs(spec)]
        assert a == b

    def test_partitions_validate_as_specs(self):
        spec = cell_spec(quick_cell(1), quick=True)
        for part in partition_specs(spec):
            ScenarioSpec.from_dict(part.to_dict())  # re-validates
            assert part.shard is None  # no recursive decomposition


# ----------------------------------------------------------------------
# Frames: metrics cross the process boundary as plain data
# ----------------------------------------------------------------------

class TestFrames:
    def test_registry_round_trip_preserves_instruments(self):
        import pickle

        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("pkts_total", tenant="t1").inc(3)
        registry.gauge("depth", tenant="t1").set(9)
        hist = registry.histogram("lat_ns", tenant="t1")
        for value in (10.0, 200.0, 3000.0):
            hist.observe(value)
        registry.register_collector(lambda: [])  # process-local: stays
        frame = pickle.loads(pickle.dumps(registry_to_frame(registry)))
        again = registry_from_frame(frame)
        assert again.snapshot() == registry.snapshot()


# ----------------------------------------------------------------------
# The engine: worker-count invariance, end to end
# ----------------------------------------------------------------------

class TestEngineInvariance:
    def test_cell_record_is_byte_identical_across_worker_counts(self):
        cell = quick_cell()
        rendered = [
            json.dumps(run_cell_sharded(cell, quick=True,
                                        workers=n).as_dict(),
                       sort_keys=True)
            for n in (1, 2, 4)
        ]
        assert rendered[0] == rendered[1] == rendered[2]
        record = json.loads(rendered[0])
        assert record["status"] == "ok"
        assert record["outputs"]["packets_completed"] > 0

    def test_slo_report_is_byte_identical_across_worker_counts(self):
        rendered = [
            json.dumps(run_scorecard_sharded(
                n_tenants=4, seed=7, quick=True, arbiters=("fcfs",),
                workers=n), sort_keys=True)
            for n in (1, 3)
        ]
        assert rendered[0] == rendered[1]
        report = json.loads(rendered[0])
        block = report["arbiters"]["fcfs"]
        assert [row["tenant"] for row in block["tenants"]] \
            == ["t001", "t002", "t003", "t004"]
        assert block["audit"]["chain_ok"] is True

    def test_unknown_mode_raises_shard_error(self):
        spec = partition_specs(cell_spec(quick_cell(), quick=True))[0]
        with pytest.raises(ShardError, match="partition 0 failed") as info:
            run_sharded_partitions(
                [("bogus", spec.to_dict(), True, False, None)], workers=1)
        assert "unknown shard mode 'bogus'" in str(info.value)

    def test_dead_worker_raises_shard_error(self, monkeypatch):
        # Workers fork after the patch, so they inherit the dying runner.
        monkeypatch.setitem(engine._RUNNERS, "die",
                            lambda *_args: os._exit(3))
        spec = partition_specs(cell_spec(quick_cell(), quick=True))[0]
        tasks = [("die", spec.to_dict(), True, False, None)] * 2
        with pytest.raises(ShardError, match=r"partition 0: its worker "
                                             r"process died"):
            run_sharded_partitions(tasks, workers=2)

    def test_checker_asserts_shard_invariance(self):
        from repro.analysis.determinism import check_shard_invariance

        report = check_shard_invariance(worker_counts=(1, 2))
        assert report.deterministic, report.render()


# ----------------------------------------------------------------------
# YAML spec loading (satellite: --spec file.yaml)
# ----------------------------------------------------------------------

class TestYamlSpecs:
    def test_yaml_and_json_paths_load_identical_specs(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        json_path = EXAMPLES / "slo_scenario.json"
        spec = load_spec(str(json_path))
        yaml_path = tmp_path / "spec.yaml"
        yaml_path.write_text(yaml.safe_dump(
            json.loads(json_path.read_text())))
        assert load_spec(str(yaml_path)) == spec

    def test_example_yaml_spec_carries_shard_block(self):
        pytest.importorskip("yaml")
        spec = load_spec(str(EXAMPLES / "shard_scenario.yaml"))
        assert spec.shard == ShardSpec(partitions=2)
        assert effective_partitions(spec) == 2

    def test_non_mapping_yaml_is_rejected(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "list.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ValueError):
            load_spec(str(path))
