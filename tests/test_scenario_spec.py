"""Scenario specs: validation, derived seeds, dict/JSON round-trip."""

from __future__ import annotations

import json

import pytest

from repro.scenario.spec import (
    ArbiterSpec,
    FaultSpec,
    NFSpec,
    ScenarioSpec,
    SpecError,
    TenantSpec,
    TopologySpec,
    TrafficSpec,
    derive_seed,
)


def demo_spec(**overrides) -> ScenarioSpec:
    fields = dict(
        name="spec-demo",
        seed=11,
        description="round-trip fixture",
        tags=("test",),
        topology=TopologySpec(nic_model="commodity", n_cores=4,
                              arbiter=ArbiterSpec(policy="fcfs")),
        tenants=(
            TenantSpec(name="a", nf=NFSpec(kind="firewall",
                                           params={"rules": 16}),
                       dst_prefix="20.0.0.0/8"),
            TenantSpec(name="b", nf=NFSpec(kind="monitor"),
                       dst_prefix="30.0.0.0/8", dpi_units=1),
        ),
        traffic=TrafficSpec(n_packets=8),
        fault=FaultSpec(kind="bus_babble", start_ns=1_000, count=2),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestValidation:
    def test_unknown_nf_kind_rejected(self):
        with pytest.raises(SpecError):
            NFSpec(kind="quantum_router")

    def test_unknown_nic_model_rejected(self):
        with pytest.raises(SpecError):
            TopologySpec(nic_model="fpga")

    def test_unknown_arbiter_rejected(self):
        with pytest.raises(SpecError):
            ArbiterSpec(policy="lottery")

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(SpecError):
            FaultSpec(kind="gamma_ray")

    def test_bool_seed_rejected(self):
        with pytest.raises(SpecError):
            demo_spec(seed=True)

    def test_duplicate_tenant_names_rejected(self):
        tenants = (
            TenantSpec(name="a", nf=NFSpec(kind="monitor"),
                       dst_prefix="20.0.0.0/8"),
            TenantSpec(name="a", nf=NFSpec(kind="monitor"),
                       dst_prefix="30.0.0.0/8"),
        )
        with pytest.raises(SpecError):
            demo_spec(tenants=tenants, fault=None)

    def test_core_overcommit_rejected(self):
        tenants = tuple(
            TenantSpec(name=f"t{i}", nf=NFSpec(kind="monitor"),
                       dst_prefix=f"{20 + i}.0.0.0/8", cores=3)
            for i in range(2))
        with pytest.raises(SpecError):
            demo_spec(tenants=tenants, fault=None,
                      topology=TopologySpec(n_cores=4))

    def test_fault_targeting_unknown_tenant_rejected(self):
        with pytest.raises(SpecError):
            demo_spec(fault=FaultSpec(kind="dma_error", tenant="ghost"))


class TestDerivedSeeds:
    def test_derive_seed_is_stable(self):
        # sha256-derived, so stable across processes and PYTHONHASHSEED.
        assert derive_seed(7, "nf", "fw") == derive_seed(7, "nf", "fw")
        assert derive_seed(7, "nf", "fw") != derive_seed(7, "nf", "mon")
        assert derive_seed(7, "nf", "fw") != derive_seed(8, "nf", "fw")

    def test_sub_seed_uses_spec_seed_and_name(self):
        spec = demo_spec()
        assert spec.sub_seed("traffic") == \
            derive_seed(11, "spec-demo", "traffic")
        assert demo_spec(seed=12).sub_seed("traffic") != \
            spec.sub_seed("traffic")


class TestRoundTrip:
    def test_dict_round_trip_identity(self):
        spec = demo_spec()
        data = spec.to_dict()
        assert ScenarioSpec.from_dict(data) == spec
        assert ScenarioSpec.from_dict(data).to_dict() == data

    def test_json_round_trip_identity(self):
        spec = demo_spec()
        data = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(data) == spec

    def test_faultless_spec_round_trips(self):
        spec = demo_spec(fault=None)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        data = demo_spec().to_dict()
        data["flux_capacitor"] = 1.21
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(data)

    def test_from_dict_requires_seed(self):
        data = demo_spec().to_dict()
        del data["seed"]
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("override", [
        {"shard": 3}, {"fault": 5}, {"traffic": 3}, {"topology": "snic"},
        {"tenants": 5}, {"tenants": [5]}, {"seed": "abc"}, {"seed": 2.5},
        {"seed": True},
    ])
    def test_from_dict_rejects_malformed_input(self, override):
        # Malformed blocks fail as SpecError, never TypeError or
        # AttributeError, and the seed is never coerced.
        data = demo_spec().to_dict()
        data.update(override)
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(data)

    def test_params_render_as_dict_but_hash_as_tuple(self):
        nf = NFSpec(kind="firewall", params={"rules": 16})
        assert nf.to_dict()["params"] == {"rules": 16}
        assert nf.param("rules") == 16
        assert nf.param("missing", 5) == 5
        hash(nf)  # frozen + tuple-backed params stay hashable


class TestTenantSLO:
    def _slo_dict(self):
        return {"objectives": [
            {"kind": "p99_latency_ns", "threshold": 5000.0, "target": 0.99},
            {"kind": "interference_budget_ns", "threshold": 0.0,
             "target": 1.0},
        ]}

    def test_slo_dict_coerced_to_tenant_slo(self):
        from repro.obs.slo import TenantSLO

        tenant = TenantSpec(name="a", nf=NFSpec(kind="monitor"),
                            dst_prefix="20.0.0.0/8", slo=self._slo_dict())
        assert isinstance(tenant.slo, TenantSLO)
        assert tenant.slo.objective("p99_latency_ns").threshold == 5000.0

    def test_bad_slo_names_the_tenant(self):
        with pytest.raises(SpecError, match="tenant 'a'"):
            TenantSpec(name="a", nf=NFSpec(kind="monitor"),
                       dst_prefix="20.0.0.0/8",
                       slo={"objectives": [
                           {"kind": "availability", "threshold": 0.999}]})

    def test_slo_round_trips_through_json(self):
        tenants = (
            TenantSpec(name="a", nf=NFSpec(kind="monitor"),
                       dst_prefix="20.0.0.0/8", slo=self._slo_dict()),
            TenantSpec(name="b", nf=NFSpec(kind="monitor"),
                       dst_prefix="30.0.0.0/8"),
        )
        spec = demo_spec(tenants=tenants, fault=None)
        data = json.loads(json.dumps(spec.to_dict()))
        clone = ScenarioSpec.from_dict(data)
        assert clone == spec
        assert clone.tenants[0].slo == spec.tenants[0].slo
        assert clone.tenants[1].slo is None


class TestL2Ways:
    def test_l2_ways_round_trips(self):
        topo = TopologySpec(nic_model="snic", n_cores=4,
                            arbiter=ArbiterSpec(policy="temporal"),
                            l2_ways=12)
        spec = demo_spec(topology=topo)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_l2_ways_floor_enforced(self):
        with pytest.raises(SpecError, match="l2_ways"):
            TopologySpec(nic_model="snic", n_cores=4, l2_ways=1)
