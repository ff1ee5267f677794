"""The built-in scenario catalog.

Four registered scenarios cover the repo's headline experiments through
one declarative front door:

* ``cotenancy-demo`` — the two-tenant observability trace
  (:mod:`repro.obs.scenario`, the ``trace`` CLI's default);
* ``headline-overheads`` — the §5.2 analytic cost model (+8.89% area,
  +11.45% power);
* ``chaos-fate-sharing`` — the §3.3 blast-radius differential
  (:mod:`repro.faults.chaos`);
* ``attack-replay`` — the §3.3 commodity attacks replayed
  (:mod:`repro.commodity.attacks`).

The spec factories here are also imported by the harnesses they wrap
(``repro.obs.scenario`` builds the co-tenancy device through
:func:`cotenancy_spec` + the builder), so the registry is the single
source of truth for what those experiments deploy.
"""

from __future__ import annotations

from typing import Dict

from repro.scenario.registry import scenario
from repro.scenario.spec import (
    ArbiterSpec,
    NFSpec,
    ScenarioSpec,
    TenantSpec,
    TopologySpec,
    TrafficSpec,
)


def cotenancy_spec(n_packets: int = 60) -> ScenarioSpec:
    """The canonical two-tenant co-tenancy demo spec (trace CLI default)."""
    return ScenarioSpec(
        name="cotenancy-demo",
        seed=7,
        description="two tenants (firewall + monitor) sharing one S-NIC, "
                    "every observability layer traced",
        tags=("trace", "obs"),
        topology=TopologySpec(nic_model="snic", n_cores=4, dram_mb=128,
                              key_seed=7, arbiter=ArbiterSpec()),
        tenants=(
            TenantSpec(name="fw", nf=NFSpec(kind="firewall",
                                            params={"rules": 64}),
                       dst_prefix="20.0.0.0/8", dpi_units=1),
            TenantSpec(name="mon", nf=NFSpec(kind="monitor"),
                       dst_prefix="30.0.0.0/8", dpi_units=1),
        ),
        traffic=TrafficSpec(n_packets=n_packets, payload_bytes=64,
                            arrival_period_ns=800),
    )


def _cotenancy_driver(spec: ScenarioSpec, *, quick: bool = False,
                      **options) -> Dict[str, object]:
    from repro.obs.scenario import run_cotenancy_scenario

    n_packets = options.get("n_packets")
    if n_packets is not None and n_packets != spec.traffic.n_packets:
        spec = cotenancy_spec(n_packets=int(n_packets))
    kwargs = {key: options[key]
              for key in ("out_path", "metrics_path", "timeseries_path")
              if options.get(key) is not None}
    return run_cotenancy_scenario(spec=spec, **kwargs)


@scenario("cotenancy-demo", tags=("trace", "obs"), driver=_cotenancy_driver)
def cotenancy_demo() -> ScenarioSpec:
    """Two-tenant co-tenancy trace demo: every obs layer on one timeline."""
    return cotenancy_spec()


def _headline_driver(spec: ScenarioSpec, *, quick: bool = False,
                     **options) -> Dict[str, object]:
    from repro.cost.mcpat import snic_headline_overheads

    return dict(snic_headline_overheads())


@scenario("headline-overheads", tags=("cost", "paper"),
          driver=_headline_driver)
def headline_overheads() -> ScenarioSpec:
    """§5.2 analytic cost headline: +8.89% area, +11.45% power."""
    return ScenarioSpec(
        name="headline-overheads",
        seed=0,
        description="analytic McPAT-style area/power overhead aggregation",
        tags=("cost", "paper"),
        tenants=(),
        traffic=TrafficSpec(n_packets=0),
    )


def _chaos_driver(spec: ScenarioSpec, *, quick: bool = False,
                  **options) -> Dict[str, object]:
    from repro.faults.chaos import run_chaos

    return run_chaos(seed=spec.seed, quick=quick)


@scenario("chaos-fate-sharing", tags=("faults", "chaos"),
          driver=_chaos_driver)
def chaos_fate_sharing() -> ScenarioSpec:
    """§3.3 blast-radius differential: commodity fate-sharing vs S-NIC."""
    return ScenarioSpec(
        name="chaos-fate-sharing",
        seed=0,
        description="headline fault classes as a commodity-vs-S-NIC "
                    "blast-radius differential",
        tags=("faults", "chaos"),
        tenants=(),
        traffic=TrafficSpec(n_packets=0),
    )


def _attack_replay_driver(spec: ScenarioSpec, *, quick: bool = False,
                          **options) -> Dict[str, object]:
    from repro.commodity.agilio import AgilioNIC
    from repro.commodity.attacks import (
        bus_dos_attack,
        run_dpi_stealing_experiment,
        run_packet_corruption_experiment,
    )

    corruption, clean, attacked = run_packet_corruption_experiment()
    stealing, _ruleset = run_dpi_stealing_experiment()
    dos = bus_dos_attack(AgilioNIC())
    return {
        "scenario": spec.name,
        "packet_corruption": {"succeeded": corruption.succeeded,
                              "details": corruption.details,
                              "translations_clean": clean,
                              "translations_attacked": attacked},
        "dpi_stealing": {"succeeded": stealing.succeeded,
                         "details": stealing.details},
        "bus_dos": {"succeeded": dos.succeeded, "details": dos.details},
    }


@scenario("attack-replay", tags=("attacks", "commodity"),
          driver=_attack_replay_driver)
def attack_replay() -> ScenarioSpec:
    """§3.3 commodity attacks replayed (corruption, DPI theft, bus DoS)."""
    return ScenarioSpec(
        name="attack-replay",
        seed=0,
        description="the three commodity-NIC attacks the paper's design "
                    "eliminates",
        tags=("attacks", "commodity"),
        tenants=(),
        traffic=TrafficSpec(n_packets=0),
    )
