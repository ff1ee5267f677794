"""Taint-flow fixture for ``python -m repro dataflow`` (analysed as
source only — never imported, so the flat imports below are fine).

Seeded violation: SNIC009 fires at the ``deliver`` call in
``steal_and_forward`` (unmediated memory->egress flow).  The
``FLOW_TABLE`` import gives the program graph a cross-module binding.
``mediated_forward`` routes through the NIC-OS seam and stays clean.
"""

from state import FLOW_TABLE


def rx_frame(memory):
    # Taint source: raw bytes out of tenant-owned device memory.
    return memory.read(0, 2048)


def parse(frame):
    # Pass-through hop: taint must survive an intermediate call.
    return frame[14:]


def steal_and_forward(memory, egress):
    # BAD: tenant bytes reach an egress sink with no mediation hop.
    payload = parse(rx_frame(memory))
    FLOW_TABLE[len(payload)] = payload
    egress.deliver(payload)


def os_read(nic_os, page, offset):
    # Mediation choke point: denylist-walked read through the NIC OS.
    return nic_os.os_read(page, offset)


def mediated_forward(nic_os, page, egress):
    # GOOD: the only source is behind the NIC-OS mediation seam.
    payload = os_read(nic_os, page, 0)
    egress.deliver(payload)
