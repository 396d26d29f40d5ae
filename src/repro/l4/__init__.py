"""Layer-4 packet redirection (paper §4.2).

A model of the paper's Linux Virtual Server-based prototype:

- :mod:`repro.l4.packets` — flow records: one object per connection
  (4-tuple, request, chosen server) instead of per-segment packets.
- :mod:`repro.l4.nat` — the NAT rewrite table (client 4-tuple -> chosen
  server).
- :mod:`repro.l4.conntrack` — connection tracking: subsequent packets of an
  admitted connection follow the SYN's server choice, and client machines
  keep *affinity* to servers to the extent agreements allow (supports
  SSL-style pairwise session keys, §4.2).
- :mod:`repro.l4.switch` — the kernel-module model: admits or queues SYNs
  per the daemon's allocation, reinjects queued SYNs in later windows.
- :mod:`repro.l4.daemon` — the user-space daemon: collects queue lengths,
  solves the window LP (via the shared allocator), installs allocations.
"""

from repro.l4.conntrack import ArenaConnTracker
from repro.l4.daemon import L4Daemon
from repro.l4.nat import ArenaNatTable
from repro.l4.packets import FlowRecord
from repro.l4.switch import L4Switch, PortSpaceExhausted

__all__ = [
    "FlowRecord", "ArenaNatTable", "ArenaConnTracker",
    "L4Switch", "L4Daemon", "PortSpaceExhausted",
]
