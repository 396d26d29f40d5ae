"""Web-cluster substrate: the stand-in for the paper's physical testbed.

- :mod:`repro.cluster.request` — the request record flowing through the
  system.
- :mod:`repro.cluster.workload` — WebBench-like request mixes (static and
  dynamic pages, 200 B–500 KB replies averaging 6 KB).
- :mod:`repro.cluster.server` — capacity-rate servers (Apache on a 1 GHz
  PC ~ 320 req/s in the paper) with FIFO service and saturation.
- :mod:`repro.cluster.client` — WebBench-like client machines: rate-capped
  generators that honour redirects and retry on self-redirection.
"""

from repro.cluster.client import ClientMachine
from repro.cluster.containers import ContainerServer, StreamHandle
from repro.cluster.endpoint_server import EndpointEnforcingServer
from repro.cluster.request import Request
from repro.cluster.server import Server
from repro.cluster.workload import ReplySizeSampler, RequestMix, WorkloadStream

__all__ = [
    "Request",
    "Server",
    "ContainerServer",
    "EndpointEnforcingServer",
    "StreamHandle",
    "ClientMachine",
    "ReplySizeSampler",
    "RequestMix",
    "WorkloadStream",
]
