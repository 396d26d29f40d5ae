"""Window schedulers for agreement enforcement (paper §3.1.2).

- :mod:`repro.scheduling.community` — maximise the minimum served queue
  fraction (minimises the community's maximum response time).
- :mod:`repro.scheduling.provider` — maximise service-provider income.
- :mod:`repro.scheduling.locality` — locality push caps (the ``c_i``
  extension) and forwarding-bias helpers.
- :mod:`repro.scheduling.queueing` — explicit per-principal queues and the
  implicit quota scheme the Layer-7 prototype settled on (§4.1).
- :mod:`repro.scheduling.credits` — the credit-based virtual-time variant
  mentioned in the paper's related-work discussion (§6).
- :mod:`repro.scheduling.endpoint` — the *baseline* the paper argues
  against: independent per-server enforcement (Fig 1).
- :mod:`repro.scheduling.wrr` — smooth weighted round-robin used to spread
  a principal's admitted requests across servers per the LP allocation.
- :mod:`repro.scheduling.node` — the per-window loop (account, solve,
  install) that the L7 redirector and the L4 daemon both subclass.
"""

from repro.scheduling.allocator import Allocation, WindowAllocator
from repro.scheduling.community import CommunitySchedule, CommunityScheduler
from repro.scheduling.credits import CreditScheduler
from repro.scheduling.endpoint import EndpointEnforcer, endpoint_allocate
from repro.scheduling.locality import locality_caps_from_bias
from repro.scheduling.multiresource import (
    MultiResourceCommunityScheduler,
    MultiResourceSchedule,
)
from repro.scheduling.node import EnforcementNode
from repro.scheduling.provider import ProviderSchedule, ProviderScheduler
from repro.scheduling.queueing import ImplicitQuota, PrincipalQueues
from repro.scheduling.window import WindowConfig
from repro.scheduling.wrr import SmoothWeightedRoundRobin

__all__ = [
    "WindowConfig",
    "WindowAllocator",
    "Allocation",
    "EnforcementNode",
    "CommunityScheduler",
    "CommunitySchedule",
    "ProviderScheduler",
    "ProviderSchedule",
    "PrincipalQueues",
    "ImplicitQuota",
    "CreditScheduler",
    "EndpointEnforcer",
    "endpoint_allocate",
    "SmoothWeightedRoundRobin",
    "locality_caps_from_bias",
    "MultiResourceCommunityScheduler",
    "MultiResourceSchedule",
]
