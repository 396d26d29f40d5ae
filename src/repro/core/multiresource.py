"""Multiple resource types (paper §3.1.1's vector extension).

The paper describes the calculus for a single rate resource and notes that
with multiple resource types (CPU share, network bandwidth, transaction
rate) "above quantities should be represented as vectors".  This module
implements that extension.

Agreements stay *scalar* — a `[lb, ub]` fraction of the grantor's currency
covers the same fraction of **every** resource the grantor owns (that is
what a currency means: a claim on the principal's whole resource bundle).
Capacities become vectors ``V[i, r]`` over resource types, and because the
transitive-flow solution is linear in ``V``, one structure factorisation
serves all types:

    MI[i, k, r] = V[k, r] * R[k, i] * (1 - l_i)
    OI[i, k, r] = V[k, r] * (S[k, i] + R[k, i] * l_i)

with the same ``R = (I - L)^{-1}`` and ``S = R (U - L) (I - U)^{-1}``
matrices as the scalar calculus.  The conservation invariant holds per
type: ``sum_i MI[i, k, r] = V[k, r]``.

Requests carry a *demand profile* — units of each resource consumed per
request — so a principal's request-rate entitlement on a server is the
bottleneck across types: ``min_r entitlement[r] / profile[r]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.core.agreements import AgreementError, AgreementGraph
from repro.core.flows import spectral_radius

__all__ = ["MultiResourceAccess", "compute_multiresource_access", "bottleneck_rate"]

_EPS = 1e-9


@dataclass(frozen=True)
class MultiResourceAccess:
    """Vector access levels: everything indexed [principal, (owner,) type].

    Attributes:
        names: principals, graph order.
        resources: resource-type names.
        V: capacities, shape (n, m).
        MC/OC: mandatory/optional access levels, shape (n, m).
        MI/OI: per-pair entitlements, shape (n, n, m) indexed
            [holder, owner, type].
    """

    names: Tuple[str, ...]
    resources: Tuple[str, ...]
    V: np.ndarray
    MC: np.ndarray
    OC: np.ndarray
    MI: np.ndarray
    OI: np.ndarray

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.resources)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise AgreementError(f"unknown principal {name!r}") from None

    def rindex(self, resource: str) -> int:
        try:
            return self.resources.index(resource)
        except ValueError:
            raise AgreementError(f"unknown resource {resource!r}") from None

    def mandatory(self, name: str, resource: str) -> float:
        return float(self.MC[self.index(name), self.rindex(resource)])

    def optional(self, name: str, resource: str) -> float:
        return float(self.OC[self.index(name), self.rindex(resource)])

    def entitlement(self, holder: str, owner: str, resource: str) -> Tuple[float, float]:
        i, k, r = self.index(holder), self.index(owner), self.rindex(resource)
        return float(self.MI[i, k, r]), float(self.OI[i, k, r])

    def scalar_view(self, resource: str) -> "ScalarView":
        """One resource type's slice, shaped like scalar AccessLevels."""
        r = self.rindex(resource)
        return ScalarView(
            names=self.names,
            V=self.V[:, r].copy(),
            MC=self.MC[:, r].copy(),
            OC=self.OC[:, r].copy(),
            MI=self.MI[:, :, r].copy(),
            OI=self.OI[:, :, r].copy(),
        )

    def check_conservation(self, atol: float = 1e-6) -> None:
        np.testing.assert_allclose(self.MI.sum(axis=0), self.V, atol=atol)
        np.testing.assert_allclose(self.MI.sum(axis=1), self.MC, atol=atol)
        np.testing.assert_allclose(self.OI.sum(axis=1), self.OC, atol=atol)


# A light structural twin of repro.core.access.AccessLevels, so the scalar
# schedulers can run unmodified on a single resource type's slice.
from repro.core.access import AccessLevels as ScalarView  # noqa: E402


def bottleneck_rate(
    entitlement: np.ndarray,
    profile: Mapping[str, float],
    resources: Sequence[str],
) -> float:
    """min_r entitlement[r] / profile[r] over types with non-zero demand."""
    rate = np.inf
    for r, res in enumerate(resources):
        demand = float(profile.get(res, 0.0))
        if demand < 0:
            raise ValueError(f"negative demand for resource {res!r}")
        if demand > _EPS:
            rate = min(rate, float(entitlement[r]) / demand)
    return 0.0 if rate is np.inf else float(rate)


def compute_multiresource_access(
    graph: AgreementGraph,
    capacities: Mapping[str, Mapping[str, float]],
    resources: Sequence[str],
) -> MultiResourceAccess:
    """Vector access levels for ``graph`` with per-type capacities.

    Args:
        graph: the agreement graph (its scalar per-principal capacities are
            ignored; ``capacities`` provides the vectors).
        capacities: per-principal ``{resource: amount}``; missing entries
            are zero.
        resources: resource-type names, fixing the vector order.

    The agreement matrices are factorised once; every type reuses them.
    """
    resources = tuple(resources)
    if not resources:
        raise ValueError("need at least one resource type")
    n, m = graph.n, len(resources)
    names = tuple(graph.names)
    V = np.zeros((n, m))
    for name, vec in capacities.items():
        i = graph.index(name)
        for res, amount in vec.items():
            if res not in resources:
                raise AgreementError(f"unknown resource {res!r} for {name!r}")
            if amount < 0:
                raise ValueError(f"negative capacity for {name!r}/{res!r}")
            V[i, resources.index(res)] = float(amount)

    L = graph.lower_bounds()
    U = graph.upper_bounds()
    eye = np.eye(n)
    for label, mat in (("lower-bound", L), ("upper-bound", U)):
        rho = spectral_radius(mat)
        if rho >= 1.0 - _EPS:
            raise AgreementError(
                f"{label} agreement cycle has spectral radius {rho:.4f} >= 1"
            )
    leak = L.sum(axis=1)
    R = np.linalg.solve(eye - L, eye)
    S = R @ (U - L) @ np.linalg.solve(eye - U, eye)

    # Broadcast the scalar structure across resource types:
    # MI[i, k, r] = V[k, r] * R[k, i] * (1 - leak_i)
    MI = (1.0 - leak)[:, None, None] * R.T[:, :, None] * V[None, :, :]
    OI = S.T[:, :, None] * V[None, :, :] + R.T[:, :, None] * V[None, :, :] * leak[:, None, None]
    MC = MI.sum(axis=1)
    OC = OI.sum(axis=1)
    return MultiResourceAccess(
        names=names, resources=resources, V=V, MC=MC, OC=OC, MI=MI, OI=OI
    )
