"""Remote-access patterns: where do a thread's remote accesses go?

The paper studies two distributions (Section 2, "Memory Node"):

* **geometric** -- the probability of targeting distance class ``h`` is
  ``p_sw**h / a`` (normalized over ``h = 1..d_max``), split evenly among the
  modules at that distance.  Low ``p_sw`` = strong locality.  This is the
  pattern under which the paper's Section 7 "better than an ideal network"
  phenomenon appears.
* **uniform** -- every one of the ``P - 1`` remote modules is equally likely.

Both are exposed through a common :class:`AccessPattern` interface so the
analytical model, the discrete-event simulator, and the Petri-net builder all
draw from identical statistics.
"""

from __future__ import annotations

import abc

import numpy as np

from ..topology import (
    Torus2D,
    average_distance,
    geometric_distance_pmf,
    uniform_distance_pmf,
)

__all__ = [
    "AccessPattern",
    "GeometricPattern",
    "UniformPattern",
    "HotspotPattern",
    "EmpiricalPattern",
    "make_pattern",
    "pattern_for",
]


class AccessPattern(abc.ABC):
    """Distribution of a *remote* access over the remote memory modules.

    Patterns are defined per *source*: each node weights its remote distance
    classes (:meth:`class_weights`), splits each class's mass evenly among
    the modules at that distance, and normalizes.  On a vertex-transitive
    machine (torus) every source sees the same distance profile, recovering
    the paper's definitions; on a mesh the per-source profiles differ
    (corners vs. center) and everything still works -- the machine is then
    asymmetric even under an SPMD workload.
    """

    #: True when every source sees a translation-equivalent distribution --
    #: the condition for the symmetric AMVA fast path (and for the SPMD
    #: assumption of the paper).  Asymmetric patterns (hotspot) require the
    #: full multi-class solver.  NOTE: machine asymmetry (mesh) is tracked
    #: separately by the model.
    is_symmetric: bool = True

    @abc.abstractmethod
    def class_weights(self, h: np.ndarray) -> np.ndarray:
        """Unnormalized weight of each remote distance class ``h >= 1``."""

    def module_probability_matrix(self, topology) -> np.ndarray:
        """``(P, P)`` matrix ``q[i, j]``: probability a remote access from
        ``i`` targets module ``j`` (zero diagonal, rows sum to 1)."""
        d = topology.distance_matrix  # (P, P)
        p = topology.num_nodes
        if p < 2:
            raise ValueError("machine has no remote modules")
        hmax = int(d.max())
        h = np.arange(hmax + 1, dtype=np.float64)
        w = self.class_weights(h)  # (hmax+1,)
        w = np.asarray(w, dtype=np.float64)
        w[0] = 0.0
        # (P, hmax+1) per-source distance-class counts, one bincount over
        # the distances offset by source row
        n_cls = hmax + 1
        counts = np.bincount(
            (d + n_cls * np.arange(p)[:, None]).ravel(), minlength=p * n_cls
        ).reshape(p, n_cls)
        reached = counts > 0
        class_mass = np.where(reached, w, 0.0)
        # each row reduces over its contiguous class axis: the 1-D sum order
        total = class_mass.sum(axis=1, keepdims=True)
        if np.any(total <= 0):
            raise ValueError("degenerate pattern: no reachable class")
        per_module = np.where(
            reached, class_mass / total / np.maximum(counts, 1), 0.0
        )
        q = np.take_along_axis(per_module, d, axis=1)
        np.fill_diagonal(q, 0.0)
        return q

    def module_probabilities(self, topology, src: int) -> np.ndarray:
        """``q[j]`` for one source (see :meth:`module_probability_matrix`)."""
        return self.module_probability_matrix(topology)[src]

    def distance_pmf(self, topology) -> np.ndarray:
        """Source-averaged distance distribution of remote accesses."""
        q = self.module_probability_matrix(topology)
        d = topology.distance_matrix
        hmax = int(d.max())
        pmf = np.zeros(hmax + 1)
        p = topology.num_nodes
        for h in range(hmax + 1):
            pmf[h] = float(q[d == h].sum()) / p
        return pmf

    def d_avg(self, topology) -> float:
        """Average hops traveled by a remote access (the paper's ``d_avg``)."""
        return average_distance(self.distance_pmf(topology))


class GeometricPattern(AccessPattern):
    """Geometric locality pattern with parameter ``p_sw`` (paper's default).

    Distance class ``h`` carries weight ``p_sw**h``; within a class the
    modules are equally likely -- exactly the paper's ``p_sw^h / a``.
    """

    def __init__(self, p_sw: float = 0.5):
        if not 0.0 < p_sw <= 1.0:
            raise ValueError(f"p_sw must be in (0, 1], got {p_sw}")
        self.p_sw = p_sw

    def class_weights(self, h: np.ndarray) -> np.ndarray:
        return self.p_sw ** h

    def distance_pmf(self, topology) -> np.ndarray:
        if isinstance(topology, Torus2D):
            # vertex-transitive: the closed form applies (and is faster)
            return geometric_distance_pmf(topology, self.p_sw)
        return super().distance_pmf(topology)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GeometricPattern(p_sw={self.p_sw})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GeometricPattern) and other.p_sw == self.p_sw

    def __hash__(self) -> int:
        return hash(("geometric", self.p_sw))


class UniformPattern(AccessPattern):
    """Uniform pattern: each remote module with probability ``1 / (P - 1)``."""

    def class_weights(self, h: np.ndarray) -> np.ndarray:
        # weight proportional to class size is achieved by overriding the
        # matrix directly; this method is unused but kept for the interface
        return np.ones_like(h)

    def module_probability_matrix(self, topology) -> np.ndarray:
        p = topology.num_nodes
        if p < 2:
            raise ValueError("machine has no remote modules")
        q = np.full((p, p), 1.0 / (p - 1))
        np.fill_diagonal(q, 0.0)
        return q

    def distance_pmf(self, topology) -> np.ndarray:
        if isinstance(topology, Torus2D):
            return uniform_distance_pmf(topology)
        return super().distance_pmf(topology)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "UniformPattern()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniformPattern)

    def __hash__(self) -> int:
        return hash("uniform")


class HotspotPattern(AccessPattern):
    """A fixed hot module attracts an extra share of every remote access.

    With probability ``hot_fraction`` a remote access targets module
    ``hot_node`` (think: a lock, a reduction variable, a master data
    structure); otherwise it follows ``base``.  Sources other than the hot
    node see

        q[i, hot] = hot_fraction + (1 - hot_fraction) * base[i, hot]
        q[i, j]   = (1 - hot_fraction) * base[i, j]        (j != hot)

    while the hot node itself follows ``base`` unchanged (its own module is
    local, not remote).  This breaks the SPMD symmetry, so models using it
    are solved with the full multi-class AMVA -- an extension exercising the
    paper's remark that the model "is applicable to other distributions by
    changing em_{i,j}".
    """

    is_symmetric = False

    def __init__(
        self,
        hot_node: int = 0,
        hot_fraction: float = 0.5,
        base: AccessPattern | None = None,
    ):
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in [0, 1], got {hot_fraction}")
        if hot_node < 0:
            raise ValueError(f"hot_node must be >= 0, got {hot_node}")
        self.hot_node = hot_node
        self.hot_fraction = hot_fraction
        self.base = base or GeometricPattern()

    def class_weights(self, h: np.ndarray) -> np.ndarray:
        """Distance classes of the *base* pattern (the hot mass is handled
        in the matrix construction, not by distance)."""
        return self.base.class_weights(h)

    def module_probability_matrix(self, torus: Torus2D) -> np.ndarray:
        if self.hot_node >= torus.num_nodes:
            raise ValueError(
                f"hot node {self.hot_node} outside machine of "
                f"{torus.num_nodes} PEs"
            )
        q = self.base.module_probability_matrix(torus)
        hot, f = self.hot_node, self.hot_fraction
        scaled = (1.0 - f) * q
        scaled[:, hot] += f
        scaled[hot] = q[hot]  # the hot node's own accesses follow the base
        np.fill_diagonal(scaled, 0.0)
        # renormalize defensively (exact already, bar fp noise)
        scaled /= scaled.sum(axis=1, keepdims=True)
        return scaled

    def module_probabilities(self, torus: Torus2D, src: int) -> np.ndarray:
        return self.module_probability_matrix(torus)[src]

    def distance_pmf(self, torus: Torus2D) -> np.ndarray:
        """Source-averaged distance distribution (sources are asymmetric)."""
        q = self.module_probability_matrix(torus)
        d = torus.distance_matrix
        pmf = np.zeros(torus.max_distance + 1)
        p = torus.num_nodes
        for h in range(torus.max_distance + 1):
            pmf[h] = float(q[d == h].sum()) / p
        return pmf

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HotspotPattern(hot_node={self.hot_node}, "
            f"hot_fraction={self.hot_fraction}, base={self.base!r})"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HotspotPattern)
            and other.hot_node == self.hot_node
            and other.hot_fraction == self.hot_fraction
            and other.base == self.base
        )

    def __hash__(self) -> int:
        return hash(("hotspot", self.hot_node, self.hot_fraction, self.base))


class EmpiricalPattern(AccessPattern):
    """An arbitrary per-source remote-access matrix.

    The escape hatch for workload models that do not fit a named law --
    e.g. patterns derived from a data distribution and a loop's reference
    structure (:mod:`repro.workload.data_layout`).  Treated as asymmetric
    unless the caller proves otherwise.
    """

    def __init__(self, matrix: np.ndarray, symmetric: bool = False):
        q = np.asarray(matrix, dtype=np.float64)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"need a square matrix, got shape {q.shape}")
        if np.any(q < 0):
            raise ValueError("probabilities must be non-negative")
        if np.any(np.diag(q) != 0):
            raise ValueError("the diagonal (self access) must be zero")
        sums = q.sum(axis=1)
        if not np.allclose(sums[sums > 0], 1.0):
            raise ValueError("each row with remote traffic must sum to 1")
        self._q = q
        self.is_symmetric = symmetric

    def class_weights(self, h: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError("empirical patterns carry an explicit matrix")

    def module_probability_matrix(self, torus: Torus2D) -> np.ndarray:
        if torus.num_nodes != self._q.shape[0]:
            raise ValueError(
                f"pattern is for {self._q.shape[0]} nodes, machine has "
                f"{torus.num_nodes}"
            )
        return self._q.copy()

    def module_probabilities(self, torus: Torus2D, src: int) -> np.ndarray:
        return self.module_probability_matrix(torus)[src]

    def distance_pmf(self, torus: Torus2D) -> np.ndarray:
        """Source-averaged distance distribution."""
        q = self.module_probability_matrix(torus)
        d = torus.distance_matrix
        pmf = np.zeros(torus.max_distance + 1)
        active = q.sum(axis=1) > 0
        n_active = max(int(active.sum()), 1)
        for h in range(torus.max_distance + 1):
            pmf[h] = float(q[active][d[active] == h].sum()) / n_active
        return pmf

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EmpiricalPattern({self._q.shape[0]} nodes)"


def make_pattern(
    name: str,
    p_sw: float = 0.5,
    hot_node: int = 0,
    hot_fraction: float = 0.5,
) -> AccessPattern:
    """Factory from the :class:`repro.params.Workload` string fields."""
    if name == "geometric":
        return GeometricPattern(p_sw)
    if name == "uniform":
        return UniformPattern()
    if name == "hotspot":
        return HotspotPattern(hot_node, hot_fraction, GeometricPattern(p_sw))
    raise ValueError(f"unknown access pattern {name!r}")


def pattern_for(workload) -> AccessPattern:
    """Resolve the :class:`AccessPattern` for a :class:`repro.params.Workload`."""
    return make_pattern(
        workload.pattern,
        workload.p_sw,
        getattr(workload, "hot_node", 0),
        getattr(workload, "hot_fraction", 0.5),
    )
