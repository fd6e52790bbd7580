"""Structure-of-arrays packing for the batched fixed-point kernel.

The solver kernel consumes *only* plain ``float64``/``int64``/``bool`` numpy
arrays -- no network objects, no Python callables.  The two containers
here hold that packed state for the vectorized kernel (:mod:`.reference`):

* :class:`MulticlassSoA` -- a ``(B, C, M)`` stack of same-shape
  multi-class closed networks (the paper's Figure-3 AMVA inputs);
* :class:`SymmetricSoA` -- a ``(B, M)`` stack of symmetric-manifold
  points plus the shared station-type labelling.

Packing owns all input validation and the deterministic derived state
(Seidmann multi-server split, the spread-population initial queues), so
every batch composition starts from bit-identical arrays; ``point()`` unpacks one
batch slot back out (the round trip is property-tested bitwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "FixedPointResult",
    "MulticlassSoA",
    "SymmetricSoA",
]


@dataclass(frozen=True)
class FixedPointResult:
    """What one batched fixed point computed, as raw arrays.

    ``q``/``w`` are final queue lengths and waiting times (batch-leading
    shape), ``x`` the throughputs, and the per-point ``iterations`` /
    ``residual`` / ``converged`` vectors mirror the scalar solvers.
    ``trajectory`` is the active-set size at the start of each iteration.
    """

    q: np.ndarray
    w: np.ndarray
    x: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    converged: np.ndarray
    trajectory: tuple[int, ...]


@dataclass(frozen=True)
class MulticlassSoA:
    """A lattice of same-shape multi-class networks as ``(B, C, M)`` arrays.

    ``service``/``extra`` carry the Seidmann multi-server split (queueing
    part and delay part); ``queueing`` flags stations that queue at all.
    """

    visits: np.ndarray  #: (B, C, M) float64
    service: np.ndarray  #: (B, C, M) float64, Seidmann queueing part
    extra: np.ndarray  #: (B, C, M) float64, Seidmann delay part
    populations: np.ndarray  #: (B, C) float64
    queueing: np.ndarray  #: (B, M) bool

    @property
    def batch(self) -> int:
        return self.visits.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        """The shared per-point ``(C, M)`` layout."""
        return self.visits.shape[1], self.visits.shape[2]

    @classmethod
    def from_networks(cls, networks: Sequence) -> "MulticlassSoA":
        """Stack a sequence of same-shape :class:`ClosedNetwork` specs."""
        shape = (networks[0].num_classes, networks[0].num_stations)
        for net in networks:
            if (net.num_classes, net.num_stations) != shape:
                raise ValueError(
                    f"all networks in a batch must share one (C, M) shape; got "
                    f"{(net.num_classes, net.num_stations)} != {shape}"
                )
        seidmann = [net.seidmann_split() for net in networks]
        return cls(
            visits=np.stack([net.visits for net in networks]),
            service=np.stack([sq for sq, _ in seidmann]),
            extra=np.stack([d for _, d in seidmann]),
            populations=np.stack(
                [net.populations.astype(np.float64) for net in networks]
            ),
            queueing=np.stack([net.queueing_mask() for net in networks]),
        )

    def initial_queues(self) -> np.ndarray:
        """Figure 3, step 1 (per point): spread each class over its stations.

        Returns a fresh array each call; the kernel may mutate it freely.
        """
        visited = self.visits > 0
        n_visited = np.maximum(visited.sum(axis=2, keepdims=True), 1)
        return np.where(
            visited, self.populations[:, :, None] / n_visited, 0.0
        )

    def point(self, i: int) -> dict[str, np.ndarray]:
        """Unpack batch slot ``i`` (bitwise views of the packed state)."""
        return {
            "visits": self.visits[i],
            "service": self.service[i],
            "extra": self.extra[i],
            "populations": self.populations[i],
            "queueing": self.queueing[i],
        }


@dataclass(frozen=True)
class SymmetricSoA:
    """A lattice of symmetric-manifold points as ``(B, M)`` arrays.

    ``station_type`` is the shared ``(M,)`` labelling; ``type_masks`` is
    its precomputed ``(T, M)`` one-hot form, one row per distinct label in
    :func:`numpy.unique` order, and ``type_index`` maps each station to its
    row.  Both serve the pooled per-type queue totals.
    """

    visits: np.ndarray  #: (B, M) float64
    service: np.ndarray  #: (B, M) float64, Seidmann queueing part
    extra: np.ndarray  #: (B, M) float64, Seidmann delay part
    populations: np.ndarray  #: (B,) int64
    popf: np.ndarray  #: (B,) float64 view of the populations
    station_type: np.ndarray  #: (M,) shared labels
    type_masks: np.ndarray  #: (T, M) float64 one-hot per label
    type_index: np.ndarray  #: (M,) int64 row of type_masks per station

    @property
    def batch(self) -> int:
        return self.visits.shape[0]

    @property
    def stations(self) -> int:
        return self.visits.shape[1]

    @classmethod
    def pack(
        cls,
        visits: np.ndarray,
        service: np.ndarray,
        station_type: np.ndarray,
        populations: np.ndarray,
        servers: np.ndarray | None = None,
    ) -> "SymmetricSoA":
        """Validate and stack raw per-point arrays into kernel-ready state.

        Applies the Seidmann multi-server split (``extra = s (n-1)/n``,
        ``s / n``) when ``servers`` is given; the error messages are the
        historical :func:`solve_symmetric_batch` ones.
        """
        v = np.atleast_2d(np.asarray(visits, dtype=np.float64))
        s = np.atleast_2d(np.asarray(service, dtype=np.float64))
        types = np.asarray(station_type)
        pops = np.atleast_1d(np.asarray(populations, dtype=np.int64))
        b_total, m = v.shape
        if s.shape != v.shape:
            raise ValueError("visits and service must share a (B, M) shape")
        if types.shape != (m,):
            raise ValueError(f"station_type shape {types.shape} != ({m},)")
        if pops.shape != (b_total,):
            raise ValueError(f"populations shape {pops.shape} != ({b_total},)")
        if np.any(pops < 0):
            raise ValueError("populations must be >= 0")
        if servers is None:
            extra = np.zeros((b_total, m))
        else:
            srv = np.atleast_2d(np.asarray(servers, dtype=np.float64))
            if srv.shape != v.shape:
                raise ValueError("servers must match the (B, M) visits shape")
            if np.any(srv < 1):
                raise ValueError("server counts must be >= 1")
            extra = s * (srv - 1.0) / srv
            s = s / srv
        labels, type_index = np.unique(types, return_inverse=True)
        return cls(
            visits=v,
            service=s,
            extra=extra,
            populations=pops,
            popf=pops.astype(np.float64),
            station_type=types,
            type_masks=(labels[:, None] == types).astype(np.float64),
            type_index=type_index.astype(np.int64),
        )

    def pooled_totals(self, queues: np.ndarray) -> np.ndarray:
        """Per-station all-class totals: the type-pooled class-0 queues.

        One broadcast product ``queues[:, None, :] * type_masks`` builds a
        fresh C-contiguous ``(B, T, M)`` array, its contiguous station axis
        is reduced to ``(B, T)`` per-type totals, and ``type_index`` hands
        each station its type's total.  Every row is summed over the same
        ``M`` contiguous elements whatever the batch size, so the rounding
        -- and hence the result -- is bitwise independent of the batch
        composition, which the backend-equality tests rely on.  (Boolean
        fancy indexing, ``queues[:, mask]``, would not be.)
        """
        totals = (queues[:, None, :] * self.type_masks).sum(axis=2)
        return totals.take(self.type_index, axis=1)

    def initial_queues(self) -> np.ndarray:
        """Spread each point's population over its visited stations.

        Returns a fresh array each call; the kernel may mutate it freely.
        """
        visited = self.visits > 0
        n_visited = np.maximum(visited.sum(axis=1, keepdims=True), 1)
        q = np.where(visited, self.popf[:, None] / n_visited, 0.0)
        q[self.populations == 0] = 0.0
        return q

    def initial_converged(self) -> np.ndarray:
        """Empty points are trivially solved; fresh array each call."""
        return self.populations == 0

    def point(self, i: int) -> dict[str, np.ndarray]:
        """Unpack batch slot ``i`` (bitwise views of the packed state)."""
        return {
            "visits": self.visits[i],
            "service": self.service[i],
            "extra": self.extra[i],
            "population": self.populations[i],
            "station_type": self.station_type,
        }
