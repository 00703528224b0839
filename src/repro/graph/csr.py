"""Compressed sparse row (CSR) graph — the in-memory representation used
by every algorithm in this repository.

The layout mirrors Section IV of the paper exactly: an undirected graph
``G = (V, E)`` is held as three dense arrays

* ``neighbors`` — the concatenation of all adjacency lists,
* ``offsets`` — ``offsets[i]`` is where vertex ``i``'s list starts
  (length ``|V| + 1`` so that ``offsets[i + 1]`` is the end), and
* ``degrees`` — ``degrees[i] == offsets[i + 1] - offsets[i]``.

Vertex IDs are dense integers ``0 .. n-1``; use
:func:`repro.graph.recode.recode_ids` to densify arbitrary labels first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from repro.errors import GraphValidationError

__all__ = ["CSRGraph", "build_csr_arrays"]


def build_csr_arrays(
    num_vertices: int, sources: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Build ``(offsets, neighbors)`` from symmetric edge endpoint arrays.

    ``sources``/``targets`` must already contain both directions of every
    undirected edge.  Adjacency lists come out sorted by neighbor ID,
    which gives deterministic iteration order everywhere downstream.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    order = np.lexsort((targets, sources))
    sources = sources[order]
    targets = targets[order]
    counts = np.bincount(sources, minlength=num_vertices)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, targets.copy()


@dataclass(frozen=True)
class CSRGraph:
    """An immutable undirected graph in CSR form.

    Construct with one of the ``from_*`` classmethods rather than calling
    the constructor directly; they normalise the input (deduplicate
    edges, drop self-loops, symmetrise) and validate the invariants.
    """

    offsets: np.ndarray
    neighbors: np.ndarray

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]] | np.ndarray,
        num_vertices: int | None = None,
    ) -> "CSRGraph":
        """Build a simple undirected graph from an iterable of pairs.

        Self-loops are dropped, parallel/duplicate edges are merged, and
        each edge is stored in both directions.  ``num_vertices`` may be
        given to include trailing isolated vertices; otherwise it is
        ``max endpoint + 1``.  Float IDs must be integral and within
        the int64 range.
        """
        edge_array = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges)
        )
        if edge_array.dtype.kind == "f":
            # NaN fails every comparison, so no test below warns
            integral = (np.floor(edge_array) == edge_array) & (
                np.abs(edge_array) < 2.0**63
            )
            if not integral.all():
                bad = float(edge_array[~integral][0])
                raise GraphValidationError(
                    f"vertex IDs must be finite integers within int64, "
                    f"got {bad}"
                )
        edge_array = edge_array.astype(np.int64, copy=False)
        if edge_array.size == 0:
            n = int(num_vertices or 0)
            return cls(np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphValidationError(
                f"edge array must have shape (m, 2), got {edge_array.shape}"
            )
        if edge_array.min() < 0:
            raise GraphValidationError("vertex IDs must be non-negative")

        n = int(edge_array.max()) + 1
        if num_vertices is not None:
            if num_vertices < n:
                raise GraphValidationError(
                    f"num_vertices={num_vertices} smaller than max ID + 1 = {n}"
                )
            n = int(num_vertices)

        u, v = edge_array[:, 0], edge_array[:, 1]
        keep = u != v  # drop self-loops
        u, v = u[keep], v[keep]
        # Canonicalise to (min, max) and deduplicate parallel edges.
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        packed = np.unique(lo * np.int64(n) + hi)
        lo = packed // n
        hi = packed % n
        sources = np.concatenate([lo, hi])
        targets = np.concatenate([hi, lo])
        offsets, neighbors = build_csr_arrays(n, sources, targets)
        return cls(offsets, neighbors)

    @classmethod
    def from_adjacency(cls, adjacency: Sequence[Sequence[int]]) -> "CSRGraph":
        """Build from a list of adjacency lists (symmetrised for safety)."""
        edges = [
            (u, v) for u, nbrs in enumerate(adjacency) for v in nbrs
        ]
        return cls.from_edges(edges, num_vertices=len(adjacency))

    @classmethod
    def empty(cls, num_vertices: int = 0) -> "CSRGraph":
        """A graph with ``num_vertices`` isolated vertices and no edges."""
        return cls(
            np.zeros(num_vertices + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )

    # -- validation -------------------------------------------------------

    def __post_init__(self) -> None:
        offsets = np.asarray(self.offsets, dtype=np.int64)
        neighbors = np.asarray(self.neighbors, dtype=np.int64)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "neighbors", neighbors)
        if offsets.ndim != 1 or offsets.size == 0:
            raise GraphValidationError("offsets must be a 1-D array of size >= 1")
        if offsets[0] != 0 or offsets[-1] != neighbors.size:
            raise GraphValidationError(
                "offsets must start at 0 and end at len(neighbors)"
            )
        if np.any(np.diff(offsets) < 0):
            raise GraphValidationError("offsets must be non-decreasing")
        if neighbors.size and (
            neighbors.min() < 0 or neighbors.max() >= self.num_vertices
        ):
            raise GraphValidationError("neighbor IDs out of range")
        offsets.setflags(write=False)
        neighbors.setflags(write=False)

    # -- basic accessors --------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return int(self.offsets.size - 1)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|`` (each stored twice)."""
        return int(self.neighbors.size // 2)

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every vertex as an ``int64`` array (read-only view)."""
        return np.diff(self.offsets)

    def degree(self, vertex: int) -> int:
        """Degree of a single vertex."""
        return int(self.offsets[vertex + 1] - self.offsets[vertex])

    def neighbors_of(self, vertex: int) -> np.ndarray:
        """Sorted neighbor IDs of ``vertex`` (a read-only view)."""
        return self.neighbors[self.offsets[vertex] : self.offsets[vertex + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """True when the undirected edge ``{u, v}`` is present."""
        nbrs = self.neighbors_of(u)
        i = int(np.searchsorted(nbrs, v))
        return i < nbrs.size and int(nbrs[i]) == v

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate each undirected edge once, as ``(u, v)`` with ``u < v``."""
        for u in range(self.num_vertices):
            for v in self.neighbors_of(u):
                if u < v:
                    yield u, int(v)

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an ``(m, 2)`` array with ``u < v``."""
        sources = np.repeat(np.arange(self.num_vertices), self.degrees)
        mask = sources < self.neighbors
        return np.column_stack([sources[mask], self.neighbors[mask]])

    # -- statistics & derived graphs ---------------------------------------

    @property
    def max_degree(self) -> int:
        """Largest vertex degree (0 for an empty graph)."""
        degs = self.degrees
        return int(degs.max()) if degs.size else 0

    @property
    def average_degree(self) -> float:
        """Mean vertex degree (0.0 for an empty graph)."""
        degs = self.degrees
        return float(degs.mean()) if degs.size else 0.0

    @property
    def degree_std(self) -> float:
        """Standard deviation of the degree distribution."""
        degs = self.degrees
        return float(degs.std()) if degs.size else 0.0

    def induced_subgraph(self, vertices: np.ndarray) -> "CSRGraph":
        """Subgraph induced by ``vertices``, relabelled to ``0..len-1``.

        The returned graph's vertex ``i`` corresponds to the ``i``-th
        entry of the (sorted, deduplicated) ``vertices`` array.
        """
        vertices = np.unique(np.asarray(vertices, dtype=np.int64))
        keep = np.zeros(self.num_vertices, dtype=bool)
        keep[vertices] = True
        relabel = np.full(self.num_vertices, -1, dtype=np.int64)
        relabel[vertices] = np.arange(vertices.size)

        sources = np.repeat(np.arange(self.num_vertices), self.degrees)
        mask = keep[sources] & keep[self.neighbors]
        new_sources = relabel[sources[mask]]
        new_targets = relabel[self.neighbors[mask]]
        offsets, neighbors = build_csr_arrays(
            vertices.size, new_sources, new_targets
        )
        return CSRGraph(offsets, neighbors)

    def memory_bytes(self, id_bytes: int = 4) -> int:
        """Device-memory footprint of the three CSR arrays in bytes.

        The paper stores vertex IDs as 32-bit integers on the GPU; we use
        64-bit host arrays for convenience but model the device footprint
        with ``id_bytes`` per entry (offsets, neighbors, and the mutable
        ``deg`` array).
        """
        return id_bytes * (self.offsets.size + self.neighbors.size + self.num_vertices)

    # -- dunder -----------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"d_avg={self.average_degree:.1f}, d_max={self.max_degree})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return bool(
            np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.neighbors, other.neighbors)
        )

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.num_edges, self.neighbors.tobytes()))
