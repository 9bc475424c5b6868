"""Interference conflicts between nodes, links and tours.

A tour is a packet bundled with its injection round and the simple
oriented path it must traverse.  A node w conflicts with a link u->v when
w's transmission could prevent a message on u->v from being heard at v:
w = u, w = v, or w neighbors v.  Two tours conflict when they share a
node, or a non-destination node of one conflicts with the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .network import Network


class TourError(ValueError):
    """Raised for invalid tours or conflict-graph inputs."""


@dataclass(frozen=True)
class Tour:
    """A packet with its injection round and oriented path."""

    id: int
    injection_round: int
    path: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "path", tuple(self.path))

    @property
    def source(self) -> int:
        return self.path[0]

    @property
    def destination(self) -> int:
        return self.path[-1]

    @property
    def length(self) -> int:
        """Number of links in the path."""
        return len(self.path) - 1

    def links(self) -> list[tuple[int, int]]:
        return [(self.path[i], self.path[i + 1]) for i in range(self.length)]


def validate_tour(net: Network, tour: Tour) -> None:
    """Check that the tour's path is a simple path of the network with >= 1 link."""
    if len(tour.path) < 2:
        raise TourError(f"tour {tour.id}: path must have at least one link")
    if len(set(tour.path)) != len(tour.path):
        raise TourError(f"tour {tour.id}: path {tour.path} is not simple")
    for v in tour.path:
        if not 1 <= v <= net.n:
            raise TourError(f"tour {tour.id}: node {v} out of range [1, {net.n}]")
    for u, v in tour.links():
        if not net.has_edge(u, v):
            raise TourError(f"tour {tour.id}: ({u}, {v}) is not an edge of the network")


def node_link_conflicts(net: Network, w: int, link: tuple[int, int]) -> bool:
    """True iff node w conflicts with the oriented link tail->head."""
    tail, head = link
    if not (1 <= w <= net.n):
        raise TourError(f"node {w} out of range [1, {net.n}]")
    if not net.has_edge(tail, head):
        raise TourError(f"({tail}, {head}) is not an edge of the network")
    return w == tail or w == head or net.has_edge(w, head)


def node_tour_conflicts(net: Network, w: int, tour: Tour) -> bool:
    """True iff w conflicts with at least one link of the tour."""
    validate_tour(net, tour)
    return any(node_link_conflicts(net, w, link) for link in tour.links())


def conflict_node_set(net: Network, tour: Tour) -> frozenset[int]:
    """All nodes that conflict with the tour: its own nodes plus every
    neighbor of a link head."""
    nodes = set(tour.path)
    for head in tour.path[1:]:
        nodes |= net.neighbors(head)
    return frozenset(nodes)


_Sets = tuple[frozenset[int], frozenset[int]]


def _conflict_sets(net: Network, tour: Tour) -> _Sets:
    """The tour's non-destination nodes and its conflict_node_set."""
    return frozenset(tour.path[:-1]), conflict_node_set(net, tour)


def _sets_conflict(a: _Sets, b: _Sets) -> bool:
    """The tour-conflict predicate on pairs made by _conflict_sets: a
    non-destination node of one tour lies in the other's conflict_node_set.

    A shared node x needs no clause of its own.  If x is a non-destination
    node of one tour, it lies in the other's conflict_node_set, which
    contains the other's path.  If x is the destination of both, x's
    predecessor on one tour neighbours x, the head of the other's last link.
    """
    return not (a[0].isdisjoint(b[1]) and b[0].isdisjoint(a[1]))


def tours_conflict(net: Network, f0: Tour, f1: Tour) -> bool:
    """True iff the tours share a node or a non-destination node of one
    conflicts with the other."""
    validate_tour(net, f0)
    validate_tour(net, f1)
    return _sets_conflict(_conflict_sets(net, f0), _conflict_sets(net, f1))


class ConflictGraph:
    """Simple graph on tour ids with edges between conflicting tours.

    The ids sit at positions 0..k-1 in ascending order, and `_bits[i]` is
    the Python-int bitset of the positions adjacent to position i.
    `vertices`, `edges` (pairs (a, b) with a < b) and the degrees are
    derived from the bitsets; `radiosim.coloring` reads `_ids`, `_pos` and
    `_bits` to color with bit operations.
    """

    __slots__ = ("_ids", "_pos", "_bits")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]]):
        ids = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(ids)}
        bits = [0] * len(ids)
        for a, b in edges:
            if a == b:
                raise TourError(f"conflict-graph edge ({a}, {b}) is a self-loop")
            for v in (a, b):
                if v not in pos:
                    raise TourError(f"conflict-graph edge ({a}, {b}): {v} is not a vertex")
            bits[pos[a]] |= 1 << pos[b]
            bits[pos[b]] |= 1 << pos[a]
        self._ids, self._pos, self._bits = tuple(ids), pos, tuple(bits)

    @classmethod
    def _from_bits(cls, ids: list[int], bits: list[int]) -> ConflictGraph:
        """The graph on ascending `ids` whose position i is adjacent to the
        set bits of `bits[i]`; the caller ensures symmetry and no self-loops."""
        cg = cls.__new__(cls)
        cg._ids, cg._pos, cg._bits = tuple(ids), {v: i for i, v in enumerate(ids)}, tuple(bits)
        return cg

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self._ids)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        ids = self._ids
        # bit 0 of bits[i] >> i is position i itself, never set
        return frozenset((a, ids[i + j]) for i, a in enumerate(ids)
                         for j in bit_positions(self._bits[i] >> i))

    def adjacent(self, a: int, b: int) -> bool:
        i, j = self._pos.get(a), self._pos.get(b)
        return i is not None and j is not None and bool(self._bits[i] >> j & 1)

    def neighbors(self, v: int) -> frozenset[int]:
        ids = self._ids
        return frozenset(ids[j] for j in bit_positions(self._bits[self._pos[v]]))

    def degree(self, v: int) -> int:
        return self._bits[self._pos[v]].bit_count()

    def __repr__(self) -> str:
        edges = sum(b.bit_count() for b in self._bits) // 2
        return f"ConflictGraph(vertices={len(self._ids)}, edges={edges})"


def bit_positions(mask: int) -> list[int]:
    """Positions of the set bits of a non-negative int, ascending."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def build_conflict_graph(net: Network, tours: Iterable[Tour]) -> ConflictGraph:
    """The conflict graph of the tour set, each tour validated and its
    conflict sets built once.

    Two node masks per node x collect tour bits: N_x, the tours with x as
    a non-destination node, and C_x, the tours whose conflict_node_set
    holds x.  Then tour i's row is the OR of C_x over its non-destination
    nodes x and of N_x over its conflict nodes x, without bit i.  This is
    _sets_conflict for all pairs at once: bit j is set iff some x lies in
    nondest(i) and C(j), or in C(i) and nondest(j).
    """
    tour_list = sorted(tours, key=lambda f: f.id)
    ids = [f.id for f in tour_list]
    if len(set(ids)) != len(ids):
        raise TourError(f"duplicate tour ids in {ids}")
    for f in tour_list:
        validate_tour(net, f)
    sets = [_conflict_sets(net, f) for f in tour_list]
    nondest_at = [0] * (net.n + 1)
    conflict_at = [0] * (net.n + 1)
    for i, (nondest, cset) in enumerate(sets):
        bit = 1 << i
        for x in nondest:
            nondest_at[x] |= bit
        for x in cset:
            conflict_at[x] |= bit
    bits = []
    for i, (nondest, cset) in enumerate(sets):
        row = 0
        for x in nondest:
            row |= conflict_at[x]
        for x in cset:
            row |= nondest_at[x]
        bits.append(row & ~(1 << i))
    return ConflictGraph._from_bits(ids, bits)


def max_degree(cg: ConflictGraph) -> int:
    """Maximum vertex degree; 0 for an empty or edgeless graph."""
    return max((row.bit_count() for row in cg._bits), default=0)


def format_tour(tour: Tour) -> str:
    """One line per tour: `t <id> <injection_round> <v1> ... <vk>`."""
    return f"t {tour.id} {tour.injection_round} " + " ".join(map(str, tour.path))


def parse_tour_line(line: str, lineno: int = 0) -> Tour:
    parts = line.split()
    if len(parts) < 5 or parts[0] != "t":
        raise TourError(f"line {lineno}: expected `t <id> <round> <v1> <v2> ...`")
    try:
        tid = int(parts[1])
        rnd = int(parts[2])
        path = tuple(int(p) for p in parts[3:])
    except ValueError as exc:
        raise TourError(f"line {lineno}: {exc}") from None
    return Tour(tid, rnd, path)
