"""Radio network topologies.

A network is a simple undirected connected graph whose nodes are named
1..n.  Instances are immutable after construction, apart from a private
cache of derived data, and can be shared freely between concurrent
simulation runs.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator


class NetworkError(ValueError):
    """Raised when an edge list does not describe a valid network."""


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Network:
    """Simple undirected connected graph over nodes 1..n.

    Adjacency is precomputed, so ``neighbors`` is an O(1) lookup.  The
    private ``_silent`` slot holds derived data only: the outcome of a
    round in which no node transmits, every node mapped to SILENCE in node
    order, which ``engine.step`` builds on its first call on the network
    and copies on each call.  It is never handed out, so it stays the same
    for the network's lifetime.
    """

    __slots__ = ("n", "edges", "_adj", "_silent")

    def __init__(self, n: int, edges: frozenset[tuple[int, int]],
                 adj: dict[int, frozenset[int]]):
        self.n = n
        self.edges = edges
        self._adj = adj
        self._silent = None

    def neighbors(self, v: int) -> frozenset[int]:
        if not 1 <= v <= self.n:
            raise NetworkError(f"node {v} out of range [1, {self.n}]")
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def nodes(self) -> range:
        return range(1, self.n + 1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Network)
                and self.n == other.n and self.edges == other.edges)


def build_network(n: int, edge_list: Iterable[tuple[int, int]]) -> Network:
    """Validate an edge list and return a Network.

    Rejects self-loops, duplicate edges, endpoints outside [1, n] and
    disconnected graphs, each with a distinct message.
    """
    if n < 1:
        raise NetworkError(f"node count must be >= 1, got {n}")
    seen: set[tuple[int, int]] = set()
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in edge_list:
        if not (1 <= u <= n and 1 <= v <= n):
            raise NetworkError(f"edge ({u}, {v}): endpoint out of range [1, {n}]")
        if u == v:
            raise NetworkError(f"edge ({u}, {v}): self-loop")
        e = _normalize_edge(u, v)
        if e in seen:
            raise NetworkError(f"edge ({u}, {v}): duplicate edge")
        seen.add(e)
        adj[u].add(v)
        adj[v].add(u)

    # connectivity via BFS from node 1
    reached = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in reached:
                    reached.add(v)
                    nxt.append(v)
        frontier = nxt
    if len(reached) != n:
        missing = sorted(set(range(1, n + 1)) - reached)
        raise NetworkError(f"graph is disconnected: cannot reach {missing} from node 1")

    return Network(n, frozenset(seen),
                   {v: frozenset(nbrs) for v, nbrs in adj.items()})


def make_clique(n: int) -> Network:
    """Complete graph on n >= 2 nodes."""
    if n < 2:
        raise NetworkError(f"clique needs n >= 2, got {n}")
    return build_network(n, [(u, v) for u in range(1, n + 1)
                             for v in range(u + 1, n + 1)])


def make_path(n: int) -> Network:
    """Path 1-2-...-n."""
    if n < 2:
        raise NetworkError(f"path needs n >= 2, got {n}")
    return build_network(n, [(v, v + 1) for v in range(1, n)])


def make_cycle(n: int) -> Network:
    """Cycle 1-2-...-n-1."""
    if n < 3:
        raise NetworkError(f"cycle needs n >= 3, got {n}")
    return build_network(n, [(v, v + 1) for v in range(1, n)] + [(n, 1)])


def make_random_connected(n: int, extra_edge_prob: float, seed: int) -> Network:
    """Random connected graph: random spanning tree plus independent extra edges.

    Deterministic in (n, extra_edge_prob, seed).  With prob 0 the result is a
    tree; with prob 1 it is the complete graph.
    """
    if n < 2:
        raise NetworkError(f"random network needs n >= 2, got {n}")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise NetworkError(f"edge probability must be in [0, 1], got {extra_edge_prob}")
    rng = random.Random(seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.add(_normalize_edge(u, v))
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    return build_network(n, sorted(edges))


def format_network(net: Network) -> str:
    """Serialize to the text format: `n <count>` then one `e <u> <v>` per edge."""
    lines = [f"n {net.n}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(net.edges))
    return "\n".join(lines) + "\n"


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise NetworkError(f"line {lineno}: expected an integer, got {token!r}") from None


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """The text formats' records: each line that is neither blank nor a `#`
    comment, stripped, with its line number (from 1)."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_network(text: str) -> Network:
    """Parse the text format produced by format_network.

    Lines starting with `#` are comments.  Round-trips exactly with
    format_network.
    """
    n = None
    edges = []
    for lineno, line in _lines(text):
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise NetworkError(f"line {lineno}: repeated node-count line")
            if len(parts) != 2:
                raise NetworkError(f"line {lineno}: expected `n <count>`")
            n = _parse_int(parts[1], lineno)
        elif parts[0] == "e":
            if n is None:
                raise NetworkError(f"line {lineno}: edge before node-count line")
            if len(parts) != 3:
                raise NetworkError(f"line {lineno}: expected `e <u> <v>`")
            edges.append((_parse_int(parts[1], lineno), _parse_int(parts[2], lineno)))
        else:
            raise NetworkError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise NetworkError("missing `n <count>` line")
    return build_network(n, edges)
