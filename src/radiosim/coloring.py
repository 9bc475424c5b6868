"""Vertex coloring of conflict graphs and static link scheduling.

Static link scheduling (SLS): given a set of one-link tours, route all of
them in as few rounds as possible.  The optimum equals the chromatic
number of the tours' conflict graph, which this module makes executable
from both directions: an exact chromatic-number solver on one side, and a
brute-force schedule search that only trusts the simulated hearing rule
on the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import engine
from .conflict import ConflictGraph, Tour, validate_tour
from .network import Network

EXACT_CHROMATIC_CAP = 16  # vertices
BRUTE_FORCE_CAP = 10  # tours


class ColoringError(ValueError):
    """Raised for improper colorings or oversized exact-solver inputs."""


@dataclass(frozen=True)
class Coloring:
    """Map from tour id to a color in {1..num_colors}.  It is also a schedule
    of `num_colors` rounds: the tour of color i transmits in round i."""

    assignment: dict[int, int]
    num_colors: int


def greedy_color(cg: ConflictGraph) -> Coloring:
    """First-fit coloring: each vertex gets the smallest color unused by its
    already-colored neighbors.  Uses at most max_degree + 1 colors.

    The order is ascending tour id (deterministic).  Color c is built
    as one sweep: the greedy independent set, taken in order, of the
    vertices still uncolored.  This is first-fit's assignment, by induction
    on c: an uncolored vertex v joins class c iff no earlier vertex of the
    class neighbors v, that is, iff no earlier neighbor of v has color c.
    """
    ids, rows = cg._ids, cg._bits
    colors = [0] * len(ids)
    uncolored = (1 << len(ids)) - 1
    c = 0
    while uncolored:
        c += 1
        candidates = uncolored
        while candidates:
            low = candidates & -candidates
            r = low.bit_length() - 1
            colors[r] = c
            uncolored ^= low
            candidates &= ~(rows[r] | low)
    return Coloring(dict(zip(ids, colors)), c)


def is_proper(cg: ConflictGraph, coloring: Coloring) -> bool:
    """True iff no edge joins two vertices of one color: each vertex is
    checked against the mask of the earlier vertices of its color."""
    classes: dict[int, int] = {}
    for i, (v, row) in enumerate(zip(cg._ids, cg._bits)):
        if row:
            c = coloring.assignment[v]
            members = classes.get(c, 0)
            if row & members:
                return False
            classes[c] = members | 1 << i
    return True


def _greedy_clique(cg: ConflictGraph) -> list[int]:
    """Heuristic clique, used as a lower bound for exact_chromatic: vertices
    by falling degree, each kept iff it neighbors every vertex kept so far."""
    rows = cg._bits
    clique: list[int] = []
    common = (1 << len(rows)) - 1  # common neighbors of the clique
    for i in sorted(range(len(rows)), key=lambda i: -rows[i].bit_count()):
        if common >> i & 1:
            clique.append(cg._ids[i])
            common &= rows[i]
    return clique


def exact_chromatic(cg: ConflictGraph) -> int:
    """Exact chromatic number by branch and bound; a test oracle for small graphs."""
    if len(cg.vertices) > EXACT_CHROMATIC_CAP:
        raise ColoringError(f"exact_chromatic capped at {EXACT_CHROMATIC_CAP} "
                            f"vertices, got {len(cg.vertices)}")
    if not cg.vertices:
        return 0
    lower = max(len(_greedy_clique(cg)), 1)
    upper = greedy_color(cg).num_colors

    rows = cg._bits
    order = sorted(range(len(rows)), key=lambda i: (-rows[i].bit_count(), i))

    def colorable(k: int) -> bool:
        classes = [0] * k  # mask of the vertices placed in each color

        def place(i: int, used: int) -> bool:
            if i == len(order):
                return True
            v = order[i]
            for c in range(min(k, used + 1)):
                if rows[v] & classes[c]:
                    continue
                classes[c] |= 1 << v
                if place(i + 1, max(used, c + 1)):
                    return True
                classes[c] ^= 1 << v
            return False

        return place(0, 0)

    for k in range(lower, upper):
        if colorable(k):
            return k
    return upper


def schedule_from_coloring(coloring: Coloring, cg: ConflictGraph) -> Coloring:
    """A proper coloring is its own schedule (the tour of color i transmits
    in round i); raises ColoringError unless `coloring` is proper for `cg`."""
    if not is_proper(cg, coloring):
        raise ColoringError("coloring is not proper for the given conflict graph")
    return coloring


def _round_delivers(net: Network, sends: dict[int, engine.Message]) -> bool:
    """Simulate one round in which each tour of a group transmits from its
    tail: `sends` maps each tail to its tour's `Message(tour=f)`, and every
    other node listens.  True iff every head hears its tail, that is,
    hears the tour's own message, which no other node sends.

    Two tours sharing a tail cannot both transmit, so the caller fails such
    a group without a round.
    """
    outcome = engine.step(net, sends)
    Heard = engine.Heard
    for a in sends.values():
        out = outcome[a.tour.path[1]]
        if type(out) is not Heard or out.message is not a:
            return False
    return True


def one_link_tours(net: Network, tours: Iterable[Tour]) -> list[Tour]:
    """The tours sorted by id, each checked to be a one-link path of `net`."""
    tour_list = sorted(tours, key=lambda f: f.id)
    for f in tour_list:
        validate_tour(net, f)
        if f.length != 1:
            raise ColoringError(f"tour {f.id} has length {f.length}; "
                                "SLS instances use one-link tours only")
    return tour_list


def verify_schedule(net: Network, tours: Iterable[Tour], sched: Coloring) -> bool:
    """True iff simulating the schedule delivers every one-link tour in the
    round of its color, under the real hearing semantics."""
    tour_list = one_link_tours(net, tours)
    for f in tour_list:
        if f.id not in sched.assignment:
            raise ColoringError(f"tour {f.id} is not scheduled")
    rounds: dict[int, list[Tour]] = {}
    for f in tour_list:
        rounds.setdefault(sched.assignment[f.id], []).append(f)
    for group in rounds.values():
        sends: dict[int, engine.Message] = {}
        for f in group:
            if f.source in sends:
                return False  # two tours of the round share a tail
            sends[f.source] = engine.Message(tour=f)
        if not _round_delivers(net, sends):
            return False
    return True


def optimal_sls_length(net: Network, tours: Iterable[Tour]) -> int:
    """Minimum number of rounds to deliver all one-link tours, by exhaustive
    search over schedules with increasing length.

    Independent of the conflict predicates: feasibility of each round's
    group is decided purely by simulating the hearing rule.  Groups that
    fail stay failed when more transmitters are added, so the search can
    prune on partial assignments.  Each group is its own map from tail to
    `Message`, which a tour joins under its tail and leaves.
    """
    tour_list = one_link_tours(net, tours)
    if len(tour_list) > BRUTE_FORCE_CAP:
        raise ColoringError(
            f"brute force capped at {BRUTE_FORCE_CAP} tours, got {len(tour_list)}")
    if not tour_list:
        return 0

    sends = [engine.Message(tour=f) for f in tour_list]

    def feasible(t_rounds: int) -> bool:
        groups: list[dict[int, engine.Message]] = [{} for _ in range(t_rounds)]

        def place(i: int, used: int) -> bool:
            if i == len(sends):
                return True
            a = sends[i]
            tail = a.tour.path[0]
            for g in range(min(used + 1, t_rounds)):
                group = groups[g]
                if tail in group:
                    continue  # a shared tail fails without a round
                group[tail] = a
                if _round_delivers(net, group) and place(i + 1, max(used, g + 1)):
                    return True
                del group[tail]
            return False

        return place(0, 0)

    for t_rounds in range(1, len(tour_list) + 1):
        if feasible(t_rounds):
            return t_rounds
    return len(tour_list)
