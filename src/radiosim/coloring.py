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
from typing import Iterable, Sequence

from . import engine
from .conflict import ConflictGraph, Tour, validate_tour
from .network import Network

EXACT_CHROMATIC_CAP = 16  # vertices
BRUTE_FORCE_CAP = 10  # tours


class ColoringError(ValueError):
    """Raised for improper colorings or oversized exact-solver inputs."""


@dataclass(frozen=True)
class Coloring:
    """Map from tour id to a color in {1..num_colors}."""

    assignment: dict[int, int]
    num_colors: int

    def color(self, tour_id: int) -> int:
        return self.assignment[tour_id]


@dataclass(frozen=True)
class Schedule:
    """Map from tour id to a transmission round; length is the last round."""

    assignment: dict[int, int]
    length: int


def greedy_color(cg: ConflictGraph, order: Sequence[int] | None = None) -> Coloring:
    """First-fit coloring: each vertex gets the smallest color unused by its
    already-colored neighbors.  Uses at most max_degree + 1 colors.

    Default order is ascending tour id (deterministic).
    """
    if order is None:
        order = sorted(cg.vertices)
    if sorted(order) != sorted(cg.vertices):
        raise ColoringError("order is not a permutation of the vertices")
    assignment: dict[int, int] = {}
    for v in order:
        taken = {assignment[u] for u in cg.neighbors(v) if u in assignment}
        c = 1
        while c in taken:
            c += 1
        assignment[v] = c
    return Coloring(assignment, max(assignment.values(), default=0))


def is_proper(cg: ConflictGraph, coloring: Coloring) -> bool:
    return all(coloring.assignment[a] != coloring.assignment[b]
               for a, b in cg.edges)


def _greedy_clique(cg: ConflictGraph) -> list[int]:
    """Heuristic clique, used as a lower bound for exact_chromatic."""
    clique: list[int] = []
    for v in sorted(cg.vertices, key=lambda v: -cg.degree(v)):
        if all(cg.adjacent(v, u) for u in clique):
            clique.append(v)
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

    order = sorted(cg.vertices, key=lambda v: (-cg.degree(v), v))

    def colorable(k: int) -> bool:
        assignment: dict[int, int] = {}

        def place(i: int, used: int) -> bool:
            if i == len(order):
                return True
            v = order[i]
            taken = {assignment[u] for u in cg.neighbors(v) if u in assignment}
            for c in range(1, min(k, used + 1) + 1):
                if c in taken:
                    continue
                assignment[v] = c
                if place(i + 1, max(used, c)):
                    return True
                del assignment[v]
            return False

        return place(0, 0)

    for k in range(lower, upper):
        if colorable(k):
            return k
    return upper


def schedule_from_coloring(coloring: Coloring,
                           cg: ConflictGraph | None = None) -> Schedule:
    """Tour of color i transmits in round i; length = number of colors.

    Pass the conflict graph to have properness checked.
    """
    if cg is not None and not is_proper(cg, coloring):
        raise ColoringError("coloring is not proper for the given conflict graph")
    return Schedule(dict(coloring.assignment), coloring.num_colors)


def _round_delivers(net: Network, group: Iterable[Tour]) -> bool:
    """Simulate one round in which every tour of the group transmits from its
    tail while everyone else listens; True iff every head hears its tail.

    Two tours sharing a tail cannot both transmit, so such a group fails.
    """
    group = list(group)
    actions: dict[int, engine.Action] = {v: engine.LISTEN for v in net.nodes()}
    for f in group:
        tail = f.path[0]
        if isinstance(actions[tail], engine.Transmit):
            return False
        actions[tail] = engine.Transmit(engine.Message(tour=f, progress=0))
    outcome = engine.step(net, actions)
    for f in group:
        out = outcome[f.path[1]]
        if not (isinstance(out, engine.Heard)
                and out.sender == f.path[0]
                and out.message.tour is f):
            return False
    return True


def verify_schedule(net: Network, tours: Iterable[Tour], sched: Schedule) -> bool:
    """True iff simulating the schedule delivers every one-link tour in its
    assigned round, under the real hearing semantics."""
    tour_list = sorted(tours, key=lambda f: f.id)
    for f in tour_list:
        validate_tour(net, f)
        if f.length != 1:
            raise ColoringError(f"tour {f.id} has length {f.length}; "
                                "schedules cover one-link tours only")
        if f.id not in sched.assignment:
            raise ColoringError(f"tour {f.id} is not scheduled")
    rounds: dict[int, list[Tour]] = {}
    for f in tour_list:
        rounds.setdefault(sched.assignment[f.id], []).append(f)
    return all(_round_delivers(net, group) for group in rounds.values())


def optimal_sls_length(net: Network, tours: Iterable[Tour]) -> int:
    """Minimum number of rounds to deliver all one-link tours, by exhaustive
    search over schedules with increasing length.

    Independent of the conflict predicates: feasibility of each round's
    group is decided purely by simulating the hearing rule.  Groups that
    fail stay failed when more transmitters are added, so the search can
    prune on partial assignments.
    """
    tour_list = sorted(tours, key=lambda f: f.id)
    for f in tour_list:
        validate_tour(net, f)
        if f.length != 1:
            raise ColoringError(f"tour {f.id} has length {f.length}; "
                                "SLS instances use one-link tours only")
    if len(tour_list) > BRUTE_FORCE_CAP:
        raise ColoringError(
            f"brute force capped at {BRUTE_FORCE_CAP} tours, got {len(tour_list)}")
    if not tour_list:
        return 0

    def feasible(t_rounds: int) -> bool:
        groups: list[list[Tour]] = [[] for _ in range(t_rounds)]

        def place(i: int, used: int) -> bool:
            if i == len(tour_list):
                return True
            f = tour_list[i]
            for g in range(min(used + 1, t_rounds)):
                groups[g].append(f)
                if _round_delivers(net, groups[g]) and place(i + 1, max(used, g + 1)):
                    return True
                groups[g].pop()
            return False

        return place(0, 0)

    for t_rounds in range(1, len(tour_list) + 1):
        if feasible(t_rounds):
            return t_rounds
    return len(tour_list)
