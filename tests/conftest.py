"""Shared fixtures: the crossed-ring example, every small connected
network, small random instances, one malformed tour per validation
failure, the spider burst that overflows an Old-Go-First window, and
each strict Old-Go-First latency predicted from the trace alone.

The crossed-ring network is a 4-cycle r-s-u-w-r (numbered 1-2-3-4) with
four one-link tours whose conflict structure exercises every clause of
the tour-conflict predicate: sharing at endpoints, interference via a
neighbor of a link head, and the destination exemption that keeps f2 and
f3 conflict-free.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from radiosim import (AdversaryType, InjectionTrace, LoadLedger, Network,
                      NetworkError, Tour, build_network, make_random_connected,
                      node_load, plan_window)

# node names within the crossed ring
R, S, U, W = 1, 2, 3, 4


@pytest.fixture
def ring4() -> Network:
    return build_network(4, [(R, S), (S, U), (U, W), (W, R)])


@pytest.fixture
def ring4_tours() -> dict[str, Tour]:
    return {
        "f1": Tour(1, 1, (U, S)),
        "f2": Tour(2, 1, (R, S)),
        "f3": Tour(3, 1, (W, U)),
        "f4": Tour(4, 1, (R, W)),
    }


# the conflict edges of the crossed-ring tour set, by tour id
RING4_CONFLICT_EDGES = {(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)}

# one tour per way a path can fail validate_tour on make_path(4), with the
# message it fails with
MALFORMED_TOURS = [
    pytest.param(Tour(1, 1, (1,)), "at least one link", id="no-link"),
    pytest.param(Tour(1, 1, (1, 2, 1)), "not simple", id="not-simple"),
    pytest.param(Tour(1, 1, (1, 9)), "out of range", id="out-of-range"),
    pytest.param(Tour(1, 1, (1, 3)), "not an edge", id="non-edge"),
]

SPIDER_EDGES = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
                (3, 7), (4, 8), (5, 9), (6, 10)]


def spider_burst() -> tuple[Network, AdversaryType, InjectionTrace]:
    """Admissible one-round burst whose conflict graph is a degree-4 star:
    every per-node load stays at 2 while Delta + 1 = 5 exceeds the window's
    phase-2 budget, so the L'*(Delta+1) feasibility formula overflows."""
    net = build_network(10, SPIDER_EDGES)
    adv = AdversaryType(Fraction(1, 90), 2, 1)
    tours = (Tour(1, 1, (2, 1)),) + tuple(
        Tour(1 + i, 1, (2 + i, 6 + i)) for i in range(1, 5))
    return net, adv, InjectionTrace(tours, 1)


def all_connected_networks(n: int) -> list[Network]:
    """All labeled connected graphs on nodes 1..n."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    nets = []
    for bits in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
        try:
            nets.append(build_network(n, edges))
        except NetworkError:
            continue
    return nets


def random_simple_path(net: Network, rng: random.Random,
                       max_len: int) -> tuple[int, ...]:
    """Independent path sampler for tests (not the generator's)."""
    length = rng.randint(1, max_len)
    path = [rng.randrange(1, net.n + 1)]
    seen = {path[0]}
    while len(path) <= length:
        options = sorted(net.neighbors(path[-1]) - seen)
        if not options:
            break
        nxt = rng.choice(options)
        path.append(nxt)
        seen.add(nxt)
    return tuple(path)


def random_tours(net: Network, rng: random.Random, count: int,
                 max_len: int, injection_round: int = 1) -> list[Tour]:
    tours = []
    tid = 1
    while len(tours) < count:
        path = random_simple_path(net, rng, max_len)
        if len(path) >= 2:
            tours.append(Tour(tid, injection_round, path))
            tid += 1
    return tours


def random_network(rng: random.Random, max_n: int = 6) -> Network:
    n = rng.randint(2, max_n)
    return make_random_connected(n, rng.random(), rng.randrange(10**9))


def predicted_latency(net: Network, trace: InjectionTrace, w: int,
                      s_n: int) -> dict[int, int]:
    """Each tour's latency in a strict Old-Go-First run with window w and
    S(n) = s_n, by tour id, from the trace alone.  A tour f injected in
    round r of window k, (k-1)*w < r <= k*w, is old in window k+1, whose
    plan `plan_window` makes from the tours injected in window k.  With its
    color c and the plan's conflict degree Delta, f's last hop is heard in
    super-round len(f), color round c, so

        latency = k*w + S(n) + (len(f) - 1)*(Delta + 1) + c - r
    """
    injected: dict[int, list[Tour]] = {}
    for f in trace.injections:
        injected.setdefault((f.injection_round - 1) // w + 1, []).append(f)
    predicted = {}
    for k, tours in injected.items():
        plan = plan_window(net, tours)
        for f in tours:
            predicted[f.id] = (k * w + s_n + (f.length - 1) * (plan.delta + 1)
                               + plan.coloring.assignment[f.id] - f.injection_round)
    return predicted


def assert_genuine_witness(net, trace, adv, violation):
    """A load witness must name a real interval whose load exceeds its budget."""
    if violation is None or violation.kind != "load":
        return
    start, end = violation.interval
    ledger = LoadLedger(net, trace)
    assert node_load(ledger, violation.node, violation.interval) == violation.load
    assert violation.budget == adv.rho * (end - start + 1) + adv.b
    assert violation.load > violation.budget
