from __future__ import annotations

import itertools
import random

import pytest

from radiosim import (LISTEN, Coloring, ColoringError, ConflictGraph, Tour,
                      TourError, build_conflict_graph, coloring,
                      exact_chromatic, greedy_color, is_proper, make_clique,
                      make_path, max_degree, optimal_sls_length,
                      schedule_from_coloring, verify_schedule)
from conftest import (MALFORMED_TOURS, all_connected_networks, random_network,
                      random_tours)


def _graph(vertices, edges):
    return ConflictGraph(frozenset(vertices), frozenset(edges))


def _random_graph(rng, max_v=8):
    k = rng.randint(0, max_v)
    vertices = list(range(1, k + 1))
    edges = {(a, b) for a in vertices for b in vertices
             if a < b and rng.random() < 0.4}
    return _graph(vertices, edges)


def _one_link_tours(net, rng, count):
    edges = sorted(net.edges)
    tours = []
    for i in range(1, count + 1):
        u, v = rng.choice(edges)
        if rng.random() < 0.5:
            u, v = v, u
        tours.append(Tour(i, 1, (u, v)))
    return tours


# ---------------------------------------------------------------- greedy


def test_greedy_edgeless_single_color():
    col = greedy_color(_graph([1, 2, 3], []))
    assert set(col.assignment.values()) == {1}
    assert col.num_colors == 1


def test_greedy_triangle_needs_three():
    col = greedy_color(_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)]))
    assert col.num_colors == 3


def test_greedy_ring4_hand_run(ring4, ring4_tours):
    cg = build_conflict_graph(ring4, ring4_tours.values())
    col = greedy_color(cg)
    assert col.assignment == {1: 1, 2: 2, 3: 2, 4: 3}
    assert col.num_colors == 3


def test_greedy_proper_and_within_degree_bound():
    rng = random.Random(3)
    for _ in range(100):
        cg = _random_graph(rng)
        col = greedy_color(cg)
        assert is_proper(cg, col)
        assert col.num_colors <= max_degree(cg) + 1


def _first_fit_oracle(adj, order):
    """Set-based first-fit over an adjacency map built by the test."""
    assignment = {}
    for v in order:
        taken = {assignment[u] for u in adj[v] if u in assignment}
        c = 1
        while c in taken:
            c += 1
        assignment[v] = c
    return assignment, max(assignment.values(), default=0)


def test_greedy_matches_first_fit_oracle():
    rng = random.Random(41)
    big = 0
    for trial in range(240):
        k = rng.randint(0, 150) if trial % 4 == 0 else rng.randint(0, 20)
        big += k > 64
        vertices = rng.sample(range(1, 3 * k + 2), k)
        p = rng.random()
        edges = {(a, b) for a, b in itertools.combinations(vertices, 2) if rng.random() < p}
        adj = {v: set() for v in vertices}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        cg = _graph(vertices, edges)
        col = greedy_color(cg)
        assignment, num_colors = _first_fit_oracle(adj, sorted(vertices))
        assert col.assignment == assignment
        assert col.num_colors == num_colors
        assert is_proper(cg, col)
    assert big >= 20


def test_is_proper_rejects_adjacent_same_color():
    rng = random.Random(43)
    for _ in range(50):
        cg = _random_graph(rng, max_v=12)
        if not cg.edges:
            continue
        col = greedy_color(cg)
        a, b = rng.choice(sorted(cg.edges))
        clash = dict(col.assignment)
        clash[b] = clash[a]
        assert not is_proper(cg, Coloring(clash, col.num_colors))


# ---------------------------------------------------------------- exact


def test_exact_chromatic_small_known_values(ring4, ring4_tours):
    assert exact_chromatic(_graph([], [])) == 0
    assert exact_chromatic(_graph([1, 2, 3], [])) == 1
    cg = build_conflict_graph(ring4, ring4_tours.values())
    assert exact_chromatic(cg) == 3
    k5 = _graph(range(1, 6), [(a, b) for a in range(1, 6)
                              for b in range(a + 1, 6)])
    assert exact_chromatic(k5) == 5


def test_exact_chromatic_cap():
    big = _graph(range(1, 18), [])
    with pytest.raises(ColoringError, match="capped"):
        exact_chromatic(big)


def _partitions(vertices):
    """Every partition of `vertices` into blocks, each exactly once."""
    if not vertices:
        yield []
        return
    first, rest = vertices[0], vertices[1:]
    for blocks in _partitions(rest):
        yield [[first], *blocks]
        for i in range(len(blocks)):
            yield [*blocks[:i], [first, *blocks[i]], *blocks[i + 1:]]


def _chromatic_by_enumeration(vertices, edges):
    """The fewest blocks over all partitions into independent sets."""
    return min(len(blocks) for blocks in _partitions(list(vertices))
               if not any((a, b) in edges for block in blocks
                          for a, b in itertools.combinations(sorted(block), 2)))


def test_exact_chromatic_matches_enumeration():
    # every labeled graph on n <= 5 vertices, then a seeded sample at 6 and 7
    cases = []
    for n in range(6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            cases.append((n, {p for i, p in enumerate(pairs) if mask >> i & 1}))
    rng = random.Random(15)
    for n in (6, 7):
        for _ in range(150):
            p = rng.random()
            cases.append((n, {e for e in itertools.combinations(range(1, n + 1), 2)
                              if rng.random() < p}))
    assert len(cases) == 1 + 1 + 2 + 8 + 64 + 1024 + 300
    for n, edges in cases:
        vertices = range(1, n + 1)
        assert exact_chromatic(_graph(vertices, edges)) == \
            _chromatic_by_enumeration(vertices, edges), (n, sorted(edges))


def test_exact_chromatic_at_the_cap():
    # the Groetzsch graph (11 vertices, triangle-free, chromatic number 4)
    # beside a 5-cycle: 16 vertices, whose largest clique is an edge
    cap = coloring.EXACT_CHROMATIC_CAP
    cycle = [(i, i % 5 + 1) for i in range(1, 6)]
    shadows = [(a + 5, b) for a, b in cycle] + [(b + 5, a) for a, b in cycle]
    hub = [(v, 11) for v in range(6, 11)]
    far_cycle = [(a + 11, b + 11) for a, b in cycle]
    cg = _graph(range(1, 17), cycle + shadows + hub + far_cycle)
    assert len(cg.vertices) == cap == 16
    assert exact_chromatic(cg) == 4
    assert exact_chromatic(_graph(range(1, cap + 1), [])) == 1


def test_exact_never_exceeds_greedy():
    rng = random.Random(7)
    for _ in range(60):
        cg = _random_graph(rng)
        assert exact_chromatic(cg) <= greedy_color(cg).num_colors


# ---------------------------------------------------------------- schedules


def test_schedule_from_coloring_direct_mapping(ring4, ring4_tours):
    cg = build_conflict_graph(ring4, ring4_tours.values())
    col = greedy_color(cg)
    sched = schedule_from_coloring(col, cg)
    assert sched is col
    assert sched.assignment == {1: 1, 2: 2, 3: 2, 4: 3}
    assert sched.num_colors == 3


def test_schedule_from_coloring_trivial_cases():
    col = Coloring({1: 1, 2: 1}, 1)
    sched = schedule_from_coloring(col, _graph([1, 2], []))
    assert sched.assignment == {1: 1, 2: 1} and sched.num_colors == 1
    assert schedule_from_coloring(Coloring({}, 0), _graph([], [])).num_colors == 0


def test_schedule_from_improper_coloring_rejected():
    cg = _graph([1, 2], [(1, 2)])
    with pytest.raises(ColoringError, match="not proper"):
        schedule_from_coloring(Coloring({1: 1, 2: 1}, 1), cg)


def test_verify_schedule_non_conflicting_same_round():
    net = make_path(6)
    tours = [Tour(1, 1, (1, 2)), Tour(2, 1, (5, 6))]
    sched = Coloring({1: 1, 2: 1}, 1)
    assert verify_schedule(net, tours, sched)


def test_verify_schedule_shared_tail_fails():
    net = make_clique(3)
    tours = [Tour(1, 1, (1, 2)), Tour(2, 1, (1, 3))]
    sched = Coloring({1: 1, 2: 1}, 1)
    assert not verify_schedule(net, tours, sched)


@pytest.mark.parametrize("assignment, rounds", [
    # the round of color 1 delivers, then color 2's shared tail 3 fails it
    ({1: 1, 2: 1, 3: 2, 4: 2, 5: 3}, [[1, 4]]),
    # color 1, the first round, holds tours 1, 3 and 4, and 3 and 4 share
    # tail 3: the schedule fails without a round
    ({1: 1, 2: 2, 3: 1, 4: 1, 5: 3}, []),
])
def test_verify_schedule_shared_tail_fails_without_its_round(
        monkeypatch, assignment, rounds):
    """Rounds are simulated in order of their colors' first tours; the round
    that holds two tours of one tail is not simulated, and the search stops
    there.  The recorded rounds list each simulated round's transmitters."""
    net = make_path(5)
    tours = [Tour(1, 1, (1, 2)), Tour(2, 1, (4, 5)), Tour(3, 1, (3, 2)),
             Tour(4, 1, (3, 4)), Tour(5, 1, (2, 1))]
    seen = []
    step = coloring.engine.step

    def recording_step(net, actions):
        seen.append([v for v, a in actions.items() if a is not LISTEN])
        return step(net, actions)

    monkeypatch.setattr(coloring.engine, "step", recording_step)
    assert not verify_schedule(net, tours, Coloring(assignment, 3))
    assert seen == rounds


def test_verify_schedule_neighbor_interference_fails():
    # path 1-2-3-4: tours 1->2 and 3->4 in the same round; 3 neighbors 2,
    # so node 2 has two transmitting neighbors and hears nothing
    net = make_path(4)
    tours = [Tour(1, 1, (1, 2)), Tour(2, 1, (3, 4))]
    sched = Coloring({1: 1, 2: 1}, 1)
    assert not verify_schedule(net, tours, sched)
    # in different rounds both are delivered
    sched2 = Coloring({1: 1, 2: 2}, 2)
    assert verify_schedule(net, tours, sched2)


def test_verify_schedule_errors():
    net = make_path(3)
    with pytest.raises(ColoringError, match="one-link"):
        verify_schedule(net, [Tour(1, 1, (1, 2, 3))],
                        Coloring({1: 1}, 1))
    with pytest.raises(ColoringError, match="not scheduled"):
        verify_schedule(net, [Tour(1, 1, (1, 2))],
                        Coloring({}, 0))


@pytest.mark.parametrize("tour, match", MALFORMED_TOURS)
def test_sls_entries_reject_malformed_tour(tour, match):
    net = make_path(4)
    with pytest.raises(TourError, match=match):
        verify_schedule(net, [tour], Coloring({1: 1}, 1))
    with pytest.raises(TourError, match=match):
        optimal_sls_length(net, [tour])


def test_one_round_schedule_matches_hearing_rule_exhaustive_small():
    """On every connected network with up to 4 nodes, a round of up to 3
    distinct one-link tours delivers iff the tails are distinct, no head
    transmits, and each head's only transmitting neighbor is its tail."""
    for n in (2, 3, 4):
        for net in all_connected_networks(n):
            links = sorted(l for u, v in net.edges for l in ((u, v), (v, u)))
            for k in (1, 2, 3):
                for group in itertools.combinations(links, k):
                    tours = [Tour(i, 1, link) for i, link in enumerate(group, 1)]
                    sched = Coloring({f.id: 1 for f in tours}, 1)
                    tails = [t for t, _ in group]
                    expected = (len(set(tails)) == k
                                and all(h not in tails for _, h in group)
                                and all(net.neighbors(h) & set(tails) == {t}
                                        for t, h in group))
                    assert verify_schedule(net, tours, sched) == expected, group


# ---------------------------------------------------------------- brute force


def test_optimal_single_tour():
    net = make_path(2)
    assert optimal_sls_length(net, [Tour(1, 1, (1, 2))]) == 1
    assert optimal_sls_length(net, []) == 0


def test_optimal_pairwise_conflicting_star():
    # tours fanning out of one node pairwise share it: k tours need k rounds
    net = make_clique(4)
    tours = [Tour(i, 1, (1, i + 1)) for i in (1, 2, 3)]
    assert optimal_sls_length(net, tours) == 3


def test_optimal_too_many_tours():
    net = make_clique(4)
    tours = [Tour(i, 1, (1, 2)) for i in range(1, 13)]
    with pytest.raises(ColoringError, match="capped"):
        optimal_sls_length(net, tours)


def test_optimal_equals_chromatic_random_instances():
    rng = random.Random(13)
    for _ in range(40):
        net = random_network(rng)
        tours = _one_link_tours(net, rng, rng.randint(1, 5))
        cg = build_conflict_graph(net, tours)
        assert optimal_sls_length(net, tours) == exact_chromatic(cg)


def test_coloring_schedule_always_verifies():
    # constructive direction: schedules from proper colorings deliver
    rng = random.Random(17)
    for _ in range(40):
        net = random_network(rng)
        tours = _one_link_tours(net, rng, rng.randint(1, 6))
        cg = build_conflict_graph(net, tours)
        sched = schedule_from_coloring(greedy_color(cg), cg)
        assert verify_schedule(net, tours, sched)


def test_ring4_one_link_instance_matches(ring4, ring4_tours):
    tours = list(ring4_tours.values())
    cg = build_conflict_graph(ring4, tours)
    assert optimal_sls_length(ring4, tours) == exact_chromatic(cg) == 3


# engine.step calls per instance of the seeded set below; the benchmark's
# SLS node-rounds are n times these calls
SLS_STEP_CALLS = [25, 53, 26, 7, 101, 96, 7, 14, 72, 16,
                  72, 23, 145, 14, 3, 37, 7, 52, 2, 65]


def test_sls_search_hearing_rule_calls_are_pinned(monkeypatch):
    """`optimal_sls_length` plus `verify_schedule` resolve every simulated
    round through `engine.step`, and a cheaper search must not make fewer
    or more rounds: the count is pinned per instance."""
    calls = [0]
    step = coloring.engine.step

    def counting_step(net, actions):
        calls[0] += 1
        return step(net, actions)

    monkeypatch.setattr(coloring.engine, "step", counting_step)
    rng = random.Random(29)
    counts = []
    for _ in SLS_STEP_CALLS:
        net = random_network(rng, max_n=8)
        tours = _one_link_tours(net, rng, rng.randint(1, 8))
        calls[0] = 0
        t_opt = optimal_sls_length(net, tours)
        cg = build_conflict_graph(net, tours)
        assert t_opt == exact_chromatic(cg)
        assert verify_schedule(net, tours, schedule_from_coloring(greedy_color(cg), cg))
        counts.append(calls[0])
    assert counts == SLS_STEP_CALLS
