from __future__ import annotations

import itertools
import random

import pytest

from radiosim import (Coloring, ColoringError, ConflictGraph, Tour,
                      build_conflict_graph, exact_chromatic, greedy_color,
                      is_proper, make_clique, make_path, max_degree,
                      optimal_sls_length, schedule_from_coloring,
                      verify_schedule)
from conftest import random_network, random_tours


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
    col = greedy_color(cg, order=[1, 2, 3, 4])
    assert col.assignment == {1: 1, 2: 2, 3: 2, 4: 3}
    assert col.num_colors == 3


def test_greedy_rejects_non_permutation():
    cg = _graph([1, 2, 3], [])
    with pytest.raises(ColoringError, match="permutation"):
        greedy_color(cg, order=[1, 2])


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
        orders = [sorted(vertices)] + [rng.sample(vertices, k) for _ in range(2)]
        for i, order in enumerate(orders):
            col = greedy_color(cg) if i == 0 else greedy_color(cg, order)
            assignment, num_colors = _first_fit_oracle(adj, order)
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


def test_exact_never_exceeds_greedy():
    rng = random.Random(7)
    for _ in range(60):
        cg = _random_graph(rng)
        exact = exact_chromatic(cg)
        for _ in range(3):
            order = sorted(cg.vertices)
            rng.shuffle(order)
            assert exact <= greedy_color(cg, order).num_colors


# ---------------------------------------------------------------- schedules


def test_schedule_from_coloring_direct_mapping(ring4, ring4_tours):
    cg = build_conflict_graph(ring4, ring4_tours.values())
    sched = schedule_from_coloring(greedy_color(cg, order=[1, 2, 3, 4]), cg)
    assert sched.assignment == {1: 1, 2: 2, 3: 2, 4: 3}
    assert sched.length == 3


def test_schedule_from_coloring_trivial_cases():
    col = Coloring({1: 1, 2: 1}, 1)
    sched = schedule_from_coloring(col)
    assert sched.assignment == {1: 1, 2: 1} and sched.length == 1
    assert schedule_from_coloring(Coloring({}, 0)).length == 0


def test_schedule_from_improper_coloring_rejected():
    cg = _graph([1, 2], [(1, 2)])
    with pytest.raises(ColoringError, match="not proper"):
        schedule_from_coloring(Coloring({1: 1, 2: 1}, 1), cg)


def test_verify_schedule_non_conflicting_same_round():
    net = make_path(6)
    tours = [Tour(1, 1, (1, 2)), Tour(2, 1, (5, 6))]
    sched = schedule_from_coloring(Coloring({1: 1, 2: 1}, 1))
    assert verify_schedule(net, tours, sched)


def test_verify_schedule_shared_tail_fails():
    net = make_clique(3)
    tours = [Tour(1, 1, (1, 2)), Tour(2, 1, (1, 3))]
    sched = schedule_from_coloring(Coloring({1: 1, 2: 1}, 1))
    assert not verify_schedule(net, tours, sched)


def test_verify_schedule_neighbor_interference_fails():
    # path 1-2-3-4: tours 1->2 and 3->4 in the same round; 3 neighbors 2,
    # so node 2 has two transmitting neighbors and hears nothing
    net = make_path(4)
    tours = [Tour(1, 1, (1, 2)), Tour(2, 1, (3, 4))]
    sched = schedule_from_coloring(Coloring({1: 1, 2: 1}, 1))
    assert not verify_schedule(net, tours, sched)
    # in different rounds both are delivered
    sched2 = schedule_from_coloring(Coloring({1: 1, 2: 2}, 2))
    assert verify_schedule(net, tours, sched2)


def test_verify_schedule_errors():
    net = make_path(3)
    with pytest.raises(ColoringError, match="one-link"):
        verify_schedule(net, [Tour(1, 1, (1, 2, 3))],
                        schedule_from_coloring(Coloring({1: 1}, 1)))
    with pytest.raises(ColoringError, match="not scheduled"):
        verify_schedule(net, [Tour(1, 1, (1, 2))],
                        schedule_from_coloring(Coloring({}, 0)))


# ---------------------------------------------------------------- brute force


def test_optimal_single_tour():
    net = make_path(2)
    assert optimal_sls_length(net, [Tour(1, 1, (1, 2))]) == 1


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
