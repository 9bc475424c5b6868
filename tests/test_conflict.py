from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from radiosim import (LISTEN, AdversaryType, ConflictGraph, GossipConfig,
                      Heard, Message, Tour, TourError, build_conflict_graph,
                      conflict_node_set, format_tour, gen_unbalanced_clique,
                      make_clique, make_cycle, make_path, max_degree,
                      node_link_conflicts, node_tour_conflicts,
                      parse_tour_line, run_ogf, step, tours_conflict,
                      validate_tour)
from radiosim import ogf
from conftest import (R, RING4_CONFLICT_EDGES, S, U, W, random_network,
                      random_tours)


# ---------------------------------------------------------------- validation


def test_validate_rejects_short_path(ring4):
    with pytest.raises(TourError, match="at least one link"):
        validate_tour(ring4, Tour(1, 1, (R,)))


def test_validate_rejects_repeated_node(ring4):
    with pytest.raises(TourError, match="not simple"):
        validate_tour(ring4, Tour(1, 1, (R, S, R)))


def test_validate_rejects_non_edge(ring4):
    # R-U is a diagonal of the ring, not an edge
    with pytest.raises(TourError, match="not an edge"):
        validate_tour(ring4, Tour(1, 1, (R, U)))


def test_validate_rejects_unknown_node(ring4):
    with pytest.raises(TourError, match="out of range"):
        validate_tour(ring4, Tour(1, 1, (R, 9)))


# ---------------------------------------------------------------- node/link


def test_tail_conflicts_with_own_link():
    net = make_path(3)
    assert node_link_conflicts(net, 1, (1, 2))


def test_head_conflicts_with_own_link():
    net = make_path(3)
    assert node_link_conflicts(net, 2, (1, 2))


def test_neighbor_of_head_conflicts():
    net = make_path(3)
    assert node_link_conflicts(net, 3, (1, 2))


def test_neighbor_of_tail_only_does_not_conflict():
    net = make_path(4)
    # 1 neighbors the tail 2 but not the head 3
    assert not node_link_conflicts(net, 1, (2, 3))


def test_ring4_start_of_f4_conflicts_with_f1_link(ring4):
    # r neighbors s, the head of u->s
    assert node_link_conflicts(ring4, R, (U, S))


def test_node_link_conflicts_validates_inputs(ring4):
    with pytest.raises(TourError, match="not an edge"):
        node_link_conflicts(ring4, R, (R, U))
    with pytest.raises(TourError, match="out of range"):
        node_link_conflicts(ring4, 9, (R, S))


def test_node_tour_on_path_conflicts(ring4, ring4_tours):
    assert node_tour_conflicts(ring4, U, ring4_tours["f1"])


def test_node_tour_far_node_does_not_conflict():
    net = make_path(5)
    assert not node_tour_conflicts(net, 5, Tour(1, 1, (1, 2)))


def test_ring4_r_conflicts_with_f1(ring4, ring4_tours):
    assert node_tour_conflicts(ring4, R, ring4_tours["f1"])


def test_conflict_node_set_matches_predicate():
    rng = random.Random(11)
    for _ in range(60):
        net = random_network(rng)
        (tour,) = random_tours(net, rng, 1, max_len=3)
        expected = {v for v in net.nodes() if node_tour_conflicts(net, v, tour)}
        assert conflict_node_set(net, tour) == expected


# ---------------------------------------------------------------- tour pairs


def test_ring4_f2_f3_do_not_conflict(ring4, ring4_tours):
    assert not tours_conflict(ring4, ring4_tours["f2"], ring4_tours["f3"])


def test_ring4_f3_f4_share_w(ring4, ring4_tours):
    assert tours_conflict(ring4, ring4_tours["f3"], ring4_tours["f4"])


def test_ring4_f1_f4_conflict_via_start_node(ring4, ring4_tours):
    assert tours_conflict(ring4, ring4_tours["f1"], ring4_tours["f4"])


def test_conflict_symmetry_random():
    rng = random.Random(23)
    for _ in range(200):
        net = random_network(rng)
        f0, f1 = random_tours(net, rng, 2, max_len=3)
        assert tours_conflict(net, f0, f1) == tours_conflict(net, f1, f0)


def test_node_sharing_implies_conflict():
    rng = random.Random(29)
    found = 0
    for _ in range(400):
        net = random_network(rng)
        f0, f1 = random_tours(net, rng, 2, max_len=3)
        if set(f0.path) & set(f1.path):
            found += 1
            assert tours_conflict(net, f0, f1)
    assert found > 50


# ---------------------------------------------------------------- graph


def test_ring4_conflict_graph_exact(ring4, ring4_tours):
    cg = build_conflict_graph(ring4, ring4_tours.values())
    assert set(cg.edges) == RING4_CONFLICT_EDGES
    assert not cg.adjacent(2, 3)


def test_empty_tour_set(ring4):
    cg = build_conflict_graph(ring4, [])
    assert not cg.vertices and not cg.edges
    assert max_degree(cg) == 0


def test_single_tour_no_self_loop(ring4, ring4_tours):
    cg = build_conflict_graph(ring4, [ring4_tours["f1"]])
    assert cg.vertices == {1} and not cg.edges


def test_duplicate_ids_rejected(ring4, ring4_tours):
    with pytest.raises(TourError, match="duplicate"):
        build_conflict_graph(ring4, [ring4_tours["f1"],
                                     Tour(1, 1, (R, S))])


def test_graph_agrees_with_pairwise_predicate():
    rng = random.Random(31)
    for _ in range(80):
        net = random_network(rng)
        tours = random_tours(net, rng, rng.randint(0, 6), max_len=3)
        cg = build_conflict_graph(net, tours)
        for f0, f1 in itertools.combinations(tours, 2):
            assert cg.adjacent(f0.id, f1.id) == tours_conflict(net, f0, f1)
            assert cg.adjacent(f1.id, f0.id) == cg.adjacent(f0.id, f1.id)
        assert set(cg.edges) == {
            (min(f0.id, f1.id), max(f0.id, f1.id))
            for f0, f1 in itertools.combinations(tours, 2)
            if tours_conflict(net, f0, f1)}
        assert cg.vertices == {f.id for f in tours}
        absent = max((f.id for f in tours), default=0) + 1
        for f in tours:
            assert cg.degree(f.id) == len(cg.neighbors(f.id))
            assert not cg.adjacent(f.id, absent) and not cg.adjacent(absent, f.id)


def test_graph_agrees_with_pairwise_predicate_at_scale():
    # rows span several 64-bit words; tours up to 5 links on up to 10 nodes
    rng = random.Random(53)
    dest_only_pairs = 0
    for _ in range(30):
        net = random_network(rng, max_n=10)
        tours = random_tours(net, rng, rng.randint(20, 80), max_len=rng.randint(1, 5))
        # two tours into one node from different neighbors share only it
        x = rng.randrange(1, net.n + 1)
        nbrs = sorted(net.neighbors(x))
        if len(nbrs) >= 2:
            a, b = rng.sample(nbrs, 2)
            tours += [Tour(len(tours) + 1, 1, (a, x)), Tour(len(tours) + 2, 1, (b, x))]
        dest_only_pairs += sum(
            1 for f0, f1 in itertools.combinations(tours, 2)
            if set(f0.path) & set(f1.path) == {f0.path[-1]} == {f1.path[-1]})
        cg = build_conflict_graph(net, tours)
        assert set(cg.edges) == {(min(f0.id, f1.id), max(f0.id, f1.id))
                                 for f0, f1 in itertools.combinations(tours, 2)
                                 if tours_conflict(net, f0, f1)}
        for f in tours:
            assert cg.degree(f.id) == len(cg.neighbors(f.id))
            assert all(cg.adjacent(g, f.id) for g in cg.neighbors(f.id))
        assert max_degree(cg) == max(cg.degree(f.id) for f in tours)
    assert dest_only_pairs > 100


def test_saturated_clique_old_set_is_complete():
    # the seed-1 saturation trace: K6 at 1/2:1:3, t=2, nodes relabelled
    net, trace = gen_unbalanced_clique(AdversaryType(Fraction(1, 2), 1, 3), 6, 2, 1400)
    names = list(range(1, 7))
    random.Random(1).shuffle(names)
    relabel = dict(zip(range(1, 7), names))
    old = [Tour(f.id, f.injection_round, tuple(relabel[v] for v in f.path))
           for f in trace.injections if f.injection_round <= 1320]
    k = len(old)
    assert k > 600
    cg = build_conflict_graph(net, old)
    assert cg.edges == {(a, b) for a, b in itertools.combinations(sorted(cg.vertices), 2)}
    assert all(cg.degree(f.id) == k - 1 for f in old)
    assert max_degree(cg) == k - 1
    rng = random.Random(1)
    for f0, f1 in (rng.sample(old, 2) for _ in range(200)):
        assert tours_conflict(net, f0, f1)


def _pairwise_edges(net, tours):
    return {(min(f0.id, f1.id), max(f0.id, f1.id))
            for f0, f1 in itertools.combinations(tours, 2) if tours_conflict(net, f0, f1)}


def test_graph_on_the_saturation_old_set_matches_pairwise_predicate(monkeypatch):
    # the old sets a lenient K6 run at 1/2:1:3 plans: many tours on few
    # paths, some of them what remains of a partly sent tour
    planned = []

    def recording_build(net, tours):
        planned.append(list(tours))
        return build_conflict_graph(net, planned[-1])

    monkeypatch.setattr(ogf, "build_conflict_graph", recording_build)
    adv = AdversaryType(Fraction(1, 2), 1, 3)
    net, trace = gen_unbalanced_clique(adv, 6, 2, 600)
    run_ogf(net, adv, GossipConfig.tdma(), trace, 600, window_override=60, strict=False)
    old = planned[-1]
    assert len(old) > 200 and len({f.path for f in old}) <= 12
    assert min(f.length for f in old) < adv.L
    assert build_conflict_graph(net, old).edges == _pairwise_edges(net, old)


def test_graph_on_repeated_paths_matches_pairwise_predicate():
    # few distinct paths, each carried by many tours with scattered ids
    rng = random.Random(19)
    for _ in range(40):
        net = random_network(rng, max_n=8)
        paths = [f.path for f in random_tours(net, rng, rng.randint(1, 6), max_len=4)]
        k = rng.randint(2, 60)
        tours = [Tour(tid, 1, rng.choice(paths))
                 for tid in rng.sample(range(1, 10**6), k)]
        cg = build_conflict_graph(net, tours)
        assert cg.edges == _pairwise_edges(net, tours)
        # tours on one path conflict with each other
        assert all(cg.adjacent(f0.id, f1.id)
                   for f0, f1 in itertools.combinations(tours, 2) if f0.path == f1.path)


def test_conflict_graph_rejects_self_loop():
    with pytest.raises(TourError, match="self-loop"):
        ConflictGraph([1, 2], [(1, 1), (1, 2)])


def test_conflict_graph_rejects_edge_to_unknown_vertex():
    with pytest.raises(TourError, match="3 is not a vertex"):
        ConflictGraph([1, 2], [(1, 3)])


def test_max_degree_ring4(ring4, ring4_tours):
    cg = build_conflict_graph(ring4, ring4_tours.values())
    assert max_degree(cg) == 3
    assert cg.degree(1) == 3 and cg.degree(4) == 3


def test_max_degree_edgeless_and_triangle():
    from radiosim import ConflictGraph
    edgeless5 = ConflictGraph(frozenset({1, 2, 3, 4, 5}), frozenset())
    assert max_degree(edgeless5) == 0
    net = make_clique(3)
    tours = [Tour(i, 1, (i, i % 3 + 1)) for i in (1, 2, 3)]
    cg = build_conflict_graph(net, tours)  # all share nodes: a triangle
    assert max_degree(cg) == 2


# ---------------------------------------------------------------- soundness


def _transmit_positions(net, f0, p0, f1, p1):
    """One round: both tours transmit from their current positions; True iff
    both next hops hear the right message."""
    actions = {v: LISTEN for v in net.nodes()}
    actions[f0.path[p0]] = Message(tour=f0)
    actions[f1.path[p1]] = Message(tour=f1)
    outcome = step(net, actions)
    for f, p in ((f0, p0), (f1, p1)):
        out = outcome[f.path[p + 1]]
        if not (isinstance(out, Heard) and out.message.tour is f):
            return False
    return True


def test_non_conflicting_tours_always_heard_small_exhaustive():
    """Simultaneous transmission along any two non-conflicting tours is heard
    by both next hops; exhaustive over the fixed small network family."""
    nets = [make_path(4), make_cycle(4), make_clique(4), make_path(6),
            make_cycle(6)]
    checked = 0
    for net in nets:
        paths = []
        for k in (2, 3, 4):  # up to 3 links
            for combo in itertools.permutations(net.nodes(), k):
                if all(net.has_edge(a, b) for a, b in zip(combo, combo[1:])):
                    paths.append(combo)
        tours = [Tour(i + 1, 1, p) for i, p in enumerate(paths)]
        for f0, f1 in itertools.combinations(tours, 2):
            if tours_conflict(net, f0, f1):
                continue
            for p0 in range(f0.length):
                for p1 in range(f1.length):
                    assert _transmit_positions(net, f0, p0, f1, p1)
                    checked += 1
    assert checked > 100


# ---------------------------------------------------------------- text format


def test_tour_text_round_trip():
    tour = Tour(7, 12, (3, 2, 1))
    line = format_tour(tour)
    assert line == "t 7 12 3 2 1"
    assert parse_tour_line(line, 1) == tour


def test_tour_parse_errors():
    with pytest.raises(TourError, match="^line 4: expected "):
        parse_tour_line("t 1 2 3", 4)  # too short
    with pytest.raises(TourError):
        parse_tour_line("x 1 2 3 4", 1)
    with pytest.raises(TourError):
        parse_tour_line("t one 2 3 4", 1)
