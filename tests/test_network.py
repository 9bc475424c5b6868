from __future__ import annotations

import random

import pytest

from radiosim import (NetworkError, build_network, format_network, make_clique,
                      make_cycle, make_path, make_random_connected,
                      parse_network)


def test_triangle_degrees():
    net = build_network(3, [(1, 2), (2, 3), (1, 3)])
    assert all(net.degree(v) == 2 for v in net.nodes())


def test_self_loop_rejected():
    with pytest.raises(NetworkError, match="self-loop"):
        build_network(2, [(1, 1)])


def test_disconnected_rejected():
    with pytest.raises(NetworkError, match=(
            r"^graph is disconnected: cannot reach \[3, 4\] from node 1$")):
        build_network(4, [(1, 2), (3, 4)])


def test_duplicate_edge_rejected():
    with pytest.raises(NetworkError, match="duplicate"):
        build_network(2, [(1, 2), (2, 1)])


def test_endpoint_out_of_range_rejected():
    with pytest.raises(NetworkError, match="out of range"):
        build_network(3, [(1, 2), (2, 5)])


def test_neighbors_clique():
    net = make_clique(4)
    assert net.neighbors(1) == {2, 3, 4}


def test_neighbors_path():
    net = make_path(3)
    assert net.neighbors(2) == {1, 3}
    assert net.neighbors(1) == {2}


def test_neighbors_invalid_node():
    net = make_path(3)
    with pytest.raises(NetworkError, match="out of range"):
        net.neighbors(7)


def test_make_clique_shapes():
    assert sorted(make_clique(2).edges) == [(1, 2)]
    assert len(make_clique(4).edges) == 6
    net = make_clique(6)
    assert all(net.degree(v) == 5 for v in net.nodes())


def test_make_clique_too_small():
    with pytest.raises(NetworkError):
        make_clique(1)


@pytest.mark.parametrize("make, match", [
    (lambda: build_network(0, []), "node count must be >= 1"),
    (lambda: make_path(1), "path needs n >= 2"),
    (lambda: make_cycle(2), "cycle needs n >= 3"),
    (lambda: make_random_connected(1, 0.5, 0), "random network needs n >= 2"),
    (lambda: make_random_connected(4, 1.5, 0), r"edge probability must be in \[0, 1\]"),
], ids=["build", "path", "cycle", "random-size", "random-probability"])
def test_maker_argument_checks(make, match):
    with pytest.raises(NetworkError, match=match):
        make()


def test_make_cycle():
    net = make_cycle(5)
    assert len(net.edges) == 5
    assert all(net.degree(v) == 2 for v in net.nodes())


def test_random_connected_prob_zero_is_tree():
    net = make_random_connected(5, 0.0, seed=3)
    assert len(net.edges) == 4


def test_random_connected_prob_one_is_clique():
    net = make_random_connected(5, 1.0, seed=3)
    assert net == make_clique(5)


def test_random_connected_deterministic():
    a = make_random_connected(9, 0.4, seed=17)
    b = make_random_connected(9, 0.4, seed=17)
    assert a == b


def test_random_connected_always_valid():
    # output must itself pass build_network validation
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(2, 12)
        net = make_random_connected(n, rng.random(), rng.randrange(10**9))
        rebuilt = build_network(net.n, sorted(net.edges))
        assert rebuilt == net


def test_adjacency_symmetric_and_irreflexive():
    rng = random.Random(1)
    for _ in range(20):
        net = make_random_connected(rng.randint(2, 10), rng.random(),
                                    rng.randrange(10**9))
        for v in net.nodes():
            assert v not in net.neighbors(v)
            for u in net.neighbors(v):
                assert v in net.neighbors(u)


def test_text_format_round_trip():
    rng = random.Random(2)
    for _ in range(10):
        net = make_random_connected(rng.randint(2, 8), rng.random(),
                                    rng.randrange(10**9))
        text = format_network(net)
        assert parse_network(text) == net
        assert format_network(parse_network(text)) == text


def test_parse_accepts_comments_and_blank_lines():
    net = parse_network("# a triangle\n\nn 3\ne 1 2\n# middle\ne 2 3\ne 1 3\n")
    assert net == make_clique(3)


def test_parse_errors():
    with pytest.raises(NetworkError, match="missing"):
        parse_network("# nothing here\n")
    with pytest.raises(NetworkError, match="edge before"):
        parse_network("e 1 2\nn 2\n")
    with pytest.raises(NetworkError, match="unknown record"):
        parse_network("n 2\nx 1 2\n")
