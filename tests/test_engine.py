from __future__ import annotations

import random

import pytest

from radiosim import (COLLISION, LISTEN, SILENCE, AlwaysListen, EngineError,
                      Heard, InjectionTrace, Message, Metrics, NodeState,
                      QueuedTour, RoundRobin, RoutingAlgorithm, Tour, TourError,
                      Transmit, make_clique, make_path, make_random_connected,
                      run, step)
from radiosim.engine import Delivery
from conftest import MALFORMED_TOURS, all_connected_networks, random_simple_path


def _tx(payload=None):
    return Transmit(Message(control=payload))


# ---------------------------------------------------------------- step


def test_single_transmitter_heard_by_all_listening_neighbors():
    net = make_clique(4)
    actions = {1: _tx("m"), 2: LISTEN, 3: LISTEN, 4: LISTEN}
    outcome = step(net, actions)
    for v in (2, 3, 4):
        assert outcome[v] == Heard(1, Message(control="m"))
    assert outcome[1] is SILENCE


def test_two_transmitting_neighbors_collide():
    net = make_path(3)
    outcome = step(net, {1: _tx(), 2: LISTEN, 3: _tx()})
    assert outcome[2] is COLLISION


def test_transmitters_hear_nothing_even_from_each_other():
    net = make_path(2)
    outcome = step(net, {1: _tx(), 2: _tx()})
    assert outcome[1] is SILENCE and outcome[2] is SILENCE


def test_non_neighbor_transmitter_does_not_interfere():
    net = make_path(4)
    # node 4 transmits but is not a neighbor of 2, so 2 still hears 1;
    # node 3 hears 4, its only transmitting neighbor
    outcome = step(net, {1: _tx("a"), 2: LISTEN, 3: LISTEN, 4: _tx("b")})
    assert outcome[2] == Heard(1, Message(control="a"))
    assert outcome[3] == Heard(4, Message(control="b"))


def test_missing_action_rejected():
    net = make_path(2)
    with pytest.raises(EngineError, match="no action"):
        step(net, {1: LISTEN})


def test_unknown_node_action_rejected():
    net = make_path(2)
    with pytest.raises(EngineError, match="unknown nodes"):
        step(net, {1: LISTEN, 2: LISTEN, 5: LISTEN})


def test_invalid_action_rejected():
    net = make_path(2)
    with pytest.raises(EngineError, match="invalid action"):
        step(net, {1: "transmit", 2: LISTEN})


@pytest.mark.parametrize("actions, message", [
    ({1: "x"}, "node 1: invalid action 'x'"),
    ({1: "x", 2: LISTEN, 7: LISTEN}, "node 1: invalid action 'x'"),
    ({2: LISTEN, 7: LISTEN}, "node 1 has no action"),
    ({2: "y", 1: "x"}, "node 1: invalid action 'x'"),
    ({2: LISTEN, 1: LISTEN, 7: LISTEN, 5: LISTEN},
     r"actions for unknown nodes \[5, 7\]"),
], ids=["invalid-before-missing", "invalid-before-unknown",
        "missing-before-unknown", "invalid-in-node-order", "unknown-sorted"])
def test_malformed_actions_report_first_error_in_node_order(actions, message):
    """A malformed action map is reported as a scan in node order meets it,
    whatever the map's own order: the first node with no action or an
    invalid one, else the unknown nodes."""
    with pytest.raises(EngineError, match=f"^{message}$"):
        step(make_path(2), actions)


def test_hearing_rule_exhaustive_small():
    """step matches a direct statement of the hearing rule on every labeled
    connected network with up to 4 nodes and every transmitter subset."""
    for n in (1, 2, 3, 4):
        for net in all_connected_networks(n):
            nodes = list(net.nodes())
            for tx_bits in range(1 << n):
                transmitters = {nodes[i] for i in range(n) if tx_bits >> i & 1}
                actions = {v: _tx(f"m{v}") if v in transmitters else LISTEN
                           for v in nodes}
                outcome = step(net, actions)
                for v in nodes:
                    if v in transmitters:
                        assert outcome[v] is SILENCE
                        continue
                    heard_from = transmitters & net.neighbors(v)
                    if len(heard_from) == 1:
                        (u,) = heard_from
                        assert outcome[v] == Heard(u, Message(control=f"m{u}"))
                    elif len(heard_from) >= 2:
                        assert outcome[v] is COLLISION
                    else:
                        assert outcome[v] is SILENCE


# ---------------------------------------------------------------- run


class TransmitWhatYouHold(RoutingAlgorithm):
    """Transmits the sole queued tour every round (single-tour scenarios)."""

    def on_round(self, state: NodeState, round_no: int):
        if state.queue:
            qt = next(iter(state.queue.values()))
            return Transmit(Message(tour=qt.tour, progress=qt.progress))
        return LISTEN


def test_single_tour_on_path_latency():
    net = make_path(3)
    tour = Tour(1, 1, (1, 2, 3))
    trace = InjectionTrace((tour,), 1)
    metrics = run(net, TransmitWhatYouHold(), trace, 5)
    assert len(metrics.deliveries) == 1
    d = metrics.deliveries[0]
    assert d.delivered == 2 and d.latency == 1 and d.links == 2


def test_empty_trace_zero_backlog():
    net = make_path(3)
    metrics = run(net, RoundRobin(), InjectionTrace((), 0), 10)
    assert metrics.backlog == [0] * 10
    assert metrics.injected_total == 0


def test_always_listen_never_delivers():
    net = make_path(3)
    trace = InjectionTrace((Tour(1, 1, (1, 2)),), 1)
    metrics = run(net, AlwaysListen(), trace, 20)
    assert not metrics.deliveries
    assert metrics.final_backlog() == 1


@pytest.mark.parametrize("tour, match", MALFORMED_TOURS)
def test_run_rejects_malformed_tour(tour, match):
    with pytest.raises(TourError, match=match):
        run(make_path(4), AlwaysListen(), InjectionTrace((tour,), 1), 5)


def test_round_robin_single_transmitter_never_collides():
    rng = random.Random(5)
    net = make_clique(5)
    tours = tuple(Tour(i, rng.randint(1, 10), (i % 5 + 1, (i + 1) % 5 + 1))
                  for i in range(1, 8))
    seen = {"collision": False}

    def observer(r, sending, outcome):
        assert len(sending) <= 1
        if any(out is COLLISION for out in outcome.values()):
            seen["collision"] = True

    metrics = run(net, RoundRobin(), InjectionTrace(tours, 10), 60,
                  observer=observer)
    assert not seen["collision"]
    assert metrics.delivered_total == len(tours)


def test_no_teleportation_one_hop_per_round():
    net = make_path(4)
    trace = InjectionTrace((Tour(1, 1, (1, 2, 3, 4)),), 1)
    positions = []

    class Tracker(TransmitWhatYouHold):
        def on_round(self, state, round_no):
            for qt in state.queue.values():
                positions.append((round_no, qt.progress))
            return super().on_round(state, round_no)

    run(net, Tracker(), trace, 10)
    for (r0, p0), (r1, p1) in zip(positions, positions[1:]):
        assert p1 - p0 <= 1


def test_transmitting_non_resident_tour_rejected():
    net = make_path(3)
    ghost = Tour(99, 1, (1, 2))

    class Cheater(RoutingAlgorithm):
        def on_round(self, state, round_no):
            if state.name == 1:
                return Transmit(Message(tour=ghost, progress=0))
            return LISTEN

    with pytest.raises(EngineError, match="not resident"):
        run(net, Cheater(), InjectionTrace((), 0), 3)


def test_algorithm_invalid_action_rejected():
    class Broken(RoutingAlgorithm):
        def on_round(self, state, round_no):
            return "transmit"

    with pytest.raises(EngineError, match="invalid action"):
        run(make_path(2), Broken(), InjectionTrace((), 0), 1)


def test_delivered_tour_leaves_queues():
    net = make_path(3)
    trace = InjectionTrace((Tour(1, 1, (1, 2)),), 1)
    metrics = run(net, TransmitWhatYouHold(), trace, 5)
    assert metrics.delivered_total == 1
    assert metrics.final_backlog() == 0
    # conservation over the whole run
    assert metrics.injected_total == metrics.delivered_total


def test_determinism_bit_identical_metrics():
    rng = random.Random(9)
    net = make_clique(4)
    tours = tuple(Tour(i, rng.randint(1, 20), (i % 4 + 1, (i + 1) % 4 + 1))
                  for i in range(1, 12))
    trace = InjectionTrace(tours, 20)
    a = run(net, RoundRobin(), trace, 80)
    b = run(net, RoundRobin(), trace, 80)
    assert a.rounds_csv() == b.rounds_csv()
    assert a.deliveries_csv() == b.deliveries_csv()


class Dropper(RoutingAlgorithm):
    """Acts in rounds 1, 2, 4, 6, ...: sleeps through every odd round after 1.
    In round 4 node 1 drops a tour from its own queue, from `on_round`, or
    from `on_hear` when node 2 transmits then."""

    def __init__(self, hook: str):
        self.hook = hook

    def on_round(self, state, round_no):
        state.wake = round_no + 1 + (round_no % 2 == 0)
        if round_no == 4 and self.hook == "on_round" and state.name == 1:
            del state.queue[next(iter(state.queue))]
        if round_no == 4 and self.hook == "on_hear" and state.name == 2:
            return _tx()
        return LISTEN

    def on_hear(self, state, sender, message):
        if self.hook == "on_hear" and state.name == 1:
            del state.queue[next(iter(state.queue))]


@pytest.mark.parametrize("hook", ["on_round", "on_hear"])
def test_callback_that_drops_a_tour_breaks_conservation(hook):
    """A node that changes its own queue from a callback is caught by the
    conservation check in that round, also after it slept."""
    trace = InjectionTrace((Tour(1, 1, (1, 2)), Tour(2, 2, (3, 2))), 2)
    rounds = []
    with pytest.raises(EngineError, match="^conservation violated"):
        run(make_path(3), Dropper(hook), trace, 10,
            observer=lambda r, sending, outcome: rounds.append(r))
    assert rounds[-1] == 4


def test_csv_schemas():
    net = make_path(3)
    trace = InjectionTrace((Tour(1, 1, (1, 2, 3)),), 1)
    metrics = run(net, TransmitWhatYouHold(), trace, 3)
    rounds = metrics.rounds_csv().splitlines()
    assert rounds[0] == "round,backlog,undelivered_hops,max_queue"
    assert len(rounds) == 4
    deliveries = metrics.deliveries_csv().splitlines()
    assert deliveries[0] == "tour_id,injected,delivered,latency,links"
    assert deliveries[1] == "1,1,2,1,2"


# ---------------------------------------------------------------- reference


class RandomSleeper(RoutingAlgorithm):
    """Seeded choices that depend only on (node, round): each round a node
    may sleep a few rounds, and it transmits a resident tour, a control
    message or nothing."""

    def __init__(self, seed: int):
        self.seed = seed

    def on_round(self, state: NodeState, round_no: int):
        rng = random.Random(f"{self.seed}/{state.name}/{round_no}")
        if rng.random() < 0.4:
            state.wake = round_no + rng.randint(1, 6)
        roll = rng.random()
        if roll < 0.5 and state.queue:
            qt = state.queue[rng.choice(sorted(state.queue))]
            return Transmit(Message(tour=qt.tour, progress=qt.progress))
        if roll < 0.6:
            return Transmit(Message(control=state.name))
        return LISTEN


class HearingSleeper(RandomSleeper):
    """Also sets `wake` from `on_hear`, relative to the last round the node
    acted in: a round already past, or one to sleep to despite the wake-up
    that hearing gives."""

    def on_round(self, state: NodeState, round_no: int):
        state.memory["acted"] = round_no
        return super().on_round(state, round_no)

    def on_hear(self, state: NodeState, sender: int, message: Message) -> None:
        rng = random.Random(f"{self.seed}/{state.name}/{sender}/{sorted(state.queue)}")
        if rng.random() < 0.5:
            state.wake = state.memory.get("acted", 0) + rng.randint(-2, 8)


class OddWaker(RandomSleeper):
    """Also sets `wake` to a round not after the next one, or past any
    horizon, so that only an injection or a heard message wakes the node."""

    def on_round(self, state: NodeState, round_no: int):
        action = super().on_round(state, round_no)
        rng = random.Random(f"{self.seed}/{state.name}/{round_no}/odd")
        roll = rng.random()
        if roll < 0.15:
            state.wake = rng.randint(0, round_no + 1)
        elif roll < 0.2:
            state.wake = 10**6
        return action


def _reference_run(net, algorithm, trace, horizon) -> Metrics:
    """engine.run's contract as a plain loop: wake by injection and by
    hearing, call every node with wake <= r, apply the full `step`, and
    rescan every queue for the round's metrics."""
    states = {v: NodeState(v, net.n) for v in net.nodes()}
    metrics = Metrics(max_queue_per_node={v: 0 for v in net.nodes()})
    for r in range(1, horizon + 1):
        for f in trace.injections:
            if f.injection_round == r:
                states[f.source].queue[f.id] = QueuedTour(f, 0)
                states[f.source].wake = 0
                metrics.injected_total += 1
        actions = {v: algorithm.on_round(s, r) if s.wake <= r else LISTEN
                   for v, s in states.items()}
        for v, out in step(net, actions).items():
            if not isinstance(out, Heard):
                continue
            states[v].wake = 0
            algorithm.on_hear(states[v], out.sender, out.message)
            f, p = out.message.tour, out.message.progress
            if f is None or f.path[p + 1] != v:
                continue
            del states[out.sender].queue[f.id]
            if p + 1 == f.length:
                latency = r - f.injection_round
                metrics.deliveries.append(
                    Delivery(f.id, f.injection_round, r, latency, f.length))
            else:
                states[v].queue[f.id] = QueuedTour(f, p + 1)
        queued = [qt for s in states.values() for qt in s.queue.values()]
        metrics.backlog.append(len(queued))
        metrics.undelivered_hops.append(
            sum(qt.tour.length - qt.progress for qt in queued))
        metrics.max_queue_per_round.append(
            max(len(s.queue) for s in states.values()))
        for v, s in states.items():
            metrics.max_queue_per_node[v] = max(metrics.max_queue_per_node[v],
                                                len(s.queue))
    return metrics


def _check_against_reference(sleeper, seed):
    rng = random.Random(seed)
    net = make_random_connected(rng.randint(2, 12), rng.uniform(0.1, 0.6),
                                rng.randrange(10**9))
    horizon, count = 80, rng.randint(5, 40)
    tours = []
    while len(tours) < count:
        path = random_simple_path(net, rng, 4)
        if len(path) >= 2:
            tours.append(Tour(len(tours) + 1, rng.randint(1, horizon), path))
    trace = InjectionTrace(tuple(tours), horizon)
    got = run(net, sleeper(seed), trace, horizon)
    want = _reference_run(net, sleeper(seed), trace, horizon)
    assert got.rounds_csv() == want.rounds_csv()
    assert got.deliveries == want.deliveries  # in order: node order per round
    assert got.deliveries_csv() == want.deliveries_csv()
    assert got.max_queue_per_node == want.max_queue_per_node
    assert got.injected_total == want.injected_total == len(tours)
    assert got.delivered_total > 0


@pytest.mark.parametrize("seed", range(8))
def test_run_matches_reference_simulator(seed):
    _check_against_reference(RandomSleeper, seed)


@pytest.mark.parametrize("sleeper", [HearingSleeper, OddWaker],
                         ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("seed", range(8))
def test_run_matches_reference_simulator_with_odd_wakes(sleeper, seed):
    _check_against_reference(sleeper, seed)
