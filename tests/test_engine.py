from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiosim import (COLLISION, LISTEN, SILENCE, AdversaryType, EngineError,
                      GossipConfig, Heard, InjectionTrace, Message, Metrics,
                      NodeState, RoundRobin, RoutingAlgorithm, Tour, TourError,
                      compute_window_bound, engine, gen_balanced,
                      gen_unbalanced_clique, make_clique, make_path,
                      make_random_connected, run, run_ogf, step)
from radiosim.engine import Delivery
from conftest import MALFORMED_TOURS, all_connected_networks, random_simple_path


def _tx(payload=None):
    return Message(control=payload)


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


def test_hearers_of_one_transmitter_share_one_heard():
    net = make_clique(4)
    msg = _tx("m")
    outcome = step(net, {1: msg, 2: LISTEN, 3: LISTEN, 4: LISTEN})
    heard = outcome[2]
    assert heard == Heard(1, msg) and heard.message is msg
    assert outcome[3] is heard and outcome[4] is heard


def test_transmitters_with_disjoint_hearers_give_two_heards():
    # path 1-..-6: node 2 is heard by 1 and 3, node 5 by 4 and 6
    net = make_path(6)
    a, b = _tx("a"), _tx("b")
    outcome = step(net, {1: LISTEN, 2: a, 3: LISTEN, 4: LISTEN, 5: b, 6: LISTEN})
    assert outcome[1] is outcome[3] and outcome[1] == Heard(2, a)
    assert outcome[4] is outcome[6] and outcome[4] == Heard(5, b)
    assert outcome[1] is not outcome[4]


def test_step_builds_the_same_heard_value_as_its_constructor():
    """`step` builds a `Heard` through its slot descriptors; the result is
    the value `Heard(v, a)` builds: same type, equality, hash and repr, no
    `__dict__`, and frozen."""
    net = make_path(3)
    msg = _tx("m")
    built = step(net, {2: msg})[1]
    want = Heard(2, msg)
    assert type(built) is Heard
    assert built == want and hash(built) == hash(want) and repr(built) == repr(want)
    assert not hasattr(built, "__dict__")
    for name in ("sender", "message"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, name, getattr(built, name))


@pytest.mark.parametrize("seed", range(4))
def test_step_builds_one_heard_per_heard_transmitter(seed):
    """Over seeded random action maps, the distinct `Heard` objects of an
    outcome are one per transmitter that some listening neighbor hears
    alone, whatever the number of its hearers."""
    rng = random.Random(seed)
    for _ in range(50):
        n = rng.randint(2, 12)
        net = make_random_connected(n, rng.choice([0.2, 0.5, 1.0]), rng.randrange(10**6))
        actions = {v: _tx() for v in net.nodes() if rng.random() < 0.3}
        outcome = step(net, actions)
        heard = set()  # the transmitters some listener hears alone
        for v in net.nodes():
            senders = net.neighbors(v) & actions.keys()
            if v not in actions and len(senders) == 1:
                heard |= senders
        distinct = {id(out) for out in outcome.values() if isinstance(out, Heard)}
        assert len(distinct) == len(heard)


def test_absent_node_listens():
    msg = _tx()
    outcome = step(make_path(2), {1: msg})
    assert outcome == {1: SILENCE, 2: Heard(1, msg)}


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
    ({2: LISTEN, 7: LISTEN}, r"actions for unknown nodes \[7\]"),
    ({2: "y", 1: "x"}, "node 1: invalid action 'x'"),
    ({2: LISTEN, 1: LISTEN, 7: LISTEN, 5: LISTEN},
     r"actions for unknown nodes \[5, 7\]"),
], ids=["invalid-action", "invalid-before-unknown",
        "absent-and-unknown", "invalid-in-node-order", "unknown-sorted"])
def test_malformed_actions_report_first_error_in_node_order(actions, message):
    """A malformed action map is reported as a scan in node order meets it,
    whatever the map's own order: the first node with an invalid action,
    else the unknown nodes."""
    with pytest.raises(EngineError, match=f"^{message}$"):
        step(make_path(2), actions)


def test_hearing_rule_exhaustive_small():
    """step matches a direct statement of the hearing rule on every labeled
    connected network with up to 5 nodes and every transmitter subset; the
    outcome is in node order, and each transmitter's hearers share one
    `Heard`."""
    for n in (1, 2, 3, 4, 5):
        for net in all_connected_networks(n):
            nodes = list(net.nodes())
            for tx_bits in range(1 << n):
                transmitters = {nodes[i] for i in range(n) if tx_bits >> i & 1}
                actions = {v: _tx(f"m{v}") if v in transmitters else LISTEN
                           for v in nodes}
                outcome = step(net, actions)
                assert list(outcome) == nodes
                assert step(net, {v: actions[v] for v in transmitters}) == outcome
                heards = {}  # sender -> the ids of its hearers' Heards
                for out in outcome.values():
                    if isinstance(out, Heard):
                        heards.setdefault(out.sender, set()).add(id(out))
                assert all(len(ids) == 1 for ids in heards.values())
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


def test_each_outcome_is_a_fresh_dict():
    """step copies the network's all-silence outcome on every call, so a
    caller that mutates one outcome changes no later one."""
    net = make_path(3)
    msg = _tx("m")
    first = step(net, {1: msg})
    first[2] = COLLISION
    first[3] = Heard(1, msg)
    first[9] = SILENCE
    assert step(net, {}) == {1: SILENCE, 2: SILENCE, 3: SILENCE}
    second = step(net, {1: msg})
    assert second is not first
    assert list(second.items()) == [(1, SILENCE), (2, Heard(1, msg)), (3, SILENCE)]
    second.clear()
    assert list(step(net, {3: msg})) == [1, 2, 3]


def test_observer_mutating_the_silent_outcome_changes_no_run():
    """An observer that overwrites the outcome that silent rounds share
    leaves every later `step` call, and so the run's metrics, unchanged."""
    net = make_path(4)
    trace = InjectionTrace(tuple(Tour(i, i, (1, 2, 3, 4)) for i in range(1, 4)), 3)

    def scribble(r, sending, outcome):
        if not sending:
            for v in outcome:
                outcome[v] = COLLISION

    plain = run(net, RoundRobin(), trace, 40)
    scribbled = run(net, RoundRobin(), trace, 40, observer=scribble)
    assert plain.deliveries and scribbled == plain


def _direct_outcome(net, actions) -> dict:
    """The hearing rule stated node by node: a transmitter gets SILENCE, a
    listener hears its one transmitting neighbor, collides with two or
    more, and gets SILENCE with none."""
    outcome = {}
    for v in net.nodes():
        heard_from = [u for u in sorted(net.neighbors(v)) if actions[u] is not LISTEN]
        if actions[v] is not LISTEN or not heard_from:
            outcome[v] = SILENCE
        elif len(heard_from) == 1:
            outcome[v] = Heard(heard_from[0], actions[heard_from[0]])
        else:
            outcome[v] = COLLISION
    return outcome


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(n=st.integers(5, 10), p=st.sampled_from([0.0, 0.2, 0.4, 0.7, 1.0]),
       topology_seed=st.integers(0, 10**6), data=st.data())
def test_step_matches_direct_rule_on_random_networks(n, p, topology_seed, data):
    """step gives the direct rule's outcome on random 5-10 node networks,
    all hearers of one transmitter share one `Heard`, and no `Heard` is
    shared by two transmitters, also when their messages are equal."""
    net = make_random_connected(n, p, topology_seed)
    transmitters = data.draw(st.sets(st.integers(1, n)))
    equal = data.draw(st.booleans())  # every transmitter sends Message()
    actions = {v: (_tx(None if equal else f"m{v}") if v in transmitters
                   else LISTEN) for v in net.nodes()}
    outcome = step(net, actions)
    assert list(outcome) == list(net.nodes())
    assert step(net, {v: actions[v] for v in transmitters}) == outcome
    expected = _direct_outcome(net, actions)
    for v in net.nodes():
        out = outcome[v]
        assert out == expected[v], v
        if isinstance(out, Heard):
            assert out.message is actions[out.sender]
    heards = [out for out in outcome.values() if isinstance(out, Heard)]
    by_sender = {}
    for h in heards:
        by_sender.setdefault(h.sender, set()).add(id(h))
    assert all(len(ids) == 1 for ids in by_sender.values())
    assert len({id(h) for h in heards}) == len(by_sender)


# ---------------------------------------------------------------- run


class TransmitWhatYouHold(RoutingAlgorithm):
    """Transmits the sole queued tour every round (single-tour scenarios)."""

    def on_round(self, state: NodeState, round_no: int):
        if state.queue:
            return Message(tour=next(iter(state.queue.values())))
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
    # a run of no rounds is allowed, and records none
    metrics = run(net, RoundRobin(), InjectionTrace((), 0), 0)
    assert metrics.backlog == [] and metrics.max_queue == 0


def test_always_listen_never_delivers():
    net = make_path(3)
    trace = InjectionTrace((Tour(1, 1, (1, 2)),), 1)
    metrics = run(net, RoutingAlgorithm(), trace, 20)
    assert not metrics.deliveries
    assert metrics.final_backlog() == 1


@pytest.mark.parametrize("tour, match", MALFORMED_TOURS)
def test_run_rejects_malformed_tour(tour, match):
    with pytest.raises(TourError, match=match):
        run(make_path(4), RoutingAlgorithm(), InjectionTrace((tour,), 1), 5)


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
            for f in state.queue.values():
                positions.append((round_no, f.path.index(state.name)))
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
                return Message(tour=ghost)
            return LISTEN

    with pytest.raises(EngineError, match="not resident"):
        run(net, Cheater(), InjectionTrace((), 0), 3)


def test_transmitting_a_different_tour_under_a_queued_id_rejected():
    """A sent tour must be the queued one, not another tour with its id:
    on K3, node 1 holds tour 1 to node 2 and sends a tour 1 to node 3."""
    net = make_clique(3)
    queued, impostor = Tour(1, 1, (1, 2)), Tour(1, 1, (1, 3))

    class Impostor(RoutingAlgorithm):
        def on_round(self, state, round_no):
            if state.queue:
                return Message(tour=impostor)
            return LISTEN

    with pytest.raises(EngineError, match="^node 1 round 1: transmitted tour 1 "
                                          "is not resident here$"):
        run(net, Impostor(), InjectionTrace((queued,), 1), 3)


def test_observer_and_on_hear_see_the_shared_heard():
    net = make_clique(4)
    msg = _tx("m")
    heard, outcomes = [], []

    class Announce(RoutingAlgorithm):
        def on_round(self, state, round_no):
            return msg if state.name == 1 else LISTEN

        def on_hear(self, state, sender, message):
            heard.append((state.name, sender, message))

    run(net, Announce(), InjectionTrace((), 0), 1,
        observer=lambda r, sending, outcome: outcomes.append((sending, outcome)))
    [(sending, outcome)] = outcomes
    assert sending == {1: msg}
    assert outcome[2] == Heard(1, msg)
    assert outcome[3] is outcome[2] and outcome[4] is outcome[2]
    assert heard == [(2, 1, msg), (3, 1, msg), (4, 1, msg)]
    assert all(message is msg for _, _, message in heard)


def _observe_every_run(monkeypatch, watch):
    """Make each `engine.run` call, `run_ogf`'s included, also pass every
    round to `watch(net, sending, outcome)`, before the caller's observer."""
    original_run = engine.run

    def observed_run(net, algorithm, trace, horizon, observer=None):
        def both(r, sending, outcome):
            watch(net, sending, outcome)
            if observer is not None:
                observer(r, sending, outcome)
        return original_run(net, algorithm, trace, horizon, observer=both)

    monkeypatch.setattr(engine, "run", observed_run)


@pytest.mark.parametrize("scenario", ["round-robin", "ogf-strict"])
def test_run_gives_step_only_the_rounds_transmissions(monkeypatch, scenario):
    """`run` calls `step` once in each round with a transmitter, with the
    round's transmissions alone: every value is a `Message`, and the keys
    are the senders that the observer sees.  A silent round makes no call,
    and its outcome maps every node, in node order, to SILENCE."""
    calls, rounds = [], []  # `step` calls since the last round; each round
    original_step = engine.step

    def recording_step(net, actions):
        calls.append(dict(actions))
        return original_step(net, actions)

    def record(net, sending, outcome):
        rounds.append((dict(sending), list(outcome.items()), calls[:]))
        calls.clear()

    monkeypatch.setattr(engine, "step", recording_step)
    _observe_every_run(monkeypatch, record)
    if scenario == "round-robin":
        net = make_clique(5)
        tours = tuple(Tour(i, i, (i % 5 + 1, (i + 1) % 5 + 1)) for i in range(1, 8))
        engine.run(net, RoundRobin(), InjectionTrace(tours, 10), 60)
    else:
        net, adv = make_path(4), AdversaryType.parse("1/8:1:2")
        trace = gen_balanced(net, AdversaryType.parse("1/16:1:2"), 11, 120)
        run_ogf(net, adv, GossipConfig.tdma(), trace, 120)
    assert not calls
    silence = [(v, SILENCE) for v in net.nodes()]
    assert any(sending for sending, _, _ in rounds)
    assert not all(sending for sending, _, _ in rounds)
    for sending, outcome, passed in rounds:
        if sending:
            assert passed == [sending]
            assert all(isinstance(a, Message) for a in sending.values())
        else:
            assert passed == []
            assert outcome == silence  # a token equals only itself


def _assert_outcome_is_the_hearing_rule(net, sending, outcome):
    """`outcome` equals `step(net, sending)` node for node, in node order;
    a `Heard` must name the same sender and carry the very same message."""
    expected = step(net, sending)
    assert list(outcome) == list(expected) == list(net.nodes())
    for v, want in expected.items():
        got = outcome[v]
        if isinstance(want, Heard):
            assert isinstance(got, Heard), (v, got, want)
            assert got.sender == want.sender and got.message is want.message
        else:
            assert got is want, (v, got, want)


@pytest.mark.parametrize("scenario", ["ogf-sparse-oracle", "round-robin"])
def test_every_rounds_outcome_is_the_hearing_rule(monkeypatch, scenario):
    """In every round, silent or not, the observer's outcome is what the
    hearing rule gives for that round's transmissions."""
    rounds = []

    def check(net, sending, outcome):
        rounds.append(bool(sending))
        _assert_outcome_is_the_hearing_rule(net, sending, outcome)

    _observe_every_run(monkeypatch, check)
    if scenario == "round-robin":
        net, rng, tours = make_random_connected(12, 0.3, 5), random.Random(5), []
        while len(tours) < 30:
            path = random_simple_path(net, rng, 3)
            if len(path) >= 2:
                tours.append(Tour(len(tours) + 1, rng.randint(1, 150), path))
        engine.run(net, RoundRobin(), InjectionTrace(tuple(tours), 200), 200)
    else:
        net = make_random_connected(40, 0.05, 17)
        adv, gossip = AdversaryType.parse("1/8:1:2"), GossipConfig.oracle(40)
        horizon = 3 * compute_window_bound(adv, gossip.rounds(net.n))
        trace = gen_balanced(net, AdversaryType.parse("1/16:1:2"), 3, horizon)
        run_ogf(net, adv, gossip, trace, horizon)
    assert True in rounds and False in rounds


@pytest.mark.parametrize("tour", [Tour(9, 1, (2, 3)), Tour(9, 1, (2, 1))],
                         ids=["off-path", "at-its-end"])
def test_sending_a_tour_that_does_not_pass_through_the_sender_rejected(tour):
    """On K3, node 1 queues a tour whose path does not pass through it short
    of its end and sends it in the same round: the engine raises its own
    error, not the path lookup's ValueError or IndexError."""
    net = make_clique(3)

    class OffPath(RoutingAlgorithm):
        def on_round(self, state, round_no):
            if state.name != 1:
                return LISTEN
            state.queue[tour.id] = tour
            return Message(tour=tour)

    with pytest.raises(EngineError, match="^node 1 round 1: transmitted tour 9 "
                                          "does not pass through it short of "
                                          "its end$"):
        run(net, OffPath(), InjectionTrace((), 0), 3)


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
    from `on_hear` when node 2 transmits then; under "on_hear-asleep" node 1
    sleeps for good after round 1, so it drops the tour while asleep."""

    def __init__(self, hook: str):
        self.hook = hook

    def on_round(self, state, round_no):
        state.wake = round_no + 1 + (round_no % 2 == 0)
        if self.hook == "on_hear-asleep" and state.name == 1:
            state.wake = math.inf
        if round_no == 4 and self.hook == "on_round" and state.name == 1:
            del state.queue[next(iter(state.queue))]
        if round_no == 4 and self.hook != "on_round" and state.name == 2:
            return _tx()
        return LISTEN

    def on_hear(self, state, sender, message):
        if self.hook != "on_round" and state.name == 1:
            del state.queue[next(iter(state.queue))]


@pytest.mark.parametrize("hook", ["on_round", "on_hear", "on_hear-asleep"])
def test_callback_that_drops_a_tour_breaks_conservation(hook):
    """A node that changes its own queue from a callback is caught by the
    conservation check in that round, also after it slept, and also while
    it sleeps and hears without changing `wake`."""
    trace = InjectionTrace((Tour(1, 1, (1, 2)), Tour(2, 2, (3, 2))), 2)
    rounds = []
    with pytest.raises(EngineError, match="^conservation violated"):
        run(make_path(3), Dropper(hook), trace, 10,
            observer=lambda r, sending, outcome: rounds.append(r))
    assert rounds[-1] == 4


class Script(RoutingAlgorithm):
    """Node 2 sleeps until woken after each call; the others act in every
    round and send what `sends` gives for (round, node).  `calls` and
    `heard` record the rounds of node 2's calls and what it hears."""

    def __init__(self, sends):
        self.sends = sends
        self.calls: list[int] = []
        self.heard: list[Message] = []

    def on_round(self, state, round_no):
        if state.name == 2:
            self.calls.append(round_no)
            state.wake = math.inf
        return self.sends.get((round_no, state.name), LISTEN)

    def on_hear(self, state, sender, message):
        if state.name == 2:
            self.heard.append(message)


def test_sleeping_node_wakes_when_a_tour_joins_its_queue_not_when_it_hears():
    """On the path 1-2-3-4, node 2 sleeps through a control message from
    node 1, a tour that node 3 sends to node 4 and a tour that node 1
    delivers to it; a tour that node 1 forwards into its queue in round 6
    wakes it for round 7."""
    to_2, to_4, via_2 = Tour(1, 1, (1, 2)), Tour(2, 1, (3, 4)), Tour(3, 1, (1, 2, 3))
    sends = {(2, 1): _tx("hello"), (3, 3): Message(tour=to_4),
             (4, 1): Message(tour=to_2), (6, 1): Message(tour=via_2)}
    alg = Script(sends)
    metrics = run(make_path(4), alg, InjectionTrace((to_2, to_4, via_2), 1), 10)
    assert alg.heard == [sends[k] for k in sorted(sends)]
    assert alg.calls == [1, 7]
    assert [(d.tour_id, d.delivered) for d in metrics.deliveries] == [(2, 3), (1, 4)]
    assert metrics.final_backlog() == 1  # tour 3, which node 2 never sends


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
    message or nothing.  `calls` records each call as (round, node)."""

    def __init__(self, seed: int):
        self.seed = seed
        self.calls: list[tuple[int, int]] = []

    def on_round(self, state: NodeState, round_no: int):
        self.calls.append((round_no, state.name))
        rng = random.Random(f"{self.seed}/{state.name}/{round_no}")
        if rng.random() < 0.4:
            state.wake = round_no + rng.randint(1, 6)
        roll = rng.random()
        if roll < 0.5 and state.queue:
            return Message(tour=state.queue[rng.choice(sorted(state.queue))])
        if roll < 0.6:
            return Message(control=state.name)
        return LISTEN


class HearingSleeper(RandomSleeper):
    """Also sets `wake` from `on_hear`, relative to the last round the node
    acted in: a round already past, or one to sleep to, which an arriving
    tour then overrides."""

    def on_round(self, state: NodeState, round_no: int):
        state.memory["acted"] = round_no
        return super().on_round(state, round_no)

    def on_hear(self, state: NodeState, sender: int, message: Message) -> None:
        rng = random.Random(f"{self.seed}/{state.name}/{sender}/{sorted(state.queue)}")
        if rng.random() < 0.5:
            state.wake = state.memory.get("acted", 0) + rng.randint(-2, 8)


class OddWaker(RandomSleeper):
    """Also sets `wake` to a round not after the next one, or past any
    horizon, so that only an injection or an arriving tour wakes the node."""

    def on_round(self, state: NodeState, round_no: int):
        action = super().on_round(state, round_no)
        rng = random.Random(f"{self.seed}/{state.name}/{round_no}/odd")
        roll = rng.random()
        if roll < 0.15:
            state.wake = rng.randint(0, round_no + 1)
        elif roll < 0.2:
            state.wake = 10**6
        return action


class FarSleeper(RandomSleeper):
    """Also sleeps to round `far` in some rounds and after some heard
    messages, so that such a node acts again only after an injection or
    an arriving tour."""

    def __init__(self, seed: int, far):
        super().__init__(seed)
        self.far = far

    def on_round(self, state: NodeState, round_no: int):
        action = super().on_round(state, round_no)
        if random.Random(f"{self.seed}/{state.name}/{round_no}/far").random() < 0.3:
            state.wake = self.far
        return action

    def on_hear(self, state: NodeState, sender: int, message: Message) -> None:
        rng = random.Random(f"{self.seed}/{state.name}/{sender}/{sorted(state.queue)}")
        if rng.random() < 0.5:
            state.wake = self.far


def _reference_run(net, algorithm, trace, horizon) -> tuple[Metrics, dict[int, int]]:
    """engine.run's contract as a plain loop: wake a node when a tour is
    injected at it or queued there, call every node with wake <= r, apply
    the full `step`, and rescan every queue for the round's metrics.  It
    keeps each queued tour's path index itself, instead of deriving it from
    the holder, and records a missed hop from the next hop's outcome.  Also
    returns each node's largest end-of-round queue."""
    states = {v: NodeState(v, net.n) for v in net.nodes()}
    position: dict[int, int] = {}  # tour id -> index of its holder on its path
    metrics = Metrics()
    peaks = dict.fromkeys(states, 0)
    for r in range(1, horizon + 1):
        for f in trace.injections:
            if f.injection_round == r:
                states[f.source].queue[f.id] = f
                position[f.id] = 0
                states[f.source].wake = 0
                metrics.injected_total += 1
        actions = {v: algorithm.on_round(s, r) if s.wake <= r else LISTEN
                   for v, s in states.items()}
        # each sent tour's index on its path when sent: a broadcast tour may
        # move before its later hearers are served
        sent_from = {a.tour.id: position[a.tour.id] for a in actions.values()
                     if a is not LISTEN and a.tour is not None}
        outcome = step(net, actions)
        for v, a in actions.items():
            if a is not LISTEN and a.tour is not None:
                nxt = a.tour.path[sent_from[a.tour.id] + 1]
                if not (isinstance(outcome[nxt], Heard) and outcome[nxt].sender == v):
                    metrics.missed_hops.append((r, v, a.tour, nxt, outcome[nxt]))
        for v, out in outcome.items():
            if not isinstance(out, Heard):
                continue
            algorithm.on_hear(states[v], out.sender, out.message)
            f = out.message.tour
            if f is None:
                continue
            p = sent_from[f.id]
            assert f.path[p] == out.sender
            if f.path[p + 1] != v:
                continue
            del states[out.sender].queue[f.id]
            position[f.id] = p + 1
            if p + 1 == f.length:
                latency = r - f.injection_round
                metrics.deliveries.append(
                    Delivery(f.id, f.injection_round, r, latency, f.length))
            else:
                states[v].queue[f.id] = f
                states[v].wake = 0
        queued = [f for s in states.values() for f in s.queue.values()]
        metrics.backlog.append(len(queued))
        metrics.undelivered_hops.append(
            sum(f.length - position[f.id] for f in queued))
        metrics.max_queue_per_round.append(
            max(len(s.queue) for s in states.values()))
        for v, s in states.items():
            peaks[v] = max(peaks[v], len(s.queue))
    return metrics, peaks


def _random_instance(seed):
    """A seeded random network and trace of 5 to 40 tours over 80 rounds."""
    rng = random.Random(seed)
    net = make_random_connected(rng.randint(2, 12), rng.uniform(0.1, 0.6),
                                rng.randrange(10**9))
    horizon, count = 80, rng.randint(5, 40)
    tours = []
    while len(tours) < count:
        path = random_simple_path(net, rng, 4)
        if len(path) >= 2:
            tours.append(Tour(len(tours) + 1, rng.randint(1, horizon), path))
    return net, InjectionTrace(tuple(tours), horizon), horizon


def _check_against_reference(sleeper, seed):
    net, trace, horizon = _random_instance(seed)
    tours = trace.injections
    got_alg, want_alg = sleeper(seed), sleeper(seed)
    got = run(net, got_alg, trace, horizon)
    want, peaks = _reference_run(net, want_alg, trace, horizon)
    # each awake node once per round, in node order
    assert got_alg.calls == want_alg.calls
    assert got.rounds_csv() == want.rounds_csv()
    assert got.deliveries == want.deliveries  # in order: node order per round
    assert got.deliveries_csv() == want.deliveries_csv()
    assert got.max_queue == max(peaks.values())
    assert got.injected_total == want.injected_total == len(tours)
    assert got.delivered_total > 0
    assert got.missed_hops == want.missed_hops
    return got.missed_hops


@pytest.mark.parametrize("seed", range(8))
def test_run_matches_reference_simulator(seed):
    _check_against_reference(RandomSleeper, seed)


def test_reference_runs_record_missed_hops():
    """The seeded runs send tours that their next hops miss, by collision
    or because the next hop transmits, so the record is compared on them."""
    missed = [out for seed in range(8)
              for _, _, _, _, out in _check_against_reference(RandomSleeper, seed)]
    assert COLLISION in missed and SILENCE in missed


@pytest.mark.parametrize("seed", range(4))
def test_sleeping_past_the_horizon_is_sleeping_to_just_after_it(seed):
    net, trace, horizon = _random_instance(seed)
    runs = []
    for far in (math.inf, 10**6, horizon + 1):
        alg = FarSleeper(seed, far)
        runs.append((run(net, alg, trace, horizon), alg.calls))
    assert runs[0] == runs[1] == runs[2]
    _check_against_reference(lambda s: FarSleeper(s, math.inf), seed)


@pytest.mark.parametrize("sleeper", [HearingSleeper, OddWaker],
                         ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("seed", range(8))
def test_run_matches_reference_simulator_with_odd_wakes(sleeper, seed):
    _check_against_reference(sleeper, seed)


@pytest.mark.parametrize("seed", range(4))
def test_observer_sees_every_round_and_idle_ones_share_the_silent_outcome(seed):
    """A round in which no node acts still reaches the observer, with an
    empty sending map and the outcome that every silent round shares."""
    net, trace, horizon = _random_instance(seed)
    alg = FarSleeper(seed, math.inf)
    seen = []
    run(net, alg, trace, horizon,
        observer=lambda r, sending, outcome: seen.append((r, sending, outcome)))
    assert [r for r, _, _ in seen] == list(range(1, horizon + 1))
    acted = {r for r, _ in alg.calls}
    idle = [(sending, outcome) for r, sending, outcome in seen if r not in acted]
    assert idle
    silent = idle[0][1]
    assert silent == dict.fromkeys(net.nodes(), SILENCE)
    for sending, outcome in idle:
        assert sending == {} and outcome is silent


# ---------------------------------------------------------------- round-robin


class ScanningRoundRobin(RoutingAlgorithm):
    """Round-robin as a plain scan, which never sleeps: the slot's node
    sends the least queued tour by (injection round, id).  `reordered`
    counts the sends whose tour was not the first in its queue, and
    `empty_slots` the slots that found an empty queue."""

    def __init__(self):
        self.reordered = self.empty_slots = 0

    def on_round(self, state: NodeState, round_no: int):
        if state.name != (round_no % state.n) + 1:
            return LISTEN
        if not state.queue:
            self.empty_slots += 1
            return LISTEN
        f = min(state.queue.values(), key=lambda f: (f.injection_round, f.id))
        self.reordered += f is not next(iter(state.queue.values()))
        return Message(tour=f)


class CallLog(RoundRobin):
    """RoundRobin that records each call as (node, round)."""

    def __init__(self):
        self.calls: list[tuple[int, int]] = []

    def on_round(self, state: NodeState, round_no: int):
        self.calls.append((state.name, round_no))
        return super().on_round(state, round_no)


def _saturation(seed):
    """C3's K6 trace at 1/2:1:3, t = 2, horizon 2,000, its nodes relabelled
    by the seeded shuffle of the saturation benchmark."""
    horizon = 2000
    net, trace = gen_unbalanced_clique(AdversaryType(Fraction(1, 2), 1, 3), 6, 2, horizon)
    names = list(net.nodes())
    random.Random(seed).shuffle(names)
    relabel = dict(zip(net.nodes(), names))
    tours = tuple(Tour(f.id, f.injection_round, tuple(relabel[v] for v in f.path))
                  for f in trace.injections)
    return net, InjectionTrace(tours, horizon), horizon


def _round_robin_instance(seed):
    """A seeded random network on 3 to 12 nodes and tours of up to 4 links,
    injected in two bursts with idle rounds between and after them, so that
    arrivals interleave with injections and slots find empty queues."""
    rng = random.Random(seed)
    net = make_random_connected(rng.randint(3, 12), rng.uniform(0.1, 0.6),
                                rng.randrange(10**9))
    horizon = 240
    rounds = list(range(1, 41)) + list(range(121, 161))
    tours = []
    for _ in range(rng.randint(10, 40)):
        path = random_simple_path(net, rng, 4)
        if len(path) >= 2:
            tours.append(Tour(len(tours) + 1, rng.choice(rounds), path))
    return net, InjectionTrace(tuple(tours), horizon), horizon


def _same_run(net, trace, horizon) -> ScanningRoundRobin:
    scan = ScanningRoundRobin()
    got, want = run(net, RoundRobin(), trace, horizon), run(net, scan, trace, horizon)
    assert got.rounds_csv() == want.rounds_csv()
    assert got.deliveries_csv() == want.deliveries_csv()
    assert got.max_queue == want.max_queue
    return scan


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_round_robin_matches_the_scan_on_the_saturation_trace(seed):
    scan = _same_run(*_saturation(seed))
    assert scan.reordered > 0


def test_round_robin_matches_the_scan_on_random_networks():
    reordered = empty_slots = 0
    for seed in range(60):
        scan = _same_run(*_round_robin_instance(seed))
        reordered += scan.reordered
        empty_slots += scan.empty_slots
    # the sorted order is tested, and so is the sleep of an empty slot
    assert reordered > 0 and empty_slots > 0


def _check_round_robin_calls(net, trace, horizon) -> tuple[int, int]:
    """Every call after round 1, where each node starts awake, falls in the
    node's slot, or in a round in which a tour was injected at it or in the
    round after one joined its queue.  Returns the numbers of calls and
    sends."""
    joined = {(f.source, f.injection_round) for f in trace.injections}
    sends = 0

    def observer(r, sending, outcome):
        nonlocal sends
        for v, message in sending.items():
            path = message.tour.path
            nxt = path[path.index(v) + 1]
            if nxt != path[-1]:
                joined.add((nxt, r + 1))
            sends += 1

    alg = CallLog()
    run(net, alg, trace, horizon, observer=observer)
    stray = [(v, r) for v, r in alg.calls
             if r > 1 and r % net.n != v - 1 and (v, r) not in joined]
    assert not stray
    return len(alg.calls), sends


@pytest.mark.parametrize("seed", range(10))
def test_round_robin_acts_only_in_its_slot_or_after_a_tour_joins(seed):
    _check_round_robin_calls(*_round_robin_instance(seed))


def test_round_robin_call_count_on_the_saturation_trace():
    """One call per node and slot would be 2,000; the rest follow tours
    that joined a queue.  The scan makes 12,000 calls for the same sends."""
    assert _check_round_robin_calls(*_saturation(1)) == (3392, 1996)
