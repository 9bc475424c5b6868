from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest

from radiosim import (LISTEN, AdversaryType, Coloring, GossipConfig,
                      InjectionTrace, Message, NodeState, OgfError, Tour,
                      TourError, WindowOverflowError, build_network,
                      compute_window_bound, gen_balanced,
                      gen_unbalanced_clique, make_clique, make_path,
                      make_random_connected, plan_window, run, run_ogf,
                      tdma_gossip)
from radiosim import engine, ogf
from conftest import MALFORMED_TOURS, all_connected_networks, spider_burst


def _adv(num, den, b, L):
    return AdversaryType(Fraction(num, den), b, L)


def _derated(adv: AdversaryType, scale=Fraction(1, 2)) -> AdversaryType:
    """A weaker generation type: its traces stay admissible for `adv` (load
    budgets are monotone in the type) while keeping realized conflict-graph
    degrees within the window budget on sparse topologies."""
    return AdversaryType(adv.rho * scale, adv.b, adv.L)


# ---------------------------------------------------------------- u


def test_window_bound_values():
    assert compute_window_bound(_adv(1, 4, 2, 2), 100) == 208
    assert compute_window_bound(AdversaryType(Fraction(0), 1, 1), 10) == 11
    assert compute_window_bound(_adv(1, 8, 1, 2), 12) == 19


def test_window_bound_rejects_critical_and_unbalanced():
    with pytest.raises(OgfError, match="undefined"):
        compute_window_bound(_adv(1, 3, 1, 3), 10)
    with pytest.raises(OgfError, match="undefined"):
        compute_window_bound(_adv(1, 2, 1, 3), 10)


def test_window_bound_satisfies_feasibility_inequality():
    rng = random.Random(3)
    for _ in range(100):
        L = rng.randint(1, 4)
        adv = AdversaryType(Fraction(rng.randint(1, 3), 4 * L),
                            rng.randint(1, 4), L)
        s_n = rng.randint(1, 400)
        u = compute_window_bound(adv, s_n)
        assert s_n + (adv.rho * u + adv.b) * adv.L <= u
        # u is the least such integer
        assert s_n + (adv.rho * (u - 1) + adv.b) * adv.L > u - 1


# ---------------------------------------------------------------- gossip


def _tdma_transmitters(n):
    """The nodes that `gossip_action` lets transmit at each of the S(n)
    phase-1 offsets, when every node holds one unsent rumor there."""
    def transmits(v, offset):
        state = NodeState(v, n, memory={"rumors": {v: None}})
        return ogf.gossip_action(state, offset) is not LISTEN

    return [[v for v in range(1, n + 1) if transmits(v, offset)]
            for offset in range(GossipConfig.tdma().rounds(n))]


def test_tdma_schedule_two_nodes():
    assert _tdma_transmitters(2) == [[1], [2]]


def test_tdma_schedule_one_node_is_empty():
    # one node knows everything already: S(1) = 0 rounds
    assert _tdma_transmitters(1) == [] and GossipConfig.tdma().rounds(1) == 0
    assert tdma_gossip(build_network(1, []), {1: {1: None}}) == {1: {1: None}}


def test_tdma_schedule_length_and_sweeps():
    # n-1 = 4 sweeps of nodes 1..5, one transmitter per round
    assert _tdma_transmitters(5) == [[v] for v in range(1, 6)] * 4


def test_gossip_complete_on_every_small_connected_network():
    for n in (2, 3, 4, 5):
        for net in all_connected_networks(n):
            knowledge = tdma_gossip(net, {v: {v: None} for v in net.nodes()})
            assert all(knowledge[v].keys() == set(net.nodes()) for v in net.nodes())


@pytest.mark.parametrize("n", range(2, 8))
def test_gossip_on_a_clique_sends_only_news(monkeypatch, n):
    # sweep 1: every node sends what it holds; sweep 2: nodes 1..n-1 send
    # what they heard after their own send; then no node has news.  So
    # 2n - 1 of the n(n-1) slots transmit (both slots at n = 2)
    sends = []
    step = engine.step

    def counted(net, actions):
        sends.extend(actions)
        return step(net, actions)

    monkeypatch.setattr(engine, "step", counted)
    net = make_clique(n)
    knowledge = tdma_gossip(net, {v: {v: None} for v in net.nodes()})
    assert len(sends) == min(2 * n - 1, n * (n - 1))
    assert sends[:n] == list(range(1, n + 1))
    assert all(knowledge[v].keys() == set(net.nodes()) for v in net.nodes())


def test_gossip_payload_is_a_snapshot_that_hearers_only_read():
    t1, t2 = Tour(1, 1, (1, 2)), Tour(2, 1, (1, 3))
    sender = NodeState(1, 3, memory={"rumors": {1: (t1, 0)}})
    message = ogf.gossip_action(sender, 0)
    sender.memory["rumors"][2] = (t2, 0)
    assert message.control == {1: (t1, 0)}
    hearers = [NodeState(v, 3, memory={"rumors": {}}) for v in (2, 3)]
    for state in hearers:
        ogf.merge_gossip(state, message)
    hearers[0].memory["rumors"][2] = (t2, 0)
    assert message.control == {1: (t1, 0)}
    assert hearers[1].memory["rumors"] == {1: (t1, 0)}


def test_merge_gossip_accepts_pair_payloads():
    t1, t2 = Tour(1, 1, (1, 2)), Tour(2, 1, (3, 2))
    state = NodeState(2, 3, memory={"rumors": {1: t1}})
    ogf.merge_gossip(state, _rumors((t2, 0)))
    assert state.memory["rumors"] == {1: t1, 2: t2}


def test_gossip_payload_holds_the_rumors_learned_since_the_last_send():
    # n = 4: node 2 transmits at offsets 1, 5 and 9
    t1, t2, t3 = Tour(1, 1, (1, 2)), Tour(2, 1, (2, 3)), Tour(3, 1, (3, 2))
    sender = NodeState(2, 4, memory={"rumors": {2: t2}})
    assert ogf.gossip_action(sender, 1).control == {2: t2}
    ogf.merge_gossip(sender, Message(control={1: t1, 2: t2}))
    ogf.merge_gossip(sender, Message(control={3: t3}))
    assert ogf.gossip_action(sender, 5).control == {1: t1, 3: t3}
    # nothing learned since: the node listens in its offset
    assert ogf.gossip_action(sender, 9) is LISTEN
    assert sender.memory["rumors"] == {2: t2, 1: t1, 3: t3}
    assert sender.memory["sent"] == 3


def test_each_window_gossips_its_snapshot_from_the_start():
    # node 1 sends its old tour at offset 0 of window 2, listens at offset n
    # with nothing new, and sends it again at offset 0 of window 3, whose
    # snapshot starts a new rumor dict; a node holding the tour further on
    # snapshots the tour that remains from there
    net = make_path(3)
    s_n = GossipConfig.tdma().rounds(net.n)
    w = s_n + 4
    alg = ogf.OldGoFirst(net, w, GossipConfig.tdma())
    f = Tour(7, 1, (1, 2, 3))
    state = NodeState(1, net.n, queue={7: f})
    assert alg.on_round(state, w + 1).control == {7: f}
    assert alg.on_round(state, w + 1 + net.n) is LISTEN
    assert alg.on_round(state, 2 * w + 1).control == {7: f}
    carried = NodeState(2, net.n, queue={7: f})
    alg.on_round(carried, w + 1)
    assert carried.memory["rumors"] == {7: Tour(7, 1, (2, 3))}


def _full_payload_gossip(net, rumors):
    """Reference TDMA phase 1: in offset o node (o mod n) + 1 sends a copy
    of its whole rumor dict, and every neighbor merges it."""
    knowledge = {v: dict(rumors[v]) for v in net.nodes()}
    for offset in range(net.n * (net.n - 1)):
        payload = dict(knowledge[offset % net.n + 1])
        for v in net.neighbors(offset % net.n + 1):
            knowledge[v].update(payload)
    return knowledge


def test_delta_gossip_matches_full_payloads_on_every_small_network():
    # several rumors per node, some nodes with none, some ids held by two
    # nodes (with the one rumor an id names)
    rng = random.Random(19)
    for n in (1, 2, 3, 4, 5):
        for net in all_connected_networks(n):
            rumors = {v: {} for v in net.nodes()}
            for tid in rng.sample(range(1, 100), rng.randint(1, 2 * n)):
                holders = min(n, rng.choice((1, 1, 2)))
                for v in rng.sample(sorted(net.nodes()), holders):
                    rumors[v][tid] = f"rumor {tid}"
            got = tdma_gossip(net, rumors)
            want = _full_payload_gossip(net, rumors)
            assert {v: list(d.items()) for v, d in got.items()} == \
                {v: list(d.items()) for v, d in want.items()}
            assert all(got[v].keys() == set().union(*rumors.values())
                       for v in net.nodes())


def test_gossip_config_validation():
    with pytest.raises(OgfError, match="S_n"):
        GossipConfig.oracle(0)
    with pytest.raises(OgfError, match="gossip mode"):
        GossipConfig("flood")
    with pytest.raises(OgfError, match="tdma gossip takes no S_n"):
        GossipConfig("tdma", 5)
    assert GossipConfig.tdma().rounds(6) == 30
    assert GossipConfig.oracle(7).rounds(6) == 7
    assert GossipConfig.oracle(1).rounds(6) == 1


# ---------------------------------------------------------------- planning


def test_plan_window_empty(ring4):
    plan = plan_window(ring4, [])
    assert plan.l_prime == 0 and plan.delta == 0 and plan.phase2_length == 0


def test_plan_window_ring4(ring4, ring4_tours):
    plan = plan_window(ring4, list(ring4_tours.values()))
    assert plan.delta == 3
    assert plan.coloring.num_colors <= 4
    assert plan.l_prime == 1


def test_plan_window_single_long_tour():
    net = make_path(4)
    plan = plan_window(net, [Tour(1, 1, (1, 2, 3, 4))])
    assert plan.l_prime == 3 and plan.delta == 0
    assert plan.coloring.num_colors == 1 and plan.phase2_length == 3


def _state_with(net, node, tours):
    """Node `node` holding `tours`, each of which passes through it short of
    its destination."""
    state = NodeState(name=node, n=net.n)
    for f in tours:
        assert node in f.path[:-1]
        state.queue[f.id] = f
    return state


def _rumors(*placed):
    """A phase-1 message placing each (tour, path index) pair: its rumor is
    the tour that remains from that index."""
    return Message(control=tuple((f.id, Tour(f.id, f.injection_round, f.path[p:]))
                                 for f, p in placed))


def _phase2_actions(net, state, heard, offsets):
    """Old-Go-First's actions for `state` at phase-2 offsets of window 2,
    under TDMA gossip and w = S(n) + 8: the node snapshots its queue at the
    window's start, hears the rumors `heard` ((tour, path index) pairs) in
    phase 1, and plans at offset 0."""
    s_n = GossipConfig.tdma().rounds(net.n)
    w = s_n + 8
    alg = ogf.OldGoFirst(net, w, GossipConfig.tdma())
    alg.on_round(state, w + 1)
    alg.on_hear(state, 0, _rumors(*heard))
    return [alg.on_round(state, w + 1 + s_n + o) for o in offsets]


def test_phase2_action_transmits_matching_color():
    net = make_path(4)
    tour = Tour(5, 1, (2, 3, 4))
    state = _state_with(net, 2, [tour])
    # delta 0: super-rounds are single rounds; color 1 transmits at offset 0
    [action] = _phase2_actions(net, state, [], [0])
    assert action == Message(tour=tour)


def test_phase2_action_listens_on_color_mismatch(ring4, ring4_tours):
    f4 = ring4_tours["f4"]  # color 3 under ascending-id greedy
    state = _state_with(ring4, 1, [f4])
    others = [(f, 0) for f in ring4_tours.values() if f is not f4]
    actions = _phase2_actions(ring4, state, others, [0, 1, 2])
    assert state.memory["plan"].coloring.assignment[4] == 3
    # color-1 and color-2 rounds, then f4's
    assert actions == [LISTEN, LISTEN, Message(tour=f4)]


def test_phase2_action_ignores_unplanned_tours():
    net = make_path(4)
    old = Tour(1, 1, (1, 2))
    new = Tour(2, 25, (3, 4))  # injected after window 2 starts
    state = _state_with(net, 3, [new])
    assert _phase2_actions(net, state, [(old, 0)], [0]) == [LISTEN]
    assert state.memory["plan"].coloring.assignment == {1: 1}


def test_phase2_action_detects_same_color_co_residency():
    net = make_path(6)
    # node 1 holds both tours, but a rumor places tour 2 at node 5: its
    # remaining link 5->6 is far from 1->2, so the two share color 1, and
    # no node can legally hold two tours of one color
    t1, t2 = Tour(1, 1, (1, 2)), Tour(2, 1, (1, 2, 3, 4, 5, 6))
    state = _state_with(net, 1, [t1, t2])
    with pytest.raises(ogf.GuaranteeError, match="residency"):
        _phase2_actions(net, state, [(t2, 4)], [0])
    assert state.memory["plan"].coloring.assignment == {1: 1, 2: 1}


@pytest.mark.parametrize("round_no", [73, 75],
                         ids=["phase2-third-color", "after-phase2"])
def test_on_round_checks_residency_in_every_plan_round(round_no):
    # window 2 starts at round 41; tdma phase 1 takes 30 rounds, then the
    # colors 1..4 get rounds 71..74 and rounds 75..80 listen
    net = make_path(6)
    t1, t2, t3, t4 = (Tour(1, 1, (1, 2)), Tour(2, 1, (1, 2, 3, 4, 5, 6)),
                      Tour(3, 1, (1, 2, 3)), Tour(4, 1, (1, 2, 3, 4)))
    # node 1 holds all four, but rumors place the remaining paths of tours
    # 2, 3 and 4 at 5->6, 2->3 and 3->4; tours 1 and 2 then share color 1,
    # so they cannot co-reside legally
    state = _state_with(net, 1, [t1, t2, t3, t4])
    alg = ogf.OldGoFirst(net, 40, GossipConfig.tdma())
    alg.on_round(state, 41)
    alg.on_hear(state, 2, _rumors((t2, 4), (t3, 1), (t4, 2)))
    with pytest.raises(ogf.GuaranteeError, match="resident"):
        alg.on_round(state, round_no)
    assert state.memory["plan"].coloring.assignment == {1: 1, 2: 1, 3: 2, 4: 3}


def test_arrival_sharing_a_resident_color_raises_at_next_round():
    # on the path 6-1-2-3-4-5, node 1 holds tour 1 and learns by gossip that
    # tour 2 sits at node 4, with 4->5 left, far from 1->2: both get color
    # 1.  Tour 2's path runs through node 1, and it then arrives there,
    # which cannot happen legally, after the plan round.  Window 2 starts
    # at round 41; tdma phase 1 takes 30 rounds, and color 1 sends in 71
    net = build_network(6, [(6, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    t1, t2 = Tour(1, 1, (1, 2)), Tour(2, 1, (6, 1, 2, 3, 4, 5))
    state = _state_with(net, 1, [t1])
    alg = ogf.OldGoFirst(net, 40, GossipConfig.tdma())
    alg.on_round(state, 41)
    alg.on_hear(state, 2, _rumors((t2, 4)))
    assert alg.on_round(state, 71) == Message(tour=t1)
    assert state.memory["plan"].coloring.assignment == {1: 1, 2: 1}
    # the engine passes the message to on_hear, then queues the tour
    alg.on_hear(state, 6, Message(tour=t2))
    state.queue[2] = t2
    with pytest.raises(ogf.GuaranteeError, match=(
            "^node 1: tours 1 and 2 both resident with color 1; "
            "per-color residency invariant violated$")):
        alg.on_round(state, 72)


def test_node_whose_last_old_tour_left_sleeps_to_window_end():
    # window 2 starts at round 21; tdma phase 1 takes 12 rounds, then the
    # colors 1..2 get rounds 33..34
    net = make_path(4)
    t1, t2 = Tour(1, 1, (1, 2)), Tour(2, 1, (1, 2, 3))
    state = _state_with(net, 1, [t1, t2])
    alg = ogf.OldGoFirst(net, 20, GossipConfig.tdma())
    alg.on_round(state, 21)
    assert alg.on_round(state, 33) == Message(tour=t1)
    assert state.wake == 34
    del state.queue[1]  # heard by its next hop
    assert alg.on_round(state, 34) == Message(tour=t2)
    assert state.memory["resident"] == {2: t2}
    assert state.wake == 41


def _k3_holder_of_colors_1_and_3(w):
    """Node 1 of K3 in window 2 under TDMA gossip (S(n) = 6), holding tours
    1 and 3 while a rumor places tour 2 at node 2.  All three conflict, so
    they take colors 1, 2 and 3 and phase 2 has 3 rounds.  Returns the
    algorithm, the state and the tours after the plan round's call."""
    net = make_clique(3)
    t1, t2, t3 = Tour(1, 1, (1, 2)), Tour(2, 1, (2, 3)), Tour(3, 1, (1, 3))
    state = _state_with(net, 1, [t1, t3])
    alg = ogf.OldGoFirst(net, w, GossipConfig.tdma())
    alg.on_round(state, w + 1)
    alg.on_hear(state, 2, _rumors((t2, 0)))
    assert alg.on_round(state, w + 7) == Message(tour=t1)
    assert state.memory["plan"].coloring.assignment == {1: 1, 2: 2, 3: 3}
    return alg, state, (t1, t2, t3)


def test_holder_sleeps_from_one_color_round_to_its_next():
    # window 2 is rounds 15..28 and plans at 21: color 1 sends in 21, color
    # 2 (held elsewhere) in 22 and color 3 in 23
    alg, state, (t1, _, t3) = _k3_holder_of_colors_1_and_3(14)
    assert state.wake == 23
    del state.queue[1]  # heard by its next hop
    assert alg.on_round(state, 23) == Message(tour=t3)
    # its last old tour leaves now, so it sleeps to the window's end
    assert state.memory["resident"] == {3: t3}
    assert state.wake == 29


def test_holder_whose_next_color_lies_past_the_window_sleeps_to_its_end():
    # w = S(n) + 1 truncates phase 2 to color 1's round (round 14 of window
    # 2, rounds 8..14); color 3's would be round 16, past the window
    alg, state, _ = _k3_holder_of_colors_1_and_3(7)
    assert alg.window_log[-1].truncated
    assert state.wake == 15


def test_sleeping_tdma_node_hearing_rumors_keeps_its_transmit_wake():
    # window 2 starts at round 21 and plans at round 33; node 3 owns
    # phase-1 offsets 2, 6 and 10.  With no rumor it sleeps to the plan
    # round; a new rumor brings back its next slot, and once that rumor is
    # sent, hearing it again leaves the node asleep to the plan round
    net = make_path(4)
    t = Tour(1, 1, (1, 2))
    state = _state_with(net, 3, [])
    alg = ogf.OldGoFirst(net, 20, GossipConfig.tdma())
    assert alg.on_round(state, 21) is LISTEN
    assert state.wake == 33
    alg.on_hear(state, 2, _rumors((t, 0)))
    assert state.wake == 23
    assert state.memory["rumors"] == {1: t}
    assert alg.on_round(state, 23) == Message(control={1: t})
    assert state.wake == 33
    alg.on_hear(state, 2, _rumors((t, 0)))
    assert state.wake == 33


def test_non_holder_overhearing_a_tour_keeps_its_window_end_wake():
    # node 1 hears tour 1 go 2->3 in color round 33 of window 2 (21..40)
    net = make_path(4)
    t = Tour(1, 1, (2, 3))
    state = _state_with(net, 1, [])
    alg = ogf.OldGoFirst(net, 20, GossipConfig.tdma())
    alg.on_round(state, 21)
    alg.on_hear(state, 2, _rumors((t, 0)))
    assert alg.on_round(state, 33) is LISTEN
    assert state.wake == 41
    alg.on_hear(state, 2, Message(tour=t))
    assert state.wake == 41
    assert state.memory["moved"] == []


def test_next_hop_of_a_heard_tour_wakes_and_makes_it_resident(monkeypatch):
    # node 2 hears tour 1 go 1->2 in color round 33 of window 2 (21..40),
    # then forwards it in round 34.  on_hear only notes the tour as moved;
    # the wake comes from engine.run, which queues the tour
    net = make_path(4)
    t = Tour(1, 1, (1, 2, 3))
    state = _state_with(net, 2, [])
    alg = ogf.OldGoFirst(net, 20, GossipConfig.tdma())
    alg.on_round(state, 21)
    alg.on_hear(state, 1, _rumors((t, 0)))
    assert alg.on_round(state, 33) is LISTEN
    assert state.wake == 41
    alg.on_hear(state, 1, Message(tour=t))
    assert state.wake == 41
    assert state.memory["moved"] == [1]
    state.queue[1] = t  # the engine queues it after on_hear
    assert alg.on_round(state, 34) == Message(tour=t)
    assert state.memory["resident"] == {1: t}
    calls = _probed(monkeypatch, ogf.OldGoFirst)
    metrics = run(net, ogf.OldGoFirst(net, 20, GossipConfig.tdma()),
                  InjectionTrace((t,), 1), 40)
    assert [r for r, v in calls if v == 2 and r >= 33] == [33, 34]
    assert [(d.tour_id, d.delivered) for d in metrics.deliveries] == [(1, 34)]


def test_queue_bound_accepts_its_floor_and_rejects_one_tour_above(monkeypatch):
    net = make_path(4)
    adv = _adv(1, 8, 1, 2)
    w = compute_window_bound(adv, 12)
    bound = 2 * adv.rho * w + adv.b
    assert bound != math.floor(bound)
    sizes = [math.floor(bound)]
    monkeypatch.setattr(ogf.engine, "run", lambda *args, **kwargs:
                        engine.Metrics(max_queue_per_round=list(sizes)))
    run_ogf(net, adv, GossipConfig.tdma(), InjectionTrace((), 0), 1)
    sizes.append(math.floor(bound) + 1)
    with pytest.raises(ogf.GuaranteeError, match="round 2: .* exceeds bound"):
        run_ogf(net, adv, GossipConfig.tdma(), InjectionTrace((), 0), 2)


@pytest.mark.parametrize("adv, window", [
    (_adv(1, 8, 1, 2), None), (_adv(1, 8, 1, 2), 40), (_adv(1, 4, 2, 2), None),
    (_adv(3, 10, 3, 3), 500), (_adv(1, 3, 1, 1), None), (_adv(2, 7, 4, 1), 101),
])
def test_strict_run_raises_at_the_first_round_above_the_queue_bound(
        monkeypatch, adv, window):
    # the bound is floor(2*rho*w + b), in integer arithmetic here; the
    # engine's record meets it in round 2 and exceeds it first in round 4
    w = window or compute_window_bound(adv, 12)
    p, q = adv.rho.numerator, adv.rho.denominator
    bound = (2 * p * w + adv.b * q) // q
    assert bound == math.floor(2 * adv.rho * w + adv.b)
    sizes = [0, bound, bound - 1, bound + 1, bound + 1]
    monkeypatch.setattr(ogf.engine, "run", lambda *args, **kwargs:
                        engine.Metrics(max_queue_per_round=list(sizes)))
    net = make_path(4)
    res = run_ogf(net, adv, GossipConfig.tdma(), InjectionTrace((), 0), 5,
                  window_override=window, strict=False)
    assert res.w == w and res.metrics.max_queue == bound + 1
    with pytest.raises(ogf.GuaranteeError) as exc:
        run_ogf(net, adv, GossipConfig.tdma(), InjectionTrace((), 0), 5,
                window_override=window)
    assert str(exc.value) == f"round 4: largest queue {bound + 1} exceeds bound {bound}"


def test_strict_run_passes_a_trace_that_meets_the_queue_bound():
    # path 1-2-3 under TDMA at 1/8:1:2, u = 11, so floor(2*rho*u + b) = 3.
    # Tours 1 and 2 reach node 2 in window 2's first super-round, in rounds
    # 18 and 19, and tour 3 is injected there in round 19
    adv = _adv(1, 8, 1, 2)
    trace = InjectionTrace((Tour(1, 4, (1, 2, 3)), Tour(2, 11, (1, 2, 3)),
                            Tour(3, 19, (2, 1))), 19)
    res = run_ogf(make_path(3), adv, GossipConfig.tdma(), trace, 44)
    assert res.u == res.w == 11
    assert res.metrics.max_queue == 3 == math.floor(2 * adv.rho * res.w + adv.b)
    assert res.metrics.max_queue_per_round.index(3) + 1 == 19
    assert res.metrics.delivered_total == 3


def _recorded(monkeypatch, metrics):
    """Strict and lenient run_ogf on path 4 under TDMA at 1/8:1:2, w = u,
    judging `metrics` as the engine's record of the run."""
    monkeypatch.setattr(ogf.engine, "run", lambda *args, **kwargs: metrics)
    adv = _adv(1, 8, 1, 2)
    w = compute_window_bound(adv, 12)

    def judge(trace, horizon, strict=True):
        return run_ogf(make_path(4), adv, GossipConfig.tdma(), trace, horizon,
                       window_override=None if strict else w, strict=strict)
    return w, judge


def test_latency_bound_accepts_2w_and_rejects_one_round_more(monkeypatch):
    metrics = engine.Metrics()
    w, judge = _recorded(monkeypatch, metrics)
    metrics.deliveries.append(engine.Delivery(5, 1, 1 + 2 * w, 2 * w, 1))
    judge(InjectionTrace((), 0), 1)
    metrics.deliveries.append(engine.Delivery(6, 2, 3 + 2 * w, 2 * w + 1, 1))
    with pytest.raises(ogf.GuaranteeError) as exc:
        judge(InjectionTrace((), 0), 1)
    assert str(exc.value) == f"tour 6: latency {2 * w + 1} exceeds 2w = {2 * w}"


def test_undelivered_tour_passes_at_2w_old_and_raises_one_round_later(monkeypatch):
    w, judge = _recorded(monkeypatch, engine.Metrics())
    trace = InjectionTrace((Tour(3, 2, (1, 2, 3)),), 2)
    judge(trace, 2 + 2 * w)
    with pytest.raises(ogf.GuaranteeError) as exc:
        judge(trace, 3 + 2 * w)
    assert str(exc.value) == (f"tour 3: undelivered at horizon {3 + 2 * w}, "
                              f"over 2w = {2 * w} rounds after injection")
    # a delivered tour is not undelivered, however old it is at the horizon
    w, judge = _recorded(monkeypatch, engine.Metrics(
        deliveries=[engine.Delivery(3, 2, 4, 2, 2)]))
    judge(trace, 3 + 2 * w)


def test_latency_is_judged_before_age_and_the_queue_bound(monkeypatch):
    # the record breaks the queue bound, tour 3 is overdue, and then tour 6
    # is late as well: each error names the earliest broken check
    metrics = engine.Metrics(max_queue_per_round=[100])
    w, judge = _recorded(monkeypatch, metrics)
    with pytest.raises(ogf.GuaranteeError, match="exceeds bound"):
        judge(InjectionTrace((), 0), 1)
    trace = InjectionTrace((Tour(3, 1, (1, 2, 3)),), 1)
    with pytest.raises(ogf.GuaranteeError, match="^tour 3: undelivered"):
        judge(trace, 2 + 2 * w)
    metrics.deliveries.append(engine.Delivery(6, 1, 2 + 2 * w, 2 * w + 1, 1))
    with pytest.raises(ogf.GuaranteeError, match="^tour 6: latency"):
        judge(trace, 2 + 2 * w)


def test_lenient_run_judges_neither_latency_nor_age(monkeypatch):
    metrics = engine.Metrics(max_queue_per_round=[100])
    w, judge = _recorded(monkeypatch, metrics)
    metrics.deliveries.append(engine.Delivery(5, 1, 2 + 2 * w, 2 * w + 1, 1))
    trace = InjectionTrace((Tour(3, 1, (1, 2, 3)),), 1)
    res = judge(trace, 2 + 4 * w, strict=False)
    assert res.w == w and res.metrics.max_latency == 2 * w + 1


# ---------------------------------------------------------------- runs


def test_single_tour_delivered_in_second_window():
    adv = _adv(1, 8, 1, 2)
    net = make_path(4)
    trace = InjectionTrace((Tour(1, 1, (1, 2, 3)),), 1)
    res = run_ogf(net, adv, GossipConfig.tdma(), trace, 80)
    assert res.u == 19 and res.w == 19 and res.s_n == 12
    (d,) = res.metrics.deliveries
    # window 2 starts at round 20; gossip ends at 31; one hop per
    # single-round super-round lands it at round 33
    assert d.delivered == res.w + res.s_n + 2
    assert d.latency <= 2 * res.u


def test_interleaved_super_round_progress_exact_rounds():
    # path 1-2-3, two identical-path tours injected in round 1: they share
    # nodes, so they get colors 1 and 2 and super-rounds have 2 rounds.
    # u = ceil((6 + 4) / (3/4)) = 14; window 2 starts at round 15, phase 2
    # at round 21.  Tour 1 hops in color-1 rounds 21 and 23, tour 2 in
    # color-2 rounds 22 and 24: one hop per super-round each.
    adv = _adv(1, 8, 2, 2)
    net = make_path(3)
    trace = InjectionTrace((Tour(1, 1, (1, 2, 3)), Tour(2, 1, (1, 2, 3))), 1)
    res = run_ogf(net, adv, GossipConfig.tdma(), trace, 60)
    assert res.u == 14 and res.s_n == 6
    delivered = {d.tour_id: d.delivered for d in res.metrics.deliveries}
    assert delivered == {1: 23, 2: 24}


def test_empty_trace_runs_idle():
    adv = _adv(1, 8, 1, 2)
    net = make_path(4)
    res = run_ogf(net, adv, GossipConfig.tdma(), InjectionTrace((), 0), 60)
    assert res.metrics.delivered_total == 0
    assert all(w.old_count == 0 for w in res.windows)


def test_latency_bound_holds_small_matrix():
    rng = random.Random(41)
    configs = [
        (make_path(4), _adv(1, 8, 1, 2), GossipConfig.tdma()),
        (make_clique(4), _adv(1, 4, 2, 1), GossipConfig.tdma()),
        (make_random_connected(5, 0.4, 7), _adv(1, 6, 1, 3),
         GossipConfig.oracle(10)),
    ]
    for net, adv, gossip in configs:
        u = compute_window_bound(adv, gossip.rounds(net.n))
        horizon = 6 * u
        trace = gen_balanced(net, _derated(adv), rng.randrange(10**6), horizon)
        res = run_ogf(net, adv, gossip, trace, horizon)
        assert res.invariant_checks > 0
        for d in res.metrics.deliveries:
            assert d.latency <= 2 * u
        delivered = {d.tour_id for d in res.metrics.deliveries}
        for f in trace.injections:
            if f.id not in delivered:
                assert horizon - f.injection_round <= 2 * u


def test_oracle_and_tdma_agree_on_deliveries():
    # same trace, same S_n: oracle idles through phase 1 but must produce
    # the identical delivery schedule and window plans
    adv = _adv(1, 8, 1, 2)
    for net, seed, horizon in [(make_path(4), 11, 120),
                               (make_random_connected(6, 0.4, 3), 3, 260)]:
        trace = gen_balanced(net, _derated(adv), seed, horizon)
        tdma = run_ogf(net, adv, GossipConfig.tdma(), trace, horizon)
        oracle = run_ogf(net, adv, GossipConfig.oracle(tdma.s_n), trace, horizon)
        assert tdma.metrics.deliveries == oracle.metrics.deliveries
        assert tdma.windows == oracle.windows
    # on the random network some window's old tours start at several nodes,
    # so the oracle's knowledge is the union of more than one snapshot
    sources = {}
    for f in trace.injections:
        sources.setdefault((f.injection_round - 1) // tdma.w, set()).add(f.source)
    assert max(map(len, sources.values())) > 1


def test_rejects_unbalanced_without_override():
    net = make_clique(4)
    with pytest.raises(OgfError, match="balanced"):
        run_ogf(net, _adv(1, 2, 1, 3), GossipConfig.tdma(),
                InjectionTrace((), 0), 10)
    # lenient mode runs an unbalanced type, but only in a window it is given
    with pytest.raises(OgfError, match="window override is required"):
        run_ogf(net, _adv(1, 2, 1, 3), GossipConfig.tdma(),
                InjectionTrace((), 0), 10, strict=False)


def test_rejects_inadmissible_trace():
    net = make_clique(4)
    adv = _adv(1, 8, 1, 1)
    burst = tuple(Tour(i, 1, (1, 2)) for i in (1, 2, 3))
    with pytest.raises(OgfError, match="admissible"):
        run_ogf(net, adv, GossipConfig.tdma(), InjectionTrace(burst, 5), 10)


def test_window_too_small_for_gossip_rejected():
    net = make_path(4)
    adv = _adv(1, 8, 1, 2)
    with pytest.raises(OgfError, match="no room"):
        run_ogf(net, adv, GossipConfig.tdma(), InjectionTrace((), 0), 10,
                window_override=12)


def test_admissible_burst_can_overflow_window_strict_raises():
    net, adv, trace = spider_burst()
    from radiosim import verify_admissible
    assert verify_admissible(net, trace, adv) is None
    with pytest.raises(WindowOverflowError, match="window 2"):
        run_ogf(net, adv, GossipConfig.tdma(), trace, 300)


def test_overflowed_window_lenient_still_delivers():
    net, adv, trace = spider_burst()
    res = run_ogf(net, adv, GossipConfig.tdma(), trace, 400, strict=False)
    assert res.metrics.delivered_total == 5
    assert any(w.truncated for w in res.windows)


@pytest.mark.parametrize("tour, match", MALFORMED_TOURS)
def test_lenient_run_rejects_malformed_tour(tour, match):
    with pytest.raises(TourError, match=match):
        run_ogf(make_path(4), _adv(1, 8, 1, 2), GossipConfig.tdma(),
                InjectionTrace((tour,), 1), 10, strict=False)


def test_guarantee_error_is_exported():
    import radiosim
    assert issubclass(radiosim.WindowOverflowError, radiosim.GuaranteeError)
    assert radiosim.GuaranteeError is ogf.GuaranteeError


def test_lenient_carryover_preserves_soundness_under_saturation():
    from radiosim import gen_unbalanced_clique
    adv = _adv(1, 2, 1, 3)
    net, trace = gen_unbalanced_clique(adv, 6, 2, 400)
    res = run_ogf(net, adv, GossipConfig.tdma(), trace, 400,
                  window_override=60, strict=False)
    # backlog grows, old sets carry over, and every phase-2 transmission
    # is still heard (the soundness observer would have raised otherwise)
    old_counts = [w.old_count for w in res.windows]
    assert old_counts[-1] > old_counts[1]
    assert res.metrics.final_backlog() > 0


@pytest.mark.parametrize("kwargs, round_no", [
    ({}, 14), ({"strict": False, "window_override": 40}, 46)])
def test_soundness_observer_raises_on_a_phase2_collision(monkeypatch, kwargs,
                                                         round_no):
    # one color for two tours that both end at node 2: they collide there
    monkeypatch.setattr(ogf, "greedy_color",
                        lambda cg: Coloring(dict.fromkeys(cg.vertices, 1), 1))
    trace = InjectionTrace((Tour(1, 1, (1, 2)), Tour(2, 1, (3, 2))), 1)
    with pytest.raises(ogf.GuaranteeError, match=re.escape(
            f"round {round_no}: tour 1 transmitted by node 1 was not heard "
            f"by its next hop 2 (COLLISION)")):
        run_ogf(make_path(3), _adv(1, 8, 2, 1), GossipConfig.oracle(5), trace,
                200, **kwargs)


# ---------------------------------------------------------------- window record


# each window's (old_count, l_prime, delta, phase2_length, truncated)
STRICT_RANDOM6_WINDOWS = [(0, 0, 0, 0, False), (4, 2, 2, 6, False),
                          (3, 2, 2, 6, False), (3, 2, 2, 6, False),
                          (4, 2, 3, 8, False), (3, 2, 2, 6, False)]
SATURATED_K6_WINDOWS = [(0, 0, 0, 0, False), (31, 3, 30, 93, True),
                        (61, 3, 60, 183, True), (91, 3, 90, 273, True),
                        (91, 3, 90, 273, True), (121, 3, 120, 363, True),
                        (151, 3, 150, 453, True)]


@pytest.mark.parametrize("case", ["strict-tdma", "lenient-tdma", "lenient-oracle"])
def test_each_window_is_planned_once(monkeypatch, case):
    calls = []

    def counted(net, old_tours):
        calls.append(len(old_tours))
        return plan_window(net, old_tours)

    monkeypatch.setattr(ogf, "plan_window", counted)
    if case == "strict-tdma":
        adv = _adv(1, 8, 1, 2)
        net = make_random_connected(6, 0.4, 3)
        trace = gen_balanced(net, _derated(adv), 3, 260)
        res = run_ogf(net, adv, GossipConfig.tdma(), trace, 260)
        expected = STRICT_RANDOM6_WINDOWS
    else:
        adv = _adv(1, 2, 1, 3)
        net, trace = gen_unbalanced_clique(adv, 6, 2, 400)
        config = GossipConfig.tdma() if case == "lenient-tdma" else GossipConfig.oracle(30)
        res = run_ogf(net, adv, config, trace, 400, window_override=60, strict=False)
        expected = SATURATED_K6_WINDOWS
    assert res.windows == [ogf.WindowStats(i, *w) for i, w in enumerate(expected, 1)]
    # one plan per window, each from that window's old tours
    assert calls == [w.old_count for w in res.windows]


def _planned_alone(alg, states):
    """Snapshot each hand-built TDMA node at window 2's start and plan it at
    the window's plan round, with no gossip between them."""
    start = alg.w + 1
    for round_no in (start, start + alg.s_n):
        for state in states:
            alg.on_round(state, round_no)


def test_nodes_with_different_rumors_plan_from_their_own():
    net = make_path(4)
    alg = ogf.OldGoFirst(net, 20, GossipConfig.tdma())
    t1, t2 = Tour(1, 1, (1, 2, 3)), Tour(2, 1, (3, 4))
    states = [_state_with(net, 1, [t1]), _state_with(net, 3, [t2])]
    _planned_alone(alg, states)
    assert states[0].memory["plan"] == plan_window(net, [t1])
    assert states[1].memory["plan"] == plan_window(net, [t2])
    assert [w.l_prime for w in alg.window_log] == [2, 1]


def test_node_planning_alone_logs_its_window():
    net = make_path(4)
    alg = ogf.OldGoFirst(net, 20, GossipConfig.tdma())
    _planned_alone(alg, [_state_with(net, 2, [Tour(1, 1, (2, 3, 4))])])
    assert alg.window_log == [ogf.WindowStats(2, 1, 2, 0, 2, False)]


# ---------------------------------------------------------------- sleeping


class NeverSleeps(ogf.OldGoFirst):
    """Old-Go-First with sleeping undone: every node acts in every round."""

    def on_round(self, state, round_no):
        action = super().on_round(state, round_no)
        state.wake = 0
        return action

    def on_hear(self, state, sender, message):
        super().on_hear(state, sender, message)
        state.wake = 0


def _probed(monkeypatch, cls):
    """Make `ogf.OldGoFirst`, which run_ogf builds, a `cls` that records the
    (round, node) of each on_round call in the list returned."""
    calls = []

    class Probe(cls):
        def on_round(self, state, round_no):
            calls.append((round_no, state.name))
            return super().on_round(state, round_no)

    monkeypatch.setattr(ogf, "OldGoFirst", Probe)
    return calls


def _sleeping_and_awake(monkeypatch, *args, **kwargs):
    """run_ogf's outputs, or its GuaranteeError, for the real class and for
    NeverSleeps, with each one's number of on_round calls."""
    results = []
    for cls in (ogf.OldGoFirst, NeverSleeps):
        calls = _probed(monkeypatch, cls)
        try:
            res = run_ogf(*args, **kwargs)
            out = (res.metrics.rounds_csv(), res.metrics.deliveries_csv(),
                   res.metrics.max_queue, res.windows)
        except ogf.GuaranteeError as exc:
            out = (type(exc), str(exc))
        results.append((out, len(calls)))
    return results


@pytest.mark.parametrize("config, net", [
    pytest.param(GossipConfig.tdma(), make_random_connected(6, 0.4, 3), id="tdma"),
    pytest.param(GossipConfig.oracle(30), make_random_connected(6, 0.4, 3),
                 id="oracle"),
    # every node overhears every transmission
    pytest.param(GossipConfig.tdma(), make_clique(6), id="tdma-clique6"),
    # most nodes hold no tour at most window starts
    pytest.param(GossipConfig.oracle(40), make_random_connected(40, 0.05, 3),
                 id="oracle-random40"),
])
def test_sleeping_matches_never_sleeping_strict(monkeypatch, config, net):
    adv = _adv(1, 8, 1, 2)
    trace = gen_balanced(net, _derated(adv), 3, 260)
    (sleeping, sleeping_calls), (awake, awake_calls) = _sleeping_and_awake(
        monkeypatch, net, adv, config, trace, 260)
    assert sleeping == awake
    assert sleeping[1].count("\n") > 1  # some tour was delivered
    assert sleeping_calls < awake_calls == net.n * 260


@pytest.mark.parametrize("gossip, calls", [
    pytest.param("tdma", 182, id="tdma"),
    pytest.param("oracle", 95, id="oracle"),
])
def test_on_round_calls_of_sleeping_nodes_are_pinned(monkeypatch, gossip, calls):
    """Who wakes when, as a count: a change to the engine's wake-up or to
    Old-Go-First's sleep rule shows here even where outputs stay the same."""
    adv = _adv(1, 8, 1, 2)
    net = make_random_connected(6, 0.4, 3)
    s_n = GossipConfig.tdma().rounds(net.n)
    config = GossipConfig.tdma() if gossip == "tdma" else GossipConfig.oracle(s_n)
    trace = gen_balanced(net, _derated(adv), 3, 260)
    probe = _probed(monkeypatch, ogf.OldGoFirst)
    run_ogf(net, adv, config, trace, 260)
    assert len(probe) == calls


@pytest.mark.parametrize("gossip", ["tdma", "oracle"])
def test_sleeping_matches_never_sleeping_lenient(monkeypatch, gossip):
    # saturated K6: phase 2 is truncated and old tours carry over, so
    # nodes stay awake holding old tours across window boundaries
    adv = _adv(1, 2, 1, 3)
    net, trace = gen_unbalanced_clique(adv, 6, 2, 400)
    config = GossipConfig.tdma() if gossip == "tdma" else GossipConfig.oracle(30)
    (sleeping, sleeping_calls), (awake, awake_calls) = _sleeping_and_awake(
        monkeypatch, net, adv, config, trace, 400, window_override=60,
        strict=False)
    assert sleeping == awake
    assert any(w.truncated for w in sleeping[3])
    assert sleeping_calls < awake_calls


@pytest.mark.parametrize("gossip", ["tdma", "oracle"])
def test_sleeping_matches_never_sleeping_on_overflow(monkeypatch, gossip):
    net, adv, trace = spider_burst()
    config = GossipConfig.tdma() if gossip == "tdma" else GossipConfig.oracle(90)
    (sleeping, _), (awake, _) = _sleeping_and_awake(
        monkeypatch, net, adv, config, trace, 300)
    assert sleeping == awake
    assert sleeping[0] is WindowOverflowError and "window 2" in sleeping[1]


def _oracle_path4_run(monkeypatch, cls):
    """Oracle `cls` on the path 1-2-3-4 (w = 20, S(n) = 12) for 60 rounds:
    node 2 sends its own tour 1 in round 33 of window 2, then tour 2
    reaches it from node 1 in round 53 of window 3.  Returns the metrics,
    the window log and the (round, node) of each on_round call."""
    net = make_path(4)
    trace = InjectionTrace((Tour(1, 1, (2, 3)), Tour(2, 25, (1, 2, 3))), 25)
    calls = _probed(monkeypatch, cls)
    alg = ogf.OldGoFirst(net, 20, GossipConfig.oracle(12))
    return run(net, alg, trace, 60), alg.window_log, calls


def test_oracle_node_with_an_empty_queue_sleeps_through_window_starts(monkeypatch):
    _, _, calls = _oracle_path4_run(monkeypatch, ogf.OldGoFirst)
    by_round = {r: [v for q, v in calls if q == r] for r in (1, 21, 41)}
    # round 1 calls every node; node 1 keeps the window record, node 2
    # holds tour 1 at round 21, and nodes 3 and 4 never hold a tour: node 3
    # stays asleep through the deliveries to it, node 4 through everything
    assert by_round == {1: [1, 2, 3, 4], 21: [1, 2], 41: [1]}
    assert [r for r, v in calls if v in (3, 4) and r > 1] == []


def test_node_woken_mid_phase2_settles_the_tour_under_this_windows_plan(monkeypatch):
    # node 2 slept from round 33, when it sent its last tour, with window
    # 2's plan, which colors tour 1 only; tour 2 arrives in round 53, so
    # node 2 must install window 3's plan, in which tour 2 is color 1 of
    # single-round super-rounds, and it sleeps again once it sends it
    metrics, log, calls = _oracle_path4_run(monkeypatch, ogf.OldGoFirst)
    assert [r for r, v in calls if v == 2] == [1, 13, 21, 33, 54]
    assert [(d.tour_id, d.delivered) for d in metrics.deliveries] == [(1, 33), (2, 54)]
    awake_metrics, awake_log, _ = _oracle_path4_run(monkeypatch, NeverSleeps)
    assert metrics.rounds_csv() == awake_metrics.rounds_csv()
    assert log == awake_log


def test_oracle_windows_without_traffic_are_logged():
    # with no tour queued anywhere, node 1 still plans every window
    adv = _adv(1, 8, 1, 2)
    net = make_path(4)
    res = run_ogf(net, adv, GossipConfig.oracle(12), InjectionTrace((), 0), 60)
    assert res.w == 19
    assert res.windows == [ogf.WindowStats(k, 0, 0, 0, 0, False) for k in (1, 2, 3)]


def test_sleeping_oracle_node_acts_in_the_round_of_an_injection(monkeypatch):
    # node 1 sleeps through oracle phase 1 (rounds 1..10) to its plan round,
    # 11; each injection at it wakes it for that round
    net = make_path(4)
    trace = InjectionTrace((Tour(1, 3, (1, 2)), Tour(2, 3, (1, 2)),
                            Tour(3, 5, (1, 2))), 5)
    calls = _probed(monkeypatch, ogf.OldGoFirst)
    run(net, ogf.OldGoFirst(net, 20, GossipConfig.oracle(10)), trace, 20)
    assert [r for r, v in calls if v == 1] == [1, 3, 5, 11]
