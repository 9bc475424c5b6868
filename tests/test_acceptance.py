"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.  The regression matrix behind the latency and residency
criteria is executed once (module-scoped) and shared.
"""

from __future__ import annotations

import itertools
import math
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction

import pytest

from radiosim import (LISTEN, AdversaryType, COLLISION, GossipConfig, Heard,
                      InjectionTrace, Message, Network, RoundRobin, SILENCE, Tour,
                      build_conflict_graph, build_network, classify,
                      compute_window_bound, exact_chromatic, gen_balanced,
                      gen_unbalanced_clique, make_clique, make_cycle,
                      make_path, make_random_connected, optimal_sls_length,
                      run, run_ogf, step, tours_conflict, verify_admissible,
                      verify_admissible_all_intervals)
from conftest import (RING4_CONFLICT_EDGES, assert_genuine_witness,
                      predicted_latency, random_simple_path)


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


# =====================================================================
# Criterion 1: scheduling optimum equals the chromatic number
# =====================================================================


def test_c1_scheduling_optimum_equals_chromatic_number():
    rng = random.Random(101)
    instances = 0
    while instances < 200:
        n = rng.randint(2, 6)
        net = make_random_connected(n, rng.random(), rng.randrange(10**9))
        edges = sorted(net.edges)
        count = rng.randint(1, 6)
        tours = []
        for i in range(1, count + 1):
            u, v = rng.choice(edges)
            if rng.random() < 0.5:
                u, v = v, u
            tours.append(Tour(i, 1, (u, v)))
        brute = optimal_sls_length(net, tours)
        chromatic = exact_chromatic(build_conflict_graph(net, tours))
        assert brute == chromatic, (net, tours, brute, chromatic)
        instances += 1
    report("C1 scheduling-optimum == chromatic-number",
           f"{instances} random instances, exact equality")


# =====================================================================
# Criterion 2: the crossed-ring conflict graph, exactly
# =====================================================================


def test_c2_crossed_ring_conflict_graph(ring4, ring4_tours):
    cg = build_conflict_graph(ring4, ring4_tours.values())
    assert set(cg.edges) == RING4_CONFLICT_EDGES
    assert not cg.adjacent(2, 3)
    report("C2 crossed-ring conflict graph",
           f"edges exactly {sorted(RING4_CONFLICT_EDGES)}, 2-3 a non-edge")


# =====================================================================
# Criterion 3: saturation counting bound on the clique
# =====================================================================


def test_c3_saturation_counting_bound():
    adv = AdversaryType(Fraction(1, 2), 1, 3)
    n, t, k = 6, 2, 1000
    horizon = k * t
    net, trace = gen_unbalanced_clique(adv, n, t, horizon)
    assert verify_admissible(net, trace, adv) is None

    # floor(((L*rho - 1)*k*t - b*L) / L) packets must remain queued
    bound = math.floor(((adv.L * adv.rho - 1) * k * t - adv.b * adv.L) / adv.L)
    assert bound == 332

    results = {}
    results["round-robin"] = run(net, RoundRobin(), trace, horizon)
    results["old-go-first"] = run_ogf(net, adv, GossipConfig.tdma(), trace,
                                      horizon, window_override=60,
                                      strict=False).metrics
    for name, metrics in results.items():
        final = metrics.final_backlog()
        assert final >= bound, (name, final, bound)
        assert metrics.missed_hops == [], name  # every sent tour was heard
        # the surplus the adversary banks — undelivered hops — never shrinks
        # across interval boundaries; per-boundary packet backlog also stays
        # at or above the proof's per-interval counting bound
        hops = [metrics.undelivered_hops[j * t - 1] for j in range(1, k + 1)]
        assert all(b2 >= b1 for b1, b2 in zip(hops, hops[1:])), name
        for j in range(1, k + 1):
            bound_j = math.floor(
                ((adv.L * adv.rho - 1) * j * t - adv.b * adv.L) / adv.L)
            assert metrics.backlog[j * t - 1] >= bound_j, (name, j)
    report("C3 saturation counting bound",
           f"final backlog {results['round-robin'].final_backlog()} (rr) / "
           f"{results['old-go-first'].final_backlog()} (ogf) >= {bound}; "
           "hop surplus nondecreasing at all 1000 interval boundaries")


# =====================================================================
# Criteria 4 + 8: bounded latency matrix, with per-round residency checks
# =====================================================================


@dataclass
class MatrixRun:
    label: str
    net: Network
    u: int
    result: object
    trace: InjectionTrace
    horizon: int


def _matrix_configs():
    half, third = Fraction(1, 2), Fraction(1, 3)
    full = Fraction(1)
    tdma = GossipConfig.tdma()
    return [
        # label, network, (rho, b, L), gossip, generator rate scale, attempts
        ("path4-quarter-tdma", make_path(4), (Fraction(1, 8), 1, 2), tdma, half, 1),
        ("path6-half-oracle", make_path(6), (Fraction(1, 4), 1, 2),
         GossipConfig.oracle(20), half, 1),
        ("path6-quarter-tdma", make_path(6), (Fraction(1, 8), 2, 2), tdma, half, 1),
        ("path8-threequarter-oracle", make_path(8), (Fraction(1, 4), 2, 3),
         GossipConfig.oracle(24), third, 1),
        ("path8-half-tdma", make_path(8), (Fraction(1, 2), 1, 1), tdma, third, 1),
        ("path12-quarter-tdma", make_path(12), (Fraction(1, 8), 1, 2), tdma, half, 1),
        ("path10-threequarter-oracle", make_path(10), (Fraction(3, 4), 1, 1),
         GossipConfig.oracle(30), third, 1),
        ("clique4-quarter-tdma", make_clique(4), (Fraction(1, 4), 1, 1), tdma, full, 2),
        ("clique4-half-oracle", make_clique(4), (Fraction(1, 4), 2, 2),
         GossipConfig.oracle(8), full, 2),
        ("clique6-threequarter-tdma", make_clique(6), (Fraction(1, 4), 1, 3),
         tdma, full, 2),
        ("clique6-half-oracle", make_clique(6), (Fraction(1, 2), 1, 1),
         GossipConfig.oracle(15), full, 2),
        ("clique8-quarter-tdma", make_clique(8), (Fraction(1, 8), 1, 2), tdma, full, 2),
        ("clique8-threequarter-oracle", make_clique(8), (Fraction(3, 8), 2, 2),
         GossipConfig.oracle(20), full, 2),
        ("clique12-half-tdma", make_clique(12), (Fraction(1, 4), 1, 2), tdma, full, 2),
        ("clique5-threequarter-tdma", make_clique(5), (Fraction(3, 4), 1, 1),
         tdma, full, 2),
        ("clique10-half-tdma", make_clique(10), (Fraction(1, 2), 1, 1), tdma, full, 2),
        ("random6-quarter-tdma", make_random_connected(6, 0.5, 61),
         (Fraction(1, 8), 1, 2), tdma, half, 1),
        ("random8-half-oracle", make_random_connected(8, 0.4, 82),
         (Fraction(1, 4), 1, 2), GossipConfig.oracle(20), half, 1),
        ("random9-quarter-tdma", make_random_connected(9, 0.3, 93),
         (Fraction(1, 12), 1, 3), tdma, half, 1),
        ("random10-threequarter-oracle", make_random_connected(10, 0.35, 104),
         (Fraction(1, 4), 1, 3), GossipConfig.oracle(25), third, 1),
        ("random12-quarter-oracle", make_random_connected(12, 0.25, 125),
         (Fraction(1, 8), 2, 2), GossipConfig.oracle(30), half, 1),
        ("random12-half-tdma", make_random_connected(12, 0.5, 126),
         (Fraction(1, 4), 2, 2), tdma, half, 1),
        ("cycle7-half-oracle", make_cycle(7), (Fraction(1, 6), 1, 3),
         GossipConfig.oracle(14), half, 1),
        ("path5-quarter-oracle", make_path(5), (Fraction(1, 16), 3, 4),
         GossipConfig.oracle(10), half, 1),
    ]


@pytest.fixture(scope="module")
def latency_matrix():
    runs = []
    covered = set()
    for label, net, (rho, b, L), gossip, scale, attempts in _matrix_configs():
        adv = AdversaryType(rho, b, L)
        covered.add(rho * L)
        u = compute_window_bound(adv, gossip.rounds(net.n))
        horizon = 10 * u
        gen_type = AdversaryType(rho * scale, b, L)
        trace = gen_balanced(net, gen_type, seed=zlib.crc32(label.encode()),
                             horizon=horizon, attempts_per_round=attempts)
        assert verify_admissible(net, trace, adv) is None, label
        result = run_ogf(net, adv, gossip, trace, horizon)
        runs.append(MatrixRun(label, net, u, result, trace, horizon))
    assert covered == {Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)}
    return runs


def test_c4_latency_bounded_by_2u(latency_matrix):
    assert len(latency_matrix) >= 20
    delivered_total = 0
    for mr in latency_matrix:
        metrics = mr.result.metrics
        assert metrics.delivered_total > 0, mr.label
        assert metrics.missed_hops == [], mr.label  # every sent tour was heard
        delivered_total += metrics.delivered_total
        for d in metrics.deliveries:
            assert d.latency <= 2 * mr.u, (mr.label, d)
        delivered = {d.tour_id for d in metrics.deliveries}
        for f in mr.trace.injections:
            if f.id not in delivered:
                assert mr.horizon - f.injection_round <= 2 * mr.u, (mr.label, f.id)
    report("C4 latency <= 2u",
           f"{len(latency_matrix)} configurations, {delivered_total} "
           "deliveries, zero latency or overdue violations")


def test_c4_every_latency_predicted_exactly(latency_matrix):
    delivered_total = 0
    for mr in latency_matrix:
        res = mr.result
        predicted = predicted_latency(mr.net, mr.trace, res.w, res.s_n)
        for d in res.metrics.deliveries:
            assert d.latency == predicted[d.tour_id], (mr.label, d)
        delivered_total += res.metrics.delivered_total
    report("C4 latency identity",
           f"{delivered_total} deliveries across {len(latency_matrix)} "
           "configurations, each latency k*w + S(n) + (len(f) - 1)*(Delta + 1) "
           "+ c - r")


def test_c8_per_color_residency_checked_every_round(latency_matrix):
    total_checks = 0
    for mr in latency_matrix:
        # run_ogf would have raised OgfError on any residency or queue-bound
        # violation; the counter proves the checks actually executed
        assert mr.result.invariant_checks > 0, mr.label
        total_checks += mr.result.invariant_checks
    report("C8 per-color residency invariant",
           f"{total_checks} per-node round checks across the matrix, "
           "zero violations")


# =====================================================================
# Criterion 5: hearing rule, exhaustively on small networks
# =====================================================================


def test_c5_hearing_rule_exhaustive():
    cases = 0
    for n in (1, 2, 3, 4):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            try:
                net = build_network(n, edges)
            except Exception:
                continue
            nodes = list(net.nodes())
            for tx_bits in range(1 << n):
                transmitters = {nodes[i] for i in range(n) if tx_bits >> i & 1}
                actions = {v: Message(control=v) if v in transmitters
                           else LISTEN for v in nodes}
                outcome = step(net, actions)
                for v in nodes:
                    if v in transmitters:
                        assert outcome[v] is SILENCE
                    else:
                        heard_from = transmitters & net.neighbors(v)
                        if len(heard_from) == 1:
                            (u,) = heard_from
                            assert outcome[v] == Heard(u, Message(control=u))
                        elif heard_from:
                            assert outcome[v] is COLLISION
                        else:
                            assert outcome[v] is SILENCE
                    cases += 1
    report("C5 hearing rule exhaustive",
           f"{cases} node outcomes over all connected networks on <= 4 nodes "
           "and all transmitter subsets")


# =====================================================================
# Criterion 6: conflict soundness by seeded sampling
# =====================================================================


def test_c6_conflict_soundness_sampled():
    rng = random.Random(606)
    cases = 0
    sampled_pairs = 0
    while cases < 10_000:
        n = rng.randint(3, 6)
        net = make_random_connected(n, rng.random(), rng.randrange(10**9))
        for _ in range(40):
            p0 = random_simple_path(net, rng, 3)
            p1 = random_simple_path(net, rng, 3)
            if len(p0) < 2 or len(p1) < 2:
                continue
            f0, f1 = Tour(1, 1, p0), Tour(2, 1, p1)
            sampled_pairs += 1
            if tours_conflict(net, f0, f1):
                continue
            for i0 in range(f0.length):
                for i1 in range(f1.length):
                    actions = {v: LISTEN for v in net.nodes()}
                    actions[p0[i0]] = Message(tour=f0)
                    actions[p1[i1]] = Message(tour=f1)
                    outcome = step(net, actions)
                    for f, i in ((f0, i0), (f1, i1)):
                        out = outcome[f.path[i + 1]]
                        assert isinstance(out, Heard), (net.edges, f0, f1, i0, i1)
                        assert out.message.tour is f
                    cases += 1
    report("C6 conflict soundness",
           f"{cases} simultaneous-transmission cases from {sampled_pairs} "
           "sampled tour pairs, all heard")


# =====================================================================
# Criterion 7: admissibility verifier against the all-intervals oracle
# =====================================================================


def test_c7_verifier_against_all_intervals_oracle():
    rng = random.Random(707)
    traces = 0
    violations_seen = 0
    while traces < 100:
        n = rng.randint(2, 6)
        net = make_random_connected(n, rng.random(), rng.randrange(10**9))
        L = rng.randint(1, 3)
        adv = AdversaryType(Fraction(rng.randint(1, 3), 4 * L),
                            rng.randint(1, 2), L)
        horizon = rng.randint(10, 200)
        if rng.random() < 0.6:
            trace = gen_balanced(net, adv, rng.randrange(10**9), horizon,
                                 attempts_per_round=rng.randint(1, 2))
            if rng.random() < 0.5 and trace.injections:
                # mutate: pile extra copies of one tour into a single round
                f = trace.injections[rng.randrange(len(trace.injections))]
                extra = tuple(Tour(10_000 + i, f.injection_round, f.path)
                              for i in range(adv.b + 1))
                trace = InjectionTrace(trace.injections + extra, horizon)
        else:
            tours = []
            tid = 1
            for r in range(1, horizon + 1):
                for _ in range(rng.randint(0, 2)):
                    p = random_simple_path(net, rng, L)
                    if len(p) >= 2:
                        tours.append(Tour(tid, r, p))
                        tid += 1
            trace = InjectionTrace(tuple(tours), horizon)
        fast = verify_admissible(net, trace, adv)
        slow = verify_admissible_all_intervals(net, trace, adv)
        assert (fast is None) == (slow is None), (net.edges, adv, trace)
        if fast is not None:
            violations_seen += 1
            assert_genuine_witness(net, trace, adv, fast)
        traces += 1
    assert violations_seen > 10
    report("C7 admissibility verifier vs oracle",
           f"{traces} traces, {violations_seen} violating, full agreement")
