from __future__ import annotations

import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from radiosim import adversary
from radiosim import (AdversaryError, AdversaryType, Balance, InjectionTrace,
                      LoadLedger, RoundRobin, Tour, build_network, classify,
                      conflict_node_set, format_trace,
                      gen_balanced, gen_unbalanced_clique, make_clique, make_path,
                      make_random_connected, node_load, parse_trace, run,
                      verify_admissible, verify_admissible_all_intervals)
from conftest import (MALFORMED_TOURS, assert_genuine_witness, random_network,
                      random_simple_path)


def _adv(num, den, b, L):
    return AdversaryType(Fraction(num, den), b, L)


# ---------------------------------------------------------------- types


def test_classify_balanced():
    assert classify(_adv(1, 5, 2, 3)) is Balance.BALANCED


def test_classify_unbalanced():
    assert classify(_adv(1, 2, 2, 3)) is Balance.UNBALANCED


def test_classify_critical():
    assert classify(_adv(1, 3, 2, 3)) is Balance.CRITICAL


def test_type_validation():
    with pytest.raises(AdversaryError, match="rho"):
        AdversaryType(Fraction(3, 2), 1, 1)
    with pytest.raises(AdversaryError, match="burstiness"):
        AdversaryType(Fraction(1, 2), 0, 1)
    with pytest.raises(AdversaryError, match="stretch"):
        AdversaryType(Fraction(1, 2), 1, 0)


@pytest.mark.parametrize("injections, horizon, match", [
    ((Tour(1, 1, (1, 2)), Tour(1, 2, (2, 1))), 5, "duplicate tour ids"),
    ((Tour(1, 0, (1, 2)),), 5, "tour 1: injection round must be >= 1"),
    ((Tour(1, 6, (1, 2)),), 5, "horizon precedes its last injection"),
], ids=["duplicate-id", "round-0", "horizon"])
def test_trace_rejects_malformed_injections(injections, horizon, match):
    with pytest.raises(AdversaryError, match=match):
        InjectionTrace(injections, horizon)


@pytest.mark.parametrize("call", [
    lambda h: run(make_path(2), RoundRobin(), InjectionTrace((), 0), h),
    lambda h: gen_balanced(make_path(3), _adv(1, 8, 1, 2), 1, h),
    lambda h: gen_unbalanced_clique(_adv(1, 2, 1, 3), n=6, t=2, horizon=h),
], ids=["engine.run", "gen_balanced", "gen_unbalanced_clique"])
def test_horizon_must_not_be_negative(call):
    call(0)
    with pytest.raises(ValueError, match="^horizon must be >= 0, got -1$"):
        call(-1)


def test_parse_round_trip():
    adv = AdversaryType.parse("1/2:1:3")
    assert adv == _adv(1, 2, 1, 3)
    assert str(adv) == "1/2:1:3"
    with pytest.raises(AdversaryError, match="bad adversary spec"):
        AdversaryType.parse("1/2:3")


# ---------------------------------------------------------------- load


def test_node_load_empty_trace():
    net = make_clique(3)
    ledger = LoadLedger(net, InjectionTrace((), 10))
    assert all(node_load(ledger, v, (1, 10)) == 0 for v in net.nodes())


def test_clique_tour_loads_every_node():
    net = make_clique(5)
    trace = InjectionTrace((Tour(1, 4, (1, 2, 3)),), 10)
    ledger = LoadLedger(net, trace)
    assert all(node_load(ledger, v, (1, 10)) == 1 for v in net.nodes())
    assert all(node_load(ledger, v, (5, 10)) == 0 for v in net.nodes())


def test_unrelated_node_has_zero_load():
    net = make_path(6)
    ledger = LoadLedger(net, InjectionTrace((Tour(1, 1, (1, 2)),), 5))
    assert node_load(ledger, 6, (1, 5)) == 0


def test_node_load_bad_interval():
    net = make_path(3)
    ledger = LoadLedger(net, InjectionTrace((), 5))
    with pytest.raises(AdversaryError, match="interval"):
        node_load(ledger, 1, (4, 2))


# ---------------------------------------------------------------- verifier


def test_empty_trace_admissible():
    net = make_clique(4)
    assert verify_admissible(net, InjectionTrace((), 10), _adv(1, 2, 1, 1)) is None


@pytest.mark.parametrize("tour, match", MALFORMED_TOURS)
def test_verifier_raises_on_invalid_tour(tour, match):
    from radiosim import TourError
    net = make_path(4)
    trace = InjectionTrace((tour,), 5)
    with pytest.raises(TourError, match=match):
        verify_admissible(net, trace, _adv(1, 2, 1, 1))


def test_stretch_violation():
    net = make_path(4)
    trace = InjectionTrace((Tour(1, 1, (1, 2, 3)),), 5)
    violation = verify_admissible(net, trace, _adv(1, 2, 1, 1))
    assert violation is not None and violation.kind == "stretch"


def test_single_round_burst_violation():
    # K4 with (1/2, 1, 1): two tours in round 1 give load 2 > 1/2 + 1
    net = make_clique(4)
    trace = InjectionTrace((Tour(1, 1, (1, 2)), Tour(2, 1, (3, 4))), 5)
    violation = verify_admissible(net, trace, _adv(1, 2, 1, 1))
    assert violation is not None and violation.kind == "load"
    assert violation.load == 2 and violation.budget == Fraction(3, 2)
    assert violation.interval == (1, 1)


@pytest.mark.parametrize("copies, load", [(2, None), (3, 3)])
def test_each_tour_on_a_repeated_path_counts_toward_the_load(copies, load):
    # on the path 1-...-6 a tour on (2, 3) conflicts with nodes 2, 3 and 4,
    # one on (5, 6) with 5 and 6; at (1/4, 2, 2) one round admits 2 tours
    # on (2, 3) but not 3
    net = make_path(6)
    adv = _adv(1, 4, 2, 2)
    tours = tuple(Tour(i, 1, (2, 3)) for i in range(1, copies + 1))
    trace = InjectionTrace(tours + (Tour(copies + 1, 1, (5, 6)),), 3)
    violation = verify_admissible(net, trace, adv)
    assert violation == verify_admissible_all_intervals(net, trace, adv)
    assert (violation and violation.load) == load


def test_witness_on_repeated_paths_matches_the_oracle():
    # two tours on (2, 3) in round 1 fit 1/4 + 2, a third one in round 2
    # breaks 2/4 + 2 on [1, 2] at nodes 2, 3 and 4; node 2 comes first
    net = make_path(6)
    adv = _adv(1, 4, 2, 2)
    trace = InjectionTrace((Tour(1, 1, (2, 3)), Tour(2, 1, (2, 3)),
                            Tour(3, 2, (2, 3)), Tour(4, 2, (6, 5))), 2)
    violation = verify_admissible(net, trace, adv)
    assert violation == adversary.Violation(
        "load", node=2, interval=(1, 2), load=3, budget=Fraction(5, 2))
    assert violation == verify_admissible_all_intervals(net, trace, adv)


def _kadane_step(state, r, c, p, q):
    """The envelope's former per-node step on (level, last, start, load),
    kept as the oracle of its height form."""
    level, last, start, load = state
    carry = level - p * (r - last - 1)
    if carry > 0:
        return q * c - p + carry, r, start, load + c
    return q * c - p, r, r, c


@pytest.mark.parametrize("rho", [Fraction(0), Fraction(1, 3), Fraction(3, 4),
                                 Fraction(1)], ids=["0", "1/3", "3/4", "1"])
@pytest.mark.parametrize("b", [1, 2, 3])
def test_envelope_height_matches_the_kadane_step(rho, b):
    """Seeded rounds of add and admit, with repeated rounds and gaps, give
    the old step's verdicts, levels, starts and witness loads; a refused
    admit books nothing."""
    adv = AdversaryType(rho, b, 1)
    p, q = rho.numerator, rho.denominator
    envelope = adversary._LoadEnvelope(adv)
    old: dict[int, tuple[int, int, int, int]] = {}
    rng = random.Random(f"{rho}/{b}")
    r = refused = over = 0
    for _ in range(400):
        r += rng.choice((0, 0, 1, 1, 2, 5))
        nodes = rng.sample(range(1, 7), rng.randint(1, 4))
        if r == 0 or rng.random() < 0.5:
            r = max(r, 1)
            counts = {v: rng.randint(1, 3) for v in nodes}
            new = {v: _kadane_step(old.get(v, (0, 0, 0, 0)), r, c, p, q)
                   for v, c in counts.items()}
            expect_over = [v for v in counts if new[v][0] > q * b]
            assert envelope.add(r, counts) == expect_over
            old.update(new)
            for v in expect_over:
                assert envelope.witness(v, r) == adversary.Violation(
                    "load", node=v, interval=(new[v][2], r), load=new[v][3],
                    budget=rho * (r - new[v][2] + 1) + b)
            over += bool(expect_over)
        else:
            new = {v: _kadane_step(old.get(v, (0, 0, 0, 0)), r, 1, p, q)
                   for v in nodes}
            fits = all(state[0] <= q * b for state in new.values())
            before = dict(envelope.height), dict(envelope.start)
            assert envelope.admit(tuple(nodes), r) is fits
            if fits:
                old.update(new)
            else:
                assert (envelope.height, envelope.start) == before
                refused += 1
        for v, (level, last, start, _) in old.items():
            assert envelope.height[v] - p * last == level
            assert envelope.start[v] == start
    assert refused and over


def _seeded_verdicts():
    """verify_admissible's result on 600 seeded traces of random simple
    paths on random networks, at rho from 0 to 1 and b from 1 to 3."""
    rng = random.Random(59)
    for _ in range(600):
        net = random_network(rng, max_n=8)
        adv = AdversaryType(Fraction(rng.randint(0, 4), 4), rng.randint(1, 3),
                            rng.randint(1, 3))
        horizon = rng.randint(1, 40)
        tours = []
        for r in range(1, horizon + 1):
            for _ in range(rng.choice((0, 0, 1, 1, 2))):
                path = random_simple_path(net, rng, adv.L)
                if len(path) > 1:
                    tours.append(Tour(len(tours) + 1, r, path))
        yield verify_admissible(net, InjectionTrace(tuple(tours), horizon), adv)


def test_seeded_witnesses_pinned():
    # recorded before the envelope kept one height per node
    verdicts = list(_seeded_verdicts())
    assert sum(v is not None for v in verdicts) == 436
    assert hashlib.sha256("\n".join(map(repr, verdicts)).encode()).hexdigest() == (
        "270668187273a4ebfddfb5c6b46dc9cc8718b0e9eaf0046f01d7a7db04f16119")


def test_fast_verifier_matches_slow_oracle():
    rng = random.Random(19)
    agreements = 0
    for _ in range(60):
        net = random_network(rng)
        adv = AdversaryType(Fraction(rng.randint(0, 3), 4), rng.randint(1, 2),
                            rng.randint(1, 3))
        horizon = rng.randint(1, 30)
        tours = []
        tid = 1
        for r in range(1, horizon + 1):
            for _ in range(rng.randint(0, 2)):
                u = rng.randrange(1, net.n + 1)
                nbrs = sorted(net.neighbors(u))
                path = [u, rng.choice(nbrs)]
                tours.append(Tour(tid, r, tuple(path)))
                tid += 1
        trace = InjectionTrace(tuple(tours), horizon)
        fast = verify_admissible(net, trace, adv)
        slow = verify_admissible_all_intervals(net, trace, adv)
        assert (fast is None) == (slow is None)
        assert_genuine_witness(net, trace, adv, fast)
        agreements += 1
    assert agreements == 60


# ---------------------------------------------------------------- balanced gen


def test_gen_balanced_empty_horizon():
    net = make_path(3)
    trace = gen_balanced(net, _adv(1, 4, 1, 2), seed=1, horizon=0)
    assert not trace.injections


def test_gen_balanced_deterministic():
    net = make_path(5)
    a = gen_balanced(net, _adv(1, 4, 1, 2), seed=42, horizon=50)
    b = gen_balanced(net, _adv(1, 4, 1, 2), seed=42, horizon=50)
    assert a == b
    c = gen_balanced(net, _adv(1, 4, 1, 2), seed=43, horizon=50)
    assert a != c


def test_gen_balanced_rejects_non_balanced():
    net = make_path(3)
    with pytest.raises(AdversaryError, match="balanced"):
        gen_balanced(net, _adv(1, 2, 1, 3), seed=1, horizon=10)


def test_gen_balanced_always_admissible():
    rng = random.Random(23)
    for _ in range(25):
        net = random_network(rng)
        L = rng.randint(1, 3)
        adv = AdversaryType(Fraction(rng.randint(1, 3), 4 * L),
                            rng.randint(1, 3), L)
        assert classify(adv) is Balance.BALANCED
        trace = gen_balanced(net, adv, seed=rng.randrange(10**6),
                             horizon=rng.randint(0, 60),
                             attempts_per_round=rng.randint(1, 3))
        assert verify_admissible(net, trace, adv) is None
        assert verify_admissible_all_intervals(net, trace, adv) is None
        for f in trace.injections:
            assert 1 <= f.length <= adv.L


def _trace_digest(adv, trace):
    return hashlib.sha256(format_trace(adv, trace).encode()).hexdigest()


@pytest.mark.parametrize("net, adv, seed, horizon, attempts, count, digest", [
    (make_path(8), _adv(1, 6, 2, 2), 11, 400, 1, 148,
     "0bb9c7a7eeee50fdebde029f9b32e874d37290765665897a38968e2e9fd985ca"),
    (make_clique(6), _adv(1, 8, 1, 3), 12, 300, 2, 38,
     "c40111b8f0095d9a604145cb89a4047f0415129619356143344f3ad966777ffb"),
    (make_random_connected(12, 0.3, 5), _adv(1, 5, 1, 3), 13, 500, 2, 103,
     "abb65e4fb195883ea6f4436e935402bd9bc94223d23cf1f1972ff351c85a9009"),
    (make_random_connected(20, 0.15, 7), _adv(1, 4, 3, 2), 14, 300, 1, 137,
     "3ccbbdbd546a23045bd28184ee66ce77d3ca6f881d0ea85a6bf505b49881fa09"),
], ids=["path8", "clique6", "random12", "random20"])
def test_gen_balanced_traces_pinned(net, adv, seed, horizon, attempts, count,
                                    digest):
    # the seeded CSVs depend on these exact traces
    trace = gen_balanced(net, adv, seed, horizon, attempts_per_round=attempts)
    assert len(trace.injections) == count
    assert _trace_digest(adv, trace) == digest


def _reference_gen_balanced(net, adv, seed, horizon, attempts):
    """gen_balanced's specification: draw each candidate with the tests'
    path sampler and admit it iff the trace extended by it still passes
    verify_admissible.  Also returns how many walks took a link and then
    stopped at a dead end short of the length they drew."""
    rng = random.Random(seed)
    tours, dead_ends = [], 0
    for r in range(1, horizon + 1):
        for _ in range(attempts):
            state = rng.getstate()
            links = rng.randint(1, adv.L)  # the sampler's first draw
            rng.setstate(state)
            path = random_simple_path(net, rng, adv.L)
            dead_ends += 1 < len(path) <= links
            if len(path) < 2:
                continue
            extended = tours + [Tour(len(tours) + 1, r, path)]
            if verify_admissible(net, InjectionTrace(tuple(extended), r), adv) is None:
                tours = extended
    return InjectionTrace(tuple(tours), horizon), dead_ends


def _star(n):
    return build_network(n, [(1, v) for v in range(2, n + 1)])


def test_gen_balanced_matches_reference_generator():
    """The same trace as the reference, tour for tour, on paths, stars,
    cliques and random graphs, for every attempts per round in 0..3 and
    every L in 1..4."""
    rng = random.Random(41)
    makers = [make_path, _star, make_clique,
              lambda n: make_random_connected(n, rng.random(), rng.randrange(10**6))]
    dead_ends = tours = 0
    for case in range(100):
        # a star may have one node, where every walk stays at its start
        net = makers[case % 4](rng.randint(1 if case % 4 == 1 else 2, 7))
        L, attempts = case // 4 % 4 + 1, case // 16 % 4
        adv = AdversaryType(Fraction(rng.randint(1, 3), 4 * L), rng.randint(1, 3), L)
        seed, horizon = rng.randrange(10**6), rng.randint(0, 25)
        expected, stopped = _reference_gen_balanced(net, adv, seed, horizon, attempts)
        assert gen_balanced(net, adv, seed, horizon, attempts) == expected, case
        dead_ends += stopped
        tours += len(expected.injections)
    assert dead_ends > 0 and tours > 0


def _filtered_walk_gen_balanced(net, adv, seed, horizon, attempts):
    """gen_balanced with the unvisited-neighbor filter on every hop, the
    first included, and each candidate's conflict set built afresh."""
    rng = random.Random(seed)
    neighbors = {v: sorted(net.neighbors(v)) for v in net.nodes()}
    envelope = adversary._LoadEnvelope(adv)
    tours = []
    for r in range(1, horizon + 1):
        for _ in range(attempts):
            links = rng.randrange(1, adv.L + 1)
            v = rng.randrange(1, net.n + 1)
            path = [v]
            for _ in range(links):
                options = [u for u in neighbors[v] if u not in path]
                if not options:
                    break
                v = rng.choice(options)
                path.append(v)
            if len(path) > 1:
                f = Tour(len(tours) + 1, r, tuple(path))
                if envelope.admit(conflict_node_set(net, f), r):
                    tours.append(f)
    return InjectionTrace(tuple(tours), horizon)


@pytest.mark.parametrize("net", [
    make_path(7), make_clique(6), make_random_connected(12, 0.3, 8),
    build_network(1, []),
], ids=["path7", "clique6", "random12", "single-node"])
def test_gen_balanced_matches_filtered_walk_generator(net):
    """Long runs, where candidate paths repeat, give the same trace as the
    filtered walk, for every attempts per round in 1..3 and L in 1..4."""
    for attempts in (1, 2, 3):
        for L in (1, 2, 3, 4):
            adv = AdversaryType(Fraction(1, 2 * L), 2, L)
            seed = 100 * attempts + L
            expected = _filtered_walk_gen_balanced(net, adv, seed, 300, attempts)
            assert gen_balanced(net, adv, seed, 300, attempts) == expected
            assert bool(expected.injections) == (net.n > 1)


# ------------------------------------------------------------- unbalanced gen


def test_unbalanced_clique_trace_pinned():
    adv = _adv(1, 2, 1, 3)
    _, trace = gen_unbalanced_clique(adv, n=6, t=2, horizon=2000)
    assert len(trace.injections) == 1001
    assert _trace_digest(adv, trace) == (
        "d61cbeaf55221e8f72860ea82b7543633f96ea84c1483d29ffaafb59a8c3851c")



def test_unbalanced_clique_interval_counts():
    adv = _adv(1, 2, 1, 3)
    net, trace = gen_unbalanced_clique(adv, n=6, t=6, horizon=18)
    assert net == make_clique(6)
    per_interval = {}
    for f in trace.injections:
        k = (f.injection_round - 1) // 6 + 1
        per_interval[k] = per_interval.get(k, 0) + 1
        assert f.length == 3
    assert per_interval == {1: 4, 2: 3, 3: 3}


@pytest.mark.parametrize("adv,t", [
    (_adv(1, 2, 1, 3), 2), (_adv(1, 2, 2, 3), 5), (_adv(3, 4, 1, 3), 2),
    (_adv(3, 4, 3, 3), 3), (_adv(2, 3, 2, 2), 3), (_adv(1, 1, 1, 2), 1),
])
def test_unbalanced_clique_injects_its_quota(adv, t):
    # the instability command's counting bound reads the same quota
    _, trace = gen_unbalanced_clique(adv, n=adv.L + 2, t=t, horizon=5 * t + t - 1)
    per_interval = Counter((f.injection_round - 1) // t + 1 for f in trace.injections)
    quota = adversary._clique_quota(adv, t)
    assert per_interval == {1: quota + adv.b, **{k: quota for k in range(2, 6)}}


def test_unbalanced_clique_min_interval_length():
    # (L*rho - 1)*t >= 1 with rho=1/2, L=3 already holds at t=2
    adv = _adv(1, 2, 1, 3)
    net, trace = gen_unbalanced_clique(adv, n=6, t=2, horizon=8)
    assert len(trace.injections) == 1 + 1 + 1 + 2  # floor(rho*t)=1, +b once
    with pytest.raises(AdversaryError, match="t >= 1"):
        gen_unbalanced_clique(adv, n=6, t=1, horizon=8)


def test_unbalanced_clique_needs_a_surplus_of_injected_hops():
    # (L*rho - 1)*t = 5/4 >= 1, but floor(rho*t) = 0 tours per interval
    with pytest.raises(AdversaryError, match=r"need L\*floor\(rho\*t\) > t"):
        gen_unbalanced_clique(_adv(3, 4, 3, 3), n=8, t=1, horizon=8)
    # L*floor(rho*t) = 2*1 = t leaves no surplus either
    with pytest.raises(AdversaryError, match=r"need L\*floor\(rho\*t\) > t"):
        gen_unbalanced_clique(_adv(3, 4, 1, 2), n=5, t=2, horizon=8)
    # floor(rho*t) = 1 tour of 3 hops per 2 rounds is enough
    _, trace = gen_unbalanced_clique(_adv(3, 4, 1, 3), n=8, t=2, horizon=8)
    assert len(trace.injections) == 4 + 1


def test_unbalanced_clique_needs_room_for_paths():
    with pytest.raises(AdversaryError, match="n > L"):
        gen_unbalanced_clique(_adv(1, 2, 1, 3), n=3, t=4, horizon=8)


def test_unbalanced_clique_rejects_balanced_type():
    with pytest.raises(AdversaryError, match="unbalanced"):
        gen_unbalanced_clique(_adv(1, 4, 1, 3), n=6, t=4, horizon=8)


def test_unbalanced_clique_trace_admissible_for_its_type():
    for adv, n, t in [(_adv(1, 2, 1, 3), 6, 2), (_adv(2, 3, 2, 2), 5, 3),
                      (_adv(1, 1, 1, 2), 4, 1)]:
        net, trace = gen_unbalanced_clique(adv, n=n, t=t, horizon=6 * t)
        assert verify_admissible(net, trace, adv) is None
        assert verify_admissible_all_intervals(net, trace, adv) is None


# ---------------------------------------------------------------- properties


def test_admissibility_monotone_in_type():
    rng = random.Random(31)
    for _ in range(15):
        net = random_network(rng)
        adv = AdversaryType(Fraction(rng.randint(1, 3), 4), rng.randint(1, 2),
                            rng.randint(1, 3))
        if classify(adv) is not Balance.BALANCED:
            continue
        trace = gen_balanced(net, adv, seed=rng.randrange(10**6), horizon=40)
        bigger = AdversaryType(min(Fraction(1), adv.rho + Fraction(1, 8)),
                               adv.b + 1, adv.L + 1)
        assert verify_admissible(net, trace, bigger) is None


def test_burst_mutation_detected():
    # appending b+1 simultaneous copies of a tour overflows the single-round
    # budget rho + b on a clique
    net = make_clique(4)
    adv = _adv(1, 4, 2, 2)
    base = gen_balanced(net, adv, seed=5, horizon=20)
    extra = tuple(Tour(1000 + i, 21, (1, 2, 3)) for i in range(adv.b + 1))
    mutated = InjectionTrace(base.injections + extra, 21)
    violation = verify_admissible(net, mutated, adv)
    assert violation is not None and violation.kind == "load"


# ---------------------------------------------------------------- text format


def test_trace_format_round_trip():
    net = make_path(4)
    adv = _adv(1, 8, 1, 2)
    trace = gen_balanced(net, adv, seed=3, horizon=40)
    text = format_trace(adv, trace)
    adv2, trace2 = parse_trace(text)
    assert adv2 == adv
    assert trace2.injections == trace.injections
    assert format_trace(adv2, trace2) == text


def test_trace_parse_errors():
    with pytest.raises(AdversaryError, match="adv"):
        parse_trace("t 1 1 1 2\n")
    with pytest.raises(AdversaryError, match="unknown record"):
        parse_trace("adv 1/2 1 1\nz\n")
    with pytest.raises(AdversaryError, match="expected"):
        parse_trace("adv 1/2 1\n")
    with pytest.raises(AdversaryError, match="line 1"):
        parse_trace("adv 1/0 1 1\n")
    with pytest.raises(AdversaryError, match="line 3: repeated `adv` header"):
        parse_trace("adv 1/8 1 2\nt 1 1 1 2\nadv 1/2 3 3\n")
