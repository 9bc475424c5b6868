"""The benchmark's four workloads: seeded inputs, timed ops and output checks.

Each workload is a list of ops built from the seed during set-up.  An op's
`run` calls radiosim's public functions through their module attributes, so
the tracer's wrappers see every call; the runner times `run` alone.  Its
`check` then tests the simulated outputs against the paper's theorems and
returns the bytes that the workload digest covers.

Every workload is a closed batch: one process, one thread, ops back to back.
"""

from __future__ import annotations

import hashlib
import math
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from radiosim import adversary, coloring, conflict, engine, network, ogf
from radiosim.adversary import AdversaryType, InjectionTrace
from radiosim.conflict import Tour
from radiosim.ogf import GossipConfig

# The latency-matrix configs run 3u rounds instead of the test suite's 10u:
# admissibility verification is quadratic in the horizon, and a 10u pass
# (about 70 s on a 2-core host) does not fit a run.  3u still covers two
# windows of old tours, each of which must be delivered within 2u.
MATRIX_WINDOWS = 3
SPARSE_WINDOWS = 10
SLS_PER_SIZE = 30  # 5 tour counts x 7 node counts x 30 = 1050 instances


class CheckFailed(Exception):
    """A theorem-backed property of an op's simulated output does not hold."""


@dataclass(frozen=True)
class Op:
    """One unit of work: `check(run())` returns the op's output bytes.

    `node_rounds` is the op's simulated node-rounds, or None where they
    depend on a search and must be counted.
    """

    label: str
    node_rounds: int | None
    run: Callable[[], object]
    check: Callable[[object], bytes]


def _ogf_bytes(result) -> bytes:
    m = result.metrics
    return "".join([m.rounds_csv(), m.deliveries_csv(),
                    repr(result.windows), str(result.invariant_checks)]).encode()


def _check_latency(label: str, result, trace: InjectionTrace, u: int,
                   horizon: int) -> None:
    """C4: every delivery within 2u, no undelivered tour older than 2u."""
    metrics = result.metrics
    if metrics.delivered_total == 0:
        raise CheckFailed(f"{label}: nothing delivered")
    if result.invariant_checks == 0:
        raise CheckFailed(f"{label}: residency invariant never checked")
    for d in metrics.deliveries:
        if d.latency > 2 * u:
            raise CheckFailed(f"{label}: tour {d.tour_id} latency {d.latency} > 2u = {2 * u}")
    delivered = {d.tour_id for d in metrics.deliveries}
    for f in trace.injections:
        if f.id not in delivered and horizon - f.injection_round > 2 * u:
            raise CheckFailed(f"{label}: tour {f.id} overdue at round {horizon}")


def _strict_ogf_op(label: str, net, adv: AdversaryType, gen_adv: AdversaryType,
                   gossip: GossipConfig, gen_seed: int, windows: int,
                   attempts: int) -> Op:
    """gen_balanced at the scaled rate, strict run_ogf, then the 2u checks."""
    u = ogf.compute_window_bound(adv, gossip.rounds(net.n))
    horizon = windows * u

    def run():
        trace = adversary.gen_balanced(net, gen_adv, seed=gen_seed, horizon=horizon,
                                       attempts_per_round=attempts)
        return trace, ogf.run_ogf(net, adv, gossip, trace, horizon)

    def check(outputs) -> bytes:
        trace, result = outputs
        _check_latency(label, result, trace, u, horizon)
        return _ogf_bytes(result)

    return Op(label, net.n * horizon, run, check)


# -- ogf-matrix ---------------------------------------------------------------

def _matrix_configs():
    """The 24 acceptance-matrix configs, copied so that a test edit cannot
    move the benchmark: label, network, (rho, b, L), gossip, generator rate
    scale, generator attempts per round."""
    half, third, full = Fraction(1, 2), Fraction(1, 3), Fraction(1)
    tdma = GossipConfig.tdma()
    oracle = GossipConfig.oracle
    path, clique = network.make_path, network.make_clique
    rand, cycle = network.make_random_connected, network.make_cycle
    return [
        ("path4-quarter-tdma", path(4), (Fraction(1, 8), 1, 2), tdma, half, 1),
        ("path6-half-oracle", path(6), (Fraction(1, 4), 1, 2), oracle(20), half, 1),
        ("path6-quarter-tdma", path(6), (Fraction(1, 8), 2, 2), tdma, half, 1),
        ("path8-threequarter-oracle", path(8), (Fraction(1, 4), 2, 3), oracle(24), third, 1),
        ("path8-half-tdma", path(8), (Fraction(1, 2), 1, 1), tdma, third, 1),
        ("path12-quarter-tdma", path(12), (Fraction(1, 8), 1, 2), tdma, half, 1),
        ("path10-threequarter-oracle", path(10), (Fraction(3, 4), 1, 1), oracle(30), third, 1),
        ("clique4-quarter-tdma", clique(4), (Fraction(1, 4), 1, 1), tdma, full, 2),
        ("clique4-half-oracle", clique(4), (Fraction(1, 4), 2, 2), oracle(8), full, 2),
        ("clique6-threequarter-tdma", clique(6), (Fraction(1, 4), 1, 3), tdma, full, 2),
        ("clique6-half-oracle", clique(6), (Fraction(1, 2), 1, 1), oracle(15), full, 2),
        ("clique8-quarter-tdma", clique(8), (Fraction(1, 8), 1, 2), tdma, full, 2),
        ("clique8-threequarter-oracle", clique(8), (Fraction(3, 8), 2, 2), oracle(20), full, 2),
        ("clique12-half-tdma", clique(12), (Fraction(1, 4), 1, 2), tdma, full, 2),
        ("clique5-threequarter-tdma", clique(5), (Fraction(3, 4), 1, 1), tdma, full, 2),
        ("clique10-half-tdma", clique(10), (Fraction(1, 2), 1, 1), tdma, full, 2),
        ("random6-quarter-tdma", rand(6, 0.5, 61), (Fraction(1, 8), 1, 2), tdma, half, 1),
        ("random8-half-oracle", rand(8, 0.4, 82), (Fraction(1, 4), 1, 2), oracle(20), half, 1),
        ("random9-quarter-tdma", rand(9, 0.3, 93), (Fraction(1, 12), 1, 3), tdma, half, 1),
        ("random10-threequarter-oracle", rand(10, 0.35, 104), (Fraction(1, 4), 1, 3),
         oracle(25), third, 1),
        ("random12-quarter-oracle", rand(12, 0.25, 125), (Fraction(1, 8), 2, 2),
         oracle(30), half, 1),
        ("random12-half-tdma", rand(12, 0.5, 126), (Fraction(1, 4), 2, 2), tdma, half, 1),
        ("cycle7-half-oracle", cycle(7), (Fraction(1, 6), 1, 3), oracle(14), half, 1),
        ("path5-quarter-oracle", path(5), (Fraction(1, 16), 3, 4), oracle(10), half, 1),
    ]


def build_matrix(seed: int) -> list[Op]:
    ops = []
    for label, net, (rho, b, L), gossip, scale, attempts in _matrix_configs():
        gen_seed = zlib.crc32(f"{label}/{seed}".encode())
        ops.append(_strict_ogf_op(label, net, AdversaryType(rho, b, L),
                                  AdversaryType(rho * scale, b, L), gossip,
                                  gen_seed, MATRIX_WINDOWS, attempts))
    return ops


# -- saturation-clique --------------------------------------------------------

def build_saturation(seed: int) -> list[Op]:
    """C3: K6, 1/2:1:3, t=2, 1000 intervals under round-robin and lenient OGF.

    The seed relabels the clique's nodes in the generated trace.  The clique
    is symmetric, so the work is the same while round-robin's transmitter
    order, and with it every output byte, depends on the seed.
    """
    adv = AdversaryType(Fraction(1, 2), 1, 3)
    n, t, intervals = 6, 2, 1000
    horizon = intervals * t
    names = list(range(1, n + 1))
    random.Random(seed).shuffle(names)
    relabel = dict(zip(range(1, n + 1), names))

    def bounds_hold(name: str, metrics) -> None:
        """The counting bound at every interval boundary, the final one
        included, and undelivered hops that never shrink across them."""
        hops = [metrics.undelivered_hops[j * t - 1] for j in range(1, intervals + 1)]
        if any(h2 < h1 for h1, h2 in zip(hops, hops[1:])):
            raise CheckFailed(f"{name}: undelivered hops shrank across an interval boundary")
        for j in range(1, intervals + 1):
            bound_j = math.floor(((adv.L * adv.rho - 1) * j * t - adv.b * adv.L) / adv.L)
            if metrics.backlog[j * t - 1] < bound_j:
                raise CheckFailed(f"{name}: backlog below the counting bound at interval {j}")

    def run():
        net, generated = adversary.gen_unbalanced_clique(adv, n, t, horizon)
        # relabelling is ~0.1% of the op
        trace = InjectionTrace(tuple(Tour(f.id, f.injection_round,
                                          tuple(relabel[v] for v in f.path))
                                     for f in generated.injections), horizon)
        rr = engine.run(net, engine.RoundRobin(), trace, horizon)
        return rr, ogf.run_ogf(net, adv, GossipConfig.tdma(), trace, horizon,
                               window_override=60, strict=False)

    def check(outputs) -> bytes:
        rr, result = outputs
        bounds_hold("round-robin", rr)
        bounds_hold("old-go-first", result.metrics)
        return (rr.rounds_csv() + rr.deliveries_csv()).encode() + _ogf_bytes(result)

    return [Op("k6-1/2:1:3-t2-1000", 2 * n * horizon, run, check)]


# -- ogf-sparse ---------------------------------------------------------------

def build_sparse(seed: int) -> list[Op]:
    """Random connected graphs with average degree about 4, oracle gossip
    with S(n) = n, 1/8:1:2 generated at half rate, strict OGF for 10u."""
    rng = random.Random(seed)
    adv = AdversaryType(Fraction(1, 8), 1, 2)
    gen_adv = AdversaryType(Fraction(1, 16), 1, 2)
    ops = []
    for n, p in ((40, 0.05), (80, 0.03), (160, 0.015)):
        net = network.make_random_connected(n, p, rng.randrange(10**9))
        ops.append(_strict_ogf_op(f"random{n}", net, adv, gen_adv,
                                  GossipConfig.oracle(n), rng.randrange(10**9),
                                  SPARSE_WINDOWS, 1))
    return ops


# -- sls-bruteforce -----------------------------------------------------------

def _sls_op(label: str, net, tours: list[Tour]) -> Op:
    """C1: brute-force SLS optimum equals the chromatic number, and the
    greedy coloring's schedule delivers every tour."""

    def run():
        cg = conflict.build_conflict_graph(net, tours)
        chi = coloring.exact_chromatic(cg)
        t_opt = coloring.optimal_sls_length(net, tours)
        greedy = coloring.greedy_color(cg)
        schedule = coloring.schedule_from_coloring(greedy, cg)
        return chi, t_opt, greedy, schedule, coloring.verify_schedule(net, tours, schedule)

    def check(outputs) -> bytes:
        chi, t_opt, greedy, schedule, delivered = outputs
        if chi != t_opt:
            raise CheckFailed(f"{label}: chromatic number {chi} != SLS optimum {t_opt}")
        if not delivered:
            raise CheckFailed(f"{label}: greedy schedule fails under the hearing rule")
        if greedy.num_colors < chi:
            raise CheckFailed(f"{label}: greedy used {greedy.num_colors} < chi = {chi} colors")
        return f"{chi} {t_opt} {sorted(schedule.assignment.items())}\n".encode()

    return Op(label, None, run, check)


def build_sls(seed: int) -> list[Op]:
    """C1-style one-link instances: n <= 8 nodes, 6 to 10 tours each.

    The same number of instances is drawn for every (tours, n) pair, so
    that the seed changes the instances but barely the mix of sizes that
    the brute-force search's cost depends on.
    """
    rng = random.Random(seed)
    ops = []
    for count in range(6, 11):
        for n in range(2, 9):
            for i in range(SLS_PER_SIZE):
                net = network.make_random_connected(n, rng.random(), rng.randrange(10**9))
                edges = sorted(net.edges)
                tours = []
                for tid in range(1, count + 1):
                    u, v = rng.choice(edges)
                    if rng.random() < 0.5:
                        u, v = v, u
                    tours.append(Tour(tid, 1, (u, v)))
                ops.append(_sls_op(f"sls-{count}tours-n{n}-{i}", net, tours))
    return ops


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "ogf-matrix": build_matrix,
    "saturation-clique": build_saturation,
    "ogf-sparse": build_sparse,
    "sls-bruteforce": build_sls,
}


def digest(outputs: list[bytes]) -> str:
    """Digest of one pass: the hash of every op's output, in op order."""
    h = hashlib.sha256()
    for out in outputs:
        h.update(hashlib.sha256(out).digest())
    return h.hexdigest()
