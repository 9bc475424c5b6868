"""Adversarial traffic: types, load accounting, admissibility, generators.

An adversary of type (rho, b, L) may inject tours of path length at most
L such that, for every node v and every time interval tau, the number of
tours injected during tau that v conflicts with is at most
rho*|tau| + b, where |tau| counts the rounds of tau inclusively.

rho is kept as an exact Fraction so admissibility never depends on
floating-point rounding.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Collection

from .conflict import (Tour, _path_conflict_nodes, conflict_node_set, format_tour,
                       parse_tour_line, validate_tour)
from .network import Network, _lines, make_clique


class AdversaryError(ValueError):
    """Raised for invalid adversary types, traces or generator parameters."""


class Balance(Enum):
    BALANCED = "balanced"
    UNBALANCED = "unbalanced"
    CRITICAL = "critical"


@dataclass(frozen=True)
class AdversaryType:
    """Injection rate rho, burstiness b, stretch L."""

    rho: Fraction
    b: int
    L: int

    def __post_init__(self):
        object.__setattr__(self, "rho", Fraction(self.rho))
        if not 0 <= self.rho <= 1:
            raise AdversaryError(f"rho must be in [0, 1], got {self.rho}")
        if self.b < 1:
            raise AdversaryError(f"burstiness must be >= 1, got {self.b}")
        if self.L < 1:
            raise AdversaryError(f"stretch must be >= 1, got {self.L}")

    @classmethod
    def parse(cls, text: str) -> "AdversaryType":
        """Parse `<num>/<den>:<b>:<L>` (also accepts a bare integer rate)."""
        try:
            rho_s, b_s, l_s = text.split(":")
            rho = Fraction(rho_s)
            return cls(rho, int(b_s), int(l_s))
        except (ValueError, ZeroDivisionError) as exc:
            raise AdversaryError(f"bad adversary spec {text!r}: {exc}") from None

    def __str__(self) -> str:
        return f"{self.rho.numerator}/{self.rho.denominator}:{self.b}:{self.L}"


def classify(adv: AdversaryType) -> Balance:
    """Balanced iff rho*L < 1, unbalanced iff > 1, critical iff exactly 1."""
    product = adv.rho * adv.L
    if product < 1:
        return Balance.BALANCED
    if product > 1:
        return Balance.UNBALANCED
    return Balance.CRITICAL


@dataclass(frozen=True)
class InjectionTrace:
    """Tours ordered by (injection_round, id); horizon is the last covered round."""

    injections: tuple[Tour, ...]
    horizon: int

    def __post_init__(self):
        tours = tuple(sorted(self.injections,
                             key=lambda f: (f.injection_round, f.id)))
        object.__setattr__(self, "injections", tours)
        ids = [f.id for f in tours]
        if len(set(ids)) != len(ids):
            raise AdversaryError("duplicate tour ids in trace")
        for f in tours:
            if f.injection_round < 1:
                raise AdversaryError(f"tour {f.id}: injection round must be >= 1")
        if tours and self.horizon < tours[-1].injection_round:
            raise AdversaryError("trace horizon precedes its last injection")

    def by_round(self) -> dict[int, list[Tour]]:
        grouped: dict[int, list[Tour]] = {}
        for f in self.injections:
            grouped.setdefault(f.injection_round, []).append(f)
        return grouped


class LoadLedger:
    """Per-node sorted lists of injection rounds of tours conflicting with
    that node."""

    def __init__(self, net: Network, trace: InjectionTrace):
        self.rounds: dict[int, list[int]] = {v: [] for v in net.nodes()}
        for f in trace.injections:
            validate_tour(net, f)
            for v in conflict_node_set(net, f):
                self.rounds[v].append(f.injection_round)
        for v in self.rounds:
            self.rounds[v].sort()


def node_load(ledger: LoadLedger, v: int, interval: tuple[int, int]) -> int:
    """Number of conflicting tours injected at node-v within [start, end]."""
    start, end = interval
    if start > end:
        raise AdversaryError(f"bad interval [{start}, {end}]")
    lst = ledger.rounds[v]
    return bisect_right(lst, end) - bisect_left(lst, start)


@dataclass(frozen=True)
class Violation:
    """Witness of an admissibility failure."""

    kind: str  # "stretch" or "load"
    node: int | None = None
    interval: tuple[int, int] | None = None
    load: int | None = None
    budget: Fraction | None = None
    tour_id: int | None = None

    def __str__(self) -> str:
        if self.kind == "stretch":
            return f"stretch violation: tour {self.tour_id} longer than allowed"
        return (f"load violation at node {self.node}, interval {self.interval}: "
                f"load {self.load} > budget {self.budget}")


class _LoadEnvelope:
    """Exact per-node (rho, b) load envelope in integers, with rho = p/q.

    A node's level is the maximum of q*load(tau) - p*|tau| over intervals
    tau ending at its last booked round r; other intervals are dominated,
    so the node is within rho*|tau| + b iff level <= q*b.  It is kept as the
    height h = level + p*r, which an untouched node need not update: booking
    c tours in round r is Kadane's step h = max(h, p*(r - 1)) + q*c, also
    when r repeats, and the budget holds iff h <= p*r + q*b.  The maximising
    interval starts at `start`, which moves to r when max picks p*(r - 1),
    and holds q*load = h - p*(start - 1)."""

    def __init__(self, adv: AdversaryType):
        self.p, self.q = adv.rho.numerator, adv.rho.denominator
        self.cap = self.q * adv.b
        self.height: dict[int, int] = {}
        self.start: dict[int, int] = {}

    def add(self, r: int, counts: dict[int, int]) -> list[int]:
        """Book counts[v] tours at each node v in round r; return those over budget."""
        height, start, q = self.height, self.start, self.q
        floor, top = self.p * (r - 1), self.p * r + self.cap
        over = []
        for v, c in counts.items():
            h = height.get(v, 0)
            if h <= floor:
                h = floor
                start[v] = r
            height[v] = h = h + q * c
            if h > top:
                over.append(v)
        return over

    def admit(self, nodes: Collection[int], r: int) -> bool:
        """Book one tour in round r at each of `nodes`, as `add` would, if
        each has h <= p*r + q*b - q (p*(r - 1) is never more, as b >= 1);
        else book nothing and return False."""
        height, q, floor = self.height, self.q, self.p * (r - 1)
        get, room = height.get, self.p * r + self.cap - q
        for v in nodes:
            if get(v, 0) > room:
                return False
        for v in nodes:
            h = get(v, 0)
            if h <= floor:
                h = floor
                self.start[v] = r
            height[v] = h + q
        return True

    def witness(self, v: int, r: int) -> Violation:
        start = self.start[v]
        return Violation("load", node=v, interval=(start, r),
                         load=(self.height[v] - self.p * (start - 1)) // self.q,
                         budget=Fraction(self.p * (r - start + 1) + self.cap,
                                         self.q))


def verify_admissible(net: Network, trace: InjectionTrace,
                      adv: AdversaryType) -> Violation | None:
    """None if the trace is admissible for the type, else a witness.

    One pass over the rounds through the load envelope, booking each round
    once it is complete, so a witness counts every tour of its end round and
    names the least node then over budget.  Each distinct path's conflict
    set is built once per call."""
    for f in trace.injections:
        validate_tour(net, f)
        if f.length > adv.L:
            return Violation("stretch", tour_id=f.id)
    envelope = _LoadEnvelope(adv)
    conflict_nodes: dict[tuple[int, ...], frozenset[int]] = {}  # by path
    for r, tours in trace.by_round().items():
        counts: dict[int, int] = {}
        for f in tours:
            nodes = conflict_nodes.get(f.path)
            if nodes is None:
                nodes = conflict_nodes[f.path] = conflict_node_set(net, f)
            for v in nodes:
                counts[v] = counts.get(v, 0) + 1
        over = envelope.add(r, counts)
        if over:
            return envelope.witness(min(over), r)
    return None


def verify_admissible_all_intervals(net: Network, trace: InjectionTrace,
                                    adv: AdversaryType) -> Violation | None:
    """Brute-force reference: checks every interval [a, b] up to trace.horizon.

    Slow; kept as the oracle the fast verifier is tested against.
    """
    for f in trace.injections:
        validate_tour(net, f)
        if f.length > adv.L:
            return Violation("stretch", tour_id=f.id)
    ledger = LoadLedger(net, trace)
    for v in net.nodes():
        for a in range(1, trace.horizon + 1):
            for b_end in range(a, trace.horizon + 1):
                load = node_load(ledger, v, (a, b_end))
                budget = adv.rho * (b_end - a + 1) + adv.b
                if load > budget:
                    return Violation("load", node=v, interval=(a, b_end),
                                     load=load, budget=budget)
    return None


def gen_balanced(net: Network, adv: AdversaryType, seed: int, horizon: int,
                 attempts_per_round: int = 1) -> InjectionTrace:
    """Greedy admissible traffic: random candidate tours admitted whenever
    every conflicting node's budget allows.  Deterministic in all arguments;
    the output always passes verify_admissible.

    Each attempt draws a path length in [1, L] and a start node, then walks
    to a random unvisited neighbor (from the sorted neighbor list) until
    the path has that many links or meets a dead end.  A walk that stays at
    its start is dropped; any other candidate becomes a `Tour`, under the
    next free id, only if it is admitted.  Apart from the random draws, an
    attempt costs its walk and one height lookup per conflict node (built
    once per distinct path and call), and an admitted one its booking.

    Each uniform index below m is drawn as CPython's `randrange` and
    `choice` draw it: `getrandbits(m.bit_length())`, redrawn while it is
    m or more.  So the draws, and the trace, are those of
    `randrange(1, L + 1)`, `randrange(1, n + 1)` and `choice(options)`, at
    one Python call each.
    """
    if classify(adv) is not Balance.BALANCED:
        raise AdversaryError(f"gen_balanced needs a balanced type, got {adv}")
    if horizon < 0:
        raise AdversaryError(f"horizon must be >= 0, got {horizon}")
    if attempts_per_round < 0:
        raise AdversaryError(
            f"attempts per round must be >= 0, got {attempts_per_round}")
    getrandbits = random.Random(seed).getrandbits

    def below(m: int) -> int:
        k = m.bit_length()
        i = getrandbits(k)
        while i >= m:
            i = getrandbits(k)
        return i

    neighbors = {v: sorted(net._adj[v]) for v in net.nodes()}
    envelope = _LoadEnvelope(adv)
    # each distinct candidate path's conflict nodes, as a tuple: smaller than a set
    conflict_nodes: dict[tuple[int, ...], tuple[int, ...]] = {}
    tours: list[Tour] = []
    for r in range(1, horizon + 1):
        for _ in range(attempts_per_round):
            links = below(adv.L) + 1
            v = below(net.n) + 1
            path = [v]
            options = neighbors[v]  # no node neighbors itself
            while options:
                v = options[below(len(options))]
                path.append(v)
                if len(path) > links:
                    break
                options = [u for u in neighbors[v] if u not in path]
            if len(path) > 1:
                path = tuple(path)
                nodes = conflict_nodes.get(path)
                if nodes is None:
                    nodes = conflict_nodes[path] = tuple(_path_conflict_nodes(net, path))
                if envelope.admit(nodes, r):
                    tours.append(Tour(len(tours) + 1, r, path))
    return InjectionTrace(tuple(tours), horizon)


def _clique_quota(adv: AdversaryType, t: int) -> int:
    """The floor(rho*t) tours gen_unbalanced_clique injects in each complete
    interval of t rounds; the first interval carries b more."""
    return math.floor(adv.rho * t)


def gen_unbalanced_clique(adv: AdversaryType, n: int, t: int,
                          horizon: int) -> tuple[Network, InjectionTrace]:
    """Saturating trace on the n-clique for an unbalanced adversary.

    The first interval of t rounds carries floor(rho*t) + b tours, each
    later complete interval floor(rho*t), every tour a simple path of
    exactly L links; injections are spread so the trace stays admissible.
    """
    if classify(adv) is not Balance.UNBALANCED:
        raise AdversaryError(f"need an unbalanced type (rho*L > 1), got {adv} "
                             f"with rho*L = {adv.rho * adv.L}")
    if n <= adv.L:
        raise AdversaryError(f"need n > L, got n={n}, L={adv.L}")
    # L*rho*t >= L*floor(rho*t) >= t + 1, so one check covers both forms
    per_interval = _clique_quota(adv, t)
    if adv.L * per_interval <= t:
        raise AdversaryError(f"need L*floor(rho*t) > t, hence (L*rho - 1)*t >= 1, "
                             f"got t={t} for {adv}")
    if horizon < 0:
        raise AdversaryError(f"horizon must be >= 0, got {horizon}")

    net = make_clique(n)
    envelope = _LoadEnvelope(adv)
    # on a clique every tour conflicts with every node: node 1 stands for all
    tours: list[Tour] = []
    for k in range(1, horizon // t + 1):
        quota = per_interval + (adv.b if k == 1 else 0)
        for r in range((k - 1) * t + 1, k * t + 1):
            while quota and envelope.admit((1,), r):
                start = len(tours)
                path = tuple((start + i) % n + 1 for i in range(adv.L + 1))
                tours.append(Tour(start + 1, r, path))
                quota -= 1
    return net, InjectionTrace(tuple(tours), horizon)


def format_trace(adv: AdversaryType, trace: InjectionTrace) -> str:
    """Header `adv <num>/<den> <b> <L>` then tour lines sorted by round."""
    lines = [f"adv {adv.rho.numerator}/{adv.rho.denominator} {adv.b} {adv.L}"]
    lines.extend(format_tour(f) for f in trace.injections)
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> tuple[AdversaryType, InjectionTrace]:
    """Parse the trace text format; `#` lines are comments.

    The parsed horizon is the last injection round (the file format does
    not carry an explicit horizon).
    """
    adv = None
    tours = []
    for lineno, line in _lines(text):
        parts = line.split()
        if parts[0] == "adv":
            if adv is not None:
                raise AdversaryError(f"line {lineno}: repeated `adv` header line")
            if len(parts) != 4:
                raise AdversaryError(f"line {lineno}: expected `adv <rho> <b> <L>`")
            try:
                adv = AdversaryType(Fraction(parts[1]), int(parts[2]), int(parts[3]))
            except (ValueError, ZeroDivisionError) as exc:
                raise AdversaryError(f"line {lineno}: {exc}") from None
        elif parts[0] == "t":
            tours.append(parse_tour_line(line, lineno))
        else:
            raise AdversaryError(f"line {lineno}: unknown record {parts[0]!r}")
    if adv is None:
        raise AdversaryError("missing `adv` header line")
    horizon = max((f.injection_round for f in tours), default=0)
    return adv, InjectionTrace(tuple(tours), horizon)
