"""Old-Go-First: windowed routing with bounded latency under balanced traffic.

Time is split into fixed windows of w rounds.  Tours injected during a
window are "new" there and become "old" when the next window starts.
Each window spends a gossip phase collecting every node's old tours,
then colors the old tours' conflict graph with Delta+1 colors and runs
super-rounds in which color i transmits in round i.  Every old tour
advances one hop per super-round, is always heard (same-colored tours
never conflict), and is delivered within the window.  With
w = u = ceil((S(n) + b*L) / (1 - rho*L)) every tour's latency is at most
2u against a balanced (rho, b, L) adversary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from . import engine
from .adversary import (AdversaryType, Balance, InjectionTrace, classify,
                        verify_admissible)
from .coloring import Coloring, greedy_color
from .conflict import Tour, build_conflict_graph, max_degree
from .engine import (LISTEN, Action, Message, Metrics, NodeState,
                     RoutingAlgorithm)
from .network import Network


class OgfError(ValueError):
    """Raised for precondition violations (GuaranteeError for broken
    routing guarantees)."""


class GuaranteeError(OgfError):
    """A routing guarantee broke: per-color residency in a round, phase-2
    hearing over a run, or window fit, 2w latency or the queue bound over a
    strict run."""


class WindowOverflowError(GuaranteeError):
    """A window's old-tour set does not fit its gossip + super-round budget."""


@dataclass(frozen=True)
class GossipConfig:
    """How phase 1 collects old tours.

    tdma: node ((r-1) mod n)+1 owns phase-round r, in which it transmits
    the rumors it learned since its previous transmission, as a snapshot
    dict that its hearers only read, and listens if there are none; n-1
    sweeps of n rounds, so S(n) = n*(n-1).  It is the round's only
    possible transmitter, so each neighbor hears all its payloads, which
    together hold its whole rumor set.  oracle: knowledge is shared
    instantaneously at phase start while a configurable S(n) rounds
    still elapse (a measurement mode for studying other gossip costs).  The
    oracle's knowledge is the union of every node's own window-start
    snapshot.  A node whose queue is empty contributes nothing to it, so an
    Old-Go-First node with an empty queue may sleep through window starts;
    every node that holds a tour acts in its window's first round.
    """

    mode: str
    s_n: int | None = None

    def __post_init__(self):
        if self.mode not in ("tdma", "oracle"):
            raise OgfError(f"unknown gossip mode {self.mode!r}")
        if self.mode == "oracle" and (self.s_n is None or self.s_n < 1):
            raise OgfError("oracle gossip needs S_n >= 1")
        if self.mode == "tdma" and self.s_n is not None:
            raise OgfError(f"tdma gossip takes no S_n, got {self.s_n}")

    @classmethod
    def tdma(cls) -> "GossipConfig":
        return cls("tdma")

    @classmethod
    def oracle(cls, s_n: int) -> "GossipConfig":
        return cls("oracle", s_n)

    def rounds(self, n: int) -> int:
        return n * (n - 1) if self.mode == "tdma" else self.s_n


def compute_window_bound(adv: AdversaryType, s_n: int) -> int:
    """u = ceil((S(n) + b*L) / (1 - rho*L)), in exact rational arithmetic.

    u satisfies S(n) + (rho*u + b)*L <= u, the window feasibility bound.
    """
    denom = 1 - adv.rho * adv.L
    if denom <= 0:
        raise OgfError(f"window bound undefined: rho*L = {adv.rho * adv.L} >= 1")
    return math.ceil(Fraction(s_n + adv.b * adv.L) / denom)


def gossip_action(state: NodeState, offset: int) -> Action:
    """Phase-1 action: offset o (0-based) belongs to node (o mod n) + 1,
    which sends a snapshot (a copy) of the rumors it learned since its
    previous transmission, so later changes to its own dict do not reach
    the payload.  A rumor dict only grows within a window, and a tour id
    names one rumor at every node, so these rumors are the dict's tail past
    the count `memory["sent"]` (0 when absent), which the send updates.
    A node whose tail is empty listens in its offset: an empty payload
    would teach no hearer anything."""
    if state.name != offset % state.n + 1:
        return LISTEN
    memory = state.memory
    rumors, sent = memory["rumors"], memory.get("sent", 0)
    if sent == len(rumors):
        return LISTEN
    memory["sent"] = len(rumors)
    return Message(control=dict(islice(rumors.items(), sent, None)))


def merge_gossip(state: NodeState, message: Message) -> None:
    """Merge the rumors of a heard phase-1 message, the sender's rumors new
    since its previous transmission, into the node's own.  The payload is
    only read, since every hearer of a transmission gets the same one; a
    snapshot dict merges dict to dict, and any iterable of (tour id, rumor)
    pairs is accepted too."""
    state.memory["rumors"].update(message.control)


def tdma_gossip(net: Network, rumors: dict[int, dict]) -> dict[int, dict]:
    """Run TDMA phase 1 alone for S(n) rounds through the hearing rule, from
    node v's starting rumor dict `rumors[v]`; returns each node's final one.
    As in `engine.run`, an offset whose owner has nothing new to send is
    silent everywhere and skips the hearing rule."""
    states = {v: NodeState(v, net.n, memory={"rumors": dict(rumors[v])})
              for v in net.nodes()}
    for offset in range(GossipConfig.tdma().rounds(net.n)):
        sending = {v: a for v, state in states.items()
                   if (a := gossip_action(state, offset)) is not LISTEN}
        if not sending:
            continue
        for v, out in engine.step(net, sending).items():
            if isinstance(out, engine.Heard):
                merge_gossip(states[v], out.message)
    return {v: state.memory["rumors"] for v, state in states.items()}


@dataclass(frozen=True)
class WindowPlan:
    """Deterministic per-window routing plan, identical at every node.

    Colors are assigned to the old tours' *remaining* paths (from each
    tour's current position), which coincide with the full paths in
    normal operation where every old tour sits at its source.
    """

    l_prime: int
    delta: int
    coloring: Coloring

    @property
    def phase2_length(self) -> int:
        return self.l_prime * (self.delta + 1)


def plan_window(net: Network, old_tours: list[Tour]) -> WindowPlan:
    """Build the window plan: longest old tour, conflict-graph degree, and a
    first-fit coloring in ascending tour id order."""
    cg = build_conflict_graph(net, old_tours)
    l_prime = max((f.length for f in old_tours), default=0)
    delta = max_degree(cg)
    coloring = greedy_color(cg)
    return WindowPlan(l_prime, delta, coloring)


@dataclass
class WindowStats:
    index: int
    old_count: int
    l_prime: int
    delta: int
    phase2_length: int
    truncated: bool


class OldGoFirst(RoutingAlgorithm):
    """The windowed transmission policy as a pluggable routing algorithm.

    A window whose old set does not fit S(n) + L'*(Delta+1) <= w is logged
    `truncated`: phase 2 stops at the window boundary, and leftover old
    tours (with their current positions) carry into the next window's
    plan.  That lets the saturation experiments run on overloaded
    networks; strict `run_ogf` reports the first such window after the run.

    Planning consults the shared topology: every node runs the identical
    deterministic computation on identical gossiped knowledge, so no
    coordination messages are needed beyond the rumors themselves.  So a
    window is planned once: a node whose rumor dict equals the recorded one
    reuses its plan; any other node plans and becomes the record.  `window_log`
    gets one entry per plan made, one per window under complete gossip.

    A node sleeps (`NodeState.wake`) through rounds in which it can only
    listen.  In phase 1 an oracle node sleeps to S(n), and so does a TDMA
    node with no unsent rumor, which would listen in its transmit offsets;
    a TDMA node that holds one sleeps to its next transmit offset, which
    `memory["slot"]` keeps (or to S(n) if none is left).  In phase 2, color
    i sends in round i of each super-round, so a node acts only in the
    color rounds of its resident old tours: after each call it sleeps to
    the next phase-2 round in this window whose color holds one, other
    than the tour it sends now, and to the window's end if there is none.
    So a node acts at offset 0 of every window (the snapshot) and at offset
    S(n) (the plan), except under oracle gossip a node other than node 1
    whose queue is empty, or is emptied by the tour it sends: it sleeps
    until a tour joins its queue (`wake` is `math.inf`).  Node 1 plans
    every window, so `window_log` has an entry for each window that reaches
    its plan round.  A node that slept through a window start held no tour
    there, so its first `on_round` in the window installs an empty
    snapshot, and a tour that woke it is settled under this window's plan;
    `memory["window"]` is the index of the window whose snapshot the node
    holds.  The engine wakes a node only when a tour joins its queue, so
    what the node only overhears leaves it asleep: a TDMA payload that
    leaves it with nothing unsent, and a phase-2 tour whose next hop is
    another node or which ends here.  A payload that leaves it an unsent
    rumor sets `wake` to `memory["slot"]`; if the node slept through that
    slot, it acts in the next round, which finds its next one.  Residency
    changes only when a tour arrives, which wakes the node, so its check
    still fires in the round it would fire without sleeping.

    A node scans its queue for its old tours once per window, when it
    installs the plan, and keeps them in `memory["resident"]` by color.
    From then on only the phase-2 tours sent to it and the one it sent can
    have changed it: `memory["moved"]` collects them, and the next
    `on_round` settles each against the queue.  So the phase-2 action is a
    dict lookup and the sleep rule at most Delta of them, and an arrival
    that breaks per-color residency raises there, as a fresh scan would.
    """

    def __init__(self, net: Network, window_length: int, gossip: GossipConfig):
        if window_length < 1:
            raise OgfError(f"window length must be >= 1, got {window_length}")
        self.net = net
        self.w = window_length
        self.gossip = gossip
        self.s_n = gossip.rounds(net.n)
        if self.s_n >= window_length:
            raise OgfError(
                f"window length {window_length} leaves no room after "
                f"S(n) = {self.s_n} gossip rounds")
        self.window_log: list[WindowStats] = []
        # (window index, rumor dict, the plan made from it); under oracle
        # gossip `_snapshot` fills the window's shared union with plan None
        self._window: tuple[int, dict, WindowPlan | None] = (0, {}, None)

    # -- window bookkeeping ------------------------------------------------

    def _snapshot(self, state: NodeState, window_index: int, window_start: int,
                  late: bool) -> None:
        """Freeze this node's old tours (anything injected before the window)
        as its initial rumor set, each as the tour that remains from here (at
        its source, the queued tour itself), none of them sent yet; drop last
        window's knowledge.  A `late` snapshot, taken after the window start
        by a node that slept through it with an empty queue, is empty.
        Under oracle gossip the rumor set is the window's shared union,
        which every node extends with its own snapshot."""
        rumors = {} if late else {
            tid: f if f.path[0] == state.name else
            Tour(tid, f.injection_round, f.path[f.path.index(state.name):])
            for tid, f in state.queue.items() if f.injection_round < window_start}
        if self.gossip.mode == "oracle":
            index, union, _ = self._window
            if index != window_index:
                union = {}
                self._window = (window_index, union, None)
            union.update(rumors)
            rumors = union
        state.memory["rumors"] = rumors
        state.memory["sent"] = 0
        state.memory["plan"] = None
        state.memory["window"] = window_index

    def _resident(self, state: NodeState,
                  window_index: int) -> tuple[WindowPlan, dict[int, Tour]]:
        """The window's plan and the node's resident old tours by color, with
        each moved tour settled against the queue; at plan install every
        queued tour counts as moved, which makes this the one queue scan."""
        memory = state.memory
        if memory.get("plan") is None:
            self._ensure_plan(state, window_index)
            memory["resident"], memory["moved"] = {}, list(state.queue)
        plan, resident, moved = memory["plan"], memory["resident"], memory["moved"]
        assignment = plan.coloring.assignment
        for tid in moved:
            c = assignment.get(tid)
            if c is None:
                continue
            f, held = state.queue.get(tid), resident.get(c)
            if f is None:
                if held is not None and held.id == tid:
                    del resident[c]  # sent, and heard by its next hop
            elif held is None:
                resident[c] = f  # arrived
            elif held.id != tid:
                raise GuaranteeError(
                    f"node {state.name}: tours {held.id} and {tid} both resident "
                    f"with color {c}; per-color residency invariant violated")
        moved.clear()
        return plan, resident

    def _ensure_plan(self, state: NodeState, window_index: int) -> None:
        rumors = state.memory.get("rumors", {})
        index, planned_from, plan = self._window
        if plan is None or index != window_index or rumors != planned_from:
            plan = plan_window(self.net, list(rumors.values()))
            self.window_log.append(WindowStats(
                window_index, len(rumors), plan.l_prime, plan.delta,
                plan.phase2_length, self.s_n + plan.phase2_length > self.w))
            # no one mutates the recorded dict after the plan round: phase-2
            # messages carry no control, and the next snapshot assigns a new dict
            self._window = (window_index, rumors, plan)
        state.memory["plan"] = plan

    # -- routing interface ---------------------------------------------------

    def on_round(self, state: NodeState, round_no: int) -> Action:
        offset = (round_no - 1) % self.w
        start = round_no - offset  # this window's first round
        index = (round_no - 1) // self.w + 1
        if state.memory.get("window") != index:
            self._snapshot(state, index, start, offset > 0)

        if offset < self.s_n:
            if self.gossip.mode == "oracle":
                action = LISTEN
                wake = start + self.s_n
            else:
                action = gossip_action(state, offset)
                # the node's next transmit offset, or the plan round; with
                # nothing unsent it sleeps to the plan round, and `on_hear`
                # brings the slot back once a heard payload gives it news
                memory = state.memory
                nxt = offset + (state.name - 2 - offset) % state.n + 1
                slot = memory["slot"] = start + min(nxt, self.s_n)
                wake = (slot if memory["sent"] < len(memory["rumors"])
                        else start + self.s_n)
        else:
            plan, resident = self._resident(state, index)
            # phase-2 offset o lies in super-round o // (delta+1) + 1 at color
            # round o % (delta+1) + 1, where the node holding the old tour of
            # that color sends it; a truncated phase 2 ends at the window
            # boundary, w - S(n) offsets in
            o = offset - self.s_n
            colors = plan.delta + 1
            end = min(plan.phase2_length, self.w - self.s_n)
            f = resident.get(o % colors + 1) if o < end else None
            if f is None:
                action = LISTEN
            else:
                action = Message(tour=f)
                state.memory["moved"].append(f.id)
            # sleep to the next round whose color holds a resident old tour:
            # the scan stops after one super-round, where only f's color
            # would come back, and f leaves in this round
            wake = start + self.w
            for p in range(o + 1, min(end, o + colors)):
                if p % colors + 1 in resident:
                    wake = start + self.s_n + p
                    break
        if (len(state.queue) == (action is not LISTEN)
                and self.gossip.mode == "oracle" and state.name != 1):
            # nothing to snapshot or send until a tour comes; oracle phase 1
            # listens, so a sent action is the queue's last tour leaving
            wake = math.inf
        state.wake = wake
        return action

    def on_hear(self, state: NodeState, sender: int, message: Message) -> None:
        # all nodes run this policy: phase-1 messages carry control only,
        # phase-2 ones a tour only.  Only rumors left unsent, which bring
        # back its transmit slot, or a tour that joins its queue, for which
        # the engine wakes it, can change what this node does.
        memory = state.memory
        f = message.tour
        if message.control is not None:
            merge_gossip(state, message)
            if memory["sent"] < len(memory["rumors"]):
                state.wake = memory["slot"]
        elif f is not None:
            path = f.path
            i = path.index(sender) + 1
            if path[i] == state.name and i < len(path) - 1:
                memory.setdefault("moved", []).append(f.id)


@dataclass
class OgfResult:
    """run_ogf output: engine metrics plus per-window planning stats.

    `invariant_checks` is derived, not counted: n times the rounds whose
    window offset is at least S(n).  Per-color residency holds in each of
    them: a node scans its queue when it installs the window's plan (at the
    plan round, or, if it slept through that with an empty queue, when a
    tour wakes it), and afterwards its residency changes only when an old
    tour arrives or leaves, which its next `on_round` settles, and an
    arrival wakes the node for that round.
    """

    metrics: Metrics
    u: int | None
    s_n: int
    w: int
    windows: list[WindowStats]
    invariant_checks: int


def run_ogf(net: Network, adv: AdversaryType, gossip: GossipConfig,
            trace: InjectionTrace, horizon: int,
            window_override: int | None = None, strict: bool = True) -> OgfResult:
    """Run Old-Go-First for `horizon` rounds against the trace.

    Per-color residency is checked in every round.  After the run, in
    either mode, the first hop in the engine's record of missed hops
    (`Metrics.missed_hops`) raises: every phase-2 transmission must be
    heard by its next hop.  strict mode also checks the preconditions
    (balanced type, admissible trace, w >= u) before the run, and after
    the hearing verdict, from the run's record and in this order: no window
    was truncated, no tour took over 2w rounds (to delivery, or undelivered
    to the horizon), and no end-of-round queue exceeds floor(2*rho*w + b),
    as a tour queued at the end of round t was injected in [t - 2w + 1, t].
    """
    s_n = gossip.rounds(net.n)
    u = None
    if classify(adv) is Balance.BALANCED:
        u = compute_window_bound(adv, s_n)
    if strict:
        if u is None:
            raise OgfError(f"Old-Go-First requires a balanced adversary, got "
                           f"{adv} with rho*L = {adv.rho * adv.L}")
        violation = verify_admissible(net, trace, adv)
        if violation is not None:
            raise OgfError(f"trace is not admissible for {adv}: {violation}")
    w = window_override if window_override is not None else u
    if w is None:
        raise OgfError("window override is required when the type is not balanced")

    alg = OldGoFirst(net, w, gossip)
    if strict and w < u:
        # the 2w latency argument needs (1 - rho*L)*w >= S(n) + b*L
        raise OgfError(f"strict window must be >= u = {u}, got {w}")
    metrics = engine.run(net, alg, trace, horizon)
    if metrics.missed_hops:
        r, v, f, nxt, out = metrics.missed_hops[0]
        raise GuaranteeError(f"round {r}: tour {f.id} transmitted by node {v} "
                             f"was not heard by its next hop {nxt} ({out!r})")
    if strict:
        for stats in alg.window_log:
            if stats.truncated:
                raise WindowOverflowError(
                    f"window {stats.index}: S(n) + L'*(Delta+1) = "
                    f"{s_n} + {stats.l_prime}*{stats.delta + 1} > w = {w}")
        for d in metrics.deliveries:
            if d.latency > 2 * w:
                raise GuaranteeError(
                    f"tour {d.tour_id}: latency {d.latency} exceeds 2w = {2 * w}")
        delivered = {d.tour_id for d in metrics.deliveries}
        for f in trace.injections:
            if f.id not in delivered and horizon - f.injection_round > 2 * w:
                raise GuaranteeError(f"tour {f.id}: undelivered at horizon {horizon}, "
                                     f"over 2w = {2 * w} rounds after injection")
        p, q = adv.rho.numerator, adv.rho.denominator
        bound = (2 * p * w + adv.b * q) // q  # floor(2*rho*w + b)
        for r, size in enumerate(metrics.max_queue_per_round, start=1):
            if size > bound:
                raise GuaranteeError(
                    f"round {r}: largest queue {size} exceeds bound {bound}")
    # rounds 1..horizon whose window offset is >= S(n), per node
    plan_rounds = horizon // w * (w - s_n) + max(0, horizon % w - s_n)
    return OgfResult(metrics=metrics, u=u, s_n=s_n, w=w,
                     windows=alg.window_log,
                     invariant_checks=net.n * plan_rounds)
