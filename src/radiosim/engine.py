"""Synchronous round-based simulation with the radio hearing rule.

Each round every node either transmits one `Message` or listens.  A
listening node hears a message iff exactly one of its neighbors
transmits in that round; with two or more transmitting neighbors the
messages collide.  A transmitting node hears nothing.

The engine owns ground truth: queues, packet movement, deliveries and
metrics.  A queue holds `Tour`s, and a tour's position is its holder's
index on the tour's simple path, so no position is stored.  A routing
algorithm acts through two hooks: `on_round` picks a node's action from
its local state, and `on_hear` receives what the node hears.

A node may sleep.  `on_round` may set `NodeState.wake` to the next round
in which the node needs to act (`math.inf`: none until woken); until then
`run` does not call `on_round` for it and the node listens.  A node wakes
when a tour joins its queue: an injection at the node, or a tour that it
hears from the node before it on the tour's path, resets `wake` to 0 (the
latter after `on_hear`), so the node acts again in the next round that
reaches it.  Hearing alone leaves `wake` as it is, though `on_hear` may
set it.  A node that never sets `wake` acts in every round.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import insort
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, NoReturn

from .conflict import Tour, validate_tour
from .network import Network


class EngineError(ValueError):
    """Raised for invalid actions or malformed runs."""


@dataclass(frozen=True, slots=True)
class Message:
    """A transmission, and the action of a node that transmits: at most one
    tour from the sender's queue, forwarded one hop along its path, plus
    optional control payload.

    Gossip-style control messages set `tour` to None.
    """

    tour: Tour | None = None
    control: object = None


class _Token:
    """A bare action or outcome: LISTEN, SILENCE or COLLISION."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


LISTEN = _Token("LISTEN")
SILENCE = _Token("SILENCE")
COLLISION = _Token("COLLISION")

Action = _Token | Message


@dataclass(frozen=True, slots=True)
class Heard:
    sender: int
    message: Message


Outcome = Heard | _Token
RoundOutcome = dict[int, Outcome]

# `step` builds each `Heard` through these (see its "Cost:" paragraph).
_new = object.__new__
_set_sender = Heard.sender.__set__
_set_message = Heard.message.__set__


def _reject(net: Network, actions: dict[int, Action]) -> NoReturn:
    """Raise the error of a malformed action map, in node order."""
    for v in net.nodes():
        a = actions.get(v, LISTEN)
        if a is not LISTEN and not isinstance(a, Message):
            raise EngineError(f"node {v}: invalid action {a!r}")
    extra = sorted(set(actions) - set(net.nodes()))
    raise EngineError(f"actions for unknown nodes {extra}")


def step(net: Network, actions: dict[int, Action]) -> RoundOutcome:
    """Apply the hearing rule to one round, given by its transmissions.

    `actions` maps each transmitting node to its `Message`; a node absent
    from it, or mapped to LISTEN, listens.  A node hears iff it listens
    and exactly one of its neighbors transmits; it sees a collision iff it
    listens and two or more neighbors transmit; otherwise silence (a
    transmitter always gets silence).  The outcome holds every node, in
    node order.  All hearers of one transmitter share one frozen `Heard`.

    Cost: one C-level copy of the network's all-silence outcome, which
    the first call on the network builds, and one Python-level pass over
    the action map, in which each entry costs a lookup of its node and a
    transmitter its neighborhood.  The outcome is a new dict on every
    call, so a caller may mutate it.  A transmitter's first silent
    listening neighbor gets a new `Heard`, each later one the same object,
    and a neighbor that has heard another transmitter gets COLLISION.  The
    `Heard` is built through its slot descriptors, not its frozen
    dataclass `__init__`, which sets each field through
    `object.__setattr__` and costs about twice as much; the result is the
    same value (equal to `Heard(v, a)`, with the same hash and repr).  A
    malformed map is reported as a scan in node order meets it: the first
    node with an invalid action, else the unknown nodes.
    """
    adj = net._adj
    silent = net._silent
    if silent is None:
        silent = net._silent = dict.fromkeys(adj, SILENCE)
    outcome: RoundOutcome = silent.copy()
    for v, a in actions.items():
        nbrs = adj.get(v)
        if a is LISTEN and nbrs is not None:
            continue
        if nbrs is None or not isinstance(a, Message):
            _reject(net, actions)
        h = None
        for u in nbrs:
            if actions.get(u, LISTEN) is not LISTEN:
                continue
            out = outcome[u]
            if out is SILENCE:
                if h is None:
                    h = _new(Heard)
                    _set_sender(h, v)
                    _set_message(h, a)
                outcome[u] = h
            elif out is not COLLISION:
                outcome[u] = COLLISION
    return outcome


@dataclass
class NodeState:
    """Everything a routing algorithm may see for one node: its name, the
    network size, its queue (id -> `Tour`; the node lies on each tour's
    path, short of its end), a private scratch dict, and `wake`, the first
    round in which it needs to act again (0: every round)."""

    name: int
    n: int
    queue: dict[int, Tour] = field(default_factory=dict)
    memory: dict = field(default_factory=dict)
    wake: int = 0


class RoutingAlgorithm:
    """Distributed transmission policy interface with two hooks.

    `on_round(state, r)` returns the node's action for round r, once per
    node and round while the node is awake; `on_hear(state, sender,
    message)` delivers each message the node hears, asleep or not.  Both
    receive only the local NodeState, so inter-node information must flow
    through heard messages.

    `on_round` may set `state.wake` to a later round w to sleep: the node
    then listens, without a call, in every round before w, unless a tour
    joins its queue, by injection or by arrival, which resets `wake` to 0.
    `on_hear` may set `wake` too.  A node should therefore sleep only
    through rounds in which, with no tour joining its queue, it would
    listen, and wake itself from `on_hear` when what it hears changes that.
    This base class never sets `wake`, so its subclasses act in every round.
    """

    def on_round(self, state: NodeState, round_no: int) -> Action:
        return LISTEN

    def on_hear(self, state: NodeState, sender: int, message: Message) -> None:
        pass


class RoundRobin(RoutingAlgorithm):
    """Baseline: in round r the node (r mod n) + 1 transmits its oldest
    queued tour, the least by (injection round, id).  One global
    transmitter per round, hence collision-free.

    Node v acts only in its own slot, the rounds r with r mod n = v - 1.
    Called outside it, the node sleeps to its next slot; at its slot it
    sleeps to the slot after (r + n) once it sends, and to `math.inf` when
    its queue is empty, until a tour joins its queue.

    Its unsent tours wait in `memory["unsent"]`, a list sorted by
    (injection round, id).  A round-robin queue changes in two ways only:
    tours join at its end, by injection or arrival, and the tour the node
    sends leaves it in the round it is sent, since the node is that round's
    only transmitter and its next hop listens.  So the queue holds the
    list's tours followed by those that joined since the last send, and at
    its slot the node inserts the newest len(queue) - len(unsent) entries
    in order before it sends the first.
    """

    def on_round(self, state: NodeState, round_no: int) -> Action:
        slot = round_no + (state.name - 1 - round_no) % state.n
        if slot != round_no:
            state.wake = slot
            return LISTEN
        queue = state.queue
        if not queue:
            state.wake = math.inf
            return LISTEN
        unsent = state.memory.setdefault("unsent", [])
        for tour in islice(reversed(queue.values()), len(queue) - len(unsent)):
            insort(unsent, (tour.injection_round, tour.id, tour))
        state.wake = round_no + state.n
        return Message(tour=unsent.pop(0)[2])


@dataclass(frozen=True, slots=True)
class Delivery:
    tour_id: int
    injected: int
    delivered: int
    latency: int
    links: int


@dataclass
class Metrics:
    """Per-run record: deliveries and per-round timelines; `max_queue` is
    the largest end-of-round queue over all nodes and rounds.  `missed_hops`
    holds each sent tour that its next hop did not hear, as (round, sender,
    tour, next hop, the next hop's outcome), by round and then sender."""

    deliveries: list[Delivery] = field(default_factory=list)
    backlog: list[int] = field(default_factory=list)
    undelivered_hops: list[int] = field(default_factory=list)
    max_queue_per_round: list[int] = field(default_factory=list)
    injected_total: int = 0
    missed_hops: list[tuple[int, int, Tour, int, Outcome]] = field(default_factory=list)

    @property
    def max_queue(self) -> int:
        return max(self.max_queue_per_round, default=0)

    @property
    def delivered_total(self) -> int:
        return len(self.deliveries)

    @property
    def max_latency(self) -> int | None:
        return max((d.latency for d in self.deliveries), default=None)

    def final_backlog(self) -> int:
        return self.backlog[-1] if self.backlog else 0

    def rounds_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["round", "backlog", "undelivered_hops", "max_queue"])
        for i, (b, h, q) in enumerate(zip(self.backlog, self.undelivered_hops,
                                          self.max_queue_per_round), start=1):
            w.writerow([i, b, h, q])
        return buf.getvalue()

    def deliveries_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["tour_id", "injected", "delivered", "latency", "links"])
        for d in sorted(self.deliveries, key=lambda d: (d.delivered, d.tour_id)):
            w.writerow([d.tour_id, d.injected, d.delivered, d.latency, d.links])
        return buf.getvalue()


Observer = Callable[[int, dict[int, Message], RoundOutcome], None]


def run(net: Network, algorithm: RoutingAlgorithm, trace, horizon: int,
        observer: Observer | None = None) -> Metrics:
    """Run `horizon` rounds of the routing algorithm against an injection trace.

    Per round r:
    (1) put round r's injections into their source queues and wake the
        sources;
    (2) call `on_round` for each awake node (`r >= state.wake`) in node
        order; a sleeping node listens.  A sent tour must be the `Tour`
        object queued at the sender under its id, and its path must pass
        through the sender short of its end;
    (3) apply the hearing rule to the round's transmissions (`step`);
    (4) for each node that heard a message, in node order: pass the
        message to `on_hear`, and if the node follows the sender on a
        heard tour's path, move the tour one hop and record its delivery
        at its destination, or else queue it there and wake the node;
        then record each sent tour whose next hop did not hear it in
        `Metrics.missed_hops`, in node order of its sender;
    (5) settle the round, then append its backlog, undelivered hops and
        largest queue, and check conservation.
    Callbacks only act; the engine settles each round once, after the last
    hearer is served.  It settles each node of step (2), which include
    every injected source and every sender, and each node of step (4) whose
    `wake` or queue length changed there, by an arrival or by `on_hear`: no
    other node can have changed either.  Each of them whose final `wake`
    lies past the next round leaves the awake set for the bucket of its
    `wake` round, or for no bucket if that round is past the horizon, and
    any other stays awake; then its queue length updates the running
    backlog and count of nodes per queue size, so a callback that changes
    its own queue still breaks conservation in that round.  A bucket entry
    counts only if the node's `wake` still equals that round when it comes
    due; a node that falls asleep to one round twice has two entries, and
    the second adds it to the awake set again, which changes nothing.  A
    round in which no node is awake once its injections and
    due wakes are in is idle: the engine passes the observer an empty
    `sending` map and the shared silent outcome, appends the unchanged
    timelines and goes on to the next round.  Outside
    `step`, a round's Python-level work is proportional to its events: the
    awake nodes' callbacks, the transmitters' neighborhoods and the heard
    messages.  Step (3) calls `step`, whose C-level copy of its dense
    outcome costs O(n), only in a round with a transmitter: a round in
    which no node transmits has silence at every node and no hearer.  The
    benchmark's tracer counts node-rounds and radio events from `step`'s
    calls.  Fully deterministic.

    `observer(round, sending, outcome)` is called after step (3), in every
    round, with the message of each transmitting node and every node's
    outcome, in node order; tests and harnesses use it to watch rounds
    without touching queues.  A silent round passes an empty
    `sending` map and the all-SILENCE outcome that every silent round of
    the run shares, so an observer must treat the outcome as read-only.
    That outcome is the run's own dict, not the one `step` copies, so an
    observer that mutates it still changes no `step` outcome.
    """
    if horizon < 0:
        raise EngineError(f"horizon must be >= 0, got {horizon}")
    for tour in trace.injections:
        validate_tour(net, tour)

    by_round = trace.by_round()
    states = {v: NodeState(v, net.n) for v in net.nodes()}
    neighbors = {v: sorted(net._adj[v]) for v in states}  # each in node order

    metrics = Metrics()
    hops = 0  # links still to cross, over all queued tours
    backlog = 0  # tours queued, over all nodes
    size = [0] * (len(states) + 1)  # each queue's length when last read, by node
    with_size = [len(states)]  # with_size[k]: nodes whose queue holds k tours
    top = 0  # the largest queue
    awake = set(states)  # the nodes that act in the coming round
    silent: RoundOutcome = dict.fromkeys(net._adj, SILENCE)  # shared, read-only
    due: dict[int, list[int]] = {}  # round -> nodes that set `wake` to it

    for r in range(1, horizon + 1):
        for tour in by_round.get(r, ()):
            state = states[tour.source]
            state.queue[tour.id] = tour
            state.wake = 0
            awake.add(tour.source)
            metrics.injected_total += 1
            hops += tour.length
        for v in due.pop(r, ()):
            if states[v].wake == r:
                awake.add(v)
        if not awake:
            if observer is not None:
                observer(r, {}, silent)
            metrics.backlog.append(backlog)
            metrics.undelivered_hops.append(hops)
            metrics.max_queue_per_round.append(top)
            continue

        sending: dict[int, Message] = {}
        next_hop: dict[int, int] = {}  # sender of a tour -> its next hop
        soon = r + 1
        order = sorted(awake)
        awake = set(order)  # a set keeps its table size after discards
        for v, state in zip(order, map(states.__getitem__, order)):
            a = algorithm.on_round(state, r)
            if a is LISTEN:
                continue
            sending[v] = a  # `step` rejects an invalid action
            if isinstance(a, Message):
                f = a.tour
                if f is not None:
                    if state.queue.get(f.id) is not f:
                        raise EngineError(
                            f"node {v} round {r}: transmitted tour "
                            f"{f.id} is not resident here")
                    path = f.path
                    if v not in path or v == path[-1]:
                        raise EngineError(
                            f"node {v} round {r}: transmitted tour {f.id} "
                            f"does not pass through it short of its end")
                    next_hop[v] = path[path.index(v) + 1]

        outcome = step(net, sending) if sending else silent
        if observer is not None:
            observer(r, sending, outcome)

        # only a transmitter's neighbors can hear
        if len(sending) > 1:
            hearers = sorted(set().union(*map(neighbors.__getitem__, sending)))
        else:
            hearers = neighbors[next(iter(sending))] if sending else ()
        changed: list[int] = []  # the hearers whose `wake` or queue changed here
        for v in hearers:
            out = outcome[v]
            if out is SILENCE or out is COLLISION:
                continue
            state = states[v]
            wake, held = state.wake, len(state.queue)
            algorithm.on_hear(state, out.sender, out.message)
            if next_hop.get(out.sender) == v:  # v is the heard tour's next hop
                del next_hop[out.sender]
                f = out.message.tour
                del states[out.sender].queue[f.id]
                hops -= 1
                if v == f.path[-1]:
                    metrics.deliveries.append(Delivery(
                        f.id, f.injection_round, r, r - f.injection_round, f.length))
                else:
                    state.queue[f.id] = f
                    state.wake = 0
            if state.wake != wake or len(state.queue) != held:
                changed.append(v)
        for v, nxt in next_hop.items():  # sent tours their next hops missed
            metrics.missed_hops.append((r, v, sending[v].tour, nxt, outcome[nxt]))

        # (5) settle the nodes that acted, or heard and changed
        for v in order + changed:
            state = states[v]
            wake = state.wake
            if wake > soon:
                awake.discard(v)
                if wake <= horizon:
                    due.setdefault(wake, []).append(v)
            else:
                awake.add(v)
            q, old = len(state.queue), size[v]
            if q == old:
                continue
            size[v] = q
            backlog += q - old
            with_size[old] -= 1
            if q >= len(with_size):
                with_size.extend([0] * (q + 1 - len(with_size)))
            with_size[q] += 1
            if q > top:
                top = q
        while not with_size[top]:
            top -= 1
        metrics.backlog.append(backlog)
        metrics.undelivered_hops.append(hops)
        metrics.max_queue_per_round.append(top)
        if metrics.injected_total != len(metrics.deliveries) + backlog:
            raise EngineError("conservation violated: injected != delivered + queued")

    return metrics
