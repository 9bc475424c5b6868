"""Synchronous round-based simulation with the radio hearing rule.

Each round every node either transmits one message or listens.  A
listening node hears a message iff exactly one of its neighbors
transmits in that round; with two or more transmitting neighbors the
messages collide.  A transmitting node hears nothing.

The engine owns ground truth: queues, packet movement, deliveries and
metrics.  A routing algorithm acts through two hooks: `on_round` picks a
node's action from its local state, and `on_hear` receives what the node
hears.

A node may sleep.  `on_round` may set `NodeState.wake` to the next round
in which the node needs to act; until then `run` does not call `on_round`
for it and the node listens.  A tour injected at the node, or any message
the node hears, resets `wake` to 0 (before `on_hear`, which may set it
again), so the node acts again in the next round that reaches it.  A node
that never sets `wake` acts in every round.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Callable, NoReturn

from .conflict import Tour, validate_tour
from .network import Network


class EngineError(ValueError):
    """Raised for invalid actions or malformed runs."""


@dataclass(frozen=True)
class Message:
    """What a transmission carries: at most one queued tour being forwarded
    (with the sender's progress index) plus optional control payload.

    Gossip-style control messages set `tour` to None.
    """

    tour: Tour | None = None
    progress: int | None = None
    control: object = None


class _Listen:
    __slots__ = ()

    def __repr__(self):
        return "LISTEN"


LISTEN = _Listen()


@dataclass(frozen=True)
class Transmit:
    message: Message


Action = _Listen | Transmit


@dataclass(frozen=True)
class Heard:
    sender: int
    message: Message


class _Silence:
    __slots__ = ()

    def __repr__(self):
        return "SILENCE"


class _Collision:
    __slots__ = ()

    def __repr__(self):
        return "COLLISION"


SILENCE = _Silence()
COLLISION = _Collision()

Outcome = Heard | _Silence | _Collision
RoundOutcome = dict[int, Outcome]


def _reject(net: Network, actions: dict[int, Action]) -> NoReturn:
    """Raise the error of a malformed action map, in node order."""
    for v in net.nodes():
        if v not in actions:
            raise EngineError(f"node {v} has no action")
        a = actions[v]
        if a is not LISTEN and not isinstance(a, Transmit):
            raise EngineError(f"node {v}: invalid action {a!r}")
    extra = sorted(set(actions) - set(net.nodes()))
    raise EngineError(f"actions for unknown nodes {extra}")


def step(net: Network, actions: dict[int, Action]) -> RoundOutcome:
    """Apply the hearing rule to one round of actions.

    Every node must have exactly one action.  A node hears iff it listens
    and exactly one of its neighbors transmits; it sees a collision iff it
    listens and two or more neighbors transmit; otherwise silence (a
    transmitter always gets silence).  Each transmitter registers with its
    neighbors, and a listener's outcome comes from the transmitters
    registered with it, so no listener scans its own neighbors.

    Cost: one C-level comparison of the action map's keys with the node
    set, one C-level fill of the all-silence outcome, one Python-level pass
    over the action map in which a listener costs one identity test, and
    further Python work only for the transmitters and their neighborhoods.
    A malformed map is reported as a scan in node order meets it: the first
    node with no action or an invalid one, else the unknown nodes.
    """
    adj = net._adj
    if actions.keys() != adj.keys():
        _reject(net, actions)
    # listener -> its one transmitting neighbor, or None for two or more
    senders: dict[int, int | None] = {}
    for v, a in actions.items():
        if a is LISTEN:
            continue
        if not isinstance(a, Transmit):
            _reject(net, actions)
        for u in adj[v]:
            senders[u] = None if u in senders else v

    outcome: RoundOutcome = dict.fromkeys(adj, SILENCE)
    for v, sender in senders.items():
        if actions[v] is LISTEN:
            outcome[v] = (COLLISION if sender is None
                          else Heard(sender, actions[sender].message))
    return outcome


@dataclass
class QueuedTour:
    tour: Tour
    progress: int  # index into tour.path of the node currently holding it


@dataclass
class NodeState:
    """Everything a routing algorithm may see for one node: its name, the
    network size, its queue, a private scratch dict, and `wake`, the first
    round in which it needs to act again (0: every round)."""

    name: int
    n: int
    queue: dict[int, QueuedTour] = field(default_factory=dict)
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
    then listens, without a call, in every round before w, unless a tour is
    injected at it or it hears a message, either of which resets `wake` to
    0.  A node should therefore sleep only through rounds in which, with
    nothing injected and nothing heard, it would listen.  This base class
    never sets `wake`, so its subclasses act in every round.
    """

    def on_round(self, state: NodeState, round_no: int) -> Action:
        return LISTEN

    def on_hear(self, state: NodeState, sender: int, message: Message) -> None:
        pass


class AlwaysListen(RoutingAlgorithm):
    """Never transmits; nothing is ever delivered."""


class RoundRobin(RoutingAlgorithm):
    """Baseline: in round r the node (r mod n) + 1 transmits its oldest
    queued tour.  One global transmitter per round, hence collision-free."""

    def on_round(self, state: NodeState, round_no: int) -> Action:
        if state.name != (round_no % state.n) + 1 or not state.queue:
            return LISTEN
        oldest = min(state.queue.values(),
                     key=lambda qt: (qt.tour.injection_round, qt.tour.id))
        return Transmit(Message(tour=oldest.tour, progress=oldest.progress))


@dataclass(frozen=True)
class Delivery:
    tour_id: int
    injected: int
    delivered: int
    latency: int
    links: int


@dataclass
class Metrics:
    """Per-run record: deliveries, queue peaks, and per-round timelines."""

    deliveries: list[Delivery] = field(default_factory=list)
    backlog: list[int] = field(default_factory=list)
    undelivered_hops: list[int] = field(default_factory=list)
    max_queue_per_round: list[int] = field(default_factory=list)
    max_queue_per_node: dict[int, int] = field(default_factory=dict)
    injected_total: int = 0

    @property
    def max_queue(self) -> int:
        return max(self.max_queue_per_node.values(), default=0)

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
        order; a sleeping node listens;
    (3) apply the hearing rule to the round's actions (`step`);
    (4) for each node that heard a message, in node order: wake it, pass
        the message to `on_hear`, move a heard tour one hop and record its
        delivery at its destination;
    (5) append the round's backlog, undelivered hops and largest queue,
        raise the per-node peaks, and check conservation.
    Outside `step`, a round's Python-level work is proportional to its
    events: the awake nodes' callbacks, the transmitters' neighborhoods and
    the heard messages.  A node that still sleeps at the end of the round
    in which it set `wake` goes into the bucket of that round, and is
    called again when the bucket comes due (an entry whose `wake` has
    changed since is stale and skipped) or when it is woken.  The backlog and a count of
    nodes per queue size are kept running, from the queue length of every
    node that a callback or the engine touched, so a callback that changes
    its own queue still breaks conservation.  Only `step`, from whose calls
    the benchmark's tracer counts node-rounds and radio events, costs O(n)
    in every round.  Fully deterministic.

    `observer(round, sending, outcome)` is called after step (3) with the
    message of each transmitting node and every node's outcome; tests and
    harnesses use it to check hearing guarantees without touching queues.
    """
    if horizon < 0:
        raise EngineError(f"horizon must be >= 0, got {horizon}")
    for tour in trace.injections:
        validate_tour(net, tour)

    by_round = trace.by_round()
    states = {v: NodeState(v, net.n) for v in net.nodes()}
    neighbors = {v: sorted(net._adj[v]) for v in states}  # each in node order
    # the round's actions: all LISTEN again after each round's `step`
    actions: dict[int, Action] = dict.fromkeys(states, LISTEN)

    metrics = Metrics(max_queue_per_node={v: 0 for v in net.nodes()})
    peaks = metrics.max_queue_per_node
    hops = 0  # links still to cross, over all queued tours
    backlog = 0  # tours queued, over all nodes
    size = [0] * (len(states) + 1)  # each queue's length when last read, by node
    with_size = [len(states)]  # with_size[k]: nodes whose queue holds k tours
    top = 0  # the largest queue
    awake = set(states)  # the nodes that act in the coming round
    due: dict[int, list[int]] = {}  # round -> nodes that set `wake` to it

    for r in range(1, horizon + 1):
        touched: list[int] = []  # nodes whose queue length may have changed
        for tour in by_round.get(r, ()):
            state = states[tour.source]
            state.queue[tour.id] = QueuedTour(tour, 0)
            state.wake = 0
            awake.add(tour.source)
            touched.append(tour.source)
            metrics.injected_total += 1
            hops += tour.length
        for v in due.pop(r, ()):
            if states[v].wake == r:
                awake.add(v)

        sending: dict[int, Message] = {}
        soon = r + 1
        dozing: list[NodeState] = []  # set `wake` past the next round
        order = sorted(awake)
        awake = set(order)  # a set keeps its table size after discards
        for v, state in zip(order, map(states.__getitem__, order)):
            a = algorithm.on_round(state, r)
            if state.wake > soon:
                dozing.append(state)
            if len(state.queue) != size[v]:
                touched.append(v)
            if a is LISTEN:
                continue
            if isinstance(a, Transmit):
                msg = sending[v] = a.message
                if msg.tour is not None:
                    qt = state.queue.get(msg.tour.id)
                    if qt is None or qt.progress != msg.progress:
                        raise EngineError(
                            f"node {v} round {r}: transmitted tour "
                            f"{msg.tour.id} is not resident here")
            actions[v] = a

        outcome = step(net, actions)
        for v in sending:
            actions[v] = LISTEN
        if observer is not None:
            observer(r, sending, outcome)

        # only a transmitter's neighbors can hear
        if len(sending) > 1:
            hearers = sorted(set().union(*map(neighbors.__getitem__, sending)))
        else:
            hearers = neighbors[next(iter(sending))] if sending else ()
        for v in hearers:
            out = outcome[v]
            if out is SILENCE or out is COLLISION:
                continue
            state = states[v]
            state.wake = 0
            algorithm.on_hear(state, out.sender, out.message)
            if state.wake > soon:
                dozing.append(state)
            else:
                awake.add(v)
            if len(state.queue) != size[v]:
                touched.append(v)
            msg = out.message
            if msg.tour is None:
                continue
            f, p = msg.tour, msg.progress
            if f.path[p] == out.sender and p + 1 < len(f.path) and f.path[p + 1] == v:
                del states[out.sender].queue[f.id]
                touched.append(out.sender)
                hops -= 1
                if p + 1 == len(f.path) - 1:
                    latency = r - f.injection_round
                    if latency < f.length - 1:
                        raise EngineError(
                            f"tour {f.id}: latency {latency} below links-1")
                    metrics.deliveries.append(
                        Delivery(f.id, f.injection_round, r, latency, f.length))
                else:
                    state.queue[f.id] = QueuedTour(f, p + 1)
                    touched.append(v)

        for state in dozing:  # skipping those that heard since
            if state.wake > soon:
                awake.discard(state.name)
                if state.wake <= horizon:  # else only a wake-up brings it back
                    due.setdefault(state.wake, []).append(state.name)
        for v in touched:
            q, old = len(states[v].queue), size[v]
            if q == old:
                continue
            size[v] = q
            backlog += q - old
            with_size[old] -= 1
            if q >= len(with_size):
                with_size.extend([0] * (q + 1 - len(with_size)))
            with_size[q] += 1
            if q > peaks[v]:
                peaks[v] = q
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
