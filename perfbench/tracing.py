"""Spans around radiosim's public calls, installed from outside the package.

`Tracer` replaces each traced function where its callers look it up (a
module global or a class attribute) with a wrapper that times the call,
and puts every original back on exit.  Spans nest: a span's self time is
its duration minus the time of the spans it caused.  Spans are folded into
per-layer totals in memory as they close, and read out after the pass.

After a span closes, a counter may inspect the call's arguments and
result to add to the deterministic counts.  The time it takes is charged
to no layer, so it does not inflate the enclosing span's self time.
"""

from __future__ import annotations

import inspect
import math
import time
from collections import Counter, defaultdict
from typing import Callable

from radiosim import adversary, coloring, conflict, engine, network, ogf

_GEN_BALANCED = inspect.signature(adversary.gen_balanced)
_GEN_CLIQUE = inspect.signature(adversary.gen_unbalanced_clique)


def _count_gen_balanced(tr: "Tracer", args, kwargs, trace) -> None:
    call = _GEN_BALANCED.bind(*args, **kwargs)
    call.apply_defaults()
    c = tr.counts
    c["gen_tours"] += len(trace.injections)
    # every attempt draws a candidate path of at least one link
    c["gen_candidates"] += call.arguments["horizon"] * call.arguments["attempts_per_round"]


def _count_gen_clique(tr: "Tracer", args, kwargs, result) -> None:
    call = _GEN_CLIQUE.bind(*args, **kwargs)
    adv, t, horizon = (call.arguments[k] for k in ("adv", "t", "horizon"))
    c = tr.counts
    c["gen_tours"] += len(result[1].injections)
    # quota slots offered: floor(rho*t) per interval plus b in the first
    c["gen_candidates"] += math.floor(adv.rho * t) * (horizon // t) + adv.b


def _count_verify(tr: "Tracer", args, kwargs, result) -> None:
    net, trace = args[0], args[1]
    tr.counts["verify_incidences"] += sum(
        len(conflict.conflict_node_set(net, f)) for f in trace.injections)


def _count_conflict(tr: "Tracer", args, kwargs, cg) -> None:
    k = len(cg.vertices)
    c = tr.counts
    c["conflict_tours"] += k
    c["conflict_pairs"] += k * (k - 1) // 2
    c["conflict_edges"] += len(cg.edges)


def _count_greedy(tr: "Tracer", args, kwargs, col) -> None:
    tr.counts["colors_used"] += col.num_colors


def _count_run(tr: "Tracer", args, kwargs, metrics) -> None:
    c = tr.counts
    c["deliveries"] += metrics.delivered_total
    c["final_backlog"] += metrics.final_backlog()
    c["max_latency"] = max(c["max_latency"], metrics.max_latency or 0)


def _count_ogf(tr: "Tracer", args, kwargs, result) -> None:
    c = tr.counts
    c["windows"] += len(result.windows)
    c["windows_truncated"] += sum(w.truncated for w in result.windows)
    c["old_tours"] += sum(w.old_count for w in result.windows)
    c["invariant_checks"] += result.invariant_checks


def _count_step(tr: "Tracer", args, kwargs, outcome) -> None:
    net, actions = args[0], args[1]
    c = tr.counts
    c["node_rounds"] += net.n
    if any(layer == "coloring.sls_search" for layer, _ in tr._open):
        c["sls_search_steps"] += 1
    listen = engine.LISTEN
    c["transmissions"] += sum(1 for a in actions.values() if a is not listen)
    for o in outcome.values():
        if o is engine.COLLISION:
            c["collisions"] += 1
        elif isinstance(o, engine.Heard):
            c["heard"] += 1


# (owner, attribute, layer, counter); an owner is where callers look it up
_TARGETS: list[tuple[object, str, str, Callable | None]] = [
    (network, "build_network", "network.build", None),
    (adversary, "gen_balanced", "adversary.gen", _count_gen_balanced),
    (adversary, "gen_unbalanced_clique", "adversary.gen", _count_gen_clique),
    (ogf, "verify_admissible", "adversary.verify", _count_verify),
    (ogf, "build_conflict_graph", "conflict.build", _count_conflict),
    (conflict, "build_conflict_graph", "conflict.build", _count_conflict),
    (ogf, "greedy_color", "coloring.greedy", _count_greedy),
    (coloring, "greedy_color", "coloring.greedy", _count_greedy),
    (coloring, "exact_chromatic", "coloring.exact", None),
    (coloring, "optimal_sls_length", "coloring.sls_search", None),
    (coloring, "verify_schedule", "coloring.verify_schedule", None),
    (engine, "run", "engine.run", _count_run),
    (engine, "step", "engine.step", _count_step),
    (ogf, "run_ogf", "ogf.run", _count_ogf),
    (ogf, "plan_window", "ogf.plan", None),
    (ogf.OldGoFirst, "on_round", "ogf.callback", None),
    (ogf.OldGoFirst, "on_hear", "ogf.callback", None),
]


class Tracer:
    """Context manager: traces every target while active.

    `spans[layer]` is [calls, total seconds, self seconds]; `counts` holds
    the deterministic counters.
    """

    def __init__(self):
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self._open: list[list] = []  # [layer, seconds of child spans]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, layer, count in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, count))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: str, fn, count):
        def traced(*args, **kwargs):
            result = self._call(layer, fn, args, kwargs)
            if count is not None:
                t0 = time.perf_counter()
                count(self, args, kwargs, result)
                self._uncharge(time.perf_counter() - t0)
            return result

        return traced

    def _call(self, layer: str, fn, args, kwargs):
        frame = [layer, 0.0]
        self._open.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span = time.perf_counter() - t0
            self._open.pop()
            agg = self.spans[layer]
            agg[0] += 1
            agg[1] += span
            agg[2] += span - frame[1]
            if self._open:
                self._open[-1][1] += span

    def _uncharge(self, seconds: float) -> None:
        """Exclude bookkeeping time from the enclosing span's self time."""
        if self._open:
            self._open[-1][1] += seconds


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    Times are self times, except engine.run_s, ogf.run_s and
    coloring.sls_search_s, which are the whole span of engine.run, run_ogf
    and optimal_sls_length: the search's own work and the simulated rounds
    it tries are one cost, which its steps split out.
    """
    def calls(layer: str) -> int:
        return tr.spans[layer][0] if layer in tr.spans else 0

    def total_s(layer: str) -> float:
        return tr.spans[layer][1] if layer in tr.spans else 0.0

    def self_s(layer: str) -> float:
        return tr.spans[layer][2] if layer in tr.spans else 0.0

    c = tr.counts
    engine_busy = self_s("engine.run") + self_s("engine.step")
    return {
        "network.build_s": (self_s("network.build"), "s"),
        "adversary.gen_s": (self_s("adversary.gen"), "s"),
        "adversary.gen_calls": (calls("adversary.gen"), "count"),
        "adversary.gen_tours": (c["gen_tours"], "count"),
        "adversary.gen_admit_ratio": (_ratio(c["gen_tours"], c["gen_candidates"]), "ratio"),
        "adversary.verify_s": (self_s("adversary.verify"), "s"),
        "adversary.verify_calls": (calls("adversary.verify"), "count"),
        "adversary.verify_incidences": (c["verify_incidences"], "count"),
        "adversary.verify_ns_per_incidence": (
            _ratio(self_s("adversary.verify") * 1e9, c["verify_incidences"]), "ns"),
        "conflict.build_s": (self_s("conflict.build"), "s"),
        "conflict.build_calls": (calls("conflict.build"), "count"),
        "conflict.tours_in": (c["conflict_tours"], "count"),
        "conflict.candidate_pairs": (c["conflict_pairs"], "count"),
        "conflict.edges_out": (c["conflict_edges"], "count"),
        "conflict.edge_ratio": (_ratio(c["conflict_edges"], c["conflict_pairs"]), "ratio"),
        "coloring.greedy_s": (self_s("coloring.greedy"), "s"),
        "coloring.colors_used": (c["colors_used"], "count"),
        "coloring.exact_s": (self_s("coloring.exact"), "s"),
        "coloring.sls_search_s": (total_s("coloring.sls_search"), "s"),
        "coloring.sls_search_steps": (c["sls_search_steps"], "count"),
        "coloring.verify_schedule_s": (self_s("coloring.verify_schedule"), "s"),
        "engine.run_s": (total_s("engine.run"), "s"),
        "engine.self_s": (self_s("engine.run"), "s"),
        "engine.step_s": (self_s("engine.step"), "s"),
        "engine.step_calls": (calls("engine.step"), "count"),
        "engine.node_rounds": (c["node_rounds"], "count"),
        "engine.node_rounds_per_s": (_ratio(c["node_rounds"], engine_busy), "1/s"),
        "engine.transmissions": (c["transmissions"], "count"),
        "engine.heard": (c["heard"], "count"),
        "engine.collisions": (c["collisions"], "count"),
        "engine.collision_ratio": (_ratio(c["collisions"], c["collisions"] + c["heard"]), "ratio"),
        "engine.deliveries": (c["deliveries"], "count"),
        "engine.final_backlog": (c["final_backlog"], "count"),
        "engine.max_latency": (c["max_latency"], "rounds"),
        "ogf.run_s": (total_s("ogf.run"), "s"),
        "ogf.callback_s": (self_s("ogf.callback"), "s"),
        "ogf.plan_s": (self_s("ogf.plan"), "s"),
        "ogf.plan_calls": (calls("ogf.plan"), "count"),
        "ogf.plans_per_window": (_ratio(calls("ogf.plan"), c["windows"]), "ratio"),
        "ogf.windows": (c["windows"], "count"),
        "ogf.windows_truncated": (c["windows_truncated"], "count"),
        "ogf.old_tours": (c["old_tours"], "count"),
        "ogf.invariant_checks": (c["invariant_checks"], "count"),
    }
