"""Repository-wide checks: the demos run, src/ holds no assert, tours
are validated only where they enter the library, the callers of the
hearing rule and of the conflict set are pinned, the package's public
names, every defaulted parameter, Old-Go-First's instance attributes and
memory keys and the fields of `Message`, `Heard` and `NodeState` are
pinned, the radio's value types are slotted and frozen, and the
benchmark's tracer finds every function it wraps."""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import radiosim
from radiosim import (GossipConfig, Heard, InjectionTrace, Message, NodeState,
                      OldGoFirst, Tour, make_path, run, step)
from radiosim.engine import Delivery

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted((ROOT / "src" / "radiosim").glob("*.py"))


def _scoped_nodes():
    """Each syntax node in src/radiosim with the module.qualname it is or sits in."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            inner = f"{scope}.{child.name}" if named else scope
            yield inner, child
            yield from visit(child, inner)

    for path in SOURCES:
        yield from visit(ast.parse(path.read_text(), str(path)), path.stem)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_heapq():
    """Round-robin keeps its unsent tours in a sorted list; importing
    `heapq` would add to every process's peak memory."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, radiosim; print('heapq' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "False\n", proc.stderr


def test_no_assert_in_src():
    """Guarantees must survive `python -O`, which strips assert statements."""
    found = [f"{scope}:{node.lineno}" for scope, node in _scoped_nodes()
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/radiosim: {found}"


# the functions that take tours from a caller; every other function
# receives tours that are already paths of the network
TOUR_BOUNDARY = {
    "adversary.LoadLedger.__init__",
    "adversary.verify_admissible",
    "adversary.verify_admissible_all_intervals",
    "coloring.one_link_tours",
    "conflict.node_tour_conflicts",
    "conflict.tours_conflict",
    "engine.run",
}


def _callers(name: str) -> set[str]:
    """The scopes in src/radiosim that call a function named `name`."""
    return {scope for scope, node in _scoped_nodes()
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name}


def test_validate_tour_called_only_at_the_boundary():
    callers = _callers("validate_tour")
    assert callers == TOUR_BOUNDARY, sorted(callers ^ TOUR_BOUNDARY)


def test_hearing_rule_callers_are_pinned():
    """One hearing rule, `engine.step`, and every simulated round goes
    through it.  The benchmark's tracer counts node-rounds and the radio
    counters (transmissions, heard, collisions) from `engine.step` calls,
    sls-bruteforce's through `coloring._round_delivers`, so a round resolved
    any other way would read 0 there."""
    assert _callers("step") == {"engine.run", "coloring._round_delivers",
                                "ogf.tdma_gossip"}


def test_conflict_set_callers_are_pinned():
    """The conflict set of a path has one definition,
    `conflict._path_conflict_nodes`; these are the only places that build it."""
    assert _callers("_path_conflict_nodes") == {
        "conflict.conflict_node_set", "conflict.build_conflict_graph",
        "adversary.gen_balanced"}


# the names `import radiosim` offers, by defining module; a name added or
# removed shows here
PUBLIC_NAMES = {
    # adversary
    "AdversaryError", "AdversaryType", "Balance", "InjectionTrace",
    "LoadLedger", "Violation", "classify", "format_trace", "gen_balanced",
    "gen_unbalanced_clique", "node_load", "parse_trace", "verify_admissible",
    "verify_admissible_all_intervals",
    # coloring
    "Coloring", "ColoringError", "exact_chromatic", "greedy_color",
    "is_proper", "optimal_sls_length", "schedule_from_coloring",
    "verify_schedule",
    # conflict
    "ConflictGraph", "Tour", "TourError", "build_conflict_graph",
    "conflict_node_set", "format_tour", "max_degree", "node_link_conflicts",
    "node_tour_conflicts", "parse_tour_line", "tours_conflict", "validate_tour",
    # engine
    "COLLISION", "LISTEN", "SILENCE", "EngineError", "Heard", "Message",
    "Metrics", "NodeState", "RoundRobin", "RoutingAlgorithm", "run", "step",
    # network
    "Network", "NetworkError", "build_network", "format_network", "make_clique",
    "make_cycle", "make_path", "make_random_connected", "parse_network",
    # ogf
    "GossipConfig", "GuaranteeError", "OgfError", "OgfResult", "OldGoFirst",
    "WindowOverflowError", "WindowPlan", "compute_window_bound", "plan_window",
    "run_ogf", "tdma_gossip",
}


def test_public_names_are_pinned():
    found = {name for name, value in vars(radiosim).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert found == PUBLIC_NAMES, sorted(found ^ PUBLIC_NAMES)


# every parameter with a default value; a knob added or removed shows here
DEFAULTED_PARAMETERS = {
    "adversary.gen_balanced(attempts_per_round)",
    "cli.main(argv)",
    "engine.run(observer)",
    "ogf.run_ogf(strict)",
    "ogf.run_ogf(window_override)",
}


def test_defaulted_parameters_are_pinned():
    found = set()
    for scope, node in _scoped_nodes():
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            found.update(f"{scope}({a.arg})" for a in
                         positional[len(positional) - len(args.defaults):])
            found.update(f"{scope}({a.arg})" for a, d in
                         zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    assert found == DEFAULTED_PARAMETERS, sorted(found ^ DEFAULTED_PARAMETERS)


# Old-Go-First's per-window state is one record, `_window`; a new cache or
# counter kept on the algorithm shows here
OGF_ATTRIBUTES = {"net", "w", "gossip", "s_n", "window_log", "_window"}


def test_old_go_first_attributes_are_pinned():
    net = make_path(4)
    alg = OldGoFirst(net, 20, GossipConfig.oracle(12))
    run(net, alg, InjectionTrace((Tour(1, 1, (1, 2, 3)),), 1), 60)
    assert alg.window_log
    found = set(vars(alg).keys())
    assert found == OGF_ATTRIBUTES, sorted(found ^ OGF_ATTRIBUTES)


# what an Old-Go-First node keeps in `NodeState.memory`; a per-node fact
# stored twice, such as a copy of `wake`, shows here
OGF_MEMORY_KEYS = {"moved", "plan", "resident", "rumors", "sent", "slot", "window"}


def test_old_go_first_memory_keys_are_pinned():
    net = make_path(4)
    states = []

    class Probe(OldGoFirst):
        def on_round(self, state, round_no):
            states.append(state)
            return super().on_round(state, round_no)

    for gossip in (GossipConfig.tdma(), GossipConfig.oracle(12)):
        run(net, Probe(net, 20, gossip), InjectionTrace((Tour(1, 1, (1, 2, 3)),), 1), 60)
    found = set().union(*(state.memory for state in states))
    assert found == OGF_MEMORY_KEYS, sorted(found ^ OGF_MEMORY_KEYS)


# what a node sends and what it holds; a field that repeats another fact,
# such as a tour's position, which the holder already fixes, shows here
MESSAGE_FIELDS = ("tour", "control")
# what a hearer gets; all hearers of one transmitter share one `Heard`
HEARD_FIELDS = ("sender", "message")
NODE_STATE_FIELDS = ("name", "n", "queue", "memory", "wake")


def test_message_and_node_state_fields_are_pinned():
    assert tuple(f.name for f in dataclasses.fields(Message)) == MESSAGE_FIELDS
    assert tuple(f.name for f in dataclasses.fields(NodeState)) == NODE_STATE_FIELDS


def test_heard_fields_are_pinned():
    assert tuple(f.name for f in dataclasses.fields(Heard)) == HEARD_FIELDS


# the radio's value types are slotted and frozen: an instance has no
# `__dict__`, and a field cannot be assigned
SLOTTED_VALUES = [Heard(1, Message()), Message(control="m"), Tour(1, 1, (1, 2)),
                  Delivery(1, 1, 2, 1, 1),
                  # `step` builds its `Heard`s without the dataclass __init__
                  pytest.param(step(make_path(2), {1: Message()})[2], id="Heard-step")]


@pytest.mark.parametrize("value", SLOTTED_VALUES,
                         ids=lambda v: type(v).__name__)
def test_value_types_are_slotted_and_frozen(value):
    assert not hasattr(value, "__dict__")
    field = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))


def test_tracer_targets_exist():
    """`perfbench/tracing.py` wraps each target where callers look it up;
    a target moved or renamed would otherwise fail only traced runs."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing._TARGETS
               if attr not in owner.__dict__]
    assert not missing, f"tracer targets not found: {missing}"
