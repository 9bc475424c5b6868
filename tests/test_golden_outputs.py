"""Seeded CLI and demo outputs, pinned byte for byte.

Thirteen seeded runs of `cli.main` cover an Old-Go-First run whose rounds
are mostly silent (a sparse 40-node graph with oracle gossip), two with
TDMA gossip (a random 12-node graph, and an 8-clique where every node
overhears every transmission), a clique and a path with oracle gossip, a
strict TDMA run that fails with a window overflow, the clique saturation
run under each algorithm, two brute-force static link scheduling checks
on random 8-node graphs, a TDMA gossip check on a random 10-node graph,
and the admissibility check of two trace files that the runner writes with
`format_trace`: one admissible, one with a burst of tours on one path.
Each run's exit code, stdout, stderr and every file it writes under
`--out` (for the commands that take it) are hashed.  So are
the stdout and stderr of each of the six scripts in `demos/`, run
in-process as `__main__`.  The hashes must equal `golden_outputs.json`.
The set runs in two fresh interpreters, under PYTHONHASHSEED 0 and 12345,
so an output that depends on set or dict iteration order over hashed keys
shows up as a diff.

Run this file as a script to print the hashes of the current code:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).with_name("golden_outputs.json")

RUNS = {
    "ogf-random40-oracle": ["ogf", "--network", "gen:random:40:0.05",
                            "--adv", "1/8:1:2", "--gossip", "oracle:40",
                            "--gen-scale", "1/2"],
    "ogf-random12-tdma": ["ogf", "--network", "gen:random:12:0.3",
                          "--adv", "1/8:1:2", "--gen-scale", "1/2"],
    "ogf-clique8-tdma": ["ogf", "--network", "gen:clique:8", "--adv", "1/8:1:2"],
    "ogf-clique6-oracle": ["ogf", "--network", "gen:clique:6",
                           "--adv", "1/4:1:3", "--gossip", "oracle:15"],
    "ogf-path8-oracle": ["ogf", "--network", "gen:path:8",
                         "--adv", "1/4:2:3", "--gossip", "oracle:24",
                         "--gen-scale", "1/3"],
    "ogf-random12-tdma-overflow": ["ogf", "--network", "gen:random:12:0.3",
                                   "--adv", "1/8:1:2", "--seed", "5"],
    "instability-round-robin": ["instability", "--adv", "1/2:1:3", "--n", "6",
                                "--t", "2", "--intervals", "200",
                                "--algorithm", "round-robin"],
    "instability-ogf": ["instability", "--adv", "1/2:1:3", "--n", "6",
                        "--t", "2", "--intervals", "200", "--algorithm", "ogf"],
    "sls-random8-seed1": ["sls", "--network", "gen:random:8:0.5",
                          "--gen-tours", "9", "--seed", "1"],
    "sls-random8-seed2": ["sls", "--network", "gen:random:8:0.5",
                          "--gen-tours", "9", "--seed", "2"],
    "gossip-check-random10": ["gossip-check", "--network", "gen:random:10:0.3"],
    "verify-trace-admissible": ["verify-trace", "--network", "gen:random:12:0.3",
                                "--trace", "{traces}/admissible.trace"],
    "verify-trace-burst": ["verify-trace", "--network", "gen:random:12:0.3",
                           "--trace", "{traces}/burst.trace"],
}
NO_OUT = {"gossip-check", "verify-trace"}  # commands that take no --out
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _captured(fn) -> tuple[object, str, str]:
    """fn's result with what it printed to stdout and to stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        result = fn()
    return result, stdout.getvalue(), stderr.getvalue()


def write_traces(directory: str) -> None:
    """The verify-trace inputs on `gen:random:12:0.3` at seed 1: a balanced
    `1/8:1:2` trace, and the same trace with three more tours on its first
    tour's path in that tour's round, which no `1/8:1:2` budget admits."""
    from radiosim import adversary, cli
    from radiosim.conflict import Tour

    net = cli.load_network("gen:random:12:0.3", 1)
    adv = adversary.AdversaryType.parse("1/8:1:2")
    trace = adversary.gen_balanced(net, adv, seed=1, horizon=200)
    first = trace.injections[0]
    burst = [Tour(len(trace.injections) + k, first.injection_round, first.path)
             for k in (1, 2, 3)]
    for name, tours in (("admissible", trace.injections),
                        ("burst", (*trace.injections, *burst))):
        text = adversary.format_trace(
            adv, adversary.InjectionTrace(tuple(tours), trace.horizon))
        Path(directory, f"{name}.trace").write_text(text)


def run_all() -> dict[str, dict]:
    """Each run's exit code and the hashes of its stdout, stderr and files,
    then each demo's."""
    from radiosim import cli

    digests = {}
    with tempfile.TemporaryDirectory() as traces:
        write_traces(traces)
        for name, argv in RUNS.items():
            argv = [a.format(traces=traces) for a in argv]
            with tempfile.TemporaryDirectory() as out:
                if argv[0] not in NO_OUT:
                    argv = [*argv, "--out", out]
                code, stdout, stderr = _captured(lambda: cli.main(argv))
                files = {p.name: _sha(p.read_text())
                         for p in sorted(Path(out).iterdir())}
            digests[name] = {"exit": code, "stdout": _sha(stdout),
                             "stderr": _sha(stderr), "files": files}
    for demo in DEMOS:
        _, stdout, stderr = _captured(
            lambda: runpy.run_path(str(demo), run_name="__main__"))
        digests[f"demo-{demo.stem}"] = {"stdout": _sha(stdout),
                                        "stderr": _sha(stderr)}
    return digests


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_seeded_cli_outputs_match_pinned(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, __file__], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == json.loads(PINNED.read_text())


if __name__ == "__main__":
    print(json.dumps(run_all(), indent=2, sort_keys=True))
