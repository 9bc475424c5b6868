"""Seeded mutation sample of src/radiosim: how many small faults tier-1 notices.

A mutant changes one site of one module:
  - a comparison operator to its neighbour (< <=, > >=, == !=, is / is not,
    in / not in, each way);
  - an integer constant c to c + 1;
  - a binary or augmented + to -, and - to +;
  - a call to the builtin min to max, and max to min;
  - the test of an `if`, `while` or conditional expression that is a bare
    name, attribute, call or subscript (`if strict:`) to `not (...)`.
Constants inside f-strings are skipped: they only shape messages.

The sites of the named modules are listed in source order, and
`random.Random(seed).sample` picks `count` of them.  Each mutant is written
into a temporary copy of the repository (src/, tests/, demos/, perfbench/ and
the project files), never into the working tree, and tier-1 runs there with
`-x`, without the two slow sampled acceptance tests C6 and C7.  Before any
mutant, one clean run in the copy must pass, or the tool exits 2 without
scoring: a suite that fails unmutated would count every mutant as killed.
Each mutant's run then times out after four times the clean run's time, and
at least 60 s.  A mutant is killed when the run fails or times out, and
survives when it passes.

With `--lines MODULE:FIRST-LAST` (repeatable) no sample is drawn: every site
whose mutated text starts on those lines of that module runs, so a change can
check its own lines.

Survivors are matched against `mutants_equivalent.txt` beside this file: one
mutant key per line, exactly as printed, under `#` lines that say why it cannot
change behaviour.  The last lines give the score and the survivors outside
that list.

Usage:
    python tools/mutants.py [--seed 0] [--count 80] [module ...]
    python tools/mutants.py --lines engine:120-140 [--lines ...]

The modules default to adversary, coloring, conflict, engine, network and
ogf.  Exit status: 0 when no survivor lies outside the list, 1 when one does,
2 when the clean run fails.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "radiosim"
EQUIVALENT = Path(__file__).with_name("mutants_equivalent.txt")
MODULES = ["adversary", "coloring", "conflict", "engine", "network", "ogf"]
COPIED = ["src", "tests", "demos", "perfbench", "pyproject.toml", "BENCHMARK.json"]
SLOW = ["tests/test_acceptance.py::test_c6_conflict_soundness_sampled",
        "tests/test_acceptance.py::test_c7_verifier_against_all_intervals_oracle"]
MIN_TIMEOUT_S = 60  # a mutant's run times out after max(this, 4 x the clean run)
MEMORY_BYTES = 2 << 30  # a mutant that allocates without end fails, not the host

# each operator's source text and its mutant's, as (pattern, replacement)
COMPARE = {ast.Lt: (r"<(?!=)", "<="), ast.LtE: (r"<=", "<"),
           ast.Gt: (r">(?!=)", ">="), ast.GtE: (r">=", ">"),
           ast.Eq: (r"==", "!="), ast.NotEq: (r"!=", "=="),
           ast.Is: (r"\bis\b(?!\s+not\b)", "is not"), ast.IsNot: (r"\bis\s+not\b", "is"),
           ast.In: (r"(?<!not )\bin\b", "not in"), ast.NotIn: (r"\bnot\s+in\b", "in")}
ARITH = {ast.Add: (r"\+", "-"), ast.Sub: (r"-", "+")}
SWAPPED_CALLS = {"min": "max", "max": "min"}
BRANCHES = (ast.If, ast.While, ast.IfExp)
BARE_TESTS = (ast.Name, ast.Attribute, ast.Call, ast.Subscript)


@dataclass(frozen=True)
class Mutant:
    module: str
    scope: str
    lineno: int
    start: int  # byte offsets into the module's source
    end: int
    replacement: bytes

    def apply(self, source: bytes) -> bytes:
        return source[:self.start] + self.replacement + source[self.end:]

    def key(self, source: bytes) -> str:
        """`module:scope: line -> mutated line`, which survives edits that
        only move the line."""
        line_start = source.rfind(b"\n", 0, self.start) + 1
        line_end = source.find(b"\n", self.end)
        if line_end < 0:
            line_end = len(source)
        old = source[line_start:line_end]
        new = source[line_start:self.start] + self.replacement + source[self.end:line_end]
        return f"{self.module}:{self.scope}: {_squeeze(old)} -> {_squeeze(new)}"


def _squeeze(text: bytes) -> str:
    return " ".join(text.decode().split())


def _offsets(source: bytes) -> list[int]:
    """Byte offset of the start of each line, 1-based by index."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def sites(module: str, source: bytes) -> list[Mutant]:
    """Every mutant of the module, in source order, that compiles to a
    different syntax tree."""
    tree = ast.parse(source)
    line = _offsets(source)

    def at(lineno: int, col: int) -> int:
        return line[lineno] + col

    def between(node, left, right, pattern, replacement, scope):
        start, end = at(left.end_lineno, left.end_col_offset), at(right.lineno, right.col_offset)
        found = list(re.finditer(pattern.encode(), source[start:end]))
        if len(found) == 1:
            m = found[0]
            yield Mutant(module, scope, node.lineno, start + m.start(), start + m.end(),
                         replacement.encode())

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.JoinedStr):
                continue
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            if isinstance(child, ast.Compare):
                operands = [child.left, *child.comparators]
                for op, left, right in zip(child.ops, operands, operands[1:]):
                    yield from between(child, left, right, *COMPARE[type(op)], inner)
            elif isinstance(child, ast.BinOp) and type(child.op) in ARITH:
                yield from between(child, child.left, child.right,
                                   *ARITH[type(child.op)], inner)
            elif isinstance(child, ast.AugAssign) and type(child.op) in ARITH:
                pattern, replacement = ARITH[type(child.op)]
                yield from between(child, child.target, child.value,
                                   pattern + "=", replacement + "=", inner)
            elif (isinstance(child, ast.Constant) and type(child.value) is int):
                yield Mutant(module, inner, child.lineno,
                             at(child.lineno, child.col_offset),
                             at(child.end_lineno, child.end_col_offset),
                             str(child.value + 1).encode())
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id in SWAPPED_CALLS):
                f = child.func
                yield Mutant(module, inner, child.lineno, at(f.lineno, f.col_offset),
                             at(f.end_lineno, f.end_col_offset),
                             SWAPPED_CALLS[f.id].encode())
            elif isinstance(child, BRANCHES) and isinstance(child.test, BARE_TESTS):
                t = child.test
                start, end = at(t.lineno, t.col_offset), at(t.end_lineno, t.end_col_offset)
                yield Mutant(module, inner, t.lineno, start, end,
                             b"not (" + source[start:end] + b")")
            yield from visit(child, inner)

    original = ast.dump(tree)
    found = []
    for mutant in visit(tree, "<module>"):
        try:
            mutated = ast.dump(ast.parse(mutant.apply(source)))
        except SyntaxError:
            continue
        if mutated != original:
            found.append(mutant)
    return found


def line_range(text: str) -> tuple[str, int, int]:
    """`MODULE:FIRST-LAST` (or `MODULE:LINE`) as (module, first, last)."""
    module, _, lines = text.partition(":")
    first, _, last = lines.partition("-")
    try:
        return module, int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected MODULE:FIRST-LAST, got {text!r}") from None


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run_tier1(copy: Path, timeout: float | None) -> tuple[bool, str]:
    """Tier-1 in `copy` with -x and without C6/C7, within `timeout` seconds
    (None: no limit): (passed, how it ended)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            *(f"--deselect={test}" for test in SLOW)]
    try:
        proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True,
                              text=True, timeout=timeout, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return False, "timeout"
    if proc.returncode == 0:
        return True, "passed"
    failed = re.search(r"^(FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return False, failed.group(2) if failed else f"exit {proc.returncode}"


def load_equivalent() -> set[str]:
    lines = (raw.strip() for raw in EQUIVALENT.read_text().splitlines())
    return {line for line in lines if line and not line.startswith("#")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=80)
    parser.add_argument("--lines", type=line_range, action="append",
                        metavar="MODULE:FIRST-LAST",
                        help="run every site on these lines instead of a sample")
    parser.add_argument("modules", nargs="*")
    args = parser.parse_args(argv)
    if args.lines and args.modules:
        parser.error("give modules or --lines, not both")

    modules = list(dict.fromkeys(m for m, _, _ in args.lines or ())) or args.modules or MODULES
    sources = {m: (ROOT / PACKAGE / f"{m}.py").read_bytes() for m in modules}
    population = [mutant for m in modules for mutant in sites(m, sources[m])]
    if args.lines:
        sample = [mutant for mutant in population if any(
            m == mutant.module
            and first <= sources[m].count(b"\n", 0, mutant.start) + 1 <= last
            for m, first, last in args.lines)]
        print(f"{len(sample)} sites on " + ", ".join(
            f"{m}.py:{first}-{last}" for m, first, last in args.lines), flush=True)
    else:
        sample = random.Random(args.seed).sample(population,
                                                 min(args.count, len(population)))
        print(f"{len(population)} sites in {', '.join(modules)}; "
              f"seed {args.seed}, {len(sample)} mutants", flush=True)
    equivalent = load_equivalent()

    killed, survivors, unexplained = 0, [], []
    with tempfile.TemporaryDirectory(prefix="radiosim-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy(src, copy / name)
        began = time.perf_counter()
        passed, how = run_tier1(copy, None)
        clean = time.perf_counter() - began
        if not passed:
            print(f"clean run failed in {clean:.1f}s [{how}]; no mutant scored")
            return 2
        timeout = max(MIN_TIMEOUT_S, 4 * clean)
        print(f"clean run passed in {clean:.1f}s; timeout per mutant {timeout:.0f}s",
              flush=True)
        for i, mutant in enumerate(sample, start=1):
            target = copy / PACKAGE / f"{mutant.module}.py"
            source = sources[mutant.module]
            key = mutant.key(source)
            target.write_bytes(mutant.apply(source))
            began = time.perf_counter()
            try:
                passed, how = run_tier1(copy, timeout)
            finally:
                target.write_bytes(source)
            took = time.perf_counter() - began
            if not passed:
                killed += 1
                verdict = "killed"
            elif key in equivalent:
                verdict = "equivalent"
                survivors.append(key)
            else:
                verdict = "SURVIVED"
                survivors.append(key)
                unexplained.append(key)
            print(f"{i:3d} {verdict:10s} {mutant.module}.py:{mutant.lineno} "
                  f"{took:5.1f}s {key}  [{how}]", flush=True)

    listed = len(survivors) - len(unexplained)
    print(f"score: {killed} of {len(sample)} killed; {listed} survivors known "
          f"equivalent; {killed} of {len(sample) - listed} non-equivalent killed")
    for key in unexplained:
        print(f"survivor outside {EQUIVALENT.name}: {key}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
