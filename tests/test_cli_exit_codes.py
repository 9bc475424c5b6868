"""Property test of the CLI's exit codes.

Hypothesis builds well-formed argv for `ogf`, `verify-trace`,
`gossip-check` and `instability` from valid and mutated option values on
networks of at most 8 nodes and runs of at most 40 rounds.  Whatever the
input, `cli.main` returns 0, 1 or 2 or argparse exits with 2, no other
exception escapes, and a return of 2 prints exactly one `error:` line.
"""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radiosim import cli

MAX_N = 8
MAX_HORIZON = 40


def _rho_l(adv: str) -> Fraction:
    rho, _, L = adv.split(":")
    return Fraction(rho) * int(L)


def _adv(rates, max_l):
    return (st.tuples(st.sampled_from(rates), st.integers(1, 3),
                      st.integers(1, max_l))
            .map(lambda t: f"{t[0]}:{t[1]}:{t[2]}"))


# option -> (valid values, mutated values); an example mutates at most one
# option, and half of them none, so many runs get past the parsers
NETWORK = (
    st.one_of(
        st.tuples(st.sampled_from(["clique", "path"]), st.integers(2, MAX_N))
        .map(lambda t: f"gen:{t[0]}:{t[1]}"),
        st.integers(3, MAX_N).map(lambda n: f"gen:cycle:{n}"),
        st.tuples(st.integers(2, MAX_N), st.sampled_from(["0", "0.3", "1"]))
        .map(lambda t: f"gen:random:{t[0]}:{t[1]}"),
        st.just("NETFILE")),
    st.sampled_from(["gen:clique:1", "gen:cycle:2", "gen:path:x",
                     "gen:random:0:0.3", "gen:random:4:nan", "gen:random:4:-1",
                     "gen:clique:4:junk", "gen:path:5:0.3:x", "gen:random:4",
                     "gen:torus:4", "gen:", "", "BADNET", "MISSING"]))
BAD_ADV = st.sampled_from(["1/2:1:3", "1/4:1:4", "1/8:1:2", "3/2:1:1",
                           "-1/2:1:1", "1/0:1:1", "1/4:0:1", "1/4:1:0", "",
                           "1/2:1", "1/2:1:3:4", "a:b:c"])
BALANCED = (_adv(["0", "1/16", "1/8", "1/4"], 3).filter(lambda a: _rho_l(a) < 1),
            BAD_ADV)
UNBALANCED = (_adv(["1/2", "3/4", "1"], 4).filter(lambda a: _rho_l(a) > 1),
              BAD_ADV)
GOSSIP = (st.just("tdma") | st.integers(1, 20).map(lambda s: f"oracle:{s}"),
          st.sampled_from(["oracle:0", "oracle:-1", "oracle:x", "oracle",
                           "flood", ""]))
SCALE = (st.sampled_from(["1", "1/2", "1/3"]),
         st.sampled_from(["0", "2", "-1", "abc", "1/0", ""]))
WINDOW = (st.just("0") | st.integers(20, 60).map(str),
          st.integers(-3, 19).map(str))
SEED = (st.integers(0, 5).map(str), st.sampled_from(["x", "1.5"]))
HORIZON = (st.integers(1, MAX_HORIZON).map(str), st.sampled_from(["-1", "x"]))
TRACE = (st.just("TRACE"), st.sampled_from(["BADTRACE", "MISSING"]))


@st.composite
def _argv(draw, command, options, extra=()):
    """`command` with each option's valid value, except that at most one
    option, chosen by the draw, takes a mutated value."""
    mutated = draw(st.sampled_from([None] * len(options) + list(options)))
    argv = [command]
    for option, (valid, bad) in options.items():
        argv += [option, draw(bad if option == mutated else valid)]
    return argv + list(draw(st.sampled_from(extra or [()])))


ARGV = st.one_of(
    _argv("ogf", {"--network": NETWORK, "--adv": BALANCED, "--gossip": GOSSIP,
                  "--gen-scale": SCALE, "--window": WINDOW, "--seed": SEED,
                  "--horizon": HORIZON},
          extra=[(), (), (), ("--trace", "TRACE"), ("--trace", "BADTRACE")]),
    _argv("verify-trace", {"--network": NETWORK, "--trace": TRACE},
          extra=[(), ("--adv", "1/8:1:2"), ("--adv", "1/2:1:3"), ("--adv", "x")]),
    _argv("gossip-check", {"--network": NETWORK, "--seed": SEED}),
    st.integers(1, 5).flatmap(lambda t: _argv("instability", {
        "--adv": UNBALANCED,
        "--n": (st.integers(5, MAX_N).map(str), st.sampled_from(["-1", "1", "x"])),
        "--t": (st.just(str(t)), st.sampled_from(["0", "-1", "x"])),
        "--intervals": (st.integers(1, MAX_HORIZON // t).map(str),
                        st.sampled_from(["0", "-1", "x"])),
        "--algorithm": (st.sampled_from(["round-robin", "ogf"]),
                        st.just("flood")),
        "--window": WINDOW, "--gossip": GOSSIP})),
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input files the argv placeholders stand for."""
    root = tmp_path_factory.mktemp("inputs")
    paths = {}
    for name, text in [("NETFILE", "n 4\ne 1 2\ne 2 3\ne 3 4\n"),
                       ("BADNET", "n abc\n"),
                       ("TRACE", "adv 1/8 1 2\nt 1 1 1 2\nt 2 3 2 3 4\n"),
                       ("BADTRACE", "adv 1/8 1 2\nt 1 1 1 9\n")]:
        paths[name] = root / name
        paths[name].write_text(text)
    paths["MISSING"] = root / "absent"
    return {name: str(path) for name, path in paths.items()}


OGF = ["ogf", "--network", "gen:path:4", "--adv", "1/8:1:2", "--horizon", "10"]


# inputs that once ended in a traceback or in a misleading error, and
# missing files, which the draws reach only rarely
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@example(argv=[*OGF, "--gossip", "oracle:x"])
@example(argv=[*OGF, "--gen-scale", "abc"])
@example(argv=[*OGF, "--network", "BADNET"])
@example(argv=[*OGF, "--network", "MISSING"])
@example(argv=[*OGF, "--trace", "MISSING"])
@example(argv=["verify-trace", "--network", "gen:path:4", "--trace", "MISSING"])
@example(argv=["gossip-check", "--network", "gen:random:4"])
@example(argv=["gossip-check", "--network", "gen:clique:4:junk"])
@example(argv=["gossip-check", "--network", ""])
@given(argv=ARGV)
def test_cli_exit_code_is_0_1_or_2(files, argv):
    argv = [files.get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == cli.EXIT_USAGE, argv
            return
    assert code in (cli.EXIT_OK, cli.EXIT_SCIENCE, cli.EXIT_USAGE), argv
    if code == cli.EXIT_USAGE:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
