"""Experiment harness.

Subcommands:
  sls           link-scheduling optimum vs chromatic number on one instance
  instability   clique saturation run with the counting lower bound
  ogf           strict Old-Go-First run, which checks the 2u latency
                bound (2w under --window w, which must be at least u)
  verify-trace  admissibility check of a trace file
  gossip-check  completeness check of the TDMA gossip phase

Exit codes: 0 success, 1 a theorem-backed property failed, 2 usage or
parse errors.  Commands raise; only `main` maps ogf.GuaranteeError to
exit 1 and input errors to exit 2, each with one stderr line.  All
randomness flows from --seed through named sub-seeds, and every CSV
written for a fixed seed is byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path

from . import adversary, coloring, conflict, engine, network, ogf

EXIT_OK = 0
EXIT_SCIENCE = 1
EXIT_USAGE = 2

SUMMARY_HEADER = "scenario,seed,n,rho,b,L,u,max_latency,max_queue,verdict"
GROWTH_SLOPE = 0.01  # backlog per round
OUT_HELP = "directory for CSV outputs, made before the command runs"


def read_input(path: str) -> str:
    """An input file's text; like a missing one, a non-UTF-8 file or an
    empty path is an OSError."""
    if not path:
        raise OSError(errno.ENOENT, "empty input file path", path)
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(errno.EILSEQ, f"not UTF-8 text at byte {exc.start}",
                      path) from None


def derive_seed(seed: int, label: str) -> int:
    """Stable named sub-seed (topology, traffic, ... ) from the CLI seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).hexdigest()
    return int(digest[:16], 16)


# each `gen:` kind's maker and field types; gen:random also takes a seed
GENERATORS = {"clique": (network.make_clique, (int,)),
              "path": (network.make_path, (int,)),
              "cycle": (network.make_cycle, (int,)),
              "random": (network.make_random_connected, (int, float))}
GENERATOR_FORMS = "gen:clique:N | gen:path:N | gen:cycle:N | gen:random:N:P"


def load_network(spec: str, seed: int) -> network.Network:
    """A file path, or one of GENERATOR_FORMS."""
    if not spec.startswith("gen:"):
        return network.parse_network(read_input(spec))
    kind, *fields = spec[len("gen:"):].split(":")
    try:
        maker, types = GENERATORS[kind]
        values = [parse(x) for parse, x in zip(types, fields, strict=True)]
    except (KeyError, ValueError):
        raise network.NetworkError(
            f"bad generator spec {spec!r}; use {GENERATOR_FORMS}") from None
    if kind == "random":
        values.append(derive_seed(seed, "topology"))
    return maker(*values)


def parse_gossip(spec: str) -> ogf.GossipConfig:
    if spec == "tdma":
        return ogf.GossipConfig.tdma()
    if spec.startswith("oracle:"):
        try:
            s_n = int(spec.split(":", 1)[1])
        except ValueError:
            raise ogf.OgfError(
                f"bad gossip spec {spec!r}: S_n must be an integer") from None
        return ogf.GossipConfig.oracle(s_n)
    raise ogf.OgfError(f"bad gossip spec {spec!r}; use tdma or oracle:<S_n>")


def _stability(backlog: list[int]) -> tuple[str, float]:
    """Finite-run heuristic for an asymptotic property: ("growing", slope)
    when the backlog timeline's linear-fit slope over the final half of the
    run exceeds GROWTH_SLOPE, else ("bounded", slope).  The instability
    scenario's pass/fail rests on the exact counting bound, never on this
    heuristic."""
    tail = backlog[len(backlog) // 2:]
    if len(tail) >= 2 and len(set(tail)) > 1:
        slope, _ = statistics.linear_regression(range(len(tail)), tail)
    else:
        slope = 0.0
    return ("growing" if slope > GROWTH_SLOPE else "bounded"), slope


def _write(out_dir: str | None, name: str, content: str) -> None:
    if out_dir is not None:
        (Path(out_dir) / name).write_text(content)


def _summary(scenario: str, seed: int, n: int, adv: adversary.AdversaryType | None,
             u, max_latency, max_queue, verdict: str,
             out_dir: str | None) -> None:
    rho = f"{adv.rho.numerator}/{adv.rho.denominator}" if adv else ""
    line = ",".join(str(x) for x in [
        scenario, seed, n, rho, adv.b if adv else "", adv.L if adv else "",
        "" if u is None else u,
        "" if max_latency is None else max_latency,
        "" if max_queue is None else max_queue, verdict])
    print(SUMMARY_HEADER)
    print(line)
    _write(out_dir, "summary.csv", SUMMARY_HEADER + "\n" + line + "\n")


# ---------------------------------------------------------------- sls


def _one_link_tours_from_file(path: str) -> list[conflict.Tour]:
    tours = []
    for lineno, raw in enumerate(read_input(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tours.append(conflict.parse_tour_line(line, lineno))
    return tours


def _gen_one_link_tours(net: network.Network, count: int, seed: int) -> list[conflict.Tour]:
    if count < 0:
        raise conflict.TourError(f"tour count must be >= 0, got {count}")
    if count > coloring.BRUTE_FORCE_CAP:  # reject before drawing any tour
        raise coloring.ColoringError(
            f"brute force capped at {coloring.BRUTE_FORCE_CAP} tours, got {count}")
    if count > 0 and not net.edges:
        raise conflict.TourError(f"cannot generate {count} one-link tours "
                                 "on a network without edges")
    rng = random.Random(derive_seed(seed, "sls-tours"))
    edges = sorted(net.edges)
    tours = []
    for i in range(1, count + 1):
        u, v = rng.choice(edges)
        if rng.random() < 0.5:
            u, v = v, u
        tours.append(conflict.Tour(i, 1, (u, v)))
    return tours


def cmd_sls(args) -> int:
    net = load_network(args.network, args.seed)
    if args.tours:
        tours = _one_link_tours_from_file(args.tours)
    else:
        tours = _gen_one_link_tours(net, args.gen_tours, args.seed)
    # checks each tour and the size cap, so both raise before any output
    t_opt = coloring.optimal_sls_length(net, tours)
    if not tours:
        print("empty instance: 0 tours, schedule length 0 (vacuous)")
        _summary("sls", args.seed, net.n, None, None, None, None, "ok", args.out)
        return EXIT_OK

    cg = conflict.build_conflict_graph(net, tours)
    mu = coloring.exact_chromatic(cg)
    print(f"conflict graph: {len(cg.vertices)} tours, edges "
          f"{sorted(cg.edges) if cg.edges else '{}'}")
    sched = coloring.schedule_from_coloring(coloring.greedy_color(cg), cg)
    sched_lines = "\n".join(f"tour {tid} round {r}"
                            for tid, r in sorted(sched.assignment.items()))
    print(f"chromatic number: {mu}")
    print(f"optimal schedule length: {t_opt}")
    print(sched_lines)
    _write(args.out, "schedule.txt", sched_lines + "\n")
    ok = mu == t_opt
    print(f"equality chromatic == optimal: {'PASS' if ok else 'FAIL'}")
    _summary("sls", args.seed, net.n, None, None, None, None,
             "ok" if ok else "mismatch", args.out)
    return EXIT_OK if ok else EXIT_SCIENCE


# ---------------------------------------------------------------- instability


def cmd_instability(args) -> int:
    adv = adversary.AdversaryType.parse(args.adv)
    gossip = parse_gossip(args.gossip)
    if args.window < 0:
        raise ogf.OgfError(f"--window must be >= 0, got {args.window}")
    if args.intervals < 1:
        raise ogf.OgfError(f"--intervals must be >= 1, got {args.intervals}")
    horizon = args.intervals * args.t
    net, trace = adversary.gen_unbalanced_clique(adv, args.n, args.t, horizon)

    if args.algorithm == "round-robin":
        metrics = engine.run(net, engine.RoundRobin(), trace, horizon)
    else:
        window = args.window or 2 * gossip.rounds(net.n)
        metrics = ogf.run_ogf(net, adv, gossip, trace, horizon,
                              window_override=window, strict=False).metrics

    # hops the generator injects per interval beyond the t that K_n forwards
    k = args.intervals
    per_interval = adversary._clique_quota(adv, args.t)
    surplus = (adv.L * per_interval - args.t) * k - adv.b * adv.L
    bound = max(0, surplus // adv.L)
    measured = metrics.final_backlog()
    verdict, slope = _stability(metrics.backlog)
    print(f"injected {metrics.injected_total} tours of length {adv.L} "
          f"over {k} intervals of {args.t} rounds on K{net.n}")
    print(f"final packet backlog: {measured}  (counting lower bound: {bound})")
    print(f"verdict: {verdict}  "
          f"max_backlog={max(metrics.backlog, default=0)} "
          f"slope={slope:.4f} over final half of {len(metrics.backlog)} rounds")
    _write(args.out, "rounds.csv", metrics.rounds_csv())
    _write(args.out, "deliveries.csv", metrics.deliveries_csv())
    _summary("instability", args.seed, net.n, adv, None, metrics.max_latency,
             metrics.max_queue, verdict, args.out)
    if measured < bound:
        print(f"FAIL: measured backlog {measured} below proof bound {bound}",
              file=sys.stderr)
        return EXIT_SCIENCE
    return EXIT_OK


# ---------------------------------------------------------------- ogf


def cmd_ogf(args) -> int:
    adv = adversary.AdversaryType.parse(args.adv)
    net = load_network(args.network, args.seed)
    gossip = parse_gossip(args.gossip)
    s_n = gossip.rounds(net.n)
    u = ogf.compute_window_bound(adv, s_n)
    if args.window and args.window < u:
        # the 2w latency argument needs (1 - rho*L)*w >= S(n) + b*L
        raise ogf.OgfError(f"strict --window must be >= u = {u}, got {args.window}")
    horizon = args.horizon if args.horizon else 10 * u

    if args.trace:
        # strict run_ogf rejects an inadmissible trace
        _, trace = adversary.parse_trace(read_input(args.trace))
    else:
        try:
            scale = Fraction(args.gen_scale)
        except (ValueError, ZeroDivisionError) as exc:
            raise adversary.AdversaryError(
                f"bad --gen-scale {args.gen_scale!r}: {exc}") from None
        if not 0 < scale <= 1:
            raise adversary.AdversaryError(
                f"--gen-scale must be in (0, 1], got {scale}")
        gen_adv = adversary.AdversaryType(adv.rho * scale, adv.b, adv.L)
        trace = adversary.gen_balanced(net, gen_adv,
                                       derive_seed(args.seed, "traffic"),
                                       horizon, attempts_per_round=args.attempts)

    result = ogf.run_ogf(net, adv, gossip, trace, horizon,
                         window_override=args.window if args.window else None)
    metrics = result.metrics

    print(f"u = {u}, S(n) = {s_n}, window = {result.w}, horizon = {horizon}")
    for ws in result.windows:
        print(f"window {ws.index}: old={ws.old_count} L'={ws.l_prime} "
              f"Delta={ws.delta} phase2={ws.phase2_length}")
    max_latency = metrics.max_latency
    print(f"injected {metrics.injected_total}, delivered {metrics.delivered_total}, "
          f"max latency {max_latency}, max queue {metrics.max_queue}")

    _write(args.out, "rounds.csv", metrics.rounds_csv())
    _write(args.out, "deliveries.csv", metrics.deliveries_csv())
    _summary("ogf", args.seed, net.n, adv, u, max_latency, metrics.max_queue,
             "ok", args.out)
    bound = f"2u = {2 * u}" if result.w == u else f"2w = {2 * result.w}"
    print(f"all latencies within {bound}")  # else strict run_ogf raised
    return EXIT_OK


# ---------------------------------------------------------------- verify-trace


def cmd_verify_trace(args) -> int:
    adv, trace = adversary.parse_trace(read_input(args.trace))
    net = load_network(args.network, args.seed)
    if args.adv:
        adv = adversary.AdversaryType.parse(args.adv)
    violation = adversary.verify_admissible(net, trace, adv)
    if violation is None:
        print(f"ok: {len(trace.injections)} injections admissible for {adv}")
        return EXIT_OK
    print(f"violation: {violation}")
    return EXIT_SCIENCE


# ---------------------------------------------------------------- gossip-check


def cmd_gossip_check(args) -> int:
    net = load_network(args.network, args.seed)
    knowledge = ogf.tdma_gossip(net, {v: {v: None} for v in net.nodes()})
    nodes = set(net.nodes())
    missing = {v: sorted(nodes - known.keys())
               for v, known in knowledge.items() if known.keys() != nodes}
    print(f"TDMA gossip on n={net.n}: S(n) = {ogf.GossipConfig.tdma().rounds(net.n)} "
          f"rounds, complete knowledge: {'NO' if missing else 'yes'}")
    if missing:
        print(f"missing rumors: {missing}", file=sys.stderr)
        return EXIT_SCIENCE
    return EXIT_OK


# ---------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radiosim",
        description="Radio-network routing experiments: scheduling, "
                    "saturation, and bounded-latency runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--network", required=True,
                       help=f"file path or {GENERATOR_FORMS}")
        p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("sls", help="static link scheduling vs chromatic number")
    common(p)
    p.add_argument("--out", default=None, help=OUT_HELP)
    p.add_argument("--tours", default=None, help="file of one-link tour lines")
    p.add_argument("--gen-tours", type=int, default=5,
                   help="number of random one-link tours when no file is given")
    p.set_defaults(func=cmd_sls)

    p = sub.add_parser("instability", help="clique saturation experiment")
    p.add_argument("--adv", required=True, help="<num>/<den>:<b>:<L>, unbalanced")
    p.add_argument("--n", type=int, required=True, help="clique size, must exceed L")
    p.add_argument("--t", type=int, required=True, help="interval length in rounds")
    p.add_argument("--intervals", type=int, default=1000)
    p.add_argument("--algorithm", choices=["round-robin", "ogf"],
                   default="round-robin")
    p.add_argument("--window", type=int, default=0,
                   help="forced window length for --algorithm ogf "
                        "(default 2*S(n) of --gossip)")
    p.add_argument("--gossip", default="tdma")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None, help=OUT_HELP)
    p.set_defaults(func=cmd_instability)

    p = sub.add_parser("ogf", help="Old-Go-First bounded-latency run")
    common(p)
    p.add_argument("--out", default=None, help=OUT_HELP)
    p.add_argument("--adv", required=True, help="<num>/<den>:<b>:<L>, balanced")
    p.add_argument("--gossip", default="tdma", help="tdma or oracle:<S_n>")
    p.add_argument("--horizon", type=int, default=0, help="default 10u")
    p.add_argument("--window", type=int, default=0,
                   help="window length w >= u (default u); latencies are "
                        "checked against 2w")
    p.add_argument("--attempts", type=int, default=1,
                   help="candidate injections per round for the generator")
    p.add_argument("--gen-scale", default="1",
                   help="generate traffic at this fraction of rho (the trace "
                        "stays admissible for --adv); lower it if saturating "
                        "traffic overflows windows on sparse topologies")
    p.add_argument("--trace", default=None, help="load a trace file instead")
    p.set_defaults(func=cmd_ogf)

    p = sub.add_parser("verify-trace", help="check a trace file's admissibility")
    common(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--adv", default=None,
                   help="override the type in the trace header")
    p.set_defaults(func=cmd_verify_trace)

    p = sub.add_parser("gossip-check", help="TDMA gossip completeness check")
    common(p)
    p.set_defaults(func=cmd_gossip_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None) is not None:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except ogf.GuaranteeError as exc:
        print(f"FAIL during run: {exc}", file=sys.stderr)
        return EXIT_SCIENCE
    except (network.NetworkError, conflict.TourError, adversary.AdversaryError,
            coloring.ColoringError, ogf.OgfError, engine.EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
