from __future__ import annotations

import re

import pytest

from radiosim import (Metrics, coloring, conflict, engine, format_network,
                      format_trace, format_tour, make_path, ogf, validate_tour)
from radiosim.engine import Delivery
from radiosim.cli import (EXIT_OK, EXIT_SCIENCE, EXIT_USAGE, derive_seed,
                          load_network, main)
from conftest import MALFORMED_TOURS, spider_burst


def run_cli(*argv):
    return main(list(argv))


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "traffic") == derive_seed(1, "traffic")
    assert derive_seed(1, "traffic") != derive_seed(1, "topology")
    assert derive_seed(1, "traffic") != derive_seed(2, "traffic")


def test_load_network_generators():
    assert load_network("gen:clique:4", 1).n == 4
    assert load_network("gen:path:6", 1).n == 6
    assert load_network("gen:cycle:5", 1).n == 5
    assert load_network("gen:random:7:0.3", 1).n == 7
    # seeded: same seed, same graph
    assert load_network("gen:random:7:0.3", 5) == load_network("gen:random:7:0.3", 5)


def test_load_network_from_file(tmp_path):
    net = make_path(4)
    p = tmp_path / "net.txt"
    p.write_text(format_network(net))
    assert load_network(str(p), 1) == net


def test_bad_generator_spec_is_usage_error(capsys):
    # an unknown kind, extra fields and a missing field
    for spec in ("gen:torus:4", "gen:clique:4:junk", "gen:path:5:0.3:x",
                 "gen:random:4"):
        assert run_cli("gossip-check", "--network", spec) == EXIT_USAGE, spec
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, spec
        assert err.startswith(f"error: bad generator spec {spec!r}; use gen:clique:N")


@pytest.mark.parametrize("argv", [
    ["sls", "--network", "gen:path:3", "--gen-tours", "3"],
    ["instability", "--adv", "1/2:1:3", "--n", "6", "--t", "2",
     "--intervals", "5"],
    ["ogf", "--network", "gen:path:4", "--adv", "1/8:1:2", "--horizon", "40"],
], ids=["sls", "instability", "ogf"])
def test_out_that_is_a_file_fails_before_the_run(argv, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run_cli(*argv, "--out", str(taken)) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(taken) in err


@pytest.mark.parametrize("command", [
    ["verify-trace", "--network", "gen:path:3", "--trace", "trace.txt"],
    ["gossip-check", "--network", "gen:path:3"],
], ids=["verify-trace", "gossip-check"])
def test_commands_that_write_nothing_take_no_out(command, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(*command, "--out", str(tmp_path))
    assert exc.value.code == EXIT_USAGE


# ---------------------------------------------------------------- sls


def test_sls_on_crossed_ring(tmp_path, capsys):
    netfile = tmp_path / "net.txt"
    netfile.write_text("n 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n")
    toursfile = tmp_path / "tours.txt"
    toursfile.write_text("t 1 1 3 2\nt 2 1 1 2\nt 3 1 4 3\nt 4 1 1 4\n")
    code = run_cli("sls", "--network", str(netfile), "--tours", str(toursfile),
                   "--out", str(tmp_path / "out"))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "chromatic number: 3" in out
    assert "optimal schedule length: 3" in out
    assert "PASS" in out
    assert (tmp_path / "out" / "schedule.txt").exists()


def test_sls_generated_instance():
    assert run_cli("sls", "--network", "gen:clique:4", "--gen-tours", "4",
                   "--seed", "3") == EXIT_OK


def test_sls_empty_instance_is_vacuous(capsys):
    code = run_cli("sls", "--network", "gen:clique:4", "--gen-tours", "0")
    assert code == EXIT_OK
    assert "vacuous" in capsys.readouterr().out


def test_sls_negative_tour_count_is_usage_error(capsys):
    code = run_cli("sls", "--network", "gen:clique:4", "--gen-tours", "-3")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_sls_over_brute_force_cap_prints_nothing_before_its_error(capsys):
    code = run_cli("sls", "--network", "gen:clique:12", "--gen-tours", "11")
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: brute force capped at 10 tours, got 11\n"


def test_sls_over_brute_force_cap_draws_no_tour(monkeypatch, capsys):
    built = []
    real = conflict.Tour

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(conflict, "Tour", counted)
    code = run_cli("sls", "--network", "gen:clique:3", "--gen-tours", "1000")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: brute force capped at 10 tours, got 1000\n"
    assert built == []


def test_sls_rejects_multilink_tours(tmp_path, capsys):
    netfile = tmp_path / "net.txt"
    netfile.write_text("n 3\ne 1 2\ne 2 3\n")
    toursfile = tmp_path / "tours.txt"
    toursfile.write_text("t 1 1 1 2 3\n")
    assert run_cli("sls", "--network", str(netfile),
                   "--tours", str(toursfile)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_sls_checks_each_tour_once(monkeypatch, capsys):
    calls = []

    def counting(net, tour):
        calls.append(tour.id)
        return validate_tour(net, tour)

    monkeypatch.setattr(coloring, "validate_tour", counting)
    assert run_cli("sls", "--network", "gen:clique:5", "--gen-tours", "7") == EXIT_OK
    assert sorted(calls) == list(range(1, 8))


@pytest.mark.parametrize("tour, match", MALFORMED_TOURS)
def test_sls_rejects_malformed_tour_file(tour, match, tmp_path, capsys):
    netfile = tmp_path / "net.txt"
    netfile.write_text(format_network(make_path(4)))
    toursfile = tmp_path / "tours.txt"
    toursfile.write_text(format_tour(tour) + "\n")
    assert run_cli("sls", "--network", str(netfile),
                   "--tours", str(toursfile)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_sls_generated_tours_need_an_edge(tmp_path, capsys):
    netfile = tmp_path / "net.txt"
    netfile.write_text("n 1\n")
    assert run_cli("sls", "--network", str(netfile),
                   "--gen-tours", "2") == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


# ---------------------------------------------------------------- instability


def test_instability_round_robin(tmp_path, capsys):
    code = run_cli("instability", "--adv", "1/2:1:3", "--n", "6", "--t", "2",
                   "--intervals", "60", "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "verdict: growing" in out
    assert (tmp_path / "rounds.csv").exists()
    assert (tmp_path / "summary.csv").exists()


def test_instability_ogf_forced_window(capsys):
    code = run_cli("instability", "--adv", "1/2:1:3", "--n", "6", "--t", "2",
                   "--intervals", "40", "--algorithm", "ogf")
    assert code == EXIT_OK
    assert "growing" in capsys.readouterr().out


def test_instability_ogf_default_window_follows_the_chosen_gossip(capsys):
    # the default window is 2*S(n) of the gossip in use: 200 rounds here,
    # where a TDMA-sized 60 would leave no room after S(n) = 100
    code = run_cli("instability", "--adv", "1/2:1:3", "--n", "6", "--t", "2",
                   "--intervals", "5", "--algorithm", "ogf",
                   "--gossip", "oracle:100")
    out, err = capsys.readouterr()
    assert code == EXIT_OK, err
    assert err == "" and "verdict:" in out


def test_instability_malformed_gossip_is_usage_error(capsys):
    assert run_cli("instability", "--adv", "1/2:1:3", "--n", "6", "--t", "2",
                   "--intervals", "3", "--algorithm", "ogf",
                   "--gossip", "oracle:x") == EXIT_USAGE


def test_instability_rejects_balanced_type(capsys):
    assert run_cli("instability", "--adv", "1/8:1:2", "--n", "6",
                   "--t", "2") == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_instability_bound_counts_the_tours_injected(capsys):
    # rho*t = 3/2: one 3-hop tour per 2-round interval, so the bound is
    # floor(((3*1 - 2)*200 - 1*3) / 3) = 65, not rho*k*t tours' 165
    code = run_cli("instability", "--adv", "3/4:1:3", "--n", "8", "--t", "2",
                   "--intervals", "200")
    out, err = capsys.readouterr()
    assert code == EXIT_OK, err
    assert "final packet backlog: 70  (counting lower bound: 65)" in out


def test_instability_interval_without_surplus_is_usage_error(capsys):
    # floor(rho*t) = 0 tours per interval: no surplus to bank
    code = run_cli("instability", "--adv", "3/4:3:3", "--n", "8", "--t", "1",
                   "--intervals", "40")
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: need L*floor(rho*t) > t")


# ---------------------------------------------------------------- ogf


def test_ogf_run_and_reproducible_csv(tmp_path, capsys):
    args = ("ogf", "--network", "gen:path:4", "--adv", "1/8:1:2",
            "--gossip", "tdma", "--seed", "5", "--horizon", "120",
            "--gen-scale", "1/2")
    code = run_cli(*args, "--out", str(tmp_path / "a"))
    assert code == EXIT_OK
    assert "all latencies within 2u = 38" in capsys.readouterr().out
    code = run_cli(*args, "--out", str(tmp_path / "b"))
    assert code == EXIT_OK
    for name in ("rounds.csv", "deliveries.csv", "summary.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_ogf_rejects_unbalanced(capsys):
    assert run_cli("ogf", "--network", "gen:path:4",
                   "--adv", "1/2:1:3") == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, product", [
    (["ogf", "--network", "gen:path:4", "--adv", "1/2:1:3"], "3/2"),
    (["ogf", "--network", "gen:path:4", "--adv", "1/3:1:3"], "1"),
    (["instability", "--adv", "1/8:1:2", "--n", "6", "--t", "2"], "1/4"),
], ids=["ogf-unbalanced", "ogf-critical", "instability-balanced"])
def test_wrong_balance_class_error_gives_rho_l(argv, product, capsys):
    assert run_cli(*argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert f"rho*L = {product}" in err


def test_ogf_broken_guarantee_exits_1(tmp_path, capsys):
    net, adv, trace = spider_burst()
    netfile = tmp_path / "net.txt"
    netfile.write_text(format_network(net))
    tracefile = tmp_path / "trace.txt"
    tracefile.write_text(format_trace(adv, trace))
    code = run_cli("ogf", "--network", str(netfile), "--adv", "1/90:2:1",
                   "--trace", str(tracefile), "--horizon", "300")
    assert code == EXIT_SCIENCE
    err = capsys.readouterr().err
    assert err.startswith("FAIL during run: window 2") and err.count("\n") == 1


def test_ogf_loads_trace_file(tmp_path, capsys):
    from fractions import Fraction
    from radiosim import AdversaryType, gen_balanced
    net = make_path(4)
    adv = AdversaryType(Fraction(1, 16), 1, 2)
    trace = gen_balanced(net, adv, 3, 100)
    tracefile = tmp_path / "trace.txt"
    tracefile.write_text(format_trace(adv, trace))
    netfile = tmp_path / "net.txt"
    netfile.write_text(format_network(net))
    code = run_cli("ogf", "--network", str(netfile), "--adv", "1/8:1:2",
                   "--trace", str(tracefile), "--horizon", "120")
    assert code == EXIT_OK


def test_ogf_rejects_inadmissible_loaded_trace(tmp_path, capsys):
    netfile = tmp_path / "net.txt"
    netfile.write_text(format_network(make_path(4)))
    tracefile = tmp_path / "trace.txt"
    # three conflicting injections in one round against budget 1/8 + 1
    tracefile.write_text("adv 1/8 1 2\nt 1 1 1 2\nt 2 1 1 2\nt 3 1 1 2\n")
    code = run_cli("ogf", "--network", str(netfile), "--adv", "1/8:1:2",
                   "--trace", str(tracefile), "--horizon", "40")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "admissible" in err


@pytest.mark.parametrize("option", [("--gossip", "oracle:x"),
                                    ("--gen-scale", "abc"),
                                    ("--attempts", "-1"),
                                    ("--window", "-3"),
                                    ("--window", "5"),
                                    ("--gen-scale", "2"),
                                    ("--gossip", "junk")])
def test_ogf_malformed_option_is_usage_error(option, capsys):
    code = run_cli("ogf", "--network", "gen:path:4", "--adv", "1/8:1:2",
                   "--horizon", "10", *option)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("option", [("--gossip", "junk"), ("--window", "-3"),
                                    ("--intervals", "0"), ("--intervals", "-3")],
                         ids=["gossip", "window", "intervals-0", "intervals-neg"])
@pytest.mark.parametrize("algorithm", ["round-robin", "ogf"])
def test_instability_malformed_option_is_usage_error(algorithm, option, capsys):
    # round-robin uses neither --gossip nor --window, and still rejects a
    # malformed one
    code = run_cli("instability", "--adv", "1/2:1:3", "--n", "6", "--t", "2",
                   "--intervals", "5", "--algorithm", algorithm, *option)
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["n abc\n", "n 3\ne 1 x\n", "n 3\nn 3\n",
                                  "n 3 4\n", "n 3\ne 1\n"])
def test_malformed_network_file_is_usage_error(tmp_path, capsys, text):
    netfile = tmp_path / "net.txt"
    netfile.write_text(text)
    assert run_cli("ogf", "--network", str(netfile),
                   "--adv", "1/8:1:2") == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


# ---------------------------------------------------------------- verify-trace


def test_verify_trace_accepts_generator_output(tmp_path, capsys):
    from fractions import Fraction
    from radiosim import AdversaryType, gen_balanced
    net = make_path(5)
    adv = AdversaryType(Fraction(1, 8), 1, 2)
    trace = gen_balanced(net, adv, 9, 60)
    netfile = tmp_path / "net.txt"
    netfile.write_text(format_network(net))
    tracefile = tmp_path / "trace.txt"
    tracefile.write_text(format_trace(adv, trace))
    code = run_cli("verify-trace", "--network", str(netfile),
                   "--trace", str(tracefile))
    assert code == EXIT_OK
    assert "ok:" in capsys.readouterr().out


def test_verify_trace_flags_burst(tmp_path, capsys):
    netfile = tmp_path / "net.txt"
    netfile.write_text("n 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\ne 1 3\ne 2 4\n")
    tracefile = tmp_path / "trace.txt"
    # two conflicting injections in one round against budget 1/2 + 1
    tracefile.write_text("adv 1/2 1 1\nt 1 1 1 2\nt 2 1 3 4\n")
    code = run_cli("verify-trace", "--network", str(netfile),
                   "--trace", str(tracefile))
    out = capsys.readouterr().out
    assert code == EXIT_SCIENCE
    assert "violation" in out and "node" in out


def test_verify_trace_flags_stretch(tmp_path, capsys):
    netfile = tmp_path / "net.txt"
    netfile.write_text("n 3\ne 1 2\ne 2 3\n")
    tracefile = tmp_path / "trace.txt"
    tracefile.write_text("adv 1/2 1 1\nt 1 1 1 2 3\n")
    code = run_cli("verify-trace", "--network", str(netfile),
                   "--trace", str(tracefile))
    assert code == EXIT_SCIENCE
    assert "stretch" in capsys.readouterr().out


def test_verify_trace_parse_error(tmp_path, capsys):
    tracefile = tmp_path / "trace.txt"
    for text in ("garbage\n", "adv 1/8 1 2\nt 1 1 1 2\nadv 1/2 3 3\n"):
        tracefile.write_text(text)
        assert run_cli("verify-trace", "--network", "gen:path:3",
                       "--trace", str(tracefile)) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


# ---------------------------------------------------------------- gossip-check


def test_gossip_check_ok(capsys):
    assert run_cli("gossip-check", "--network", "gen:path:5") == EXIT_OK
    assert "complete knowledge: yes" in capsys.readouterr().out
    assert run_cli("gossip-check", "--network", "gen:random:6:0.2",
                   "--seed", "4") == EXIT_OK


def test_gossip_check_one_node(tmp_path, capsys):
    # S(1) = 0, as for `radiosim ogf` with TDMA gossip on the same file
    netfile = tmp_path / "net.txt"
    netfile.write_text("n 1\n")
    assert run_cli("gossip-check", "--network", str(netfile)) == EXIT_OK
    assert capsys.readouterr().out == (
        "TDMA gossip on n=1: S(n) = 0 rounds, complete knowledge: yes\n")


# ---------------------------------------------------------------- failed checks


def _late_delivery(real):
    def run(net, alg, *args, **kwargs):
        metrics = real(net, alg, *args, **kwargs)
        late = 2 * alg.w + 1
        metrics.deliveries.append(Delivery(0, 1, 1 + late, late, 1))
        return metrics
    return run


def _no_delivery(real):
    def run(*args, **kwargs):
        metrics = real(*args, **kwargs)
        metrics.deliveries.clear()
        return metrics
    return run


def _dropped_rumor(real):
    def tdma_gossip(net, rumors):
        knowledge = real(net, rumors)
        del knowledge[1][net.n]
        return knowledge
    return tdma_gossip


OGF_ARGV = ["ogf", "--network", "gen:path:4", "--adv", "1/8:1:2"]


@pytest.mark.parametrize("argv, module, name, fault, message", [
    (["instability", "--adv", "1/2:1:3", "--n", "6", "--t", "2",
      "--intervals", "60"], engine, "run", lambda real: lambda *a, **k: Metrics(),
     r"FAIL: measured backlog 0 below proof bound 19"),
    (OGF_ARGV, engine, "run", _late_delivery,
     r"FAIL during run: tour 0: latency \d+ exceeds 2w = \d+"),
    (OGF_ARGV, engine, "run", _no_delivery,
     r"FAIL during run: tour 1: undelivered at horizon \d+, "
     r"over 2w = \d+ rounds after injection"),
    (["gossip-check", "--network", "gen:path:5"], ogf, "tdma_gossip",
     _dropped_rumor, r"missing rumors: \{1: \[5\]\}"),
], ids=["instability-below-bound", "ogf-late", "ogf-undelivered",
        "gossip-check-missing"])
def test_failed_post_run_check_exits_1(argv, module, name, fault, message,
                                       monkeypatch, capsys):
    """Each check made on a finished run exits 1 with one stderr line when
    the run's result breaks it."""
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    assert run_cli(*argv) == EXIT_SCIENCE
    err = capsys.readouterr().err
    assert re.fullmatch(message + "\n", err), err


@pytest.mark.parametrize("argv", [
    ["sls", "--network", "BIN"],
    ["ogf", "--network", "gen:path:4", "--adv", "1/8:1:2", "--trace", "BIN"],
    ["verify-trace", "--network", "gen:path:4", "--trace", "BIN"],
], ids=["sls", "ogf", "verify-trace"])
def test_non_utf8_input_is_usage_error(argv, tmp_path, capsys):
    binary = tmp_path / "input.bin"
    binary.write_bytes(b"\xff\xfe\x00\x80n 4\n")
    code = run_cli(*(str(binary) if arg == "BIN" else arg for arg in argv))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(binary) in err


def test_missing_network_file_is_usage_error(tmp_path):
    assert run_cli("gossip-check", "--network",
                   str(tmp_path / "absent.txt")) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["gossip-check", "--network", ""],
    ["verify-trace", "--network", "gen:path:4", "--trace", ""],
], ids=["network", "trace"])
def test_empty_input_path_is_usage_error(argv, capsys):
    # an empty path is the current directory to pathlib
    assert run_cli(*argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: [Errno 2] empty input file path: ''\n"


@pytest.mark.parametrize("window, bound", [("100", "2w = 200"), ("19", "2u = 38")])
def test_ogf_checks_latency_against_twice_the_window_used(window, bound, capsys):
    # u = 19 here; with w = 100 every latency is within 2w but not within 2u
    code = run_cli("ogf", "--network", "gen:clique:4", "--adv", "1/8:1:2",
                   "--window", window, "--horizon", "2000", "--attempts", "3")
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith(f"u = 19, S(n) = 12, window = {window},")
    assert out.endswith(f"all latencies within {bound}\n")


def test_ogf_window_below_u_is_usage_error_before_any_output(capsys):
    code = run_cli("ogf", "--network", "gen:clique:4", "--adv", "1/8:1:2",
                   "--window", "16")
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: strict --window must be >= u = 19, got 16")
