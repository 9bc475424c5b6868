"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

run.import_radiosim()

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from radiosim.ogf import WindowOverflowError  # noqa: E402

ROOT = Path(run.__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINNED = json.loads(run.DIGESTS.read_text())["digests"]


def _targets() -> dict:
    return {(owner, attr): owner.__dict__[attr]
            for owner, attr, _, _ in tracing._TARGETS}


def test_tracer_restores_every_wrapper_even_on_error():
    before = _targets()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert all(owner.__dict__[attr] is not fn
                       for (owner, attr), fn in before.items())
            raise RuntimeError("inside the traced region")
    after = _targets()
    assert all(after[key] is fn for key, fn in before.items())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_pass_reproduces_pinned_digest_and_counts(workload):
    """The pinned digests come from untraced runs, so tracing must not change
    a byte; the traced counts must show the workload's layers at work."""
    with tracing.Tracer() as tr:
        result = run.run_pass(workloads.WORKLOADS[workload](run.DEFAULT_SEED))
    assert result.failed == 0 and not result.broken
    assert result.digest == PINNED[workload]
    layers = tracing.layer_metrics(tr)
    busy = {"ogf-matrix": "adversary.verify_s", "saturation-clique": "conflict.build_s",
            "ogf-sparse": "adversary.gen_s", "sls-bruteforce": "coloring.sls_search_s"}
    assert layers[busy[workload]][0] > 0
    assert layers["engine.step_calls"][0] > 0


def test_traced_counts_repeat_exactly():
    ops = workloads.WORKLOADS["sls-bruteforce"](run.DEFAULT_SEED)[:40]
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tr:
            run.run_pass(ops)
        counts.append((dict(tr.counts), {k: v[0] for k, v in tr.spans.items()}))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_changes_generated_inputs(workload):
    # a workload's first op is its cheapest, but on n <= 3 every one-link
    # tour conflicts with every other, so SLS outputs differ only on its last
    pick = slice(-5, None) if workload == "sls-bruteforce" else slice(0, 1)
    first = [run.run_pass(workloads.WORKLOADS[workload](seed)[pick]) for seed in (1, 2)]
    assert first[0].digest != first[1].digest


def _fake_op(label, outcome):
    """An op whose run raises `outcome` if it is an exception; whose check
    returns it otherwise."""
    def call():
        if isinstance(outcome, WindowOverflowError):
            raise outcome
        return outcome

    def check(result):
        if isinstance(result, Exception):
            raise result
        return result

    return workloads.Op(label, 1, call, check)


def test_failed_ops_are_counted():
    ops = [_fake_op("ok", b"x"),
           _fake_op("overflow", WindowOverflowError("window 3 overflows")),
           _fake_op("theorem", workloads.CheckFailed("latency above 2u"))]
    result = run.run_pass(ops)
    assert result.failed == 2 and result.broken
    assert result.spans[0] is not None and result.spans[1:] == [None, None]
    overflow_only = run.run_pass(ops[:2])
    assert overflow_only.failed == 1 and not overflow_only.broken


def test_host_speed_correction_scales_by_reference_time():
    sampler = hostspeed.Sampler()
    nominal = hostspeed.NOMINAL_REF_S
    # a host at half speed: the reference loop takes twice its nominal time
    sampler.starts = [0.0, 0.5, 1.0, 1.5, 2.0]
    sampler.times = [2 * nominal] * 5
    own = 2 * nominal  # the sample at 1.0 ran inside the span
    assert sampler.seconds(0.9, 1.1) == pytest.approx((0.2 - own) / 2)
    assert sampler.seconds(0.6, 0.8) == pytest.approx(0.1)  # no sample inside


def test_sampler_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        time.sleep(0.1)
        assert signal.getsignal(signal.SIGALRM) is not before
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.times) == len(sampler.starts) >= 2


def test_tampered_digest_counts_as_failure():
    passes = [run.run_pass([_fake_op("a", b"x"), _fake_op("b", b"y")])]
    good = run.finish("ogf-sparse", run.DEFAULT_SEED, passes, [], {},
                      {"ogf-sparse": passes[0].digest})
    assert good["correct"] and good["failed"] == 0
    tampered = run.finish("ogf-sparse", run.DEFAULT_SEED, passes, [], {},
                          {"ogf-sparse": "0" * 64})
    assert not tampered["correct"] and tampered["failed"] == tampered["attempted"] == 2
    # a pass that does not reproduce the first is a failure on any seed
    passes.append(run.run_pass([_fake_op("a", b"x"), _fake_op("b", b"z")]))
    drifted = run.finish("ogf-sparse", 7, passes, [], {}, {})
    assert not drifted["correct"]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, kind):
    proc = _bench(ROOT, "--workload", "sls-bruteforce", "--seed", "1",
                  "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert any(line.startswith("# metric ops_failed_frac 0.0 ratio") for line in lines)
    assert any(line.startswith("# env ") for line in lines)


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "ogf-sparse", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
