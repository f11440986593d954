"""Tests of the session benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest -q sessionbench/test_sessionbench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = 4
WORKLOADS = list(workloads.WORKLOADS)


def cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = cli(
        "--workload", workload, "--seed", "2", "--seconds", "0",
        "--trace", str(trace), "--sessions", str(TINY),
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == expected
    for name, unit in expected.items():
        assert any(
            line.startswith(name + " ") and line.endswith(" " + unit)
            for line in lines[:-1]
        ), name
    assert result["attempted"] >= TINY


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sessions_match_their_lone_session_reference(workload):
    result, details, _ = bench.run(workload, 2, 0, False, sessions=TINY)
    assert details["problems"] == []
    assert result["failed"] == 0
    assert result["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_is_caught(workload, monkeypatch):
    lone = workloads.lone_session_tree

    def perturbed(*args):
        return {**lone(*args), "/perturbed": 0}

    monkeypatch.setattr(workloads, "lone_session_tree", perturbed)
    result, details, _ = bench.run(workload, 2, 0, False, sessions=TINY)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("lone-session reference" in p for p in details["problems"])


def test_tree_check_admits_rounding_only():
    from repro.aida.codec import decode_array, encode_array

    workload = workloads.WORKLOADS["cold-fanout"]
    plan = workload.plan(2, TINY)
    ref = workloads.lone_session_tree(workload, plan, plan.reference_keys[0])
    path = "/higgs/z_mass"

    def changed(field, value):
        tree = json.loads(json.dumps(ref))
        tree["objects"][path][field] = value
        return tree

    hist = ref["objects"][path]
    assert bench.tree_mismatch(ref, ref) is None
    # One ulp of a moment: a different fold order, not a wrong tree.
    ulp = changed("swx2", math.nextafter(hist["swx2"], math.inf))
    assert ulp != ref and bench.tree_mismatch(ulp, ref) is None
    where = f"/objects/{path}/swx2"
    assert bench.tree_mismatch(changed("swx2", hist["swx2"] * (1 + 1e-9)),
                               ref) == where
    counts = decode_array(hist["counts"])
    counts[5] += 1
    assert bench.tree_mismatch(
        changed("counts", encode_array(counts)), ref
    ) == f"/objects/{path}/counts[5]"
    assert bench.tree_mismatch(changed("swx", 1), ref) == (
        f"/objects/{path}/swx"
    )


def test_same_seed_repeats_exactly_and_another_seed_passes():
    _, d1, _ = bench.run("federation-spill", 5, 0, True, sessions=TINY)
    _, d2, _ = bench.run("federation-spill", 5, 0, True, sessions=TINY)
    assert d1["sim"] == d2["sim"]
    assert d1["tree_digest"] == d2["tree_digest"]
    assert bench.deterministic_part(d1["metrics"]) == (
        bench.deterministic_part(d2["metrics"])
    )
    other, d3, _ = bench.run("federation-spill", 6, 0, False, sessions=TINY)
    assert other["correct"] and d3["session_fail_ratio"] == 0
    assert d3["tree_digest"] != d1["tree_digest"]


def test_tracing_attributes_layers_and_uninstalls():
    from repro.grid.network import Network
    from repro.sim.kernel import Environment

    original_route = Network.route
    original_step = Environment.step
    result, details, recorder = bench.run(
        "cold-fanout", 3, 0, True, sessions=TINY
    )
    assert Network.route is original_route
    assert Environment.step is original_step
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["grid.network.transfers"] > 0
    assert metrics["dataset.events_generated"] > 0
    assert metrics["federation.migrations"] == 0
    assert metrics["obs.spans"] == 0
    # Merges count polls that re-fold something, and folds happen.
    assert 0 < metrics["services.aida_manager.merges"] < metrics["client.polls"]
    assert metrics["aida.tree.merges"] > 0
    # Self times account for the traced wall up to the harness's own loop.
    assert abs(metrics["unattributed_s"]) < 0.05 * metrics["traced_wall_s"]
    # Generator proxies record sim-clock spans for client operations.
    assert metrics["client.connect_sim_s.p50"] > 0
    assert recorder.folded and all(
        stack.split(";")[0] == "sim" for stack in recorder.folded
    )


def test_generator_proxy_times_every_resume():
    rec = tracing.Recorder()
    calls = []

    def inner():
        calls.append("start")
        got = yield 1
        calls.append(got)
        try:
            yield 2
        except KeyError:
            calls.append("thrown")
        return "done"

    proxy = tracing._traced_generator(rec, inner(), ("bench", "inner"))
    assert next(proxy) == 1
    assert proxy.send("sent") == 2
    with pytest.raises(StopIteration) as stop:
        proxy.throw(KeyError("x"))
    assert stop.value.value == "done"
    assert calls == ["start", "sent", "thrown"]
    stats = rec.entries[("bench", "inner")]
    assert stats[1] == 3  # three resumes, each timed
    assert rec.stack == []


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = cli(
        "--workload", "cold-fanout", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
