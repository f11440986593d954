#!/usr/bin/env python3
"""Full-session benchmark: real client sessions, both clocks, per layer.

Run from the repository root::

    python3 sessionbench/run.py --workload cold-fanout --seed 1 --seconds 20 --trace 0

One process and one thread drive full sessions (proxy, connect, stage,
upload code, run, poll, close) through the public ``IPAClient`` /
``FederatedClient`` API.  A run builds the workload's site afresh for
every *round* and repeats rounds of the same seeded plan until
``--seconds`` of wall time are used (at least two).  Wall metrics are
medians over rounds; sim-clock metrics must come out identical in every
round, and so must every merged tree, or the run fails.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced round, then installs the layer wrappers of ``tracing.py`` and
runs traced rounds of the same plan, and prints the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details (machine, sample
counts, per-round walls, and for traced runs the spans and folded
stacks) go to ``sessionbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: Least number of import samples per run for the import part of
#: ``setup_s``; one is taken before every untraced round.
IMPORT_SAMPLES = 5
#: Import speed probe: modules a fresh interpreter imports to time the
#: host's import speed right before each import sample of the program.
#: Standard library and numpy only, none of the program's own code.
IMPORT_PROBE = (
    "numpy",
    "asyncio",
    "decimal",
    "email.mime.multipart",
    "http.server",
    "logging.handlers",
    "unittest.mock",
    "xml.dom.minidom",
)
#: Seconds the import probe takes on the nominal host that the import part
#: of ``setup_s`` is scaled to.  Import time in a fresh interpreter moves
#: by up to 1.6x between minutes on a shared host, and the in-process
#: probe below does not follow it; the import probe does.
NOMINAL_IMPORT_PROBE_S = 0.2
MIN_ROUNDS = 2
#: Host-speed probe: one pass of a fixed pure-Python loop, timed before,
#: during (every ``PROBE_EVERY_S`` of round wall, off the round's clock)
#: and after every round.  The speed of a shared host drifts by up to
#: 1.5x in phases of seconds to a minute; round walls expressed in probe
#: units vary much less than raw walls.
PROBE_LOOPS = 150_000
PROBE_EVERY_S = 0.5

#: Relative tolerance of the output check for float values of a merged
#: tree.  Histogram addition is exact only up to float association
#: (``repro/services/combiner.py``), and a session's fold order depends on
#: which engine got which cached part, so a session on a busy site can
#: differ from its lone-session reference in the last bits of ``swx`` or
#: ``swx2`` (1 ulp, 1.3e-16 relative, on warm-interactive).  1e-12 admits
#: that rounding and no lost, doubled or misplaced event: entry counts
#: are compared exactly, and one event moves a sum by about 1e-6.
SUM_REL_TOL = 1e-12

#: End-to-end metric name -> unit: the metrics of an untraced run.
END_TO_END = {
    "setup_s": "s",
    "sessions_per_kprobe": "1/kprobe",
    "session_sim_s.p50": "s",
    "session_sim_s.p90": "s",
    "stage_sim_s.p50": "s",
    "poll_sim_s.mean": "s",
    "iteration_sim_s.p50": "s",
    "iteration_sim_s.p90": "s",
    "peak_rss_mb": "MB",
}
#: Sim-clock statistics of a round: ``name -> (sample list, statistic)``.
#: Poll latency is made of a few fixed model costs (RMI round trip, merge
#: steps), so its p50 and p99 sit on the same value for every seed; they
#: are printed, and ``poll_sim_s.mean`` is the poll metric in the result.
SIM_STATS = {
    "session_sim_s.p50": ("session_sim_s", 50),
    "session_sim_s.p90": ("session_sim_s", 90),
    "stage_sim_s.p50": ("stage_sim_s", 50),
    "poll_sim_s.p50": ("poll_sim_s", 50),
    "poll_sim_s.p99": ("poll_sim_s", 99),
    "poll_sim_s.mean": ("poll_sim_s", "mean"),
    "iteration_sim_s.p50": ("iteration_sim_s", 50),
    "iteration_sim_s.p90": ("iteration_sim_s", 90),
}

#: Per-layer metric name -> unit, in report order.
PER_LAYER = {
    "sim.events": "count",
    "sim.interrupts": "count",
    "sim.self_s": "s",
    "grid.network.routes": "count",
    "grid.network.route_self_s": "s",
    "grid.network.maxmin_solves": "count",
    "grid.network.maxmin_self_s": "s",
    "grid.network.transfers": "count",
    "grid.network.mb_moved": "MB",
    "grid.network.self_s": "s",
    "grid.transfer.files": "count",
    "grid.transfer.self_s": "s",
    "services.splitter.parts": "count",
    "services.splitter.self_s": "s",
    "dataset.events_generated": "count",
    "dataset.self_s": "s",
    "replica.estimates": "count",
    "replica.part_hit_ratio": "ratio",
    "replica.self_s": "s",
    "grid.gram.jobs": "count",
    "grid.scheduler.self_s": "s",
    "client.connect_sim_s.p50": "s",
    "services.container.calls": "count",
    "services.container.self_s": "s",
    "client.polls": "count",
    "services.aida_manager.snapshots": "count",
    "services.aida_manager.merges": "count",
    "services.aida_manager.self_s": "s",
    "services.combiner.self_s": "s",
    "aida.tree.merges": "count",
    "aida.codec.arrays": "count",
    "aida.codec.bytes": "bytes",
    "aida.codec.self_s": "s",
    "engine.chunks": "count",
    "engine.events": "count",
    "engine.self_s": "s",
    "engine.compiles": "count",
    "engine.compile_self_s": "s",
    "services.codeloader.stages": "count",
    "client.code_sim_s.p50": "s",
    "services.session.self_s": "s",
    "resilience.journal_records": "count",
    "resilience.checkpoints": "count",
    "resilience.self_s": "s",
    "federation.broker_ranks": "count",
    "federation.migrations": "count",
    "federation.wan_mb": "MB",
    "federation.self_s": "s",
    "obs.spans": "count",
    "obs.events": "count",
    "obs.self_s": "s",
    "bench.self_s": "s",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "trace_overhead_ratio": "ratio",
}

#: Counters read straight from the recorder (all others are derived).
COUNTERS = [
    name for name, unit in PER_LAYER.items()
    if unit in ("count", "MB", "bytes")
]
#: Layers whose total self time is reported as ``<layer>.self_s``.
SELF_LAYERS = [
    name[: -len(".self_s")] for name in PER_LAYER if name.endswith(".self_s")
]


def quantile(values: List[float], q) -> float:
    """Inclusive-method percentile ``q`` of *values*, or their mean."""
    if q == "mean":
        return statistics.fmean(values)
    if len(values) == 1:
        return values[0]
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def time_import(modules) -> float:
    """Seconds to import *modules* in a fresh interpreter."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "print(time.perf_counter() - t)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def host_probe() -> float:
    """Seconds of one pass of the probe loop, measured now."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


# -- one round -------------------------------------------------------------------


class Round:
    def __init__(self, build_s, wall_s, probe_s, records, recorder=None) -> None:
        self.build_s = build_s
        self.wall_s = wall_s
        #: Median probe pass time before, during and after the timed phase.
        self.probe_s = probe_s
        self.records = records
        self.traced = recorder is not None
        #: Per-layer metrics of the timed phase (traced rounds only).
        self.layers = (
            layer_metrics(recorder, wall_s) if recorder is not None else None
        )


def run_round(workloads, plan, recorder=None) -> Round:
    gc.collect()
    started = time.perf_counter()
    world = plan.workload.build_fn(plan)
    build_s = time.perf_counter() - started
    env = world.env
    records: list = []
    probes = [host_probe()]
    if recorder is not None:
        recorder.mark()
    wall_s = 0.0
    started = time.perf_counter()
    procs = [
        env.process(workloads.run_session(world, plan, spec, records))
        for spec in plan.sessions
    ]
    done = env.any_of([env.all_of(procs), env.timeout(workloads.ROUND_LIMIT_S)])
    # Step the kernel here rather than in ``env.run`` so the probe can run
    # between events, with the round's clock stopped.
    while not done.processed:
        env.step()
        now = time.perf_counter()
        if now - started >= PROBE_EVERY_S:
            wall_s += now - started
            probes.append(host_probe())
            started = time.perf_counter()
    wall_s += time.perf_counter() - started
    probes.append(host_probe())
    probe_s = statistics.median(probes)
    return Round(build_s, wall_s, probe_s, records, recorder)


def sim_summary(plan, records) -> Dict[str, object]:
    """Sim-clock samples and metrics of one round (must repeat exactly)."""
    ok = [r for r in records if r.error is None and r.session_s is not None]
    samples = {
        "session_sim_s": [r.session_s for r in ok],
        "stage_sim_s": [r.stage_s for r in ok],
        "poll_sim_s": [p for r in ok for p in r.polls],
        "iteration_sim_s": [i for r in ok for i in r.iterations],
    }
    metrics = {
        name: quantile(samples[base], stat)
        for name, (base, stat) in SIM_STATS.items()
        if samples[base]
    }
    return {
        "metrics": metrics,
        "samples": {k: len(v) for k, v in samples.items()},
    }


def tree_mismatch(tree, reference, path: str = "") -> Optional[str]:
    """First path at which *tree* differs from *reference*, or ``None``.

    Structure, names, axes and every integer (entry counts) must match
    exactly.  Floats (histogram sums and moments) must agree within
    ``SUM_REL_TOL``.  Encoded arrays are compared element by element.
    """
    from repro.aida.codec import decode_array, is_encoded

    if is_encoded(reference):
        if not is_encoded(tree) or (tree["dtype"], tree["shape"]) != (
            reference["dtype"], reference["shape"]
        ):
            return path
        tree, reference = (
            decode_array(tree).tolist(), decode_array(reference).tolist()
        )
    if isinstance(reference, dict):
        if not isinstance(tree, dict) or tree.keys() != reference.keys():
            return path
        pairs = [(f"{path}/{k}", tree[k], reference[k]) for k in reference]
    elif isinstance(reference, list):
        if not isinstance(tree, list) or len(tree) != len(reference):
            return path
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in
                 enumerate(zip(tree, reference))]
    elif type(reference) is float and type(tree) is float:
        return None if math.isclose(
            tree, reference, rel_tol=SUM_REL_TOL
        ) else path
    else:
        return None if (
            type(tree) is type(reference) and tree == reference
        ) else path
    for where, a, b in pairs:
        found = tree_mismatch(a, b, where)
        if found is not None:
            return found
    return None


def check_round(plan, records, references) -> Tuple[Dict[int, str], int]:
    """Failed sessions of one round, by index, with the reason.

    A session fails when it raised, was refused, timed out, or returned a
    merged tree that differs from its lone-session reference (see
    :func:`tree_mismatch`) or that misses events.  Failed sessions are
    counted, never dropped.  Also returns how many checked trees passed
    but are not bit-identical to their reference.
    """
    failures: Dict[int, str] = {}
    inexact = 0
    seen = {r.spec.index: r for r in records}
    for spec in plan.sessions:
        record = seen.get(spec.index)
        if record is None or (record.error is None and record.session_s is None):
            failures[spec.index] = "timed out"
            continue
        if record.error is not None:
            failures[spec.index] = record.error
            continue
        n_events = plan.dataset(spec.dataset).n_events
        for key, tree, events in record.results:
            if key in references and tree != references[key]:
                where = tree_mismatch(tree, references[key])
                if where is not None:
                    failures[spec.index] = (
                        f"merged tree differs from the lone-session "
                        f"reference for {key} at {where or '/'}"
                    )
                    break
                inexact += 1
            if events != n_events:
                failures[spec.index] = f"{events} of {n_events} events merged"
                break
    return failures, inexact


def round_digest(workloads, records) -> str:
    """One digest over every session's merged trees, in session order."""
    parts = sorted(
        (r.spec.index, [workloads.tree_digest(t) for _, t, _ in r.results])
        for r in records
    )
    return workloads.tree_digest(parts)


# -- per-layer metrics -------------------------------------------------------------


def layer_metrics(recorder, wall_s: float) -> Dict[str, float]:
    counters = recorder.counters
    out: Dict[str, float] = {name: counters.get(name, 0) for name in COUNTERS}
    layer_self = recorder.layer_self()
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    out["grid.network.route_self_s"] = recorder.entry_self(
        "grid.network", "Network.route"
    )
    out["grid.network.maxmin_self_s"] = recorder.entry_self(
        "grid.network", "maxmin_allocate"
    )
    out["engine.compile_self_s"] = recorder.entry_self("engine", "compile")
    planned = counters.get("replica.parts_planned", 0)
    out["replica.part_hit_ratio"] = (
        counters.get("replica.parts_hit", 0) / planned if planned else 0.0
    )
    connects = recorder.span_durations("client", ["IPAClient.connect"])
    codes = recorder.span_durations(
        "client", ["IPAClient.upload_code", "IPAClient.reload_code"]
    )
    out["client.connect_sim_s.p50"] = quantile(connects, 50) if connects else 0.0
    out["client.code_sim_s.p50"] = quantile(codes, 50) if codes else 0.0
    out["traced_wall_s"] = wall_s
    out["unattributed_s"] = wall_s - sum(layer_self.values())
    return out


def deterministic_part(metrics: Dict[str, float]) -> Dict[str, float]:
    """The per-layer values that must repeat exactly for one seed."""
    return {
        name: value for name, value in metrics.items()
        if PER_LAYER[name] in ("count", "MB", "bytes")
        or name.startswith("client.")
    }


# -- the run -------------------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        sessions: Optional[int] = None):
    """Run one benchmark invocation; returns ``(result, details, recorder)``.

    *recorder* is the first traced round's recorder (``None`` untraced).
    """
    import tracing
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    plan = workload.plan(seed, sessions)

    references = {
        key: workloads.lone_session_tree(workload, plan, key)
        for key in plan.reference_keys
    }

    problems: List[str] = []
    failed = attempted = inexact = 0
    rounds: List[Round] = []
    summaries = []
    digests = []
    #: ``(import probe seconds, program import seconds)`` pairs.
    imports: List[Tuple[float, float]] = []
    sampling_s = 0.0
    started = time.perf_counter()

    def sample_imports() -> None:
        nonlocal sampling_s
        begun = time.perf_counter()
        imports.append(
            (time_import(IMPORT_PROBE), time_import(workload.imports))
        )
        sampling_s += time.perf_counter() - begun

    def play(recorder=None) -> None:
        nonlocal failed, attempted, inexact
        if recorder is None:
            sample_imports()
            result = run_round(workloads, plan)
        else:
            installation = tracing.install(recorder)
            try:
                result = run_round(workloads, plan, recorder)
            finally:
                installation.uninstall()
        rounds.append(result)
        for record in result.records:
            record.results = [
                (key, tree.to_dict(), events)
                for key, tree, events in record.results
            ]
        failures, rounded = check_round(plan, result.records, references)
        inexact += rounded
        attempted += len(plan.sessions)
        failed += len(failures)
        for index, reason in sorted(failures.items())[:5]:
            problem = f"session {index}: {reason}"
            if problem not in problems:
                problems.append(problem)
        summaries.append(sim_summary(plan, result.records))
        digests.append(round_digest(workloads, result.records))
        result.records = None  # retained trees would slow later rounds' GC

    traced: List[Round] = []
    layer_rounds: List[Dict[str, float]] = []
    recorder = None
    while True:
        play()
        if trace:
            # Untraced and traced rounds alternate, so both see the same
            # machine and their wall ratio is the tracing overhead.  Only
            # the first traced round's recorder (spans, stacks) is kept.
            current = tracing.Recorder()
            play(current)
            recorder = recorder or current
            traced.append(rounds[-1])
            layer_rounds.append(rounds[-1].layers)
        # Import sampling does not count against the measured seconds.
        if (len(rounds) - len(traced) >= MIN_ROUNDS
                and time.perf_counter() - started - sampling_s >= seconds):
            break
    while len(imports) < IMPORT_SAMPLES:
        sample_imports()

    # Determinism: every round of one plan must agree exactly.
    if any(s != summaries[0] for s in summaries[1:]):
        problems.append("sim-clock metrics differ between rounds of one seed")
    if any(d != digests[0] for d in digests[1:]):
        problems.append("merged trees differ between rounds of one seed")
    if any(deterministic_part(m) != deterministic_part(layer_rounds[0])
           for m in layer_rounds[1:]):
        problems.append("per-layer counts differ between traced rounds")

    untraced = [r for r in rounds if not r.traced]
    build_s = statistics.median(r.build_s for r in untraced)
    # Each sample in probe units, so the host's import speed cancels.
    import_s = NOMINAL_IMPORT_PROBE_S * statistics.median(
        program / probe for probe, program in imports
    )
    sim = summaries[0]["metrics"]
    missing = sorted(set(SIM_STATS) - set(sim))
    if missing:
        problems.append(f"no samples for {', '.join(missing)}")
    n = len(plan.sessions)
    if trace:
        metrics = {}
        for name in PER_LAYER:
            values = [m[name] for m in layer_rounds if name in m]
            if values:
                metrics[name] = statistics.median(values)
        metrics["setup.import_s"] = import_s
        metrics["setup.build_s"] = build_s
        # In probe units, so host drift between the rounds cancels.
        metrics["trace_overhead_ratio"] = statistics.median(
            r.wall_s / r.probe_s for r in traced
        ) / statistics.median(r.wall_s / r.probe_s for r in untraced)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": import_s + build_s,
            "sessions_per_kprobe": statistics.median(
                n * 1000 * r.probe_s / r.wall_s for r in untraced
            ),
            **{name: sim[name] for name in END_TO_END if name in sim},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        units = END_TO_END
    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units if name in metrics
        },
    }
    details = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "machine": machine(),
        "sessions": n,
        "session_fail_ratio": failed / attempted,
        "trees_within_rounding": inexact,
        "samples": summaries[0]["samples"],
        "sim": sim,
        "sessions_per_wall_s": statistics.median(n / r.wall_s for r in untraced),
        "import_probe_s": [probe for probe, _ in imports],
        "import_s": [program for _, program in imports],
        "rounds": [
            {"build_s": r.build_s, "wall_s": r.wall_s, "probe_s": r.probe_s,
             "traced": r.traced}
            for r in rounds
        ],
        "problems": problems,
        "tree_digest": digests[0],
        "metrics": metrics,
    }
    if recorder is not None:
        details["layers"] = {
            f"{layer}:{name}": {
                "calls": stats[0], "resumes": stats[1],
                "self_s": stats[2], "sim_s": stats[3],
            }
            for (layer, name), stats in sorted(recorder.entries.items())
            if stats[0] or stats[1]
        }
    return result, details, recorder


def write_outputs(details, recorder=None) -> None:
    """Details JSON; for traced runs also spans (JSONL) and folded stacks."""
    from repro.obs.profile import folded_lines

    OUT.mkdir(exist_ok=True)
    stem = f"{details['workload']}-seed{details['seed']}-trace{details['trace']}"
    (OUT / f"{stem}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True) + "\n"
    )
    if recorder is not None:
        # Spans are large: keep only the latest traced run per workload.
        recorder.write_spans(OUT / f"{details['workload']}.spans.jsonl")
        (OUT / f"{stem}.folded").write_text(
            folded_lines(dict(recorder.folded)) + "\n"
        )


def report(result, details) -> List[str]:
    m = details["machine"]
    lines = [
        f"workload {details['workload']}  seed {details['seed']}  "
        f"trace {details['trace']}  sessions {details['sessions']}",
        f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']}",
        "samples per round: "
        + ", ".join(f"{k}={v}" for k, v in details["samples"].items()),
        "rounds: "
        + ", ".join(
            f"{r['wall_s']:.2f}s{'(traced)' if r['traced'] else ''}"
            for r in details["rounds"]
        ),
        f"session_fail_ratio {details['session_fail_ratio']:.4f} ratio "
        f"({result['failed']}/{result['attempted']})",
        f"merged trees equal to their reference only within rounding: "
        f"{details['trees_within_rounding']}",
    ]
    for name, entry in result["metrics"].items():
        lines.append(f"{name:34s} {entry['value']:>16.6f} {entry['unit']}")
    if not details["trace"]:
        lines.append(
            f"{'sessions_per_wall_s':34s} "
            f"{details['sessions_per_wall_s']:>16.6f} 1/s"
            "  (printed only: raw wall drifts with host speed)"
        )
        for name in ("poll_sim_s.p50", "poll_sim_s.p99"):
            if name in details["sim"]:
                lines.append(
                    f"{name:34s} {details['sim'][name]:>16.6f} s"
                    "  (printed only: a model constant on these workloads)"
                )
    for problem in details["problems"]:
        lines.append(f"FAIL {problem}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--sessions", type=int, default=None,
        help="override the workload's session count (tests, quick looks)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, details, recorder = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.sessions
    )
    write_outputs(details, recorder)
    for line in report(result, details):
        print(line)
    print(json.dumps(result))
    # A printed result is a completed run; ``correct`` carries the verdict.
    return 0


if __name__ == "__main__":
    sys.exit(main())
