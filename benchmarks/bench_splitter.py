"""§3.4 ablation — split strategies: equal-event vs equal-byte parts.

The splitter must produce "approximately equal parts".  With uniform
events the two strategies coincide; with skewed per-event sizes (realistic
for physics data, where event size tracks multiplicity) equal-event parts
produce unbalanced transfers and stragglers, while equal-byte parts level
them.  We measure part-size skew and the resulting end-to-end staging +
analysis time on a simulated site.
"""

import numpy as np
import pytest

from repro.bench.tables import ComparisonTable
from repro.core.site import GridSite, SiteConfig
from repro.grid.network import Network
from repro.grid.nodes import NodeSpec, StorageElement, WorkerNode
from repro.grid.transfer import GridFTPService
from repro.services.locator import DatasetLocation
from repro.services.splitter import SplitterService
from repro.sim import Environment

N_WORKERS = 8
N_EVENTS = 8000
SIZE_MB = 400.0


def make_skewed_weights(seed=3):
    """Per-event size profile: last quarter of the file is 5x heavier."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.8, 1.2, N_EVENTS)
    weights[3 * N_EVENTS // 4:] *= 5.0
    return weights


def stage_with(strategy, weights):
    env = Environment()
    net = Network(env)
    net.add_host("se")
    se = StorageElement(env, "se", NodeSpec(disk_read_mbps=10.24, disk_write_mbps=10.24))
    workers = []
    for i in range(N_WORKERS):
        name = f"w{i}"
        net.add_host(name)
        net.add_link(f"se-{name}", "se", name, bandwidth=7.6)
        workers.append(
            WorkerNode(env, name, NodeSpec(disk_read_mbps=10_000, disk_write_mbps=10_000))
        )
    ftp = GridFTPService(env, net, setup_overhead=0.0)
    splitter = SplitterService(split_rate=0.25)
    location = DatasetLocation(
        "ds", "gridftp", "se", "/ds", SIZE_MB, N_EVENTS, "se"
    )
    parts = splitter.plan_parts(
        location, [w.name for w in workers], strategy, event_weights=weights
    )
    report = env.run(
        until=ftp.scatter(
            se, workers, [(f"ds.part{p.part_index}", p.size_mb) for p in parts]
        )
    )
    sizes = np.array([p.size_mb for p in parts])
    # Straggler model: each engine's analysis time is proportional to its
    # part size; the session waits for the slowest.
    analysis = float(sizes.max()) * 0.58
    return {
        "skew": float(sizes.max() / sizes.mean()),
        "move_parts": report.duration,
        "analysis": analysis,
        "total": report.duration + analysis,
        "sizes": sizes,
    }


def run_both():
    weights = make_skewed_weights()
    return {
        strategy: stage_with(strategy, weights)
        for strategy in ("by-events", "by-bytes")
    }


def test_splitter(benchmark, report):
    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    table = ComparisonTable(
        "Split strategies on a skewed dataset (400 MB, 8 workers)",
        ["strategy", "part skew (max/mean)", "move parts [s]", "analysis (slowest) [s]", "total [s]"],
    )
    for strategy, r in results.items():
        table.add_row(
            strategy,
            f"{r['skew']:.2f}",
            f"{r['move_parts']:.1f}",
            f"{r['analysis']:.1f}",
            f"{r['total']:.1f}",
        )
    report("splitter", table.render())

    by_events = results["by-events"]
    by_bytes = results["by-bytes"]
    # Equal-event parts are badly skewed on this profile (last quarter 5x).
    assert by_events["skew"] > 2.0
    # Equal-byte parts are balanced.
    assert by_bytes["skew"] < 1.1
    # Balanced parts finish sooner end-to-end (no straggler).
    assert by_bytes["total"] < by_events["total"]
    # Both strategies conserve the dataset.
    assert by_events["sizes"].sum() == pytest.approx(SIZE_MB, rel=1e-6)
    assert by_bytes["sizes"].sum() == pytest.approx(SIZE_MB, rel=1e-6)
