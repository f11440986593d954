"""§3.6 / §5 claim — dynamic code reload beats re-staging.

"In IPA, only a small amount of code needs to be re-distributed as the
user customizes and rapidly develops the analysis code" (§5).  We measure
one fine-tuning iteration three ways on the 471 MB workload:

* **reload**: hot-reload the (kB-scale) code bundle, rewind, rerun;
* **restage**: tear down and re-stage the whole dataset, then rerun
  (what a naive batch workflow would do);
* **local**: re-download and rerun locally (the no-grid baseline).
"""

import pytest

from repro.analysis import cuts
from repro.bench.tables import ComparisonTable, format_seconds
from repro.client.client import IPAClient
from repro.core.experiment import run_local_experiment
from repro.core.site import GridSite, SiteConfig

SIZE_MB = 471.0
NODES = 16


def grid_iteration_times():
    # Without node replica caches the second select_dataset really moves,
    # splits and scatters the dataset again; with them it would re-use
    # the parts the first staging left on the workers.  The reload arm
    # never re-stages, so it is unaffected.
    site = GridSite(SiteConfig(n_workers=NODES, enable_replica_cache=False))
    site.register_dataset(
        "ds", "/x/ds", size_mb=SIZE_MB, n_events=4000,
        content={"kind": "ilc", "seed": 6},
    )
    client = IPAClient(site, site.enroll_user("/CN=u"))
    times = {}

    def scenario():
        env = site.env
        yield from client.obtain_proxy_and_connect()
        yield from client.select_dataset("ds")
        yield from client.upload_code(cuts.SOURCE, parameters={"min_energy": 0.0})
        yield from client.run()
        yield from client.wait_for_completion(poll_interval=2.0)

        # Iteration via hot reload: new cut, rewind, rerun.
        started = env.now
        yield from client.reload_code(parameters={"min_energy": 480.0})
        yield from client.rewind()
        yield from client.run()
        yield from client.wait_for_completion(poll_interval=2.0)
        times["reload"] = env.now - started

        # Iteration via full re-staging: move + split + scatter again,
        # then stage code and rerun.
        started = env.now
        staged = yield from client.select_dataset("ds")
        yield from client.upload_code(cuts.SOURCE, parameters={"min_energy": 490.0})
        yield from client.rewind()
        yield from client.run()
        yield from client.wait_for_completion(poll_interval=2.0)
        times["restage"] = env.now - started
        times["restage_staging"] = staged.stage_seconds
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    return times


def run_all():
    times = grid_iteration_times()
    local = run_local_experiment(SIZE_MB)
    times["local"] = local.total
    return times


def test_reload(benchmark, report):
    times = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = ComparisonTable(
        "One fine-tuning iteration on 471 MB (16 nodes)",
        ["approach", "iteration time"],
    )
    table.add_row("hot reload + rewind (IPA)", format_seconds(times["reload"]))
    table.add_row("full re-stage + rerun", format_seconds(times["restage"]))
    table.add_row("local re-download + rerun", format_seconds(times["local"]))
    report(
        "reload",
        table.render()
        + f"\nre-staging alone costs {format_seconds(times['restage_staging'])}"
        " of the second approach",
    )

    # The IPA iteration avoids all dataset movement.
    assert times["reload"] < times["restage"] - 100
    # And is an order of magnitude faster than the local workflow.
    assert times["reload"] < times["local"] / 10
    # Staging dominates the difference.
    assert times["restage"] - times["reload"] == pytest.approx(
        times["restage_staging"], rel=0.35
    )
