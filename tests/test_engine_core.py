"""Unit tests for the AnalysisEngine and the real-CPU runners."""

import numpy as np
import pytest

from repro.analysis import counting
from repro.dataset.format import write_dataset
from repro.dataset.generator import ILCEventGenerator
from repro.engine.base import Analysis, AnalysisError
from repro.engine.controls import ControlState
from repro.engine.engine import AnalysisEngine
from repro.engine.runner import run_local, run_parallel
from repro.engine import sandbox
from repro.engine.sandbox import CodeBundle, SandboxError, load_analysis
from repro.analysis import higgs as higgs_module


@pytest.fixture(scope="module")
def batch():
    return ILCEventGenerator(seed=101).generate(2000)


def make_engine(batch, chunk=300, snapshot_every=1):
    engine = AnalysisEngine(
        "engine-0", chunk_events=chunk, snapshot_every_chunks=snapshot_every
    )
    engine.load_data(batch)
    engine.load_analysis(load_analysis(counting.SOURCE))
    return engine


def test_engine_validation():
    with pytest.raises(ValueError):
        AnalysisEngine("e", chunk_events=0)
    with pytest.raises(ValueError):
        AnalysisEngine("e", snapshot_every_chunks=0)


def test_engine_requires_staging(batch):
    engine = AnalysisEngine("e")
    with pytest.raises(AnalysisError, match="no dataset"):
        engine.process_chunk()
    engine.load_data(batch)
    with pytest.raises(AnalysisError, match="no analysis"):
        engine.process_chunk()


def test_engine_idle_until_run(batch):
    engine = make_engine(batch)
    result = engine.process_chunk()
    assert result.events == 0
    assert result.state == ControlState.IDLE
    assert engine.cursor == 0


def test_engine_processes_chunks(batch):
    engine = make_engine(batch, chunk=300)
    engine.controller.run()
    result = engine.process_chunk()
    assert result.events == 300
    assert engine.cursor == 300
    assert not result.done
    assert result.snapshot is not None
    assert result.snapshot.events_processed == 300


def test_engine_completes_dataset(batch):
    engine = make_engine(batch, chunk=300)
    total = engine.run_to_completion()
    assert total == 2000
    assert engine.done
    assert engine.tree.get("/counts/process").entries == 2000


def test_engine_final_snapshot_marked(batch):
    engine = make_engine(batch, chunk=2000)
    snapshots = []
    engine.run_to_completion(publish=snapshots.append)
    assert snapshots[-1].final
    assert snapshots[-1].events_processed == 2000


def test_engine_snapshot_cadence(batch):
    engine = make_engine(batch, chunk=200, snapshot_every=3)
    snapshots = []
    engine.run_to_completion(publish=snapshots.append)
    # 10 chunks, snapshot every 3 chunks -> after chunks 3,6,9,10(final).
    assert len(snapshots) == 4
    assert [s.sequence for s in snapshots] == [1, 2, 3, 4]


def test_engine_pause_stops_processing(batch):
    engine = make_engine(batch, chunk=300)
    engine.controller.run()
    engine.process_chunk()
    engine.controller.pause()
    result = engine.process_chunk()
    assert result.events == 0
    assert result.state == ControlState.PAUSED
    assert engine.cursor == 300


def test_engine_step_runs_exact_count(batch):
    engine = make_engine(batch, chunk=300)
    engine.controller.step(450)
    first = engine.process_chunk()
    second = engine.process_chunk()
    third = engine.process_chunk()
    assert first.events == 300
    assert second.events == 150
    assert third.events == 0
    assert third.state == ControlState.PAUSED
    assert engine.cursor == 450


def test_engine_stop_terminal_until_rewind(batch):
    engine = make_engine(batch, chunk=300)
    engine.controller.run()
    engine.process_chunk()
    engine.controller.stop()
    result = engine.process_chunk()
    assert result.state == ControlState.STOPPED
    assert result.events == 0
    # run() after stop is ignored...
    engine.controller.run()
    assert engine.process_chunk().events == 0
    # ...until a rewind resets the run.
    engine.controller.rewind()
    engine.controller.run()
    result = engine.process_chunk()
    assert result.events == 300
    assert engine.run_id == 1


def test_engine_rewind_clears_results(batch):
    engine = make_engine(batch, chunk=500)
    engine.controller.run()
    engine.process_chunk()
    assert engine.tree.get("/counts/process").entries == 500
    engine.controller.rewind()
    engine.controller.run()
    result = engine.process_chunk()
    assert engine.cursor == 500
    assert engine.tree.get("/counts/process").entries == 500  # fresh run
    assert result.snapshot.run_id == 1


def test_engine_snapshot_carries_versions(batch):
    engine = make_engine(batch, chunk=500)
    engine.analysis.version = 3
    engine.controller.run()
    result = engine.process_chunk()
    assert result.snapshot.analysis_version == 3
    assert result.snapshot.engine_id == "engine-0"
    assert result.snapshot.total_events == 2000


def test_engine_hot_reload_keeps_cursor(batch):
    engine = make_engine(batch, chunk=500)
    engine.controller.run()
    engine.process_chunk()
    engine.load_analysis(load_analysis(counting.SOURCE))
    engine.controller.run()
    engine.process_chunk()
    assert engine.cursor == 1000


def test_engine_failing_analysis_raises(batch):
    class Bad(Analysis):
        def process_batch(self, chunk, tree):
            raise RuntimeError("kaboom")

    engine = AnalysisEngine("e", chunk_events=100)
    engine.load_data(batch)
    engine.load_analysis(Bad())
    engine.controller.run()
    with pytest.raises(AnalysisError, match="kaboom"):
        engine.process_chunk()


def test_engine_empty_dataset_completes():
    from repro.dataset.events import EventBatch

    engine = AnalysisEngine("e")
    engine.load_data(EventBatch.empty())
    engine.load_analysis(load_analysis(counting.SOURCE))
    total = engine.run_to_completion()
    assert total == 0
    assert engine.done


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def test_run_local_produces_tree(batch):
    bundle = CodeBundle(higgs_module.SOURCE)
    tree = run_local(bundle, batch)
    assert tree.get("/higgs/dijet_mass").entries > 0


def test_run_parallel_matches_local(tmp_path, batch):
    path = write_dataset(tmp_path / "d.ipad", [batch], meta={"name": "t"})
    bundle = CodeBundle(higgs_module.SOURCE)
    local_tree = run_local(bundle, batch)
    parallel_tree = run_parallel(bundle, str(path), n_workers=4)
    h_local = local_tree.get("/higgs/dijet_mass")
    h_par = parallel_tree.get("/higgs/dijet_mass")
    assert h_par.entries == h_local.entries
    assert np.allclose(h_par.heights(), h_local.heights())
    assert h_par.mean == pytest.approx(h_local.mean)


def test_run_parallel_validation(tmp_path, batch):
    path = write_dataset(tmp_path / "d.ipad", [batch])
    with pytest.raises(ValueError):
        run_parallel(CodeBundle(higgs_module.SOURCE), str(path), n_workers=0)


# ---------------------------------------------------------------------------
# Compiled-code cache
# ---------------------------------------------------------------------------

CACHED_SOURCE = '''
class CacheProbe(Analysis):
    name = "cache-probe"
    hits = 0
'''


def test_load_analysis_compiles_each_source_once(monkeypatch):
    calls = []

    def counting_compile(*args):
        calls.append(args[0])
        return compile(*args)

    monkeypatch.setattr(sandbox, "compile", counting_compile, raising=False)
    sandbox._compiled.cache_clear()
    source = CACHED_SOURCE + "\n# compiled once\n"
    load_analysis(source)
    load_analysis(source)
    CodeBundle(source).instantiate()
    assert calls == [source]


def test_load_analysis_same_source_gives_distinct_classes():
    first = load_analysis(CACHED_SOURCE)
    second = load_analysis(CACHED_SOURCE)
    assert type(first) is not type(second)
    type(first).hits += 1
    assert first.hits == 1
    assert second.hits == 0


def test_load_analysis_different_sources_do_not_collide():
    other = CACHED_SOURCE.replace('"cache-probe"', '"other-probe"')
    assert load_analysis(CACHED_SOURCE).name == "cache-probe"
    assert load_analysis(other).name == "other-probe"
    assert load_analysis(CACHED_SOURCE).name == "cache-probe"


def test_load_analysis_syntax_error_raises_on_every_call():
    broken = "class Broken(Analysis):\n    def (:\n"
    for _ in range(2):
        with pytest.raises(SandboxError, match="syntax"):
            load_analysis(broken)
