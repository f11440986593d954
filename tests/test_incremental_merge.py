"""Tests for the incremental merge pipeline: delta snapshots, per-engine
caching in the AIDA manager, and the resync protocol between them."""

import pytest

from repro.aida.hist1d import Histogram1D
from repro.aida.tree import ObjectTree
from repro.engine.engine import AnalysisEngine, Snapshot
from repro.obs import Observability
from repro.services.aida_manager import AIDAManagerService
from repro.sim import Environment


def make_snapshot(
    engine_id,
    entries,
    sequence=1,
    run_id=0,
    final=False,
    base_sequence=0,
    path="/h",
):
    tree = ObjectTree()
    hist = Histogram1D("h", bins=10, lower=0, upper=10)
    for _ in range(entries):
        hist.fill(5.0)
    tree.put(path, hist)
    return Snapshot(
        engine_id=engine_id,
        sequence=sequence,
        events_processed=entries,
        total_events=100,
        analysis_version=1,
        run_id=run_id,
        tree=tree.to_dict(),
        final=final,
        base_sequence=base_sequence,
    )


def merged_entries(env, manager, session_id="s1", path="/h"):
    tree_dict, _ = env.run(until=manager.merged(session_id))
    return ObjectTree.from_dict(tree_dict).get(path).entries


# ---------------------------------------------------------------------------
# engine-side delta snapshots
# ---------------------------------------------------------------------------

def make_engine(**kwargs):
    engine = AnalysisEngine("e0", **kwargs)
    engine.tree.put("/a", Histogram1D("a", bins=10, lower=0, upper=10))
    engine.tree.put("/b", Histogram1D("b", bins=10, lower=0, upper=10))
    return engine


def test_first_snapshot_is_full_keyframe():
    engine = make_engine()
    snap = engine.take_snapshot()
    assert snap.base_sequence == 0
    assert set(snap.tree["objects"]) == {"/a", "/b"}


def test_delta_carries_only_changed_objects():
    engine = make_engine()
    engine.take_snapshot()
    engine.tree.get("/a").fill(5.0)
    snap = engine.take_snapshot()
    assert snap.base_sequence == 1
    assert snap.sequence == 2
    assert set(snap.tree["objects"]) == {"/a"}


def test_unchanged_tree_yields_empty_delta():
    engine = make_engine()
    engine.take_snapshot()
    snap = engine.take_snapshot()
    assert snap.base_sequence == 1
    assert snap.tree["objects"] == {}


def test_keyframe_cadence():
    engine = make_engine(keyframe_every=3)
    kinds = []
    for _ in range(7):
        engine.tree.get("/a").fill(5.0)
        kinds.append(engine.take_snapshot().base_sequence == 0)
    # full, delta, delta, full, delta, delta, full
    assert kinds == [True, False, False, True, False, False, True]


def test_full_flag_forces_keyframe():
    engine = make_engine()
    engine.take_snapshot()
    snap = engine.take_snapshot(full=True)
    assert snap.base_sequence == 0
    assert set(snap.tree["objects"]) == {"/a", "/b"}


def test_delta_snapshots_disabled_always_full():
    # keyframe_every=1 is the off switch for deltas: every snapshot is full.
    engine = make_engine(keyframe_every=1)
    for _ in range(3):
        snap = engine.take_snapshot()
        assert snap.base_sequence == 0


def test_rewind_resets_delta_state():
    engine = make_engine()
    engine.take_snapshot()
    engine.rewind()
    engine.tree.put("/c", Histogram1D("c", bins=10, lower=0, upper=10))
    snap = engine.take_snapshot()
    assert snap.base_sequence == 0  # first snapshot of the new run is full
    assert snap.sequence == 1
    assert snap.run_id == 1


def test_replaced_object_is_detected_as_dirty():
    engine = make_engine()
    engine.take_snapshot()
    engine.tree.remove("/b")
    engine.tree.put("/b", Histogram1D("b", bins=10, lower=0, upper=10))
    snap = engine.take_snapshot()
    assert set(snap.tree["objects"]) == {"/b"}


# ---------------------------------------------------------------------------
# manager-side ingestion and the resync protocol
# ---------------------------------------------------------------------------

def test_delta_applies_on_top_of_keyframe():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    assert manager.submit_snapshot("s1", make_snapshot("e0", 10)) == "accepted"
    delta = make_snapshot("e0", 25, sequence=2, base_sequence=1)
    assert manager.submit_snapshot("s1", delta) == "accepted"
    assert merged_entries(env, manager) == 25  # latest cumulative state wins


def test_delta_adds_new_paths():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    manager.submit_snapshot("s1", make_snapshot("e0", 10))
    delta = make_snapshot("e0", 7, sequence=2, base_sequence=1, path="/h2")
    assert manager.submit_snapshot("s1", delta) == "accepted"
    tree_dict, _ = env.run(until=manager.merged("s1"))
    tree = ObjectTree.from_dict(tree_dict)
    assert tree.get("/h").entries == 10
    assert tree.get("/h2").entries == 7


def test_delta_without_keyframe_requests_resync():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    delta = make_snapshot("e0", 10, sequence=2, base_sequence=1)
    assert manager.submit_snapshot("s1", delta) == "resync"
    assert manager.snapshot_count("s1") == 0
    # A full keyframe recovers.
    full = make_snapshot("e0", 10, sequence=3)
    assert manager.submit_snapshot("s1", full) == "accepted"
    assert merged_entries(env, manager) == 10


def test_sequence_gap_requests_resync():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    manager.submit_snapshot("s1", make_snapshot("e0", 10, sequence=1))
    # Delta based on sequence 2, but the cache holds sequence 1.
    delta = make_snapshot("e0", 30, sequence=3, base_sequence=2)
    assert manager.submit_snapshot("s1", delta) == "resync"
    assert merged_entries(env, manager) == 10  # cache untouched


def test_non_incremental_manager_refuses_deltas():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0, incremental=False)
    delta = make_snapshot("e0", 10, sequence=2, base_sequence=1)
    assert manager.submit_snapshot("s1", delta) == "resync"
    assert manager.submit_snapshot("s1", make_snapshot("e0", 10)) == "accepted"
    assert merged_entries(env, manager) == 10


def test_engine_manager_resync_roundtrip():
    # A lost snapshot self-heals: the manager reports the gap, the engine
    # republishes a full keyframe, and the merged state is exact.
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    engine = make_engine()
    engine.take_snapshot()  # keyframe... lost in transit, never submitted
    engine.tree.get("/a").fill(5.0)
    delta = engine.take_snapshot()
    assert delta.base_sequence == 1
    assert manager.submit_snapshot("s1", delta) == "resync"
    full = engine.take_snapshot(full=True)
    assert manager.submit_snapshot("s1", full) == "accepted"
    tree_dict, _ = env.run(until=manager.merged("s1"))
    assert ObjectTree.from_dict(tree_dict).get("/a").entries == 1


# ---------------------------------------------------------------------------
# drop accounting
# ---------------------------------------------------------------------------

def test_dropped_snapshots_counted_by_reason():
    env = Environment()
    obs = Observability(env)
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0, obs=obs)
    manager.submit_snapshot("s1", make_snapshot("e0", 10, sequence=2, run_id=1))
    # banned engine
    manager.discard_engine("s1", "e1")
    assert manager.submit_snapshot("s1", make_snapshot("e1", 5)) == "dropped"
    # stale run
    stale = make_snapshot("e2", 5, run_id=0)
    assert manager.submit_snapshot("s1", stale) == "dropped"
    # out-of-order duplicate
    dup = make_snapshot("e0", 5, sequence=2, run_id=1)
    assert manager.submit_snapshot("s1", dup) == "dropped"
    # delta gap
    gap = make_snapshot("e3", 5, sequence=5, base_sequence=4, run_id=1)
    assert manager.submit_snapshot("s1", gap) == "resync"
    counter = obs.metrics.get("aida_snapshots_dropped_total")
    assert counter.value(reason="banned") == 1
    assert counter.value(reason="stale_run") == 1
    assert counter.value(reason="out_of_order") == 1
    assert counter.value(reason="gap") == 1


# ---------------------------------------------------------------------------
# snapshot aliasing (regression)
# ---------------------------------------------------------------------------

def test_mutating_submitted_tree_cannot_corrupt_merge():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    snapshot = make_snapshot("e0", 10)
    manager.submit_snapshot("s1", snapshot)
    before = merged_entries(env, manager)
    # The submitter still holds the tree dict; scribble all over it.
    for obj_data in snapshot.tree["objects"].values():
        obj_data["counts"] = [999] * len(obj_data["counts"])
        obj_data["swx"] = -1.0
    snapshot.tree["objects"]["/evil"] = {"kind": "bogus"}
    assert merged_entries(env, manager) == before == 10


@pytest.mark.parametrize("incremental", [True, False])
def test_served_tree_is_not_aliased_to_cache(incremental):
    env = Environment()
    manager = AIDAManagerService(
        env, merge_cost_per_tree=0.0, incremental=incremental
    )
    manager.submit_snapshot("s1", make_snapshot("e0", 10))
    tree_dict, _ = env.run(until=manager.merged("s1"))
    counts = tree_dict["objects"]["/h"]["counts"]
    if isinstance(counts, list):
        counts[:] = [0] * len(counts)
    tree_dict["objects"]["/h"]["swx"] = -1.0
    assert merged_entries(env, manager) == 10


# ---------------------------------------------------------------------------
# the incremental cost model
# ---------------------------------------------------------------------------

def test_merge_latency_incremental_charges_per_dirty_engine():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.1)
    assert manager.merge_latency_incremental(1, 64) == pytest.approx(0.1)
    assert manager.merge_latency_incremental(5, 64) == pytest.approx(0.5)
    assert manager.merge_latency_incremental(0, 64) == 0.0
    assert manager.merge_latency_incremental(1, 0) == 0.0
    # Capped at the from-scratch cost.
    assert manager.merge_latency_incremental(64, 64) == pytest.approx(
        manager.merge_latency(64)
    )
    assert manager.merge_latency_incremental(100, 64) == pytest.approx(
        manager.merge_latency(64)
    )


def test_poll_charges_only_dirty_engines():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.5)
    for i in range(8):
        manager.submit_snapshot("s1", make_snapshot(f"e{i}", 10))
    env.run(until=manager.merged("s1"))
    first_poll = env.now
    assert first_poll == pytest.approx(0.5 * 8)
    # Clean poll: nothing dirty, nothing charged.
    env.run(until=manager.merged("s1"))
    assert env.now == pytest.approx(first_poll)
    # One engine advances: one tree's worth of work.
    delta = make_snapshot("e3", 20, sequence=2, base_sequence=1)
    manager.submit_snapshot("s1", delta)
    env.run(until=manager.merged("s1"))
    assert env.now == pytest.approx(first_poll + 0.5)
    assert manager.merge_log[-1] == ("s1", 8, 0.5)


def test_cache_metrics_track_hits_and_misses():
    env = Environment()
    obs = Observability(env)
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0, obs=obs)
    for i in range(4):
        manager.submit_snapshot("s1", make_snapshot(f"e{i}", 10))
    env.run(until=manager.merged("s1"))  # all 4 dirty
    manager.submit_snapshot(
        "s1", make_snapshot("e0", 20, sequence=2, base_sequence=1)
    )
    env.run(until=manager.merged("s1"))  # 1 dirty, 3 cached
    assert obs.metrics.get("aida_merge_cache_misses_total").total() == 5
    assert obs.metrics.get("aida_merge_cache_hits_total").total() == 3
    dirty = obs.metrics.get("aida_merge_dirty_engines")
    assert dirty.count() == 2


# ---------------------------------------------------------------------------
# cache invalidation keeps results exact
# ---------------------------------------------------------------------------

def test_discard_engine_removes_its_contribution():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    manager.submit_snapshot("s1", make_snapshot("e0", 10))
    manager.submit_snapshot("s1", make_snapshot("e1", 20))
    assert merged_entries(env, manager) == 30  # caches are warm
    manager.discard_engine("s1", "e1")
    assert merged_entries(env, manager) == 10


def test_begin_run_invalidates_caches():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    manager.submit_snapshot("s1", make_snapshot("e0", 50))
    assert merged_entries(env, manager) == 50
    manager.begin_run("s1", 1)
    # A delta from the new run cannot apply: the cache is gone.
    delta = make_snapshot("e0", 60, sequence=2, base_sequence=1, run_id=1)
    assert manager.submit_snapshot("s1", delta) == "resync"
    manager.submit_snapshot("s1", make_snapshot("e0", 5, run_id=1))
    assert merged_entries(env, manager) == 5


def test_rewind_via_submission_invalidates_caches():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    manager.submit_snapshot("s1", make_snapshot("e0", 50))
    assert merged_entries(env, manager) == 50
    # A run-1 snapshot arrives without an explicit begin_run.
    manager.submit_snapshot("s1", make_snapshot("e1", 5, run_id=1))
    assert merged_entries(env, manager) == 5


def test_drop_session_clears_caches():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    manager.submit_snapshot("s1", make_snapshot("e0", 10))
    env.run(until=manager.merged("s1"))
    manager.drop_session("s1")
    tree_dict, progress = env.run(until=manager.merged("s1"))
    assert tree_dict["objects"] == {}
    assert progress.engines_reporting == 0


# ---------------------------------------------------------------------------
# incremental vs from-scratch equivalence
# ---------------------------------------------------------------------------

def test_incremental_matches_from_scratch_merge():
    env = Environment()
    incremental = AIDAManagerService(env, merge_cost_per_tree=0.0)
    scratch = AIDAManagerService(env, merge_cost_per_tree=0.0, incremental=False)
    for i in range(5):
        snap = make_snapshot(f"e{i}", 10 * (i + 1))
        incremental.submit_snapshot("s1", snap)
        scratch.submit_snapshot("s1", snap)
    left, _ = env.run(until=incremental.merged("s1"))
    right, _ = env.run(until=scratch.merged("s1"))
    assert left == right
