"""Unit tests for the sample analyses (Higgs, counter, cuts, trading)."""

import numpy as np
import pytest

from repro.aida.fit import fit_histogram
from repro.aida.hist1d import Histogram1D
from repro.aida.tree import ObjectTree
from repro.analysis import counting, cuts, higgs, trading
from repro.analysis.counting import EventCounterAnalysis
from repro.analysis.cuts import SelectionCutAnalysis
from repro.analysis.higgs import HiggsSearchAnalysis
from repro.analysis.trading import TradingRecordsAnalysis, generate_trading_days
from repro.dataset.events import PROCESS_CODES, EventBatch
from repro.dataset.generator import GeneratorConfig, ILCEventGenerator
from repro.engine.sandbox import load_analysis


def run_analysis(analysis, batch):
    tree = ObjectTree()
    analysis.start(tree)
    analysis.process_batch(batch, tree)
    analysis.end(tree)
    return tree


# ---------------------------------------------------------------------------
# HiggsSearchAnalysis
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mixed_batch():
    return ILCEventGenerator(seed=202).generate(6000)


def test_higgs_creates_outputs(mixed_batch):
    tree = run_analysis(HiggsSearchAnalysis(), mixed_batch)
    for path in (
        "/higgs/dijet_mass",
        "/higgs/z_mass",
        "/higgs/n_jets",
        "/higgs/visible_energy",
        "/higgs/mass_correlation",
    ):
        assert tree.exists(path)


def test_higgs_finds_peak_in_pure_signal():
    config = GeneratorConfig(fractions=(("zh", 1.0),))
    batch = ILCEventGenerator(config, seed=7).generate(4000)
    tree = run_analysis(HiggsSearchAnalysis(), batch)
    mass = tree.get("/higgs/dijet_mass")
    fit = fit_histogram(mass, "gaussian", fit_range=(95, 145))
    assert fit.parameters["mean"] == pytest.approx(120.0, abs=3.0)
    z_mass = tree.get("/higgs/z_mass")
    z_fit = fit_histogram(z_mass, "gaussian", fit_range=(70, 110))
    assert z_fit.parameters["mean"] == pytest.approx(91.2, abs=3.0)


def test_higgs_peak_visible_over_background(mixed_batch):
    tree = run_analysis(HiggsSearchAnalysis(), mixed_batch)
    mass = tree.get("/higgs/dijet_mass")
    axis = mass.axis
    peak_bin = axis.coord_to_index(120.0)
    sideband_bin = axis.coord_to_index(170.0)
    assert mass.bin_height(peak_bin) > 2 * mass.bin_height(sideband_bin)


def test_higgs_only_processes_four_jet_events(mixed_batch):
    tree = run_analysis(HiggsSearchAnalysis(), mixed_batch)
    counts = np.diff(mixed_batch.offsets)
    four_jet = int(np.sum(counts == 4))
    assert tree.get("/higgs/dijet_mass").all_entries == four_jet


def test_higgs_energy_cut_reduces_candidates(mixed_batch):
    loose = run_analysis(HiggsSearchAnalysis(min_visible_energy=0.0), mixed_batch)
    tight = run_analysis(HiggsSearchAnalysis(min_visible_energy=500.0), mixed_batch)
    assert (
        tight.get("/higgs/dijet_mass").all_entries
        < loose.get("/higgs/dijet_mass").all_entries
    )


def test_higgs_empty_batch():
    tree = run_analysis(HiggsSearchAnalysis(), EventBatch.empty())
    assert tree.get("/higgs/dijet_mass").all_entries == 0


@pytest.fixture(scope="module")
def batch_with_empty_event(mixed_batch):
    # A hand-built event without particles sits between generated events.
    jet = (81, 60.0, 10.0, -20.0, 30.0)
    hand_built = EventBatch.from_events(
        [(900_000, 3, 1.0, [jet, jet]), (900_001, 3, 1.0, []),
         (900_002, 0, 1.0, [jet] * 4)]
    )
    return EventBatch.concatenate(
        [mixed_batch.slice(0, 3000), hand_built, mixed_batch.slice(3000, 6000)]
    )


def test_higgs_visible_energy_matches_per_event_sum(batch_with_empty_event):
    batch = batch_with_empty_event
    # Reference: each event's energies added in order, starting from 0.0.
    reference = Histogram1D(
        "visible_energy", "Total visible energy [GeV]",
        bins=60, lower=0.0, upper=600.0,
    )
    reference.fill_array(np.array([
        sum(batch.e[batch.offsets[i]:batch.offsets[i + 1]].tolist(), 0.0)
        for i in range(len(batch))
    ]))
    native = run_analysis(HiggsSearchAnalysis(), batch)
    assert native.get("/higgs/visible_energy").to_dict() == reference.to_dict()


def test_higgs_staged_source_matches_native(batch_with_empty_event):
    batch = batch_with_empty_event
    native = run_analysis(HiggsSearchAnalysis(), batch)
    staged = run_analysis(load_analysis(higgs.SOURCE), batch)
    # The staged edition books a subset of the native outputs; every one
    # of them must match the native tree bit for bit.
    assert staged.to_dict() == native.to_dict(only=set(staged.paths()))
    assert native.get("/higgs/visible_energy").entries == len(batch)
    assert native.get("/higgs/visible_energy").bin_height(0) >= 1


# ---------------------------------------------------------------------------
# EventCounterAnalysis
# ---------------------------------------------------------------------------

def test_counter_totals(mixed_batch):
    tree = run_analysis(EventCounterAnalysis(), mixed_batch)
    assert tree.get("/counts/process").entries == len(mixed_batch)
    assert tree.get("/counts/multiplicity").entries == len(mixed_batch)


def test_counter_process_fractions(mixed_batch):
    tree = run_analysis(EventCounterAnalysis(), mixed_batch)
    process_hist = tree.get("/counts/process")
    zh = process_hist.bin_height(PROCESS_CODES["zh"])
    assert zh / process_hist.entries == pytest.approx(0.15, abs=0.02)


def test_counter_staged_source(mixed_batch):
    staged = run_analysis(load_analysis(counting.SOURCE), mixed_batch)
    assert staged.get("/counts/process").entries == len(mixed_batch)


# ---------------------------------------------------------------------------
# SelectionCutAnalysis
# ---------------------------------------------------------------------------

def test_cuts_validation():
    with pytest.raises(ValueError):
        SelectionCutAnalysis(min_energy=10, max_energy=5)


def test_cuts_pass_fail_partition(mixed_batch):
    analysis = SelectionCutAnalysis(min_energy=400.0)
    tree = run_analysis(analysis, mixed_batch)
    decision = tree.get("/cuts/decision")
    assert decision.entries == len(mixed_batch)
    passed = decision.bin_height(1)
    failed = decision.bin_height(0)
    assert passed + failed == len(mixed_batch)
    assert tree.get("/cuts/energy_pass").entries == passed
    assert tree.get("/cuts/energy_fail").entries == failed


def test_cuts_efficiency_monotone_in_threshold(mixed_batch):
    efficiencies = []
    for threshold in (0.0, 300.0, 450.0, 550.0):
        analysis = SelectionCutAnalysis(min_energy=threshold)
        tree = run_analysis(analysis, mixed_batch)
        efficiencies.append(analysis.efficiency(tree))
    assert efficiencies[0] == pytest.approx(1.0)
    assert all(a >= b for a, b in zip(efficiencies, efficiencies[1:]))


def test_cuts_efficiency_nan_when_empty():
    analysis = SelectionCutAnalysis()
    tree = run_analysis(analysis, EventBatch.empty())
    assert np.isnan(analysis.efficiency(tree))


def test_cuts_staged_source(mixed_batch):
    staged = run_analysis(
        load_analysis(cuts.SOURCE, parameters={"min_energy": 400.0}), mixed_batch
    )
    assert staged.get("/cuts/decision").entries == len(mixed_batch)


# ---------------------------------------------------------------------------
# Trading
# ---------------------------------------------------------------------------

def test_trading_generator_shapes():
    batch = generate_trading_days(100, trades_per_day=20, seed=1)
    assert len(batch) == 100
    assert batch.n_particles == 2000
    assert np.all(batch.e > 0)  # prices positive
    assert set(np.unique(batch.pdg)) <= {-1, 1}


def test_trading_generator_validation():
    with pytest.raises(ValueError):
        generate_trading_days(-1)
    with pytest.raises(ValueError):
        generate_trading_days(5, trades_per_day=0)


def test_trading_generator_deterministic():
    a = generate_trading_days(50, seed=3)
    b = generate_trading_days(50, seed=3)
    assert np.array_equal(a.e, b.e)


def test_trading_analysis_outputs():
    batch = generate_trading_days(200, seed=5)
    tree = run_analysis(TradingRecordsAnalysis(), batch)
    assert tree.get("/trading/daily_volume").entries == 200
    assert tree.get("/trading/daily_return").entries == 199  # first day has no return
    vwap = tree.get("/trading/vwap_by_day")
    assert vwap.entries == 200
    # VWAP close to the generated price scale.
    assert 50 < vwap.bin_height(0) < 200


def test_trading_imbalance_bounded():
    batch = generate_trading_days(100, seed=9)
    tree = run_analysis(TradingRecordsAnalysis(), batch)
    imbalance = tree.get("/trading/imbalance")
    assert imbalance.all_entries == 100
    assert imbalance.entries == imbalance.all_entries  # all within [-1, 1]


def test_trading_staged_source():
    batch = generate_trading_days(50, seed=11)
    tree = run_analysis(load_analysis(trading.SOURCE), batch)
    assert tree.get("/trading/daily_volume").entries == 50
