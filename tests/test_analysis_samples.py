"""Unit tests for the sample analyses (Higgs, counter, cuts, trading)."""

import ast
import builtins
import hashlib
import json
import symtable

import numpy as np
import pytest

from repro.aida.fit import fit_histogram
from repro.aida.hist1d import Histogram1D
from repro.aida.tree import ObjectTree
from repro.analysis import counting, cuts, higgs, trading
from repro.analysis.trading import generate_trading_days
from repro.dataset.events import PROCESS_CODES, EventBatch
from repro.dataset.generator import GeneratorConfig, ILCEventGenerator
from repro.engine.sandbox import _build_namespace, load_analysis


def run_analysis(analysis, batch):
    tree = ObjectTree()
    analysis.start(tree)
    analysis.process_batch(batch, tree)
    analysis.end(tree)
    return tree


# ---------------------------------------------------------------------------
# Higgs search
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mixed_batch():
    return ILCEventGenerator(seed=202).generate(6000)


def test_higgs_creates_outputs(mixed_batch):
    tree = run_analysis(load_analysis(higgs.SOURCE), mixed_batch)
    assert sorted(tree.paths()) == [
        "/higgs/dijet_mass", "/higgs/visible_energy", "/higgs/z_mass",
    ]


def test_higgs_finds_peak_in_pure_signal():
    config = GeneratorConfig(fractions=(("zh", 1.0),))
    batch = ILCEventGenerator(config, seed=7).generate(4000)
    tree = run_analysis(load_analysis(higgs.SOURCE), batch)
    mass = tree.get("/higgs/dijet_mass")
    fit = fit_histogram(mass, "gaussian", fit_range=(95, 145))
    assert fit.parameters["mean"] == pytest.approx(120.0, abs=3.0)
    z_mass = tree.get("/higgs/z_mass")
    z_fit = fit_histogram(z_mass, "gaussian", fit_range=(70, 110))
    assert z_fit.parameters["mean"] == pytest.approx(91.2, abs=3.0)


def test_higgs_peak_visible_over_background(mixed_batch):
    tree = run_analysis(load_analysis(higgs.SOURCE), mixed_batch)
    mass = tree.get("/higgs/dijet_mass")
    axis = mass.axis
    peak_bin = axis.coord_to_index(120.0)
    sideband_bin = axis.coord_to_index(170.0)
    assert mass.bin_height(peak_bin) > 2 * mass.bin_height(sideband_bin)


def test_higgs_only_processes_four_jet_events(mixed_batch):
    tree = run_analysis(load_analysis(higgs.SOURCE), mixed_batch)
    counts = np.diff(mixed_batch.offsets)
    four_jet = int(np.sum(counts == 4))
    assert tree.get("/higgs/dijet_mass").all_entries == four_jet


def test_higgs_energy_cut_reduces_candidates(mixed_batch):
    loose = run_analysis(
        load_analysis(higgs.SOURCE, parameters={"min_visible_energy": 0.0}),
        mixed_batch,
    )
    tight = run_analysis(
        load_analysis(higgs.SOURCE, parameters={"min_visible_energy": 500.0}),
        mixed_batch,
    )
    assert (
        tight.get("/higgs/dijet_mass").all_entries
        < loose.get("/higgs/dijet_mass").all_entries
    )


def test_higgs_empty_batch():
    tree = run_analysis(load_analysis(higgs.SOURCE), EventBatch.empty())
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


#: SHA-256 of each module's ``SOURCE`` text: what a client uploads.
SOURCE_DIGESTS = {
    "higgs": "ad9bb5d9b038833ea80daec45a109bc2cdf974a6deeae121528262ab73aa1828",
    "cuts": "a4e194fdd1c43a26d33583c1156e68acdf4d95a0690d902634c9dcc07ca0d662",
    "counting": "59365988a71cc0c60412386e76e9af9ecb397a2d0e15713cd5ac7a789df0b692",
    "trading": "6312314c5454327de7080b9ead9dd5e3b403386b9f055e4aa0b893504f8df684",
}

#: SHA-256 of the canonical JSON of each staged analysis's output tree.
TREE_DIGESTS = {
    "higgs": "71731c5f4d0b2ca2bb5aa84a52603c317c9f052f5564df9559d9e67c6255560e",
    "cuts@0": "1f30c057eb24196b53caa88bb24c446c20ad17e0d785443056dadf8d355fbd96",
    "cuts@400": "db55cb296f2e3e243f579556dfde4416c4c014584a1b28003d71c29aa75a5c27",
    "counting": "de11688c70330b6081ff08d7fda4366bbe1959d17b3719f5a1b9a921844a7b63",
    "trading": "8822c16d646e7939abf8b27551a1064d0cf8ec782b7fcd0067badd8cdf940e94",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_source_golden_digests(batch_with_empty_event):
    modules = {"higgs": higgs, "cuts": cuts, "counting": counting, "trading": trading}
    assert {
        name: _sha256(module.SOURCE) for name, module in modules.items()
    } == SOURCE_DIGESTS
    runs = {
        "higgs": (higgs.SOURCE, None, batch_with_empty_event),
        "cuts@0": (cuts.SOURCE, {"min_energy": 0.0}, batch_with_empty_event),
        "cuts@400": (cuts.SOURCE, {"min_energy": 400.0}, batch_with_empty_event),
        "counting": (counting.SOURCE, None, batch_with_empty_event),
        "trading": (trading.SOURCE, None, generate_trading_days(200, seed=5)),
    }
    digests = {}
    for name, (source, parameters, batch) in runs.items():
        tree = run_analysis(load_analysis(source, parameters=parameters), batch)
        digests[name] = _sha256(json.dumps(tree.to_dict(), sort_keys=True))
    assert digests == TREE_DIGESTS


def _unresolved_names(source):
    """Global names *source* reads that neither it nor the sandbox defines.

    Staged code lives in strings, where the linter's undefined-name rule
    cannot see it; this is that check for the sandbox namespace.
    """
    module = symtable.symtable(source, "<analysis>", "exec")
    known = set(_build_namespace()) | set(vars(builtins))
    known |= {sym.get_name() for sym in module.get_symbols() if sym.is_assigned()}
    unresolved = set()
    pending = [module]
    while pending:
        table = pending.pop()
        pending.extend(table.get_children())
        for sym in table.get_symbols():
            if sym.is_referenced() and sym.is_global() and sym.get_name() not in known:
                unresolved.add(sym.get_name())
    return unresolved


@pytest.mark.parametrize("module", [higgs, cuts, counting, trading],
                         ids=lambda module: module.__name__.rsplit(".", 1)[-1])
def test_source_names_resolve_in_sandbox(module):
    assert _unresolved_names(module.SOURCE) == set()
    subclasses = [
        node.name for node in ast.parse(module.SOURCE).body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(base, ast.Name) and base.id == "Analysis" for base in node.bases)
    ]
    assert len(subclasses) == 1
    # The check binds: a misspelt global in a method is reported.
    broken = module.SOURCE.replace("def start(self, tree):",
                                   "def start(self, tree):\n        Histogram1d")
    assert _unresolved_names(broken) == {"Histogram1d"}


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
    staged = run_analysis(load_analysis(higgs.SOURCE), batch)
    visible = staged.get("/higgs/visible_energy")
    assert visible.to_dict() == reference.to_dict()
    assert visible.entries == len(batch)
    assert visible.bin_height(0) >= 1


# ---------------------------------------------------------------------------
# Counter
# ---------------------------------------------------------------------------

def test_counter_totals(mixed_batch):
    tree = run_analysis(load_analysis(counting.SOURCE), mixed_batch)
    assert tree.get("/counts/process").entries == len(mixed_batch)
    assert tree.get("/counts/multiplicity").entries == len(mixed_batch)


def test_counter_process_fractions(mixed_batch):
    tree = run_analysis(load_analysis(counting.SOURCE), mixed_batch)
    process_hist = tree.get("/counts/process")
    zh = process_hist.bin_height(PROCESS_CODES["zh"])
    assert zh / process_hist.entries == pytest.approx(0.15, abs=0.02)


def test_counter_staged_source(mixed_batch):
    staged = run_analysis(load_analysis(counting.SOURCE), mixed_batch)
    assert sorted(staged.paths()) == ["/counts/multiplicity", "/counts/process"]


# ---------------------------------------------------------------------------
# Selection cuts
# ---------------------------------------------------------------------------

def test_cuts_pass_fail_partition(mixed_batch):
    tree = run_analysis(
        load_analysis(cuts.SOURCE, parameters={"min_energy": 400.0}), mixed_batch
    )
    decision = tree.get("/cuts/decision")
    assert decision.entries == len(mixed_batch)
    passed = decision.bin_height(1)
    failed = decision.bin_height(0)
    assert passed + failed == len(mixed_batch)
    assert 0 < passed < len(mixed_batch)
    assert tree.get("/cuts/energy_pass").all_entries == passed


def test_cuts_efficiency_monotone_in_threshold(mixed_batch):
    efficiencies = []
    for threshold in (0.0, 300.0, 450.0, 550.0):
        analysis = load_analysis(cuts.SOURCE, parameters={"min_energy": threshold})
        decision = run_analysis(analysis, mixed_batch).get("/cuts/decision")
        efficiencies.append(decision.bin_height(1) / decision.entries)
    assert efficiencies[0] == pytest.approx(1.0)
    assert all(a >= b for a, b in zip(efficiencies, efficiencies[1:]))


def test_cuts_staged_source(mixed_batch):
    staged = run_analysis(
        load_analysis(cuts.SOURCE, parameters={"min_energy": 400.0}), mixed_batch
    )
    assert sorted(staged.paths()) == ["/cuts/decision", "/cuts/energy_pass"]


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
    tree = run_analysis(load_analysis(trading.SOURCE), batch)
    assert tree.get("/trading/daily_volume").entries == 200
    vwap = tree.get("/trading/vwap_by_day")
    assert vwap.entries == 200
    # VWAP close to the generated price scale.
    assert 50 < vwap.bin_height(0) < 200


def test_trading_staged_source():
    batch = generate_trading_days(50, seed=11)
    tree = run_analysis(load_analysis(trading.SOURCE), batch)
    assert sorted(tree.paths()) == ["/trading/daily_volume", "/trading/vwap_by_day"]
