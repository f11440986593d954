"""Tunable selection-cut analysis for the interactive fine-tuning loop.

The point of interactivity (§1) is "to fine tune an analysis ... while
making incremental changes".  This analysis takes its cut values as
constructor parameters (``min_energy``, ``max_energy`` on the event's
total visible energy in GeV, ``min_multiplicity`` on its particle count),
so the client can stop the run, adjust a cut, reload, rewind, and rerun —
the exact workflow of ``examples/interactive_rerun.py``.

Outputs under ``/cuts``: the pass/fail ``decision`` (bin 0 fail, bin 1
pass) and the visible-energy spectrum of passing events.  The analysis is
the ``SOURCE`` text below; engines load it with
:func:`repro.engine.sandbox.load_analysis`.
"""

#: The selection analysis (uses only the sandbox-provided names); the
#: interactive example re-stages it with different ``min_energy`` values.
SOURCE = '''
class StagedSelectionCuts(Analysis):
    """Energy-window selection with tunable cuts."""

    name = "selection-cuts"

    def __init__(self, min_energy=0.0, max_energy=1e12, min_multiplicity=0):
        self.min_energy = float(min_energy)
        self.max_energy = float(max_energy)
        self.min_multiplicity = int(min_multiplicity)

    def start(self, tree):
        tree.put("/cuts/decision", Histogram1D(
            "decision", "0=fail 1=pass", bins=2, lower=-0.5, upper=1.5))
        tree.put("/cuts/energy_pass", Histogram1D(
            "energy_pass", "Visible energy (passing) [GeV]",
            bins=60, lower=0.0, upper=600.0))

    def process_batch(self, batch, tree):
        if len(batch) == 0:
            return
        counts = np.diff(batch.offsets)
        visible = np.array([
            batch.e[batch.offsets[i]:batch.offsets[i + 1]].sum()
            for i in range(len(batch))
        ])
        passing = ((visible >= self.min_energy)
                   & (visible <= self.max_energy)
                   & (counts >= self.min_multiplicity))
        tree.get("/cuts/decision").fill_array(passing.astype(float))
        tree.get("/cuts/energy_pass").fill_array(visible[passing])
'''
