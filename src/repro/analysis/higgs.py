"""The Higgs-boson search: dijet invariant mass over background.

Reconstructs e+e- -> ZH -> four jets: among the three ways to pair four
jets into two dijets, pick the pairing whose better dijet is closest to the
Z mass; the *other* dijet is the Higgs candidate.  Signal events pile up at
m_H = 120 GeV over the WW / ZZ / qq combinatorial background.

Outputs (under ``/higgs``): the candidate mass spectrum (the headline
histogram of Fig. 4), the Z-candidate mass and the total visible energy.
Constructor parameters: ``min_visible_energy``, a cut on the event's total
visible energy in GeV that rejects radiative-return qq background, and
the candidate-mass binning ``mass_bins``, ``mass_low``, ``mass_high``.

Fully vectorized: four-jet events of a chunk are processed as (n, 4)
arrays; no per-event Python loop.  The analysis is the ``SOURCE`` text
below, user code that engines load with
:func:`repro.engine.sandbox.load_analysis`.
"""

#: The Higgs search (uses only the sandbox-provided names).
SOURCE = '''
class StagedHiggsSearch(Analysis):
    """Dijet Higgs search (staged-source edition)."""

    name = "higgs-search"

    def __init__(self, min_visible_energy=0.0, mass_bins=60,
                 mass_low=40.0, mass_high=200.0):
        self.min_visible_energy = float(min_visible_energy)
        self.mass_bins = int(mass_bins)
        self.mass_low = float(mass_low)
        self.mass_high = float(mass_high)

    def start(self, tree):
        tree.put("/higgs/dijet_mass", Histogram1D(
            "dijet_mass", "Higgs candidate dijet mass [GeV]",
            bins=self.mass_bins, lower=self.mass_low, upper=self.mass_high))
        tree.put("/higgs/z_mass", Histogram1D(
            "z_mass", "Z candidate dijet mass [GeV]",
            bins=self.mass_bins, lower=self.mass_low, upper=self.mass_high))
        tree.put("/higgs/visible_energy", Histogram1D(
            "visible_energy", "Total visible energy [GeV]",
            bins=60, lower=0.0, upper=600.0))

    def process_batch(self, batch, tree):
        if len(batch) == 0:
            return
        counts = np.diff(batch.offsets)
        visible = np.bincount(np.repeat(np.arange(len(batch)), counts),
                              weights=batch.e, minlength=len(batch))
        tree.get("/higgs/visible_energy").fill_array(visible)
        selected = (counts == 4) & (visible >= self.min_visible_energy)
        if not np.any(selected):
            return
        starts = batch.offsets[np.nonzero(selected)[0]].astype(int)
        gather = starts[:, None] + np.arange(4)[None, :]
        e, px = batch.e[gather], batch.px[gather]
        py, pz = batch.py[gather], batch.pz[gather]

        def dijet(a, b):
            se = e[:, a] + e[:, b]
            sx = px[:, a] + px[:, b]
            sy = py[:, a] + py[:, b]
            sz = pz[:, a] + pz[:, b]
            return np.sqrt(np.clip(se * se - sx * sx - sy * sy - sz * sz, 0, None))

        pairings = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
        masses = np.stack(
            [np.stack([dijet(*pa), dijet(*pb)], axis=1) for pa, pb in pairings],
            axis=1,
        )
        dz = np.abs(masses - 91.1876)
        closer = np.argmin(dz, axis=2)
        best_dz = np.take_along_axis(dz, closer[:, :, None], axis=2)[:, :, 0]
        best = np.argmin(best_dz, axis=1)
        row = np.arange(masses.shape[0])
        z_slot = closer[row, best]
        tree.get("/higgs/z_mass").fill_array(masses[row, best, z_slot])
        tree.get("/higgs/dijet_mass").fill_array(masses[row, best, 1 - z_slot])
'''
