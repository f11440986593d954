"""Unit tests for the event model and the synthetic ILC generator."""

import hashlib

import numpy as np
import pytest

from repro.dataset.events import PROCESS_CODES, Event, EventBatch
from repro.dataset.generator import (
    GeneratorConfig,
    ILCEventGenerator,
    _permute_batch,
)
from repro.dataset.physics import MASS_Z, invariant_mass, pair_mass
from repro.services.content import BLOCK_EVENTS, ContentStore


def simple_batch():
    return EventBatch.from_events(
        [
            (0, PROCESS_CODES["zh"], 1.0, [(81, 100.0, 50.0, 0.0, 0.0), (81, 90.0, -50.0, 0.0, 0.0)]),
            (1, PROCESS_CODES["qq"], 0.5, [(81, 200.0, 0.0, 100.0, 0.0)]),
            (2, PROCESS_CODES["ww"], 1.0, []),
        ]
    )


# ---------------------------------------------------------------------------
# EventBatch
# ---------------------------------------------------------------------------

def test_batch_lengths():
    batch = simple_batch()
    assert len(batch) == 3
    assert batch.n_particles == 3
    assert batch.nbytes > 0


def test_batch_event_view():
    batch = simple_batch()
    event = batch.event(0)
    assert isinstance(event, Event)
    assert event.n_particles == 2
    assert event.process_name == "zh"
    assert event.total_energy() == pytest.approx(190.0)
    assert event.weight == 1.0


def test_batch_event_empty_particles():
    event = simple_batch().event(2)
    assert event.n_particles == 0
    assert event.total_energy() == 0.0


def test_batch_event_out_of_range():
    with pytest.raises(IndexError):
        simple_batch().event(3)


def test_event_jets_filter():
    batch = EventBatch.from_events(
        [(0, 0, 1.0, [(81, 10.0, 0, 0, 0), (13, 5.0, 0, 0, 0)])]
    )
    e, px, py, pz = batch.event(0).jets()
    assert len(e) == 1
    assert e[0] == 10.0


def test_batch_iteration():
    ids = [event.event_id for event in simple_batch()]
    assert ids == [0, 1, 2]


def test_batch_slice_rebases_offsets():
    batch = simple_batch()
    sub = batch.slice(1, 3)
    assert len(sub) == 2
    assert sub.offsets[0] == 0
    assert sub.event(0).n_particles == 1
    assert sub.event(0).event_id == 1


def test_batch_slice_validation():
    with pytest.raises(IndexError):
        simple_batch().slice(2, 1)
    with pytest.raises(IndexError):
        simple_batch().slice(0, 4)


def test_batch_concatenate_roundtrip():
    batch = simple_batch()
    rejoined = EventBatch.concatenate([batch.slice(0, 1), batch.slice(1, 3)])
    assert len(rejoined) == 3
    assert np.array_equal(rejoined.event_ids, batch.event_ids)
    assert np.array_equal(rejoined.e, batch.e)
    assert np.array_equal(rejoined.offsets, batch.offsets)


def test_batch_concatenate_empty():
    assert len(EventBatch.concatenate([])) == 0
    assert len(EventBatch.concatenate([EventBatch.empty()])) == 0


def test_batch_validation_errors():
    with pytest.raises(ValueError):
        EventBatch(
            np.zeros(2), np.zeros(1), np.zeros(2), np.zeros(3),
            np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0),
        )
    with pytest.raises(ValueError):
        EventBatch(
            np.zeros(1), np.zeros(1), np.zeros(1), np.array([0, 5]),
            np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3),
        )


# ---------------------------------------------------------------------------
# GeneratorConfig
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(sqrt_s=0)
    with pytest.raises(ValueError):
        GeneratorConfig(sqrt_s=200.0)  # ZH closed at 200 with mH=120
    with pytest.raises(ValueError):
        GeneratorConfig(fractions=(("zh", 0.5), ("zh", 0.5)))
    with pytest.raises(ValueError):
        GeneratorConfig(fractions=(("zh", 0.7), ("qq", 0.2)))
    with pytest.raises(ValueError):
        GeneratorConfig(fractions=(("mystery", 1.0),))
    with pytest.raises(ValueError):
        GeneratorConfig(fractions=(("zh", -0.5), ("qq", 1.5)))


# ---------------------------------------------------------------------------
# ILCEventGenerator
# ---------------------------------------------------------------------------

def test_generator_deterministic_with_seed():
    a = ILCEventGenerator(seed=123).generate(200)
    b = ILCEventGenerator(seed=123).generate(200)
    assert np.array_equal(a.e, b.e)
    assert np.array_equal(a.process, b.process)


def test_generator_different_seeds_differ():
    a = ILCEventGenerator(seed=1).generate(100)
    b = ILCEventGenerator(seed=2).generate(100)
    assert not np.array_equal(a.e, b.e)


def test_generator_event_ids_sequential_across_calls():
    gen = ILCEventGenerator(seed=5)
    first = gen.generate(10)
    second = gen.generate(10)
    assert list(first.event_ids) == list(range(10))
    assert list(second.event_ids) == list(range(10, 20))


def test_generator_zero_events():
    assert len(ILCEventGenerator().generate(0)) == 0
    with pytest.raises(ValueError):
        ILCEventGenerator().generate(-1)


def test_generator_process_mixture():
    batch = ILCEventGenerator(seed=7).generate(4000)
    fractions = {
        name: np.mean(batch.process == code)
        for name, code in PROCESS_CODES.items()
    }
    assert fractions["zh"] == pytest.approx(0.15, abs=0.03)
    assert fractions["ww"] == pytest.approx(0.35, abs=0.03)
    assert fractions["qq"] == pytest.approx(0.30, abs=0.03)


def test_generator_particle_counts_by_process():
    batch = ILCEventGenerator(seed=9).generate(500)
    for event in batch:
        if event.process_name == "qq":
            assert event.n_particles == 2
        else:
            assert event.n_particles == 4


def test_signal_events_contain_higgs_mass_peak():
    """Pairing the two H jets of ZH events reconstructs ~120 GeV."""
    config = GeneratorConfig(fractions=(("zh", 1.0),), smear_stochastic=0.0, smear_constant=0.0)
    batch = ILCEventGenerator(config, seed=11).generate(300)
    masses = []
    for event in batch:
        e, px, py, pz = event.jets()
        # Jets 0,1 are the Higgs decay by construction, 2,3 the Z decay.
        masses.append(
            pair_mass(e[0], px[0], py[0], pz[0], e[1], px[1], py[1], pz[1])
        )
        z_mass = pair_mass(e[2], px[2], py[2], pz[2], e[3], px[3], py[3], pz[3])
        assert z_mass == pytest.approx(MASS_Z, rel=1e-6)
    assert np.allclose(masses, 120.0, rtol=1e-6)


def test_smearing_broadens_peak():
    sharp_config = GeneratorConfig(
        fractions=(("zh", 1.0),), smear_stochastic=0.0, smear_constant=0.0
    )
    smeared_config = GeneratorConfig(fractions=(("zh", 1.0),))

    def mass_spread(config, seed):
        batch = ILCEventGenerator(config, seed=seed).generate(500)
        masses = []
        for event in batch:
            e, px, py, pz = event.jets()
            masses.append(
                float(pair_mass(e[0], px[0], py[0], pz[0], e[1], px[1], py[1], pz[1]))
            )
        return np.std(masses)

    assert mass_spread(smeared_config, 13) > 10 * mass_spread(sharp_config, 13)


def test_energy_conservation_before_smearing():
    config = GeneratorConfig(fractions=(("ww", 1.0),), smear_stochastic=0.0, smear_constant=0.0)
    batch = ILCEventGenerator(config, seed=17).generate(100)
    for event in batch:
        assert event.total_energy() == pytest.approx(500.0, rel=1e-9)
        assert abs(event.px.sum()) < 1e-6
        assert abs(event.py.sum()) < 1e-6
        assert abs(event.pz.sum()) < 1e-6


def test_stream_batches():
    gen = ILCEventGenerator(seed=19)
    batches = list(gen.stream(250, batch_size=100))
    assert [len(b) for b in batches] == [100, 100, 50]
    ids = np.concatenate([b.event_ids for b in batches])
    assert np.array_equal(ids, np.arange(250))
    with pytest.raises(ValueError):
        list(gen.stream(10, batch_size=0))


# ---------------------------------------------------------------------------
# Golden content
# ---------------------------------------------------------------------------

_BATCH_ARRAYS = (
    "event_ids", "process", "weights", "offsets", "pdg", "e", "px", "py", "pz",
)

#: SHA-256 of every array of ``ContentStore().events_for(content, start,
#: stop)``.  Every dataset the simulation serves is this content, so any
#: change to generation order, RNG draws or particle layout shows here.
GOLDEN_CONTENT = [
    ({"kind": "ilc", "seed": 0}, 0, 1000, {
        "event_ids": "702746827e553786bb026ac120cb58745fef3d3f554c33891809001cc37639f0",
        "process": "dcf54ae4a53bc1eabbf6541dc8ecc202a1f381095ec8ea8ac4f73f06c883ef73",
        "weights": "e4190bf93e24bcf8e8861a8901d31a4f22c435c951faa399ade31357df139aec",
        "offsets": "be0f1f69c966bec30383d7344bad4f7f49017a79d681611b8440c173dc43f137",
        "pdg": "2f9739374205d9410b2b5797253d5986fe4f5ffbc82a75394e0b1f8bb2ae0e11",
        "e": "ad5784d921d3050c826bca392bb1262b3afcb06f22b72266cf81b0f88e38bbbc",
        "px": "116304543a1430f0ce56fef37484eeb7ff4086aee15ef4cc32a13ca33373c104",
        "py": "bb718c9acc34432c97df9adb97225b1b2e4a70e8d2d413a5794b871bcea2f6db",
        "pz": "f2404a16a6a507deddad5997ce7504a2865460cb2429e7c4f0b9743f029c43d0",
    }),
    ({"kind": "ilc", "seed": 0, "signal_fraction": 0.0}, 0, 1000, {
        "event_ids": "702746827e553786bb026ac120cb58745fef3d3f554c33891809001cc37639f0",
        "process": "e52b52564b9a8351221e796fb8368b937f1e4a71ef464d3f907a24ab83c8bd1c",
        "weights": "e4190bf93e24bcf8e8861a8901d31a4f22c435c951faa399ade31357df139aec",
        "offsets": "f91162d9f701da8f134a9cb72412fc4fd98d0261808da47c686836808143ead4",
        "pdg": "cedfb534feff8e1f54e45c5d44cc856023a62dffb60786e162685baebdc35749",
        "e": "0ce97a691ae681c1994a406bdeb31fbc59acb8d1f0dd0e9ce1366c6b7baddef3",
        "px": "e4ea08b5f5c7642314f53b3a106e9cce333527e84ee342355ba627ccb63f8476",
        "py": "dc47bb06ad28d4b1d11421866cef7f5c2dd4f0c564a60423a89aae17f9cee7c8",
        "pz": "fc9157454b9ebec90bac08403d7556f6d2b180c7efd6e222db474473e7a39001",
    }),
    ({"kind": "ilc", "seed": 0, "signal_fraction": 1.0}, 0, 1000, {
        "event_ids": "702746827e553786bb026ac120cb58745fef3d3f554c33891809001cc37639f0",
        "process": "2da42fb1d7bd8524e83d5a1e332bad697c8769ba430770a19bec630eb8ffcaa8",
        "weights": "e4190bf93e24bcf8e8861a8901d31a4f22c435c951faa399ade31357df139aec",
        "offsets": "f2a3921727e6044b3350eb8507ae20ff0da644a4dd82f30e141f3d8818bfa921",
        "pdg": "79ac6baa262bd931a7ebbdd123acea9e01ee23655e4800bf8e8d7ccbc8e985c0",
        "e": "5481e8594a88b311100038f42748a5cdd232e7ff912af0d87b171c799740ae65",
        "px": "8eea128ee74390fda3e6369a104a5ab89a7062997953eb4d224a3f2f34b8891b",
        "py": "b42b5da1914ffe7ffc6dcfd335ad501a1ec141861f1e8c81c4abd4b71add5439",
        "pz": "caefe6f46ac6688d3c290ddf2298adccb2428d9c9b2d58106dbcc0e4ee9cbee6",
    }),
    ({"kind": "ilc", "seed": 7}, 0, 1000, {
        "event_ids": "702746827e553786bb026ac120cb58745fef3d3f554c33891809001cc37639f0",
        "process": "b1b1629321f2d9a7fe38476b8e5a28ffa031a861bf0397d076df5fb0bec6e881",
        "weights": "e4190bf93e24bcf8e8861a8901d31a4f22c435c951faa399ade31357df139aec",
        "offsets": "864ddbd9ae9b9decdc4aade4c9368e8a35509a3e5acf5ee3aad83241f7c84f73",
        "pdg": "87a56613ccfe7dd88f3306e0cc2d0fb592ad015d99b438675ef765eb2d20ad07",
        "e": "f7169b0d9807cbd492f4de3ca0528bb21c7ef660c5752f60cf347a3f22ebb2b4",
        "px": "224f3bef353c9199ad1be963ef835fb7dda5f68372da2e806ed8f93e0cf8ade8",
        "py": "8d6e392393deb40ac423313fafae2f862d9a05b6a0841c13d0aa65decd55a0ea",
        "pz": "7f887210e138a8d9b5f8b9b59fd5a1f6bc6615e162c9fce81f5db4b09a3f8645",
    }),
    ({"kind": "ilc", "seed": 7, "signal_fraction": 0.0}, 0, 1000, {
        "event_ids": "702746827e553786bb026ac120cb58745fef3d3f554c33891809001cc37639f0",
        "process": "ffab66aa82c92d0f5806aee09c6a34d862659f387c4fb2605a34873d7f1119ec",
        "weights": "e4190bf93e24bcf8e8861a8901d31a4f22c435c951faa399ade31357df139aec",
        "offsets": "78a7c190618ec475eaece4b9bd2c26c0ddb8b9ba5605783171a55e3c0b933207",
        "pdg": "7ca82ae84429b483689da0ac3d1bddef64bfdf43ce52e5ba48095ee50ee7d2dd",
        "e": "8a576a7974459a59978deeb8056ad59b915b90c624c49f3356771ce10810063e",
        "px": "051cd81517f099c6ce230a6d11fd7b84fc76161142087788063b05d61233c234",
        "py": "d05d8b230d4cd6b6acbcbf3294920d4364676de76547ec7ae3c929af8d190100",
        "pz": "1a3130e1f7e156980c626a33149dee8429ff7916931dce4229e5df970b93fa60",
    }),
    ({"kind": "ilc", "seed": 7, "signal_fraction": 1.0}, 0, 1000, {
        "event_ids": "702746827e553786bb026ac120cb58745fef3d3f554c33891809001cc37639f0",
        "process": "2da42fb1d7bd8524e83d5a1e332bad697c8769ba430770a19bec630eb8ffcaa8",
        "weights": "e4190bf93e24bcf8e8861a8901d31a4f22c435c951faa399ade31357df139aec",
        "offsets": "f2a3921727e6044b3350eb8507ae20ff0da644a4dd82f30e141f3d8818bfa921",
        "pdg": "79ac6baa262bd931a7ebbdd123acea9e01ee23655e4800bf8e8d7ccbc8e985c0",
        "e": "f4dfbe453944e850ec7db441457dd5088f1e8e12664a95c6f0a0b01c62b222b0",
        "px": "05057c763ff3e55e4f5aa46d29b0c4f2497aece87d48dab310047892d7628e20",
        "py": "7eea58fea304007bbaaabc0e15c3c6196f7c657d1277620558de58d71ccebd36",
        "pz": "5db9217252556214f042593e5319c45c4177b0ccb41e10c3352e067fe6765f9c",
    }),
    ({"kind": "ilc", "seed": 123}, 0, 1000, {
        "event_ids": "702746827e553786bb026ac120cb58745fef3d3f554c33891809001cc37639f0",
        "process": "8c701cc03b95f786acb5a9b5f3fa6ac6f8ab78df51b97d79eddaafe20b2e630a",
        "weights": "e4190bf93e24bcf8e8861a8901d31a4f22c435c951faa399ade31357df139aec",
        "offsets": "51fca529fe72c147fd2a1cb561783ee3d63d583ed8ab9db3aa8399326c7cd414",
        "pdg": "3c2e3f8b1a23cdcaffe3f65e59ba00b7b63ff6375ca7c6d53ff9cbfa81a4d1c0",
        "e": "a4d9d507e0de36dca3c733b08d004cdd64071bbb00de60f0fa61b3f43fd9c48f",
        "px": "f48256b69fc6fbc0580d586f87ff4cd1888b2df9cecdc74080925548cf5f681b",
        "py": "107b1c3e40b4bde1884b368851e9b0bef3b5c40f30742d091ac794ff34de46b6",
        "pz": "cd5a88c47c71d5fbfa3cd7feb1d229a916fb34a89e8c5680eb97216e06729eb6",
    }),
    ({"kind": "ilc", "seed": 123, "signal_fraction": 0.0}, 0, 1000, {
        "event_ids": "702746827e553786bb026ac120cb58745fef3d3f554c33891809001cc37639f0",
        "process": "e58a10744097e78b003fa9f3387857fe1e48f47d080ff604a8b743be456ce600",
        "weights": "e4190bf93e24bcf8e8861a8901d31a4f22c435c951faa399ade31357df139aec",
        "offsets": "bf629f84337632f9c6f89db4ed77637d5cf8437e967dc81ac8cb37c9bf113937",
        "pdg": "992a653db8d841aa2b66a1e58799616bee2d1d1852ed46e507ecdac67421ec07",
        "e": "a6ea24aebe2711730fa7b8c60de79271b806146e11a796bcf81fbf5b6be1af7a",
        "px": "3e462eb6d2c64ec8d75c2514445fb1626285c520a7b98ac5d2e2dde4bfe649fa",
        "py": "f86be4a43be0f39dbb7b836a16d2c33a2c5d79e393ecc2942d7fec1e9b2663e1",
        "pz": "77a55cdd1cf52e0b30eb7469aa9c07a4ccfe21b869772f141ca91e11444df5ef",
    }),
    ({"kind": "ilc", "seed": 123, "signal_fraction": 1.0}, 0, 1000, {
        "event_ids": "702746827e553786bb026ac120cb58745fef3d3f554c33891809001cc37639f0",
        "process": "2da42fb1d7bd8524e83d5a1e332bad697c8769ba430770a19bec630eb8ffcaa8",
        "weights": "e4190bf93e24bcf8e8861a8901d31a4f22c435c951faa399ade31357df139aec",
        "offsets": "f2a3921727e6044b3350eb8507ae20ff0da644a4dd82f30e141f3d8818bfa921",
        "pdg": "79ac6baa262bd931a7ebbdd123acea9e01ee23655e4800bf8e8d7ccbc8e985c0",
        "e": "6813c956953944ee83aca84ba748945d82d2730c6ff195973d42804d4d27e80c",
        "px": "f328e04460c0b0551e8f29fcb3c0bc9329bf1545290f7c626e44d982aa620b93",
        "py": "08a5a8b33a3ae53de9340a831f45f2a56f10cf53870704217c415aa0345739ef",
        "pz": "f10d21d05010f4cb38d864c292827deb235d9d820aae9e14e8713fb1f390301f",
    }),
    ({"kind": "ilc", "seed": 7}, BLOCK_EVENTS - 50, BLOCK_EVENTS + 50, {
        "event_ids": "0c65bc9b680cb3e6e5faa08b444d4970f2080eca013dfd5e8341d6a69fcd8064",
        "process": "77426b2fc0702897cdf0f0fcce47c04b335467e3f33382d5e09b33a37110adc6",
        "weights": "c08966543ff025ba74e2ce4905181ba53ce3d9dd1aa5508025efd7fcc60f8017",
        "offsets": "54b004eff0d7be640a06b341c5be99313bffa7ba88932ba782f09c62e95249fb",
        "pdg": "4d868003e51fe350b45fe4e68730a0d16ab93543c2f15b9683b2d6b8f50de21d",
        "e": "fb04c1fa9fef9485990a3d6e176f2d1ba10aac0afb765c9cf6ea4d60fcedd236",
        "px": "f744fc8f3b4cf4a8d1db66c2e2c63dba7951ab031ac6f68a560e3459f038ba03",
        "py": "cb08b2b39bc7e433dad227e31d45a7835ab56eb49aba8f273c200171ea9280cb",
        "pz": "3f00e9e21f199deb3931a9fc5b02d2da67f70c0edcf2b7638d50ac10e315019d",
    }),
    ({"kind": "trading", "seed": 5}, 100, 300, {
        "event_ids": "43645d4e07713dc8937653c94d75c84f3ce88720b7afb263efa40d73ae6c64f3",
        "process": "7a12e561363385e9dfeeab326368731c030ed4b374e7f5897ac819159d2884c5",
        "weights": "e4d8a08d6fb2ee488fc41301bff7a9074c1920cc87210c50d9d15e77f8b1203f",
        "offsets": "85494462ee583f809a64cd097da9170244880b8bf712406d0b538f953360d26d",
        "pdg": "c87fe94a3eda3d3f14484784e54e16d11bd4e86b5f82acdf94eff125bf7e98c1",
        "e": "b98a83e2b5db8d916f7408d2a751c7fc9afd2e668355498bb77a38a5694f8d67",
        "px": "b47c45b6dc7e11c9f260c7053b7d94ea9875ce1a73479c1a462a89cab2342a97",
        "py": "f8c784aa6b57396e7c5e094c34d079d8252473e46e2f60593a921dbebf941fcc",
        "pz": "f8c784aa6b57396e7c5e094c34d079d8252473e46e2f60593a921dbebf941fcc",
    }),
]


@pytest.mark.parametrize(
    "content,start,stop,digests",
    GOLDEN_CONTENT,
    ids=[f"{c['kind']}-{c['seed']}-{c.get('signal_fraction')}-{lo}"
         for c, lo, _, _ in GOLDEN_CONTENT],
)
def test_content_store_golden_digests(content, start, stop, digests):
    batch = ContentStore().events_for(content, start, stop)
    assert len(batch) == stop - start
    actual = {
        name: hashlib.sha256(getattr(batch, name).tobytes()).hexdigest()
        for name in _BATCH_ARRAYS
    }
    assert actual == digests


def _permute_reference(batch, perm):
    """Per-event reordering, one event's particles at a time."""
    records = []
    for src in perm:
        event = batch.event(int(src))
        particles = list(zip(event.pdg, event.e, event.px, event.py, event.pz))
        records.append((event.event_id, event.process, event.weight, particles))
    return EventBatch.from_events(records)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_permute_batch_matches_per_event_reference(seed):
    rng = np.random.default_rng(seed)
    n = 200
    counts = rng.integers(0, 6, size=n)
    counts[:3] = 0  # leading, and a run of, empty events
    counts[-1] = 0
    offsets = np.concatenate([[0], np.cumsum(counts)])
    m = int(offsets[-1])
    batch = EventBatch(
        np.arange(n) + 100,
        rng.integers(0, 4, size=n),
        rng.uniform(0.5, 2.0, size=n),
        offsets,
        rng.integers(-20, 100, size=m),
        rng.normal(size=m),
        rng.normal(size=m),
        rng.normal(size=m),
        rng.normal(size=m),
    )
    perm = rng.permutation(n)
    permuted = _permute_batch(batch, perm)
    expected = _permute_reference(batch, perm)
    for name in _BATCH_ARRAYS:
        actual_array = getattr(permuted, name)
        expected_array = getattr(expected, name)
        assert actual_array.dtype == expected_array.dtype, name
        assert np.array_equal(actual_array, expected_array), name
