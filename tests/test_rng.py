"""Seed derivation: stability, replayability, substream independence."""

import numpy as np

from qbcsim import rng as streams
from qbcsim.kernel import BLOCK_TRIALS


def test_derivation_is_stable():
    # Frozen values: the derivation must never change, or every seeded
    # experiment in the wild silently changes with it.
    assert streams.derive_seed(0) == 4066689987807800415
    assert streams.derive_seed(12345, "bob-prepare") == 14364373589307194028
    assert streams.derive_seed(2024, 3, 17) == 17044459236343154442
    assert streams.derive_seed(2**64 - 1, "adversary") == 17830963011044050215


def test_labels_change_the_stream():
    master = 99
    seen = {
        streams.derive_seed(master, label)
        for label in (streams.PREPARE, streams.BASES, streams.MEASURE,
                      streams.ERROR, streams.ADVERSARY, streams.COMMITTED_BIT)
    }
    assert len(seen) == 6


def test_label_path_not_concatenation():
    assert streams.derive_seed(1, "a", 1) != streams.derive_seed(1, "a1")
    assert streams.derive_seed(1, "a", "b") != streams.derive_seed(1, "ab")


def test_integer_labels_index_cells_and_trials():
    grid = {streams.derive_seed(7, c, t) for c in range(10) for t in range(10)}
    assert len(grid) == 100


def test_substream_replayability():
    one = streams.substream(5, "x").integers(0, 2, size=100)
    two = streams.substream(5, "x").integers(0, 2, size=100)
    assert np.array_equal(one, two)


def test_substreams_are_independent_of_sibling_consumption():
    # Consuming one substream never shifts another.
    a1 = streams.substream(5, "a")
    _ = a1.integers(0, 2, size=1000)
    b_after = streams.substream(5, "b").integers(0, 2, size=50)
    b_fresh = streams.substream(5, "b").integers(0, 2, size=50)
    assert np.array_equal(b_after, b_fresh)


LABELS = (streams.PREPARE, streams.BASES, streams.MEASURE, streams.ERROR,
          streams.ADVERSARY, streams.COMMITTED_BIT)
EDGE_MASTERS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


def _masters():
    draws = np.random.default_rng(31337).integers(0, 2**64, size=200, dtype=np.uint64)
    return list(EDGE_MASTERS) + [int(m) for m in draws]


def test_seed_state_words_equal_seed_sequence():
    seeds = [streams.derive_seed(m, label) for m in _masters() for label in LABELS]
    seeds += list(EDGE_MASTERS)
    words = streams.seed_state_words(np.array(seeds, dtype=np.uint64))
    expected = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds]
    assert words.dtype == np.uint64
    assert np.array_equal(words, np.array(expected))


def test_substream_batch_equals_substream():
    # The batch's raw words read as the generator's integers and doubles.
    masters = _masters()
    batch = streams.SubstreamBatch(masters, LABELS)
    for label in LABELS:
        raw = batch.raw(label, 8)
        for t, master in enumerate(masters):
            coins = streams.substream(master, label).integers(0, 2, size=8)
            doubles = streams.substream(master, label).random(8)
            assert np.array_equal(streams.top_bits(raw[t, :4], 8, 1), coins), (master, label)
            assert np.array_equal((raw[t] >> np.uint64(11)) * 2.0**-53, doubles), (master, label)


def test_substream_batch_raw_equals_random_raw():
    # Counts on both sides of the crossover: computed, then filled per trial,
    # up to the 2048 words a stream reads at n = 4096.
    masters = _masters()
    batch = streams.SubstreamBatch(masters, LABELS)
    crossover = streams.RAW_OUTPUTS_CROSSOVER
    for count in (0, 1, 2, crossover, crossover + 1, 2048):
        for label in LABELS:
            want = [streams.substream(m, label).bit_generator.random_raw(count)
                    for m in masters]
            got = batch.raw(label, count)
            assert got.dtype == np.uint64
            assert np.array_equal(got, np.array(want, dtype=np.uint64)), (count, label)
            assert np.array_equal(batch.raw(label, count, slice(3, 7)), got[3:7])


def test_trial_seeds_equal_derive_seed():
    # An attack's path is (seed,), a sweep's (master_seed, cell_index); t spans
    # two of the kernel's seeding blocks.
    for path in ((0,), (2**64 - 1,), (2024, 3), (7, "cell")):
        got = list(streams.trial_seeds(path, BLOCK_TRIALS + 37))
        assert got == [streams.derive_seed(*path, t) for t in range(BLOCK_TRIALS + 37)], path
