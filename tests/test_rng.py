"""Seed derivation: stability, replayability, substream independence, and
stream contract 3's seeding pinned to numpy's own ``SeedSequence``."""

import numpy as np
import pytest

from qbcsim import rng as streams
from qbcsim.kernel import BLOCK_TRIALS


def test_derivation_is_stable():
    # Frozen values: the derivation must never change, or every seeded
    # experiment in the wild silently changes with it.
    assert streams.derive_seed(0) == 15793235383387715774
    assert streams.derive_seed(12345, streams.PREPARE) == 13729193726644583001
    assert streams.derive_seed(2024, 3, 17) == 6477054096243638525
    assert streams.derive_seed(2**64 - 1, streams.ADVERSARY) == 6757517641186021383
    assert streams.substream(2024, streams.MEASURE).bit_generator.random_raw(2).tolist() == [
        16992983215912844106, 2389580650106056743]


def test_labels_are_fixed_spawn_key_words():
    assert (streams.PREPARE, streams.BASES, streams.MEASURE, streams.ERROR,
            streams.ADVERSARY, streams.COMMITTED_BIT) == tuple(range(6))


def test_labels_change_the_stream():
    master = 99
    seen = {
        streams.derive_seed(master, label)
        for label in (streams.PREPARE, streams.BASES, streams.MEASURE,
                      streams.ERROR, streams.ADVERSARY, streams.COMMITTED_BIT)
    }
    assert len(seen) == 6


def test_label_path_not_concatenation():
    assert streams.derive_seed(1, 1, 2) != streams.derive_seed(1, 12)
    assert streams.derive_seed(1, 1, 2) != streams.derive_seed(1, 2, 1)
    assert streams.derive_seed(1, 0) != streams.derive_seed(1)


def test_integer_labels_index_cells_and_trials():
    grid = {streams.derive_seed(7, c, t) for c in range(10) for t in range(10)}
    assert len(grid) == 100


def test_substream_replayability():
    one = streams.substream(5, 7).integers(0, 2, size=100)
    two = streams.substream(5, 7).integers(0, 2, size=100)
    assert np.array_equal(one, two)


def test_substreams_are_independent_of_sibling_consumption():
    # Consuming one substream never shifts another.
    a1 = streams.substream(5, 0)
    _ = a1.integers(0, 2, size=1000)
    b_after = streams.substream(5, 1).integers(0, 2, size=50)
    b_fresh = streams.substream(5, 1).integers(0, 2, size=50)
    assert np.array_equal(b_after, b_fresh)


LABELS = (streams.PREPARE, streams.BASES, streams.MEASURE, streams.ERROR,
          streams.ADVERSARY, streams.COMMITTED_BIT)
EDGE_MASTERS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


def _masters():
    draws = np.random.default_rng(31337).integers(0, 2**64, size=200, dtype=np.uint64)
    return list(EDGE_MASTERS) + [int(m) for m in draws]


def _seed_sequence(master, *key, words=4):
    return np.random.SeedSequence(master, spawn_key=key).generate_state(words, np.uint64)


def test_derive_seed_and_substream_are_numpys_seed_sequence():
    for master in _masters():
        for path in ((), (streams.ERROR,), (2**32 - 1, BLOCK_TRIALS + 5)):
            assert streams.derive_seed(master, *path) == _seed_sequence(master, *path, words=1)[0]
        for label in LABELS:
            state = streams.substream(master, label).bit_generator.state["state"]
            reference = np.random.PCG64(np.random.SeedSequence(master, spawn_key=(label,)))
            assert state == reference.state["state"], (master, label)


def test_seed_state_words_equal_seed_sequence():
    # Without a key, with each label as a (labels x 1) key over the seeds,
    # and with two key words, the second broadcast.
    masters = _masters()
    seeds = np.array(masters, dtype=np.uint64)
    words = streams.seed_state_words(seeds, [])
    assert words.dtype == np.uint64
    assert np.array_equal(words, [_seed_sequence(m) for m in masters])
    labelled = streams.seed_state_words(seeds, [np.array(LABELS, dtype=np.uint32)[:, None]])
    assert np.array_equal(labelled, [[_seed_sequence(m, label) for m in masters]
                                     for label in LABELS])
    trials = np.array([0, 1, BLOCK_TRIALS, 2**32 - 1], dtype=np.uint32)
    for cell in (0, 5, 2**32 - 1):
        two = streams.seed_state_words(seeds[:, None], [cell, trials], 1)
        assert np.array_equal(two, [[_seed_sequence(m, cell, int(t), words=1) for t in trials]
                                    for m in masters]), cell


def test_substream_batch_equals_substream():
    # The batch's raw words read as the generator's integers and doubles.
    masters = _masters()
    batch = streams.SubstreamBatch(masters)
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
    batch = streams.SubstreamBatch(masters)
    crossover = streams.RAW_OUTPUTS_CROSSOVER
    for count in (0, 1, 2, crossover, crossover + 1, 2048):
        for label in LABELS:
            want = [streams.substream(m, label).bit_generator.random_raw(count)
                    for m in masters]
            got = batch.raw(label, count)
            assert got.dtype == np.uint64
            assert np.array_equal(got, np.array(want, dtype=np.uint64)), (count, label)
            assert np.array_equal(batch.raw(label, count, slice(3, 7)), got[3:7])


#: State words that push ``raw_outputs``' partial sums to their bounds:
#: all-ones words, zeros, 2**63, 32-bit all-ones limbs, and all-ones and
#: zero words mixed.
CARRY_EDGE_WORDS = np.array([[2**64 - 1] * 4, [0] * 4, [2**63] * 4, [2**32 - 1] * 4,
                             [2**64 - 1 - (2**32 - 1)] * 4, [2**64 - 1, 0, 2**64 - 1, 0],
                             [0, 2**64 - 1, 0, 2**64 - 1], [2**64 - 1, 2**64 - 1, 0, 0],
                             [0, 0, 2**64 - 1, 2**64 - 1]], dtype=np.uint64)


def test_raw_outputs_equal_random_raw_on_carry_edge_words():
    for count in range(streams.RAW_OUTPUTS_CROSSOVER + 2):
        got = streams.raw_outputs(CARRY_EDGE_WORDS, count)
        for row, words in zip(got, CARRY_EDGE_WORDS):
            want = np.random.PCG64(streams._StateWords(words)).random_raw(count)
            assert np.array_equal(row, want), (count, words.tolist())


def test_trial_seeds_equal_derive_seed():
    # An attack's path is (seed,), a sweep's (master_seed, cell_index); t spans
    # two of the kernel's seeding blocks, and the cell word its whole range.
    trials = 2 * BLOCK_TRIALS + 37
    paths = [(m,) for m in EDGE_MASTERS] + [(m, c) for m in EDGE_MASTERS
                                            for c in (0, 3, 2**31, 2**32 - 1)]
    for path in paths + [(m, 7) for m in _masters()[len(EDGE_MASTERS):]]:
        got = streams.trial_seeds(path, trials)
        assert got.dtype == np.uint64 and len(got) == trials
        ts = range(trials) if len(path) == 2 and path[1] == 3 else (0, 1, BLOCK_TRIALS,
                                                                       trials - 1)
        assert [int(got[t]) for t in ts] == [streams.derive_seed(*path, t) for t in ts], path
    assert len(streams.trial_seeds((1,), 0)) == 0


def test_trial_seeds_reach_trial_word_2_to_the_32_minus_1(monkeypatch):
    # In pieces of 4 trials (the real piece is 65 536): pieces join in order,
    # and a trial word at the top of its uint32 range derives as numpy does.
    monkeypatch.setattr(streams, "_SEED_PIECE", 4)
    got = streams.trial_seeds((2024, 3), 11)
    assert got.tolist() == [streams.derive_seed(2024, 3, t) for t in range(11)]
    top = streams.seed_state_words(np.array([2024], dtype=np.uint64),
                                   [3, np.array([2**32 - 1], dtype=np.uint32)], 1)
    assert int(top[0, 0]) == streams.derive_seed(2024, 3, 2**32 - 1)


def test_check_seed_refuses_what_is_not_a_64_bit_integer():
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(5)):
        streams.check_seed("seed", seed)
    for seed in (-1, 2**64, 1.0, "3", None):
        with pytest.raises(ValueError) as refused:
            streams.check_seed("seed", seed)
        assert str(refused.value) == f"seed must be an integer in [0, 2**64), got {seed!r}"
