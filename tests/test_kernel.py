"""The trial kernel: draw-for-draw agreement with the role functions, and the
frozen stream contract of sweep reports."""

import hashlib
import math
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

from qbcsim import kernel
from qbcsim import rng as streams
from qbcsim.adversary import RebindStrategy, alice_rebind_attack, bob_preunveil_guess
from qbcsim.channel import measure_rows, split_states
from qbcsim.harness import SweepMode, SweepSpec, run_sweep, write_report
from qbcsim.kernel import BLOCK_TRIALS, CHUNK_ELEMENTS, run_sessions, run_trials
from qbcsim.protocol import (
    ERROR_MODES,
    Decision,
    DecisionPolicy,
    SessionConfig,
    masked_count,
    raw_correlations,
    run_commit_phase,
    score_and_decide,
    unveil,
)
from qbcsim.rng import mask_words, read_mask
from qbcsim.stats import binomial_ci

POLICIES = {"default": DecisionPolicy(), "min_sift3": DecisionPolicy(min_sift=3)}
MODES = (
    ("honest", None),
    ("preunveil", None),
    ("binding", "honest-bases"),
    ("binding", "flip-all-bases"),
    ("binding", "random-lies:0"),
    ("binding", "random-lies:0.1"),
    ("binding", "random-lies:0.5"),
    ("binding", "random-lies:1"),
)


def _role_functions(seeds, n, e, noise, mode, strategy, policy):
    """The kernel's trials, composed from the public role functions."""
    successes = 0
    tallies = Counter()
    for seed in seeds:
        bit = int(streams.substream(seed, streams.COMMITTED_BIT).integers(0, 2))
        config = SessionConfig(n=n, committed_bit=bit, error_fraction=e,
                               noise_rate=noise, seed=seed, policy=policy)
        seq, record, mask, commitment = run_commit_phase(config)
        if mode == "honest":
            _score, decision = score_and_decide(seq, commitment, unveil(record), policy)
            successes += round(raw_correlations(seq.bits, commitment)[bit] * n)
            tallies[decision] += 1
            continue
        adversary = streams.substream(seed, streams.ADVERSARY)
        if mode == "preunveil":
            guess = bob_preunveil_guess(seq.bits, commitment, adversary)
            successes += guess.guessed_bit == bit
            tallies[Decision.BIT1 if guess.guessed_bit else Decision.BIT0] += 1
            continue
        lying = alice_rebind_attack(record, mask, commitment, bit, strategy, adversary)
        _score, decision = score_and_decide(seq, commitment, lying, policy)
        successes += decision is (Decision.BIT1 if bit == 0 else Decision.BIT0)
        tallies[decision] += 1
    return successes, tallies


def _own_mask(seed, n, k, mode):
    """``read_mask`` on the words of the trial's own ERROR substream."""
    raw = streams.substream(seed, streams.ERROR).bit_generator.random_raw(mask_words(n, k, mode))
    return read_mask(raw, n, k, mode)


#: n = 128 reads 64 words per stream, at ``RAW_OUTPUTS_CROSSOVER``, and its
#: noisy MEASURE stream 192; n = 130 reads 65.  The masks read 2 (n = 1,
#: e = 1) to 1,024 ERROR words.
KERNEL_GRID_N = (0, 1, 17, 128, 130, 256, 1024)
KERNEL_GRID_E = (0.0, 0.3, 1.0)


def test_kernel_grid_straddles_both_crossovers():
    # The crossover of the streams' reads and that of the masks' reads.
    words = {(n + 1) // 2 for n in KERNEL_GRID_N}
    assert min(words) <= streams.RAW_OUTPUTS_CROSSOVER < max(words)
    masks = {mask_words(n, masked_count(e, n), "randomize") for n in KERNEL_GRID_N
             for e in KERNEL_GRID_E if masked_count(e, n)}
    assert min(masks) <= streams.RAW_OUTPUTS_CROSSOVER < max(masks)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("mode,strategy", MODES)
def test_kernel_tallies_equal_the_role_functions(mode, strategy, policy):
    strategy = strategy and RebindStrategy.parse(strategy)
    for cell, (n, e, noise) in enumerate(product(KERNEL_GRID_N, KERNEL_GRID_E, (0.0, 0.1))):
        seeds = [streams.derive_seed(2718, cell, t) for t in range(8)]
        args = (n, e, noise, mode, strategy, POLICIES[policy])
        assert run_trials(seeds, *args) == _role_functions(seeds, *args), (n, e, noise)


@pytest.mark.parametrize("mode,strategy", (("preunveil", None),
                                           ("binding", "random-lies:0.5")))
def test_kernel_equals_the_role_functions_across_seeding_blocks(mode, strategy):
    # More trials than one seeding block, with an uneven last block.
    strategy = strategy and RebindStrategy.parse(strategy)
    seeds = [streams.derive_seed(1618, t) for t in range(BLOCK_TRIALS + 37)]
    args = (8, 0.3, 0.1, mode, strategy, DecisionPolicy())
    assert run_trials(seeds, *args) == _role_functions(seeds, *args)
    assert run_trials(iter(seeds), *args) == run_trials(seeds, *args)


@pytest.mark.parametrize("mode,strategy", MODES)
def test_kernel_equals_the_role_functions_across_chunks(mode, strategy):
    # At n = 4096 a chunk holds CHUNK_ELEMENTS // 4096 trials: 37 trials make
    # several chunks and an uneven last one.
    assert 37 % (CHUNK_ELEMENTS // 4096) and 37 > 2 * CHUNK_ELEMENTS // 4096
    strategy = strategy and RebindStrategy.parse(strategy)
    seeds = [streams.derive_seed(4096, t) for t in range(37)]
    for e in (0.0, 0.5):
        args = (4096, e, 0.1, mode, strategy, DecisionPolicy())
        assert run_trials(seeds, *args) == _role_functions(seeds, *args), e


@pytest.mark.parametrize("chunk_elements", (1, 2**30))
@pytest.mark.parametrize("mode,strategy", MODES)
def test_chunk_size_changes_no_result(mode, strategy, chunk_elements, monkeypatch):
    # Blocks of 16 trials: one-row or whole-block chunks across two block
    # boundaries and an uneven last block, against the real constants.
    strategy = strategy and RebindStrategy.parse(strategy)
    seeds = [streams.derive_seed(577, t) for t in range(2 * 16 + 5)]
    for n, e, noise in ((0, 0.0, 0.0), (16, 0.5, 0.1), (257, 0.3, 0.0)):
        args = (n, e, noise, mode, strategy, DecisionPolicy(min_sift=3))
        want = run_trials(seeds, *args)
        with monkeypatch.context() as patched:
            patched.setattr(kernel, "BLOCK_TRIALS", 16)
            patched.setattr(kernel, "CHUNK_ELEMENTS", chunk_elements)
            assert run_trials(seeds, *args) == want, (n, e, noise)


def _role_sessions(seeds, n, e, noise, policy, bit, error_mode):
    """Each honest session's (sift, direct, reverse, raw direct, raw reverse,
    verdict), composed from the public role functions."""
    rows = []
    for seed in seeds:
        config = SessionConfig(n=n, committed_bit=bit, error_fraction=e, noise_rate=noise,
                               seed=seed, policy=policy, error_mode=error_mode)
        seq, record, _mask, commitment = run_commit_phase(config)
        score, decision = score_and_decide(seq, commitment, unveil(record), policy)
        raw = [round(fraction * n) for fraction in raw_correlations(seq.bits, commitment)]
        rows.append((score.sift_size, score.direct_matches, score.reverse_matches, *raw, decision))
    return rows


def _assert_sessions_equal_the_role_functions(seeds, n, e, noise, bit, error_mode,
                                              policy=DecisionPolicy(min_sift=3)):
    bits, scores = run_sessions(seeds, n, e, noise, policy, bit, error_mode)
    assert bits.tolist() == [bit] * len(seeds)
    got = [tuple(row) for row in zip(*(field.tolist() for field in scores))]
    assert got == _role_sessions(seeds, n, e, noise, policy, bit, error_mode), (n, e, noise)


@pytest.mark.parametrize("error_mode", ERROR_MODES)
@pytest.mark.parametrize("bit", (0, 1))
def test_sessions_equal_the_role_functions_trial_by_trial(bit, error_mode):
    for cell, (n, e, noise) in enumerate(product(KERNEL_GRID_N, KERNEL_GRID_E, (0.0, 0.1))):
        seeds = [streams.derive_seed(3141, cell, t) for t in range(4)]
        _assert_sessions_equal_the_role_functions(seeds, n, e, noise, bit, error_mode)


@pytest.mark.parametrize("error_mode", ERROR_MODES)
@pytest.mark.parametrize("bit", (0, 1))
def test_sessions_equal_the_role_functions_on_masks_tied_at_the_kth_key(bit, error_mode):
    # Sessions whose mask threshold ties at the k-th key (``TIED_MASKS``).
    for seed, k in TIED_MASKS:
        seeds = [streams.derive_seed(98, 0), seed, streams.derive_seed(98, 1)]
        _assert_sessions_equal_the_role_functions(seeds, 256, k / 256, 0.1, bit, error_mode)


@pytest.mark.parametrize("k", (10_001 // 50, 10_001 // 50 + 1))
def test_large_odd_n_flip_sessions_masked_a_row_a_piece(k):
    # Large odd-n flip sessions, masked one row per piece (5,001 words a row),
    # at k = n // 50 and one above.
    e = k / 10_001
    assert masked_count(e, 10_001) == k
    seeds = [streams.derive_seed(10_001, k, t) for t in range(2)]
    for bit in (0, 1):
        _assert_sessions_equal_the_role_functions(seeds, 10_001, e, 0.0, bit, "flip")


def test_drawn_bits_are_the_committed_bit_substreams():
    seeds = [streams.derive_seed(271, t) for t in range(16)]
    bits, scores = run_sessions(seeds, 64, 0.5, 0.1)
    drawn = [int(streams.substream(s, streams.COMMITTED_BIT).integers(0, 2)) for s in seeds]
    assert bits.tolist() == drawn and 0 < sum(drawn) < len(drawn)
    for bit in (0, 1):
        rows = bits == bit
        _bits, given = run_sessions([s for s, b in zip(seeds, drawn) if b == bit], 64, 0.5, 0.1,
                                    bit=bit)
        for field, want in zip(given, scores):
            assert np.array_equal(field, want[rows])


def test_a_row_scores_as_its_row_of_a_block():
    # Honest rows, and rows whose unveil flips every basis: their sift keeps
    # only the positions measured in the other basis, where neither pairing
    # reads better than a coin, so enough of them are cheat-suspected.
    seen, sifts = set(), set()
    for (name, policy), (cell, (n, e, noise)) in product(
            POLICIES.items(), enumerate(product(KERNEL_GRID_N, KERNEL_GRID_E, (0.0, 0.1)))):
        rows = []
        for t in range(4):
            config = SessionConfig(n=n, committed_bit=t % 2, error_fraction=e, noise_rate=noise,
                                   seed=streams.derive_seed(1729, cell, t), policy=policy)
            seq, record, _mask, commitment = run_commit_phase(config)
            unveiled = record.bases ^ 1 if t >= 2 else record.bases
            rows.append((seq.bases, seq.bits, commitment.revealed, unveiled))
        block = [np.stack(column) for column in zip(*rows)]
        scored, raw = kernel.score_rows(*block, policy), kernel.score_rows(*block[:3], None, policy)
        for i, row in enumerate(rows):
            for unveiled, want in ((row[3], scored), (None, raw)):
                got = kernel.score_rows(*row[:3], unveiled, policy)
                for field, value in zip(got._fields[:-1], got[:-1]):
                    if unveiled is None and field in ("sift", "direct", "reverse"):
                        assert value is None and getattr(want, field) is None
                    else:
                        assert type(value) is int, (field, n, e, noise, i)
                        assert value == getattr(want, field)[i], (field, n, e, noise, i)
                if unveiled is None:
                    assert got.decisions is None and want.decisions is None
                    continue
                assert got.decisions is want.decisions[i], (name, n, e, noise, i)
                seen.add(got.decisions)
                sifts.add((got.sift > 0) + (got.sift >= policy.min_sift))
    assert seen == set(Decision)
    # n = 0 sifts nothing; some rows sift fewer than min_sift, some enough.
    assert sifts == {0, 1, 2}


def test_a_row_runs_each_stage_as_its_row_of_a_block():
    # Every stage on a block's (b x n) rows, against the stage on each (n,)
    # row, read off that row's own substreams: both bits, both error modes,
    # with and without noise.  Every row ties at n = 0, and some at n = 1.
    bits, ties = np.arange(8, dtype=np.uint8) % 2, np.arange(8, dtype=np.uint8) // 2 % 2
    error_modes, ties_seen = set(), set()
    for cell, (n, e, noise) in enumerate(product(KERNEL_GRID_N, KERNEL_GRID_E, (0.0, 0.1))):
        k = masked_count(e, n)
        seeds = [streams.derive_seed(3141, cell, t) for t in range(len(bits))]
        batch = streams.SubstreamBatch(seeds)
        codes = streams.top_bits(batch.raw(streams.PREPARE, (n + 1) // 2), n, 2)
        sent_bases, sent_bits = split_states(codes)
        bases = streams.top_bits(batch.raw(streams.BASES, (n + 1) // 2), n, 1)
        measured = measure_rows(sent_bases, sent_bits, bases, noise,
                                lambda count: batch.raw(streams.MEASURE, count))
        for i, seed in enumerate(seeds):
            row_codes = streams.uniform_codes(streams.substream(seed, streams.PREPARE), n, 2)
            row_bases, row_bits = split_states(row_codes)
            assert np.array_equal(row_bases, sent_bases[i]) and np.array_equal(
                row_bits, sent_bits[i]), (n, i)
            measure = streams.substream(seed, streams.MEASURE).bit_generator.random_raw
            row = measure_rows(row_bases, row_bits, bases[i], noise, measure)
            assert np.array_equal(row, measured[i]), (n, noise, i)
        for error_mode in ERROR_MODES:
            revealed = measured.copy()
            if k:
                kernel.mask_rows(revealed, *batch.masks(slice(0, len(seeds)), n, k, error_mode),
                                 error_mode)
            masked = revealed.copy()
            kernel.order_rows(revealed, bits)
            raw = kernel.score_rows(sent_bases, sent_bits, revealed, None, None)
            margins = raw.raw_direct - raw.raw_reverse
            guesses = kernel.early_guess(margins, lambda: ties)
            for i, (seed, bit) in enumerate(zip(seeds, bits.tolist())):
                row = measured[i].copy()
                if k:
                    kernel.mask_rows(row, *_own_mask(seed, n, k, error_mode), error_mode)
                assert np.array_equal(row, masked[i]), (n, e, error_mode, i)
                assert np.array_equal(kernel.order_rows(row, bit), revealed[i]), (n, bit, i)
                drawn = []
                guess = kernel.early_guess(int(margins[i]), lambda: drawn.append(i) or ties[i])
                assert guess == guesses[i] and drawn == ([i] if margins[i] == 0 else []), (n, i)
                ties_seen.add(margins[i] == 0)
            error_modes.add(error_mode if k else None)
    assert error_modes == {None, *ERROR_MODES} and ties_seen == {False, True}


#: (n, k) pairs for the mask: the ends of k, odd n, masks read on both sides
#: of ``RAW_OUTPUTS_CROSSOVER``, and n past 10 000.
MASK_CASES = ((1, 1), (2, 1), (2, 2), (17, 1), (17, 16), (17, 17), (64, 32), (256, 128),
              (255, 254), (4096, 384), (4096, 385), (10_000, 200), (10_000, 201),
              (10_001, 200), (10_001, 201))


@pytest.mark.parametrize("n,k", MASK_CASES)
def test_chunk_masks_equal_read_mask_on_each_trials_words(n, k):
    # Each chunk row's marked row and coins, in both modes, against read_mask
    # on that trial's own ERROR words; a chunk that starts inside the block, too.
    seeds = [streams.derive_seed(n, k, t) for t in range(24)]
    batch = streams.SubstreamBatch(seeds)
    for mode, trials in product(ERROR_MODES, (slice(0, 24), slice(5, 12))):
        b = trials.stop - trials.start
        marked, coins = batch.masks(trials, n, k, mode)
        assert marked.shape == (b, n) and marked.dtype == bool, (n, k, mode)
        for i, seed in enumerate(seeds[trials]):
            want_marked, want_coins = _own_mask(seed, n, k, mode)
            assert np.array_equal(marked[i], want_marked), (n, k, mode, i)
            if mode == "flip":
                assert coins is None and want_coins is None
            else:
                assert np.array_equal(coins[i], want_coins), (n, k, i)


#: (trial seed, k) pairs whose 256 ERROR keys tie at the k-th smallest: the
#: first three trials t of ``derive_seed(16, 2, t)`` that hold two equal keys
#: (about 7.6e-6 of trials do at n = 256), each with k the rank of its tie,
#: found by search under stream contract 3.  No draw rejects since contract
#: 2; what the mask rule rejects is the threshold ``keys <= kth``, which marks
#: k + 1 positions on these rows, and it marks such a row again with the tie
#: going to the lower position.
TIED_MASKS = ((streams.derive_seed(16, 2, 21136), 23), (streams.derive_seed(16, 2, 298160), 195),
              (streams.derive_seed(16, 2, 298532), 127))


def test_masks_tied_at_the_kth_key_go_to_the_lower_positions():
    # The rows against the plain rule, alone and inside a chunk, both modes.
    for seed, k in TIED_MASKS:
        raw = streams.substream(seed, streams.ERROR).bit_generator.random_raw(
            mask_words(256, k, "randomize"))
        keys = raw.view("<u4")[:256]
        assert np.count_nonzero(keys <= np.sort(keys)[k - 1]) == k + 1, seed
        want = sorted(i for _key, i in sorted(zip(keys.tolist(), range(256)))[:k])
        want_coins = (raw[128:].view("<u4")[:k] >> 31).tolist()
        marked, coins = read_mask(raw, 256, k, "randomize")
        assert np.flatnonzero(marked).tolist() == want and coins.tolist() == want_coins, seed
        chunk = [streams.derive_seed(99, 0), seed, streams.derive_seed(99, 1)]
        batch = streams.SubstreamBatch(chunk)
        for mode in ERROR_MODES:
            marked, coins = batch.masks(slice(0, 3), 256, k, mode)
            assert np.flatnonzero(marked[1]).tolist() == want, (seed, mode)
            if mode == "randomize":
                assert coins[1].tolist() == want_coins, seed


@pytest.mark.parametrize("mode,strategy", MODES)
def test_kernel_redraws_rejected_masks(mode, strategy):
    # The kernel's trials against the role functions on ``TIED_MASKS``. The
    # name is stream contract 1's, which redrew masks whose draw rejected;
    # since contract 2 nothing is redrawn.
    strategy = strategy and RebindStrategy.parse(strategy)
    for seed, k in TIED_MASKS:
        seeds = [streams.derive_seed(99, t) for t in range(5)]
        seeds[1:1] = [seed]
        args = (256, k / 256, 0.1, mode, strategy, DecisionPolicy())
        assert masked_count(k / 256, 256) == k
        assert run_trials(seeds, *args) == _role_functions(seeds, *args), seed
        assert run_trials([seed], *args) == _role_functions([seed], *args), seed


#: The exact P(early guess hits) at e = 0.5, no noise: the law of the margin
#: summed over mirror pairs, mixed over the exactly-k masks.
EXACT_PREUNVEIL = ((16, 0.753458), (17, 0.765983))


@pytest.mark.parametrize("n,exact", EXACT_PREUNVEIL)
def test_preunveil_success_matches_the_exact_law(n, exact):
    trials = 100_000
    successes, _ = run_trials(streams.trial_seeds((8128, n), trials), n, 0.5, 0.0, "preunveil")
    interval = binomial_ci(successes, trials, 0.999)
    assert interval.contains(exact), (successes / trials, interval)


def _chi_square_sf(x, df):
    """P(chi-square with odd ``df`` degrees of freedom > x): the regularized
    upper gamma Q(m + 1/2, x/2) in closed form."""
    half = x / 2
    series = sum(half ** (j + 0.5) / math.gamma(j + 1.5) for j in range(df // 2))
    return math.erfc(math.sqrt(half)) + math.exp(-half) * series


def test_mask_subsets_are_uniform():
    # All C(6, 3) = 20 subsets of a chunk's masks, off the trials' own ERROR
    # words, against the uniform law.
    n, k, rows = 6, 3, 200_000
    seeds = list(streams.trial_seeds((6, 3), rows))
    marked, _coins = streams.SubstreamBatch(seeds).masks(
        slice(0, rows), n, k, "randomize")
    subsets = marked @ (1 << np.arange(n))
    counts = np.bincount(subsets, minlength=2**n)[[sum(1 << i for i in c)
                                                  for c in combinations(range(n), k)]]
    assert counts.sum() == rows and counts.min() > 0
    expected = rows / len(counts)
    statistic = float(((counts - expected) ** 2 / expected).sum())
    assert _chi_square_sf(statistic, len(counts) - 1) > 1e-6, counts


@pytest.mark.parametrize("p,schedule", ((0, "honest-bases"), (1, "flip-all-bases")))
def test_random_lies_at_the_ends_equal_the_blind_schedules(p, schedule):
    # p = 0 lies nowhere and draws nothing; p = 1 lies everywhere.
    seeds = [streams.derive_seed(1414, t) for t in range(64)]
    args = (64, 0.3, 0.1, "binding")
    assert (run_trials(seeds, *args, RebindStrategy.parse(f"random-lies:{p}"))
            == run_trials(seeds, *args, RebindStrategy.parse(schedule)))


def test_kernel_committed_bit_is_generator_integers():
    # An honest trial at n = 64 with no masking or noise reads its bit
    # cleanly, so its verdict shows the bit the kernel drew.
    bits = Counter()
    for t in range(64):
        seed = streams.derive_seed(31, t)
        bit = int(streams.substream(seed, streams.COMMITTED_BIT).integers(0, 2))
        _, tallies = run_trials([seed], 64, 0.0, 0.0, "honest")
        assert tallies == Counter({Decision.BIT1 if bit else Decision.BIT0: 1}), seed
        bits[bit] += 1
    assert bits[0] and bits[1]


@pytest.mark.parametrize("mode,strategy,e,drawn", (
    ("honest", None, 0.0, ()),
    ("honest", None, 0.5, (streams.ERROR,)),
    ("preunveil", None, 0.0, (streams.ADVERSARY,)),
    ("binding", "flip-all-bases", 0.0, ()),
    ("binding", "random-lies:0", 0.0, ()),
    ("binding", "random-lies:0.5", 0.0, (streams.ADVERSARY,)),
))
def test_the_kernel_reads_only_the_streams_a_cell_draws(mode, strategy, e, drawn, monkeypatch):
    # Every label is seeded, so an unread stream is seen only by its reads:
    # the coins, the masks and the stages all read through SubstreamBatch.raw.
    read, raw = set(), streams.SubstreamBatch.raw
    def recording(self, label, *args):
        read.add(label)
        return raw(self, label, *args)
    monkeypatch.setattr(streams.SubstreamBatch, "raw", recording)
    stages = {streams.PREPARE, streams.BASES, streams.MEASURE}
    run_trials(range(40), 16, e, 0.0, mode, strategy and RebindStrategy.parse(strategy))
    assert read == stages | {streams.COMMITTED_BIT, *drawn}
    if mode == "honest":
        read.clear()
        run_sessions(range(40), 16, e, 0.0, bit=1)
        assert read == stages | {*drawn}


#: SHA-256 of the CSV report of each sweep below, under stream contract 3
#: (``rng.STREAM_CONTRACT``).  A mismatch means the random streams changed:
#: that must be deliberate, versioned in the report schema and noted in
#: CHANGES.md.
FROZEN_CSV_SHA256 = {
    "honest": "d616a4e2f76159bfc9ea7f3647bf721740f4464738c9b6192a4fb7525ad6656a",
    "preunveil": "2c36302f3010a0879ddb9d88163ac48789d400d7edf966a05678c3ec2e304d07",
    "binding:flip-all-bases":
        "c68381f187edbd9e07213ecd1fae0f6b133b6fdbfa0551b01b36127f06a8155c",
    "binding:random-lies:0.5":
        "3eb43c12b835fe5138d5e5266c000f9c07cbfea7b58d5e92d17773460f1d73d7",
}


@pytest.mark.parametrize("label", sorted(FROZEN_CSV_SHA256))
def test_sweep_reports_keep_the_frozen_streams(label, tmp_path):
    mode, _, strategy = label.partition(":")
    spec = SweepSpec(
        n_values=(0, 1, 17, 64),
        error_fractions=(0.0, 0.3, 1.0),
        noise_rates=(0.0, 0.1),
        trials_per_cell=20,
        master_seed=2024,
        mode=SweepMode(mode),
        strategy=RebindStrategy.parse(strategy or "honest-bases"),
        policy=DecisionPolicy(min_sift=3) if label in ("honest", "binding:random-lies:0.5")
        else DecisionPolicy(),
    )
    path = tmp_path / "report.csv"
    write_report(run_sweep(spec), "csv", path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FROZEN_CSV_SHA256[label]
