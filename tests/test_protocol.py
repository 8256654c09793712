"""Protocol operations: order encoding, sifting, scoring, deciding."""

import re
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbcsim import rng as streams
from qbcsim.channel import PreparedSequence
from qbcsim.harness import SweepSpec
from qbcsim.kernel import decide, run_sessions
from qbcsim.protocol import (
    Commitment,
    Decision,
    ERROR_MODES,
    DecisionPolicy,
    MeasurementRecord,
    SessionConfig,
    choose_random_bases,
    commit,
    inject_errors,
    raw_correlations,
    run_honest_session,
    score_and_decide,
    unveil,
)

bit_lists = st.lists(st.integers(0, 1), max_size=64)

#: The label of a test's own outcomes stream, past the protocol's six.
OUTCOMES = 6


# -- basis choice ------------------------------------------------------------

def test_choose_bases_empty_and_deterministic():
    assert len(choose_random_bases(0, streams.substream(1, streams.BASES))) == 0
    a = choose_random_bases(20, streams.substream(4, streams.BASES))
    b = choose_random_bases(20, streams.substream(4, streams.BASES))
    assert np.array_equal(a, b)


def test_choose_bases_balanced():
    bases = choose_random_bases(100000, streams.substream(12, streams.BASES))
    assert abs(np.mean(bases == 0) - 0.5) < 0.01


# -- error injection ---------------------------------------------------------

def test_inject_zero_fraction_changes_nothing():
    outcomes = streams.substream(3, OUTCOMES).integers(0, 2, size=50).astype(np.uint8)
    masked, mask = inject_errors(outcomes, 0.0, streams.substream(3, streams.ERROR))
    assert np.array_equal(masked, outcomes)
    assert mask.dtype == bool and mask.shape == (50,) and not mask.any()


def test_inject_mask_counts_and_distinct_positions():
    outcomes = np.zeros(1000, dtype=np.uint8)
    for e, expect in ((0.25, 250), (0.5, 500), (1.0, 1000)):
        masked, mask = inject_errors(outcomes, e, streams.substream(7, streams.ERROR, round(e * 100)))
        assert mask.dtype == bool and mask.shape == (1000,)
        assert np.count_nonzero(mask) == expect
        assert np.array_equal(masked[~mask], outcomes[~mask])


def test_inject_half_randomization_leaves_three_quarters_agreement():
    # (1-e)*1 + e*(1/2) with e=1/2 -> 3/4 agreement with the original.
    n = 100000
    reference = streams.substream(21, OUTCOMES).integers(0, 2, size=n).astype(np.uint8)
    masked, _ = inject_errors(reference, 0.5, streams.substream(21, streams.ERROR))
    agreement = np.mean(masked == reference)
    assert abs(agreement - 0.75) < 0.01


def test_inject_full_randomization_is_a_coin():
    n = 100000
    outcomes = streams.substream(22, OUTCOMES).integers(0, 2, size=n).astype(np.uint8)
    masked, mask = inject_errors(outcomes, 1.0, streams.substream(22, streams.ERROR))
    assert np.count_nonzero(mask) == n
    assert abs(np.mean(masked == outcomes) - 0.5) < 0.01


def test_inject_flip_mode_inverts_selected_positions():
    outcomes = streams.substream(23, OUTCOMES).integers(0, 2, size=200).astype(np.uint8)
    masked, mask = inject_errors(outcomes, 0.5, streams.substream(23, streams.ERROR), mode="flip")
    assert np.array_equal(masked != outcomes, mask)
    assert np.count_nonzero(mask) == 100


def _reference_mask(raw, n, k):
    """The mask rule in plain Python: the k smallest (key, position) pairs of
    the raw words' first n 32-bit halves, low half first, then the top bits
    of the k halves from word (n + 1) // 2 on, the j-th for the j-th smallest
    position."""
    halves = [half for word in raw.tolist() for half in (word & 0xFFFFFFFF, word >> 32)]
    positions = sorted(i for _key, i in sorted((halves[i], i) for i in range(n))[:k])
    start = 2 * ((n + 1) // 2)
    return positions, [half >> 31 for half in halves[start:start + k]]


def test_mask_draws_are_the_smallest_keys_then_coins():
    # read_mask and inject_errors in both modes against the plain-Python rule,
    # on the raw words of a twin generator, and the words inject_errors reads.
    for n in (1, 2, 17, 64, 255, 256, 4096, 10_001):
        outcomes = streams.substream(n, OUTCOMES).integers(0, 2, size=n).astype(np.uint8)
        for k in sorted({1, n - 1, n, round(n / 2)} - {0}):
            for rep in range(3):
                path = (n, k, rep)
                words = streams.mask_words(n, k, "randomize")
                raw = streams.substream(*path, streams.ERROR).bit_generator.random_raw(words + 1)
                want_positions, want_coins = _reference_mask(raw[:words], n, k)
                marked, coins = streams.read_mask(raw[:words], n, k, "randomize")
                assert np.flatnonzero(marked).tolist() == want_positions, path
                assert coins.tolist() == want_coins, path  # j-th coin, j-th smallest
                flip = streams.read_mask(raw[:(n + 1) // 2], n, k, "flip")
                assert np.flatnonzero(flip[0]).tolist() == want_positions, path
                assert flip[1] is None, path
                for mode in ERROR_MODES:
                    want = outcomes.copy()
                    want[want_positions] = (want_coins if mode == "randomize"
                                            else want[want_positions] ^ 1)
                    error = streams.substream(*path, streams.ERROR)
                    masked, mask = inject_errors(outcomes, k / n, error, mode)
                    assert np.flatnonzero(mask).tolist() == want_positions, (path, mode)
                    assert np.array_equal(masked, want), (path, mode)
                    read = words if mode == "randomize" else (n + 1) // 2  # no coin words
                    assert error.bit_generator.random_raw() == raw[read], (path, mode)


def test_mask_ties_go_to_the_lower_position():
    # Words whose halves are all equal, or equal in runs: every key ties, and
    # exactly k positions are masked, the lowest of the tied ones.
    n = 9
    words = np.array([7 << 32 | 7] * 5 + [0xFFFFFFFF << 32] * 5, dtype=np.uint64)
    for k in range(1, n + 1):
        marked, coins = streams.read_mask(words, n, k, "randomize")
        assert np.flatnonzero(marked).tolist() == list(range(k)), k
        assert coins.tolist() == ([0, 1] * 5)[:k], k  # low half 0, high half all ones
    runs = np.array([3 << 32 | 3, 1 << 32 | 3, 3 << 32 | 1, 3 << 32 | 3, 0], dtype=np.uint64)
    block = np.stack([runs, words[:5], runs[::-1].copy()])
    for k in range(1, n + 1):
        marked, _coins = streams.read_mask(block, n, k, "flip")
        assert marked.sum(axis=1).tolist() == [k] * 3, k
        for row, words_row in zip(marked, block):
            assert np.flatnonzero(row).tolist() == _reference_mask(words_row, n, k)[0], k


@pytest.mark.parametrize("build,message", (
    (lambda: SessionConfig(n=4, committed_bit=0, error_mode="bogus"),
     "error_mode must be one of ('randomize', 'flip'), got 'bogus'"),
    (lambda: commit([0, 1], 2), "bit must be 0 or 1, got 2"),
    (lambda: SessionConfig(n=4, committed_bit=0, seed=-3),
     "seed must be an integer in [0, 2**64), got -3"),
    (lambda: SessionConfig(n=4, committed_bit=0, seed=2**64),
     "seed must be an integer in [0, 2**64), got 18446744073709551616"),
    (lambda: choose_random_bases(-1, streams.substream(1, streams.BASES)),
     "n must be >= 0, got -1"),
    (lambda: MeasurementRecord(bases=[0, 1], outcomes=[0]), "bases length 2 != outcomes length 1"),
    (lambda: PreparedSequence(bases=[0, 1], bits=[0]), "basis/bit length mismatch: 2 != 1"),
), ids=("session-config", "seed-negative", "seed-too-large", "commit", "choose-bases",
        "measurement-record", "prepared-sequence"))
def test_bad_values_are_named(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


_BITS_RULE = "bit values and basis codes must be 0 or 1, got "


@pytest.mark.parametrize("build,message", (
    # Each once passed as a bit cut to uint8, or raised a bare OverflowError.
    (lambda: commit([0.5, 1.7], 0), _BITS_RULE + "0.5"),
    (lambda: commit(np.array([256, 257, -255]), 0), _BITS_RULE + "256"),
    (lambda: commit([0, 256], 0), _BITS_RULE + "256"),
    (lambda: commit([-1, 0], 0), _BITS_RULE + "-1"),
    (lambda: PreparedSequence(bases=["0"], bits=[0]), _BITS_RULE + "'0'"),
    (lambda: MeasurementRecord(bases=[0, 1], outcomes=[None, 1]), _BITS_RULE + "None"),
    # Each once truncated, accepted, or failed later with a bare TypeError.
    (lambda: SweepSpec(n_values=(2.5,), error_fractions=(0.0,)), "n must be an integer, got 2.5"),
    (lambda: SweepSpec(n_values=(4,), error_fractions=(0.0,), trials_per_cell=2.5),
     "trials must be an integer, got 2.5"),
    (lambda: SessionConfig(n=2.5, committed_bit=0), "n must be an integer, got 2.5"),
    (lambda: SessionConfig(n=4, committed_bit=1.0), "committed_bit must be 0 or 1, got 1.0"),
    (lambda: SessionConfig(n=4, committed_bit=0, noise_rate=None),
     "noise_rate must be in [0, 1], got None"),
    (lambda: DecisionPolicy(min_sift=2.5), "min_sift must be an integer, got 2.5"),
    (lambda: commit([0, 1], 1.0), "bit must be 0 or 1, got 1.0"),
), ids=("float-bits", "wide-ints", "int-256", "int-negative", "str-basis", "none-outcome",
        "sweep-n", "sweep-trials", "config-n", "config-bit", "config-noise", "policy-min-sift",
        "commit-bit"))
def test_non_bits_and_non_integers_are_refused_by_value(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_inject_rejects_bad_inputs():
    with pytest.raises(ValueError):
        inject_errors([0, 1], 1.5, streams.substream(1, streams.ERROR))
    with pytest.raises(ValueError):
        inject_errors([0, 1], 0.5, streams.substream(1, streams.ERROR), mode="bogus")


# -- order encoding ----------------------------------------------------------

def test_commit_examples():
    assert commit([1, 0, 0], 0).revealed.tolist() == [1, 0, 0]
    assert commit([1, 0, 0], 1).revealed.tolist() == [0, 0, 1]
    assert commit([], 0).revealed.tolist() == []
    assert commit([], 1).revealed.tolist() == []


@given(bits=bit_lists)
def test_commit_reverse_is_an_involution(bits):
    once = commit(bits, 1).revealed
    twice = commit(once, 1).revealed
    assert twice.tolist() == bits


@given(bits=bit_lists)
def test_commit_direct_is_identity(bits):
    assert commit(bits, 0).revealed.tolist() == bits


def test_commitment_is_immutable():
    c = commit([1, 0, 1], 0)
    with pytest.raises(ValueError):
        c.revealed[0] = 0


# -- unveiling ---------------------------------------------------------------

def test_unveil_is_always_direct_order():
    record = MeasurementRecord(bases=[0, 1], outcomes=[0, 0])
    assert unveil(record).tolist() == [0, 1]
    record = MeasurementRecord(bases=[], outcomes=[])
    assert unveil(record).tolist() == []
    # Order encoding applies to results only; bases stay direct for bit 1 too.
    record = MeasurementRecord(bases=[1, 1, 0], outcomes=[0, 1, 0])
    assert unveil(record).tolist() == [1, 1, 0]


# -- sifting and scoring (score_and_decide) ------------------------------------

def _score(sent_bases, sent_bits, revealed, unveiled_bases):
    """(sift size, direct matches, reverse matches) of one receiver's score."""
    score, _decision = score_and_decide(
        PreparedSequence(bases=sent_bases, bits=sent_bits),
        Commitment(revealed=revealed),
        unveiled_bases,
        DecisionPolicy(),
    )
    return score.sift_size, score.direct_matches, score.reverse_matches


def _unveiling(sent_bases, sift_set):
    """Unveiled bases that agree with the sent ones exactly on ``sift_set``:
    any subset of positions can be made the sift this way."""
    return [b if i in sift_set else 1 - b for i, b in enumerate(sent_bases)]


def test_sift_examples():
    # Sift {0, 2}: all sent bits 1, revealed [1, 0, 0] -> 1 direct match
    # (position 0), reverse pairs revealed[2 - i]: positions 0 and 2 see 0, 1.
    assert _score([0, 1, 0], [1, 1, 1], [1, 0, 0], [0, 0, 0]) == (2, 1, 1)
    assert _score([1] * 5, [0] * 5, [0] * 5, [1] * 5) == (5, 5, 5)
    with pytest.raises(ValueError, match="length"):
        _score([0, 1], [0, 0], [0, 0], [0])
    with pytest.raises(ValueError, match="length"):
        _score([0, 1], [0, 0], [0], [0, 1])
    # The unveiled basis list is checked as bits where it arrives.
    with pytest.raises(ValueError, match="must be 0 or 1"):
        _score([0, 1], [0, 0], [0, 0], [0, 2])
    with pytest.raises(ValueError, match="1-d"):
        _score([0, 1], [0, 0], [0, 0], [[0, 1]])


def test_sift_size_is_binomial_half():
    n = 100000
    bob = choose_random_bases(n, streams.substream(5, streams.PREPARE))
    alice = choose_random_bases(n, streams.substream(5, streams.BASES))
    size, _direct, _reverse = _score(bob, np.zeros(n), np.zeros(n), alice)
    assert abs(size - 50000) <= 500


@given(
    bob=st.lists(st.integers(0, 1), max_size=32),
    data=st.data(),
)
def test_sift_matches_brute_force(bob, data):
    n = len(bob)
    equal_length = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    alice, sent, revealed = (data.draw(equal_length) for _ in range(3))
    sift_set = {i for i in range(n) if bob[i] == alice[i]}
    assert _score(bob, sent, revealed, alice) == _brute_force_scores(sent, revealed, sift_set)


def _brute_force_scores(sent, revealed, sift_set):
    n = len(sent)
    direct = sum(1 for i in sift_set if revealed[i] == sent[i])
    reverse = sum(1 for i in sift_set if revealed[n - 1 - i] == sent[i])
    return len(sift_set), direct, reverse


def test_alignment_exhaustive_small_cases_and_reversal_symmetry():
    # For every n <= 4, every sent/revealed pair and every sift subset
    # (reached through the unveiled bases): the score matches brute force,
    # and reversing the receiver's bits instead of the committer's gives
    # the identical count.
    for n in range(0, 5):
        positions = list(range(n))
        sent_bases = [i % 2 for i in positions]
        for sent in product((0, 1), repeat=n):
            for revealed in product((0, 1), repeat=n):
                for k in range(n + 1):
                    for subset in combinations(positions, k):
                        size, direct, reverse = _score(
                            sent_bases, sent, revealed, _unveiling(sent_bases, subset)
                        )
                        assert (size, direct, reverse) == _brute_force_scores(
                            sent, revealed, subset
                        )
                        # reverse the other sequence: pair sent[n-1-i] with
                        # revealed[i], anchored on the mirrored sift set
                        mirrored = [n - 1 - i for i in subset]
                        other_way = sum(
                            1 for i in mirrored if revealed[i] == sent[n - 1 - i]
                        )
                        assert other_way == reverse
    # n in {5, 6}: spot-check with random subsets instead of all of them
    rng = np.random.default_rng(77)
    for n in (5, 6):
        for _ in range(300):
            sent_bases = rng.integers(0, 2, n)
            sent = rng.integers(0, 2, n)
            revealed = rng.integers(0, 2, n)
            k = int(rng.integers(0, n + 1))
            subset = set(rng.choice(n, size=k, replace=False).tolist())
            size, direct, reverse = _score(
                sent_bases, sent, revealed, _unveiling(sent_bases.tolist(), subset)
            )
            assert (size, direct, reverse) == \
                _brute_force_scores(sent.tolist(), revealed.tolist(), subset)
            mirrored = [n - 1 - i for i in subset]
            other_way = sum(1 for i in mirrored if revealed[i] == sent[n - 1 - i])
            assert other_way == reverse


def test_honest_alignment_exactness_both_bits():
    for bit in (0, 1):
        config = SessionConfig(n=512, committed_bit=bit, error_fraction=0.0, seed=33)
        report = run_honest_session(config)
        score = report.alignment
        correct = score.direct_matches if bit == 0 else score.reverse_matches
        assert correct == score.sift_size


def test_honest_wrong_alignment_is_uninformative():
    config = SessionConfig(n=100000, committed_bit=0, error_fraction=0.0, seed=44)
    report = run_honest_session(config)
    assert abs(report.alignment.reverse_rate - 0.5) < 0.01


# -- decoding ----------------------------------------------------------------

def test_decode_rule_table():
    defaults = DecisionPolicy()
    cases = [
        ((100, 100, 50), Decision.BIT0),
        ((100, 50, 100), Decision.BIT1),
        # floor is checked before separation: max(0.52, 0.55) < 0.60
        ((100, 52, 55), Decision.CHEAT_SUSPECTED),
        ((100, 70, 65), Decision.AMBIGUOUS),
        ((4, 4, 0), Decision.AMBIGUOUS),  # below min_sift
        ((0, 0, 0), Decision.AMBIGUOUS),
    ]
    for (s, direct, reverse), expected in cases:
        assert decide(s, direct, reverse, defaults) is expected


def test_decode_exact_threshold_edges():
    policy = DecisionPolicy(separation_delta=0.10, plausibility_floor=0.60, min_sift=8)
    # exactly at the floor: not below it
    assert decide(100, 60, 50, policy) is Decision.BIT0
    # exactly at the separation delta counts as separated
    assert decide(100, 70, 60, policy) is Decision.BIT0
    # just inside the band
    assert decide(1000, 700, 609, policy) is Decision.AMBIGUOUS
    # min_sift boundary: s == min_sift is allowed
    assert decide(8, 8, 4, policy) is Decision.BIT0
    assert decide(7, 7, 0, policy) is Decision.AMBIGUOUS


def _scalar_decide(s, direct, reverse, policy):
    """The receiver's rule on Python numbers, as written before ``decide``
    took arrays."""
    if s == 0 or s < policy.min_sift:
        return Decision.AMBIGUOUS
    d = direct / s
    r = reverse / s
    if max(d, r) < policy.plausibility_floor - 1e-12:
        return Decision.CHEAT_SUSPECTED
    if d - r >= policy.separation_delta - 1e-12:
        return Decision.BIT0
    if r - d >= policy.separation_delta - 1e-12:
        return Decision.BIT1
    return Decision.AMBIGUOUS


@pytest.mark.parametrize("policy", [
    DecisionPolicy(),
    DecisionPolicy(separation_delta=0, plausibility_floor=0, min_sift=0),
    DecisionPolicy(separation_delta=0.3, plausibility_floor=0.9, min_sift=3),
    DecisionPolicy(separation_delta=1, plausibility_floor=1, min_sift=0),
])
def test_array_decide_equals_the_scalar_rule(policy):
    counts = [(s, d, r) for s in range(41) for d in range(s + 1) for r in range(s + 1)]
    # The 0.6 - 0.5 < 0.1 rounding edge, at s = 100, both ways round.
    counts += [(100, 60, 50), (100, 50, 60), (100, 61, 50), (100, 59, 50)]
    s, direct, reverse = (np.array(column) for column in zip(*counts))
    want = [_scalar_decide(*case, policy) for case in counts]
    assert decide(s, direct, reverse, policy).tolist() == want
    assert [decide(*case, policy) for case in counts[-4:]] == want[-4:]
    if policy == DecisionPolicy():
        assert want[-4:] == [Decision.BIT0, Decision.BIT1, Decision.BIT0,
                             Decision.CHEAT_SUSPECTED]


# -- raw correlations --------------------------------------------------------

def test_raw_correlation_values():
    r0 = run_honest_session(SessionConfig(n=100000, committed_bit=0, seed=55))
    assert abs(r0.raw_direct_correlation - 0.75) < 0.005
    assert abs(r0.raw_reverse_correlation - 0.5) < 0.005
    r5 = run_honest_session(
        SessionConfig(n=100000, committed_bit=0, error_fraction=0.5, seed=55)
    )
    assert abs(r5.raw_direct_correlation - 0.625) < 0.005


def test_raw_correlations_reject_mismatch():
    with pytest.raises(ValueError, match="length"):
        raw_correlations([0, 1], Commitment(revealed=[0]))


def test_raw_correlations_empty_convention():
    assert raw_correlations([], Commitment(revealed=[])) == (0.0, 0.0)


# -- end-to-end sessions -----------------------------------------------------

def test_empty_and_single_photon_sessions_are_ambiguous():
    for n in (0, 1):
        report = run_honest_session(SessionConfig(n=n, committed_bit=0, seed=1))
        assert report.decision is Decision.AMBIGUOUS
        assert report.decoded_correctly is None


def test_session_replayable():
    config = SessionConfig(n=300, committed_bit=1, error_fraction=0.25, seed=202)
    a = run_honest_session(config)
    b = run_honest_session(config)
    assert a.alignment == b.alignment
    assert a.decision is b.decision
    assert a.raw_direct_correlation == b.raw_direct_correlation


def test_expected_rate_conformance_over_error_grid():
    # Empirical raw correct-pairing agreement vs the closed form
    # 3/4 - e/4, within 3*sqrt(0.25/(T*n)) of it.
    trials, n = 10, 20000
    bound = 3 * np.sqrt(0.25 / (trials * n))
    for e in (0.0, 0.25, 0.5, 1.0):
        total = 0.0
        for t in range(trials):
            report = run_honest_session(
                SessionConfig(
                    n=n, committed_bit=0, error_fraction=e,
                    seed=streams.derive_seed(66, round(e * 100), t),
                )
            )
            total += report.raw_direct_correlation
        assert abs(total / trials - (0.75 - 0.25 * e)) < bound + 0.002


def test_direct_reverse_symmetry_under_bit_swap():
    # Decode accuracy must not depend on which bit was committed; compare
    # clean-decode rates for bit 0 vs bit 1 on a deliberately hard config
    # (small n) so the rates carry real variance.
    trials = 10000
    rates = []
    for bit, master in ((0, 6100), (1, 6200)):
        seeds = [streams.derive_seed(master, t) for t in range(trials)]
        _bits, scores = run_sessions(seeds, 32, 0.5, 0.0, bit=bit)
        clean = np.count_nonzero(scores.decisions == (Decision.BIT1 if bit else Decision.BIT0))
        rates.append(clean / trials)
    pooled = sum(rates) / 2
    sigma = np.sqrt(2 * pooled * (1 - pooled) / trials)
    assert abs(rates[0] - rates[1]) < 3 * sigma


def test_middle_element_pairs_with_itself_for_odd_n():
    # For odd n the center index contributes identically to both counts,
    # which is why independence assertions use even n.
    sent_bases = [0, 0, 0]
    for sent in product((0, 1), repeat=3):
        for revealed in product((0, 1), repeat=3):
            size, direct, reverse = _score(
                sent_bases, sent, revealed, _unveiling(sent_bases, {1})
            )
            assert size == 1 and direct == reverse


def test_trial_report_serialization_round_trip_fields():
    report = run_honest_session(SessionConfig(n=64, committed_bit=1, seed=5))
    d = report.to_dict()
    assert d["n"] == 64 and d["committed_bit"] == 1
    assert d["decision"] in ("bit0", "bit1", "ambiguous", "cheat_suspected")
    assert set(d["policy"]) == {"separation_delta", "plausibility_floor", "min_sift"}
