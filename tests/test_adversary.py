"""Attack evaluation: early recovery always works, blind rebinding never does.

The pre-unveil estimator is checked against an independent oracle written
directly in numpy (no package calls) with a different seed.
"""

import numpy as np
import pytest

from qbcsim import rng as streams
from qbcsim.adversary import RebindStrategy, alice_rebind_attack, bob_preunveil_guess
from qbcsim.harness import SweepMode, SweepSpec, run_cell
from qbcsim.kernel import run_sessions
from qbcsim.protocol import (
    Commitment,
    Decision,
    MeasurementRecord,
    SessionConfig,
    run_commit_phase,
)


def _preunveil_hits(n, error_fraction, trials, seed):
    spec = SweepSpec((n,), (error_fraction,), trials_per_cell=trials, mode=SweepMode.PREUNVEIL)
    return run_cell(spec, (seed,), n, error_fraction, 0.0)[0]


def _binding(n, error_fraction, strategy, trials, seed):
    """(flips, decision tallies) of ``trials`` seeded rebind attempts."""
    spec = SweepSpec((n,), (error_fraction,), trials_per_cell=trials,
                     mode=SweepMode.BINDING, strategy=strategy)
    return run_cell(spec, (seed,), n, error_fraction, 0.0)


def _oracle_preunveil_success(n, error_fraction, trials, rng):
    """Independent re-simulation of the early-recovery experiment."""
    wins = 0
    for _ in range(trials):
        bit = int(rng.integers(0, 2))
        prep_basis = rng.integers(0, 2, n)
        prep_bit = rng.integers(0, 2, n)
        meas_basis = rng.integers(0, 2, n)
        outcomes = np.where(meas_basis == prep_basis, prep_bit, rng.integers(0, 2, n))
        k = round(error_fraction * n)
        if k:
            pos = rng.choice(n, size=k, replace=False)
            outcomes = outcomes.copy()
            outcomes[pos] = rng.integers(0, 2, k)
        revealed = outcomes if bit == 0 else outcomes[::-1]
        if n:
            direct = float(np.mean(revealed == prep_bit))
            reverse = float(np.mean(revealed[::-1] == prep_bit))
        else:
            direct = reverse = 0.0
        if direct > reverse:
            guess = 0
        elif reverse > direct:
            guess = 1
        else:
            guess = int(rng.integers(0, 2))
        wins += guess == bit
    return wins / trials


# -- strategy parsing ----------------------------------------------------------

def test_strategy_labels_round_trip():
    for strategy in (
        RebindStrategy.honest_bases(),
        RebindStrategy.flip_all_bases(),
        RebindStrategy.random_lies(0.5),
    ):
        assert RebindStrategy.parse(strategy.label) == strategy
    with pytest.raises(ValueError):
        RebindStrategy.parse("mystery")
    with pytest.raises(ValueError):
        RebindStrategy.random_lies(1.5)


# -- pre-unveil guessing -------------------------------------------------------

def test_guess_reads_bit_zero_without_errors():
    config = SessionConfig(n=100000, committed_bit=0, error_fraction=0.0, seed=70)
    seq, _rec, _mask, commitment = run_commit_phase(config)
    guess = bob_preunveil_guess(seq.bits, commitment, streams.substream(70, streams.ADVERSARY))
    assert guess.guessed_bit == 0
    assert abs(guess.direct_raw - 0.75) < 0.005
    assert abs(guess.reverse_raw - 0.5) < 0.005
    assert guess.margin == pytest.approx(guess.direct_raw - guess.reverse_raw)


def test_guess_reads_bit_one_through_half_errors():
    config = SessionConfig(n=100000, committed_bit=1, error_fraction=0.5, seed=71)
    seq, _rec, _mask, commitment = run_commit_phase(config)
    guess = bob_preunveil_guess(seq.bits, commitment, streams.substream(71, streams.ADVERSARY))
    assert guess.guessed_bit == 1
    assert abs(guess.reverse_raw - 0.625) < 0.005


def test_guess_on_empty_session_is_a_fair_coin():
    # The tie coin is the adversary stream's integers(0, 2), read as the bit.
    empty_commitment = Commitment(revealed=[])
    guesses = [
        bob_preunveil_guess([], empty_commitment, streams.substream(s, streams.ADVERSARY)).guessed_bit
        for s in range(2000)
    ]
    assert abs(np.mean(guesses) - 0.5) < 3 * np.sqrt(0.25 / 2000)
    assert guesses == [int(streams.substream(s, streams.ADVERSARY).integers(0, 2)) for s in range(2000)]


def test_guess_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        bob_preunveil_guess([0, 1], Commitment(revealed=[0]), streams.substream(1, streams.ADVERSARY))


def test_preunveil_success_baseline_at_n_zero():
    rate = _preunveil_hits(0, 0.0, 2000, seed=72) / 2000
    assert abs(rate - 0.5) < 3 * np.sqrt(0.25 / 2000)


def test_preunveil_success_matches_independent_oracle():
    # Implementation and oracle use unrelated seeds; at n=256, e=0 both
    # sit essentially at certainty.
    ours = _preunveil_hits(256, 0.0, 10000, seed=73) / 10000
    oracle = _oracle_preunveil_success(256, 0.0, 10000, np.random.default_rng(9090))
    assert ours > 0.99
    pooled = (ours + oracle) / 2
    sigma = np.sqrt(max(pooled * (1 - pooled), 1e-9) * 2 / 10000)
    assert abs(ours - oracle) <= max(2 * sigma, 0.002)


def test_preunveil_success_matches_oracle_at_half_errors():
    ours = _preunveil_hits(256, 0.5, 10000, seed=74) / 10000
    oracle = _oracle_preunveil_success(256, 0.5, 10000, np.random.default_rng(9191))
    pooled = (ours + oracle) / 2
    sigma = np.sqrt(pooled * (1 - pooled) * 2 / 10000)
    assert abs(ours - oracle) <= max(2 * sigma, 0.003)


def test_preunveil_success_monotone_in_n():
    trials = 4000
    rates = [
        _preunveil_hits(n, 0.5, trials, seed=75) / trials for n in (16, 64, 256)
    ]
    slack = 2 * np.sqrt(0.25 / trials)
    assert rates[0] <= rates[1] + slack
    assert rates[1] <= rates[2] + slack


def test_error_injection_lowers_the_margin():
    # Mean correct-pairing raw correlation at e=0.5 sits 3 sigma below the
    # e=0 mean.
    # Each session commits the bit its COMMITTED_BIT substream draws.
    trials = 10000
    margins = {}
    for e in (0.0, 0.5):
        seeds = [streams.derive_seed(76, round(e * 100), t) for t in range(trials)]
        _bits, scores = run_sessions(seeds, 64, e, 0.0)
        margins[e] = np.maximum(scores.raw_direct, scores.raw_reverse).sum() / 64 / trials
    sigma = np.sqrt(0.25 / (trials * 64)) * 3
    assert margins[0.5] < margins[0.0] - sigma


# -- rebinding -----------------------------------------------------------------

def _session_artifacts(seed=80, n=16):
    config = SessionConfig(n=n, committed_bit=0, error_fraction=0.25, seed=seed)
    return run_commit_phase(config)


def test_rebind_honest_strategy_is_identity():
    _seq, record, mask, commitment = _session_artifacts()
    out = alice_rebind_attack(
        record, mask, commitment, 0, RebindStrategy.honest_bases(),
        streams.substream(80, streams.ADVERSARY),
    )
    assert np.array_equal(out, record.bases)


def test_rebind_flip_all_negates_every_basis():
    record = MeasurementRecord(bases=[0, 1], outcomes=[0, 0])
    commitment = Commitment(revealed=[0, 0])
    out = alice_rebind_attack(
        record, np.zeros(2, dtype=bool), commitment, 0, RebindStrategy.flip_all_bases(),
        streams.substream(81, streams.ADVERSARY),
    )
    assert out.tolist() == [1, 0]


def test_rebind_random_lies_hamming_distance():
    n = 100000
    bases = streams.substream(82, streams.BASES).integers(0, 2, size=n).astype(np.uint8)
    record = MeasurementRecord(bases=bases, outcomes=np.zeros(n, dtype=np.uint8))
    commitment = Commitment(revealed=np.zeros(n, dtype=np.uint8))
    out = alice_rebind_attack(
        record, np.zeros(n, dtype=bool), commitment, 0, RebindStrategy.random_lies(0.5),
        streams.substream(82, streams.ADVERSARY),
    )
    distance = int(np.sum(out != bases))
    assert abs(distance - 50000) <= 500


@pytest.mark.parametrize("n", [1, 17, 130])
@pytest.mark.parametrize("p", [0.25, 0.5])
def test_rebind_lie_on_a_block_equals_each_row_and_each_session(p, n):
    # The kernel lies on a chunk's (b x n) rows of ADVERSARY words, a session
    # on its (n,) row; n = 130 reads its words past RAW_OUTPUTS_CROSSOVER.
    seeds = [streams.derive_seed(87, n, t) for t in range(24)]
    bases = streams.substream(87, streams.BASES, n).integers(0, 2, size=(len(seeds), n),
                                                       dtype=np.uint8)
    raw = streams.SubstreamBatch(seeds, [streams.ADVERSARY]).raw(streams.ADVERSARY, n)
    strategy = RebindStrategy.random_lies(p)
    block = strategy.lie(bases, raw)
    for seed, row_bases, row_raw, row_lies in zip(seeds, bases, raw, block):
        assert np.array_equal(strategy.lie(row_bases, row_raw), row_lies)
        record = MeasurementRecord(bases=row_bases, outcomes=np.zeros(n, dtype=np.uint8))
        commitment = Commitment(revealed=np.zeros(n, dtype=np.uint8))
        attack = alice_rebind_attack(record, np.zeros(n, dtype=bool), commitment, 0,
                                     strategy, streams.substream(seed, streams.ADVERSARY))
        assert np.array_equal(attack, row_lies)
    assert np.array_equal(RebindStrategy.honest_bases().lie(bases, None), bases)
    assert np.array_equal(RebindStrategy.flip_all_bases().lie(bases, None), bases ^ 1)


def test_rebind_cannot_touch_the_commitment():
    _seq, record, mask, commitment = _session_artifacts()
    out = alice_rebind_attack(
        record, mask, commitment, 0, RebindStrategy.flip_all_bases(),
        streams.substream(83, streams.ADVERSARY),
    )
    assert np.array_equal(out, record.bases ^ 1)
    with pytest.raises(ValueError):
        commitment.revealed[0] ^= 1
    with pytest.raises(ValueError, match=r"^original_bit must be 0 or 1, got 2$"):
        alice_rebind_attack(record, mask, commitment, 2, RebindStrategy.flip_all_bases(),
                            streams.substream(83, streams.ADVERSARY))


def test_binding_honest_unveil_never_flips():
    flips, _tallies = _binding(256, 0.0, RebindStrategy.honest_bases(), 2000, seed=84)
    assert flips / 2000 < 0.001


def test_binding_flip_all_mostly_detected():
    flips, tallies = _binding(256, 0.0, RebindStrategy.flip_all_bases(), 2000, seed=85)
    assert flips / 2000 < 0.01
    assert tallies[Decision.CHEAT_SUSPECTED] > 2000 / 2
    # expected sift under total basis lying is still about n/2
    assert tallies[Decision.AMBIGUOUS] < 2000 / 2


def test_binding_empty_sessions_all_ambiguous():
    _flips, tallies = _binding(0, 0.0, RebindStrategy.flip_all_bases(), 50, seed=86)
    assert tallies[Decision.AMBIGUOUS] == 50


def test_binding_tallies_partition_trials():
    flips, tallies = _binding(64, 0.5, RebindStrategy.random_lies(0.5), 500, seed=87)
    assert sum(tallies.values()) == 500
    # A flip is a clean read of the other bit.
    assert flips <= tallies[Decision.BIT0] + tallies[Decision.BIT1]


def test_binding_replayable():
    args = (64, 0.5, RebindStrategy.random_lies(0.3), 200, 88)
    assert _binding(*args) == _binding(*args)
