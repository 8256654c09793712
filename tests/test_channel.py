"""Channel laws: matching-basis determinism, conjugate uniformity, noise knob."""

import numpy as np
import pytest

from qbcsim import rng as streams
from qbcsim.channel import (
    Basis,
    PhotonState,
    PreparedSequence,
    measure_photon,
    prepare_random_sequence,
    transmit_and_measure,
)
from qbcsim.rng import noise_threshold, uniform_codes


def test_matching_basis_is_deterministic_exhaustively():
    # Every (state, matching basis) pair, many stream positions each.
    for basis in Basis:
        for bit in (0, 1):
            state = PhotonState(basis, bit)
            rng = streams.substream(31, basis.value, bit)
            assert all(measure_photon(state, basis, rng) == bit for _ in range(200))
    with pytest.raises(ValueError, match="^bit must be 0 or 1, got 2$"):
        PhotonState(Basis.RECTILINEAR, 2)


def test_conjugate_basis_is_a_fair_coin():
    # 50/50 law: mean within 3 sigma of 0.5 over 100000 draws.
    state = PhotonState(Basis.RECTILINEAR, 0)
    rng = streams.substream(8, streams.MEASURE)
    draws = [measure_photon(state, Basis.DIAGONAL, rng) for _ in range(100000)]
    assert abs(np.mean(draws) - 0.5) < 3 * np.sqrt(0.25 / 100000)


def test_measure_consumes_one_draw_even_on_match():
    # Same stream, same positions: a matching-basis call must advance the
    # stream exactly like a conjugate-basis call does.
    state = PhotonState(Basis.DIAGONAL, 1)
    rng_match = streams.substream(4, streams.MEASURE)
    rng_mismatch = streams.substream(4, streams.MEASURE)
    measure_photon(state, Basis.DIAGONAL, rng_match)
    measure_photon(state, Basis.RECTILINEAR, rng_mismatch)
    follow_a = rng_match.integers(0, 2, size=32)
    follow_b = rng_mismatch.integers(0, 2, size=32)
    assert np.array_equal(follow_a, follow_b)


def test_prepare_empty_and_negative():
    assert len(prepare_random_sequence(0, streams.substream(1, streams.PREPARE))) == 0
    with pytest.raises(ValueError):
        prepare_random_sequence(-1, streams.substream(1, streams.PREPARE))


def test_prepare_uniform_over_four_states():
    seq = prepare_random_sequence(100000, streams.substream(42, streams.PREPARE))
    codes = seq.bases.astype(int) * 2 + seq.bits
    freqs = np.bincount(codes, minlength=4) / 100000
    assert np.all(np.abs(freqs - 0.25) < 0.01)


def test_prepare_deterministic_under_fixed_seed():
    a = prepare_random_sequence(5, streams.substream(42, streams.PREPARE))
    b = prepare_random_sequence(5, streams.substream(42, streams.PREPARE))
    assert np.array_equal(a.bases, b.bases) and np.array_equal(a.bits, b.bits)


def test_transmit_matching_bases_no_noise():
    seq = prepare_random_sequence(0, streams.substream(1, streams.PREPARE))
    seq = type(seq)(bases=[0, 1], bits=[0, 1])  # (R,0), (D,1)
    out = transmit_and_measure(seq, [0, 1], 0.0, streams.substream(1, streams.MEASURE))
    assert out.tolist() == [0, 1]


def test_transmit_noise_one_flips_everything():
    seq = prepare_random_sequence(64, streams.substream(3, streams.PREPARE))
    clean = transmit_and_measure(seq, seq.bases, 0.0, streams.substream(3, streams.MEASURE))
    noisy = transmit_and_measure(seq, seq.bases, 1.0, streams.substream(3, streams.MEASURE))
    assert np.array_equal(noisy, clean ^ 1)


def test_transmit_noise_rate_frequency():
    n = 100000
    seq = prepare_random_sequence(n, streams.substream(17, streams.PREPARE))
    out = transmit_and_measure(seq, seq.bases, 0.1, streams.substream(17, streams.MEASURE))
    disagree = np.mean(out != seq.bits)
    assert abs(disagree - 0.1) < 0.01


def test_transmit_rejects_mismatched_lengths():
    seq = prepare_random_sequence(4, streams.substream(2, streams.PREPARE))
    with pytest.raises(ValueError, match="length"):
        transmit_and_measure(seq, [0, 1], 0.0, streams.substream(2, streams.MEASURE))


def test_transmit_rejects_bad_noise_rate():
    seq = prepare_random_sequence(2, streams.substream(2, streams.PREPARE))
    with pytest.raises(ValueError):
        transmit_and_measure(seq, seq.bases, 1.5, streams.substream(2, streams.MEASURE))


def test_noise_free_batch_equals_elementwise_measurement():
    # Composition law: the batch path and a scalar loop over the same
    # substream produce identical outcomes.
    n = 500
    seq = prepare_random_sequence(n, streams.substream(9, streams.PREPARE))
    bases = streams.substream(9, streams.BASES).integers(0, 2, size=n).astype(np.uint8)
    batch = transmit_and_measure(seq, bases, 0.0, streams.substream(9, streams.MEASURE))
    loop_rng = streams.substream(9, streams.MEASURE)
    loop = [measure_photon(seq[i], Basis(int(bases[i])), loop_rng) for i in range(n)]
    assert np.array_equal(batch, np.array(loop, dtype=np.uint8))


def test_transmit_replayable():
    seq = prepare_random_sequence(100, streams.substream(6, streams.PREPARE))
    bases = streams.substream(6, streams.BASES).integers(0, 2, size=100).astype(np.uint8)
    a = transmit_and_measure(seq, bases, 0.3, streams.substream(6, streams.MEASURE))
    b = transmit_and_measure(seq, bases, 0.3, streams.substream(6, streams.MEASURE))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("width", (1, 2))
@pytest.mark.parametrize("n", (0, 1, 2, 3, 17, 256, 4097))
def test_uniform_codes_are_generator_integers(width, n):
    # Same values as Generator.integers on fresh substreams, and a following
    # Generator.random still reads the same doubles (an odd n leaves numpy a
    # buffered 32-bit half, which doubles skip).
    for seed in range(25):
        fresh, raw = streams.substream(seed, streams.PREPARE), streams.substream(seed, streams.PREPARE)
        want = fresh.integers(0, 2**width, size=n)
        got = uniform_codes(raw, n, width)
        assert got.dtype == np.uint8
        assert np.array_equal(got, want), seed
        assert np.array_equal(raw.random(5), fresh.random(5)), seed


@pytest.mark.parametrize("noise", (0.0, 0.1, 1 / 3, 0.5, 1.0))
def test_measure_states_draws_coins_then_noise_as_the_generator_does(noise):
    # transmit_and_measure's coins are integers(0, 2, size=n), its noise is
    # random(n) < noise_rate; at rate 0 no noise is drawn at all.
    for n in (0, 1, 17, 256):
        codes = streams.substream(n, streams.PREPARE).integers(0, 4, size=n).astype(np.uint8)
        sent_bases, sent_bits = codes >> 1, codes & 1
        bases = streams.substream(n, streams.BASES).integers(0, 2, size=n).astype(np.uint8)
        reference, rng = streams.substream(n, streams.MEASURE), streams.substream(n, streams.MEASURE)
        coins = reference.integers(0, 2, size=n).astype(np.uint8)
        want = np.where(bases == sent_bases, sent_bits, coins).astype(np.uint8)
        if noise > 0:
            want ^= reference.random(n) < noise
        got = transmit_and_measure(PreparedSequence(sent_bases, sent_bits), bases, noise, rng)
        assert np.array_equal(got, want), n
        assert rng.random() == reference.random(), n


@pytest.mark.parametrize("rate", (0.0, -0.1, 1.5, float("nan")))
def test_noise_threshold_rejects_rates_outside_its_domain(rate):
    # At rate 0 the comparison is all false with no draw: callers skip it.
    with pytest.raises(ValueError, match=f"got {rate}"):
        noise_threshold(rate)


def test_noise_threshold_at_rate_one_admits_every_raw_word():
    assert noise_threshold(1.0) == np.uint64(2**64 - 1)
