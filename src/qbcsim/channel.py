"""Polarization-coded single-photon channel.

Four states, two conjugate bases.  Measuring a photon in its preparation
basis returns the encoded bit with certainty; measuring in the other basis
returns a uniformly random bit.  That rule is the entire quantum content of
the model, so arrays of basis/bit codes replace any amplitude-level state.

Canonical polarization table (basis code, bit) <-> angle:

    (rectilinear, 0) <-> 0 deg      (diagonal, 0) <-> 45 deg
    (rectilinear, 1) <-> 90 deg     (diagonal, 1) <-> 135 deg

Draw discipline: ``measure_photon`` consumes exactly one draw from its
stream whether or not the bases match, and ``transmit_and_measure``
consumes n outcome draws, then n noise draws only when the noise rate is
above 0.  Nothing draws from the measurement stream after the noise, so
skipping it at rate 0 moves no later draw.  Stream positions therefore
depend only on how many photons were processed, never on the random values
themselves, which keeps honest and counterfactual replays of the same seed
aligned.

The array draws read PCG64's raw 64-bit outputs (``uniform_codes``,
``transmit_and_measure``) and return exactly what ``Generator.integers`` and
``Generator.random`` return from a fresh generator, without their
per-call cost.  The trial kernel reads the same words by the same rules,
for a whole chunk of trials at once (``raw_top_bytes`` on a (b x words)
array, ``noise_threshold``, ``select_outcomes``).  Two more readers serve
the protocol and the adversary: ``raw_coins`` gives
``integers(0, 2, size=k)`` also after a ``Generator.choice`` (the mask
coins), and ``noise_threshold`` also reads the random-lies schedule.  The
kernel rebuilds small masks, ``choice`` and coins together, from the raw
words (``kernel.raw_masks``); ``raw_coins`` serves the role functions and
the kernel's larger masks and those a Lemire step rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class Basis(IntEnum):
    """The two conjugate polarization measurement bases."""

    RECTILINEAR = 0
    DIAGONAL = 1


def as_bit_array(values) -> np.ndarray:
    """Validate and convert bits or basis codes to a uint8 array of 0/1."""
    arr = np.asarray(values, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d bit or basis sequence, got shape {arr.shape}")
    if arr.size and arr.max() > 1:
        raise ValueError("bit values and basis codes must be 0 or 1")
    return arr


@dataclass(frozen=True)
class PhotonState:
    """One of the four polarization states, as (preparation basis, bit)."""

    basis: Basis
    bit: int

    def __post_init__(self) -> None:
        if self.bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {self.bit!r}")
        object.__setattr__(self, "basis", Basis(self.basis))


@dataclass(frozen=True, eq=False)
class PreparedSequence:
    """An ordered run of photon states; index is transmission order.

    Stored as parallel basis/bit code arrays for vectorized processing.
    """

    bases: np.ndarray
    bits: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "bases", as_bit_array(self.bases))
        object.__setattr__(self, "bits", as_bit_array(self.bits))
        if len(self.bases) != len(self.bits):
            raise ValueError(
                f"basis/bit length mismatch: {len(self.bases)} != {len(self.bits)}"
            )
        self.bases.setflags(write=False)
        self.bits.setflags(write=False)

    def __len__(self) -> int:
        return len(self.bases)

    def __getitem__(self, i: int) -> PhotonState:
        return PhotonState(Basis(int(self.bases[i])), int(self.bits[i]))


def prepare_random_sequence(n: int, rng: np.random.Generator) -> PreparedSequence:
    """Draw n photons independently and uniformly from the four states.

    Consumes one draw per photon (a uniform integer in [0, 4)); code // 2
    is the basis and code % 2 the bit.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    codes = uniform_codes(rng, n, 2)
    return PreparedSequence(bases=codes >> 1, bits=codes & 1)


def uniform_codes(rng: np.random.Generator, n: int, width: int) -> np.ndarray:
    """n uniform integers in [0, 2**width) as uint8, for 1 <= width <= 8.

    Equal to ``rng.integers(0, 2**width, size=n)`` when ``rng`` holds no
    buffered 32-bit half, as every fresh substream does.  For a power-of-two
    range numpy's ``integers`` never rejects: it returns the top ``width``
    bits of successive 32-bit halves of the raw outputs, low half first.
    Unlike ``integers``, an odd n leaves no buffered half behind: a later
    ``Generator.random`` reads whole raw words either way, but a later
    ``integers`` on the same generator would differ.
    """
    return raw_top_bytes(rng.bit_generator.random_raw((n + 1) // 2), n) >> (8 - width)


def raw_top_bytes(raw: np.ndarray, n: int) -> np.ndarray:
    """The top bytes of the first n 32-bit halves of raw outputs, low half
    first, as uint8: byte 3 and byte 7 of each little-endian raw word.  On
    a (b x words) array, the top bytes of each row.  A contiguous copy:
    numpy reads the strided view of the words slower."""
    return raw.astype("<u8", copy=False).view(np.uint8)[..., 3:4 * n:4].copy()


def raw_coins(bit_generator: np.random.BitGenerator, n: int) -> np.ndarray:
    """``integers(0, 2, size=n)`` of a generator on ``bit_generator``, as uint8.

    A range of 2 never rejects in numpy's Lemire step, so each coin is the
    top bit of the next 32-bit half.  A half left buffered by an earlier
    32-bit draw (``state["has_uint32"]``, as ``Generator.choice`` can leave
    one) comes first, then the raw outputs, low half first.  Unlike
    ``integers``, it leaves the buffer as it found it: nothing may draw
    32-bit halves from ``bit_generator`` after it.
    """
    state = bit_generator.state
    if not state["has_uint32"]:
        return raw_top_bytes(bit_generator.random_raw((n + 1) // 2), n) >> 7
    coins = np.empty(n, dtype=np.uint8)
    coins[0] = state["uinteger"] >> 31
    coins[1:] = raw_top_bytes(bit_generator.random_raw(n // 2), n - 1) >> 7
    return coins


def measure_photon(state: PhotonState, basis: Basis, rng: np.random.Generator) -> int:
    """Measure one photon in the given basis.

    Matching basis returns the encoded bit; the conjugate basis returns a
    fair coin.  Exactly one draw is consumed either way (the coin is drawn
    and discarded on a basis match) so stream positions stay aligned across
    replays that differ only in basis choices.
    """
    coin = int(rng.integers(0, 2))
    if Basis(basis) == state.basis:
        return int(state.bit)
    return coin


def transmit_and_measure(
    seq: PreparedSequence,
    bases,
    noise_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Measure a whole sequence, then apply independent bit-flip noise.

    Element i equals ``measure_photon(seq[i], bases[i])``, flipped with
    probability ``noise_rate``.  Consumes n outcome draws from ``rng``,
    then, only when ``noise_rate`` is above 0, n noise draws.  Nothing is
    drawn from ``rng`` after the noise, so skipping it shifts no later draw.
    """
    bases = as_bit_array(bases)
    if len(bases) != len(seq):
        raise ValueError(
            f"basis list length {len(bases)} != sequence length {len(seq)}"
        )
    if not 0.0 <= noise_rate <= 1.0:
        raise ValueError(f"noise_rate must be in [0, 1], got {noise_rate}")
    n = len(bases)
    outcomes = select_outcomes(seq.bases, seq.bits, bases, uniform_codes(rng, n, 1))
    if noise_rate > 0:
        outcomes ^= rng.bit_generator.random_raw(n) <= noise_threshold(noise_rate)
    return outcomes


def select_outcomes(prep_bases, prep_bits, bases, coins) -> np.ndarray:
    """The prepared bit where the bases match, the coin elsewhere, elementwise
    (a bitwise select: several times faster than np.where on uint8)."""
    return coins ^ ((coins ^ prep_bits) & (bases == prep_bases))


def noise_threshold(rate: float) -> np.uint64:
    """For a rate in (0, 1], ``rng.random(n) < rate`` is ``random_raw(n) <=
    noise_threshold(rate)``: a double is (raw >> 11) * 2**-53, below the
    rate exactly when raw is below ceil(rate * 2**53) * 2**11.  At rate 0
    the comparison is all false without a draw, so callers skip it."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"a raw-word threshold needs a rate in (0, 1], got {rate}")
    return np.uint64((math.ceil(rate * 2**53) << 11) - 1)
