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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .rng import noise_threshold, uniform_codes


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
