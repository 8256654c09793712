"""Polarization-coded single-photon channel.

Four states, two conjugate bases.  Measuring a photon in its preparation
basis returns the encoded bit with certainty; measuring in the other basis
returns a uniformly random bit.  That rule is the entire quantum content of
the model, so arrays of basis/bit codes replace any amplitude-level state.

Canonical polarization table (basis code, bit) <-> angle:

    (rectilinear, 0) <-> 0 deg      (diagonal, 0) <-> 45 deg
    (rectilinear, 1) <-> 90 deg     (diagonal, 1) <-> 135 deg

Draw discipline: ``measure_photon`` consumes exactly one draw from its
stream whether or not the bases match, and the measurement stage
(``measure_rows``) consumes n outcome draws, then n noise draws only when
the noise rate is above 0.  Nothing draws from the measurement stream after
the noise, so skipping it at rate 0 moves no later draw.  Stream positions
therefore depend only on how many photons were processed, never on the
random values themselves, which keeps honest and counterfactual replays of
the same seed aligned.

The state split (``split_states``) and the measurement stage take one
session's (n,) row or a chunk's (b x n) rows and validate nothing: the role
functions, the referee and the kernel (``qbcsim.kernel``) all call them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .rng import check_bit, check_count, check_fraction, noise_threshold, top_bits, uniform_codes


class Basis(IntEnum):
    """The two conjugate polarization measurement bases."""

    RECTILINEAR = 0
    DIAGONAL = 1


def as_bit_array(values) -> np.ndarray:
    """Validate and convert bits or basis codes to a uint8 array of 0/1.

    A uint8 array of 0/1 passes as it is; anything else is checked by value
    before the cast, so no float, wider integer or other object is cut to a bit.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d bit or basis sequence, got shape {arr.shape}")
    if arr.dtype != np.uint8 or (arr.size and arr.max() > 1):
        # Anything but numbers is compared as objects: numpy < 1.25 compares no string to an int.
        probe = arr if arr.dtype.kind in "biuf" else arr.astype(object)
        bad = (probe != 0) & (probe != 1)
        if bad.any():
            first = arr[bad].tolist()[0]
            raise ValueError(f"bit values and basis codes must be 0 or 1, got {first!r}")
        arr = arr.astype(np.uint8)
    return arr


@dataclass(frozen=True)
class PhotonState:
    """One of the four polarization states, as (preparation basis, bit)."""

    basis: Basis
    bit: int

    def __post_init__(self) -> None:
        check_bit("bit", self.bit)
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
    check_count("n", n)
    return PreparedSequence(*split_states(uniform_codes(rng, n, 2)))


def split_states(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (bases, bits) of state codes in [0, 4), elementwise: code // 2 is the
    basis and code % 2 the bit."""
    return codes >> 1, codes & 1


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
    probability ``noise_rate``: the checked inputs' measurement stage
    (``measure_rows``) on the raw words of ``rng``.
    """
    bases = as_bit_array(bases)
    if len(bases) != len(seq):
        raise ValueError(
            f"basis list length {len(bases)} != sequence length {len(seq)}"
        )
    check_fraction("noise_rate", noise_rate)
    return measure_rows(seq.bases, seq.bits, bases, noise_rate, rng.bit_generator.random_raw)


def measure_rows(prep_bases, prep_bits, bases, noise_rate: float, read) -> np.ndarray:
    """The measured results of one session's (n,) row or a chunk's (b x n)
    rows, unvalidated: the prepared bit where the bases match, a coin
    elsewhere, each flipped at ``noise_rate``.  ``read(count)`` gives the
    MEASURE stream's first ``count`` raw words, in the rows' shape: the coins
    are the top bits of the first (n + 1) // 2 (``integers(0, 2, size=n)``),
    then, only above rate 0, n noise words follow (``random(n) < rate``).
    """
    n = bases.shape[-1]
    words = (n + 1) // 2
    raw = read(words + (n if noise_rate > 0 else 0))
    coins = top_bits(raw, n, 1)
    # A bitwise select: several times faster than np.where on uint8.
    results = coins ^ ((coins ^ prep_bits) & (bases == prep_bases))
    if noise_rate > 0:
        results ^= raw[..., words:] <= noise_threshold(noise_rate)
    return results
