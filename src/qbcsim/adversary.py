"""Attack strategies for both parties.

Two directions:

* The receiver reads the committed bit off the raw correlations as soon as
  the results are revealed, before any bases are unveiled.  This always
  beats guessing, so the scheme hides nothing; result randomization only
  lowers his confidence (3/4 - e/4 against the 1/2 of the wrong pairing).

* The committer tries to rebind after the fact.  Her commitment is
  immutable; all she controls at unveil time is the basis list.  She never
  learns the sender's preparation bases or bits, but she does hold her raw
  outcomes and the values she revealed, which is enough for an informed
  rebind.  The implemented strategies are blind basis-lying schedules by
  choice: none of them reads her outcomes.  Her unveil is that basis list
  itself, a uint8 array in transmission order, as the kernel and the wire
  pass it.  A rebind counts as a success only if the receiver cleanly
  decodes the opposite bit; suspicion or ambiguity defeats the cheat.

No optimality claim is made for the strategy menu: these are the natural
blind schedules, evaluated empirically by ``harness.run_cell`` in
preunveil and binding mode.  The lie (``RebindStrategy.lie``) and the early
guess (``kernel.early_guess``) each serve a session's row and a chunk's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kernel import early_guess
from .protocol import Commitment, MeasurementRecord, raw_correlations
from .rng import check_bit, check_fraction, noise_threshold


class RebindKind(Enum):
    HONEST_BASES = "honest-bases"
    FLIP_ALL_BASES = "flip-all-bases"
    RANDOM_LIES = "random-lies"


@dataclass(frozen=True)
class RebindStrategy:
    """A blind basis-lying schedule for the unveil message."""

    kind: RebindKind
    lie_probability: float = 0.0

    def __post_init__(self) -> None:
        check_fraction("lie_probability", self.lie_probability)

    @classmethod
    def honest_bases(cls) -> "RebindStrategy":
        return cls(RebindKind.HONEST_BASES)

    @classmethod
    def flip_all_bases(cls) -> "RebindStrategy":
        return cls(RebindKind.FLIP_ALL_BASES)

    @classmethod
    def random_lies(cls, p: float) -> "RebindStrategy":
        return cls(RebindKind.RANDOM_LIES, lie_probability=p)

    @property
    def draws(self) -> bool:
        """Whether ``lie`` reads raw words (random-lies above 0 only)."""
        return self.kind is RebindKind.RANDOM_LIES and self.lie_probability > 0

    @property
    def label(self) -> str:
        if self.kind is RebindKind.RANDOM_LIES:
            return f"random-lies:{self.lie_probability:g}"
        return self.kind.value

    def lie(self, bases: np.ndarray, raw: np.ndarray | None) -> np.ndarray:
        """The basis list this schedule unveils for the true ``bases``: one
        session's (n,) row, or a block's (b x n) rows.

        ``raw`` holds the ADVERSARY stream's first n raw words, in the shape
        of ``bases``; only random-lies above 0 reads them (``draws``), and
        the other schedules take None.  Random-lies lies at basis i when
        raw word i is at most ``rng.noise_threshold(p)``, which is
        ``random(n) < p`` read from the raw words.  At p = 0 it unveils the
        bases as honest-bases does, at p = 1 flipped as flip-all-bases does.
        """
        if self.kind is RebindKind.FLIP_ALL_BASES:
            return bases ^ 1
        if not self.draws:
            return bases.copy()
        return bases ^ (raw <= noise_threshold(self.lie_probability))

    @classmethod
    def parse(cls, text: str) -> "RebindStrategy":
        """Parse a strategy label: honest-bases, flip-all-bases, or
        random-lies:P with P a fraction in [0, 1]."""
        text = text.strip()
        if text == RebindKind.HONEST_BASES.value:
            return cls.honest_bases()
        if text == RebindKind.FLIP_ALL_BASES.value:
            return cls.flip_all_bases()
        if text.startswith(RebindKind.RANDOM_LIES.value + ":"):
            return cls.random_lies(float(text.split(":", 1)[1]))
        raise ValueError(
            f"unknown strategy {text!r}; expected honest-bases, flip-all-bases, "
            "or random-lies:P"
        )


@dataclass(frozen=True)
class PreUnveilGuess:
    """The receiver's early read of the committed bit from raw pairings."""

    guessed_bit: int
    direct_raw: float
    reverse_raw: float
    margin: float


def bob_preunveil_guess(
    sent_bits, commitment: Commitment, rng: np.random.Generator
) -> PreUnveilGuess:
    """Guess the committed bit from raw correlations alone (no sifting).

    Direct pairing stronger -> 0, reverse stronger -> 1; an exact tie is
    broken by one coin from the adversary stream (the only case where a
    draw is consumed): the kernel's ``early_guess`` on the session's margin.
    """
    direct, reverse = raw_correlations(sent_bits, commitment)
    margin = direct - reverse
    guessed = int(early_guess(margin, lambda: rng.integers(0, 2)))
    return PreUnveilGuess(
        guessed_bit=guessed, direct_raw=direct, reverse_raw=reverse, margin=margin
    )


def alice_rebind_attack(
    record: MeasurementRecord,
    mask: np.ndarray,
    commitment: Commitment,
    original_bit: int,
    strategy: RebindStrategy,
    rng: np.random.Generator,
) -> np.ndarray:
    """The (possibly dishonest) basis list unveiled for a past commitment.

    The commitment itself is read-only; lying is confined to the basis
    list, in direct order.  The committer's full knowledge (her record,
    her ``mask`` as ``inject_errors`` returns it, her commitment, her bit)
    is available to the strategy, but the implemented schedules are blind in
    the sender's bases and read no mask: ``strategy.lie`` on her bases and,
    for a schedule that draws, the first n raw words of ``rng``, as the
    kernel reads them for a block.
    """
    check_bit("original_bit", original_bit)
    raw = rng.bit_generator.random_raw(len(record.bases)) if strategy.draws else None
    return strategy.lie(record.bases, raw)
