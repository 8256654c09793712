"""Honest commitment protocol: measure, mask, order-encode, unveil, decode.

One session commits a single bit using a whole photon sequence:

1. The sender transmits random polarized photons; the committer measures
   each in a random basis, randomizes a chosen fraction of her results, and
   reveals them in transmission order to commit 0 or in reversed order to
   commit 1.
2. The committer later unveils her measurement bases, always in
   transmission order.
3. The receiver keeps the positions where preparation and measurement
   bases agree and compares his sent bits with the revealed results under
   both the direct and the reversed pairing; the pairing that lines up is
   the committed bit.

Why the numbers come out the way they do (result randomization at
fraction e):

* Over all positions, a revealed result matches the sent bit with
  probability 3/4 when untouched (certain on the half with matching bases,
  a coin on the other half), and 1/2 when randomized, so the raw
  correct-pairing agreement is (1-e)*3/4 + e/2 = 3/4 - e/4.
* On sifted positions an untouched result matches with certainty, so the
  sifted agreement is (1-e)*1 + e/2 = 1 - e/2.
* The wrong pairing compares independent positions and sits at 1/2
  regardless of e (for even n; the middle element of an odd-length
  sequence pairs with itself).

The role functions pass the unveiled bases and the masked positions as
plain arrays, the ones the kernel and the wire use; ``score_and_decide``
checks an unveiled basis list as bits where it arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import rng as streams
from .channel import (
    PreparedSequence,
    as_bit_array,
    prepare_random_sequence,
    raw_coins,
    transmit_and_measure,
    uniform_codes,
)

#: Result-masking semantics: replace selected results with fresh coin
#: flips ("randomize", the default) or invert them ("flip").  Randomizing a
#: fraction e leaves agreement 3/4 - e/4; deterministic flipping drives it
#: to 3/4 - e/2, all the way down to 1/2 at e = 1/2.
ERROR_MODES = ("randomize", "flip")


class Decision(Enum):
    """The receiver's verdict for one session."""

    BIT0 = "bit0"
    BIT1 = "bit1"
    AMBIGUOUS = "ambiguous"
    CHEAT_SUSPECTED = "cheat_suspected"


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """The committer's per-photon basis choices and measured results."""

    bases: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "bases", as_bit_array(self.bases))
        object.__setattr__(self, "outcomes", as_bit_array(self.outcomes))
        if len(self.bases) != len(self.outcomes):
            raise ValueError(
                f"bases length {len(self.bases)} != outcomes length {len(self.outcomes)}"
            )
        self.bases.setflags(write=False)
        self.outcomes.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Commitment:
    """The publicly revealed result sequence (masked, order-encoded).

    The revealed array is read-only: once published, a commitment cannot
    be altered, only interpreted.
    """

    revealed: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "revealed", as_bit_array(self.revealed))
        self.revealed.setflags(write=False)

    def __len__(self) -> int:
        return len(self.revealed)


@dataclass(frozen=True)
class AlignmentScore:
    """Match counts on the sifted positions under both pairings."""

    sift_size: int
    direct_matches: int
    reverse_matches: int

    def __post_init__(self) -> None:
        if not 0 <= self.direct_matches <= self.sift_size:
            raise ValueError("direct_matches out of range")
        if not 0 <= self.reverse_matches <= self.sift_size:
            raise ValueError("reverse_matches out of range")

    @property
    def direct_rate(self) -> float:
        return self.direct_matches / self.sift_size if self.sift_size else 0.0

    @property
    def reverse_rate(self) -> float:
        return self.reverse_matches / self.sift_size if self.sift_size else 0.0


@dataclass(frozen=True)
class DecisionPolicy:
    """Thresholds for turning an alignment score into a verdict.

    ``separation_delta`` is the minimum gap between the two sifted match
    rates for a clean read; ``plausibility_floor`` is the minimum best rate
    below which neither pairing looks honest; ``min_sift`` guards against
    sessions too short to say anything.
    """

    separation_delta: float = 0.10
    plausibility_floor: float = 0.60
    min_sift: int = 8

    def __post_init__(self) -> None:
        for name in ("separation_delta", "plausibility_floor"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.min_sift < 0:
            raise ValueError(f"min_sift must be >= 0, got {self.min_sift}")


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to replay one honest session."""

    n: int
    committed_bit: int
    error_fraction: float = 0.0
    noise_rate: float = 0.0
    seed: int = 0
    policy: DecisionPolicy = DecisionPolicy()
    error_mode: str = "randomize"

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.committed_bit not in (0, 1):
            raise ValueError(f"committed_bit must be 0 or 1, got {self.committed_bit!r}")
        if not 0.0 <= self.error_fraction <= 1.0:
            raise ValueError(f"error_fraction must be in [0, 1], got {self.error_fraction}")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ValueError(f"noise_rate must be in [0, 1], got {self.noise_rate}")
        if self.error_mode not in ERROR_MODES:
            raise ValueError(f"error_mode must be one of {ERROR_MODES}, got {self.error_mode!r}")


@dataclass(frozen=True)
class TrialReport:
    """Per-session outputs consumed by the experiment runner and the CLI."""

    config: SessionConfig
    raw_direct_correlation: float
    raw_reverse_correlation: float
    alignment: AlignmentScore
    decision: Decision
    decoded_correctly: bool | None

    def to_dict(self) -> dict:
        policy = self.config.policy
        return {
            "n": self.config.n,
            "committed_bit": self.config.committed_bit,
            "error_fraction": self.config.error_fraction,
            "noise_rate": self.config.noise_rate,
            "seed": self.config.seed,
            "error_mode": self.config.error_mode,
            "policy": {
                "separation_delta": policy.separation_delta,
                "plausibility_floor": policy.plausibility_floor,
                "min_sift": policy.min_sift,
            },
            "raw_direct_correlation": self.raw_direct_correlation,
            "raw_reverse_correlation": self.raw_reverse_correlation,
            "sift_size": self.alignment.sift_size,
            "direct_matches": self.alignment.direct_matches,
            "reverse_matches": self.alignment.reverse_matches,
            "decision": self.decision.value,
            "decoded_correctly": self.decoded_correctly,
        }


def choose_random_bases(n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent uniform basis choices, one draw each."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return uniform_codes(rng, n, 1)


def inject_errors(
    outcomes,
    error_fraction: float,
    rng: np.random.Generator,
    mode: str = "randomize",
) -> tuple[np.ndarray, np.ndarray]:
    """Mask a fraction of results before they are revealed: (masked, positions).

    Exactly round(error_fraction * n) distinct positions are chosen
    uniformly without replacement.  In "randomize" mode each chosen value
    is replaced by an independent fair coin (which may equal the original);
    in "flip" mode it is inverted.  Consumes the position draw first, then
    (in randomize mode only) one replacement draw per chosen position, the
    j-th for the j-th smallest position (``draw_mask``).  Nothing is drawn
    when no position is chosen.  The positions come back sorted, in direct
    (pre-ordering) index space.
    """
    outcomes = as_bit_array(outcomes)
    if not 0.0 <= error_fraction <= 1.0:
        raise ValueError(f"error_fraction must be in [0, 1], got {error_fraction}")
    if mode not in ERROR_MODES:
        raise ValueError(f"mode must be one of {ERROR_MODES}, got {mode!r}")
    n = len(outcomes)
    k = masked_count(error_fraction, n)
    positions, coins = draw_mask(n, k, rng, mode)
    masked = outcomes.copy()
    if k:
        marked = np.zeros(n, dtype=bool)
        marked[positions] = True
        positions = np.flatnonzero(marked)
        masked[positions] = outcomes[positions] ^ 1 if coins is None else coins
    return masked, positions


def masked_count(error_fraction: float, n: int) -> int:
    """How many of n results ``inject_errors`` masks."""
    return int(round(error_fraction * n))


def draw_mask(
    n: int, k: int, rng: np.random.Generator, mode: str
) -> tuple[np.ndarray, np.ndarray | None]:
    """The draws of ``inject_errors`` on n results, unvalidated: (positions,
    in ``choice``'s order, replacement coins), the coins None in "flip" mode.

    The j-th coin replaces the result at the j-th smallest position: mark
    the positions in a bool array and ``np.flatnonzero`` gives them sorted,
    with no sort.  The coins are ``rng.integers(0, 2, size=k)``, read from
    the raw words (``channel.raw_coins``).  ``kernel.raw_masks`` rebuilds
    both from a fresh generator's raw words, for up to a few hundred
    positions.
    """
    if not k:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
    positions = rng.choice(n, size=k, replace=False)
    if mode == "randomize":
        return positions, raw_coins(rng.bit_generator, k)
    return positions, None


def commit(outcomes, bit: int) -> Commitment:
    """Order-encode the committed bit: direct order for 0, reversed for 1."""
    outcomes = as_bit_array(outcomes)
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    revealed = outcomes.copy() if bit == 0 else outcomes[::-1].copy()
    return Commitment(revealed=revealed)


def unveil(record: MeasurementRecord) -> np.ndarray:
    """Publish the measurement bases, in transmission order regardless of
    the committed bit (only results carry the order encoding)."""
    return record.bases.copy()


#: Absorbs float representation error in rate comparisons at exact rule
#: boundaries (e.g. 60/100 - 50/100 vs a 0.10 threshold); far below the
#: 1/sift_size rate granularity of any feasible session.
_RATE_EPS = 1e-12


#: The verdict of the first rule that holds, indexed by the bit mask of the
#: rules that do: 8 the sift is too small, 4 both rates are below the floor,
#: 2 the direct rate leads by delta, 1 the reverse rate does.
_VERDICTS = np.array([Decision.AMBIGUOUS, Decision.BIT1, Decision.BIT0, Decision.BIT0]
                     + [Decision.CHEAT_SUSPECTED] * 4 + [Decision.AMBIGUOUS] * 8, dtype=object)


def decide(s, direct, reverse, policy: DecisionPolicy):
    """Turn sifted match counts (sift size, direct, reverse) into a verdict.

    Elementwise: integer counts give a ``Decision``, arrays of counts an
    object array of them.  Order matters: the sift-size guard first, then
    the plausibility floor (neither pairing looks honest -> cheating
    suspected), then the separation test between the two rates.  Rates
    exactly at a threshold count as meeting it.
    """
    size = s + (s == 0)  # s = 0 is ambiguous; this keeps 0 / 0 out of the rates
    d = direct / size
    r = reverse / size
    floor = policy.plausibility_floor - _RATE_EPS
    delta = policy.separation_delta - _RATE_EPS
    rules = (8 * (s < max(policy.min_sift, 1)) + 4 * ((d < floor) & (r < floor))
             + 2 * (d - r >= delta) + (r - d >= delta))
    return _VERDICTS[rules]


def raw_correlations(sent_bits, commitment: Commitment) -> tuple[float, float]:
    """Agreement fractions over ALL positions under both pairings.

    This is what the receiver can compute before any bases are unveiled.
    Empty sessions score (0.0, 0.0) by convention (zero matches over zero
    positions).
    """
    sent_bits = as_bit_array(sent_bits)
    n = len(sent_bits)
    if len(commitment) != n:
        raise ValueError(
            f"commitment length {len(commitment)} != sent length {n}"
        )
    if n == 0:
        return 0.0, 0.0
    revealed = commitment.revealed
    direct = float(np.count_nonzero(revealed == sent_bits)) / n
    reverse = float(np.count_nonzero(revealed[::-1] == sent_bits)) / n
    return direct, reverse


def run_commit_phase(
    config: SessionConfig,
) -> tuple[PreparedSequence, MeasurementRecord, np.ndarray, Commitment]:
    """Execute a session up to (and including) the commitment message:
    (sequence, record, masked positions, commitment).

    Substreams are derived from config.seed by fixed labels, one per
    participant role, so the same seed replays identically whether the
    steps run in one process or split across the wire.
    """
    seq = prepare_random_sequence(config.n, streams.substream(config.seed, streams.PREPARE))
    bases = choose_random_bases(config.n, streams.substream(config.seed, streams.BASES))
    outcomes = transmit_and_measure(
        seq, bases, config.noise_rate, streams.substream(config.seed, streams.MEASURE)
    )
    masked, positions = inject_errors(
        outcomes,
        config.error_fraction,
        streams.substream(config.seed, streams.ERROR),
        mode=config.error_mode,
    )
    record = MeasurementRecord(bases=bases, outcomes=outcomes)
    commitment = commit(masked, config.committed_bit)
    return seq, record, positions, commitment


def score_and_decide(
    seq: PreparedSequence,
    commitment: Commitment,
    unveiled,
    policy: DecisionPolicy,
) -> tuple[AlignmentScore, Decision]:
    """The receiver's post-unveil work: sift, score, decide.

    ``unveiled`` is the basis list, checked here as bits (Bob takes it from
    a wire message).  The sift is the positions where preparation and
    unveiled bases agree.  On it, direct pairs revealed[i] with sent[i] and
    reverse pairs revealed[n-1-i] with sent[i].  (Reversing the sent bits
    instead gives identical counts: the pairs are the same, enumerated
    backwards.)
    """
    unveiled = as_bit_array(unveiled)
    n = len(seq)
    if len(unveiled) != n:
        raise ValueError(f"basis list lengths differ: {n} != {len(unveiled)}")
    if len(commitment) != n:
        raise ValueError(f"commitment length {len(commitment)} != sent length {n}")
    sifted = seq.bases == unveiled
    revealed = commitment.revealed
    s = int(np.count_nonzero(sifted))
    direct = int(np.count_nonzero(sifted & (revealed == seq.bits)))
    reverse = int(np.count_nonzero(sifted & (revealed[::-1] == seq.bits)))
    score = AlignmentScore(sift_size=s, direct_matches=direct, reverse_matches=reverse)
    return score, decide(s, direct, reverse, policy)


def run_honest_session(config: SessionConfig) -> TrialReport:
    """Run one complete honest session and report everything measured."""
    seq, record, _positions, commitment = run_commit_phase(config)
    score, decision = score_and_decide(seq, commitment, unveil(record), config.policy)
    raw_direct, raw_reverse = raw_correlations(seq.bits, commitment)
    if decision in (Decision.BIT0, Decision.BIT1):
        decoded_bit = 0 if decision is Decision.BIT0 else 1
        decoded_correctly = decoded_bit == config.committed_bit
    else:
        decoded_correctly = None
    return TrialReport(
        config=config,
        raw_direct_correlation=raw_direct,
        raw_reverse_correlation=raw_reverse,
        alignment=score,
        decision=decision,
        decoded_correctly=decoded_correctly,
    )
