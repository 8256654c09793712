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

The role functions make the wire parties' draws, on one session's
generators, and are the reference the kernel's streams are tested against.
Each checks its inputs, then runs the kernel's stage on its (n,) row:
``inject_errors`` the mask (``mask_rows``), ``commit`` the order encoding
(``order_rows``), ``score_and_decide`` the score stage (``score_rows``); the
verdict is imported from it.  ``raw_correlations`` counts on its own, as the
tests' reference for the score stage's raw counts.
``run_honest_session`` is a block of one of the kernel.  The draws are read
off raw PCG64 words by ``rng``'s readers, the mask's by ``rng.read_mask``
(the mask rule of stream contract 2), whose marked row is the mask
``inject_errors`` applies and returns.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import rng as streams
from .channel import (
    PreparedSequence,
    as_bit_array,
    prepare_random_sequence,
    transmit_and_measure,
)
from .kernel import (Decision, DecisionPolicy, Scores, mask_rows, masked_count, order_rows,
                     run_sessions, score_rows)

#: Result-masking semantics: replace selected results with fresh coin
#: flips ("randomize", the default) or invert them ("flip").  Randomizing a
#: fraction e leaves agreement 3/4 - e/4; deterministic flipping drives it
#: to 3/4 - e/2, all the way down to 1/2 at e = 1/2.
ERROR_MODES = ("randomize", "flip")


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

    @property
    def direct_rate(self) -> float:
        return self.direct_matches / self.sift_size if self.sift_size else 0.0

    @property
    def reverse_rate(self) -> float:
        return self.reverse_matches / self.sift_size if self.sift_size else 0.0


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
        streams.check_count("n", self.n)
        streams.check_bit("committed_bit", self.committed_bit)
        streams.check_fraction("error_fraction", self.error_fraction)
        streams.check_fraction("noise_rate", self.noise_rate)
        if self.error_mode not in ERROR_MODES:
            raise ValueError(f"error_mode must be one of {ERROR_MODES}, got {self.error_mode!r}")
        streams.check_seed("seed", self.seed)


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
        config = asdict(self.config)
        config["policy"] = config.pop("policy")  # after error_mode, as reports have it
        return {**config, "raw_direct_correlation": self.raw_direct_correlation,
                "raw_reverse_correlation": self.raw_reverse_correlation,
                **asdict(self.alignment), "decision": self.decision.value,
                "decoded_correctly": self.decoded_correctly}


def choose_random_bases(n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent uniform basis choices, one draw each."""
    streams.check_count("n", n)
    return streams.uniform_codes(rng, n, 1)


def inject_errors(
    outcomes,
    error_fraction: float,
    rng: np.random.Generator,
    mode: str = "randomize",
) -> tuple[np.ndarray, np.ndarray]:
    """Mask a fraction of results before they are revealed: (masked, mask).

    Exactly k = round(error_fraction * n) distinct positions are chosen
    uniformly without replacement.  In "randomize" mode each chosen value
    is replaced by an independent fair coin (which may equal the original);
    in "flip" mode it is inverted.  Consumes the first
    ``qbcsim.rng.mask_words(n, k, mode)`` raw outputs of ``rng`` by the mask
    rule (``read_mask``): (n + 1) // 2 words whose 32-bit halves key the
    positions, the k smallest keys chosen, then (in randomize mode only)
    (k + 1) // 2 words whose halves give the coins, the j-th for the j-th
    smallest position.  Nothing is drawn, and nothing masked, when no
    position is chosen.  The masking is the kernel's mask stage
    (``mask_rows``) on the row.  The mask is the rule's (n,) bool row,
    True at the chosen positions, in direct (pre-ordering) index space.
    """
    outcomes = as_bit_array(outcomes)
    streams.check_fraction("error_fraction", error_fraction)
    if mode not in ERROR_MODES:
        raise ValueError(f"mode must be one of {ERROR_MODES}, got {mode!r}")
    n = len(outcomes)
    k = masked_count(error_fraction, n)
    masked = outcomes.copy()
    if not k:
        return masked, np.zeros(n, dtype=bool)
    raw = rng.bit_generator.random_raw(streams.mask_words(n, k, mode))
    marked, coins = streams.read_mask(raw, n, k, mode)
    mask_rows(masked, marked, coins, mode)
    return masked, marked


def commit(outcomes, bit: int) -> Commitment:
    """Order-encode the committed bit: direct order for 0, reversed for 1 (a
    copy of the kernel's ``order_rows`` on the row, one pass)."""
    outcomes = as_bit_array(outcomes)
    streams.check_bit("bit", bit)
    return Commitment(revealed=order_rows(outcomes, bit).copy())


def unveil(record: MeasurementRecord) -> np.ndarray:
    """Publish the measurement bases, in transmission order regardless of
    the committed bit (only results carry the order encoding)."""
    return record.bases.copy()


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
    (sequence, record, mask, commitment), the mask as ``inject_errors``
    returns it.

    Substreams are derived from config.seed by fixed labels, one per
    participant role, so the same seed replays identically whether the
    steps run in one process or split across the wire.
    """
    seq = prepare_random_sequence(config.n, streams.substream(config.seed, streams.PREPARE))
    bases = choose_random_bases(config.n, streams.substream(config.seed, streams.BASES))
    outcomes = transmit_and_measure(
        seq, bases, config.noise_rate, streams.substream(config.seed, streams.MEASURE)
    )
    masked, mask = inject_errors(
        outcomes,
        config.error_fraction,
        streams.substream(config.seed, streams.ERROR),
        mode=config.error_mode,
    )
    record = MeasurementRecord(bases=bases, outcomes=outcomes)
    commitment = commit(masked, config.committed_bit)
    return seq, record, mask, commitment


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
    scores = score_rows(seq.bases, seq.bits, commitment.revealed, unveiled, policy)
    return session_scores(scores, n)[:2]


def session_scores(scores: Scores, n: int) -> tuple[AlignmentScore, Decision, float, float]:
    """One session's ``scores``, of n photons: (alignment, verdict, and the
    raw direct and reverse correlations, as ``raw_correlations`` gives)."""
    alignment, n = AlignmentScore(scores.sift, scores.direct, scores.reverse), max(n, 1)
    return alignment, scores.decisions, scores.raw_direct / n, scores.raw_reverse / n


def run_honest_session(config: SessionConfig) -> TrialReport:
    """Run one complete honest session and report everything measured: a
    block of one of ``kernel.run_sessions``."""
    _bits, scores = run_sessions([config.seed], config.n, config.error_fraction,
                                 config.noise_rate, config.policy, config.committed_bit,
                                 config.error_mode)
    score, decision, raw_direct, raw_reverse = session_scores(
        Scores._make(field.tolist()[0] for field in scores), config.n)
    correct = (Decision.BIT0, Decision.BIT1)[config.committed_bit]
    decoded_correctly = decision is correct if decision in (Decision.BIT0, Decision.BIT1) else None
    return TrialReport(config, raw_direct, raw_reverse, score, decision, decoded_correctly)
