"""The trial kernel behind every in-process session: sweeps and attacks
(``run_trials``), single sessions (``run_sessions``; ``run_honest_session``
is a block of one), and the receiver's score stage (``score_rows``), which
``score_and_decide`` and the wire's Bob call on their (n,) row.  The verdict
(``Decision``, ``DecisionPolicy``, ``decide``) and ``masked_count`` live
here; ``protocol`` imports them.

A trial makes the draws of ``run_commit_phase`` followed by
``bob_preunveil_guess`` or ``alice_rebind_attack`` and ``score_and_decide``,
in the same order on the same substreams, so its counts equal theirs.  It
skips the per-trial dataclasses and their validation (``SweepSpec`` or
``SessionConfig`` validates the inputs once).  Trials run in blocks of
``BLOCK_TRIALS`` of the seeds (a uint64 array, such as a cell's
``rng.trial_seeds``, or any iterable of ints); each block hashes the state
words of all six labels in one vectorised pass (``rng.SubstreamBatch``),
with the same states as ``rng.substream``, and takes its committed bits and
preunveil tie coins from it (``SubstreamBatch.coins``).  No generator that
would draw nothing is built or read: COMMITTED_BIT when the bit is given,
ERROR when no position is masked, ADVERSARY outside preunveil and the lies
that draw.

Each protocol rule is one stage that takes one session's (n,) row or a
chunk's (b x n) rows and validates nothing, and the role functions, the
wire parties and the kernel all call it: the state split and the
measurement (``channel.split_states``, ``channel.measure_rows``), the mask
(its marked rows by ``rng.read_mask``, applied by ``mask_rows``), the
order encoding (``order_rows``), the score stage (``score_rows``), the lie
(``RebindStrategy.lie``) and the early guess (``early_guess``).  A block
runs in chunks of about ``CHUNK_ELEMENTS`` photons, each as (b x n)
arrays, in steps that move no draw, so the chunk size changes no result.
The chunk loop (``_chunks``) holds no protocol rule: it reads each stream's
raw words for the whole chunk as one (b x count) array
(``SubstreamBatch.raw``; the masks' marked rows and coins by
``SubstreamBatch.masks``, in pieces) and hands them to the stages, the
score stage included, as (b x n) rows whatever b is.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from . import rng as streams
from .channel import measure_rows, split_states

if TYPE_CHECKING:
    from .adversary import RebindStrategy

#: Trials per seeding pass: bounds the pass's arrays whatever the trial count.
BLOCK_TRIALS = 1024
#: Photons per chunk of a block: bounds the chunk's (b x n) arrays.
CHUNK_ELEMENTS = 2**15

class Decision(Enum):
    """The receiver's verdict for one session."""

    BIT0 = "bit0"
    BIT1 = "bit1"
    AMBIGUOUS = "ambiguous"
    CHEAT_SUSPECTED = "cheat_suspected"


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
        streams.check_fraction("separation_delta", self.separation_delta)
        streams.check_fraction("plausibility_floor", self.plausibility_floor)
        streams.check_count("min_sift", self.min_sift)


#: Absorbs float representation error in rate comparisons at exact rule
#: boundaries (e.g. 60/100 - 50/100 vs a 0.10 threshold); far below the
#: 1/sift_size rate granularity of any feasible session.
_RATE_EPS = 1e-12


#: The verdict of the first rule that holds, indexed by the bit mask of the
#: rules that do: 8 the sift is too small, 4 both rates are below the floor,
#: 2 the direct rate leads by delta, 1 the reverse rate does.
_VERDICTS = np.array([Decision.AMBIGUOUS, Decision.BIT1, Decision.BIT0, Decision.BIT0]
                     + [Decision.CHEAT_SUSPECTED] * 4 + [Decision.AMBIGUOUS] * 8, dtype=object)

#: The clean read of each bit, indexed by the bit.
_BITS = np.array([Decision.BIT0, Decision.BIT1], dtype=object)


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


def masked_count(error_fraction: float, n: int) -> int:
    """How many of n results ``protocol.inject_errors`` masks."""
    return int(round(error_fraction * n))


def mask_rows(results: np.ndarray, marked: np.ndarray, coins, mode: str) -> None:
    """Mask one session's (n,) row or a chunk's (b x n) rows of ``results`` in
    place, unvalidated, where ``marked`` (bool, the shape of ``results``, as
    ``rng.read_mask`` gives it) is True: in "flip" mode the marked results
    are inverted; in "randomize" mode each row's j-th ``coins`` goes to its
    j-th smallest marked position, through the flat positions of the
    (contiguous) ``results``."""
    if mode == "flip":
        results ^= marked
    else:
        results.reshape(-1)[np.flatnonzero(marked)] = coins.ravel()


def order_rows(results: np.ndarray, bits) -> np.ndarray:
    """The order encoding: bit 0 reveals a row's results in order, bit 1
    reversed.  A chunk's (b x n) rows of ``results`` with their bits are
    encoded in place and returned; one session's (n,) row with its bit comes
    back as a view of it, reversed for bit 1."""
    if results.ndim == 1:
        return results[::-1] if bits else results
    results[bits == 1] = results[bits == 1, ::-1]
    return results


def early_guess(margin, tie):
    """The receiver's early read of the committed bit off the raw pairings:
    0 where the direct pairing leads (``margin``, direct minus reverse
    matches or rates, is above 0), 1 where the reverse one does, and on a
    tie the ADVERSARY coin ``tie()``, called only when some margin is 0.
    On one session's margin a 0-d array, on a chunk's an array."""
    return np.where(margin == 0, tie() if np.any(margin == 0) else 0, margin < 0)


#: ``score_rows``' fields, arrays over a block's rows or ints for one row: sift size,
#: sifted and raw (all positions) matches under both pairings, and the verdict.
Scores = namedtuple("Scores", "sift direct reverse raw_direct raw_reverse decisions")


def score_rows(sent_bases, sent_bits, revealed, unveiled, policy: DecisionPolicy) -> Scores:
    """The receiver's scores of one session's (n,) row, as ints and a ``Decision``, or of
    (b x n) rows, as arrays; unvalidated.  Direct pairs revealed[i] with sent[i], reverse
    revealed[n-1-i] (a contiguous copy: the reversed view is slower); the sift keeps the
    positions where the sent and ``unveiled`` bases agree.  ``unveiled`` None: raw counts only."""
    direct_pairs = revealed == sent_bits
    reverse_pairs = np.ascontiguousarray(revealed[..., ::-1]) == sent_bits
    raw_direct, raw_reverse = _row_counts(direct_pairs), _row_counts(reverse_pairs)
    if unveiled is None:
        return Scores(None, None, None, raw_direct, raw_reverse, None)
    sifted = sent_bases == unveiled
    s = _row_counts(sifted)
    direct, reverse = _row_counts(direct_pairs & sifted), _row_counts(reverse_pairs & sifted)
    return Scores(s, direct, reverse, raw_direct, raw_reverse, decide(s, direct, reverse, policy))


def _row_counts(marks: np.ndarray) -> int | np.ndarray:
    """The True entries of an (n,) row as an int, or of each (b x n) row as an int32 array."""
    return int(np.count_nonzero(marks)) if marks.ndim == 1 else marks.sum(axis=1, dtype=np.int32)


def run_trials(seeds: Iterable[int], n: int, error_fraction: float, noise_rate: float, mode: str,
               strategy: RebindStrategy | None = None,
               policy: DecisionPolicy = DecisionPolicy()) -> tuple[int, Counter[Decision]]:
    """Run one trial per seed; return (successes, decision tallies).

    Each trial draws its committed bit from its COMMITTED_BIT substream and
    masks in "randomize" mode.  Successes are, by mode: ``honest`` the
    correct-pairing raw matches summed over all trials * n positions;
    ``preunveil`` the early guesses that hit the bit; ``binding`` the
    ``strategy`` rebinds the receiver decodes as the flipped bit.  Tallies
    count the receiver's verdicts under ``policy``; in ``preunveil`` the
    guess fills BIT0/BIT1.  The inputs are taken as valid: ``SweepSpec`` checks them.
    """
    successes = 0
    tallies: Counter[Decision] = Counter()
    for bits, scores in _chunks(seeds, n, error_fraction, noise_rate, mode, strategy, policy):
        tallies.update(scores.decisions.tolist())
        if mode == "honest":
            successes += np.where(bits, scores.raw_reverse, scores.raw_direct).sum()
        else:
            wanted = bits if mode == "preunveil" else 1 - bits
            successes += np.count_nonzero(scores.decisions == _BITS[wanted])
    return int(successes), tallies


def run_sessions(seeds: Iterable[int], n: int, error_fraction: float, noise_rate: float,
                 policy: DecisionPolicy = DecisionPolicy(), bit: int | None = None,
                 error_mode: str = "randomize") -> tuple[np.ndarray, Scores]:
    """Run one honest session per seed: (committed bits, ``Scores``).

    Each commits ``bit``, or else the bit its COMMITTED_BIT substream draws,
    and masks in ``error_mode``, with the draws of ``run_commit_phase`` on
    that ``SessionConfig``.  The inputs are taken as valid: ``SessionConfig``
    checks them.
    """
    bits, scores = zip(*_chunks(seeds, n, error_fraction, noise_rate, "honest", None, policy,
                                bit, error_mode))
    return np.concatenate(bits), Scores(*map(np.concatenate, zip(*scores)))


def _chunks(seeds, n, error_fraction, noise_rate, mode, strategy, policy, bit=None,
            error_mode="randomize"):
    """Yield (committed bits, ``Scores``) for each chunk of the trials, in
    seed order: each chunk's raw words, read once per stream, through the
    stages.  In ``preunveil`` the verdicts are the guesses and the sifted
    fields None."""
    k = masked_count(error_fraction, n)
    chunk = max(1, CHUNK_ELEMENTS // max(n, 1))
    if not isinstance(seeds, np.ndarray):
        seeds = np.fromiter(seeds, np.uint64)
    for begin in range(0, len(seeds), BLOCK_TRIALS):
        block = seeds[begin:begin + BLOCK_TRIALS]
        substreams = streams.SubstreamBatch(block)
        bits = (substreams.coins(streams.COMMITTED_BIT) if bit is None
                else np.full(len(block), bit, dtype=np.uint8))
        ties = substreams.coins(streams.ADVERSARY) if mode == "preunveil" else None
        for start in range(0, len(block), chunk):
            trials = slice(start, min(start + chunk, len(block)))
            sent_bases, sent_bits = split_states(
                streams.top_bits(substreams.raw(streams.PREPARE, (n + 1) // 2, trials), n, 2))
            bases = streams.top_bits(substreams.raw(streams.BASES, (n + 1) // 2, trials), n, 1)
            results = measure_rows(sent_bases, sent_bits, bases, noise_rate,
                                   lambda count: substreams.raw(streams.MEASURE, count, trials))
            if k:
                mask_rows(results, *substreams.masks(trials, n, k, error_mode), error_mode)
            revealed = order_rows(results, bits[trials])
            if mode == "binding":
                unveiled = strategy.lie(bases, substreams.raw(streams.ADVERSARY, n, trials)
                                        if strategy.draws else None)
            else:
                unveiled = bases if mode == "honest" else None
            scores = score_rows(sent_bases, sent_bits, revealed, unveiled, policy)
            if mode == "preunveil":
                guesses = early_guess(scores.raw_direct - scores.raw_reverse,
                                      lambda: ties[trials])
                scores = scores._replace(decisions=_BITS[guesses])
            yield bits[trials], scores
