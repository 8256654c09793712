"""The trial kernel behind every in-process session: sweeps and attacks
(``run_trials``), single sessions (``run_sessions``; ``run_honest_session``
is a block of one), and the receiver's score stage (``score_rows``), which
``score_and_decide`` and the wire's Bob call on their (n,) row.  The verdict
(``Decision``, ``DecisionPolicy``, ``decide``) and the mask draw
(``masked_count``, ``draw_mask``) live here; ``protocol`` imports them.

A trial makes the draws of ``run_commit_phase`` followed by
``bob_preunveil_guess`` or ``alice_rebind_attack`` and ``score_and_decide``,
in the same order on the same substreams, so its counts equal theirs.  It
skips the per-trial dataclasses and their validation (``SweepSpec`` or
``SessionConfig`` validates the inputs once), and the generators that
would draw nothing: COMMITTED_BIT when the bit is given, ERROR when no
position is masked, ADVERSARY except for random-lies above 0.  Trials run
in blocks of ``BLOCK_TRIALS``; each block seeds every substream it can draw
in one vectorised pass (``rng.SubstreamBatch``), with the same states as
``rng.substream``.

A block runs in chunks of about ``CHUNK_ELEMENTS`` photons, each as (b x n)
arrays, in steps that move no draw, so the chunk size changes no result.
The draw stage reads every stream's raw words for the whole chunk as one
(b x count) array from ``SubstreamBatch.raw``: computed from the seeding
words, with no generator built, up to ``rng.RAW_OUTPUTS_CROSSOVER`` words
per trial, and filled from each trial's generator above it.  Each array is
reduced once: the committed bit and the preunveil tie coin (bit 31 of the
first word, as ``integers(0, 2)`` reads it, once per block), the states,
bases and coins (``channel.raw_top_bytes``), the noise
(``channel.noise_threshold``), and the lies (``RebindStrategy.lie``, the
rule ``alice_rebind_attack`` applies to one session's row).  The mask,
``Generator.choice`` and its coins, is rebuilt from the ERROR words for the
whole chunk (``raw_masks``) on ``choice``'s Floyd path up to
``MASK_CROSSOVER`` masked positions; above it, on ``choice``'s tail-shuffle
path, and on the rare trial whose bounded draw rejects, ``draw_mask`` draws
it on the trial's generator.  "flip" inverts the marked results and uses no coin.
Then the select, the order encoding and the score stage, on the arrays, or
on its (n,) row in a chunk of one (as is every chunk above n = 16 384).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from . import rng as streams
from .channel import noise_threshold, raw_coins, raw_top_bytes, select_outcomes

if TYPE_CHECKING:
    from .adversary import RebindStrategy

#: Trials per seeding pass: bounds the pass's arrays whatever the trial count.
BLOCK_TRIALS = 1024
#: Photons per chunk of a block: bounds the chunk's (b x n) arrays.
CHUNK_ELEMENTS = 2**15

#: Mask sizes above which ``Generator.choice`` beats ``raw_masks`` (CHANGES.md
#: has the timings).
MASK_CROSSOVER = 384

#: ``choice(n, k, replace=False)`` shuffles a whole arange in place of
#: Floyd's draws when n is above this and k above n // 50.
_CHOICE_TAIL_SHUFFLE_N = 10_000

_U1, _U31, _U32 = np.uint64(1), np.uint64(31), np.uint64(32)
_LOW32, _MASK32 = np.uint64(2**32 - 1), 2**32 - 1


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
        for name in ("separation_delta", "plausibility_floor"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.min_sift < 0:
            raise ValueError(f"min_sift must be >= 0, got {self.min_sift}")


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


def draw_mask(
    n: int, k: int, rng: np.random.Generator, mode: str
) -> tuple[np.ndarray, np.ndarray | None]:
    """The draws of ``protocol.inject_errors`` on n results, unvalidated:
    (positions, in ``choice``'s order, replacement coins), the coins None
    in "flip" mode.  The j-th coin replaces the result at the j-th smallest
    position.  The coins are ``rng.integers(0, 2, size=k)``, read from the
    raw words (``channel.raw_coins``)."""
    if not k:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
    positions = rng.choice(n, size=k, replace=False)
    if mode == "randomize":
        return positions, raw_coins(rng.bit_generator, k)
    return positions, None


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
    seed order; in ``preunveil`` the verdicts are the guesses and the
    sifted fields None."""
    k = masked_count(error_fraction, n)
    labels = [streams.PREPARE, streams.BASES, streams.MEASURE]
    if bit is None:
        labels.append(streams.COMMITTED_BIT)
    if k:
        labels.append(streams.ERROR)
    if mode == "preunveil" or (mode == "binding" and strategy.draws):
        labels.append(streams.ADVERSARY)
    chunk = max(1, CHUNK_ELEMENTS // max(n, 1))
    seeds = iter(seeds)
    while block := list(islice(seeds, BLOCK_TRIALS)):
        substreams = streams.SubstreamBatch(block, labels)
        bits = (_first_coins(substreams, streams.COMMITTED_BIT) if bit is None
                else np.full(len(block), bit, dtype=np.uint8))
        ties = _first_coins(substreams, streams.ADVERSARY) if mode == "preunveil" else None
        for start in range(0, len(block), chunk):
            trials = slice(start, min(start + chunk, len(block)))
            yield bits[trials], _run_chunk(substreams, trials, bits[trials], ties, n, k,
                                           noise_rate, mode, strategy, policy, error_mode)


def _first_coins(substreams: streams.SubstreamBatch, label: str) -> np.ndarray:
    """``integers(0, 2)`` on each fresh ``label`` generator of the block, as
    uint8: bit 31 of its first raw output."""
    return (substreams.raw(label, 1)[:, 0] >> _U31 & _U1).astype(np.uint8)


def _run_chunk(substreams, trials, bits, ties, n, k, noise_rate, mode, strategy, policy,
               error_mode):
    """The draw stage of one chunk, then its score stage: its ``Scores``.
    ``trials`` is a slice of the block, ``bits`` the chunk's committed bits
    and ``ties`` the block's preunveil tie coins."""
    words = (n + 1) // 2
    sent = raw_top_bytes(substreams.raw(streams.PREPARE, words, trials), n)
    bases = raw_top_bytes(substreams.raw(streams.BASES, words, trials), n) >> 7
    # The coins, then only above rate 0 the noise, from one stream.
    measured = substreams.raw(streams.MEASURE, words + (n if noise_rate > 0 else 0), trials)
    # The top bits of each byte, as uniform_codes reads them.
    sent_bases, sent_bits = sent >> 7, sent >> 6 & 1
    results = select_outcomes(sent_bases, sent_bits, bases, raw_top_bytes(measured, n) >> 7)
    if noise_rate > 0:
        results ^= measured[:, words:] <= noise_threshold(noise_rate)
    if k:
        marked, coins = chunk_masks(substreams, trials, n, k)
        if error_mode == "flip":
            results ^= marked
        else:
            # Row-major: each row's j-th coin to its j-th smallest position.
            # The flat view of the fresh (contiguous) results takes the coins
            # several times faster than a boolean-mask assignment.
            results.reshape(-1)[np.flatnonzero(marked)] = coins.ravel()
    # The commitment, in place: bit 0 reveals the results in order, bit 1 reversed.
    revealed, reversed_rows = results, bits == 1
    revealed[reversed_rows] = results[reversed_rows, ::-1]
    if mode == "binding":
        unveiled = strategy.lie(bases, substreams.raw(streams.ADVERSARY, n, trials)
                                if strategy.draws else None)
    else:
        unveiled = bases if mode == "honest" else None
    if len(revealed) > 1:
        scores = score_rows(sent_bases, sent_bits, revealed, unveiled, policy)
    else:  # One row: count_nonzero counts its (n,) row faster than a (1 x n) row sum.
        row = score_rows(sent_bases[0], sent_bits[0], revealed[0],
                         None if unveiled is None else unveiled[0], policy)
        scores = Scores._make(None if field is None else np.array([field]) for field in row)
    if mode == "preunveil":  # The guess; a tie takes the ADVERSARY coin, read as the bit is.
        margin = scores.raw_direct - scores.raw_reverse
        scores = scores._replace(decisions=_BITS[np.where(margin == 0, ties[trials], margin < 0)])
    return scores


def chunk_masks(substreams: streams.SubstreamBatch, trials: slice, n: int, k: int):
    """The chunk's masks: their positions marked in a (b x n) bool array,
    and their coins (b x k).  Rebuilt from raw ERROR words (``raw_masks``)
    where ``choice`` takes Floyd's path and k is at most ``MASK_CROSSOVER``;
    elsewhere, and on a row a Lemire step rejects, ``draw_mask`` draws them
    on the trial's generator."""
    b = trials.stop - trials.start
    if k <= MASK_CROSSOVER and not (n > _CHOICE_TAIL_SHUFFLE_N and k > n // 50):
        raw = substreams.raw(streams.ERROR, mask_words(n, k), trials)
        positions, coins, exact = raw_masks(raw, n, k)
    else:
        positions, coins = np.empty((b, k), dtype=np.int64), np.empty((b, k), dtype=np.uint8)
        exact = np.zeros(b, dtype=bool)
    for i in np.flatnonzero(~exact):
        error = np.random.Generator(substreams(trials.start + i, streams.ERROR))
        positions[i], coins[i] = draw_mask(n, k, error, "randomize")
    marked = np.zeros((b, n), dtype=bool)
    marked.reshape(-1)[(positions + np.arange(b)[:, None] * n).ravel()] = True
    return marked, coins


def _choice_bounds(n: int, k: int) -> np.ndarray:
    """The ranges of the bounded draws of ``choice(n, k, replace=False)`` on
    Floyd's path: Floyd's n - k + 1 … n (a range of 1 draws nothing), then
    the shuffle's k … 2."""
    return np.concatenate([np.arange(max(n - k + 1, 2), n + 1),
                           np.arange(k, 1, -1)]).astype(np.uint64)


def mask_words(n: int, k: int) -> int:
    """The raw outputs that ``draw_mask(n, k, rng, "randomize")`` reads from
    a fresh generator on ``choice``'s Floyd path when no Lemire step
    rejects: the bounded draws, then k coins, one 32-bit half each."""
    return (len(_choice_bounds(n, k)) + k + 1) // 2


def raw_masks(raw: np.ndarray, n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``draw_mask(n, k, Generator(g), "randomize")`` for every row of
    ``raw``, each the first ``mask_words(n, k)`` raw outputs of a fresh
    generator g, for 0 < k <= n on ``choice``'s Floyd path (not n > 10 000
    with k > n // 50): (positions (b x k), in no set order, coins (b x k),
    exact (b,)).  A row is exact unless a Lemire step rejects; the others
    read more halves than these, and hold no mask.

    ``choice`` draws 32-bit halves, low half first, each bounded draw by
    Lemire's rule: the high word of half * range, unless the low word falls
    below (2**32 - range) % range.  Floyd's step i (i < k) draws v in
    [0, n - k + i] and adds v, or n - k + i when v is in already; then
    ``_shuffle_int`` permutes the k positions, which moves none of them
    into or out of the set; then the k coins are the top bits of the next
    halves.  v is in already when an earlier step drew it too, or when step
    v - (n - k), before i, added its own n - k + i' in place of its draw.
    A stable sort of (v, i) finds the first; the second follows a chain of
    such steps back, resolved by iterating to a fixed point.
    """
    b = len(raw)
    halves = raw.astype("<u8", copy=False).view("<u4")
    bounds = _choice_bounds(n, k)
    drawn = halves[:, :len(bounds)] * bounds
    exact = np.all(drawn & _LOW32 >= (2**32 - bounds) % bounds, axis=1)
    coins = (halves[:, len(bounds):len(bounds) + k] >> 31).astype(np.uint8)
    values = np.zeros((b, k), dtype=np.int64)
    values[:, int(k == n):] = drawn[:, :len(bounds) - (k - 1)] >> _U32
    steps = np.arange(k)
    keys = np.sort(values << 32 | steps, axis=1)
    offsets = np.arange(b)[:, None] * k
    repeat = np.zeros((b, k), dtype=bool)
    repeat.reshape(-1)[offsets + (keys[:, 1:] & _MASK32)] = keys[:, 1:] >> 32 == keys[:, :-1] >> 32
    earlier = values - (n - k)
    linked = (earlier >= 0) & (earlier < steps) & ~repeat
    links = offsets + np.where(linked, earlier, 0)
    replaced = repeat
    while True:
        nxt = repeat | linked & replaced.reshape(-1)[links]
        if np.array_equal(nxt, replaced):
            break
        replaced = nxt
    return np.where(replaced, n - k + steps, values), coins, exact
