"""The trial loop behind ``harness.run_cell``, so behind every sweep and
attack evaluation.

A trial makes the draws of ``run_commit_phase`` followed by
``bob_preunveil_guess`` or ``alice_rebind_attack`` and ``score_and_decide``,
in the same order on the same substreams, so its tallies equal theirs.  It
skips the per-trial dataclasses and their validation (the caller's
``SweepSpec`` validates a cell's inputs once), and the generators that
would draw nothing: ERROR when no position is masked, ADVERSARY except for
random-lies above 0.  Trials run in blocks of ``BLOCK_TRIALS``; each block
seeds every substream the cell can draw in one vectorised pass
(``rng.SubstreamBatch``), with the same states as ``rng.substream``.

A block runs in chunks of about ``CHUNK_ELEMENTS`` photons, each as (b x n)
arrays, in steps that move no draw, so the chunk size changes no result.
Every stream's raw words come for the whole chunk from
``SubstreamBatch.raw``: computed from the seeding words, with no generator
built, up to ``rng.RAW_OUTPUTS_CROSSOVER`` words per trial, and read from
each trial's generator above it.  From them: the committed bit and the
preunveil tie coin (bit 31 of the first word, as ``integers(0, 2)`` reads
it, once per block), the states, bases and coins
(``channel.raw_top_bytes``), the noise and the random lies
(``channel.noise_threshold``).  The mask, ``Generator.choice`` and its
coins, is rebuilt from the ERROR words for the whole chunk
(``raw_masks``) on ``choice``'s Floyd path up to ``MASK_CROSSOVER``
masked positions; above it, on ``choice``'s tail-shuffle path, and on the
rare trial whose bounded draw rejects, ``protocol.draw_mask`` draws it on
the trial's generator.  Then, on the arrays: the mask coins, scattered in
row-major order so each row's j-th coin lands on its j-th smallest
position, the measurement select, the pairings, the sift, the lies, the
counts and ``protocol.decide``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from itertools import islice

import numpy as np

from . import rng as streams
from .adversary import RebindStrategy
from .channel import noise_threshold, raw_top_bytes, select_outcomes
from .protocol import Decision, DecisionPolicy, decide, draw_mask, masked_count

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


def run_trials(
    seeds: Iterable[int],
    n: int,
    error_fraction: float,
    noise_rate: float,
    mode: str,
    strategy: RebindStrategy | None = None,
    policy: DecisionPolicy = DecisionPolicy(),
) -> tuple[int, Counter[Decision]]:
    """Run one trial per seed; return (successes, decision tallies).

    Each trial draws its committed bit from its COMMITTED_BIT substream and
    masks in "randomize" mode.  Successes are, by mode: ``honest`` the
    correct-pairing raw matches summed over all trials * n positions;
    ``preunveil`` the early guesses that hit the bit; ``binding`` the
    ``strategy`` rebinds the receiver decodes as the flipped bit.  Tallies
    count the receiver's verdicts under ``policy``; in ``preunveil`` the
    guess fills BIT0/BIT1.  The inputs are taken as valid: ``SweepSpec`` checks them.
    """
    k = masked_count(error_fraction, n)
    successes = 0
    tallies: Counter[Decision] = Counter()
    labels = [streams.COMMITTED_BIT, streams.PREPARE, streams.BASES, streams.MEASURE]
    if k:
        labels.append(streams.ERROR)
    if mode == "preunveil" or (mode == "binding" and strategy.draws):
        labels.append(streams.ADVERSARY)
    chunk = max(1, CHUNK_ELEMENTS // max(n, 1))
    seeds = iter(seeds)
    while block := list(islice(seeds, BLOCK_TRIALS)):
        substreams = streams.SubstreamBatch(block, labels)
        bits = _first_coins(substreams, streams.COMMITTED_BIT)
        ties = _first_coins(substreams, streams.ADVERSARY) if mode == "preunveil" else None
        for start in range(0, len(block), chunk):
            trials = slice(start, min(start + chunk, len(block)))
            hits, decisions = _run_chunk(substreams, trials, bits, ties, n, k, noise_rate,
                                         mode, strategy, policy)
            successes += hits
            tallies.update(decisions.tolist())
    return int(successes), tallies


def _first_coins(substreams: streams.SubstreamBatch, label: str) -> np.ndarray:
    """``integers(0, 2)`` on each fresh ``label`` generator of the block, as
    uint8: bit 31 of its first raw output."""
    return (substreams.raw(label, 1)[:, 0] >> _U31 & _U1).astype(np.uint8)


def _run_chunk(substreams, trials, bits, ties, n, k, noise_rate, mode, strategy, policy):
    """Run the trials of one chunk: (successes, verdicts).  ``trials`` is a
    slice of the block; ``bits`` and ``ties`` hold the block's committed
    bits and preunveil tie coins."""
    bits = bits[trials]
    words = (n + 1) // 2

    def top_bytes(raw):
        return raw_top_bytes(raw, n)

    def top_bytes_then_noise(raw):
        return np.concatenate([top_bytes(raw), raw[..., words:] <= threshold], axis=-1)

    sent = substreams.raw(streams.PREPARE, words, trials, top_bytes)
    bases = substreams.raw(streams.BASES, words, trials, top_bytes) >> 7
    # The coins, then only above rate 0 the noise, from one stream.
    if noise_rate > 0:
        threshold = noise_threshold(noise_rate)
        measured = substreams.raw(streams.MEASURE, words + n, trials, top_bytes_then_noise)
    else:
        measured = substreams.raw(streams.MEASURE, words, trials, top_bytes)
    # The top bits of each byte, as uniform_codes reads them.
    sent_bases, sent_bits = sent >> 7, sent >> 6 & 1
    results = select_outcomes(sent_bases, sent_bits, bases, measured[:, :n] >> 7)
    if noise_rate > 0:
        results ^= measured[:, n:]
    if k:
        marked, coins = chunk_masks(substreams, trials, n, k)
        # Row-major: each row's j-th coin to its j-th smallest position.  The
        # flat view of the fresh (contiguous) results takes the coins several
        # times faster than a boolean-mask assignment.
        results.reshape(-1)[np.flatnonzero(marked)] = coins.ravel()
    # Bit 0 reveals the results in order, bit 1 reversed, so the direct
    # pairing compares the sent bits with `aligned` for bit 0 and with
    # `crossed` for bit 1, and the reverse pairing the other way round.
    aligned = results == sent_bits
    crossed = results[:, ::-1] == sent_bits
    if mode == "preunveil":
        margin = np.count_nonzero(aligned, axis=1) - np.count_nonzero(crossed, axis=1)
        # A tie takes the ADVERSARY coin, read as the committed bit is.
        guesses = np.where(margin == 0, ties[trials], np.where(margin > 0, bits, 1 - bits))
        return (np.count_nonzero(guesses == bits),
                np.where(guesses, Decision.BIT1, Decision.BIT0))
    if mode == "honest":
        unveiled = bases
    elif strategy.draws:  # RebindStrategy.lie's rule, on the raw words
        threshold = noise_threshold(strategy.lie_probability)
        unveiled = bases ^ substreams.raw(streams.ADVERSARY, n, trials,
                                          lambda raw: raw <= threshold)
    else:
        unveiled = strategy.lie(bases, None)
    sifted = sent_bases == unveiled
    direct = np.count_nonzero(aligned & sifted, axis=1)
    reverse = np.count_nonzero(crossed & sifted, axis=1)
    direct, reverse = np.where(bits, reverse, direct), np.where(bits, direct, reverse)
    decisions = decide(np.count_nonzero(sifted, axis=1), direct, reverse, policy)
    if mode == "honest":
        return np.count_nonzero(aligned), decisions
    return np.count_nonzero(decisions == np.where(bits, Decision.BIT0, Decision.BIT1)), decisions


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
