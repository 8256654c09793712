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
(``rng.SubstreamBatch``), with the same states as ``rng.substream``.  The
draws that read one raw output of a fresh generator, the committed bit and
the preunveil tie coin (bit 31, as ``integers(0, 2)`` reads it), come for
the whole block from those states (``SubstreamBatch.first_raw``), with no
generator built.

A block runs in chunks of about ``CHUNK_ELEMENTS`` photons, in two stages
that move no draw, so the chunk size changes no result.  Per trial, only the
draws, each written into the trial's row of the chunk's (b x n) arrays: the
states, bases and coins (``channel.raw_top_bytes``), the noise and the
random lies (``channel.noise_threshold``), and the mask
(``protocol.draw_mask``: ``Generator.choice`` is the one ``Generator`` call
left), its positions marked in a (b x n) bool array.  Once per chunk, on
the arrays: the mask coins, scattered in row-major order so each row's j-th
coin lands on its j-th smallest position, the measurement select, the
pairings, the sift, the lies, the counts and ``protocol.decide``.
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

_U1, _U31 = np.uint64(1), np.uint64(31)


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
            trials = range(start, min(start + chunk, len(block)))
            hits, decisions = _run_chunk(substreams, trials, bits, ties, n, k, noise_rate,
                                         mode, strategy, policy)
            successes += hits
            tallies.update(decisions.tolist())
    return int(successes), tallies


def _first_coins(substreams: streams.SubstreamBatch, label: str) -> np.ndarray:
    """``integers(0, 2)`` on each fresh ``label`` generator of the block, as
    uint8: bit 31 of its first raw output."""
    return (substreams.first_raw(label) >> _U31 & _U1).astype(np.uint8)


def _run_chunk(substreams, trials, bits, ties, n, k, noise_rate, mode, strategy, policy):
    """Run the trials of one chunk: (successes, verdicts).  ``bits`` and
    ``ties`` hold the block's committed bits and preunveil tie coins."""
    rows = slice(trials.start, trials.stop)
    bits = bits[rows]
    sent, chosen, coins = (np.empty((len(trials), n), dtype=np.uint8) for _ in range(3))
    flips, marked, lies = (np.zeros((len(trials), n), dtype=bool) for _ in range(3))
    masks = np.empty((len(trials), k), dtype=np.uint8)
    threshold = noise_threshold(noise_rate) if noise_rate > 0 else None
    lying = mode == "binding" and strategy.draws
    lie_threshold = noise_threshold(strategy.lie_probability) if lying else None
    # Per trial, only the draws.
    for i, t in enumerate(trials):
        sent[i] = raw_top_bytes(substreams(t, streams.PREPARE), n)
        chosen[i] = raw_top_bytes(substreams(t, streams.BASES), n)
        measure = substreams(t, streams.MEASURE)
        coins[i] = raw_top_bytes(measure, n)
        if threshold is not None:
            flips[i] = measure.random_raw(n) <= threshold
        if k:
            error = np.random.Generator(substreams(t, streams.ERROR))
            positions, masks[i] = draw_mask(n, k, error, "randomize")
            marked[i, positions] = True
        if lying:
            lies[i] = substreams(t, streams.ADVERSARY).random_raw(n) <= lie_threshold
    # Once per chunk: the top bits of each byte, as uniform_codes reads them.
    sent_bases, sent_bits, bases = sent >> 7, sent >> 6 & 1, chosen >> 7
    results = select_outcomes(sent_bases, sent_bits, bases, coins >> 7) ^ flips
    if k:
        # Row-major: each row's j-th coin to its j-th smallest position.  The
        # flat view of the fresh (contiguous) results takes the coins several
        # times faster than a boolean-mask assignment.
        results.reshape(-1)[np.flatnonzero(marked)] = masks.ravel()
    # Bit 0 reveals the results in order, bit 1 reversed, so the direct
    # pairing compares the sent bits with `aligned` for bit 0 and with
    # `crossed` for bit 1, and the reverse pairing the other way round.
    aligned = results == sent_bits
    crossed = results[:, ::-1] == sent_bits
    if mode == "preunveil":
        margin = np.count_nonzero(aligned, axis=1) - np.count_nonzero(crossed, axis=1)
        # A tie takes the ADVERSARY coin, read as the committed bit is.
        guesses = np.where(margin == 0, ties[rows], np.where(margin > 0, bits, 1 - bits))
        return (np.count_nonzero(guesses == bits),
                np.where(guesses, Decision.BIT1, Decision.BIT0))
    if mode == "honest":
        unveiled = bases
    elif lying:  # RebindStrategy.lie's rule, read per row above
        unveiled = bases ^ lies
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
