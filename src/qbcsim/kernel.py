"""The per-trial loop behind ``harness.run_cell``, so behind every sweep and
attack evaluation.

A trial makes the draws of ``run_commit_phase`` followed by
``bob_preunveil_guess`` or ``alice_rebind_attack`` and ``score_and_decide``,
in the same order on the same substreams, so its tallies equal theirs.  It
skips the per-trial dataclasses and their validation (the caller's
``SweepSpec`` validates a cell's inputs once), and the generators that
would draw nothing: ERROR when no position is masked, ADVERSARY except on a
preunveil tie or for random-lies.  Trials run in blocks of
``BLOCK_TRIALS``; each block seeds every substream the cell can draw in one
vectorised pass (``rng.SubstreamBatch``), with the same states as
``rng.substream``.

The kernel draws through the role functions' own helpers
(``draw_states``, ``choose_random_bases``, ``measure_states``,
``draw_mask``), so both paths share one draw path.  The first three read
PCG64's raw outputs (``channel.uniform_codes``), as does the committed bit,
taken here from one raw output; the ERROR and ADVERSARY draws stay
``Generator`` calls.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from itertools import islice

import numpy as np

from . import rng as streams
from .adversary import RebindStrategy
from .channel import draw_states, measure_states
from .protocol import (
    Decision,
    DecisionPolicy,
    choose_random_bases,
    decide,
    draw_mask,
    masked_count,
)

#: Trials per seeding pass: bounds the pass's arrays whatever the trial count.
BLOCK_TRIALS = 1024


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
    seeds = iter(seeds)
    while block := list(islice(seeds, BLOCK_TRIALS)):
        substreams = streams.SubstreamBatch(block, labels)
        for t in range(len(block)):
            # integers(0, 2) on a fresh generator: bit 31 of its first raw output.
            bit = substreams(t, streams.COMMITTED_BIT).bit_generator.random_raw() >> 31 & 1
            sent_bases, sent_bits = draw_states(n, substreams(t, streams.PREPARE))
            bases = choose_random_bases(n, substreams(t, streams.BASES))
            results = measure_states(sent_bases, sent_bits, bases, noise_rate,
                                     substreams(t, streams.MEASURE))
            if k:
                positions, values = draw_mask(results, k, substreams(t, streams.ERROR),
                                              "randomize")
                results[positions] = values
            # Bit 0 reveals the results in order, bit 1 reversed, so the direct
            # pairing compares the sent bits with `aligned` for bit 0 and with
            # `crossed` for bit 1, and the reverse pairing the other way round.
            aligned = results == sent_bits
            crossed = results[::-1] == sent_bits
            if mode == "preunveil":
                margin = np.count_nonzero(aligned) - np.count_nonzero(crossed)
                if margin:
                    guess = bit if margin > 0 else 1 - bit
                else:
                    guess = int(substreams(t, streams.ADVERSARY).integers(0, 2))
                successes += guess == bit
                tallies[Decision.BIT1 if guess else Decision.BIT0] += 1
                continue
            if mode == "honest":
                successes += np.count_nonzero(aligned)
                unveiled = bases
            else:
                unveiled = strategy.lie(
                    bases, lambda: substreams(t, streams.ADVERSARY))
            sifted = sent_bases == unveiled
            direct = int(np.count_nonzero(aligned & sifted))
            reverse = int(np.count_nonzero(crossed & sifted))
            if bit:
                direct, reverse = reverse, direct
            decision = decide(int(np.count_nonzero(sifted)), direct, reverse, policy)
            if mode == "binding":
                successes += decision is (Decision.BIT1 if bit == 0 else Decision.BIT0)
            tallies[decision] += 1
    return int(successes), tallies
