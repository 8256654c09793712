"""The per-trial loop behind sweeps and attack estimators.

A trial makes the draws of ``run_commit_phase`` followed by
``bob_preunveil_guess`` or ``alice_rebind_attack`` and ``score_and_decide``,
in the same order on the same substreams, so its tallies equal theirs.  It
skips the per-trial dataclasses and their validation, and the generators
that would draw nothing: ERROR when no position is masked, ADVERSARY except
on a preunveil tie or for random-lies.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from . import rng as streams
from .channel import draw_states, measure_states
from .protocol import (
    Decision,
    DecisionPolicy,
    SessionConfig,
    choose_random_bases,
    decide,
    draw_mask,
    masked_count,
)

if TYPE_CHECKING:
    from .adversary import RebindStrategy


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
    guess fills BIT0/BIT1.
    """
    SessionConfig(n=n, committed_bit=0, error_fraction=error_fraction,  # validation only
                  noise_rate=noise_rate, policy=policy)
    k = masked_count(error_fraction, n)
    successes = 0
    tallies: Counter[Decision] = Counter()
    for seed in seeds:
        bit = int(streams.substream(seed, streams.COMMITTED_BIT).integers(0, 2))
        sent_bases, sent_bits = draw_states(n, streams.substream(seed, streams.PREPARE))
        bases = choose_random_bases(n, streams.substream(seed, streams.BASES))
        results = measure_states(sent_bases, sent_bits, bases, noise_rate,
                                 streams.substream(seed, streams.MEASURE))
        if k:
            positions, values = draw_mask(results, k, streams.substream(seed, streams.ERROR),
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
                guess = int(streams.substream(seed, streams.ADVERSARY).integers(0, 2))
            successes += guess == bit
            tallies[Decision.BIT1 if guess else Decision.BIT0] += 1
            continue
        if mode == "honest":
            successes += np.count_nonzero(aligned)
            unveiled = bases
        else:
            unveiled = strategy.lie(
                bases, lambda: streams.substream(seed, streams.ADVERSARY))
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
