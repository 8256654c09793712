"""Deterministic seed derivation and named random substreams.

Every random decision in a session comes from its own named substream, so
replaying a session with one participant's behaviour changed leaves every
other participant's draws untouched.  A substream seed is derived by
hashing the master seed together with a label path (one SHA-256 of the
decimal master and the labels joined by ``/``, first 8 bytes read
little-endian); the derivation is pure arithmetic on the label strings, so
it is stable across platforms, processes, and interpreter sessions.

The networked mode relies on this: the sender, the committer, and the
channel referee each hold only the master seed and rebuild exactly the
substreams they own, which makes a wire session reproduce the in-process
session draw for draw.

``substream`` is the reference path.  ``SubstreamBatch`` builds the same
generators for a block of trials at once.  It hashes each (master, label)
pair with one SHA-256 call and reads all the seeds with one
``np.frombuffer``.  ``PCG64(seed)`` seeds itself from
``SeedSequence(seed).generate_state(4, np.uint64)``, and the batch computes
those words for every seed of the block in one vectorised numpy pass, then
hands them to ``PCG64`` through a seed-sequence object that returns them.
That pass can be vectorised because ``SeedSequence``'s hash constants evolve
by multiplication alone, independently of the data: for a 64-bit seed (two
entropy words, the rest of the pool zero) the whole hash is one fixed
sequence of uint32 xor/multiply/shift steps, applied element-wise.  Each
``PCG64`` is built only when asked for.  ``tests/test_rng.py`` pins the
batch to ``substream``, state and draws, on edge-case and random seeds.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Substream labels used by a protocol session.  In wire mode they are split
# across processes: the sender keeps PREPARE, the committer keeps BASES and
# ERROR, and the channel owner (the referee) keeps MEASURE.
PREPARE = "bob-prepare"
BASES = "alice-bases"
MEASURE = "channel-measure"
ERROR = "alice-error"
ADVERSARY = "adversary"
COMMITTED_BIT = "committed-bit"


def derive_seed(master: int, *labels: int | str) -> int:
    """Derive a 64-bit child seed from ``master`` and a label path.

    Labels may be strings or integers (e.g. cell and trial indices); they
    are joined with ``/`` separators before hashing, so ``("a", 1)`` and
    ``("a1",)`` derive different seeds.
    """
    path = "/".join([str(int(master)), *map(str, labels)])
    return int.from_bytes(hashlib.sha256(path.encode()).digest()[:8], "little")


def substream(master: int, *labels: int | str) -> np.random.Generator:
    """Return an independent generator for the given label path."""
    return np.random.Generator(np.random.PCG64(derive_seed(master, *labels)))


# numpy's SeedSequence: pool of 4 uint32 words, hash constants and mixers.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)


def _hash_chain(init: int, mult: int, steps: int) -> list[tuple[np.uint32, np.uint32]]:
    """(xor, multiply) constants of ``steps`` successive hash steps: each
    step xors with the running constant, advances it, and multiplies by it."""
    chain = []
    for _ in range(steps):
        nxt = init * mult & _MASK32
        chain.append((np.uint32(init), np.uint32(nxt)))
        init = nxt
    return chain


# mix_entropy hashes each pool word once, then each of the 4 * 3 ordered
# pairs once; generate_state(4, uint64) hashes 8 words.
_MIX_CHAIN = _hash_chain(_INIT_A, _MULT_A, _POOL_SIZE + _POOL_SIZE * (_POOL_SIZE - 1))
_STATE_CHAIN = _hash_chain(_INIT_B, _MULT_B, 8)


def _hash(value: np.ndarray, xor: np.uint32, mult: np.uint32) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def seed_state_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every uint64 ``s``.

    Returns an array of shape ``seeds.shape + (4,)``.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros(seeds.shape, dtype=np.uint32)
    entropy = [(seeds & np.uint64(_MASK32)).astype(np.uint32),
               (seeds >> np.uint64(32)).astype(np.uint32)]
    entropy += [zero] * (_POOL_SIZE - len(entropy))
    steps = iter(_MIX_CHAIN)
    pool = [_hash(word, *next(steps)) for word in entropy]
    mult_l, mult_r = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = mult_l * pool[dst] - mult_r * _hash(pool[src], *next(steps))
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    state = [_hash(pool[i % _POOL_SIZE], *consts).astype(np.uint64)
             for i, consts in enumerate(_STATE_CHAIN)]
    return np.stack([lo | hi << np.uint64(32) for lo, hi in zip(state[::2], state[1::2])],
                    axis=-1)


class _StateWords(ISeedSequence):
    """A seed sequence that hands a bit generator precomputed state words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for generate_state(4, np.uint64): exactly these words.
        return self.words


class SubstreamBatch:
    """The substreams of a block of trials, seeded in one vectorised pass.

    ``batch(t, label)`` returns a fresh bit generator equal, state for
    state, to the one of ``substream(masters[t], label)``, for ``label`` in
    ``labels``: they are hashed in bulk up front.  It is a bare ``PCG64``,
    for the kernel reads most draws from its raw outputs; wrap it in
    ``np.random.Generator`` for the rest.
    """

    def __init__(self, masters: Sequence[int], labels: Sequence[str]):
        self._row = {label: i for i, label in enumerate(labels)}
        # derive_seed(m, label) for every pair: one sha256 of b"<m>/<label>" each.
        heads = [b"%d/" % int(m) for m in masters]
        prefixes = b"".join([hashlib.sha256(head + label).digest()[:8]
                             for label in map(str.encode, labels) for head in heads])
        seeds = np.frombuffer(prefixes, "<u8").reshape(len(labels), len(masters))
        self._words = seed_state_words(seeds)

    def __call__(self, t: int, label: str) -> np.random.PCG64:
        return np.random.PCG64(_StateWords(self._words[self._row[label], t]))
