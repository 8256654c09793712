"""Deterministic seed derivation, numbered random substreams, and the rules
that read their draws off raw PCG64 words.

Every random decision in a session comes from its own substream, so
replaying a session with one participant's behaviour changed leaves every
other participant's draws untouched.  Stream contract 3
(``STREAM_CONTRACT``) derives seeds and substreams with numpy's
``SeedSequence`` spawn keys, numpy's documented idiom for parallel streams:

* a child seed is ``derive_seed(m, *path)``, the first 64-bit word of
  ``SeedSequence(m, spawn_key=path)``; trial t of a sweep's cell c is
  ``derive_seed(master_seed, c, t)``, trial t of an attack
  ``derive_seed(seed, t)``;
* the substream of a protocol stage is ``substream(seed, label)``, a PCG64
  seeded by ``SeedSequence(seed, spawn_key=(label,))``, where each label is
  the stage's fixed integer (``PREPARE`` 0 to ``COMMITTED_BIT`` 5).

Both are integer arithmetic that numpy keeps stable across platforms,
processes and releases.  Every seed is an integer in [0, 2**64)
(``check_seed``).  The networked mode relies on this: the sender, the
committer, and the channel referee each hold only the master seed and
rebuild exactly the substreams they own, which makes a wire session
reproduce the in-process session draw for draw.  The package's other input
rules are checked beside ``check_seed``, each in one place: a count
(``check_count``), a bit (``check_bit``) and a fraction in [0, 1]
(``check_fraction``).

``substream`` is the reference path, and ``derive_seed`` the reference for
``trial_seeds``, which derives a cell's trial seeds in one vectorised pass.
``SubstreamBatch`` seeds the same generators, every label's, for a block of
trials at once.  Both compute ``SeedSequence``'s words with
``seed_state_words``, which can be vectorised because the hash constants
evolve by multiplication alone, independently of the data: for a 64-bit seed
(two entropy words, padded with zeros to the 4-word pool) and its spawn-key
words the whole hash is one fixed sequence of uint32 xor/multiply/shift
steps, applied element-wise.  The pool depends on the seed alone and each
spawn-key word is mixed into it afterwards, so a pool is hashed once and the
key words broadcast over it: a cell's pool once for all its trials, each
trial's once for its six labels.  The batch hands the state words to
``PCG64`` through a seed-sequence object that returns them.

Every rule that reads a session's draws off its substreams' raw PCG64 64-bit
outputs is in this module, and the raw outputs are all it reads, which numpy
keeps stable across releases (NEP 19) where it does not keep ``Generator``
methods' streams.  Every stream but ERROR is drawn as numpy's ``Generator``
draws on the substream.  ``raw_outputs`` computes a fresh generator's first
raw outputs from its seeding words (PCG64's seeding, its LCG steps and its
XSL-RR output, in one carry chain of 32-bit partial products);
``SubstreamBatch.raw`` uses it for a block of trials up to
``RAW_OUTPUTS_CROSSOVER`` outputs per generator, and above it each trial's
generator fills its row.  ``integers`` on a power-of-two range returns the
top bits of successive 32-bit halves (``top_bits``): the states, bases and
coins (``uniform_codes``) and a fresh generator's first coin
(``SubstreamBatch.coins``).  ``random() < rate`` is a raw-word comparison
(``noise_threshold``): the noise and the random-lies schedule.  The ERROR
stream's rule (since contract 2): ``read_mask`` marks the k positions with
the smallest 32-bit keys among the first n halves and reads the coins from
the halves that follow, on one session's words (``protocol.inject_errors``)
or a chunk's (``SubstreamBatch.masks``), and hands back the marked rows as
the mask; under contract 1 it was ``choice(n, k, replace=False)`` and
``integers(0, 2, k)``.  ``tests/test_rng.py`` pins the seeding to numpy's
``SeedSequence`` and the batch to ``substream``, the channel, protocol and
kernel tests pin the readers to ``Generator`` and the mask to a plain-Python
reference.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

#: The version of the rules that turn a seed into draws (see above); a JSON
#: report records it.
STREAM_CONTRACT = 3

#: Trials per piece of ``trial_seeds``.
_SEED_PIECE = 2**16

#: Substream labels used by a protocol session: fixed spawn-key words.  In
#: wire mode they are split across processes: the sender keeps PREPARE, the
#: committer keeps BASES and ERROR, and the channel owner (the referee) keeps
#: MEASURE.
LABELS = PREPARE, BASES, MEASURE, ERROR, ADVERSARY, COMMITTED_BIT = tuple(range(6))


def check_seed(name: str, seed) -> None:
    """Refuse a seed that is not an integer in [0, 2**64), naming it."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**64:
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {seed!r}")


def check_count(name: str, value, least: int = 0) -> None:
    """Refuse a count that is not an integer of at least ``least``, naming it."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_bit(name: str, value) -> None:
    """Refuse a bit that is not the integer 0 or 1, naming it."""
    if not isinstance(value, (int, np.integer)) or value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")


def check_fraction(name: str, value) -> None:
    """Refuse a fraction (a rate or a probability) that is not a number in
    [0, 1], naming it."""
    if not isinstance(value, numbers.Real) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def derive_seed(master: int, *path: int) -> int:
    """The 64-bit child seed of ``master`` at a path of integers (e.g. cell
    and trial indices): the first word of ``SeedSequence(master,
    spawn_key=path)``.  ``(1, 2)`` and ``(12,)`` derive different seeds."""
    return int(np.random.SeedSequence(master, spawn_key=path).generate_state(1, np.uint64)[0])


def trial_seeds(path: Sequence[int], trials: int) -> np.ndarray:
    """``derive_seed(*path, t)`` for t in ``range(trials)``, as a uint64
    array: the path's pool is hashed as a 1-element array and only the trial
    word broadcasts.  Each path word after the master, and each t, must be
    one uint32 word: below 2**32.  In pieces of ``_SEED_PIECE`` trials, so
    the pass's temporaries (~48 bytes a trial) stay small for any count."""
    master = np.array(path[:1], dtype=np.uint64)
    pieces = np.split(np.arange(trials, dtype=np.uint32), range(_SEED_PIECE, trials, _SEED_PIECE))
    return np.concatenate([seed_state_words(master, [*path[1:], t], 1)[:, 0] for t in pieces])


def substream(seed: int, *labels: int) -> np.random.Generator:
    """The generator of ``seed`` at a label path: a PCG64 seeded by
    ``SeedSequence(seed, spawn_key=labels)``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=labels)))


# numpy's SeedSequence: pool of 4 uint32 words, hash constants and mixers.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


@functools.cache
def _hash_chain(init: int, mult: int, steps: int) -> tuple[tuple[np.uint32, np.uint32], ...]:
    """(xor, multiply) constants of ``steps`` successive hash steps: each
    step xors with the running constant, advances it, and multiplies by it."""
    chain = []
    for _ in range(steps):
        nxt = init * mult & _MASK32
        chain.append((np.uint32(init), np.uint32(nxt)))
        init = nxt
    return tuple(chain)


def _hash(value: np.ndarray, xor: np.uint32, mult: np.uint32) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(into: np.ndarray, value: np.ndarray) -> np.ndarray:
    mixed = _MIX_MULT_L * into - _MIX_MULT_R * value
    return mixed ^ (mixed >> _XSHIFT)


def seed_state_words(seeds: np.ndarray, keys: Sequence, count: int = 4) -> np.ndarray:
    """``SeedSequence(s, spawn_key=key).generate_state(count, np.uint64)`` for
    every uint64 seed s of the array ``seeds``, where the spawn key's words
    are ``keys``: ints below 2**32 or uint32 arrays that broadcast against
    ``seeds``.  Returns an array of their broadcast shape + (count,).

    The run entropy is the seed's low and high words, padded with zeros to
    the pool (as ``SeedSequence`` pads it when there is a spawn key; without
    one, hashing zeros into the rest of the pool does the same).  Each pool
    word is hashed once and each of the 4 * 3 ordered pairs mixed once, then
    each key word is hashed into every pool word; ``generate_state`` hashes
    2 * count words off the pool.  Every word stays an array: numpy warns on
    wrap-around in uint32 scalar arithmetic.
    """
    steps = iter(_hash_chain(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + len(keys))))
    zero = np.zeros(1, dtype=np.uint32)
    entropy = [(seeds & _LOW32).astype(np.uint32), (seeds >> _U32).astype(np.uint32), zero, zero]
    pool = [_hash(word, *next(steps)) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(steps)))
    for word in keys:
        word = np.array(word, dtype=np.uint32, ndmin=1)
        pool = [_mix(into, _hash(word, *next(steps))) for into in pool]
    state = [_hash(pool[i % _POOL_SIZE], *consts).astype(np.uint64)
             for i, consts in enumerate(_hash_chain(_INIT_B, _MULT_B, 2 * count))]
    return np.stack([lo | hi << _U32 for lo, hi in zip(state[::2], state[1::2])], axis=-1)


# numpy's PCG64: a 128-bit LCG with this multiplier and XSL-RR output.
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341
_MASK64, _MASK128 = 2**64 - 1, 2**128 - 1
_LOW32, _U1, _U32, _U58, _U63, _U64 = (np.uint64(v) for v in (_MASK32, 1, 32, 58, 63, 64))


def _limbs(values: list[int]) -> tuple[np.ndarray, ...]:
    """128-bit ints as uint64 arrays: high half, low half, and the low and
    high 32 bits of the low half."""
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    lo = np.array([v & _MASK64 for v in values], dtype=np.uint64)
    return hi, lo, lo & _LOW32, lo >> _U32


@functools.cache
def _output_multipliers(count: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The limbs of M**(t + 1) and of 1 + M + ... + M**t, t = 1 … count,
    modulo 2**128: the state of output t is (inc + seed state) times the
    first plus inc times the second."""
    powers, sums = [], []
    power, total = _PCG_MULT, 1
    for _ in range(count):
        total = (total + power) & _MASK128
        power = power * _PCG_MULT & _MASK128
        powers.append(power)
        sums.append(total)
    return _limbs(powers), _limbs(sums)


def raw_outputs(words: np.ndarray, count: int) -> np.ndarray:
    """``PCG64(_StateWords(w)).random_raw(count)`` for every row w of the
    (b x 4) ``words``, as a (b x count) uint64 array.

    PCG64 seeds itself from (state, sequence) = (w0:w1, w2:w3): its
    increment is sequence * 2 + 1, and its state inc, plus the seed state,
    stepped once.  Output t steps t more times and reads XSL-RR: the high
    half xor the low half, rotated right by the top 6 bits.  So the state
    read is (inc + seed state) * M**(t + 1) + inc * (1 + M + ... + M**t),
    modulo 2**128, by per-column constants, in one carry chain of 32-bit
    partial products.  With a1:a0 the 32-bit limbs of the low half of inc +
    seed state, b1:b0 those of inc, and p1:p0, q1:q0 those of the two
    constants: bits 0-31 sum the low halves of a0 * p0 and b0 * q0; bits
    32-63 their high halves, that carry, and the low halves of the four
    cross products a0 * p1, a1 * p0, b0 * q1 and b1 * q0; the high half
    their high halves, that carry, and the six products that land in it
    whole.  No partial sum reaches 2**36.
    """
    seed_hi, seed_lo, seq_hi, seq_lo = (w[:, None] for w in words.T)
    inc_hi, inc_lo = seq_hi << _U1 | seq_lo >> _U63, seq_lo << _U1 | _U1
    start_lo = inc_lo + seed_lo
    start_hi = inc_hi + seed_hi + (start_lo < inc_lo)
    (p_hi, p_lo, p0, p1), (q_hi, q_lo, q0, q1) = _output_multipliers(count)
    a0, a1, b0, b1 = start_lo & _LOW32, start_lo >> _U32, inc_lo & _LOW32, inc_lo >> _U32
    low_a, low_b = a0 * p0, b0 * q0
    bits0 = (low_a & _LOW32) + (low_b & _LOW32)
    bits32 = (low_a >> _U32) + (low_b >> _U32) + (bits0 >> _U32)
    hi = a1 * p1 + b1 * q1 + start_hi * p_lo + start_lo * p_hi + inc_hi * q_lo + inc_lo * q_hi
    for x, y in ((a0, p1), (a1, p0), (b0, q1), (b1, q0)):  # one cross product at a time
        cross = x * y
        bits32 += cross & _LOW32
        hi += cross >> _U32
    hi += bits32 >> _U32
    lo = bits32 << _U32 | bits0 & _LOW32
    folded, rot = hi ^ lo, hi >> _U58
    return folded >> rot | folded << ((_U64 - rot) & _U63)


def top_bits(raw: np.ndarray, n: int, width: int) -> np.ndarray:
    """The top ``width`` bits (1 <= width <= 8) of the first n 32-bit
    halves of raw outputs, low half first, as uint8: the top bits of byte 3
    and byte 7 of each little-endian raw word.  On a (b x words) array, of
    each row.  A contiguous array: numpy reads the strided view of the
    words slower."""
    return raw.astype("<u8", copy=False).view(np.uint8)[..., 3:4 * n:4].copy() >> (8 - width)


def uniform_codes(rng: np.random.Generator, n: int, width: int) -> np.ndarray:
    """n uniform integers in [0, 2**width) as uint8, for 1 <= width <= 8.

    Equal to ``rng.integers(0, 2**width, size=n)`` when ``rng`` holds no
    buffered 32-bit half, as every fresh substream does.  For a power-of-two
    range numpy's ``integers`` never rejects: it returns the top ``width``
    bits of successive 32-bit halves of the raw outputs, low half first.
    Unlike ``integers``, an odd n leaves no buffered half behind: a later
    ``Generator.random`` reads whole raw words either way, but a later
    ``integers`` on the same generator would differ.
    """
    return top_bits(rng.bit_generator.random_raw((n + 1) // 2), n, width)


def noise_threshold(rate: float) -> np.uint64:
    """For a rate in (0, 1], ``rng.random(n) < rate`` is ``random_raw(n) <=
    noise_threshold(rate)``: a double is (raw >> 11) * 2**-53, below the
    rate exactly when raw is below ceil(rate * 2**53) * 2**11.  At rate 0
    the comparison is all false without a draw, so callers skip it."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"a raw-word threshold needs a rate in (0, 1], got {rate}")
    return np.uint64((math.ceil(rate * 2**53) << 11) - 1)


def mask_words(n: int, k: int, mode: str) -> int:
    """The raw ERROR outputs a mask of k of n positions reads: n 32-bit
    keys, then, in "randomize" mode only, k coins from the next whole word
    on.  "flip" mode reads the keys alone."""
    return (n + 1) // 2 + ((k + 1) // 2 if mode == "randomize" else 0)


def read_mask(raw: np.ndarray, n: int, k: int, mode: str) -> tuple[np.ndarray, np.ndarray | None]:
    """The mask rule: the mask of k of n positions, 0 < k <= n, off one
    session's (words,) row of ERROR raw outputs or a chunk's (b x words) rows,
    each ``mask_words(n, k, mode)`` long.  Returns (marked, coins): the
    masked positions flagged in an (n,) bool row or (b x n) rows, the one
    form of a mask that ``kernel.mask_rows`` applies and
    ``protocol.inject_errors`` returns, and the replacement coins, (k,) or
    (b x k) uint8, None in "flip".

    The n keys are the first n 32-bit halves of the row, low half first; the
    masked positions are the k smallest (key, position) pairs, so a tie at
    the k-th key goes to the lower position and exactly k are masked.  The
    j-th coin, for the j-th smallest masked position, is the top bit of the
    j-th half from word (n + 1) // 2 on.  The subset is uniform unless
    another key equals the k-th one, which happens in at most n / 2**32 of
    sessions (2.3e-5 at n = 100 000).  Only the k-th key is read off
    ``np.partition``, never the order it leaves, so no numpy release moves a
    mask.
    """
    keys = raw.astype("<u8", copy=False).view("<u4")[..., :n]
    kth = np.partition(keys, k - 1, axis=-1)[..., k - 1:k]
    marked = keys <= kth
    if np.count_nonzero(marked) > marked.size // n * k:  # a tie at some row's k-th key
        rows, row_keys, row_kth = marked.reshape(-1, n), keys.reshape(-1, n), kth.reshape(-1)
        excess = np.count_nonzero(rows, axis=1) - k
        for i in np.flatnonzero(excess):  # unmark the row's highest tied positions
            ties = np.flatnonzero(row_keys[i] == row_kth[i])
            rows[i, ties[len(ties) - excess[i]:]] = False
    return marked, top_bits(raw[..., (n + 1) // 2:], k, 1) if mode == "randomize" else None


class _StateWords(ISeedSequence):
    """A seed sequence that hands a bit generator precomputed state words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for generate_state(4, np.uint64): exactly these words.
        return self.words


#: Raw outputs per generator above which building each generator and reading
#: them is faster than ``raw_outputs`` (CHANGES.md has the timings).
RAW_OUTPUTS_CROSSOVER = 64
#: Raw outputs ``SubstreamBatch.raw`` computes in one ``raw_outputs`` call,
#: and at most the ERROR words ``SubstreamBatch.masks`` reads in one piece.
_PIECE_WORDS = 8192


class SubstreamBatch:
    """The substreams of a block of trials, seeded in one vectorised pass.

    The generator of trial t and ``label`` has the state of
    ``substream(masters[t], label)``, for every label of ``LABELS``: each
    master's pool is hashed once up front and the six label words broadcast
    over it (``seed_state_words``).  The batch hands out their raw outputs
    and builds no generator for a stream that is not read.
    """

    def __init__(self, masters: Sequence[int]):
        # Each master's pool once, the (labels x 1) label words broadcast over
        # it: ``_words[label]`` holds the block's (trials x 4) state words.
        self._words = seed_state_words(np.asarray(masters, dtype=np.uint64),
                                       [np.array(LABELS, dtype=np.uint32)[:, None]])

    def raw(self, label: int, count: int, trials: slice = slice(None)) -> np.ndarray:
        """``substream(masters[t], label).bit_generator.random_raw(count)``
        for every t in ``trials``, as a (trials x count) uint64 array.  Up to
        ``RAW_OUTPUTS_CROSSOVER`` words the rows are computed from the state
        words (``raw_outputs``), with no generator built; above it each
        trial's generator fills its row of the array, seeded through one
        ``_StateWords`` whose words each trial's row replaces.  ``PCG64``
        reads them as it is built, off the row's buffer, so a row must be a
        C-contiguous view (``_words`` is): a strided one seeds a wrong state
        without an error."""
        words = self._words[label, trials]
        if count <= RAW_OUTPUTS_CROSSOVER:
            # In pieces whose temporaries stay small enough to be cached.
            rows = max(1, _PIECE_WORDS // max(count, 1))
            return np.concatenate([raw_outputs(words[i:i + rows], count)
                                   for i in range(0, len(words), rows)])
        raw = np.empty((len(words), count), dtype=np.uint64)
        seed = _StateWords(words)
        for out, seed.words in zip(raw, words):
            out[:] = np.random.PCG64(seed).random_raw(count)
        return raw

    def coins(self, label: int) -> np.ndarray:
        """``integers(0, 2)`` on each fresh ``label`` generator of the block,
        as uint8: the top bit of its first 32-bit half."""
        return top_bits(self.raw(label, 1), 1, 1)[:, 0]

    def masks(self, trials: slice, n: int, k: int,
              mode: str) -> tuple[np.ndarray, np.ndarray | None]:
        """``read_mask`` on the ERROR words of the trials ``trials``: their
        (b x n) marked rows and their coins (b x k), None in "flip" mode.
        The words are read in pieces of up to ``_PIECE_WORDS`` (64 KB), off
        glibc's 128 KB mmap threshold: a whole chunk's, freed and mapped
        again each chunk, cost ~57 page faults and ~9% of an n = 4096
        sweep's time.  A chunk of one piece (every chunk above n = 16 384)
        comes back as that piece: a copy of it would double the faults of a
        large session."""
        words = mask_words(n, k, mode)
        rows = max(1, _PIECE_WORDS // words)
        pieces = [read_mask(self.raw(ERROR, words, slice(i, min(i + rows, trials.stop))), n, k,
                            mode) for i in range(trials.start, trials.stop, rows)]
        if len(pieces) == 1:
            return pieces[0]
        marked, coins = zip(*pieces)
        return np.concatenate(marked), None if mode == "flip" else np.concatenate(coins)
