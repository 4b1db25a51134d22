"""Counter-based splittable random streams.

Every consumer of randomness derives its own stream from
(master_seed, purpose tag, *indices).  Streams are independent of the
order in which they are created and of how work is partitioned across
workers, so adding a new consumer or changing the worker count never
perturbs existing draws.  Recreating a stream from the same key replays
the same draws, which is what the paired (common-random-number)
estimators rely on.

An address's stream is a Philox stream keyed by NumPy's seed-sequence
hash of the master seed and the address's words (``stream_key``, or
``stream_keys`` for many addresses in one vectorized pass), computed in
plain integers.  Philox is counter-based: a stream is set by its 128-bit
key and its counter alone.  So ``substream`` builds an independent
generator at the key, and the hot paths draw from one scratch generator
per thread, re-keyed to the address (``keyed``).
"""

from __future__ import annotations

import functools
import hashlib
import threading

import numpy as np

__all__ = ["substream", "stream_key", "stream_keys", "keyed", "ExperienceStreams"]

_DRAW_BLOCK = 32  # draw pairs an agent's stream yields per generator call

# the seed-sequence mixing constants of numpy/random/bit_generator.pyx
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # the default entropy pool size, in uint32 words
_PREFIX_CACHE_MAX = 4096


def _int_words(v: int) -> tuple[int, ...]:
    """Little-endian uint32 words of a non-negative int (0 is one word)."""
    words = []
    while True:
        words.append(v & _MASK)
        v >>= 32
        if v == 0:
            return tuple(words)


@functools.lru_cache(maxsize=1024)
def _str_words(part: str) -> tuple[int, int]:
    digest = hashlib.sha256(part.encode("utf-8")).digest()[:8]
    return int.from_bytes(digest[:4], "little"), int.from_bytes(digest[4:], "little")


def _key_words(part) -> tuple[int, ...]:
    """Map a key part (int or str) to a stable tuple of uint32 words."""
    if isinstance(part, (int, np.integer)):
        v = int(part)
        return _int_words((-v << 1) | 1 if v < 0 else v << 1)
    if isinstance(part, str):
        return _str_words(part)
    raise TypeError(f"stream key parts must be int or str, got {type(part)!r}")


def substream(master_seed: int, first, *rest) -> np.random.Generator:
    """An independent Philox generator at the key (``stream_key``) of
    the address (master_seed, first, *rest).

    The same address always yields an identical stream; distinct
    addresses yield statistically independent streams.
    """
    k0, k1 = stream_key(master_seed, first, *rest)
    return np.random.Generator(np.random.Philox(key=k0 | k1 << 64))


# ---------------------------------------------------------------------------
# NumPy's seed-sequence key derivation, in plain integers
# ---------------------------------------------------------------------------


def _hashmix(v: int, h: int) -> tuple[int, int]:
    """The seed sequence's ``hashmix`` of v, and the next hash constant."""
    v ^= h
    h = h * _MULT_A & _MASK
    v = v * h & _MASK
    return v ^ v >> 16, h


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _MASK
    return r ^ r >> 16


def _absorb(pool, h: int, words):
    """Mix entropy words past the pool size into ``pool`` as
    the seed sequence's ``mix_entropy`` does (``_mix(pool[d], _hashmix(w))``,
    inlined); ``h`` is its running hash constant.

    The words may be ints or uint64 arrays of uint32 values (one address
    per element): every product is masked back to 32 bits, and the hash
    constants do not depend on the data, so arrays take the same steps.
    """
    pool = list(pool)
    for w in words:
        for d in range(_POOL):
            v = w ^ h
            h = h * _MULT_A & _MASK
            v = v * h & _MASK
            x = (_MIX_L * pool[d] - _MIX_R * (v ^ v >> 16)) & _MASK
            pool[d] = x ^ x >> 16
    return pool, h


def _seed_pool(master_seed: int):
    """The pool and hash constant after the master seed: its words padded
    to the pool size (a spawn key follows), hashed and cross-mixed, then
    any words past the pool size absorbed."""
    if not isinstance(master_seed, (int, np.integer)):
        raise TypeError(f"master seed must be an int, got {type(master_seed)!r}")
    if master_seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = _int_words(int(master_seed))
    entropy += (0,) * (_POOL - len(entropy))
    h = _INIT_A
    pool = []
    for w in entropy[:_POOL]:
        v, h = _hashmix(w, h)
        pool.append(v)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                v, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], v)
    return _absorb(pool, h, entropy[_POOL:])


_PREFIXES: dict = {}


def _prefix(master_seed: int, first):
    """The pool after (master_seed, first key part), cached: most
    addresses share a seed and a purpose."""
    cached = _PREFIXES.get((master_seed, first))
    if cached is None:
        if len(_PREFIXES) >= _PREFIX_CACHE_MAX:
            _PREFIXES.clear()
        pool, h = _absorb(*_seed_pool(master_seed), _key_words(first))
        cached = _PREFIXES[(master_seed, first)] = (tuple(pool), h)
    return cached


def _philox_key(pool):
    """``generate_state(2, np.uint64)`` of a mixed pool: Philox's key."""
    out = []
    h = _INIT_B
    for p in pool:
        v = p ^ h
        h = h * _MULT_B & _MASK
        v = v * h & _MASK
        out.append(v ^ v >> 16)
    return out[0] | out[1] << 32, out[2] | out[3] << 32


def stream_key(master_seed: int, first, *rest) -> tuple[int, int]:
    """The Philox key of (master_seed, first, *rest): what NumPy's seed
    sequence of that entropy and spawn key (``_key_words``) generates."""
    pool, h = _prefix(master_seed, first)
    words = [w for part in rest for w in _key_words(part)]
    return _philox_key(_absorb(pool, h, words)[0])


def stream_keys(master_seed: int, first, rows) -> list[tuple[int, int]]:
    """Keys of ``substream(master_seed, first, *row)`` for each row of
    the 2-D int array-like ``rows``, in one vectorized pass when every
    part is one word (|part| < 2**31)."""
    rows = np.asarray(rows)
    if rows.dtype.kind not in "iu" or (rows.size and not -(2**31) < rows.min() <= rows.max() < 2**31):
        return [stream_key(master_seed, first, *row) for row in rows.tolist()]
    rows = rows.astype(np.int64)
    words = np.where(rows < 0, (-rows << 1) | 1, rows << 1).astype(np.uint64)
    pool, h = _prefix(master_seed, first)
    pool = [np.full(len(rows), p, np.uint64) for p in pool]
    k0, k1 = _philox_key(_absorb(pool, h, words.T)[0])
    return list(zip(k0.tolist(), k1.tolist()))


# ---------------------------------------------------------------------------
# One re-keyed generator per thread
# ---------------------------------------------------------------------------

_scratch = threading.local()


def keyed(key, counter: int = 0) -> np.random.Generator:
    """This thread's scratch Philox generator, set to the stream of
    ``key`` at ``counter`` with an empty buffer: the state a generator of
    that address has after ``counter`` blocks of four 64-bit outputs.

    The generator is shared: it is valid until the next ``keyed`` call
    in the thread.  It is made on first use, so importing the package
    does not import ``numpy.random``.
    """
    try:
        gen, state = _scratch.gen, _scratch.state
    except AttributeError:
        gen = _scratch.gen = np.random.Generator(np.random.Philox(0))
        state = _scratch.state = gen.bit_generator.state
        for name in ("counter", "key"):
            state["state"][name] = state["state"][name].tolist()
        state["buffer"] = state["buffer"].tolist()
    inner = state["state"]
    inner["key"][0], inner["key"][1] = key
    inner["counter"][0] = counter
    gen.bit_generator.state = state
    return gen


class ExperienceStreams:
    """Per-agent replayable experience draws for one simulated path.

    The j-th allocation to agent i consumes the j-th (public, private)
    uniform pair from agent i's stream, regardless of the round at which
    that allocation happens.  Two runs sharing a (master_seed, path_id)
    therefore couple trajectories the way the allocation-time argument
    requires: after k allocations an agent has seen exactly the same k
    experience draws in both runs.

    The episode engine uses an instance as the address of a path: the
    mechanism's runtime samples each agent's trajectory on that address
    once, one ``draw_pair`` per move the first time a run needs it, and
    every later run, fee-walk piece or audit cell on the address reads
    the cached states instead of drawing again.

    Agent i's stream is ``substream(master_seed, purpose, path_id, i)``,
    at ``stream_key``'s key.  Its pairs come in blocks of ``_DRAW_BLOCK``:
    block b is one ``random(2 * _DRAW_BLOCK)`` call on the thread's
    scratch generator, re-keyed to the stream at counter
    ``b * _DRAW_BLOCK // 2`` (``keyed``).
    That yields the same numbers as one ``random(2)`` call per pair on
    the stream read straight through.
    """

    def __init__(self, master_seed: int, path_id: int, purpose: str = "experience"):
        self.master_seed = master_seed
        self.path_id = path_id
        self.purpose = purpose
        self._streams: dict[int, list] = {}  # agent -> [key, blocks drawn]
        self._blocks: dict[int, list[float]] = {}  # undrawn uniforms, next one last

    def _next_block(self, agent_id: int) -> list[float]:
        stream = self._streams.get(agent_id)
        if stream is None:
            key = stream_key(self.master_seed, self.purpose, self.path_id, agent_id)
            stream = self._streams[agent_id] = [key, 0]
        gen = keyed(stream[0], stream[1] * _DRAW_BLOCK // 2)
        stream[1] += 1
        return gen.random(2 * _DRAW_BLOCK).tolist()[::-1]

    def draw_pair(self, agent_id: int) -> tuple[float, float]:
        """Uniforms for one allocation: (public transition, private transition)."""
        block = self._blocks.get(agent_id)
        if not block:
            block = self._blocks[agent_id] = self._next_block(agent_id)
        return block.pop(), block.pop()

    def replay(self) -> "ExperienceStreams":
        """Fresh streams with the same address (replays identical draws)."""
        return ExperienceStreams(self.master_seed, self.path_id, self.purpose)
