"""Counter-based splittable random streams.

Every consumer of randomness derives its own stream from
(master_seed, purpose tag, *indices).  Streams are independent of the
order in which they are created and of how work is partitioned across
workers, so adding a new consumer or changing the worker count never
perturbs existing draws.  Recreating a stream from the same key replays
the same draws, which is what the paired (common-random-number)
estimators rely on.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["substream", "ExperienceStreams"]

_DRAW_BLOCK = 32  # draw pairs an agent's stream yields per generator call


def _key_words(part) -> tuple[int, ...]:
    """Map a key part (int or str) to a stable tuple of uint32 words."""
    if isinstance(part, (int, np.integer)):
        v = int(part)
        if v < 0:
            v = (-v << 1) | 1
        else:
            v = v << 1
        words = []
        while True:
            words.append(v & 0xFFFFFFFF)
            v >>= 32
            if v == 0:
                break
        return tuple(words)
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()[:8]
        return (
            int.from_bytes(digest[:4], "little"),
            int.from_bytes(digest[4:], "little"),
        )
    raise TypeError(f"stream key parts must be int or str, got {type(part)!r}")


def substream(master_seed: int, *key) -> np.random.Generator:
    """Return a Philox generator for the given (master_seed, *key) address.

    The same address always yields an identical stream; distinct
    addresses yield statistically independent streams.
    """
    spawn: list[int] = []
    for part in key:
        spawn.extend(_key_words(part))
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(spawn))
    return np.random.Generator(np.random.Philox(ss))


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

    Pairs come from a per-agent block of ``_DRAW_BLOCK`` pairs, one
    ``random(2 * _DRAW_BLOCK)`` call per block; on a Philox stream that
    yields the same numbers as one ``random(2)`` call per pair.
    """

    def __init__(self, master_seed: int, path_id: int, purpose: str = "experience"):
        self.master_seed = master_seed
        self.path_id = path_id
        self.purpose = purpose
        self._gens: dict[int, np.random.Generator] = {}
        self._blocks: dict[int, list[float]] = {}  # undrawn uniforms, next one last

    def _gen(self, agent_id: int) -> np.random.Generator:
        g = self._gens.get(agent_id)
        if g is None:
            g = substream(self.master_seed, self.purpose, self.path_id, agent_id)
            self._gens[agent_id] = g
        return g

    def draw_pair(self, agent_id: int) -> tuple[float, float]:
        """Uniforms for one allocation: (public transition, private transition)."""
        block = self._blocks.get(agent_id)
        if not block:
            block = self._blocks[agent_id] = self._gen(agent_id).random(2 * _DRAW_BLOCK).tolist()[::-1]
        return block.pop(), block.pop()

    def replay(self) -> "ExperienceStreams":
        """Fresh streams with the same address (replays identical draws)."""
        return ExperienceStreams(self.master_seed, self.path_id, self.purpose)
