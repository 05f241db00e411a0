"""numpy's SeedSequence hash, run on a block of seeds at once.

A sweep seeds two PCG64 streams per country. Building a ``SeedSequence`` and
a ``PCG64`` from it costs about 20 us of Python-level work per stream, while
the hash itself is a few integer operations. ``seed_states`` runs that hash
as uint32 array operations over many streams and returns, row for row, what
``SeedSequence(...).generate_state(4, np.uint64)`` returns: the only thing
PCG64 reads from a seed sequence. The streams are therefore numpy's own, and
numpy keeps SeedSequence and PCG64 output stable across versions.

Importing this module loads ``numpy.random``, which ``import numpy`` defers.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class _HashedSeed(ISeedSequence):
    """A seed sequence whose PCG64 seed, ``generate_state(4, np.uint64)``, is precomputed."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
        return self.state


def hashed_stream(state: np.ndarray) -> np.random.Generator:
    """The ``default_rng`` of a seed sequence whose PCG64 seed is ``state``."""
    return np.random.Generator(np.random.PCG64(_HashedSeed(state)))


def seed_states(words: list, n: int) -> np.ndarray:
    """Row r is ``SeedSequence(...).generate_state(4, np.uint64)`` for entropy ``words``.

    ``words`` is what SeedSequence assembles: the seed's 32-bit words padded
    with zeros to 4, then the spawn key's; each an int or an array of n rows.
    The steps are numpy's (``mix_entropy`` and ``generate_state``).
    """
    const = 0x43B0D7E5

    def hashmix(value: np.ndarray, mult: int = 0x931E8875) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & 0xFFFFFFFF
        value = value * const
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * 0xCA01F9DD - y * 0x4973F715
        return result ^ result >> 16

    # arrays, never numpy scalars: uint32 arithmetic must wrap without a warning
    words = [np.broadcast_to(np.asarray(w, dtype=np.uint32), (n,)) for w in words]
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    const = 0x8B51F9DD
    state = np.stack([hashmix(pool[i % 4], 0x58F38DED) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)
