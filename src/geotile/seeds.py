"""Deterministic seed derivation and a stdlib replica of numpy's default RNG.

Every stochastic stage derives its own seed from the global seed plus a
stable string label, so runs are reproducible regardless of stage order or
batch composition.  Python's builtin hash() is salted per process and must
not be used here.

``pcg_for`` replays ``rng_for`` (SeedSequence → PCG64) in pure Python for the
two draws synth-task makes, the rebalance ``uniform()`` and the split
``shuffle(list)``, so that stage never loads numpy and its draws do not depend
on the numpy version.  It must stay draw for draw equal to numpy, or labels
and splits change under the same seed; tests/test_seeds.py holds it to that.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def derive_seed(seed: int, *parts: object) -> int:
    """Collapse (seed, labels...) into a 64-bit seed via blake2b."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed)).encode())
    for part in parts:
        h.update(b"\x1f")
        h.update(str(part).encode())
    return int.from_bytes(h.digest(), "little")


def rng_for(seed: int, *parts: object) -> np.random.Generator:
    # numpy is imported here so that stdlib-only stages never load it.
    import numpy as np

    return np.random.default_rng(derive_seed(seed, *parts))


def pcg_for(seed: int, *parts: object) -> Pcg64:
    """The stdlib twin of rng_for: same derived seed, same draws."""
    return Pcg64(derive_seed(seed, *parts))


def _seed_sequence_state(entropy: int) -> list[int]:
    """SeedSequence(entropy).generate_state(4, np.uint64) for an int entropy >= 0."""
    words = [entropy >> shift & _M32 for shift in range(0, max(entropy.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value: int, mult: int = 0x931E8875) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    out = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Pcg64:
    """np.random.default_rng(seed) for uniform() and shuffle(list) only."""

    def __init__(self, seed: int):
        s = _seed_sequence_state(seed)  # PCG64 seeds from words 0-1, its increment from 2-3
        self._inc = ((s[2] << 64 | s[3]) << 1 | 1) & _M128
        self._state = ((self._inc + (s[0] << 64 | s[1])) * _PCG_MULT + self._inc) & _M128
        self._uint32: int | None = None

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _M64
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def _next32(self) -> int:
        if self._uint32 is not None:
            value, self._uint32 = self._uint32, None
            return value
        value = self._next64()
        self._uint32 = value >> 32
        return value & _M32

    def uniform(self) -> float:
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def shuffle(self, items: list) -> None:
        """numpy's Fisher-Yates: swap i = n-1 .. 1 with j drawn from [0, i] by masked rejection."""
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            draw = self._next32 if i <= _M32 else self._next64
            while (j := draw() & mask) > i:
                pass
            items[i], items[j] = items[j], items[i]
