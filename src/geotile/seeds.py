"""Deterministic seed derivation.

Every stochastic stage derives its own seed from the global seed plus a
stable string label, so runs are reproducible regardless of stage order or
batch composition.  Python's builtin hash() is salted per process and must
not be used here.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


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
