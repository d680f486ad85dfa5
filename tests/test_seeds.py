"""The stdlib PCG64 replica against np.random.default_rng, draw for draw."""

import random

import numpy as np
import pytest

from geotile.seeds import Pcg64, pcg_for, rng_for

# 2**160 - 1 has five 32-bit words, one more than the SeedSequence pool holds.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**160 - 1]
_pick = random.Random(20240611)
RANDOM_SEEDS = [_pick.getrandbits(64) for _ in range(200)] + [
    _pick.getrandbits(_pick.randint(1, 63)) for _ in range(100)
]


def _run(rng, script):
    """Replay a script of draws; 'u' is one uniform(), an int n shuffles range(n)."""
    out = []
    for step in script:
        if step == "u":
            out.append(rng.uniform())
        else:
            items = list(range(step))
            rng.shuffle(items)
            out.append(items)
    return out


def _script(seed):
    # Shuffles that end on an odd number of 32-bit draws leave half a 64-bit
    # draw buffered; the uniforms that follow must not consume it.
    steps = random.Random(seed)
    return [steps.choice(["u", steps.randint(0, 299)]) for _ in range(steps.randint(1, 8))]


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_edge_seeds_match_numpy(seed):
    script = ["u", "u", 0, 1, 2, "u", 3, 299, "u", 17, "u"]
    assert _run(Pcg64(seed), script) == _run(np.random.default_rng(seed), script)


def test_random_seeds_match_numpy():
    for seed in RANDOM_SEEDS:
        script = _script(seed)
        assert _run(Pcg64(seed), script) == _run(np.random.default_rng(seed), script), seed


def test_uniform_streams_match_numpy():
    for seed in EDGE_SEEDS + RANDOM_SEEDS[:20]:
        ours, theirs = Pcg64(seed), np.random.default_rng(seed)
        assert [ours.uniform() for _ in range(50)] == theirs.uniform(size=50).tolist()


def test_shuffle_interleaves_with_the_buffered_uint32():
    ours, theirs = Pcg64(7), np.random.default_rng(7)
    for n in range(300):
        a, b = list(range(n)), list(range(n))
        ours.shuffle(a)
        theirs.shuffle(b)
        assert a == b, n
        assert ours.uniform() == theirs.uniform(), n


def test_pcg_for_is_rng_for():
    assert _run(pcg_for(3, "split"), [40, "u"]) == _run(rng_for(3, "split"), [40, "u"])
    assert _run(pcg_for(3, "split"), [40]) != _run(pcg_for(4, "split"), [40])
