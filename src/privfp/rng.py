"""Counter-based random substreams.

Every random quantity in a run is drawn from a Philox generator keyed by
``(seed, domain)`` and positioned at a counter derived from the iteration
index and block/user index. Streams for distinct ``(domain, k, b)`` never
overlap, so noise assignment is independent of block schedules, sampling
order, and any parallel evaluation: replaying ``(seed, k, b)`` always
reproduces the same draw.

``substream`` returns a fresh generator that the caller owns. Per-round
draws (noise, and every schedule's cohorts, walk holders, masks and item
orders) instead reuse one Philox generator per thread, which ``_reset_to``
sets to the draw's address; values are those of a fresh ``substream`` at
that address. ``gaussian_rows`` is the one draw of a run's noise rows, each
at its own (step, block) address: one round's blocks, or a block of walk
steps and their holders. Only this module knows the counter layout of an
address.
"""

from __future__ import annotations

import threading

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Domain tags keep noise, schedule, and data streams disjoint under one seed.
NOISE = 0x01
SCHEDULE = 0x02
DATA = 0x03


def substream(seed: int, domain: int, k: int, b: int) -> np.random.Generator:
    """Generator for the (domain, iteration k, block b) substream of seed."""
    key = np.array([int(seed) & _MASK64, domain & _MASK64], dtype=np.uint64)
    counter = np.array([0, 0, int(k) & _MASK64, int(b) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


# Each thread's reused generator and the state dict that resets it, built on
# its first draw; callers consume the generator inside one call and never
# store it, so no holder sees its state reset.
_thread = threading.local()


def _reset_to(seed: int, domain: int, k: int, b: int) -> np.random.Generator:
    """This thread's generator, as a fresh ``substream(seed, domain, k, b)`` starts.

    Consume it before the next reset on this thread."""
    try:
        gen, state = _thread.gen, _thread.state
    except AttributeError:
        gen = _thread.gen = np.random.Generator(np.random.Philox(0))
        # Empty buffer and no cached half word, as in a fresh Philox(key, counter);
        # the setter copies the values out, so only the key and counter change per draw.
        state = _thread.state = {"bit_generator": "Philox", "state": {},
                                 "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                                 "has_uint32": 0, "uinteger": 0}
    words = state["state"]
    words["key"] = (int(seed) & _MASK64, domain & _MASK64)  # a numpy integer would overflow it
    words["counter"] = (0, 0, int(k) & _MASK64, int(b) & _MASK64)
    gen.bit_generator.state = state
    return gen


def gaussian_block(seed: int, k: int, b: int, sigma: float, size: int) -> np.ndarray:
    """Fresh N(0, sigma^2 I_size) draw from the (k, b) noise substream."""
    if sigma == 0.0:
        return np.zeros(size)
    return _reset_to(seed, NOISE, k, b).normal(0.0, sigma, size)


def gaussian_rows(seed: int, k, blocks, sigma: float, size: int) -> np.ndarray:
    """Noise rows: row j is ``gaussian_block(seed, k_j, blocks[j], sigma, size)`` byte for byte,
    where k_j is k (one step for a round's blocks) or k[j] (k a sequence of one step per row);
    sigma < 0 raises its ValueError, NaN gives NaN rows. One row is one ``normal`` draw."""
    if sigma == 0.0:
        return np.zeros((len(blocks), size))
    if sigma < 0.0:
        raise ValueError("scale < 0")
    one_step = isinstance(k, (int, np.integer))
    if len(blocks) == 1:  # normal scales in C; the block scaling costs two ufunc calls
        gen = _reset_to(seed, NOISE, k if one_step else k[0], blocks[0])
        return gen.normal(0.0, sigma, (1, size))
    steps = [int(k) & _MASK64] * len(blocks) if one_step else [int(j) & _MASK64 for j in k]
    counters = [(0, 0, j, int(b) & _MASK64) for j, b in zip(steps, blocks, strict=True)]
    out = np.empty((len(blocks), size))
    gen = _reset_to(seed, NOISE, 0, 0)
    state, words = _thread.state, _thread.state["state"]
    for row, counter in zip(out, counters):  # key set once: each row resets its counter only
        words["counter"] = counter
        gen.bit_generator.state = state
        gen.standard_normal(out=row)
    out *= sigma
    out += 0.0  # Generator.normal returns 0.0 + sigma * z: -0.0 becomes 0.0
    return out
