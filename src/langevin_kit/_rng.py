"""Counter-based noise streams for reproducible, order-independent ensembles.

Streams are keyed by (seed, step) and addressed by chain row, so the draws a
chain sees depend only on its index and the step, never on ensemble evaluation
order or ensemble size changes elsewhere in a program. Normals are produced by
inverse-CDF from raw 64-bit words (fixed consumption, one word per value),
which keeps every (step, chain, component) position stable; rejection-based
samplers would not.

Layout: steps are grouped in blocks of 256 per Philox key (seed, block index);
within a block the counter space is laid out as
(step offset, chain row, component).
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["normal_block", "NoiseSource", "chain_normals", "worker_threads"]

STEPS_PER_KEY = 256
_INV_2_53 = 2.0 ** -53
_U_MAX = 1.0 - 2.0 ** -53  # the largest double below 1
_CACHE_ELEMENT_LIMIT = 4096  # n_chains*width above this: draw per step, no cache


def _bitgen(seed: int, key_index: int) -> np.random.Philox:
    return np.random.Philox(key=(np.uint64(seed & (2**64 - 1)), np.uint64(key_index)))


def _to_normals(raw: np.ndarray) -> np.ndarray:
    """Normals from 64-bit words: ndtri((k + 1/2) 2**-53) for the top 53
    bits k of each word.

    The top cell k = 2**53 - 1 rounds (k + 1/2) 2**-53 up to 1.0, whose
    ndtri is +inf; it is clamped to the largest double below 1 instead.
    Works in place; ``raw`` must be a fresh array the caller does not reuse.
    scipy.special is imported here, on the first call, so that programs that
    draw no Philox normal do not pay for loading it.
    """
    from scipy.special import ndtri

    raw >>= np.uint64(11)
    u = raw.astype(np.float64)
    u += 0.5
    u *= _INV_2_53
    np.minimum(u, _U_MAX, out=u)
    return ndtri(u, out=u)


def _raw(seed: int, key_index: int, skip: int, shape: tuple[int, ...]) -> np.ndarray:
    # ``skip`` counts 64-bit words; Philox.advance moves whole 4-word counter
    # states, so split the skip into states plus a discarded remainder.
    bg = _bitgen(seed, key_index)
    states, rem = divmod(skip, 4)
    if states:
        bg.advance(states)
    gen = np.random.Generator(bg)
    if rem:
        gen.integers(0, 2**64, size=rem, dtype=np.uint64, endpoint=False)
    return gen.integers(0, 2**64, size=shape, dtype=np.uint64, endpoint=False)


def normal_block(seed: int, step: int, n_chains: int, width: int) -> np.ndarray:
    """Standard normal draws for one step of an ensemble.

    Returns an array of shape (n_chains, width). Row i is the noise for chain
    i at this step; it is a pure function of (seed, step, n_chains, i, width),
    so within a fixed ensemble no chain's draws depend on when or where the
    others are evaluated.
    """
    if width == 0:
        return np.empty((n_chains, 0))
    key_index, offset = divmod(step, STEPS_PER_KEY)
    raw = _raw(seed, key_index, offset * n_chains * width, (n_chains, width))
    return _to_normals(raw)


class NoiseSource:
    """Sequential per-step access to the stream of an ensemble.

    Returns exactly what ``normal_block`` would, but amortizes bit-generator
    setup: small ensembles cache a whole 256-step key block, large ones use a
    counter jump per step.
    """

    def __init__(self, seed: int, n_chains: int, width: int):
        self.seed = seed
        self.n_chains = n_chains
        self.width = width
        self._cached = n_chains * width <= _CACHE_ELEMENT_LIMIT
        self._key_index: int | None = None
        self._block: np.ndarray | None = None

    def block_at(self, step: int) -> np.ndarray:
        if self.width == 0:
            return np.empty((self.n_chains, 0))
        key_index, offset = divmod(step, STEPS_PER_KEY)
        if not self._cached:
            raw = _raw(self.seed, key_index, offset * self.n_chains * self.width,
                       (self.n_chains, self.width))
            return _to_normals(raw)
        if key_index != self._key_index:
            raw = _raw(self.seed, key_index, 0,
                       (STEPS_PER_KEY, self.n_chains, self.width))
            self._block = _to_normals(raw)
            self._key_index = key_index
        return self._block[offset]


def chain_normals(seed: int, n_steps: int, width: int) -> np.ndarray:
    """Bulk normals for chain 0 over steps 0..n_steps-1, shape (n_steps, width).

    Equals stacking ``normal_block(seed, k, 1, width)`` for k in range, built in
    256-step chunks so long single-chain runs stay cheap. Each chunk's normals
    are written into the output, which is the only full-length array.
    """
    if width == 0:
        return np.empty((n_steps, 0))
    out = np.empty(n_steps * width)
    chunk = STEPS_PER_KEY * width
    for ki, lo in enumerate(range(0, out.size, chunk)):
        hi = min(lo + chunk, out.size)
        out[lo:hi] = _to_normals(_raw(seed, ki, 0, (hi - lo,)))
    return out.reshape(n_steps, width)


def worker_threads() -> int:
    """Worker-thread cap for embarrassingly parallel probes.

    Reads LANGEVIN_KIT_THREADS; defaults to the hardware thread count.
    Values below 1 or unparsable values are treated as 1.
    """
    raw = os.environ.get("LANGEVIN_KIT_THREADS", "")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            return 1
    return os.cpu_count() or 1
