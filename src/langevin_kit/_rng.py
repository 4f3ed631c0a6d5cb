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


def _raw(bg: np.random.Philox, seed: int, key_index: int, skip: int,
         shape: tuple[int, ...]) -> np.ndarray:
    """64-bit words of the Philox stream keyed by (seed, key_index), from
    word ``skip`` on, in the given shape, drawn with ``bg``.

    A Philox counter state makes 4 words, so the skip is split into whole
    states, set as the counter (where ``advance`` would move it), plus a
    remainder that is drawn and discarded. Setting the key and counter of
    a Philox the caller reuses costs several times less than building one,
    which first seeds itself.
    """
    states, rem = divmod(skip, 4)
    bg.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([states, 0, 0, 0], dtype=np.uint64),
            "key": np.array([seed & (2**64 - 1), key_index], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    if rem:
        bg.random_raw(rem)
    return bg.random_raw(shape)


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
    raw = _raw(np.random.Philox(0), seed, key_index, offset * n_chains * width,
               (n_chains, width))
    return _to_normals(raw)


class NoiseSource:
    """Sequential per-step access to the stream of an ensemble.

    Returns exactly what ``normal_block`` would, but amortizes bit-generator
    setup: it draws with one Philox whose key and counter it sets. Small
    ensembles read whole-ensemble blocks from a cached 256-step key block;
    large ones, and a row window narrower than the ensemble, use a counter
    jump per step and draw only the window's words. ``n_steps`` is the
    number of steps the run takes; a cached key block holds only the steps
    below it, the prefix of the block's words.
    """

    def __init__(self, seed: int, n_chains: int, width: int, n_steps: int):
        self.seed = seed
        self.n_chains = n_chains
        self.width = width
        self.n_steps = n_steps
        self._cached = n_chains * width <= _CACHE_ELEMENT_LIMIT
        self._philox = np.random.Philox(0)
        self._key_index: int | None = None
        self._block: np.ndarray | None = None

    def block_at(self, step: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Rows [lo, hi) of the step's (n_chains, width) block, hi defaulting
        to n_chains; equal to ``normal_block(...)[lo:hi]``. Large ensembles
        and narrower windows draw only the window's words, skipping to its
        first one."""
        hi = self.n_chains if hi is None else hi
        if not 0 <= lo <= hi <= self.n_chains:
            raise ValueError(f"rows [{lo}, {hi}) are outside the {self.n_chains} chains")
        if step >= self.n_steps:
            raise ValueError(f"step {step} is past the {self.n_steps} steps")
        if self.width == 0:
            return np.empty((hi - lo, 0))
        key_index, offset = divmod(step, STEPS_PER_KEY)
        if not self._cached or hi - lo < self.n_chains:
            raw = _raw(self._philox, self.seed, key_index,
                       (offset * self.n_chains + lo) * self.width, (hi - lo, self.width))
            return _to_normals(raw)
        if key_index != self._key_index:
            steps = min(STEPS_PER_KEY, self.n_steps - key_index * STEPS_PER_KEY)
            raw = _raw(self._philox, self.seed, key_index, 0, (steps, self.n_chains, self.width))
            self._block = _to_normals(raw)
            self._key_index = key_index
        return self._block[offset, lo:hi]


def chain_normals(seed: int, n_steps: int, width: int) -> np.ndarray:
    """Bulk normals for chain 0 over steps 0..n_steps-1, shape (n_steps, width).

    Equals stacking ``normal_block(seed, k, 1, width)`` for k in range, built in
    256-step chunks so long single-chain runs stay cheap. Each chunk's normals
    are written into the output, which is the only full-length array.
    """
    if width == 0:
        return np.empty((n_steps, 0))
    out = np.empty(n_steps * width)
    bg = np.random.Philox(0)
    chunk = STEPS_PER_KEY * width
    for ki, lo in enumerate(range(0, out.size, chunk)):
        hi = min(lo + chunk, out.size)
        out[lo:hi] = _to_normals(_raw(bg, seed, ki, 0, (hi - lo,)))
    return out.reshape(n_steps, width)


def worker_threads() -> int:
    """Worker-thread cap for embarrassingly parallel probes.

    Reads LANGEVIN_KIT_THREADS; defaults to the number of CPUs this
    process may run on (its affinity mask, where the platform reports one;
    the hardware thread count elsewhere). Values below 1 or unparsable
    values are treated as 1.
    """
    raw = os.environ.get("LANGEVIN_KIT_THREADS", "")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
