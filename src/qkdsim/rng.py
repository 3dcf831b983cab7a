"""Deterministic random streams built on the SplitMix64 generator.

SplitMix64 (Steele, Lea & Flood's SplittableRandom; Vigna's reference
implementation) is a 64-bit generator whose whole state is one counter,
which makes derived substreams cheap: hashing (seed, pulse index, stage)
through the same finalizer yields an independent stream per pulse and
stage. The scalar `RngStream` and the vectorized helpers below walk the
exact same integer sequence, so array-based simulation reproduces
draw-by-draw what a Python loop over streams would produce.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 53-bit mantissa scaling for uniforms in [0, 1)
_INV_2_53 = 1.0 / (1 << 53)

GENERATOR_NAME = "splitmix64"


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *keys: int) -> int:
    """Derive a substream seed as a stable hash of (seed, *keys).

    Used for per-pulse, per-stage substreams and for sweep-point seeds.
    The derivation is pure integer arithmetic and never changes between
    runs or platforms.
    """
    h = seed & _MASK
    for key in keys:
        h = _mix(((h ^ (key & _MASK)) + _GOLDEN) & _MASK)
    return _mix((h + _GOLDEN) & _MASK)


class RngStream:
    """SplitMix64 stream with a 64-bit seed.

    Draws uniform reals in [0, 1), one at a time. Equal seeds give equal
    draw sequences.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53-bit resolution."""
        self._state = (self._state + _GOLDEN) & _MASK
        return (_mix(self._state) >> 11) * _INV_2_53


# -- vectorized counterparts (numpy uint64, wraparound arithmetic) ----------

_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


def _mix_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer applied to `z` in place, through one temporary."""
    t = np.empty_like(z)
    for shift, multiplier in ((_S30, _U_MIX1), (_S27, _U_MIX2)):
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= multiplier
    np.right_shift(z, _S31, out=t)
    z ^= t
    return z


def derive_seed_array(seed, indices: np.ndarray, *keys: int) -> np.ndarray:
    """Vectorized `derive_seed(seed, i, *keys)` over an index array.

    `seed` is one int, or numpy uint64 values broadcast against `indices`
    (one seed per index, say). Returns a new array; `indices` is left as
    it was.
    """
    h = indices.astype(np.uint64)
    h ^= np.uint64(seed & _MASK)
    h += _U_GOLDEN
    _mix_array(h)
    for key in keys:
        h ^= np.uint64(key & _MASK)
        h += _U_GOLDEN
        _mix_array(h)
    h += _U_GOLDEN
    return _mix_array(h)


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """The uniform each SplitMix64 state in `raw` draws, as float64; `raw`
    is overwritten."""
    _mix_array(raw)
    raw >>= _S11
    u = raw.astype(np.float64)
    u *= _INV_2_53
    return u


def uniform_array(seeds: np.ndarray, draw_index: int) -> np.ndarray:
    """The `draw_index`-th uniform of each stream in `seeds`, as float64.

    Returns a new array; `seeds` is left as it was.
    """
    return _uniforms(seeds + np.uint64(((draw_index + 1) * _GOLDEN) & _MASK))


def stream_uniforms(states: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Uniform `steps[i]` (counting from 0) of the stream whose state is
    `states[i]`, elementwise: what the `steps[i] + 1`-th `uniform()` call
    of `RngStream(states[i])` returns. A stream's draws are counter-based,
    so draws of many streams at many steps come from one call. `states`
    (uint64) is overwritten, so the call holds one more array of its size.
    """
    advance = steps.astype(np.uint64)
    advance += np.uint64(1)
    advance *= _U_GOLDEN
    states += advance
    del advance
    return _uniforms(states)
