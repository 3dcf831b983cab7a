"""Deterministic random streams built on the SplitMix64 generator.

SplitMix64 (Steele, Lea & Flood's SplittableRandom; Vigna's reference
implementation) is a 64-bit generator whose whole state is one counter,
which makes derived substreams cheap: hashing (seed, pulse index, stage)
through the same finalizer yields an independent stream per pulse and
stage. The hash's first round does not depend on the stage, so the
vectorized derivation takes it once a pulse, as the pulse's prefix
(`seed_prefix`), and finishes it for one stage at a time
(`derive_seed_array`). The scalar `RngStream` and the vectorized helpers
below walk the exact same integer sequence, so array-based simulation
reproduces draw-by-draw what a Python loop over streams would produce.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# the finalizer's three xor-shifts, and the bits a draw drops to keep 53
_SHIFT1, _SHIFT2, _SHIFT3 = 30, 27, 31
_DROP = 11

# 53-bit mantissa scaling for uniforms in [0, 1)
_INV_2_53 = 1.0 / (1 << 53)

GENERATOR_NAME = "splitmix64"


def _mix(z: int) -> int:
    z = ((z ^ (z >> _SHIFT1)) * _MIX1) & _MASK
    z = ((z ^ (z >> _SHIFT2)) * _MIX2) & _MASK
    return z ^ (z >> _SHIFT3)


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
        return (_mix(self._state) >> _DROP) * _INV_2_53


# -- vectorized counterparts (numpy uint64, wraparound arithmetic) ----------

_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_S1, _S2, _S3, _S_DROP = (np.uint64(s) for s in (_SHIFT1, _SHIFT2, _SHIFT3, _DROP))


def _mix_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer applied to `z` in place, through one temporary."""
    t = np.empty_like(z)
    for shift, multiplier in ((_S1, _U_MIX1), (_S2, _U_MIX2)):
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= multiplier
    np.right_shift(z, _S3, out=t)
    z ^= t
    return z


def seed_prefix(keys: np.ndarray) -> np.ndarray:
    """The first round of `derive_seed(seed, index, ...)`, applied in place
    to uint64 `keys`, each `seed ^ index`: mix(key + GOLDEN). It does not
    depend on the keys that follow, so one prefix serves every stage (see
    `derive_seed_array`)."""
    keys += _U_GOLDEN
    return _mix_array(keys)


def derive_seed_array(stage: int, prefixes: np.ndarray) -> np.ndarray:
    """Each pulse's `stage` seed from its `seed_prefix`: for a prefix of
    `seed ^ index`, `derive_seed(seed, index, stage)`. Returns a new
    array; `prefixes` is left as it was.
    """
    h = prefixes ^ np.uint64(stage)
    h += _U_GOLDEN
    _mix_array(h)
    h += _U_GOLDEN
    return _mix_array(h)


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """The uniform each SplitMix64 state in `raw` draws, as float64; `raw`
    is overwritten."""
    _mix_array(raw)
    raw >>= _S_DROP
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
