"""Deterministic counter-based random streams.

Every stochastic component (episode layout, target motion, switcher noise,
action sampling) draws from its own stream derived from a (master seed,
stream id) pair, so results are reproducible no matter how environments are
interleaved or parallelized.

A stream's k-th draw is the splitmix64 finalizer of its state plus k times
a fixed odd constant, so any block of draws of many streams can be computed
as one uint64 array: peek_randoms and advance do that, and their values
equal RngStream.random()'s bit for bit.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_GOLDEN_U64 = np.uint64(_GOLDEN)


def _mix(z: int) -> int:
    """splitmix64 finalizer: avalanches a 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix_u64(z: np.ndarray) -> np.ndarray:
    """_mix of every element of a uint64 array; numpy's uint64 arithmetic
    wraps mod 2**64, as _mix's masks do."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def stream_states(streams) -> np.ndarray:
    """The states of the given RngStreams as a uint64 array."""
    return np.array([s.state for s in streams], dtype=np.uint64)


def peek_randoms(states: np.ndarray, n: int) -> np.ndarray:
    """The next n random() values of each stream state in states (...),
    as (..., n). states is not advanced; see advance."""
    steps = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN_U64
    z = _mix_u64(np.asarray(states, dtype=np.uint64)[..., None] + steps)
    return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def advance(states: np.ndarray, counts) -> np.ndarray:
    """The stream states after counts draws each (counts broadcasts)."""
    return (np.asarray(states, dtype=np.uint64)
            + np.asarray(counts, dtype=np.uint64) * _GOLDEN_U64)


class RngStream:
    """splitmix64 generator whose seed is mixed from (master_seed, stream_id).

    Distinct stream ids under the same master seed give statistically
    independent sequences; identical (seed, id) pairs replay identically.
    """

    __slots__ = ("_state",)

    def __init__(self, master_seed: int, stream_id: int = 0):
        self._state = _mix((master_seed ^ (_GOLDEN * stream_id)) & _MASK64)

    @property
    def state(self) -> int:
        return self._state

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randoms(self, n: int) -> np.ndarray:
        """The next n random() values as an array, in one step."""
        values = peek_randoms(np.array([self._state], dtype=np.uint64), n)[0]
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return values

    def uniforms(self, lo: float, hi: float, n: int) -> np.ndarray:
        """The next n uniform(lo, hi) values as an array."""
        return lo + (hi - lo) * self.randoms(n)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive."""
        if hi < lo:
            raise ValueError(f"empty integer range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, RngStream) and self._state == other._state

    def __repr__(self) -> str:
        return f"RngStream(state=0x{self._state:016x})"
