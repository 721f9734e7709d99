"""Seeded 64-bit PRNG (splitmix64) for reproducible random sweeps.

The generator is fully specified by integer arithmetic, so a given seed
produces the same draw sequence on every platform -- a requirement for
byte-identical reports from seeded subcommands.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64 stream; uniform doubles use the top 53 bits."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform draw on [low, high)."""
        u = (self.next_u64() >> 11) * (1.0 / (1 << 53))
        return low + (high - low) * u


def uniforms(seed: int, n: int) -> np.ndarray:
    """The first n draws of ``SplitMix64(seed).uniform()``, as one array:
    output k mixes only the state seed + k*gamma, and uint64 array
    arithmetic wraps modulo 2**64 like the masks of :class:`SplitMix64`."""
    z = np.uint64(seed & _MASK64) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * (1.0 / (1 << 53))
