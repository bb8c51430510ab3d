"""Coordinate charts: names, signature, and sampling domains.

The sample points come from an in-repo copy of the stream that numpy
2.4's ``default_rng(seed).uniform`` draws: O'Neill's PCG64 (XSL-RR
128/64, HMC-CS-2014-0905) seeded through NumPy's ``SeedSequence``.  It
lives here for two reasons.  Loading numpy's random package for 80
doubles cost every CLI call about 6 MB of peak memory and 13 ms.  And
NEP 19 leaves numpy free to change its ``Generator`` streams between
releases, while the points of a report must stay byte-reproducible.
``tests/oracles.py`` keeps numpy's draw as the reference the stream is
tested against.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import ChartError
from .expr import FUNCTIONS

#: sample points keep this fraction of the domain width away from each end,
#: so coordinate singularities sitting on the boundary are never hit
DOMAIN_MARGIN = 0.05

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# SeedSequence's hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(hash_const: int, mult: int):
    """SeedSequence's ``hashmix`` from a starting hash constant: each call
    hashes a 32-bit word and advances the constant."""
    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16
    return hashmix


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``: the seed's
    32-bit words mixed into a pool of 4, then 8 words hashed back out."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = _hasher(_INIT_B, _MULT_B)
    words = [out(pool[i % 4]) for i in range(8)]
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def _uniform_doubles(seed: int) -> Iterator[float]:
    """The doubles in [0, 1) that numpy's ``default_rng(seed)`` draws,
    in order.  The seed is checked and hashed at the call, not at the
    first draw."""
    s_hi, s_lo, i_hi, i_lo = _seed_words(seed)
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    # PCG's seeding: from state 0 one step, add the seed state, one step
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128

    def draws(state: int) -> Iterator[float]:
        while True:
            state = (state * _PCG_MULT + inc) & _MASK128
            rot = state >> 122
            x = ((state >> 64) ^ state) & _MASK64
            x = ((x >> rot) | (x << (64 - rot))) & _MASK64
            yield (x >> 11) * 2.0 ** -53
    return draws(state)


@dataclass(frozen=True)
class Chart:
    """A coordinate chart of dimension n.

    ``signature`` is the pair (r, s): the counts of +1 and -1 entries in
    the locally diagonalized metric, with r + s = n.  ``domains`` gives an
    open interval per coordinate used for numeric sampling.
    """

    coords: tuple[str, ...]
    signature: tuple[int, int]
    domains: tuple[tuple[float, float], ...]

    def __post_init__(self):
        n = len(self.coords)
        if n < 1:
            raise ChartError("chart needs at least one coordinate")
        if len(set(self.coords)) != n:
            raise ChartError("coordinate names must be unique")
        for name in self.coords:
            if name in FUNCTIONS:
                raise ChartError(
                    f"coordinate name '{name}' clashes with a function name")
        r, s = self.signature
        if r < 0 or s < 0 or r + s != n:
            raise ChartError(
                f"signature {self.signature} does not match dimension {n}")
        if len(self.domains) != n:
            raise ChartError("one domain interval required per coordinate")
        for name, (lo, hi) in zip(self.coords, self.domains):
            # a width is finite only if both ends are
            if not math.isfinite(float(hi) - float(lo)):
                raise ChartError(f"domain for coordinate '{name}' needs "
                                 "finite ends and a finite width")
            if not (lo < hi):
                raise ChartError(f"empty domain for coordinate '{name}'")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def contains(self, values) -> bool:
        return all(lo < v < hi
                   for v, (lo, hi) in zip(values, self.domains))

    def point(self, values) -> dict[str, float]:
        return dict(zip(self.coords, map(float, values)))

    def midpoint(self) -> dict[str, float]:
        return {name: 0.5 * (lo + hi)
                for name, (lo, hi) in zip(self.coords, self.domains)}

    def sample_points(self, count: int, seed: int,
                      margin: float = DOMAIN_MARGIN) -> list[dict[str, float]]:
        """Seeded points strictly inside every coordinate domain.

        Coordinate ``x`` in ``(lo, hi)`` is ``low + (high - low) * u`` with
        ``low = lo + pad``, ``high = hi - pad`` and ``pad = margin * (hi -
        lo)``, drawn point by point and in chart order.  The ``u`` are the
        PCG64 doubles of numpy 2.4's ``default_rng(seed)``, computed by
        this module, so the points equal that generator's ``uniform(low,
        high)`` draws bit for bit without loading numpy's random
        package.  A negative seed raises ``ValueError`` as numpy does.
        """
        draws = _uniform_doubles(seed)
        points = []
        for _ in range(count):
            point = {}
            for name, (lo, hi) in zip(self.coords, self.domains):
                pad = margin * (hi - lo)
                low = float(lo + pad)
                point[name] = low + (float(hi - pad) - low) * next(draws)
            points.append(point)
        return points
