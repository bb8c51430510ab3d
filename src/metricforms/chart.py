"""Coordinate charts: names, signature, and sampling domains."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartError
from .expr import FUNCTIONS

#: sample points keep this fraction of the domain width away from each end,
#: so coordinate singularities sitting on the boundary are never hit
DOMAIN_MARGIN = 0.05


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

    def eta(self) -> np.ndarray:
        r, s = self.signature
        return np.diag([1.0] * r + [-1.0] * s)

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
        """Seeded points strictly inside every coordinate domain."""
        rng = np.random.default_rng(seed)
        points = []
        for _ in range(count):
            point = {}
            for name, (lo, hi) in zip(self.coords, self.domains):
                pad = margin * (hi - lo)
                point[name] = float(rng.uniform(lo + pad, hi - pad))
            points.append(point)
        return points
