"""Saturation and quantization of actuated signals.

SSV design takes, for every input, the discrete values the platform allows
(Sec. II-B).  :class:`QuantizedRange` is that description: an inclusive range
plus a step (or an explicit level list), with helpers to clamp-and-snap
continuous controller commands onto legal platform settings.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left, bisect_right
from functools import lru_cache

import numpy as np

__all__ = ["QuantizedRange"]


def _float_bits(x):
    """Ordinal of a non-negative float: monotone in its value."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


@lru_cache(maxsize=None)
def _fraction_table(low, high, levels):
    """Exact breakpoints of ``f -> snap(low + f * (high - low))`` on [0, 1].

    Keyed by value, so ranges with equal values (one per board spec) share
    one table.  Returns ``(breakpoints, levels)``: the smallest fraction
    that reaches each level, ascending.
    """
    snap = QuantizedRange(low, high, levels=levels).snap
    span = high - low

    def level_at(bits):
        return snap(low + _bits_float(bits) * span)

    top = _float_bits(1.0)
    last = level_at(top)
    breaks, reached = [0.0], [level_at(0)]
    start = 0
    while reached[-1] != last:
        # Bisect the float ordering for the first fraction past ``start``
        # whose level differs (the map is monotone, so it is higher).
        lo, hi = start, top
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if level_at(mid) == reached[-1]:
                lo = mid
            else:
                hi = mid
        start = hi
        breaks.append(_bits_float(hi))
        reached.append(level_at(hi))
    return breaks, reached


class QuantizedRange:
    """An inclusive, discretized range of allowed values.

    Parameters
    ----------
    low, high:
        Saturation limits (inclusive).
    step:
        Spacing between allowed levels.  Mutually exclusive with ``levels``.
    levels:
        Explicit sorted sequence of allowed values (overrides low/high/step
        derivation but must lie within [low, high]).
    """

    _fraction_table = None  # (breakpoints, levels), see fraction_table()

    def __init__(self, low, high, step=None, levels=None):
        if high < low:
            raise ValueError(f"high ({high}) must be >= low ({low})")
        self.low = float(low)
        self.high = float(high)
        if levels is not None:
            arr = np.asarray(sorted(float(v) for v in levels))
            if arr.size == 0:
                raise ValueError("levels must be non-empty")
            if arr[0] < self.low - 1e-12 or arr[-1] > self.high + 1e-12:
                raise ValueError("levels must lie within [low, high]")
            self._levels = arr
            self.step = float(np.min(np.diff(arr))) if arr.size > 1 else 0.0
        else:
            if step is None:
                raise ValueError("provide either step or levels")
            if step <= 0:
                raise ValueError(f"step must be positive, got {step}")
            self.step = float(step)
            count = int(math.floor((self.high - self.low) / self.step + 1e-9)) + 1
            self._levels = self.low + self.step * np.arange(count)
        # Plain-list mirror for snap(): controllers snap every actuation,
        # and a bisect on a Python list beats an argmin dispatch ~5x.
        self._levels_list = [float(v) for v in self._levels]

    @property
    def levels(self):
        """The allowed discrete values, ascending."""
        return self._levels.copy()

    @property
    def n_levels(self):
        return int(self._levels.size)

    @property
    def span(self):
        """Width of the saturation range."""
        return self.high - self.low

    @property
    def midpoint(self):
        return 0.5 * (self.low + self.high)

    def clamp(self, value):
        """Saturate a continuous value into [low, high]."""
        return float(min(max(value, self.low), self.high))

    def snap(self, value):
        """Clamp then round to the nearest allowed level."""
        return self._levels_list[self.snap_index(value)]

    def snap_index(self, value):
        """Index of the level that :meth:`snap` would return.

        Equivalent to ``argmin(|levels - value|)`` (ties resolve to the
        lower level, matching argmin's first-minimum rule) but via bisect
        on the sorted levels — this sits on every actuation path.
        """
        value = self.clamp(value)
        levels = self._levels_list
        i = bisect_left(levels, value)
        if i == 0:
            return 0
        if i == len(levels):
            return len(levels) - 1
        return i - 1 if value - levels[i - 1] <= levels[i] - value else i

    def snap_fraction(self, fraction):
        """``snap(low + fraction * (high - low))``, read from a table.

        On ``0 <= fraction <= 1`` that map is a monotone step function:
        each float operation in it is monotone in ``fraction``, and so is
        nearest-level with ties to the lower level.  A table of its exact
        breakpoints (the smallest fraction reaching each level) therefore
        returns the identical level with one bisect.  Any other fraction,
        NaN included, takes the direct path.
        """
        if not 0.0 <= fraction <= 1.0:
            return self.snap(self.low + fraction * (self.high - self.low))
        breaks, levels = self._fraction_table or self.fraction_table()
        return levels[bisect_right(breaks, fraction) - 1]

    def fraction_table(self):
        """``(breakpoints, levels)`` behind :meth:`snap_fraction`.

        Built on first use and shared by every range with the same
        values; callers on a hot path can build it ahead of time.
        """
        if self._fraction_table is None:
            self._fraction_table = _fraction_table(
                self.low, self.high, tuple(self._levels_list))
        return self._fraction_table

    def contains(self, value, tol=1e-9):
        """Whether ``value`` is (within tolerance) an allowed level."""
        return bool(np.any(np.abs(self._levels - value) <= tol))

    def quantization_radius(self):
        """Worst-case distance between a clamped command and its snap.

        Used to size the input-discretization uncertainty in the SSV design
        (the Delta_in block of Fig. 1).  With a single allowed level the
        whole saturation range may separate a command from that level.
        """
        boundary_slack = max(self.high - self._levels[-1],
                             self._levels[0] - self.low, 0.0)
        if self._levels.size < 2:
            return float(boundary_slack)
        half_gap = float(np.max(np.diff(self._levels)) / 2.0)
        return max(half_gap, float(boundary_slack))

    def __contains__(self, value):
        return self.contains(value)

    def __iter__(self):
        return iter(self._levels)

    def __len__(self):
        return self.n_levels

    def __eq__(self, other):
        if not isinstance(other, QuantizedRange):
            return NotImplemented
        return (
            self.low == other.low
            and self.high == other.high
            and self._levels.shape == other._levels.shape
            and bool(np.allclose(self._levels, other._levels))
        )

    def __repr__(self):
        return (
            f"QuantizedRange(low={self.low}, high={self.high}, "
            f"n_levels={self.n_levels})"
        )
