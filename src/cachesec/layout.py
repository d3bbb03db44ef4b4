"""Deterministic network geometry.

The typical user sits at the origin. A macro base station (MBS) and K small
base stations (SBSs) sit around it at exact points x + iy (Python complex);
everything downstream reads these coordinates or the distances from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def distance(p: complex) -> float:
    """Distance of p from the user, correctly rounded (numpy's abs() may not
    be), and inf where it overflows (where Python's abs() raises)."""
    return math.hypot(p.real, p.imag)


@dataclass(frozen=True)
class NetworkLayout:
    """MBS position plus the K SBS positions, nearest SBS first, in one
    unitless length shared by the whole model.

    Immutable after construction and safe to share across threads.
    """

    mbs: complex
    sbs: tuple[complex, ...]

    def __post_init__(self):
        sbs = tuple(self.sbs)
        object.__setattr__(self, "sbs", sbs)
        if len(sbs) < 1:
            raise ValueError("layout needs at least one SBS")
        for name, points in (("MBS", (self.mbs,)), ("SBSs", sbs)):
            if not all(0.0 < distance(p) < math.inf for p in points):
                raise ValueError(f"{name} must not coincide with the user "
                                 "and must lie at a finite distance")
        for near, far in zip(sbs, sbs[1:]):
            if distance(near) > distance(far) * (1.0 + 1e-12) + 1e-12:
                raise ValueError("SBS list must be sorted by distance to the user")

    @property
    def K(self) -> int:
        return len(self.sbs)

    def sbs_distances(self) -> np.ndarray:
        """User-to-SBS distances, shape (K,), nondecreasing."""
        return np.array([distance(p) for p in self.sbs])

    def sbs_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """SBS Cartesian coordinates as two (K,) arrays."""
        z = np.array(self.sbs, dtype=complex)
        return z.real, z.imag


def build_line_layout(r_s1_o: float, r_s: float, K: int, r_b_s1: float) -> NetworkLayout:
    """Standard experiment geometry.

    The user, the nearest SBS and the MBS are aligned on a vertical line;
    the SBSs sit on the horizontal line through the nearest SBS, spaced r_s
    apart on one side of it.

    Args:
        r_s1_o: distance from the user to the nearest SBS.
        r_s: spacing between consecutive SBSs.
        K: number of SBSs.
        r_b_s1: distance from the nearest SBS to the MBS.
    """
    if r_s1_o <= 0.0 or r_s <= 0.0 or r_b_s1 <= 0.0:
        raise ValueError("all distances must be positive")
    if not isinstance(K, (int, np.integer)) or K < 1:
        raise ValueError(f"K must be a positive integer, got {K!r}")
    sbs = tuple(complex(k * r_s, r_s1_o) for k in range(K))
    return NetworkLayout(mbs=complex(0.0, r_s1_o + r_b_s1), sbs=sbs)
