"""Deterministic network geometry.

The typical user sits at the origin. A macro base station (MBS) and K small
base stations (SBSs) are placed around it; every outage formula downstream
consumes only pairwise distances derived from this layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PolarPoint:
    """A point in polar coordinates relative to the user at the origin.

    The angle is normalized into [0, 2*pi). Distances are unitless; every
    length in the model shares the same unit.
    """

    r: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise ValueError(f"radius must be finite and >= 0, got {self.r}")
        if not math.isfinite(self.theta):
            raise ValueError(f"angle must be finite, got {self.theta}")
        object.__setattr__(self, "theta", self.theta % TWO_PI)

    @property
    def x(self) -> float:
        return self.r * math.cos(self.theta)

    @property
    def y(self) -> float:
        return self.r * math.sin(self.theta)

    @classmethod
    def from_xy(cls, x: float, y: float) -> "PolarPoint":
        return cls(math.hypot(x, y), math.atan2(y, x))


@dataclass(frozen=True)
class NetworkLayout:
    """MBS position plus the K SBS positions, nearest SBS first.

    Immutable after construction and safe to share across threads.
    """

    mbs: PolarPoint
    sbs: tuple[PolarPoint, ...]

    def __post_init__(self):
        sbs = tuple(self.sbs)
        object.__setattr__(self, "sbs", sbs)
        if len(sbs) < 1:
            raise ValueError("layout needs at least one SBS")
        if self.mbs.r <= 0.0:
            raise ValueError("MBS must not coincide with the user")
        for p in sbs:
            if p.r <= 0.0:
                raise ValueError("SBSs must not coincide with the user")
        for near, far in zip(sbs, sbs[1:]):
            if near.r > far.r * (1.0 + 1e-12) + 1e-12:
                raise ValueError("SBS list must be sorted by distance to the user")

    @property
    def K(self) -> int:
        return len(self.sbs)

    def sbs_distances(self) -> np.ndarray:
        """User-to-SBS distances, shape (K,), nondecreasing."""
        return np.array([p.r for p in self.sbs])

    def sbs_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """SBS Cartesian coordinates as two (K,) arrays."""
        return (np.array([p.x for p in self.sbs]),
                np.array([p.y for p in self.sbs]))


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
    sbs = tuple(PolarPoint.from_xy(k * r_s, r_s1_o) for k in range(K))
    mbs = PolarPoint.from_xy(0.0, r_s1_o + r_b_s1)
    return NetworkLayout(mbs=mbs, sbs=sbs)
