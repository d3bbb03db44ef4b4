"""Scheme ids, channel parameters and path loss of the wireless model.

Links are Rayleigh-faded with distance path loss d^-alpha. `outage`
describes each scheme once, by its breach links and decoding branches; the
breach law, the partition and relaying COPs and their `rates` success laws
derive from that, the beamforming COP is written on its own. `montecarlo`
samples the decoding condition and the breach test independently, from a
hop table of its own rather than `breach_links`: the simulation must stay a
check of that description, it picks the relaying SBS per trial (where
`breach_links` fixes the nearest one), and `breach_links` orders the
relaying hops by far-field power, which would swap the rows of the drawn
fades when Ps > Pm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class SchemeId(str, Enum):
    """The three cooperative delivery schemes."""

    DBF = "dbf"  # all SBSs co-phase and jointly send a commonly cached file
    FOT = "fot"  # each SBS sends its own file partition on 1/K of the band
    BSR = "bsr"  # best SBS decode-and-forwards a file fetched from the MBS


@dataclass(frozen=True)
class ChannelParams:
    """Propagation and interception parameters.

    Powers are normalized by the receiver noise power, so they equal the
    linear SNR at unit distance. alpha > 2 is required for all secrecy
    integrals to converge.
    """

    alpha: float
    Ps: float
    Pm: float
    lambda_e: float

    def __post_init__(self):
        for name in ("alpha", "Ps", "Pm", "lambda_e"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)}")
        if not self.alpha > 2.0:
            raise ValueError(f"path-loss exponent must exceed 2, got {self.alpha}")
        if not self.Ps >= np.finfo(float).tiny:  # a subnormal Ps loses designs
            raise ValueError("SBS power Ps must be a positive normal float")
        if self.Pm < 0.0:
            raise ValueError("MBS power must be nonnegative")
        if self.lambda_e < 0.0:
            raise ValueError("eavesdropper density must be nonnegative")


def dist_pow_neg(d_sq: np.ndarray, alpha: float) -> np.ndarray:
    """d**(-alpha) from squared distances, fast-pathing even exponents."""
    half = 0.5 * alpha
    if half == 2.0:
        return 1.0 / (d_sq * d_sq)
    if half == 3.0:
        return 1.0 / (d_sq * d_sq * d_sq)
    return d_sq ** (-half)
