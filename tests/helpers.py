"""Shared fixtures and comparison utilities for the test suite."""

import math

from cachesec import (ChannelParams, SchemeId, build_line_layout, cop_bsr,
                      cop_dbf_exact, cop_fot, sop_bsr_approx, sop_bsr_exact,
                      sop_dbf, sop_fot)

# the exact COP of each scheme: the analytic side of every COP cross-check
COP = {SchemeId.DBF: cop_dbf_exact, SchemeId.FOT: cop_fot,
       SchemeId.BSR: cop_bsr}


def sop(scheme, layout, params, beta_e, bsr_exact=True):
    """The analytic SOP of each scheme, the analytic side of every SOP
    cross-check; bsr_exact=False selects the layout-free relaying form."""
    if scheme is SchemeId.BSR and not bsr_exact:
        return sop_bsr_approx(params, beta_e)
    return {SchemeId.DBF: sop_dbf, SchemeId.FOT: sop_fot,
            SchemeId.BSR: sop_bsr_exact}[scheme](layout, params, beta_e)


def dbw(value: float) -> float:
    """dBw to linear power."""
    return 10.0 ** (value / 10.0)


def standard_layout(K: int):
    """The default experiment geometry: user, nearest SBS and MBS on a
    vertical line, SBSs spaced 0.5 apart horizontally, MBS 2 beyond SBS 1."""
    return build_line_layout(r_s1_o=1.0, r_s=0.5, K=K, r_b_s1=2.0)


def standard_params(Ps_dBw: float = 10.0, Pm_dBw: float = 0.0,
                    lambda_e: float = 0.1, alpha: float = 4.0) -> ChannelParams:
    return ChannelParams(alpha=alpha, Ps=dbw(Ps_dBw), Pm=dbw(Pm_dBw),
                         lambda_e=lambda_e)


def within_3_sigma(analytic: float, mc_value: float, mc_stderr: float,
                   trials: int) -> bool:
    """3-sigma agreement using the larger of the empirical standard error
    and the exact binomial standard error implied by the analytic value
    (the empirical one collapses to zero when no failures are observed)."""
    sigma = max(mc_stderr,
                math.sqrt(max(analytic * (1.0 - analytic), 0.0) / trials))
    return abs(analytic - mc_value) <= 3.0 * sigma + 1e-12


def rate_redundancy(design) -> float:
    """Redundancy rate R_e = log2(1 + beta_e_circ) of a RateDesign."""
    return math.log2(1.0 + design.beta_e_circ)


def rate_codeword(design) -> float:
    """Codeword rate R_t = R_s + R_e of a RateDesign."""
    return design.rate_secrecy + rate_redundancy(design)


def beta_t_star(design) -> float:
    """Codeword threshold beta_e + (1 + beta_e) beta_s of a RateDesign."""
    return design.beta_e_circ + (1.0 + design.beta_e_circ) * design.beta_s_star
