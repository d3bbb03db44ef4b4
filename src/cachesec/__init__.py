"""Physical-layer security toolkit for cache-enabled heterogeneous networks.

Models a macro base station, K cache-equipped small base stations and a
Poisson field of eavesdroppers; evaluates connection and secrecy outage
probabilities for three cooperative delivery schemes (analytically and by
Monte Carlo), designs throughput-optimal wiretap codes, and optimizes the
hybrid cache allocation for overall secrecy throughput and secrecy energy
efficiency.

Modules: `layout` (geometry), `channel` (scheme ids, channel parameters,
path loss), `outage` (analytic COP/SOP), `montecarlo` (seeded estimators),
`rates` (wiretap-code design), `caching` (Zipf demand and allocation),
`cli` (experiment runner).
"""

__version__ = "0.1.0"

from .layout import NetworkLayout, build_line_layout
from .channel import ChannelParams, SchemeId
from .outage import (OutageEstimate, bsr_approx_threshold, cop_bsr,
                     cop_dbf_asymptotic, cop_dbf_exact, cop_fot,
                     sop_bsr_approx, sop_bsr_exact, sop_dbf, sop_fot)
from .montecarlo import McSettings, mc_cop, mc_sop
from .rates import (RateDesign, invert_sop, opt_bs_bsr, opt_bs_dbf,
                    opt_bs_fot, per_scheme_psi, scheme_throughput,
                    secrecy_throughput_curve)
from .caching import (ZipfLibrary, average_power, cum_pop_approx,
                      exhaustive_opt_m, opt_m_see, optimal_mpc_allocation,
                      optimize_allocation, overall_throughput, scheme_probs,
                      see)

__all__ = [
    "NetworkLayout", "build_line_layout",
    "ChannelParams", "SchemeId",
    "OutageEstimate", "bsr_approx_threshold", "cop_bsr",
    "cop_dbf_asymptotic", "cop_dbf_exact", "cop_fot", "sop_bsr_approx",
    "sop_bsr_exact", "sop_dbf", "sop_fot",
    "McSettings", "mc_cop", "mc_sop",
    "RateDesign", "invert_sop", "opt_bs_bsr", "opt_bs_dbf", "opt_bs_fot",
    "per_scheme_psi", "scheme_throughput", "secrecy_throughput_curve",
    "ZipfLibrary", "average_power", "cum_pop_approx", "exhaustive_opt_m",
    "opt_m_see", "optimal_mpc_allocation", "optimize_allocation",
    "overall_throughput", "scheme_probs", "see",
]
