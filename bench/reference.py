"""High-resolution reference values for the benchmark's output checks.

These evaluators share no numerical code with cachesec. Secrecy integrals
use a composite Gauss-Legendre rule in radius, with panel breaks at every
transmitter radius, times a periodic trapezoid rule in angle; each value is
computed at two resolutions and the difference kept as its error estimate.
The beamforming COP is the CDF of a sum of scaled Rayleigh amplitudes,
obtained by 1-D convolution at two grid sizes and extrapolated. Only the
geometry is shared with the program: the line layout is rebuilt here from
its four distances.

`make_refs.py` runs these once and stores the results in `refs.json`.
"""

from __future__ import annotations

import math

import numpy as np

TAIL = math.log(1e14)  # integrands are below 1e-14 beyond the cut radius


def line_layout(g: dict):
    """SBS coordinates (K, 2) and MBS coordinate (2,) of the line layout."""
    sbs = np.stack([np.arange(g["K"]) * g["r_s"],
                    np.full(g["K"], g["r_s1_o"])], axis=1)
    mbs = np.array([0.0, g["r_s1_o"] + g["r_b_s1"]])
    return sbs, mbs


def _panels(rmax: float, breaks, n_total: int):
    edges = np.unique(np.concatenate(
        [np.linspace(0.0, rmax, 9), [b for b in breaks if 0.0 < b < rmax]]))
    per = max(n_total // (len(edges) - 1), 8)
    x, w = np.polynomial.legendre.leggauss(per)
    r = np.concatenate([0.5 * (b - a) * (x + 1.0) + a
                        for a, b in zip(edges[:-1], edges[1:])])
    wr = np.concatenate([0.5 * (b - a) * w
                         for a, b in zip(edges[:-1], edges[1:])])
    return r, wr


def _disc(f, rmax, breaks, n_r, n_t):
    """Integral of f(x, y) over the disc of radius rmax about the origin."""
    r, wr = _panels(rmax, breaks, n_r)
    total = 0.0
    for th in np.array_split(2.0 * math.pi * np.arange(n_t) / n_t,
                             max(n_t // 256, 1)):
        px = r[:, None] * np.cos(th)[None, :]
        py = r[:, None] * np.sin(th)[None, :]
        total += float(np.sum(f(px, py).sum(axis=1) * r * wr))
    return total * 2.0 * math.pi / n_t


def _dpow(px, py, pt, alpha):
    return ((px - pt[0]) ** 2 + (py - pt[1]) ** 2) ** (0.5 * alpha)


def breach_function(kind: str, g: dict, Ps: float, beta_e: float,
                    serving: int = 0):
    """Per-position breach probability and cut radius for one SOP form."""
    sbs, mbs = line_layout(g)
    a, K, Pm = g["alpha"], g["K"], g["Pm"]
    radii = np.hypot(sbs[:, 0], sbs[:, 1])
    if kind == "dbf":
        def f(px, py):
            s = sum(1.0 / _dpow(px, py, p, a) for p in sbs)
            return np.exp(-(beta_e / Ps) / s)
        power, d_max, breaks = K * Ps, radii.max(), radii
    elif kind == "fot":
        def f(px, py):
            keep = np.ones_like(px)
            for p in sbs:
                keep *= -np.expm1(-beta_e * _dpow(px, py, p, a) / (K * Ps))
            return 1.0 - keep
        power, d_max, breaks = K * Ps, radii.max(), radii
    elif kind == "bsr":
        s = sbs[serving]

        def f(px, py):
            h1 = np.exp(-beta_e * _dpow(px, py, mbs, a) / Pm)
            h2 = np.exp(-beta_e * _dpow(px, py, s, a) / Ps)
            return h1 + h2 - h1 * h2
        power = max(Pm, Ps)
        d_max = max(np.hypot(*mbs), radii[serving])
        breaks = [np.hypot(*mbs), radii[serving]]
    else:
        raise ValueError(kind)
    rmax = d_max + (TAIL * power / beta_e) ** (1.0 / a)
    return f, rmax, breaks


def sop(kind: str, g: dict, Ps: float, beta_e: float, serving: int = 0,
        nodes=(1024, 2048)) -> tuple[float, float]:
    """Reference SOP and its error estimate (fine minus half-resolution)."""
    f, rmax, breaks = breach_function(kind, g, Ps, beta_e, serving)
    n_r, n_t = nodes
    fine = -math.expm1(-g["lambda_e"] * _disc(f, rmax, breaks, n_r, n_t))
    coarse = -math.expm1(-g["lambda_e"] * _disc(f, rmax, breaks,
                                                n_r // 2, n_t // 2))
    return fine, abs(fine - coarse)


def sop_bsr_approx(g: dict, Ps: float, beta_e: float) -> float:
    """Independent-field relaying SOP (closed form over the whole plane)."""
    a = g["alpha"]
    expo = math.pi * g["lambda_e"] * math.gamma(1.0 + 2.0 / a) \
        * (g["Pm"] ** (2.0 / a) + Ps ** (2.0 / a)) * beta_e ** (-2.0 / a)
    return -math.expm1(-expo)


def serving_probs(g: dict, Ps: float) -> np.ndarray:
    """P(SBS k has the strongest faded link): max of scaled exponentials."""
    sbs, _ = line_layout(g)
    rate = np.hypot(sbs[:, 0], sbs[:, 1]) ** g["alpha"]  # Exp rates of gains
    # P(argmax = k) = int mu_k e^{-mu_k x} prod_{j != k} (1 - e^{-mu_j x}) dx
    x, w = np.polynomial.legendre.leggauss(400)
    top = 60.0 / rate.min()
    t = 0.5 * top * (x + 1.0)
    wt = 0.5 * top * w
    cdf = -np.expm1(-np.outer(t, rate))
    probs = []
    for k in range(len(rate)):
        rest = np.prod(np.delete(cdf, k, axis=1), axis=1)
        probs.append(float(np.sum(wt * rate[k] * np.exp(-rate[k] * t) * rest)))
    return np.array(probs)


def sop_bsr_fading(g: dict, Ps: float, beta_e: float,
                   nodes=(1024, 2048)) -> tuple[float, float]:
    """Shared-field relaying SOP with the serving SBS chosen by fading."""
    probs = serving_probs(g, Ps)
    value = err = 0.0
    for k, p in enumerate(probs):
        if p < 1e-15:
            continue
        v, e = sop("bsr", g, Ps, beta_e, serving=k, nodes=nodes)
        value += p * v
        err += p * e
    return value, err


def cop_fot(g: dict, Ps: float, beta_t: float) -> float:
    sbs, _ = line_layout(g)
    ra = np.hypot(sbs[:, 0], sbs[:, 1]) ** g["alpha"]
    return -math.expm1(-beta_t * float(ra.sum()) / (g["K"] * Ps))


def cop_bsr(g: dict, Ps: float, beta_t: float) -> float:
    sbs, _ = line_layout(g)
    ra = np.hypot(sbs[:, 0], sbs[:, 1]) ** g["alpha"]
    return float(np.prod(-np.expm1(-beta_t * ra / Ps)))


def cop_dbf_asymptote(g: dict, Ps: float, beta_t: float) -> float:
    sbs, _ = line_layout(g)
    ra = np.hypot(sbs[:, 0], sbs[:, 1]) ** g["alpha"]
    K = g["K"]
    v = 2.0 ** K / math.factorial(2 * K) * (beta_t / Ps) ** K * float(np.prod(ra))
    return min(v, 1.0)


def _cdf_of_sum(a: np.ndarray, x: float, n: int) -> float:
    """P(sum_k a_k R_k <= x) for unit-power Rayleigh R_k, trapezoid rule.

    The densities of a_k R_k are convolved on a uniform grid over [0, T]
    (FFT convolution); every term is nonnegative, so mass beyond x never
    matters, and beyond T = 9 sum(a) it is below exp(-81).
    """
    if len(a) == 1:
        return -math.expm1(-(x / a[0]) ** 2)
    T = min(x, 9.0 * float(a.sum()))
    h = T / (n - 1)
    t = np.arange(n) * h
    f = 2.0 * t / a[0] ** 2 * np.exp(-(t / a[0]) ** 2)
    size = 2 * n
    for ak in a[1:-1]:
        dk = 2.0 * t / ak ** 2 * np.exp(-(t / ak) ** 2)
        f = np.fft.irfft(np.fft.rfft(f, size) * np.fft.rfft(dk, size),
                         size)[:n] * h
    tail = -np.expm1(-((x - t) / a[-1]) ** 2)
    return float(np.sum(f * tail) * h)


def cop_dbf(g: dict, Ps: float, beta_t: float,
            n: int = 1 << 17) -> tuple[float, float]:
    """Beamforming COP P(Ps (sum_k r_k^(-alpha/2) R_k)^2 < beta_t).

    The 1-D CDF of the amplitude sum is computed by repeated convolution at
    two grid sizes and Richardson-extrapolated (the trapezoid error is
    O(h^2)); the extrapolation step is the error estimate.
    """
    sbs, _ = line_layout(g)
    a = np.hypot(sbs[:, 0], sbs[:, 1]) ** (-0.5 * g["alpha"])
    x = math.sqrt(beta_t / Ps)
    coarse = _cdf_of_sum(a, x, n)
    fine = _cdf_of_sum(a, x, 2 * n)
    value = fine + (fine - coarse) / 3.0
    return min(max(value, 0.0), 1.0), abs(fine - coarse) / 3.0
