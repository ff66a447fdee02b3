"""Closed forms and brute-force references the benchmark checks explab against.

Nothing here imports explab: every value is computed from the channel
matrix with the standard formulas, so an agreement is evidence and not an
echo. Rates and exponents are in nats.

- ``gallager_e0`` / ``random_coding_low_rate``: Gallager's E_0(rho, Q) and
  E_r(R) = E_0(1) - R below the critical rate. The benchmark's channels at
  the uniform composition (BSC(0.1) and the Z-channel [[1, 0], [0.2, 0.8]])
  equalize the tilted output weights at rho = 1, so there the i.i.d. and
  the constant-composition E_0(1) coincide.
- ``bhattacharyya``: d_B = -ln sum_y sqrt(W(y|0) W(y|1)) of a binary-input
  channel. E_trc(0) = E_ex(0) = d_B / 2 at the uniform composition (Merhav,
  "Error exponents of typical random codes", IEEE T-IT 2018), and psi at the
  antidiagonal coupling of a BSC is d_B.
- ``ck_expurgated_binary``: the Csiszar-Korner expurgated exponent of a
  binary-input channel at the uniform composition, min over the crossover
  delta of the coupling with ln 2 - h(delta) <= R of
  delta * d_B + ln 2 - h(delta) - R. By the corollary of Tamir & Merhav
  (arXiv:2007.12225) the ML and MMI expurgated exponents both equal it.
- ``bsc_ml_error_profile``: exact per-message error probabilities of ML
  decoding on a BSC by enumeration of all outputs. The likelihood depends
  on the Hamming distance only, so ties are exact; the lowest index wins.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)


def gallager_e0(w: np.ndarray, q: np.ndarray, rho: float) -> float:
    """E_0(rho, Q) = -ln sum_y (sum_x Q(x) W(y|x)^(1/(1+rho)))^(1+rho)."""
    inner = np.asarray(q, dtype=float) @ np.asarray(w, dtype=float) ** (1.0 / (1.0 + rho))
    return -math.log(float((inner ** (1.0 + rho)).sum()))


def critical_rate(w: np.ndarray, q: np.ndarray, h: float = 1e-6) -> float:
    """dE_0/drho at rho = 1 (central difference): below it E_r = E_0(1) - R."""
    return (gallager_e0(w, q, 1.0 + h) - gallager_e0(w, q, 1.0 - h)) / (2.0 * h)


def random_coding_low_rate(w: np.ndarray, q: np.ndarray, rate: float) -> float:
    """E_r(R) = E_0(1, Q) - R, valid only at rates below the critical rate."""
    if rate > critical_rate(w, q):
        raise ValueError(f"rate {rate} is above the critical rate {critical_rate(w, q)}")
    return gallager_e0(w, q, 1.0) - rate


def bhattacharyya(w: np.ndarray) -> float:
    """d_B between the two rows of a binary-input channel matrix."""
    w = np.asarray(w, dtype=float)
    if w.shape[0] != 2:
        raise ValueError("d_B is defined here for binary inputs only")
    return -math.log(float(np.sqrt(w[0] * w[1]).sum()))


def binary_entropy(delta: float) -> float:
    """h(delta) in nats, with 0 ln 0 = 0."""
    return -sum(p * math.log(p) for p in (delta, 1.0 - delta) if p > 0.0)


def gv_delta(rate: float) -> float:
    """The least delta in [0, 1/2] with ln 2 - h(delta) <= rate (bisection)."""
    if rate >= LN2:
        return 0.0
    if rate <= 0.0:
        return 0.5
    lo, hi = 0.0, 0.5  # ln 2 - h is decreasing on [0, 1/2]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if LN2 - binary_entropy(mid) <= rate:
            hi = mid
        else:
            lo = mid
    return hi


def ck_expurgated_binary(d_b: float, rate: float) -> float:
    """min over delta with ln 2 - h(delta) <= R of delta d_B + ln 2 - h(delta) - R.

    delta d_B - h(delta) is convex with its free minimum at
    delta* = 1 / (1 + e^d_B) < 1/2, and the constraint keeps delta in
    [gv_delta(R), 1 - gv_delta(R)], so the minimizer is max(delta*, gv_delta(R)).
    """
    delta = max(1.0 / (1.0 + math.exp(d_b)), gv_delta(rate))
    return delta * d_b + LN2 - binary_entropy(delta) - rate


def bsc_ml_error_profile(codewords: np.ndarray, p: float) -> np.ndarray:
    """Per-message error probabilities of minimum-distance decoding on BSC(p),
    p < 1/2, by enumeration of all 2^n outputs; ties go to the lowest index."""
    cw = np.asarray(codewords, dtype=np.int64)
    m_count, n = cw.shape
    if not 0.0 < p < 0.5:
        raise ValueError("minimum distance is ML only for 0 < p < 1/2")
    outputs = np.arange(2**n, dtype=np.int64)
    dist = np.zeros((m_count, outputs.size), dtype=np.int64)
    for i in range(n):
        bit = (outputs >> i) & 1
        dist += bit[None, :] != cw[:, i : i + 1]
    decided = np.argmin(dist, axis=0)  # first minimum: lowest index on ties
    log_lik = dist * math.log(p) + (n - dist) * math.log(1.0 - p)
    wrong = decided[None, :] != np.arange(m_count)[:, None]
    return np.where(wrong, np.exp(log_lik), 0.0).sum(axis=1)
