"""Exact small-blocklength simulation of fixed-composition random codes.

No Monte Carlo over channel outputs anywhere: per-message error
probabilities are computed by enumerating every output sequence y in Y^n
(an odometer capped at ``enum_cap`` outputs) and summing the exact product
channel probabilities of the decoding-error region. Randomness enters only
through codebook sampling, which is seeded and reproducible.

The outputs are enumerated in blocks of |Y|^k (the largest k with
|Y|^k <= 2^14). The joint counts of the k low positions are built once per
codebook, and each block adds the counts of its n - k high digits, so no
(M, |X|, |Y|, |Y|^n) array is ever built. What grows with |Y|^n is one
(M, |Y|^n) float64 array: the per-output error mass, summed once at the end
so that the result does not depend on the block size (and ``competing_sum_log``
returns an array of that shape). Memory is O(M |Y|^n) float64 plus a few
O(M |X| |Y| 2^14) block arrays.

Decoders:

- deterministic ML and MMI (argmax over messages, ties to the lowest index),
- the stochastic generalized likelihood decoder (GLD), which picks message m
  with probability proportional to exp{n g(empirical joint of (x_m, y))};
  the ML-metric case carries a scale beta, and beta -> infinity recovers ML
  with ties split evenly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exponents import MMI, DecodingMetric
from .prob import Channel, Dist, ProbError

DEFAULT_ENUM_CAP = 2**20


@dataclass(frozen=True)
class Codebook:
    """An ordered list of fixed-composition codewords over X^n.

    Duplicates are allowed: the ensemble draws codewords independently, so a
    sampled codebook may repeat a sequence.
    """

    n: int
    codewords: np.ndarray  # (M, n) integer symbols

    def __post_init__(self) -> None:
        cw = np.asarray(self.codewords, dtype=np.int64)
        if cw.ndim != 2 or cw.shape[1] != self.n or cw.shape[0] < 1:
            raise ProbError(f"codewords must be (M, n={self.n}), got {cw.shape}")
        if np.any(cw < 0):
            raise ProbError("codeword symbols must be nonnegative indices")
        counts = np.stack([np.bincount(row, minlength=int(cw.max()) + 1) for row in cw])
        if np.any(counts != counts[0]):
            raise ProbError("codewords do not share a single composition")
        object.__setattr__(self, "codewords", cw)
        cw.setflags(write=False)

    @property
    def m_count(self) -> int:
        return self.codewords.shape[0]


@dataclass(frozen=True)
class ErrorProfile:
    """Exact per-message error probabilities of one codebook."""

    per_message: np.ndarray
    average: float = field(init=False)
    max: float = field(init=False)

    def __post_init__(self) -> None:
        pm = np.asarray(self.per_message, dtype=float)
        if (pm.ndim != 1 or np.isnan(pm).any() or np.any(pm < -1e-12)
                or np.any(pm > 1 + 1e-12)):
            raise ProbError("per-message error probabilities must lie in [0,1]")
        pm = np.clip(pm, 0.0, 1.0)
        pm.setflags(write=False)
        object.__setattr__(self, "per_message", pm)
        object.__setattr__(self, "average", float(pm.mean()))
        object.__setattr__(self, "max", float(pm.max()))


@dataclass(frozen=True)
class GldConfig:
    """Metric and (for the ML metric) inverse-temperature of the GLD."""

    metric: DecodingMetric = MMI
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.beta < 0 or not math.isfinite(self.beta):
            raise ProbError(f"beta must be finite and >= 0, got {self.beta}")


@dataclass(frozen=True)
class TrialSummary:
    """Empirical surrogate of the typical-codebook exponent at blocklength n.

    The simulator works with (n, M) directly and reports the implied
    ``rate`` = log(M)/n. ``mean_log_pe`` averages log P_e over sampled
    codebooks with P_e > 0; zero-error codebooks are counted in
    ``zero_error_samples`` and excluded (their log is undefined), with
    ``all_zero_error`` flagging the degenerate case where no sample had a
    positive error probability.
    """

    samples: int
    n: int
    m_count: int
    rate: float
    decoder: str
    seed: int
    mean_log_pe: float
    stderr_log_pe: float
    empirical_exponent: float
    zero_error_samples: int
    all_zero_error: bool


def sample_codebook(n: int, m_count: int, q_x: Dist, seed) -> Codebook:
    """Draw m_count codewords i.i.d. uniformly from the type class of q_x.

    Each draw is a seeded shuffle of the fixed composition multiset, so equal
    seeds give identical codebooks. n * q_x must be integral. ``seed`` is
    anything numpy's default_rng accepts (an int, or a list for substreams).
    """
    if n < 1 or m_count < 1:
        raise ProbError("need n >= 1 and m_count >= 1")
    scaled = np.asarray(q_x.probs) * n
    counts = np.rint(scaled).astype(np.int64)
    if np.any(np.abs(scaled - counts) > 1e-9):
        raise ProbError(f"composition {q_x.probs} is not realizable at blocklength {n}")
    base = np.repeat(np.arange(q_x.size), counts)
    rng = np.random.default_rng(seed)
    cw = np.stack([rng.permutation(base) for _ in range(m_count)])
    return Codebook(n=n, codewords=cw)


# ---------------------------------------------------------------------------
# exhaustive output enumeration, one block of outputs at a time
# ---------------------------------------------------------------------------

_BLOCK_OUTPUTS = 2**14  # a block holds |Y|^k outputs, the largest power <= this
# Tie band of ``_decisions``. At one output, distinct empirical-MI scores of
# count tables with up to 6 cells and n <= 20 differ by more than 1e-4;
# log-likelihoods differ by sums of k log W(b|a) with integer |k| <= n, which
# the band merges only if such a sum falls within 1e-12 of zero.
_TIE_RTOL = 1e-12


def _score_blocks(cb: Codebook, ch: Channel, kind: str, enum_cap: int):
    """Iterator of (slice, counts, scores, ll) over blocks of the |Y|^n outputs.

    Output t has digits y_i = (t // |Y|^i) % |Y|. A block fixes the high
    n - k digits to those of j and runs t_lo over |Y|^k, so its outputs are
    t = t_lo + |Y|^k j. The joint counts N[m, a, b, t] of the k low positions
    are built once; each block adds the (M, |X|, |Y|) counts of its high
    digits. ``scores`` and ``ll`` are (M, |Y|^k) arrays: the decoder score
    and log W(y_t | x_m). The inputs are checked when this is called, before
    any array is built.
    """
    nx, ny, n = ch.n_in, ch.n_out, cb.n
    total = ny**n
    if total > enum_cap:
        raise ProbError(f"|Y|^n = {total} exceeds the enumeration cap {enum_cap}")
    top = int(cb.codewords.max())
    if top >= nx:
        raise ProbError(f"codeword symbol {top} is outside the channel's input alphabet of size {nx}")
    k = 0
    while k < n and ny ** (k + 1) <= _BLOCK_OUTPUTS:
        k += 1
    size = ny**k
    t = np.arange(size, dtype=np.int64)
    low = np.zeros((cb.m_count, nx, ny, size), dtype=np.int16)
    for m, cw in enumerate(cb.codewords):
        for i in range(k):
            digit = (t // ny**i) % ny
            for b in range(ny):
                low[m, cw[i], b] += digit == b

    def blocks():
        high = np.empty((cb.m_count, nx, ny), dtype=np.int16)
        for j in range(total // size):
            high[:] = 0
            rest = j
            for i in range(k, n):
                rest, b = divmod(rest, ny)
                for m, cw in enumerate(cb.codewords):
                    high[m, cw[i], b] += 1
            counts = low + high[..., None]
            ll = _log_likelihoods(counts, ch)
            scores = ll if kind == "ml" else _empirical_mi(counts, n)
            yield slice(j * size, (j + 1) * size), counts, scores, ll

    return blocks()


def _log_likelihoods(counts: np.ndarray, ch: Channel) -> np.ndarray:
    """log W(y_t | x_m) from joint counts; -inf on zero-support hits."""
    logw = ch.log_matrix
    fin = np.where(np.isneginf(logw), 0.0, logw)
    ll = np.einsum("mabt,ab->mt", counts.astype(float), fin)
    dead = np.einsum("mabt->mt", (counts > 0) & np.isneginf(logw)[None, :, :, None])
    return np.where(dead > 0, -np.inf, ll)


def _empirical_mi(counts: np.ndarray, n: int) -> np.ndarray:
    """Empirical mutual information of (x_m, y_t) per message/output."""
    nf = counts.astype(float) / n
    row = nf.sum(axis=2)  # (m, a, t)
    col = nf.sum(axis=1)  # (m, b, t)

    def xlx(v: np.ndarray) -> np.ndarray:
        return np.where(v > 0, v * np.log(np.where(v > 0, v, 1.0)), 0.0)

    return (xlx(nf).sum(axis=(1, 2)) - xlx(row).sum(axis=1) - xlx(col).sum(axis=1))


def _decisions(scores: np.ndarray) -> np.ndarray:
    """Per output, the lowest message index whose score ties the best.

    Scores that are equal in exact arithmetic (count tables that are
    permutations of each other) come out of the float sums a few ulps apart,
    so a plain argmax would break those ties by rounding. Scores within
    ``_TIE_RTOL`` (relative, at least absolute) of the best count as tied.
    """
    best = scores.max(axis=0)
    return np.argmax(scores >= best - _TIE_RTOL * np.maximum(1.0, np.abs(best)), axis=0)


def exact_error_profile(cb: Codebook, ch: Channel,
                        decoder: DecodingMetric = MMI,
                        enum_cap: int = DEFAULT_ENUM_CAP) -> ErrorProfile:
    """Exact per-message error probabilities of the deterministic decoder.

    Decisions are argmax of the decoder score over messages with ties broken
    toward the lowest message index (``_decisions``); P_e|m sums W(y|x_m)
    over outputs decided away from m.
    """
    blocks = _score_blocks(cb, ch, decoder.kind, enum_cap)
    # one row per message, reduced once: per-block partial sums would change
    # numpy's pairwise summation order, and so the last bits
    weighted = np.empty((cb.m_count, ch.n_out**cb.n))
    msgs = np.arange(cb.m_count)[:, None]
    for sl, _, scores, ll in blocks:
        wrong = _decisions(scores)[None, :] != msgs
        np.multiply(np.exp(ll), wrong, out=weighted[:, sl])
    return ErrorProfile(per_message=weighted.sum(axis=1))


def _gld_exponents(scores: np.ndarray, n: int, cfg: GldConfig) -> np.ndarray:
    """n*g: beta * log-likelihood for the ML metric, n * empirical MI for MMI."""
    if cfg.metric.kind == "ml":
        return cfg.beta * scores
    return n * scores


def exact_error_profile_gld(cb: Codebook, ch: Channel,
                            cfg: GldConfig = GldConfig(),
                            enum_cap: int = DEFAULT_ENUM_CAP) -> ErrorProfile:
    """Exact per-message error probabilities of the stochastic GLD.

    P_e|m sums, over outputs, the transmit probability W(y|x_m) times the
    posterior mass the GLD assigns to the other messages. An output where
    every n*g is -inf (ML metric, no codeword can produce it) has transmit
    probability 0 for every message and adds 0.
    """
    blocks = _score_blocks(cb, ch, cfg.metric.kind, enum_cap)
    weighted = np.empty((cb.m_count, ch.n_out**cb.n))
    for sl, _, scores, ll in blocks:
        gn = _gld_exponents(scores, cb.n, cfg)
        gmax = gn.max(axis=0)
        safe = np.where(np.isfinite(gmax), gmax, 0.0)
        expg = np.exp(gn - safe[None, :])
        tot = expg.sum(axis=0)
        post = expg / np.where(tot > 0.0, tot, 1.0)
        np.multiply(np.exp(ll), 1.0 - post, out=weighted[:, sl])
    return ErrorProfile(per_message=weighted.sum(axis=1))


def competing_sum_log(cb: Codebook, ch: Channel,
                      cfg: GldConfig = GldConfig(),
                      enum_cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """Concentration diagnostic: log of the competing-score mass per
    message/output, i.e. log sum over m' != m of exp{n g(joint of x_m', y)}.

    Shape (M, |Y|^n); -inf where a message has no finite-score competitor.
    M = 1 yields a single all -inf row.
    """
    blocks = _score_blocks(cb, ch, cfg.metric.kind, enum_cap)
    m = cb.m_count
    out = np.full((m, ch.n_out**cb.n), -np.inf)
    if m == 1:
        return out
    for sl, _, scores, _ in blocks:
        gn = _gld_exponents(scores, cb.n, cfg)
        for msg in range(m):
            others = np.delete(gn, msg, axis=0)
            top = others.max(axis=0)
            safe = np.where(np.isfinite(top), top, 0.0)
            s = np.exp(others - safe[None, :]).sum(axis=0)
            with np.errstate(divide="ignore"):
                out[msg, sl] = np.where(np.isfinite(top), safe + np.log(s), top)
    return out


def empirical_trc(n: int, m_count: int, q_x: Dist, ch: Channel,
                  decoder: DecodingMetric, samples: int, seed: int,
                  enum_cap: int = DEFAULT_ENUM_CAP) -> TrialSummary:
    """Mean of log P_e over seeded codebook samples; exponent = -mean / n.

    Each sample draws its own RNG stream from (seed, sample index), so the
    summary does not depend on evaluation order; codebooks with P_e = 0 are
    excluded from the log-mean and counted separately.
    """
    if samples < 1:
        raise ProbError("need at least one sample")
    averages = [exact_error_profile(sample_codebook(n, m_count, q_x, seed=[seed, i]),
                                    ch, decoder, enum_cap).average
                for i in range(samples)]
    return _trial_summary(averages, n, m_count, decoder.kind, seed)


def _trial_summary(averages: list[float], n: int, m_count: int, decoder: str,
                   seed: int) -> TrialSummary:
    """Log-mean, its standard error and the exponent over sampled P_e values;
    zero-error samples are counted and left out of the log-mean."""
    logs = [math.log(pe) for pe in averages if pe > 0.0]
    zero = sum(1 for pe in averages if pe == 0.0)
    if logs:
        mean = float(np.mean(logs))
        stderr = float(np.std(logs, ddof=1) / math.sqrt(len(logs))) if len(logs) > 1 else 0.0
        exponent = -mean / n
    else:
        mean, stderr, exponent = math.nan, math.nan, math.inf
    return TrialSummary(
        samples=len(averages), n=n, m_count=m_count, rate=math.log(m_count) / n,
        decoder=decoder, seed=seed,
        mean_log_pe=mean, stderr_log_pe=stderr, empirical_exponent=exponent,
        zero_error_samples=zero, all_zero_error=zero == len(averages),
    )


def expurgate_worst_half(cb: Codebook, profile: ErrorProfile) -> Codebook:
    """Keep the ceil(M/2) messages with the smallest per-message error.

    Kept messages stay in their original order, so index tie-breaking in the
    shrunken codebook is consistent with the original. By the Markov/median
    argument the kept half's worst (recomputed) error is at most twice the
    input profile's average.
    """
    m = cb.m_count
    if profile.per_message.size != m:
        raise ProbError("profile does not match the codebook")
    if m == 1:
        return cb
    keep = math.ceil(m / 2)
    order = np.argsort(profile.per_message, kind="stable")[:keep]
    order = np.sort(order)
    return Codebook(n=cb.n, codewords=cb.codewords[order])
