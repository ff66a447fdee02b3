"""Exact small-blocklength simulation of fixed-composition random codes.

No Monte Carlo over channel outputs anywhere: per-message error
probabilities sum the exact product channel probabilities of the
decoding-error region over every output sequence y in Y^n (at most
``enum_cap`` of them). Randomness enters only through codebook sampling,
which is seeded and reproducible.

The decoders see y only through the joint counts of (x_m, y), and those
depend only on how many positions of each column type c = (x_1(i), ...,
x_M(i)) carry each output symbol (the method of types). So the outputs are
grouped into classes of equal counts, and each class is scored once, in
blocks of at most 2^12 classes: its likelihoods, decisions, GLD posterior
and competing sums. A class code is linear in the digits of y, so the codes
of all outputs come from one low/high digit split, blocks of |Y|^k outputs
at a time. The error profiles sum the per-output error mass in numpy's
pairwise order, gathering one leaf of at most max(|Y|^k, 128) outputs at a
time, so the result is bit-identical to scoring every output and summing
each row once. Memory is one O(M |Y|^n) float64 array, the per-class table
(the code space is at most |Y|^n), plus a few O(M |X| |Y| 2^12) block
arrays. Only ``competing_sum_log``, which returns an (M, |Y|^n) array,
gathers every output at once.

Decoders:

- deterministic ML and MMI (argmax over messages, ties to the lowest index),
- the stochastic generalized likelihood decoder (GLD), which picks message m
  with probability proportional to exp{n g(empirical joint of (x_m, y))};
  the ML-metric case carries a scale beta, and beta -> infinity recovers ML
  with ties split evenly.
"""

from __future__ import annotations

import itertools
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
    """Metric and (for the ML metric) inverse-temperature of the GLD.

    With the ML metric, n*g = beta * log W(y|x_m). beta = 0 means the
    beta -> 0+ limit: n*g is 0 where W(y|x_m) > 0 and -inf where it is 0, so
    the decoder picks uniformly among the messages that can produce y.
    """

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
# exhaustive output enumeration, one output type class at a time
# ---------------------------------------------------------------------------

# Classes scored, and outputs gathered, per block. A block's scoring holds a
# few (M, |X|, |Y|, block) float64 temporaries next to the per-class table;
# at 2^14 they lifted simulate-bsc's peak RSS by up to 12 MiB, at 2^12 by
# under 2 MiB, with no loss of speed.
_BLOCK_OUTPUTS = 2**12
# numpy sums a contiguous float64 run of at most this many values in one
# unrolled loop, and splits a longer run in two (``_OutputClasses.row_sums``).
_PAIRWISE_LEAF = 128
# Tie band of ``_decisions``. At one output, distinct empirical-MI scores of
# count tables with up to 6 cells and n <= 20 differ by more than 1e-4;
# log-likelihoods differ by sums of k log W(b|a) with integer |k| <= n, which
# the band merges only if such a sum falls within 1e-12 of zero.
_TIE_RTOL = 1e-12


class _OutputClasses:
    """The outputs of one codebook, grouped into classes of equal joint counts.

    Positions of the same column type c = (x_1(i), ..., x_M(i)) are
    interchangeable, so the counts N_m(a, b) of an output depend only on
    K[c, b], the number of positions of type c that carry symbol b. Each
    type's part of a class is either its count vector (b >= 1 in radix
    n_c + 1, where K[c, 0] is implied) or its raw digits, whichever code
    space is smaller; a class code is the mixed-radix combination over
    types. The code of output y is then linear in its digits,
    code(y) = sum_i weights[i, y_i], and ``size``, the code space, is at
    most |Y|^n. The inputs are checked before any array is built.
    """

    def __init__(self, cb: Codebook, ch: Channel, enum_cap: int):
        nx, ny, n = ch.n_in, ch.n_out, cb.n
        if ny**n > enum_cap:
            raise ProbError(f"|Y|^n = {ny**n} exceeds the enumeration cap {enum_cap}")
        top = int(cb.codewords.max())
        if top >= nx:
            raise ProbError(f"codeword symbol {top} is outside the channel's input alphabet of size {nx}")
        self.cb, self.ch = cb, ch
        self.weights = np.zeros((n, ny), dtype=np.int64)
        # per type: its column, the (|Y|, L) counts and the codes of its L classes
        self.types: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        stride = 1
        cols, of_pos = np.unique(cb.codewords.T, axis=0, return_inverse=True)
        for c, col in enumerate(cols):
            pos = np.flatnonzero(of_pos.ravel() == c)
            nc = pos.size
            if (nc + 1) ** (ny - 1) <= ny**nc:
                radix = (nc + 1) ** np.arange(ny - 1)
                self.weights[pos, 1:] = stride * radix
                tail = [k for k in itertools.product(range(nc + 1), repeat=ny - 1) if sum(k) <= nc]
                tail = np.array(tail, dtype=np.int64).reshape(len(tail), ny - 1)
                counts = np.column_stack([nc - tail.sum(axis=1), tail])
                local, space = tail @ radix, (nc + 1) ** (ny - 1)
            else:
                place = ny ** np.arange(nc)
                self.weights[pos] = stride * place[:, None] * np.arange(ny)[None, :]
                local, space = np.arange(ny**nc), ny**nc
                digits = (local[:, None] // place) % ny
                counts = (digits[:, :, None] == np.arange(ny)).sum(axis=1)
            self.types.append((col, counts.T.astype(np.int16), stride * local))
            stride *= space
        self.size = stride
        self.count = math.prod(len(local) for _, _, local in self.types)
        # the codes of the k low digits of every output, for the largest k
        # with |Y|^k <= _BLOCK_OUTPUTS
        self.k = 0
        while self.k < n and ny ** (self.k + 1) <= _BLOCK_OUTPUTS:
            self.k += 1
        t = np.arange(ny**self.k)
        self.low = np.zeros(t.size, dtype=np.int64)
        for i in range(self.k):
            self.low += self.weights[i, (t // ny**i) % ny]

    def blocks(self, kind: str):
        """Iterator of (codes, counts, scores, ll) over blocks of at most
        ``_BLOCK_OUTPUTS`` classes: the class codes, their (M, |X|, |Y|, B)
        joint counts, the decoder score and log W(y | x_m) as (M, B) arrays."""
        cb, ch = self.cb, self.ch
        for start in range(0, self.count, _BLOCK_OUTPUTS):
            rest = np.arange(start, min(start + _BLOCK_OUTPUTS, self.count))
            codes = np.zeros(rest.size, dtype=np.int64)
            counts = np.zeros((cb.m_count, ch.n_in, ch.n_out, rest.size), dtype=np.int16)
            for col, local_counts, local_codes in self.types:
                rest, idx = np.divmod(rest, len(local_codes))
                codes += np.take(local_codes, idx)
                k = np.take(local_counts, idx, axis=1)
                for m, a in enumerate(col):
                    counts[m, a] += k
            ll = _log_likelihoods(counts, ch)
            scores = ll if kind == "ml" else _empirical_mi(counts, cb.n)
            yield codes, counts, scores, ll

    def gather(self, table: np.ndarray, out: np.ndarray, start: int = 0) -> np.ndarray:
        """out[:, t - start] = table[:, code(y_t)] for the outputs t = sum_i
        y_i |Y|^i from ``start`` on, one per column of ``out``.

        The outputs go in blocks of |Y|^k: each block adds the code of its
        n - k high digits to the precomputed codes of the k low digits.
        """
        ny, n, size = self.ch.n_out, self.cb.n, self.low.size
        stop = start + out.shape[1]
        for j in range(start // size, -(-stop // size)):
            rest, high = j, 0
            for i in range(self.k, n):
                rest, b = divmod(rest, ny)
                high += int(self.weights[i, b])
            lo, hi = max(start - j * size, 0), min(stop - j * size, size)
            at = j * size + lo - start
            np.take(table, self.low[lo:hi] + high, axis=1, out=out[:, at:at + hi - lo])
        return out

    def row_sums(self, table: np.ndarray) -> np.ndarray:
        """``gather(table, out).sum(axis=1)`` for all |Y|^n outputs, bit for
        bit, without the (M, |Y|^n) ``out``.

        numpy sums a row pairwise: a run of more than ``_PAIRWISE_LEAF``
        values splits at h = size // 2 less h % 8, and the two halves' sums
        are added. This recursion splits the same way down to runs of at most
        max(|Y|^k, ``_PAIRWISE_LEAF``) outputs; each such leaf is gathered
        into one reused buffer and summed by numpy, in numpy's own order.
        """
        cap = max(self.low.size, _PAIRWISE_LEAF)
        buf = np.empty(table.shape[0] * cap)
        return self._pairwise_sum(table, 0, self.ch.n_out**self.cb.n, cap, buf)

    def _pairwise_sum(self, table: np.ndarray, start: int, stop: int, cap: int,
                      buf: np.ndarray) -> np.ndarray:
        size = stop - start
        if size <= cap:
            leaf = buf[:table.shape[0] * size].reshape(table.shape[0], size)
            return self.gather(table, leaf, start).sum(axis=1)
        h = size // 2
        h -= h % 8
        return (self._pairwise_sum(table, start, start + h, cap, buf)
                + self._pairwise_sum(table, start + h, stop, cap, buf))


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
    classes = _OutputClasses(cb, ch, enum_cap)
    table = np.empty((cb.m_count, classes.size))
    msgs = np.arange(cb.m_count)[:, None]
    for codes, _, scores, ll in classes.blocks(decoder.kind):
        table[:, codes] = np.exp(ll) * (_decisions(scores)[None, :] != msgs)
    # one value per output, summed in numpy's pairwise order over all
    # outputs: per-class sums weighted by class size would change that order,
    # and so the last bits
    return ErrorProfile(per_message=classes.row_sums(table))


def _gld_exponents(scores: np.ndarray, n: int, cfg: GldConfig) -> np.ndarray:
    """n*g: beta * log-likelihood for the ML metric, n * empirical MI for MMI.

    At beta = 0 the ML metric takes its beta -> 0+ limit (``GldConfig``), so
    a -inf log-likelihood stays -inf rather than becoming 0 * -inf = NaN.
    """
    if cfg.metric.kind != "ml":
        return n * scores
    if cfg.beta == 0.0:
        return np.where(np.isneginf(scores), -np.inf, 0.0)
    return cfg.beta * scores


def exact_error_profile_gld(cb: Codebook, ch: Channel,
                            cfg: GldConfig = GldConfig(),
                            enum_cap: int = DEFAULT_ENUM_CAP) -> ErrorProfile:
    """Exact per-message error probabilities of the stochastic GLD.

    P_e|m sums, over outputs, the transmit probability W(y|x_m) times the
    posterior mass the GLD assigns to the other messages. An output where
    every n*g is -inf (ML metric, no codeword can produce it) has transmit
    probability 0 for every message and adds 0.
    """
    classes = _OutputClasses(cb, ch, enum_cap)
    table = np.empty((cb.m_count, classes.size))
    for codes, _, scores, ll in classes.blocks(cfg.metric.kind):
        gn = _gld_exponents(scores, cb.n, cfg)
        gmax = gn.max(axis=0)
        safe = np.where(np.isfinite(gmax), gmax, 0.0)
        expg = np.exp(gn - safe[None, :])
        tot = expg.sum(axis=0)
        post = expg / np.where(tot > 0.0, tot, 1.0)
        table[:, codes] = np.exp(ll) * (1.0 - post)
    return ErrorProfile(per_message=classes.row_sums(table))


def competing_sum_log(cb: Codebook, ch: Channel,
                      cfg: GldConfig = GldConfig(),
                      enum_cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """Concentration diagnostic: log of the competing-score mass per
    message/output, i.e. log sum over m' != m of exp{n g(joint of x_m', y)}.

    Shape (M, |Y|^n); -inf where a message has no finite-score competitor.
    M = 1 yields a single all -inf row.
    """
    classes = _OutputClasses(cb, ch, enum_cap)
    m = cb.m_count
    if m == 1:
        return np.full((1, ch.n_out**cb.n), -np.inf)
    table = np.empty((m, classes.size))
    for codes, _, scores, _ in classes.blocks(cfg.metric.kind):
        gn = _gld_exponents(scores, cb.n, cfg)
        for msg in range(m):
            others = np.delete(gn, msg, axis=0)
            top = others.max(axis=0)
            safe = np.where(np.isfinite(top), top, 0.0)
            s = np.exp(others - safe[None, :]).sum(axis=0)
            with np.errstate(divide="ignore"):
                table[msg, codes] = np.where(np.isfinite(top), safe + np.log(s), top)
    return classes.gather(table, np.empty((m, ch.n_out**cb.n)))


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
