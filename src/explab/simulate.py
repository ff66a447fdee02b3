"""Exact small-blocklength simulation of fixed-composition random codes.

No Monte Carlo over channel outputs anywhere: per-message error
probabilities sum the exact product channel probabilities of the
decoding-error region over every output sequence y in Y^n (at most
``enum_cap`` of them). Randomness enters only through codebook sampling,
which is seeded and reproducible.

The decoders see y only through the joint type of (x_m, y), its counts
N_m(a, b), and those depend only on how many positions of each column type
c = (x_1(i), ..., x_M(i)) carry each output symbol (the method of types).
So the outputs are grouped into classes of equal counts, and each message's
joint type is scored once, into a table: its W(y | x_m) and decoder score.
A joint-type index is linear in the digits of a class, as a class code is
in the digits of y, so the classes go in blocks of at most 2^12 + 1 whose codes
and indexes are each one array sum from precomputed ones. A block reads
its scores from the table and makes its decisions, GLD posterior and
competing sums. The codes of all outputs come from one low/high digit
split, blocks of |Y|^k outputs at a time. The error profiles sum the
per-output error mass in numpy's pairwise order, gathering one leaf of at
most max(|Y|^k, 128) outputs at a time, so the result is bit-identical to
scoring every output and summing each row once. Memory is one O(M |Y|^n)
float64 array, the per-class table (the code space is at most |Y|^n), two
joint-type arrays of at most as many entries (on |Y| = 2, one shared table
of prod_a (n_a + 1) entries), plus a few O(M 2^12) and O(|X| |Y| 2^12)
block arrays. Only ``competing_sum_log``, which returns an (M, |Y|^n)
array, gathers every output at once.

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
# exhaustive output enumeration, by output class and joint type
# ---------------------------------------------------------------------------

# Classes and joint types scored, and outputs gathered, per block. Scoring
# joint types holds a few (|X|, |Y|, block) float64 temporaries, a block of
# classes a few (M, block) ones, next to the per-class table.
_BLOCK_OUTPUTS = 2**12
# numpy sums a contiguous float64 run of at most this many values in one
# unrolled loop, and splits a longer run in two (``_OutputClasses.row_sums``).
_PAIRWISE_LEAF = 128
# Tie band of ``_decisions``. At one output, distinct empirical-MI scores of
# count tables with up to 6 cells and n <= 20 differ by more than 1e-4;
# log-likelihoods differ by sums of k log W(b|a) with integer |k| <= n, which
# the band merges only if such a sum falls within 1e-12 of zero.
_TIE_RTOL = 1e-12


def _count_rows(nc: int, ny: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Every count vector of nc positions over |Y| = ny symbols: the (ny, L)
    counts, their codes (the counts of b >= 1 in radix nc + 1) and the code
    space (nc + 1)^(ny - 1)."""
    radix = (nc + 1) ** np.arange(ny - 1)
    tail = [k for k in itertools.product(range(nc + 1), repeat=ny - 1) if sum(k) <= nc]
    tail = np.array(tail, dtype=np.int64).reshape(len(tail), ny - 1)
    return np.column_stack([nc - tail.sum(axis=1), tail]).T, tail @ radix, (nc + 1) ** (ny - 1)


def _product(parts: list, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every combination of one entry from each (values (k, L), codes (L,))
    part: the summed (k, prod L) values and the summed codes."""
    values, codes = np.zeros((k, 1), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for v, c in parts:
        values = (values[:, :, None] + v[:, None, :]).reshape(k, -1)
        codes = (codes[:, None] + c[None, :]).reshape(-1)
    return values, codes


def _blocks(parts: list, k: int):
    """``_product(parts, k)`` in blocks of 2 to ``_BLOCK_OUTPUTS`` + 1
    combinations, each block two array sums away from precomputed ones.

    The leading parts whose combinations fit in a block are combined once,
    the next part is cut into slices that fill a block, and the remaining
    parts are combined once and taken one combination at a time. No block is
    a single column: numpy sums the cells of a lone column in another order,
    so its scores would depend on the blocking in their last bits.
    """
    low, size = 0, 1
    while low < len(parts) and size * parts[low][1].size <= _BLOCK_OUTPUTS:
        size *= parts[low][1].size
        low += 1
    lows = _product(parts[:low], k)
    if low == len(parts):
        yield lows
        return
    v, c = parts[low]
    hv, hc = _product(parts[low + 1:], k)
    edges = list(range(0, c.size, _BLOCK_OUTPUTS // size)) + [c.size]
    if size == 1 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    for lo, hi in zip(edges, edges[1:]):
        sv, sc = _product([lows, (v[:, lo:hi], c[lo:hi])], k)
        for j in range(hc.size):
            yield sv + hv[:, j:j + 1], sc + hc[j]


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

    The decoders score a class only through the joint type N_m of each
    message, and N_m(a, .) is the sum of K[c, .] over the types c with
    c_m = a. So a joint-type index is linear in the class digits too: each
    row N_m(a, .) is coded by its counts (b >= 1 in radix n_a + 1) or, where
    that space is smaller, by the sub-code of the types that cover a, and
    the rows combine in mixed radix. Messages whose rows are coded alike
    share one table, of at most ``size`` entries; with |Y| = 2 every row is
    coded by its counts, so all messages share one table of prod_a (n_a + 1)
    entries, each joint type scored once.
    """

    def __init__(self, cb: Codebook, ch: Channel, enum_cap: int):
        nx, ny, n, m_count = ch.n_in, ch.n_out, cb.n, cb.m_count
        if ny**n > enum_cap:
            raise ProbError(f"|Y|^n = {ny**n} exceeds the enumeration cap {enum_cap}")
        top = int(cb.codewords.max())
        if top >= nx:
            raise ProbError(f"codeword symbol {top} is outside the channel's input alphabet of size {nx}")
        self.cb, self.ch = cb, ch
        self.weights = np.zeros((n, ny), dtype=np.int64)
        # per type: its column, the (|Y|, L) counts and local codes of its L
        # classes, its code space and its stride in the class code
        types: list[tuple[np.ndarray, np.ndarray, np.ndarray, int, int]] = []
        stride = 1
        cols, of_pos = np.unique(cb.codewords.T, axis=0, return_inverse=True)
        for c, col in enumerate(cols):
            pos = np.flatnonzero(of_pos.ravel() == c)
            nc = pos.size
            if (nc + 1) ** (ny - 1) <= ny**nc:
                counts, local, space = _count_rows(nc, ny)
                self.weights[pos, 1:] = stride * (nc + 1) ** np.arange(ny - 1)
            else:
                place = ny ** np.arange(nc)
                self.weights[pos] = stride * place[:, None] * np.arange(ny)[None, :]
                local, space = np.arange(ny**nc), ny**nc
                digits = (local[:, None] // place) % ny
                counts = (digits[:, :, None] == np.arange(ny)).sum(axis=1).T
            types.append((col, counts.astype(np.int16), local, space, stride))
            stride *= space
        self.types, self.size = types, stride
        # the joint-type tables, by row coding: [offset, parts of the entries]
        # (``_blocks``'s parts: stacked (|X| |Y|, L) row counts and codes)
        tables: dict[tuple, list] = {}
        self.entries = 0
        offsets = np.empty(m_count, dtype=np.int64)
        index = [np.empty((m_count, local.size), dtype=np.int64) for _, _, local, _, _ in types]
        comp = np.bincount(cb.codewords[0], minlength=nx)
        for m in range(m_count):
            cover = [[c for c, (col, *_) in enumerate(types) if col[m] == a] for a in range(nx)]
            coding = tuple(None if (comp[a] + 1) ** (ny - 1) <= math.prod(types[c][3] for c in cov)
                           else tuple(cov) for a, cov in enumerate(cover))
            new = coding not in tables
            if new:
                tables[coding] = [self.entries, []]
            offsets[m], parts = tables[coding]
            step = 1
            for a, cov in enumerate(cover):
                rows = []
                if coding[a] is None:
                    radix = step * (comp[a] + 1) ** np.arange(ny - 1)
                    for c in cov:
                        index[c][m] = radix @ types[c][1][1:]
                    counts, _, space = _count_rows(comp[a], ny)
                    rows.append((counts, radix @ counts[1:]))
                    step *= space
                else:
                    for c in cov:
                        _, counts, local, space, _ = types[c]
                        index[c][m] = step * local
                        rows.append((counts, index[c][m]))
                        step *= space
                if new:
                    for counts, codes in rows:
                        stacked = np.zeros((nx, ny, codes.size), dtype=np.int16)
                        stacked[a] = counts
                        parts.append((stacked.reshape(nx * ny, -1), codes))
            if new:
                self.entries += step
        self.tables = list(tables.values())
        # ``_blocks``'s parts of the classes: per type, the (M, L) joint-type
        # index each class adds and its class codes; the tables' offsets first
        self.parts = [(offsets[:, None], np.zeros(1, dtype=np.int64))]
        self.parts += [(idx, stride * local) for idx, (_, _, local, _, stride) in zip(index, types)]
        # the codes of the k low digits of every output, for the largest k
        # with |Y|^k <= _BLOCK_OUTPUTS
        self.k = 0
        while self.k < n and ny ** (self.k + 1) <= _BLOCK_OUTPUTS:
            self.k += 1
        t = np.arange(ny**self.k)
        self.low = np.zeros(t.size, dtype=np.int64)
        for i in range(self.k):
            self.low += self.weights[i, (t // ny**i) % ny]

    def _score_tables(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """The decoder score and W(y | x_m) of every joint-type entry, NaN
        where an index codes no joint type."""
        ch, nx, ny = self.ch, self.ch.n_in, self.ch.n_out
        scores, probs = np.full(self.entries, np.nan), np.full(self.entries, np.nan)
        for offset, parts in self.tables:
            for counts, codes in _blocks(parts, nx * ny):
                counts = counts.reshape(1, nx, ny, -1)
                ll = _log_likelihoods(counts, ch)[0]
                scores[offset + codes] = ll if kind == "ml" else _empirical_mi(counts, self.cb.n)[0]
                probs[offset + codes] = np.exp(ll)
        return scores, probs

    def blocks(self, kind: str):
        """Iterator of (codes, scores, probs) over blocks of classes: the class
        codes, and per message the decoder score and W(y | x_m) of an output
        of the class, (M, B) arrays read from the joint-type tables."""
        scores, probs = self._score_tables(kind)
        for idx, codes in _blocks(self.parts, self.cb.m_count):
            yield codes, np.take(scores, idx), np.take(probs, idx)

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
    for codes, scores, probs in classes.blocks(decoder.kind):
        table[:, codes] = probs * (_decisions(scores)[None, :] != msgs)
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
    for codes, scores, probs in classes.blocks(cfg.metric.kind):
        gn = _gld_exponents(scores, cb.n, cfg)
        gmax = gn.max(axis=0)
        safe = np.where(np.isfinite(gmax), gmax, 0.0)
        expg = np.exp(gn - safe[None, :])
        tot = expg.sum(axis=0)
        post = expg / np.where(tot > 0.0, tot, 1.0)
        table[:, codes] = probs * (1.0 - post)
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
    for codes, scores, _ in classes.blocks(cfg.metric.kind):
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
