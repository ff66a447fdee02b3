"""Exact small-blocklength simulation of fixed-composition random codes.

No Monte Carlo over channel outputs anywhere: per-message error
probabilities sum the exact product channel probabilities of the
decoding-error region over every output sequence y in Y^n (at most
``_ENUM_CAP`` = 2^20 of them). Randomness enters only through codebook
sampling, which is seeded and reproducible.

The decoders see y only through the joint type of (x_m, y), its counts
N_m(a, b), and those depend only on how many positions of each column type
c = (x_1(i), ..., x_M(i)) carry each output symbol (the method of types).
So the outputs are grouped into classes of equal counts, and each message's
joint type is scored once, into a table: its W(y | x_m) and decoder score.
A joint-type index is linear in the digits of a class, as a class code is
in the digits of y, so the classes go in blocks of at most 2^12 + 1 whose codes
and indexes are each one array sum from precomputed ones. A block reads
its scores from the table and makes its decisions, GLD posterior and
competing sums. The outputs of a class share every score and probability,
so the error profiles weight each class by its size, the number of outputs
in it (a product of multinomials over the types), and never visit an
output: O(M classes) work in place of O(M |Y|^n). The weighted sum is two
einsum contractions with no BLAS call, so its bits depend neither on the
blocking nor on the BLAS build or its threads. Memory is the per-class
table, M float64 per class code (the code space is at most |Y|^n), two
joint-type arrays of at most as many entries (on |Y| = 2, one shared table
of prod_a (n_a + 1) entries), plus a few O(M 2^12) and O(|X| |Y| 2^12)
block arrays. Only ``competing_sum_log``, which returns an (M, |Y|^n)
array, maps the classes onto the outputs, |Y|^k outputs at a time.

Decoders:

- deterministic ML and MMI (argmax over messages, ties to the lowest index),
- the stochastic generalized likelihood decoder (GLD), which picks message m
  with probability proportional to exp{n g(empirical joint of (x_m, y))};
  the ML-metric case carries a scale beta, and beta -> infinity recovers ML
  with ties split evenly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .exponents import MMI, DecodingMetric
from .prob import Channel, Dist, ProbError, xlogx

_ENUM_CAP = 2**20  # most outputs |Y|^n a profile enumerates


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


def _check_enumerable(n: int, ny: int) -> None:
    """Refuse a blocklength n whose |Y|^n = ny^n outputs exceed the cap."""
    if ny**n > _ENUM_CAP:
        raise ProbError(f"|Y|^n = {ny**n} exceeds the enumeration cap {_ENUM_CAP}")


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

    def __init__(self, cb: Codebook, ch: Channel):
        nx, ny, n, m_count = ch.n_in, ch.n_out, cb.n, cb.m_count
        _check_enumerable(n, ny)
        top = int(cb.codewords.max())
        if top >= nx:
            raise ProbError(f"codeword symbol {top} is outside the channel's input alphabet of size {nx}")
        self.cb, self.ch = cb, ch
        self.weights = np.zeros((n, ny), dtype=np.int64)
        # per type: its column, the (|Y|, L) counts and local codes of its L
        # classes, its code space and its stride in the class code
        types: list[tuple[np.ndarray, np.ndarray, np.ndarray, int, int]] = []
        mults = []  # per type, how many of its digit strings take each local code
        stride = 1
        cols, of_pos = np.unique(cb.codewords.T, axis=0, return_inverse=True)
        for c, col in enumerate(cols):
            pos = np.flatnonzero(of_pos.ravel() == c)
            nc = pos.size
            if (nc + 1) ** (ny - 1) <= ny**nc:
                counts, local, space = _count_rows(nc, ny)
                self.weights[pos, 1:] = stride * (nc + 1) ** np.arange(ny - 1)
                mult = np.zeros(space)
                mult[local] = [math.factorial(nc) // math.prod(map(math.factorial, k))
                               for k in counts.T.tolist()]
            else:
                place = ny ** np.arange(nc)
                self.weights[pos] = stride * place[:, None] * np.arange(ny)[None, :]
                local, space = np.arange(ny**nc), ny**nc
                digits = (local[:, None] // place) % ny
                counts = (digits[:, :, None] == np.arange(ny)).sum(axis=1).T
                mult = np.ones(space)
            types.append((col, counts.astype(np.int16), local, space, stride))
            mults.append(mult)
            stride *= space
        self.types, self.size = types, stride
        # the class sizes mult(c) = mult_high[c // L] mult_low[c % L], L =
        # mult_low.size: products over the high and the low types, split where
        # L + M mult_high.size (both, and ``class_sums``' partial sums) is least
        lows = np.cumprod([1] + [space for _, _, _, space, _ in types])
        split = int(np.argmin(lows + m_count * (stride // lows)))
        self.mult_high, self.mult_low = (
            functools.reduce(lambda acc, v: np.multiply.outer(v, acc).ravel(), part, np.ones(1))
            for part in (mults[split:], mults[:split]))
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

    def gather(self, table: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out[:, t] = table[:, code(y_t)] for every output t = sum_i y_i |Y|^i.

        The outputs go in blocks of |Y|^k, the largest k with |Y|^k <=
        ``_BLOCK_OUTPUTS``: each block adds the code of its n - k high digits
        to the codes of the k low digits, computed once.
        """
        ny, n, k = self.ch.n_out, self.cb.n, 0
        while k < n and ny ** (k + 1) <= _BLOCK_OUTPUTS:
            k += 1
        t = np.arange(ny**k)
        low = np.zeros(t.size, dtype=np.int64)
        for i in range(k):
            low += self.weights[i, (t // ny**i) % ny]
        for j in range(ny ** (n - k)):
            high = sum(int(self.weights[k + i, (j // ny**i) % ny]) for i in range(n - k))
            np.take(table, low + high, axis=1, out=out[:, j * t.size:(j + 1) * t.size])
        return out

    def class_sums(self, table: np.ndarray) -> np.ndarray:
        """Per row, the sum of table[:, code(y)] over all |Y|^n outputs y,
        taken as sum_c mult(c) table[:, c] over the class codes c.

        mult(c), the number of outputs in class c, is a product over types: a
        multinomial n_c! / prod_b K[c, b]! for a count-coded type, 1 for a
        digit-coded one, 0 on a code no class takes. So the (M, size) table
        is viewed as (M, high, low) and contracted with ``mult_low``, then
        with ``mult_high``; no array of ``size`` entries is built.
        """
        high, low = self.mult_high, self.mult_low
        part = np.einsum("mhl,l->mh", table.reshape(-1, high.size, low.size), low, optimize=False)
        return np.einsum("mh,h->m", part, high, optimize=False)


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
    return xlogx(nf).sum(axis=(1, 2)) - xlogx(row).sum(axis=1) - xlogx(col).sum(axis=1)


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
                        decoder: DecodingMetric = MMI) -> ErrorProfile:
    """Exact per-message error probabilities of the deterministic decoder.

    Decisions are argmax of the decoder score over messages with ties broken
    toward the lowest message index (``_decisions``); P_e|m sums W(y|x_m)
    over outputs decided away from m.
    """
    classes = _OutputClasses(cb, ch)
    # codes that no class takes hold 0 (their multiplicity is 0)
    table = np.zeros((cb.m_count, classes.size))
    msgs = np.arange(cb.m_count)[:, None]
    for codes, scores, probs in classes.blocks(decoder.kind):
        table[:, codes] = probs * (_decisions(scores)[None, :] != msgs)
    return ErrorProfile(per_message=classes.class_sums(table))


def _gld_exponents(scores: np.ndarray, n: int, cfg: GldConfig) -> np.ndarray:
    """n*g: beta * log-likelihood for the ML metric, n * empirical MI for MMI.

    At beta = 0 the ML metric takes its beta -> 0+ limit (``GldConfig``), so
    a -inf log-likelihood stays -inf rather than becoming 0 * -inf = NaN.
    """
    if cfg.metric.kind != "ml":
        return n * scores
    if cfg.beta == 0.0:
        return np.where(np.isneginf(scores), -np.inf, 0.0)
    with np.errstate(over="ignore"):  # an n*g below -float max is -inf
        return cfg.beta * scores


def exact_error_profile_gld(cb: Codebook, ch: Channel,
                            cfg: GldConfig = GldConfig()) -> ErrorProfile:
    """Exact per-message error probabilities of the stochastic GLD.

    P_e|m sums, over outputs, the transmit probability W(y|x_m) times the
    posterior mass the GLD assigns to the other messages. An output where
    every n*g is -inf (ML metric, no codeword can produce it) has transmit
    probability 0 for every message and adds 0.
    """
    classes = _OutputClasses(cb, ch)
    table = np.zeros((cb.m_count, classes.size))
    for codes, scores, probs in classes.blocks(cfg.metric.kind):
        gn = _gld_exponents(scores, cb.n, cfg)
        gmax = gn.max(axis=0)
        # near the float maximum, beta * log W(y | x_m) can overflow to -inf
        # at every message of an output; the posterior depends only on
        # differences, so such an output is scored against its best message
        over = np.isneginf(gmax) & np.isfinite(scores.max(axis=0))
        if over.any():
            gn[:, over] = _gld_exponents(scores[:, over] - scores[:, over].max(axis=0), cb.n, cfg)
            gmax[over] = 0.0
        safe = np.where(np.isfinite(gmax), gmax, 0.0)
        expg = np.exp(gn - safe[None, :])
        tot = expg.sum(axis=0)
        post = expg / np.where(tot > 0.0, tot, 1.0)
        table[:, codes] = probs * (1.0 - post)
    return ErrorProfile(per_message=classes.class_sums(table))


def competing_sum_log(cb: Codebook, ch: Channel,
                      cfg: GldConfig = GldConfig()) -> np.ndarray:
    """Concentration diagnostic: log of the competing-score mass per
    message/output, i.e. log sum over m' != m of exp{n g(joint of x_m', y)}.

    Shape (M, |Y|^n); -inf where a message has no finite-score competitor.
    M = 1 yields a single all -inf row.
    """
    classes = _OutputClasses(cb, ch)
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
                  decoder: DecodingMetric, samples: int, seed: int) -> TrialSummary:
    """Mean of log P_e over seeded codebook samples; exponent = -mean / n.

    Each sample draws its own RNG stream from (seed, sample index), so the
    summary does not depend on evaluation order; codebooks with P_e = 0 are
    excluded from the log-mean and counted separately.
    """
    if samples < 1:
        raise ProbError("need at least one sample")
    averages = [exact_error_profile(sample_codebook(n, m_count, q_x, seed=[seed, i]),
                                    ch, decoder).average
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
