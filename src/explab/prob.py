"""Probability distributions on finite alphabets and the information measures
built on them.

Everything downstream (exponent optimizers, dual bounds, the exact simulator)
manipulates the handful of objects defined here:

- ``Dist``      -- a probability vector over a finite alphabet,
- ``CondDist``  -- a stack of rows, one ``Dist`` per conditioning symbol,
- ``Joint2``    -- a joint matrix with queryable marginals,
- ``Channel``   -- a per-symbol transition matrix with an explicit support mask.

Conventions, applied uniformly:

- logarithms are natural (values are in nats),
- ``0 * log 0 = 0`` and ``x * log(x/0) = +inf`` for ``x > 0``,
- simplex membership is validated to within ``SUM_TOL = 1e-12``,
- all objects are immutable after construction (arrays are marked read-only),
  so every function in this package is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

SUM_TOL = 1e-12
MEASURE_TOL = 1e-10

# coupling_grid, and simplex_grid_array unless overridden, refuse to
# enumerate more points than this
DEFAULT_GRID_CAP = 5_000_000


class ProbError(ValueError):
    """Invalid distribution, channel, or incompatible shapes."""


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    out.setflags(write=False)
    return out


def _check_simplex(p: np.ndarray, what: str) -> None:
    if p.ndim != 1 or p.size < 1:
        raise ProbError(f"{what} must be a nonempty 1-d vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ProbError(f"{what} has non-finite entries")
    if np.any(p < -SUM_TOL) or np.any(p > 1.0 + SUM_TOL):
        raise ProbError(f"{what} entries outside [0,1]: {p}")
    s = float(p.sum())
    if abs(s - 1.0) > SUM_TOL:
        raise ProbError(f"{what} sums to {s}, expected 1 within {SUM_TOL}")


@dataclass(frozen=True)
class Dist:
    """Probability vector over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        _check_simplex(p, "Dist")
        object.__setattr__(self, "probs", _freeze(np.clip(p, 0.0, 1.0)))

    @property
    def size(self) -> int:
        return self.probs.size

    @staticmethod
    def uniform(size: int) -> "Dist":
        return Dist(np.full(size, 1.0 / size))

    @staticmethod
    def point_mass(size: int, at: int) -> "Dist":
        p = np.zeros(size)
        p[at] = 1.0
        return Dist(p)


@dataclass(frozen=True)
class CondDist:
    """A conditional distribution: one probability row per conditioning symbol.

    ``rows`` may carry extra leading axes (e.g. a row per pair (x, x')); only
    the last axis is the distribution.
    """

    rows: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.rows, dtype=float)
        if r.ndim < 2:
            raise ProbError(f"CondDist needs at least 2 axes, got shape {r.shape}")
        flat = r.reshape(-1, r.shape[-1])
        for i, row in enumerate(flat):
            _check_simplex(row, f"CondDist row {i}")
        object.__setattr__(self, "rows", _freeze(np.clip(r, 0.0, 1.0)))

    @property
    def n_out(self) -> int:
        return self.rows.shape[-1]


@dataclass(frozen=True)
class Joint2:
    """Joint distribution over a pair of finite alphabets, stored as a matrix."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.probs, dtype=float)
        if m.ndim != 2:
            raise ProbError(f"Joint2 must be a matrix, got shape {m.shape}")
        _check_simplex(m.reshape(-1), "Joint2")
        object.__setattr__(self, "probs", _freeze(np.clip(m, 0.0, 1.0)))

    def marginal_row(self) -> Dist:
        return Dist(self.probs.sum(axis=1))

    def marginal_col(self) -> Dist:
        return Dist(self.probs.sum(axis=0))

    @staticmethod
    def from_product(p: Dist, q: Dist) -> "Joint2":
        return Joint2(np.outer(p.probs, q.probs))

    @staticmethod
    def from_input_and_rows(p: Dist, rows: np.ndarray) -> "Joint2":
        """Joint p(x) * rows(y|x)."""
        return Joint2(p.probs[:, None] * np.asarray(rows, dtype=float))


@dataclass(frozen=True)
class Channel:
    """A DMC: transition matrix ``W(y|x)`` plus its boolean support mask."""

    matrix: CondDist
    support: np.ndarray = field(init=False)
    log_matrix: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        w = self.matrix.rows
        if w.ndim != 2:
            raise ProbError(f"Channel matrix must be 2-d, got shape {w.shape}")
        sup = w > 0.0
        logw = np.full_like(w, -np.inf)
        np.log(w, out=logw, where=sup)
        object.__setattr__(self, "support", _freeze(sup).astype(bool))
        object.__setattr__(self, "log_matrix", _freeze(logw))

    @property
    def n_in(self) -> int:
        return self.matrix.rows.shape[0]

    @property
    def n_out(self) -> int:
        return self.matrix.rows.shape[1]

    @property
    def w(self) -> np.ndarray:
        return self.matrix.rows

    @staticmethod
    def from_rows(rows) -> "Channel":
        return Channel(CondDist(np.asarray(rows, dtype=float)))

    @staticmethod
    def bsc(p: float) -> "Channel":
        if not 0.0 <= p <= 1.0:
            raise ProbError(f"BSC crossover must be in [0,1], got {p}")
        return Channel.from_rows([[1.0 - p, p], [p, 1.0 - p]])


# ---------------------------------------------------------------------------
# information measures
# ---------------------------------------------------------------------------


def xlogx(a: np.ndarray, out: np.ndarray | None = None,
          pos: np.ndarray | None = None) -> np.ndarray:
    """x log x entry by entry, in floats, 0.0 where x <= 0 or NaN. out (not
    a itself) and pos, for the mask x > 0, are optional buffers of a's
    shape. Two paths give the same bits: when every entry is > 0, plain
    np.log and np.multiply, which skip numpy's slower masked loops; else
    both under the mask (``where=``)."""
    pos = np.greater(a, 0, out=pos)
    if pos.all():
        out = np.log(a, out=out)
        out *= a
        return out
    if out is None:
        out = np.zeros_like(a, dtype=np.result_type(a, 0.0))
    else:
        out.fill(0.0)
    np.log(a, out=out, where=pos)
    return np.multiply(out, a, out=out, where=pos)


def entropy(d: Dist) -> float:
    """Shannon entropy in nats, with 0 log 0 = 0."""
    return float(-xlogx(d.probs).sum())


def conditional_entropy(j: Joint2) -> float:
    """H(row-variable | column-variable) in nats."""
    col = j.probs.sum(axis=0)
    return float(-xlogx(j.probs).sum() + xlogx(col).sum())


def mutual_information(j: Joint2) -> float:
    """I(row; col) in nats; tiny negative round-off is clamped to 0."""
    row = j.probs.sum(axis=1)
    col = j.probs.sum(axis=0)
    v = float(xlogx(j.probs).sum() - xlogx(row).sum() - xlogx(col).sum())
    return v if v > 0.0 else 0.0


def kl_divergence(p: Dist, q: Dist) -> float:
    """D(p || q) in nats; +inf when p puts mass outside q's support."""
    if p.size != q.size:
        raise ProbError(f"KL over mismatched alphabets: {p.size} vs {q.size}")
    pa, qa = p.probs, q.probs
    if np.any((pa > 0) & (qa == 0)):
        return math.inf
    m = pa > 0
    return float(np.sum(pa[m] * (np.log(pa[m]) - np.log(qa[m]))))


def empirical_joint(x_seq: Sequence[int], y_seq: Sequence[int],
                    nx: int | None = None, ny: int | None = None) -> Joint2:
    """Joint empirical distribution of two equal-length symbol sequences."""
    xs = np.asarray(x_seq, dtype=int)
    ys = np.asarray(y_seq, dtype=int)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size == 0:
        raise ProbError(f"sequences must be 1-d, equal-length, nonempty: "
                        f"{xs.shape} vs {ys.shape}")
    if np.any(xs < 0) or np.any(ys < 0):
        raise ProbError("symbols must be nonnegative indices")
    nx = int(xs.max()) + 1 if nx is None else nx
    ny = int(ys.max()) + 1 if ny is None else ny
    counts = np.zeros((nx, ny))
    np.add.at(counts, (xs, ys), 1.0)
    return Joint2(counts / xs.size)


# ---------------------------------------------------------------------------
# grid enumeration
# ---------------------------------------------------------------------------


def simplex_grid_size(dim: int, k: int) -> int:
    return math.comb(k + dim - 1, dim - 1)


@lru_cache(maxsize=64)
def _simplex_grid_counts(dim: int, k: int) -> np.ndarray:
    """Integer compositions of k into dim parts, lexicographic order."""
    if dim == 1:
        return np.array([[k]], dtype=np.int64)
    chunks = []
    for first in range(k + 1):
        rest = _simplex_grid_counts(dim - 1, k - first)
        block = np.empty((rest.shape[0], dim), dtype=np.int64)
        block[:, 0] = first
        block[:, 1:] = rest
        chunks.append(block)
    return np.vstack(chunks)


def simplex_grid_array(dim: int, k: int, cap: int = DEFAULT_GRID_CAP) -> np.ndarray:
    """All probability vectors with entries that are multiples of 1/k.

    Returned as a read-only (N, dim) array in lexicographic order,
    N = C(k+dim-1, dim-1).
    """
    if dim < 1 or k < 1:
        raise ProbError(f"simplex_grid_array needs dim >= 1 and k >= 1, got {dim}, {k}")
    n = simplex_grid_size(dim, k)
    if n > cap:
        raise ProbError(f"simplex grid would emit {n} points, above the cap {cap}")
    return _freeze(_simplex_grid_counts(dim, k) / k)


def _contingency_tables(rows: tuple[int, ...], cols: tuple[int, ...]) -> list[np.ndarray]:
    """All nonnegative integer matrices with the given row and column sums."""
    nr, nc = len(rows), len(cols)

    def fill(r: int, remaining_cols: tuple[int, ...], acc: list[tuple[int, ...]]):
        if r == nr:
            if all(c == 0 for c in remaining_cols):
                yield np.array(acc, dtype=np.int64)
            return
        target = rows[r]

        def row_fill(c: int, left: int, row_acc: tuple[int, ...]):
            if c == nc - 1:
                if left <= remaining_cols[c]:
                    yield row_acc + (left,)
                return
            for v in range(min(left, remaining_cols[c]) + 1):
                yield from row_fill(c + 1, left - v, row_acc + (v,))

        for row in row_fill(0, target, ()):
            new_remaining = tuple(rc - v for rc, v in zip(remaining_cols, row))
            yield from fill(r + 1, new_remaining, acc + [row])

    return list(fill(0, cols, []))


def coupling_grid(q: Dist, k: int) -> list[Joint2]:
    """All 1/k-grid joints over X x X' whose row AND column marginals equal q.

    The composition must sit on the grid: every entry of q has to be a
    multiple of 1/k (exactly, up to 1e-9).
    """
    scaled = np.asarray(q.probs) * k
    rounded = np.rint(scaled)
    if np.any(np.abs(scaled - rounded) > 1e-9 * k):
        raise ProbError(f"composition {q.probs} is not aligned to the 1/{k} grid")
    sums = tuple(int(v) for v in rounded)
    tables = _contingency_tables(sums, sums)
    if len(tables) > DEFAULT_GRID_CAP:
        raise ProbError(f"coupling grid would emit {len(tables)} points, "
                        f"above the cap {DEFAULT_GRID_CAP}")
    tables.sort(key=lambda t: tuple(t.reshape(-1)))
    return [Joint2(t / k) for t in tables]
