"""Shared search machinery: batched information measures, simplex meshes,
pattern refinement, 1-d ray suprema, and transportation-polytope
parameterizations.

Every optimizer in this package is built from the same two-stage recipe:
an exhaustive coarse grid over the search domain followed by derivative-free
local refinement (coordinate shrink-and-probe) around the incumbent. The
helpers here implement both stages once so the exponent and dual modules
share one tuned engine.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .prob import simplex_grid_array

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# batched measures
# ---------------------------------------------------------------------------


def xlogx(a: np.ndarray) -> np.ndarray:
    pos = a > 0
    out = np.log(a, out=np.zeros_like(a), where=pos)
    return np.multiply(out, a, out=out, where=pos)


def mi_batch(j: np.ndarray) -> np.ndarray:
    """Mutual information of a batch of joints, shape (..., A, B) -> (...):
    sum xlogx(cells) - sum_x xlogx(row sums) - sum_y xlogx(column sums), each
    sum in numpy's add-reduction order (``_np_sum``), clamped at 0. RowMesh.build,
    RowMesh.stats_of and the binary threshold lattice sum in this order."""
    row = j.sum(axis=-1)
    col = j.sum(axis=-2)
    v = xlogx(j).sum(axis=(-2, -1)) - xlogx(row).sum(axis=-1) - xlogx(col).sum(axis=-1)
    return np.maximum(v, 0.0)


def entropy_batch(p: np.ndarray) -> np.ndarray:
    return -xlogx(p).sum(axis=-1)


def elog_batch(j: np.ndarray, logw: np.ndarray) -> np.ndarray:
    """Sum of j * logw over the trailing axes of logw; -inf where j puts mass
    on logw = -inf cells, with the 0 * (-inf) = 0 convention elsewhere."""
    axes = tuple(range(-logw.ndim, 0))
    mass_on_zero = ((j > 0) & np.isneginf(logw)).any(axis=axes)
    fin = np.where(np.isneginf(logw), 0.0, logw)
    val = (j * fin).sum(axis=axes)
    return np.where(mass_on_zero, -np.inf, val)


# ---------------------------------------------------------------------------
# pattern refinement (coordinate shrink-and-probe)
# ---------------------------------------------------------------------------


def pattern_min(
    x0: np.ndarray,
    f: Callable[[np.ndarray], float],
    step: float,
    iters: int,
    shrink: float,
    steps: np.ndarray | None = None,
) -> tuple[np.ndarray, float, int]:
    """Minimize f by probing +-step along each coordinate of x0.

    f must return +inf for infeasible points. Per-coordinate step sizes may be
    supplied via ``steps``; all shrink together when a full sweep fails to
    improve. Returns (argmin, min, evaluation count).
    """
    x = np.array(x0, dtype=float)
    fx = float(f(x))
    h = np.full(x.size, step, dtype=float) if steps is None else np.array(steps, dtype=float)
    evals = 1
    for _ in range(iters):
        improved = False
        for i in range(x.size):
            for sgn in (1.0, -1.0):
                y = x.copy()
                y[i] += sgn * h[i]
                fy = float(f(y))
                evals += 1
                if fy < fx - 1e-15:
                    x, fx = y, fy
                    improved = True
        if not improved:
            h *= shrink
    return x, fx, evals


def golden_max(f: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-10, max_iter: int = 200) -> tuple[float, float]:
    """Golden-section maximization of a unimodal f on [lo, hi]."""
    a, b = float(lo), float(hi)
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    it = 0
    while b - a > tol and it < max_iter:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
        it += 1
    xm = 0.5 * (a + b)
    return xm, f(xm)


@dataclass
class RayResult:
    arg: float
    value: float
    hit_boundary: bool
    domain_hi: float


def sup_ray(
    f: Callable[[float], float],
    hi: float = 8.0,
    n_grid: int = 17,
    lo_pos: float = 1e-3,
    include_zero: bool = True,
    doublings: int = 3,
    refine: bool = True,
    tol: float | None = None,
) -> RayResult:
    """Supremum of f over the ray [0, inf), searched on [0, hi].

    Log-spaced grid plus the endpoint 0, golden refinement between the
    neighbors of the best grid point. If the maximum sits at the upper end the
    domain is doubled, at most ``doublings`` times; a maximum still at the
    boundary is reported via ``hit_boundary`` rather than chased further.
    """
    top = float(hi)
    for _ in range(doublings + 1):
        xs = list(np.geomspace(lo_pos, top, n_grid))
        if include_zero:
            xs = [0.0] + xs
        vals = [f(x) for x in xs]
        best = int(np.argmax(vals))
        if best < len(xs) - 1:
            break
        top *= 2.0
    lo_n = xs[best - 1] if best > 0 else xs[0]
    hi_n = xs[best + 1] if best < len(xs) - 1 else xs[-1]
    if refine and hi_n > lo_n:
        gtol = tol if tol is not None else 1e-9 * max(1.0, hi_n)
        xg, vg = golden_max(f, lo_n, hi_n, tol=gtol)
        if vg > vals[best]:
            return RayResult(xg, vg, best == len(xs) - 1, top)
    return RayResult(xs[best], vals[best], best == len(xs) - 1, top)


# ---------------------------------------------------------------------------
# transportation polytope {J >= 0 : row sums = p, col sums = q}
# ---------------------------------------------------------------------------


def polytope_basis(nr: int, nc: int) -> np.ndarray:
    """Basis of marginal-preserving moves, shape ((nr-1)(nc-1), nr, nc).

    Move (i, j), i,j >= 1, adds +1 at (i,j) and (0,0), -1 at (i,0) and (0,j);
    any zero-marginal matrix is a unique combination of these.
    """
    basis = np.zeros(((nr - 1) * (nc - 1), nr, nc))
    t = 0
    for i in range(1, nr):
        for j in range(1, nc):
            basis[t, i, j] += 1.0
            basis[t, 0, 0] += 1.0
            basis[t, i, 0] -= 1.0
            basis[t, 0, j] -= 1.0
            t += 1
    return basis


class TransportPolytope:
    """Joints with both marginals pinned, parameterized around the product
    coupling: J(c) = p x q + sum_t c_t * B_t."""

    def __init__(self, p: np.ndarray, q: np.ndarray):
        self.p = np.asarray(p, dtype=float)
        self.q = np.asarray(q, dtype=float)
        self.base = np.outer(self.p, self.q)
        self.basis = polytope_basis(self.p.size, self.q.size)
        self.dim = self.basis.shape[0]

    def joints(self, c: np.ndarray) -> np.ndarray:
        """Materialize joints for parameter rows c, shape (..., dim)."""
        return self.base + np.tensordot(c, self.basis, axes=(-1, 0))

    def feasible(self, j: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        return (j >= -tol).all(axis=(-2, -1))

    def grid(self, n_per_axis: int, budget: int) -> np.ndarray:
        """Parameter mesh covering [-1, 1]^dim, thinned to respect budget."""
        n = n_per_axis
        while n > 5 and n**self.dim > budget:
            n -= 2
        axis = np.linspace(-1.0, 1.0, n)
        mesh = np.meshgrid(*([axis] * self.dim), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def param_of(self, j: np.ndarray) -> np.ndarray:
        """Inverse of joints(): the coordinates at cells (i>=1, j>=1)."""
        d = np.asarray(j, dtype=float) - self.base
        return d[1:, 1:].reshape(-1)


# ---------------------------------------------------------------------------
# conditional-row meshes (search over Q_{Y|slots})
# ---------------------------------------------------------------------------


class RowMesh:
    """Product grid over a tuple of probability rows, scored slot by slot.

    ``weights[r]`` is the mass of slot r, ``x_of[r]`` / ``xp_of[r]`` say into
    which X / X' symbol slot r aggregates. A candidate assigns one grid row to
    each slot; ``build(kind)`` returns, flattened over all G**s candidates:

    - ``qy``  (N, ny)  output marginal
    - ``kl``  (N,)     sum_r weights[r] * D(row_r || W(.|x_of[r])), +inf on
      support violations
    - ``gx``  (N,)     g(Q_XY) for the decoding metric ``kind`` ('ml'/'mmi')
    - ``gxp`` (N,)     g(Q_X'Y)

    No (N, nx, ny) joint is built. A cell Q(x, y) of a joint depends only on
    the slots that aggregate into x, so it lives on the sub-mesh of those
    slots (the method-of-types split of the joint by x). The ML score
    sum_(x,y) Q(x,y) log W(y|x) (-inf when a charged cell has W = 0) and the
    MMI score sum_(x,y) xlogx(Q(x,y)) - sum_x xlogx(Q_X(x)) - sum_y
    xlogx(Q_Y(y)), clamped at 0, are summed from these cells and broadcast
    over the mesh; only the sums that mix every slot (the Q_Y term, and the
    sum over x) span the whole mesh. Every sum is taken in the order
    ``elog_batch`` / ``mi_batch`` would take it on the summed joint, so the
    scores equal theirs bit for bit: the searches that break ties on exact
    score margins then take the same path. ``stats_of(rows, kind)`` returns
    the same values for one candidate in plain floats.
    """

    def __init__(self, weights: np.ndarray, x_of: np.ndarray, xp_of: np.ndarray,
                 grid_rows, nx: int, logw: np.ndarray):
        self.weights = np.asarray(weights, dtype=float)
        self.x_of = np.asarray(x_of, dtype=int)
        self.xp_of = np.asarray(xp_of, dtype=int)
        self.nx = nx
        self.logw = logw
        self.s = self.weights.size
        if isinstance(grid_rows, np.ndarray):
            self.slot_grids = [grid_rows] * self.s
        else:
            self.slot_grids = list(grid_rows)
        self.gs = tuple(g.shape[0] for g in self.slot_grids)
        self.g = self.gs[0]
        self.ny = self.slot_grids[0].shape[1]
        self.n = int(np.prod(self.gs))
        # gxp is gx when every slot aggregates into the same X and X' symbol
        self._same = bool(np.array_equal(self.x_of, self.xp_of))
        self._groups = {"x": _slot_groups(self.x_of), "xp": _slot_groups(self.xp_of)}
        self._dead = np.isneginf(logw)
        self._fin = np.where(self._dead, 0.0, logw)
        # plain-float copies for the scores and stats_of
        self._w = self.weights.tolist()
        self._fin_l = self._fin.tolist()
        self._dead_l = self._dead.tolist()
        self._fin_x = [self._fin_l[x] for x in self.x_of.tolist()]
        self._dead_x = [self._dead_l[x] for x in self.x_of.tolist()]
        self._stats: dict[tuple, dict] = {}  # stats_of memo

    def size(self) -> int:
        return self.n

    def _axis_view(self, arr: np.ndarray, r: int) -> np.ndarray:
        # arr has shape (G_r, ...); place its axis at mesh position r
        shape = [1] * self.s + list(arr.shape[1:])
        shape[r] = self.gs[r]
        return arr.reshape(shape)

    def build(self, kind: str) -> dict[str, np.ndarray]:
        s, ny = self.s, self.ny
        # mass[r][y]: slot r's weighted probability of output y, on mesh axis r
        mass = [[self._axis_view(self.weights[r] * self.slot_grids[r][:, y], r)
                 for y in range(ny)] for r in range(s)]
        # Q_Y column by column: numpy adds along a short trailing axis slowly
        qy = np.empty((ny,) + self.gs)
        for y in range(ny):
            _seq_sum([mass[r][y] for r in range(s)], out=qy[y])
        kl = _seq_sum([self._axis_view(self.weights[r] * self._row_kl(self.slot_grids[r], self.x_of[r]), r)
                       for r in range(s)])
        gx = self._score(kind, self._cells(mass, "x"), xlogx)
        gxp = gx if self._same else self._score(kind, self._cells(mass, "xp"), xlogx)
        n = self.n
        return {"qy": qy.reshape(ny, n).T, "kl": kl.reshape(n),
                "gx": gx.reshape(n), "gxp": gxp.reshape(n)}

    def _cells(self, mass: list, sym: str) -> list:
        """[(x, [Q(x, y) for each y])] from mass[r][y], the weighted row
        entries: sub-mesh arrays of x's slots in build, floats in stats_of."""
        return [(x, _vec_sum([mass[r] for r in slots])) for x, slots in self._groups[sym]]

    @staticmethod
    def _margins(cells: list) -> tuple[list, list]:
        """The cells' row sums over y and column sums over x, each in
        mi_batch's order of summation."""
        return [_np_sum(col) for _, col in cells], _vec_sum([col for _, col in cells])

    def _score(self, kind: str, cells: list, xlx, margins: tuple | None = None):
        """elog_batch (kind 'ml') or mi_batch of the joint with these cells,
        in their order of summation; xlx is x*log(x) for the cells' type,
        margins the cells' ``_margins`` if already taken. Arrays in build,
        floats in stats_of."""
        nx, ny = self.nx, self.ny
        terms = [0.0] * (nx * ny)
        if kind == "ml":
            charged = False
            for x, col in cells:
                dead, fin = self._dead_l[x], self._fin_l[x]
                for y, q in enumerate(col):
                    if dead[y]:
                        charged = charged | (q > 0)
                    else:
                        terms[x * ny + y] = q * fin[y]
            total = _np_sum(terms)
            if isinstance(charged, bool):  # floats, or no dead cell
                return -math.inf if charged else total
            return np.where(charged, -np.inf, total)
        row_sums, col_sums = margins or self._margins(cells)
        h_y = [xlx(q) for q in col_sums]
        del col_sums  # in build, whole-mesh arrays: free them before the cells' terms
        h_x = [0.0] * nx
        for (x, col), tot in zip(cells, row_sums):
            for y, q in enumerate(col):
                terms[x * ny + y] = xlx(q)
            h_x[x] = xlx(tot)
        v = _np_sum(terms) - _np_sum(h_x) - _np_sum(h_y)
        if isinstance(v, float):  # np.maximum(v, 0.0) on a float: v if NaN
            return v if v > 0.0 or v != v else 0.0
        return np.maximum(v, 0.0)

    def _row_kl(self, rows: np.ndarray, x: int) -> np.ndarray:
        """D(row || W(.|x)) per grid row; +inf on support violations."""
        bad = ((rows > 0) & self._dead[x]).any(axis=-1)
        val = (xlogx(rows) - rows * self._fin[x]).sum(axis=-1)
        return np.where(bad, np.inf, val)

    def rows_of(self, flat_index: int) -> np.ndarray:
        idx = np.unravel_index(flat_index, self.gs)
        return np.stack([self.slot_grids[r][idx[r]] for r in range(self.s)])

    def stats_of(self, rows: np.ndarray, kind: str) -> dict:
        """The ``build`` values of one candidate, rows shape (s, ny), in plain
        floats summed in build's order: ``qy`` is a list, ``kl``, ``gx`` and
        ``gxp`` are floats. Logarithms come from one ``np.log`` call, whose
        last bits can differ from ``math.log``'s. Results are memoized per
        mesh on (kind, the exact bytes of rows): a repeated probe returns the
        same dict, which callers must not modify."""
        arr = np.ascontiguousarray(rows, dtype=np.float64)
        key = (kind, arr.shape, arr.tobytes())
        hit = self._stats.get(key)
        if hit is None:
            hit = self._stats[key] = self.compute_stats(arr.tolist(), kind)
        return hit

    def compute_stats(self, rows: list, kind: str) -> dict:
        """``stats_of`` without its memo, on rows as nested lists, for a
        caller that keeps its own memo."""
        wr = [[w * p for p in row] for w, row in zip(self._w, rows)]
        qy = _vec_sum(wr)
        joints = [self._cells(wr, "x")] + ([] if self._same else [self._cells(wr, "xp")])
        need = [p for row in rows for p in row]
        margins = [None] * len(joints)
        if kind == "mmi":
            margins = [self._margins(cells) for cells in joints]
            for cells, (row_sums, col_sums) in zip(joints, margins):
                for _, col in cells:
                    need += col
                need += row_sums + col_sums
        pos = [v for v in need if v > 0.0]
        # x*log(x) of every value needed, as xlogx takes it
        xl = {v: v * g for v, g in zip(pos, np.log(pos).tolist())}
        xl[0.0] = 0.0

        per_slot = []
        for row, fin, dead in zip(rows, self._fin_x, self._dead_x):
            d = 0.0
            for p, f, z in zip(row, fin, dead):
                if p > 0.0:
                    d = math.inf if z else d + (xl[p] - p * f)
            per_slot.append(d)
        kl = math.inf if math.inf in per_slot else _seq_sum([w * d for w, d in zip(self._w, per_slot)])

        gs = [self._score(kind, cells, xl.__getitem__, m) for cells, m in zip(joints, margins)]
        return {"qy": qy, "kl": kl, "gx": gs[0], "gxp": gs[-1]}

    def params_to_rows(self, params: np.ndarray) -> np.ndarray | None:
        """Free coordinates (first ny-1 entries per slot) -> full rows, or
        None when outside the simplex."""
        k = self.ny - 1
        flat = params.tolist()
        if min(flat, default=0.0) < -1e-12:
            return None
        rows = []
        for r in range(self.s):
            free = flat[r * k:(r + 1) * k]
            tot = 0.0
            for v in free:
                tot += v
            last = 1.0 - tot
            if last < -1e-12:
                return None
            rows.append([min(max(v, 0.0), 1.0) for v in free] + [min(max(last, 0.0), 1.0)])
        return np.array(rows)

    def rows_to_params(self, rows: np.ndarray) -> np.ndarray:
        return rows[:, : self.ny - 1].reshape(-1)


def _seq_sum(terms: list, out: np.ndarray | None = None):
    """terms[0] + terms[1] + ... from the left, the order of numpy's
    add-reduction along a non-contiguous axis or of fewer than 8 elements.
    Arrays on different mesh axes broadcast as the sum grows."""
    last = len(terms) - 1 if out is not None else len(terms)
    acc = terms[0]
    for t in terms[1:last]:
        acc = acc + t
    if out is None:
        return acc
    if last == 0:
        out[...] = acc
        return out
    return np.add(acc, terms[last], out=out)


def _np_sum(terms: list):
    """Sum in the order of numpy's add-reduction over len(terms) contiguous
    elements: from the left below 8 terms, else numpy's pairwise scheme of
    eight interleaved partial sums. Terms may be arrays or floats."""
    n = len(terms)
    if n < 8:
        acc = terms[0]
        for i in range(1, n):
            acc = acc + terms[i]
        return acc
    part = list(terms[:8])
    i = 8
    while i < n - n % 8:
        for j in range(8):
            part[j] = part[j] + terms[i + j]
        i += 8
    acc = ((part[0] + part[1]) + (part[2] + part[3])) + ((part[4] + part[5]) + (part[6] + part[7]))
    for t in terms[i:]:
        acc = acc + t
    return acc


def _vec_sum(vecs: list) -> list:
    """vecs[0] + vecs[1] + ... entry by entry, from the left: the order of
    _seq_sum. Entries may be arrays or floats."""
    acc = list(vecs[0])
    for v in vecs[1:]:
        acc = list(map(operator.add, acc, v))
    return acc


def _slot_groups(of: np.ndarray) -> list[tuple[int, list[int]]]:
    """(symbol, the slots aggregating into it), in symbol order."""
    return [(x, np.flatnonzero(of == x).tolist()) for x in np.unique(of).tolist()]


def row_grid(ny: int, k: int, cap: int) -> np.ndarray:
    return simplex_grid_array(ny, k, cap)


def zoom_slot_grids(centers: np.ndarray, h: float, budget: int,
                    points_cap: int = 33) -> list[np.ndarray]:
    """Per-slot local row grids for zoom refinement: points of each row
    simplex within an L-inf box of half-width h around that slot's center.

    The number of points per free axis is the largest of (33, 17, 9, 5, 3)
    within points_cap that keeps the full product mesh within budget. Each
    slot always retains at least its own center point.
    """
    s, ny = centers.shape
    free = ny - 1
    p = 3
    for cand in (33, 17, 9, 5, 3):
        if cand <= points_cap and cand ** (free * s) <= budget:
            p = cand
            break
    grids = []
    for r in range(s):
        axes = []
        for j in range(free):
            c = centers[r, j]
            axes.append(np.unique(np.clip(np.linspace(c - h, c + h, p), 0.0, 1.0)))
        mesh = np.meshgrid(*axes, indexing="ij")
        fc = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        last = 1.0 - fc.sum(axis=1)
        ok = last >= -1e-12
        grids.append(np.concatenate([fc[ok], np.clip(last[ok], 0.0, 1.0)[:, None]], axis=1))
    return grids

