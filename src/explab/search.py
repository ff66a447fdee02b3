"""Shared search machinery: batched information measures, simplex meshes,
pattern refinement, 1-d ray suprema, and transportation-polytope
parameterizations.

Every optimizer in this package is built from the same two-stage recipe:
an exhaustive coarse grid over the search domain followed by derivative-free
local refinement (coordinate shrink-and-probe) around the incumbent. The
helpers here implement both stages once so the exponent and dual modules
share one tuned engine. Its only settings are the grid step and the
refinement iteration count (``OptimizerOptions``); every other search
parameter is a constant here or at the one place that reads it: the
candidate budget ``BUDGET``, the step ratio ``SHRINK``, and the ray
domain ``RAY_HI``.

The grid stage scores whole meshes with numpy (``RowMesh.build``), into
buffers the mesh structure keeps; the refinement scores one candidate at a
time with a plain-float kernel generated and compiled per mesh structure,
which repeats build's float operations in build's order, so both stages
see the same bits. A polish probe goes from its free coordinates to stats
in one kernel call (``RowMesh.param_stats``), and a zoom stage's mesh
shares its parent's structure, kernels and buffers included, and replaces
only the slot grids (``RowMesh.regrid``). A large stage's Q_Y, thresholds and
scores are formed once per distinct cell column or pair of them and gathered
onto the mesh (``RowMesh.margin``): the method of types, bit for bit.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .prob import simplex_grid_array, simplex_grid_size, xlogx

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
BUDGET = 2_000_000  # most mesh candidates, times |X|*|Y|, scored in one build
SHRINK = 0.5  # pattern steps and zoom half-widths shrink by this per stage
RAY_HI = 8.0  # ray suprema search [0, RAY_HI] first, doubling on boundary hits
_COLUMNS_MIN = 2**14  # least mesh size that may be scored on distinct columns


# ---------------------------------------------------------------------------
# batched measures
# ---------------------------------------------------------------------------


def mi_batch(j: np.ndarray) -> np.ndarray:
    """Mutual information of a batch of joints, shape (..., A, B) -> (...):
    sum xlogx(cells) - sum_x xlogx(row sums) - sum_y xlogx(column sums), each
    sum in numpy's add-reduction order (``_np_sum``), clamped at 0. RowMesh.build,
    RowMesh.stats_of and the binary threshold lattice sum in this order."""
    row = j.sum(axis=-1)
    col = j.sum(axis=-2)
    v = xlogx(j).sum(axis=(-2, -1)) - xlogx(row).sum(axis=-1) - xlogx(col).sum(axis=-1)
    return np.maximum(v, 0.0)


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
    f: Callable[[list], float],
    step: float,
    iters: int,
) -> tuple[np.ndarray, float, int]:
    """Minimize f by probing +-step along each coordinate of x0.

    Each probe is a list of floats, one float addition away from the
    incumbent, so the loop builds no array. f must return +inf for
    infeasible points. The step shrinks by SHRINK whenever a full sweep
    fails to improve. Returns (argmin as an array, min, evaluation count).
    """
    x = np.array(x0, dtype=float).tolist()
    fx = float(f(x))
    h = step
    evals = 1
    for _ in range(iters):
        improved = False
        for i in range(len(x)):
            for sgn in (1.0, -1.0):
                y = x.copy()
                y[i] += sgn * h
                fy = float(f(y))
                evals += 1
                if fy < fx - 1e-15:
                    x, fx = y, fy
                    improved = True
        if not improved:
            h *= SHRINK
    return np.array(x), fx, evals


def golden_max(f: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section maximization of a unimodal f on [lo, hi], until the
    bracket is at most tol wide: lo and hi must be finite, and tol wider
    than the float spacing near them."""
    a, b = float(lo), float(hi)
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    return xm, f(xm)


@dataclass
class RayResult:
    """A supremum over a multiplier ray: its argument, its value, and whether
    the search ended at the top of its domain."""

    arg: float
    value: float
    hit_boundary: bool


def ray_grid(values: Callable[[list], Sequence[float]], n: int) -> tuple[list, int]:
    """The grid of 0 and n log-spaced points from 1e-3 to the top, and the
    index of the first maximum of values(grid). The top starts at RAY_HI and
    doubles, at most 3 times, while the maximum is the last point."""
    top = RAY_HI
    for _ in range(4):
        xs = [0.0] + list(np.geomspace(1e-3, top, n))
        best = int(np.argmax(values(xs)))
        if best < n:
            break
        top *= 2.0
    return xs, best


def sup_ray(f: Callable[[float], float],
            scan: Callable[[list], Sequence[float]] | None = None,
            n: int = 25, tol: float | None = None) -> RayResult:
    """Supremum of f over the ray [0, inf), searched on [0, RAY_HI].

    ``ray_grid`` of n points scored by scan (f at each point by default; a
    cheaper scan only has to rank the grid), then f at the best grid point,
    golden refinement of f to tol between that point's neighbours (by
    default 1e-9 * max(1, the upper neighbour)), and a final max with f(0).
    A maximum still at the top of the last grid is reported via
    ``hit_boundary`` rather than chased further.
    """
    xs, best = ray_grid(scan or (lambda grid: [f(x) for x in grid]), n)
    hit = best == len(xs) - 1
    lo_n = xs[best - 1] if best > 0 else xs[0]
    hi_n = xs[-1] if hit else xs[best + 1]
    arg = float(xs[best])
    value = f(arg)
    if hi_n > lo_n:
        xg, vg = golden_max(f, lo_n, hi_n, 1e-9 * max(1.0, hi_n) if tol is None else tol)
        if vg > value:
            arg, value = float(xg), vg
    return RayResult(arg, float(max(value, f(0.0))), hit)


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

    def feasible(self, j: np.ndarray) -> np.ndarray:
        return (j >= -1e-12).all(axis=(-2, -1))

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

    - ``qy``  (N, ny)  output marginal, or its first columns (``build``)
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
    the same values for one candidate in plain floats, from a straight-line
    kernel compiled once per mesh structure (``_stats_kernel``): the same
    float operations in the same order, with the loops over slots, cells and
    symbols unrolled. ``param_stats(params, kind)`` runs the structure's
    other kernel, which first turns a polish probe's free coordinates into
    rows, so a probe goes from parameters to stats in one call.
    ``regrid(slot_grids)`` makes the mesh of a zoom stage: it shares this
    mesh's structure (slot groups, dead cells, the plain-float weights and
    log W, the kernels, the buffers) and replaces only the slot grids.

    A score depends on a candidate only through its cell columns [Q(x, y)
    for each y], and a symbol's sub-mesh may repeat a column bit for bit
    (at equal slot weights, a binary zoom stage's 17 x 17 sub-mesh holds 33).
    Where ``_by_columns`` admits it, ``_score`` runs on the grid of each slot
    group's distinct columns, one axis per group, and takes gather the
    values onto the mesh. A zoom stage reads only kl and the margin gxp -
    max(gx, a(R, Q_Y)) (``margin``). The X groups' slots come first, so Q_Y's
    left fold passes through the first group's cell column: Q_Y, a and
    max(gx, a) live on the table of that column's distinct values by the
    other slots' rows (33 x 17 x 17 at that stage), and one take of its rows
    makes the mesh's. Each value is made by the same float operations on the
    same bits, so all are equal bit for bit.

    ``build`` and ``margin`` write their arrays into buffers that the structure
    owns (``buffer``), so the zoom stages of a solve make no new full-mesh
    arrays: only sub-mesh and table arrays are new, and, at 8 or more cells
    or outputs, the terms and partial sums of numpy's pairwise order. Their
    arrays are views of these buffers, valid until the next build or margin
    of a mesh of the structure. The scratch buffers ``s0`` (but for a
    margin), ``s1`` (float) and ``pos`` (bool) hold nothing between these:
    a caller may use them, at the mesh's size, until the next one. Threads
    on meshes of different structures share no buffers. ``release`` hands
    the arrays of the latest build to their holders and frees the rest.
    """

    def __init__(self, weights: np.ndarray, x_of: np.ndarray, xp_of: np.ndarray,
                 grid_rows, nx: int, logw: np.ndarray):
        self.weights = np.asarray(weights, dtype=float)
        self.x_of = np.asarray(x_of, dtype=int)
        self.xp_of = np.asarray(xp_of, dtype=int)
        self.nx = nx
        self.ny = logw.shape[1]
        self.logw = logw
        self.s = self.weights.size
        # gxp is gx when every slot aggregates into the same X and X' symbol
        self._same = bool(np.array_equal(self.x_of, self.xp_of))
        self._groups = {"x": _slot_groups(self.x_of), "xp": _slot_groups(self.xp_of)}
        self._dead = np.isneginf(logw)
        self._fin = np.where(self._dead, 0.0, logw)
        # plain-float copies for the scores and the stats kernels
        self._w = self.weights.tolist()
        self._fin_l = self._fin.tolist()
        self._dead_l = self._dead.tolist()
        self._kernels: dict[tuple, Callable] = {}  # on (kind, params), from _stats_kernel
        self._bufs: dict[str, np.ndarray] = {}  # build's arrays and scratch, by name
        self._set_grids(grid_rows)

    def _set_grids(self, grid_rows) -> None:
        if isinstance(grid_rows, np.ndarray):
            self.slot_grids = [grid_rows] * self.s
        else:
            self.slot_grids = list(grid_rows)
        self.gs = tuple(g.shape[0] for g in self.slot_grids)
        self.n = math.prod(self.gs)

    def regrid(self, grid_rows) -> RowMesh:
        """A mesh of this structure on other slot grids (one array for every
        slot, or one per slot)."""
        mesh = object.__new__(RowMesh)
        mesh.__dict__.update(self.__dict__)
        mesh._set_grids(grid_rows)
        return mesh

    def size(self) -> int:
        return self.n

    def _axis_view(self, arr: np.ndarray, r: int) -> np.ndarray:
        # arr has shape (G_r, ...); place its axis at mesh position r
        shape = [1] * self.s + list(arr.shape[1:])
        shape[r] = self.gs[r]
        return arr.reshape(shape)

    def buffer(self, name: str, shape: tuple | None = None, dtype=float) -> np.ndarray:
        """The structure's buffer ``name``, viewed with ``shape`` (default
        (n,)); it is replaced by a larger one when it is too small, so its
        contents last only until the next call that grows it."""
        shape = (self.n,) if shape is None else shape
        size = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._bufs[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def release(self) -> None:
        """Drop the structure's buffers: the arrays of the latest build become
        their holders' own, the rest is freed, and the next build of the
        structure makes new buffers."""
        self._bufs.clear()

    def build(self, kind: str, qy_cols: int | None = None) -> dict[str, np.ndarray]:
        """The mesh's ``qy``, ``kl``, ``gx`` and ``gxp`` (see the class).
        ``qy`` holds the first qy_cols columns of Q_Y, shape (N, qy_cols),
        and every column by default: a caller makes only the columns it
        reads, since each costs a full-mesh sum. ``gx`` and ``gxp`` have the
        full-mesh bits also where they come from distinct cell columns."""
        return self._build(kind, self.ny if qy_cols is None else qy_cols, self._mass())

    def _build(self, kind: str, cols: int, mass: list, first: tuple | None = None) -> dict:
        s, n = self.s, self.n
        qy = self.buffer("qy", (cols,) + self.gs)
        for y in range(cols):
            _seq_sum([mass[r][y] for r in range(s)], out=qy[y])
        gx = self._score_of(kind, "x", self._cells(mass, "x"), self.buffer("gx", self.gs), kind, first)
        gxp = gx if self._same else self._score_of(kind, "xp", self._cells(mass, "xp"),
                                                   self.buffer("gxp", self.gs), kind)
        return {"qy": qy.reshape(cols, n).T, "kl": self._kl(), "gx": gx.reshape(n),
                "gxp": gxp.reshape(n)}

    def margin(self, kind: str, threshold: Callable, cols: int) -> tuple[np.ndarray, np.ndarray]:
        """kl and the score margin gxp - max(gx, a) of each candidate (see the
        class), flattened, the margin in s0; threshold(qy, out=, index=) writes a(R,
        Q_Y) of each row of qy (Q_Y's first cols columns) into out, index int64 scratch."""
        n, s, mass = self.n, self.s, self._mass()
        cells = self._cells(mass, "x")
        ordered = n >= _COLUMNS_MIN and (np.diff(self.x_of) >= 0).all()  # the table needs it
        first = _distinct_columns(cells[0][1]) if ordered else None
        k0, s0, s1 = len(self._groups["x"][0][1]), self.buffer("s0"), self.buffer("s1")
        table = () if first is None else (first[0].shape[1],) + (1,) * (k0 - 1) + self.gs[k0:]
        if not table or not _by_columns(None, n, table):
            arrs = self._build(kind, cols, mass, first)
            a = threshold(arrs["qy"], out=s0, index=s1.view(np.int64))
            top, gxp, kl = np.maximum(arrs["gx"], a, out=a), arrs["gxp"], arrs["kl"]
        else:
            gxp = self._score_of(kind, "xp", self._cells(mass, "xp"), self.buffer("gxp", self.gs), None)
            picks = [first] + [_distinct_columns(col) for _, col in cells[1:]]
            gx = self._grid(kind, cells, picks)  # then on the table: every axis but the first
            for h in range(len(picks) - 1, 0, -1):
                gx = gx.take(picks[h][1], axis=h)
            qy = self.buffer("qy", (cols,) + table)
            for y in range(cols):
                _seq_sum([first[0][y].reshape((-1,) + (1,) * (s - 1))]
                         + [mass[r][y] for r in range(k0, s)], out=qy[y])
            a = threshold(qy.reshape(cols, -1).T, out=s0[:gx.size], index=s1[:gx.size].view(np.int64))
            top = np.maximum(gx.reshape(-1), a, out=a).reshape(table[0], -1).take(
                first[1], axis=0, out=s1.reshape(first[1].size, -1), mode="clip")
            kl = self._kl()
        with np.errstate(invalid="ignore"):
            return kl, np.subtract(gxp.reshape(n), top.reshape(n), out=s0)

    def _mass(self) -> list:
        # mass[r][y]: slot r's weighted probability of output y, on mesh axis r
        return [[self._axis_view(self.weights[r] * self.slot_grids[r][:, y], r)
                 for y in range(self.ny)] for r in range(self.s)]

    def _kl(self) -> np.ndarray:
        # kl, flattened. numpy adds along a short trailing axis slowly: below 32
        # rows, the last slot's add runs with its axis first in s0, then is copied over
        terms = [self._axis_view(self.weights[r] * d, r) for r, d in enumerate(self._row_kl())]
        kl, g = self.buffer("kl", self.gs), self.gs[-1]
        if self.s == 1 or g >= 32:
            return _seq_sum(terms, out=kl).reshape(self.n)
        tail = np.add(_seq_sum(terms[:-1]).reshape(1, -1), terms[-1].reshape(g, 1),
                      out=self.buffer("s0", (g, self.n // g)))
        np.copyto(kl.reshape(-1, g), tail.T)
        return kl.reshape(self.n)

    def _cells(self, mass: list, sym: str) -> list:
        """[(x, [Q(x, y) for each y])] from mass[r][y], the weighted row
        entries on the mesh axes."""
        return [(x, _vec_sum([mass[r] for r in slots])) for x, slots in self._groups[sym]]

    def _grid(self, kind: str, cells: list, picks: list) -> np.ndarray:
        # _score on the grid of each group's distinct columns, group g's on axis g
        k = len(picks)
        return self._score(kind, [(x, [c.reshape((1,) * g + (-1,) + (1,) * (k - 1 - g)) for c in u])
                                  for g, ((x, _), (u, _)) in enumerate(zip(cells, picks))],
                           self.buffer("cols", tuple(u.shape[1] for u, _ in picks)))

    def _score_of(self, kind: str, sym: str, cells: list, out: np.ndarray, gate: str | None,
                  first: tuple | None = None) -> np.ndarray:
        """``_score`` of the joint of sym's slot groups (these cells) into out: on
        the mesh, or where ``_by_columns(gate, ...)`` admits it, on the grid of each
        group's distinct cell columns (first: the first group's, if found), gathered."""
        picks = []
        if _by_columns(gate, self.n, None):
            picks = [first] if first else []
            picks += [_distinct_columns(col) for _, col in cells[len(picks):]]
        if not picks or not _by_columns(gate, self.n, [u.shape[1] for u, _ in picks]):
            return self._score(kind, cells, out)
        # the last slot's group is gathered first, that slot's axis last: each
        # mesh row over it is then the row the other axes' mesh indices point to
        grid, gs, last = self._grid(kind, cells, picks), self.gs, self.s - 1
        groups, inverses = [slots for _, slots in self._groups[sym]], [inv for _, inv in picks]
        g = next(g for g, slots in enumerate(groups) if last in slots)
        part = grid.take(inverses[g], axis=g).reshape(
            grid.shape[:g] + tuple(gs[r] for r in groups[g]) + grid.shape[g + 1:])
        part = np.moveaxis(part, g + len(groups[g]) - 1, -1)
        index = [(inverses[h], slots) for h, slots in enumerate(groups) if h != g]
        index[g:g] = [(np.arange(gs[r]), [r]) for r in groups[g][:-1]]
        rows = np.ravel_multi_index([v.reshape([gs[q] if q in on else 1 for q in range(last)])
                                     for v, on in index], part.shape[:-1])
        return part.reshape(-1, gs[last]).take(rows, axis=0, out=out.reshape(gs), mode="clip")

    def _score(self, kind: str, cells: list, out: np.ndarray) -> np.ndarray:
        """elog_batch (kind 'ml') or mi_batch of the joint with these cells,
        in their order of summation, into out (of their broadcast shape)."""
        nx, ny = self.nx, self.ny
        terms = [0.0] * (nx * ny)
        if kind == "ml":
            charged = []
            for x, col in cells:
                dead, fin = self._dead_l[x], self._fin_l[x]
                for y, q in enumerate(col):
                    if dead[y]:
                        charged.append(q)
                    else:
                        terms[x * ny + y] = q * fin[y]
            total = _np_sum(terms, out)
            for q in charged:
                np.copyto(total, -np.inf, where=q > 0)
            return total
        s0, s1 = self.buffer("s0", out.shape), self.buffer("s1", out.shape)
        pos = self.buffer("pos", out.shape, bool)
        # the Q_Y term into out first: column y into s0, its x log x into s1
        if ny < 8:  # _np_sum's order: from the left
            for y in range(ny):
                col = _seq_sum([c[y] for _, c in cells], out=s0)
                h = xlogx(col, out if y == 0 else s1, pos)
                if y:
                    np.add(out, h, out=out)
        else:
            _np_sum([xlogx(q) for q in _vec_sum([col for _, col in cells])], out)
        h_x = [0.0] * nx
        for x, col in cells:
            for y, q in enumerate(col):
                terms[x * ny + y] = xlogx(q)
            h_x[x] = xlogx(_np_sum(col))
        g = np.subtract(_np_sum(terms, s0), _np_sum(h_x, s1), out=s0)
        return np.maximum(np.subtract(g, out, out=g), 0.0, out=out)

    def _row_kl(self) -> list[np.ndarray]:
        """D(row || W(.|x_of[r])) per grid row of each slot r, +inf on
        support violations: every slot's rows in one pass."""
        rows = np.concatenate(self.slot_grids)
        x = np.repeat(self.x_of, self.gs)
        bad = ((rows > 0) & self._dead[x]).any(axis=-1)
        kl = np.where(bad, np.inf, (xlogx(rows) - rows * self._fin[x]).sum(axis=-1))
        ends = np.cumsum(self.gs).tolist()
        return [kl[e - g:e] for g, e in zip(self.gs, ends)]

    def rows_of(self, flat_index: int) -> np.ndarray:
        """The (s, ny) rows of candidate flat_index, in C order over the slots."""
        rest, picks = int(flat_index), []
        for r in range(self.s - 1, -1, -1):
            rest, i = divmod(rest, self.gs[r])
            picks.append(self.slot_grids[r][i])
        return np.array(picks[::-1])

    def stats_of(self, rows: np.ndarray, kind: str) -> dict:
        """The ``build`` values of one candidate, rows shape (s, ny), in plain
        floats summed in build's order: ``qy`` is a list, ``kl``, ``gx`` and
        ``gxp`` are floats, in a new dict on every call. They come from the
        structure's compiled kernel, whose logarithms come from one
        ``np.log`` call: its last bits can differ from ``math.log``'s."""
        return self._kernel(kind, False)(np.asarray(rows, float).tolist(), self._w, self._fin_l)

    def param_stats(self, params: list, kind: str) -> dict | None:
        """``stats_of`` of the rows whose free coordinates (the first
        ny-1 entries of each row, slot by slot) are the list params; None
        off the simplex, when a coordinate or a row's last entry
        1 - (its free sum) is below -1e-12. Every entry is clamped into
        [0, 1] by min(max(v, 0.0), 1.0), so -0.0 stays -0.0, and the dict's
        ``rows`` holds the clamped entries as one flat tuple."""
        return self._kernel(kind, True)(params, self._w, self._fin_l)

    def _kernel(self, kind: str, params: bool) -> Callable:
        """The structure's compiled kernel (``_stats_kernel``), made on first
        use."""
        kernel = self._kernels.get((kind, params))
        if kernel is None:
            kernel = self._kernels[kind, params] = _stats_kernel(
                kind, self.nx, self.ny, tuple(self.x_of.tolist()),
                tuple(self.xp_of.tolist()), tuple(map(tuple, self._dead_l)), params)
        return kernel

    def params_to_rows(self, params: np.ndarray) -> np.ndarray | None:
        """``param_stats``' clamped rows as an (s, ny) array, or None."""
        st = self.param_stats(params.tolist(), "ml")
        return None if st is None else np.array(st["rows"]).reshape(self.s, self.ny)

    def rows_to_params(self, rows: np.ndarray) -> np.ndarray:
        return rows[:, : self.ny - 1].reshape(-1)


def _seq_sum(terms: list, out: np.ndarray | None = None):
    """terms[0] + terms[1] + ... from the left, the order of numpy's
    add-reduction along a non-contiguous axis or of fewer than 8 elements.
    Arrays on different mesh axes broadcast as the sum grows; with out, every
    partial sum that spans out's shape is written there, and so is the sum."""
    acc = terms[0]
    for t in terms[1:]:
        acc = _add(acc, t, out)
    return _settle(acc, out)


def _np_sum(terms: list, out: np.ndarray | None = None):
    """Sum in the order of numpy's add-reduction over len(terms) contiguous
    elements: from the left below 8 terms, else numpy's pairwise scheme of
    eight interleaved partial sums. out is as for ``_seq_sum``; the eight
    partial sums themselves are new arrays."""
    n = len(terms)
    if n < 8:
        return _seq_sum(terms, out)
    part = list(terms[:8])
    i = 8
    while i < n - n % 8:
        for j in range(8):
            part[j] = part[j] + terms[i + j]
        i += 8
    acc = _add(_add(part[0], part[1], out), part[2] + part[3], out)
    acc = _add(acc, (part[4] + part[5]) + (part[6] + part[7]), out)
    for t in terms[i:]:
        acc = _add(acc, t, out)
    return _settle(acc, out)


def _add(a, b, out: np.ndarray | None):
    """a + b, written into out when out is given and the sum spans its
    shape; a and b are mesh-shaped arrays (s axes) or floats."""
    if out is None:
        return a + b
    sa, sb = getattr(a, "shape", ()), getattr(b, "shape", ())
    size = math.prod(map(max, sa, sb)) if sa and sb else math.prod(sa or sb)
    return np.add(a, b, out=out) if a is out or size == out.size else a + b


def _settle(acc, out: np.ndarray | None):
    # the sum acc, in out when out is given
    if out is None or acc is out:
        return acc
    out[...] = acc
    return out


def _vec_sum(vecs: list) -> list:
    """vecs[0] + vecs[1] + ... entry by entry, from the left: the order of
    _seq_sum."""
    acc = list(vecs[0])
    for v in vecs[1:]:
        acc = list(map(operator.add, acc, v))
    return acc


def _by_columns(kind: str | None, n: int, counts: Sequence[int] | None) -> bool:
    """Whether n candidates are scored on distinct cell columns: n >= _COLUMNS_MIN,
    their counts, once found, multiply to at most n / 4, and not ML in build
    (two adds, cheaper than a gather); a margin's kind is None."""
    return kind != "ml" and n >= _COLUMNS_MIN and (counts is None or 4 * math.prod(counts) <= n)


def _distinct_columns(col: list) -> tuple[np.ndarray, np.ndarray]:
    """A slot group's distinct cell columns by their bits (-0.0 is not 0.0,
    NaN payloads differ), in lexicographic order of the bits, shape (ny, U),
    and each sub-mesh candidate's index into them, in C order over the slots."""
    keys = [c.reshape(-1).view(np.uint64) for c in col]
    order = np.lexsort(keys[::-1])
    new = np.arange(order.size) == 0
    for k in (k[order] for k in keys):
        new[1:] |= k[1:] != k[:-1]
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return np.stack([k[order[new]] for k in keys]).view(np.float64), inverse


def _slot_groups(of: np.ndarray) -> list[tuple[int, list[int]]]:
    """(symbol, the slots aggregating into it), in symbol order."""
    return [(x, np.flatnonzero(of == x).tolist()) for x in np.unique(of).tolist()]


class _Expr(str):
    """Python source of a float expression. ``+`` and ``-`` between two of
    them give the source of the sum or difference, so ``_seq_sum``,
    ``_np_sum`` and ``_vec_sum`` applied to them write out their order of
    summation."""

    def __add__(self, other: str) -> _Expr:
        return _Expr(f"{self} + {_operand(other)}")

    def __sub__(self, other: str) -> _Expr:
        return _Expr(f"{self} - {_operand(other)}")


def _operand(e: str) -> str:
    # + and - group to the left: only a compound right operand needs parentheses
    return e if e.isidentifier() else f"({e})"


@functools.lru_cache(maxsize=256)
def _stats_kernel(kind: str, nx: int, ny: int, x_of: tuple, xp_of: tuple,
                  dead: tuple, params: bool) -> Callable:
    """The compiled ``_kernel_source`` of one mesh structure, shared by every
    mesh of that structure; the least recently used past 256 are dropped.
    Two threads may both compile a missing kernel; either result is the
    same function."""
    scope = {"_0": 0.0, "_1": 1.0, "_INF": math.inf, "_NINF": -math.inf,
             "_NEG": -1e-12, "_log": np.log}
    exec(compile(_kernel_source(kind, nx, ny, x_of, xp_of, dead, params),
                 f"<stats kernel {kind} {x_of} {xp_of}>", "exec"), scope)
    return scope["kernel"]


def _kernel_source(kind: str, nx: int, ny: int, x_of: tuple, xp_of: tuple,
                   dead: tuple, params: bool) -> str:
    """Source of ``kernel(rows, w, fin)``, the straight-line form of
    ``RowMesh.build``'s arithmetic for one candidate: rows are the s rows as
    nested lists, w the slot weights, fin log W with 0.0 at the dead cells
    (dead[x][y], W(y|x) = 0). It returns ``stats_of``'s dict. The structure
    (kind, slots, dead cells) is unrolled; every float, constants included,
    comes in through arguments or names, so the source holds none.

    With ``params``, it is ``kernel(params, w, fin)`` of ``param_stats``: a
    prelude makes the rows from the free coordinates first, by the float
    operations of a left fold from 0.0 for each row's free sum, 1.0 minus
    that sum for its last entry, the rejections below -1e-12 (min over
    params first, then each last entry) and min(max(v, 0.0), 1.0), written
    as the comparisons those builtins make, so -0.0 and NaN pass as they do.

    Sums are written out by ``_seq_sum``, ``_np_sum`` and ``_vec_sum`` on
    ``_Expr`` terms, so each adds in build's order, 0.0 placeholders
    included. The x log x of every value needed comes from one ``np.log``
    call, with 1.0 standing in for values <= 0, whose x log x is 0.0."""
    s = len(x_of)
    zero = _Expr("_0")
    body: list[str] = []
    lets: dict[str, _Expr] = {}
    logs: dict[str, None] = {}  # the values whose log is taken, in order
    xlogs: dict[str, None] = {}  # those whose x log x is taken

    def let(expr: str) -> _Expr:
        # one variable per distinct expression
        if expr.isidentifier():
            return _Expr(expr)
        if expr not in lets:
            lets[expr] = _Expr(f"v{len(lets)}")
            body.append(f"{lets[expr]} = {expr}")
        return lets[expr]

    def xlx(q: str) -> _Expr:
        q = let(q)
        logs[q] = xlogs[q] = None
        return _Expr(f"h_{q}")

    p = [[_Expr(f"p{r}_{y}") for y in range(ny)] for r in range(s)]
    mass = [[let(f"w{r} * {p[r][y]}") for y in range(ny)] for r in range(s)]
    qy = _vec_sum(mass)

    # the terms of kl: a dead cell with mass makes it +inf
    kl_lines, hits = [], []
    for r, x in enumerate(x_of):
        kl_lines.append(f"d{r} = _0")
        for y, q in enumerate(p[r]):
            if dead[x][y]:
                hits.append(f"{q} > _0")
            else:
                logs[q] = None
                kl_lines.append(f"if {q} > _0: d{r} = d{r} + ({q} * l_{q} - {q} * f{x}_{y})")
    kl = _seq_sum([_Expr(f"w{r} * d{r}") for r in range(s)])
    if hits:
        kl = f"_INF if {' or '.join(hits)} else {kl}"

    def score(of: tuple) -> str:
        cells = [(x, [let(e) for e in _vec_sum([mass[r] for r in slots])])
                 for x, slots in _slot_groups(np.asarray(of))]
        terms = [zero] * (nx * ny)
        if kind == "ml":
            charged = []
            for x, col in cells:
                for y, q in enumerate(col):
                    if dead[x][y]:
                        charged.append(f"{q} > _0")
                    else:
                        terms[x * ny + y] = _Expr(f"{q} * f{x}_{y}")
            total = _np_sum(terms)
            return f"_NINF if {' or '.join(charged)} else {total}" if charged else total
        h_y = [xlx(q) for q in _vec_sum([col for _, col in cells])]
        h_x = [zero] * nx
        for x, col in cells:
            for y, q in enumerate(col):
                terms[x * ny + y] = xlx(q)
            h_x[x] = xlx(_np_sum(col))
        return _np_sum(terms) - _np_sum(h_x) - _np_sum(h_y)

    gs = [score(x_of)] + ([] if x_of == xp_of else [score(xp_of)])

    def unpack(names) -> str:
        return "".join(f"{n}, " for n in names)

    fin = [[f"f{x}_{y}" for y in range(ny)] for x in range(nx)]
    if params:
        free = [q for row in p for q in row[:-1]]
        lines = ["def kernel(params, w, fin):",
                 "if min(params) < _NEG: return None",
                 f"{unpack(free)}= params"]
        lines += [f"{row[-1]} = {_Expr('_1') - _seq_sum([zero] + row[:-1])}" for row in p]
        lines.append(f"if {' or '.join(f'{row[-1]} < _NEG' for row in p)}: return None")
        lines += [f"{q} = _0 if _0 > {q} else _1 if _1 < {q} else {q}" for row in p for q in row]
    else:
        lines = ["def kernel(rows, w, fin):",
                 f"{unpack(f'({unpack(row)})' for row in p)}= rows"]
    lines += [f"{unpack(f'w{r}' for r in range(s))}= w",
              f"{unpack(f'({unpack(row)})' for row in fin)}= fin"]
    lines += body
    positive = unpack(f"{q} if {q} > _0 else _1" for q in logs)
    lines.append(f"{unpack(f'l_{q}' for q in logs)}= _log([{positive}]).tolist()")
    lines += [f"h_{q} = {q} * l_{q} if {q} > _0 else _0" for q in xlogs]
    lines += kl_lines
    for j, g in enumerate(gs):
        lines.append(f"g{j} = {g}")
        if kind == "mmi":  # np.maximum(g, 0.0): g itself when NaN
            lines.append(f"g{j} = g{j} if g{j} > _0 or g{j} != g{j} else _0")
    rows = f", 'rows': ({unpack(q for row in p for q in row)})" if params else ""
    lines.append(f"return {{'qy': [{unpack(qy)}], 'kl': {kl}, 'gx': g0, 'gxp': g{len(gs) - 1}{rows}}}")
    return "\n    ".join(lines) + "\n"


def global_mesh(weights: np.ndarray, x_of: np.ndarray, xp_of: np.ndarray,
                nx: int, logw: np.ndarray, k: int) -> tuple[RowMesh, int]:
    """The product mesh of the 1/k row grid over every slot, with k lowered
    until the mesh's size * |X| * |Y| fits BUDGET (or k = 1). Returns the
    mesh and the k it uses; the mesh is not built."""
    ny = logw.shape[1]
    while k > 1 and simplex_grid_size(ny, k) ** len(weights) * nx * ny > BUDGET:
        k -= 1
    return RowMesh(weights, x_of, xp_of, simplex_grid_array(ny, k, BUDGET), nx, logw), k


def zoom_slot_grids(centers: np.ndarray, h: float, budget: int,
                    points_cap: int = 33) -> list[np.ndarray]:
    """Per-slot local row grids for zoom refinement: points of each row
    simplex within an L-inf box of half-width h > 0 around that slot's
    center.

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
    # every free axis of every slot in one call: shape (s, free, p)
    c = centers[:, :free]
    axes = np.clip(np.linspace(c - h, c + h, p, axis=-1), 0.0, 1.0)
    if free == 1:
        # each axis is sorted already, so dropping repeated neighbours is
        # np.unique; and 1 - x >= 0 for x in [0, 1], so no point is cut
        a = axes[:, 0]
        keep = np.ones(a.shape, dtype=bool)
        np.not_equal(a[:, 1:], a[:, :-1], out=keep[:, 1:])
        rows = np.stack([a, np.clip(1.0 - a, 0.0, 1.0)], axis=-1)
        return [rows[r][keep[r]] for r in range(s)]
    grids = []
    for r in range(s):
        mesh = np.meshgrid(*[np.unique(a) for a in axes[r]], indexing="ij")
        fc = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        last = 1.0 - fc.sum(axis=1)
        ok = last >= -1e-12
        grids.append(np.concatenate([fc[ok], np.clip(last[ok], 0.0, 1.0)[:, None]], axis=1))
    return grids
