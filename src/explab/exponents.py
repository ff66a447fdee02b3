"""Primal computation of the typical-random-code and expurgated error
exponents of fixed-composition ensembles over a DMC, for the matched
(ML) and universal (MMI) decoding metrics.

Both exponents minimize one objective, with E_trc(R) = E(R, 2R) and
E_ex(R) = E(R, R):

    E(R, cap) = min over couplings {Q_XX' : I(X;X') <= cap, both marginals
                pinned to the composition} of  Gamma(Q_XX', R) + I(X;X') - R.

Gamma, the exponent of a pairwise error between codewords of joint type
Q_XX', is the least D(Q_{Y|XX'} || W | Q_XX') over channel conditionals whose
competitor score g(Q_X'Y) reaches max{g(Q_XY), a(R, Q_Y)}; the threshold
a(R, Q_Y) (``a_threshold``) is the largest score of a pinned-composition
codeword among output conditionals at information cost at most R.

Why the caps differ: a rate-R random codebook holds about e^{n(2R - I)}
ordered pairs of type Q_XX', e^{n(R - I)} per codeword, each adding its
pairwise exponent. In the typical codebook every type with I <= 2R occurs
(Merhav, "Error exponents of typical random codes", IEEE T-IT 2018), but for
I > R only an exponentially small fraction of codewords have such a
neighbour. Expurgation deletes them, which removes every type with I > R and
keeps the per-codeword counts of the rest, so E_ex is the same objective
capped at R, and E_ex >= E_trc. At the uniform binary composition it is the
Csiszar-Korner expurgated exponent under both metrics, as the ML = MMI
corollary of Tamir & Merhav (arXiv:2007.12225) asserts.

Two problems need no grid: on a binary channel (zeros of W included) the
thresholds a(R, Q_Y) are solved on a lattice of output laws in one pass (by
bisection for ML, and for MMI in closed form, a = min{R, max I}), and E_r
is Gallager's rho-form (``random_coding_exponent``).

Every other problem is searched with one scheme (see search.py): an
exhaustive coarse grid, then nested zoom meshes around the incumbent (full
local grids with shrinking half-width, which keep the thin feasible shells
of active score constraints covered), then a coordinate shrink-and-probe
polish. The score constraint carries a grid-resolution slack that is graded
away with the zoom scale, so reported witnesses are exactly feasible. None
of the feasible sets here are convex for the MMI metric, so no solver
certificate is claimed beyond the grid resolution.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from .prob import (
    Channel,
    CondDist,
    Dist,
    Joint2,
    ProbError,
    coupling_grid,
    mutual_information,
    simplex_grid_array,
    xlogx,
)
from .search import (
    BUDGET,
    SHRINK,
    RowMesh,
    TransportPolytope,
    elog_batch,
    golden_max,
    mi_batch,
    pattern_min,
    zoom_slot_grids,
)

MASS_TOL = 1e-15  # coupling cells below this carry no conditional row


@dataclass(frozen=True)
class DecodingMetric:
    """Selector for the decoding functional g applied to joints over X x Y.

    - ``ml``:  g(Q) = E_Q[log W(Y|X)]; -inf when Q charges a zero of W.
    - ``mmi``: g(Q) = I_Q(X;Y); the channel argument is ignored.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("ml", "mmi"):
            raise ProbError(f"unknown decoding metric {self.kind!r}")


ML = DecodingMetric("ml")
MMI = DecodingMetric("mmi")


@dataclass(frozen=True)
class OptimizerOptions:
    """The resolution of every grid-plus-refinement search in the package:
    the coarse grid step 1/k and the number of refinement iterations. The
    other search parameters are constants of ``search.py`` or of the one
    search that reads them.

    ``slack`` is the additive slack applied to the score constraints so that
    coarse-grid points near a boundary are not spuriously rejected: 1e-3
    scaled with the grid step (1e-3 at the default 1/8 step).
    """

    grid_step: float = 0.125
    refine_iters: int = 20

    def __post_init__(self) -> None:
        if not (0 < self.grid_step <= 1):
            raise ProbError(f"grid_step must be in (0,1], got {self.grid_step}")
        if abs(round(1.0 / self.grid_step) - 1.0 / self.grid_step) > 1e-9:
            raise ProbError(f"grid_step must be 1/k for integer k, got {self.grid_step}")
        if self.refine_iters < 0:
            raise ProbError("refine_iters must be >= 0")

    @property
    def k(self) -> int:
        return round(1.0 / self.grid_step)

    @property
    def slack(self) -> float:
        return 1e-3 * (8.0 * self.grid_step)


@dataclass(frozen=True)
class RatePoint:
    """A coding rate in nats per channel use plus the codeword composition."""

    rate: float
    composition: Dist

    def __post_init__(self) -> None:
        if self.rate < 0 or not math.isfinite(self.rate):
            raise ProbError(f"rate must be finite and >= 0, got {self.rate}")


@dataclass
class ExponentResult:
    """Value of an exponent optimization together with its witnesses.

    ``value`` is clamped to >= 0; the raw minimum is kept in diagnostics.
    ``argmin_coupling`` is the outer minimizer Q_XX'; ``argmin_channel`` holds
    the inner conditional rows Q_{Y|XX'} (rows indexed by (x, x')).
    """

    value: float
    argmin_coupling: Joint2
    argmin_channel: CondDist
    diagnostics: dict


@dataclass
class RateRecord:
    rate: float
    value: float
    ok: bool
    error: str | None
    diagnostics: dict


@dataclass
class ExponentCurve:
    which: str
    metric: str
    records: list[RateRecord] = field(default_factory=list)


# ---------------------------------------------------------------------------
# metric context: g evaluation and the rate-R score thresholds
# ---------------------------------------------------------------------------

_QUANT = 4096.0  # lattice for memoizing thresholds on quantized Q_Y


class _MetricCtx:
    """Per-(channel, composition, metric, options) solver state: g over
    joints on X x Y, and the memo of the one threshold a(R, Q_Y).

    a(R, Q_Y) is re-evaluated for every inner candidate's output marginal,
    so values are memoized on the quantized Q_Y lattice. Get instances from
    ``_metric_ctx``: the cache is then shared by every solve on the same
    channel object and freed with it. Entries depend only on their keys, so
    concurrent insert-or-read races are benign.
    """

    def __init__(self, ch: Channel, qx: Dist, metric: DecodingMetric, opts: OptimizerOptions):
        # a proxy, so the shared cache does not keep the channel alive
        self.ch = weakref.proxy(ch)
        self.qx = qx
        self.kind = metric.kind
        self.opts = opts
        self.logw = ch.log_matrix
        self._memo: dict[tuple, float] = {}
        self._tables: dict[float, np.ndarray] = {}
        self._fast_1d = ch.n_in == 2 and ch.n_out == 2
        # the leading Q_Y columns that threshold_batch reads
        self.qy_cols = 1 if self._fast_1d else ch.n_out

    # g over a batch of joints on X x Y
    def g_batch(self, j: np.ndarray) -> np.ndarray:
        if self.kind == "ml":
            return elog_batch(j, self.logw)
        return mi_batch(j)

    # ----- threshold solves ------------------------------------------------

    def threshold(self, qy, rate: float) -> float:
        """a(R, Q_Y); qy is any sequence of the |Y| output probabilities."""
        if self._fast_1d:
            return float(self._lattice_table(rate)[round(float(qy[0]) * _QUANT)])
        key_vec = np.rint(np.asarray(qy) * _QUANT).astype(np.int64)
        key = (rate, tuple(key_vec))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        snapped = key_vec / _QUANT
        total = snapped.sum()
        if total <= 0:
            raise ProbError("threshold called with a zero output marginal")
        val = self._solve_threshold(snapped / total, rate)
        self._memo[key] = val
        return val

    def threshold_batch(self, qy_arr: np.ndarray, rate: float, out: np.ndarray | None = None,
                        index: np.ndarray | None = None) -> np.ndarray:
        """a(R, Q_Y) for each row of qy_arr, written into out when it is
        given; index, an int64 array of out's length, is scratch for the
        binary lattice's indices. Only the first ``qy_cols`` columns of
        qy_arr are read."""
        if self._fast_1d:  # the lattice is indexed by Q_Y(0) alone
            q = np.multiply(qy_arr[:, 0], _QUANT, out=out)
            q = np.rint(q, out=q)
            if index is None:
                index = q.astype(np.int64)
            else:
                np.copyto(index, q, casting="unsafe")
            # Q_Y(0) is a probability, so the index is in the table
            return np.take(self._lattice_table(rate), index, out=out, mode="clip")
        keys = np.rint(qy_arr * _QUANT).astype(np.int64)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        vals = np.empty(uniq.shape[0])
        for i, u in enumerate(uniq):
            vals[i] = self.threshold(u / _QUANT, rate)
        return np.take(vals, inverse.reshape(-1), out=out)

    # Binary X and Y: every Q_Y's coupling polytope is the segment
    # base + c·[[1, -1], [-1, 1]], so the whole quantized-Q_Y lattice is solved
    # in one pass on four cell vectors, with I(X;Y) summed in mi_batch's order:
    # bit for bit mi_batch's value. ML bisects to the ends of {I <= R} and
    # takes the better one; MMI is min{R, max I}, the maximum of the convex I
    # being at an end of the segment, so it takes no bisection and is <= R.

    def _lattice_table(self, rate: float) -> np.ndarray:
        table = self._tables.get(rate)
        if table is None:
            qy0 = np.arange(int(_QUANT) + 1) / _QUANT
            table = self._solve_1d_batch(np.stack([qy0, 1.0 - qy0], axis=1), rate)
            self._tables[rate] = table
        return table

    def _solve_1d_batch(self, qys: np.ndarray, rate: float) -> np.ndarray:
        n = qys.shape[0]
        # both ends of every segment as one problem: base holds the product
        # coupling's cells b00, b01, b10, b11, shape (4, 2N), lower ends first
        base = np.tile(np.stack([q * y for q in self.qx.probs for y in qys.T]), 2)
        sign = np.array([[1.0], [-1.0], [-1.0], [1.0]])  # b01 + (-c) is b01 - c
        # info's 4 cells and 4 marginal sums, and their x log x, in buffers
        j, h = np.empty((2, 8, 2 * n))
        pos = np.empty(j.shape, dtype=bool)

        def info(b: np.ndarray, c: np.ndarray) -> np.ndarray:
            jc, hc, pc = j[:, :c.size], h[:, :c.size], pos[:, :c.size]
            np.add(b, np.multiply(sign, c, out=jc[:4]), out=jc[:4])
            for k, (p, q) in enumerate(((0, 1), (2, 3), (0, 2), (1, 3)), 4):
                np.add(jc[p], jc[q], out=jc[k])
            x = xlogx(jc, hc, pc)
            return np.maximum((((x[0] + x[1]) + x[2]) + x[3]
                               - (x[4] + x[5])
                               - (x[6] + x[7])), 0.0)

        sides = np.concatenate([-np.minimum(base[0, :n], base[3, :n]),
                                np.minimum(base[1, :n], base[2, :n])])
        at_sides = info(base, sides)
        if self.kind == "mmi":
            # I is convex on the segment and 0 at c = 0: its largest value
            # within I <= R is R, or the larger of its values at the ends
            return np.minimum(rate, np.maximum(at_sides[:n], at_sides[n:]))
        # an end within I <= R is the answer; from each other end, bisect
        # towards c = 0. Only those take part, so the points bisected lie
        # inside their segments, off the zero cell that every end has, and
        # x log x can take its unmasked path
        todo = np.flatnonzero(at_sides > rate)
        b, lo, hi = base[:, todo], np.zeros(todo.size), sides[todo]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            good = info(b, mid) <= rate
            lo = np.where(good, mid, lo)
            hi = np.where(good, hi, mid)
        c = sides.copy()
        c[todo] = lo
        # g is affine on the interval, so the ends win; a zero of W makes g -inf
        # where its cell has mass, and that cell is 0 only at an end of the segment
        g = elog_batch((base + sign * c).T.reshape(-1, 2, 2), self.logw)
        return np.maximum(g[:n], g[n:])

    def _solve_threshold(self, qy: np.ndarray, rate: float) -> float:
        poly = TransportPolytope(self.qx.probs, qy)
        if poly.dim == 0:  # the product coupling alone, I = 0
            return self.g_batch(poly.base[None])[0]
        return self._solve_threshold_grid(poly, rate)

    def _solve_threshold_grid(self, poly: TransportPolytope, rate: float) -> float:
        slack = self.opts.slack
        cs = poly.grid(2 * self.opts.k + 1, BUDGET // 8)
        joints = poly.joints(cs)
        ok = poly.feasible(joints)
        joints = np.clip(joints, 0.0, None)
        ok &= mi_batch(joints) <= rate + slack
        if not ok.any():
            cs = np.vstack([cs, np.zeros((1, poly.dim))])
            joints = poly.joints(cs)
            ok = np.concatenate([ok, [True]])  # product coupling, I = 0
        obj = np.where(ok, self.g_batch(joints), -np.inf)
        best = int(np.argmax(obj))
        c_ref, v_ref, _ = pattern_min(cs[best], lambda c: self._neg_g(poly, c, rate + slack),
                                      self.opts.grid_step, self.opts.refine_iters)
        return float(max(obj[best], -v_ref))

    def _neg_g(self, poly: TransportPolytope, c: list, info_cap: float) -> float:
        """-g at polytope coordinates c; +inf off the polytope or above info_cap."""
        j = poly.joints(c)
        if not poly.feasible(j[None])[0]:
            return math.inf
        j = np.clip(j, 0.0, None)
        if mi_batch(j[None])[0] > info_cap:
            return math.inf
        return -float(self.g_batch(j[None])[0])


# One dict of solver state per live channel object, keyed by id(channel) and
# dropped when the channel is collected. The CLI parses a new channel for
# every command, so each command starts cold.
_CTX_CACHE: dict[int, dict[tuple, object]] = {}
_CTX_LOCK = threading.Lock()


def _channel_entry(ch: Channel, key: tuple, make):
    """The entry ``key`` of ch's cache, made by ``make()`` on first use."""
    with _CTX_LOCK:
        per_ch = _CTX_CACHE.get(id(ch))
        if per_ch is None:
            per_ch = _CTX_CACHE[id(ch)] = {}
            weakref.finalize(ch, _CTX_CACHE.pop, id(ch), None)
        val = per_ch.get(key)
        if val is None:
            val = per_ch[key] = make()
    return val


def _metric_ctx(ch: Channel, q_x: Dist, metric: DecodingMetric,
                opts: OptimizerOptions) -> _MetricCtx:
    """The ``_MetricCtx`` of (ch, q_x, metric, opts), shared by every call
    on the same channel object, so each threshold table is solved once."""
    return _channel_entry(ch, (q_x.probs.tobytes(), metric.kind, opts),
                          lambda: _MetricCtx(ch, q_x, metric, opts))


def _channel_memo(ch: Channel, *key) -> dict:
    """A memo dict shared by every call on the same channel object under
    ``key`` and freed with the channel. Its values must depend only on
    their keys, the channel and ``key``."""
    return _channel_entry(ch, ("memo",) + key, dict)


# ---------------------------------------------------------------------------
# public threshold operations
# ---------------------------------------------------------------------------


def a_threshold(rate: float, q_y: Dist, metric: DecodingMetric, ch: Channel,
                q_x: Dist, opts: OptimizerOptions = OptimizerOptions()) -> float:
    """Largest metric score g(Q_XY) over joints with X-marginal pinned to the
    composition, Y-marginal equal to q_y, and I(X;Y) <= rate.

    -inf when the feasible set scores -inf everywhere (possible for the ml
    metric when every feasible joint charges a zero of the channel).
    """
    _check_rate_inputs(rate, q_y, ch, q_x)
    ctx = _metric_ctx(ch, q_x, metric, opts)
    return ctx.threshold(q_y.probs, rate)


def _check_rate_inputs(rate: float, q_y: Dist, ch: Channel, q_x: Dist) -> None:
    if rate < 0 or not math.isfinite(rate):
        raise ProbError(f"rate must be finite and >= 0, got {rate}")
    if q_y.size != ch.n_out:
        raise ProbError(f"q_y has {q_y.size} symbols, channel emits {ch.n_out}")
    if q_x.size != ch.n_in:
        raise ProbError(f"q_x has {q_x.size} symbols, channel accepts {ch.n_in}")


# ---------------------------------------------------------------------------
# inner problems over Q_{Y|XX'}
# ---------------------------------------------------------------------------


def _support_slots(q_xx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xs, xps = np.nonzero(q_xx > MASS_TOL)
    return q_xx[xs, xps], xs, xps


def _clamp_penalty_single(max_side: float, gxp: float) -> float:
    """[max_side - gxp]_+ with the -inf cases resolved: a -inf score for the
    competitor is an infinite penalty unless the reference side is -inf too."""
    if gxp == -math.inf:
        return 0.0 if max_side == -math.inf else math.inf
    return max(max_side - gxp, 0.0)


_N_STARTS = 4  # distinct grid basins fed to the refinement ladder


def _spread_minima(obj: np.ndarray, k: int, shape: tuple[int, ...]) -> list[int]:
    """Indices of up to k small finite entries of obj, spread at least two
    grid cells apart (L-inf over the mesh coordinates) so the refinements
    start from distinct basins rather than one cluster."""
    order = np.argsort(obj, kind="stable")
    order = order[np.isfinite(obj[order])]
    if order.size == 0:
        return []
    scan = order[: max(64 * k, 256)]
    coords = np.stack(np.unravel_index(scan, shape), axis=1)
    picked = [0]
    for i in range(1, scan.size):
        if len(picked) >= k:
            break
        if all(np.abs(coords[i] - coords[p]).max() >= 2 for p in picked):
            picked.append(i)
    return [int(scan[i]) for i in picked]


def _kl_argmin(kl: np.ndarray, margin: np.ndarray, cut: float, obj: np.ndarray,
               off: np.ndarray) -> tuple[int, float]:
    """The first argmin and the min of kl over the candidates whose margin is
    not below cut <= 0, inf when there is none; obj (float) and off (bool)
    are scratch of kl's shape. A NaN margin (-inf on both sides) counts as
    a (boundary) feasible tie, as a margin of 0 would."""
    np.copyto(obj, kl)
    np.copyto(obj, np.inf, where=np.less(margin, cut, out=off))
    best = int(np.argmin(obj))
    return best, float(obj[best])


class _InnerSolve:
    """Grid + refinement over the conditional rows Q_{Y|XX'} for Gamma at one
    coupling: minimize D(Q_{Y|XX'} || W | Q_XX') subject to the score
    constraint g(Q_X'Y) >= max{g(Q_XY), a(R, Q_Y)}."""

    def __init__(self, ctx: _MetricCtx, q_xx: np.ndarray, rate: float):
        self.ctx = ctx
        self.rate = rate
        weights, xs, xps = _support_slots(q_xx)
        ch = ctx.ch
        self.mesh = RowMesh(weights, xs, xps,
                            simplex_grid_array(ch.n_out, ctx.opts.k, BUDGET),
                            ch.n_in, ch.log_matrix)

    def _objective(self, arrs: dict) -> np.ndarray:
        """Objective over a ``RowMesh.build`` result, under the base slack."""
        avals = self.ctx.threshold_batch(arrs["qy"], self.rate)
        feas = arrs["gxp"] >= np.maximum(arrs["gx"], avals) - self.ctx.opts.slack
        return np.where(feas, arrs["kl"], np.inf)

    def _objective_single(self, rows: np.ndarray, slack: float | None = None) -> float:
        return self._objective_stats(self.mesh.stats_of(rows, self.ctx.kind), slack)

    def _objective_params(self, params: list, slack: float | None = None) -> float:
        """``_objective_single`` at a polish probe's free coordinates."""
        st = self.mesh.param_stats(params, self.ctx.kind)
        return math.inf if st is None else self._objective_stats(st, slack)

    def _objective_stats(self, st: dict, slack: float | None) -> float:
        max_side = max(st["gx"], self.ctx.threshold(st["qy"], self.rate))
        feas = st["gxp"] >= max_side - (self.ctx.opts.slack if slack is None else slack)
        return st["kl"] if feas else math.inf

    def _margin(self, st: dict) -> float:
        return st["gxp"] - max(st["gx"], self.ctx.threshold(st["qy"], self.rate))

    def solve(self, warm_rows: np.ndarray | None = None) -> dict:
        """Full solve: global grid -> zoom refinement -> pattern polish.

        A warm start (witness rows from a nearby coupling's solve) skips the
        global stage, and so does a product mesh over BUDGET, which starts
        from the soft-penalty ladder; the thin feasible shells these
        problems develop near active score constraints are handled by the
        zoom stages, which keep full-dimensional local meshes instead of
        single-coordinate probes.
        The hard-constraint slack is graded down with the zoom scale, so the
        reported witness satisfies the score constraint exactly (a strictly
        feasible anchor repairs any residual boundary violation).
        """
        mesh, ctx = self.mesh, self.ctx
        starts: list[tuple[np.ndarray, float]] = []
        n_feasible = -1
        evals = 0
        if warm_rows is not None:
            starts.append((warm_rows, self._objective_single(warm_rows)))
        elif mesh.size() * mesh.nx * mesh.ny <= BUDGET:
            obj = self._objective(mesh.build(ctx.kind, ctx.qy_cols))
            n_feasible = int(np.isfinite(obj).sum())
            for idx in _spread_minima(obj, _N_STARTS, mesh.gs):
                starts.append((mesh.rows_of(idx), float(obj[idx])))
        if not starts or not math.isfinite(starts[0][1]):
            # nothing feasible yet, or a product mesh over BUDGET: manufacture
            # a start with the soft-penalty ladder before giving up (the
            # feasible set may be a thin shell the coarse grid misses entirely)
            rows_pen, ev = self._penalty_ladder()
            evals += ev
            if rows_pen is not None:
                starts = [(rows_pen, self._objective_single(rows_pen))]
            else:
                rows_w = ctx.ch.w[mesh.x_of]
                starts = [(rows_w, self._objective_single(rows_w))]

        anchor = {"rows": None, "kl": math.inf}
        rows_best, v_best = starts[0]
        for rows0, v0 in starts:
            rows_z, v_z, ev = self._zoom(rows0, v0, anchor,
                                         shallow=warm_rows is not None)
            evals += ev
            if v_z < v_best:
                rows_best, v_best = rows_z, v_z

        # repair to exact feasibility before the exact-slack polish
        rows_best, v_best = self._exact_feasible(rows_best, anchor)

        p_ref, v_ref, ev = pattern_min(mesh.rows_to_params(rows_best),
                                       lambda p: self._objective_params(p, slack=0.0),
                                       ctx.opts.grid_step / 2**4, ctx.opts.refine_iters)
        evals += ev
        if v_ref < v_best:
            rows_best, v_best = mesh.params_to_rows(p_ref), v_ref

        return {
            "value": float(v_best),
            "rows": rows_best,
            "n_feasible": n_feasible,
            "refine_evals": evals,
            "score_margin": self._margin(self.mesh.stats_of(rows_best, self.ctx.kind)),
        }

    def _zoom(self, rows0: np.ndarray, v0: float, anchor: dict,
              shallow: bool = False) -> tuple[np.ndarray, float, int]:
        """Nested local meshes around the incumbent with shrinking half-width;
        exhaustive within each box, so active-constraint shells stay covered.
        The feasibility slack shrinks with the box (exact in the limit), and
        the best strictly feasible candidate seen is kept as a repair anchor."""
        ctx = self.ctx
        stages = max(4, ctx.opts.refine_iters // 3)
        h = ctx.opts.grid_step
        cap = 33
        if shallow:
            stages = max(3, stages - 2)
            h = ctx.opts.grid_step / 2
            cap = 9  # warm probes rank couplings; the final cold solve decides
        rows, val = rows0, v0
        evals = 0
        budget = BUDGET // (4 * self.mesh.nx * self.mesh.ny)
        for _ in range(stages):
            local = self.mesh.regrid(zoom_slot_grids(rows, h, budget, points_cap=cap))
            arrs = local.build(ctx.kind, ctx.qy_cols)
            evals += arrs["kl"].size
            # one pass serves both the graded-slack objective and the
            # strictly feasible anchor used by the final repair, in the
            # structure's scratch buffers (RowMesh): s0 holds the thresholds,
            # then the margin; s1 the lattice indices, then each objective
            margin, obj = local.buffer("s0"), local.buffer("s1")
            off = local.buffer("pos", dtype=bool)
            ctx.threshold_batch(arrs["qy"], self.rate, out=margin, index=obj.view(np.int64))
            with np.errstate(invalid="ignore"):
                np.subtract(arrs["gxp"], np.maximum(arrs["gx"], margin, out=margin), out=margin)
            slack_h = ctx.opts.slack * (h / ctx.opts.grid_step)
            best, v = _kl_argmin(arrs["kl"], margin, -slack_h, obj, off)
            if math.isfinite(v) and v < val - 1e-15:
                rows, val = local.rows_of(best), v
            # when its margin is >= 0 or NaN, that first argmin over margin
            # >= -slack_h is also the first argmin over margin >= 0
            if margin[best] < 0.0:
                best, v = _kl_argmin(arrs["kl"], margin, 0.0, obj, off)
            if math.isfinite(v) and v < anchor["kl"]:
                anchor["rows"], anchor["kl"] = local.rows_of(best), v
            h *= SHRINK
        return rows, val, evals

    def _exact_feasible(self, rows: np.ndarray, anchor: dict) -> tuple[np.ndarray, float]:
        """Return a witness satisfying the score constraint with margin >= 0,
        repairing a boundary-hugging incumbent by bisecting toward the best
        strictly feasible candidate seen during the zoom stages."""
        st = self.mesh.stats_of(rows, self.ctx.kind)
        if self._margin(st) >= 0.0:  # then the slack-0 objective is kl
            return rows, st["kl"]
        target = anchor["rows"]
        if target is None:
            # nothing strictly feasible anywhere: report under the base slack
            return rows, self._objective_single(rows)
        best_rows, best_val = target, anchor["kl"]
        lo_t, hi_t = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo_t + hi_t)
            cand = (1.0 - mid) * rows + mid * target
            if self._margin(self.mesh.stats_of(cand, self.ctx.kind)) >= 0.0:
                hi_t = mid
            else:
                lo_t = mid
        cand = (1.0 - hi_t) * rows + hi_t * target
        v = self._objective_single(cand, slack=0.0)
        if v < best_val:
            best_rows, best_val = cand, v
        return best_rows, best_val

    def _penalty_ladder(self) -> tuple[np.ndarray | None, int]:
        """Soft-constraint continuation for Gamma: minimize KL plus an
        increasingly stiff clamp penalty, warm-starting each stage, then
        polish under the hard constraint. Returns (rows or None, evals)."""
        mesh, ctx = self.mesh, self.ctx

        def penalized(lam: float):
            def f(params: list) -> float:
                st = mesh.param_stats(params, ctx.kind)
                if st is None:
                    return math.inf
                aval = ctx.threshold(st["qy"], self.rate)
                return st["kl"] + lam * _clamp_penalty_single(max(st["gx"], aval), st["gxp"])
            return f

        evals = 0
        params = mesh.rows_to_params(self.ctx.ch.w[mesh.x_of])
        stage_iters = max(8, ctx.opts.refine_iters // 2)
        for lam in (8.0, 64.0, 1024.0):
            params, _, ev = pattern_min(params, penalized(lam), ctx.opts.grid_step, stage_iters)
            evals += ev
        params, v_hard, ev = pattern_min(params, self._objective_params,
                                         ctx.opts.grid_step / 2, ctx.opts.refine_iters)
        evals += ev
        if not math.isfinite(v_hard):
            return None, evals
        return mesh.params_to_rows(params), evals


def gamma(q_xx: Joint2, rate: float, metric: DecodingMetric, ch: Channel,
          q_x: Dist, opts: OptimizerOptions = OptimizerOptions()) -> float:
    """Constrained inner minimum: smallest -E[log W] - H(Y|X,X') over channel
    conditionals whose competitor score g(Q_X'Y) reaches max{g(Q_XY), a(R,Q_Y)}.

    +inf when no conditional on the search grid (or found by refinement)
    satisfies the score constraint.
    """
    _check_coupling(q_xx, q_x, opts)
    ctx = _metric_ctx(ch, q_x, metric, opts)
    return _inner_solve(ch, ctx, q_xx.probs, rate)["value"]


def _inner_solve(ch: Channel, ctx: _MetricCtx, q: np.ndarray, rate: float,
                 warm_rows: np.ndarray | None = None) -> dict:
    """``_InnerSolve(ctx, q, rate).solve(warm_rows)``, memoized per channel
    on (rate, the exact bytes of the slot weights and symbols, of warm_rows
    or None): a repeat returns the same dict, which callers must not modify."""
    prob = _InnerSolve(ctx, q, rate)
    mesh = prob.mesh
    memo = _channel_memo(ch, "gamma", ctx.qx.probs.tobytes(), ctx.kind, ctx.opts)
    key = (rate, mesh.weights.tobytes(), mesh.x_of.tobytes(), mesh.xp_of.tobytes(),
           None if warm_rows is None else np.asarray(warm_rows, dtype=np.float64).tobytes())
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = prob.solve(warm_rows)
    return hit


def _check_coupling(q_xx: Joint2, q_x: Dist, opts: OptimizerOptions) -> None:
    m = q_xx.probs
    if m.shape[0] != m.shape[1] or m.shape[0] != q_x.size:
        raise ProbError(f"coupling shape {m.shape} does not match composition size {q_x.size}")
    err = max(np.abs(m.sum(axis=1) - q_x.probs).max(),
              np.abs(m.sum(axis=0) - q_x.probs).max())
    if err > opts.slack + 1e-9:
        raise ProbError(f"coupling marginals deviate from the composition by {err}")


# ---------------------------------------------------------------------------
# outer problems over the coupling Q_XX'
# ---------------------------------------------------------------------------


def _outer_search(rp: RatePoint, opts: OptimizerOptions, cap: float,
                  per_coupling) -> tuple:
    """min over couplings {Q_XX' : I(X;X') <= cap} of per_coupling + I - R.

    per_coupling(q, warm) returns (value, payload). The product coupling
    seeds the search, the coupling grid is scanned exhaustively, and a
    pattern polish refines the grid winner; inside the polish, ``warm`` is
    the incumbent's payload whenever the probe has its support pattern
    (None everywhere else). At cap 0 the feasible set is the product
    coupling alone (I(X;X') = 0 only when X and X' are independent), so the
    grid is scanned but not polished: the incumbent, the product coupling,
    is also the polish result, after 0 evaluations. Returns the grid incumbent
    (value, coupling, payload, information), the polish result
    (coupling, value, the payload per_coupling returned with that value
    there, or None if it is +inf), the number of feasible grid couplings
    and the polish evaluation count.
    """
    qx = rp.composition
    # rounding tolerance of the cap; near the product coupling I grows like
    # the square of the distance, so at cap 0 it would admit couplings some
    # 1e-7 off the product, which is why cap 0 skips the polish below
    slack = 1e-12
    # the product coupling (information 0) is always feasible but is not
    # always a grid point (its entries need not be multiples of the step),
    # so it seeds the search unconditionally
    q_prod = np.outer(qx.probs, qx.probs)
    v0, payload0 = per_coupling(q_prod, None)
    best = (v0 - rp.rate, q_prod, payload0, 0.0)
    n_feasible = 0
    for j2 in coupling_grid(qx, opts.k):
        info = mutual_information(j2)
        if info > cap + slack:
            continue
        n_feasible += 1
        v, payload = per_coupling(j2.probs, None)
        total = v + info - rp.rate
        if total < best[0] - 1e-15:
            best = (total, j2.probs, payload, info)
    if cap == 0.0:
        return best, (best[1], best[0], best[2]), n_feasible, 0

    poly = TransportPolytope(qx.probs, qx.probs)
    state = {"payload": best[2], "sig": _support_sig(best[1]), "val": best[0]}
    probes: dict[tuple, object] = {}  # payload by (coordinates, value)

    def f(c: list) -> float:
        j = poly.joints(c)
        if not poly.feasible(j[None])[0]:
            return math.inf
        j = np.clip(j, 0.0, None)
        info = float(mi_batch(j[None])[0])
        if info > cap + slack:
            return math.inf
        sig = _support_sig(j)
        v, payload = per_coupling(j, state["payload"] if sig == state["sig"] else None)
        val = v + info - rp.rate
        probes[tuple(c), val] = payload
        if val < state["val"]:
            state.update(payload=payload, sig=sig, val=val)
        return val

    c_ref, v_ref, evals = pattern_min(poly.param_of(best[1]), f, opts.grid_step, opts.refine_iters)
    payload = probes.get((tuple(c_ref.tolist()), v_ref))
    return best, (np.clip(poly.joints(c_ref), 0.0, None), v_ref, payload), n_feasible, evals


def _outer_minimize(rp: RatePoint, metric: DecodingMetric, ch: Channel,
                    opts: OptimizerOptions, info_cap: float) -> ExponentResult:
    """E(R, info_cap): Gamma + I - R over the couplings with I <= info_cap."""
    ctx = _metric_ctx(ch, rp.composition, metric, opts)

    def per_coupling(q: np.ndarray, warm: dict | None) -> tuple[float, dict]:
        # polish probes warm-start from the incumbent's witness rows
        res = _inner_solve(ch, ctx, q, rp.rate, None if warm is None else warm["rows"])
        return res["value"], res

    best, (j, v_ref, warm), n_feasible, evals = _outer_search(rp, opts, info_cap, per_coupling)
    if v_ref < best[0]:  # re-solve cold; report the lower solve with its own rows
        res = _inner_solve(ch, ctx, j, rp.rate)
        info = float(mi_batch(j[None])[0])
        cold = res["value"] + info - rp.rate
        best = (cold, j, res, info) if cold <= v_ref else (v_ref, j, warm, info)

    raw, q, res, info = best
    rows_full = _full_conditional(ch, q, res["rows"])
    # witness consistency: re-evaluate the objective at the reported rows
    recheck = _InnerSolve(ctx, q, rp.rate)._objective_single(res["rows"]) + info - rp.rate
    diag = {
        "raw_value": float(raw),
        "coupling_information": info,
        "outer_feasible_grid_points": n_feasible,
        "outer_refine_evals": evals,
        "inner_feasible_grid_points": res["n_feasible"],
        "inner_refine_evals": res["refine_evals"],
        "score_margin": res["score_margin"],
        "witness_recheck_gap": float(abs(recheck - raw)),
    }
    return ExponentResult(
        value=max(float(raw), 0.0),
        argmin_coupling=Joint2(q / q.sum()),
        argmin_channel=CondDist(rows_full),
        diagnostics=diag,
    )


def _support_sig(q: np.ndarray) -> tuple:
    return tuple((q > MASS_TOL).reshape(-1).tolist())


def _full_conditional(ch: Channel, q_xx: np.ndarray, support_rows: np.ndarray) -> np.ndarray:
    """Expand witness rows on the support pairs to a full (nx, nx, ny) table;
    zero-mass pairs get the true channel row (any valid row would do)."""
    nx, ny = ch.n_in, ch.n_out
    rows = np.empty((nx, nx, ny))
    for x in range(nx):
        rows[x, :, :] = ch.w[x]
    _, xs, xps = _support_slots(q_xx)
    rows[xs, xps, :] = support_rows
    return rows


def trc_exponent(rp: RatePoint, metric: DecodingMetric, ch: Channel,
                 opts: OptimizerOptions = OptimizerOptions()) -> ExponentResult:
    """Exponent of the typical random fixed-composition codebook at rate R:
    Gamma + I - R over the couplings with I(X;X') <= 2R."""
    return _outer_minimize(rp, metric, ch, opts, 2.0 * rp.rate)


def expurgated_exponent(rp: RatePoint, metric: DecodingMetric, ch: Channel,
                        opts: OptimizerOptions = OptimizerOptions()) -> ExponentResult:
    """Exponent guaranteed after expurgating the worse half of a random
    codebook: the TRC objective Gamma + I - R with the coupling cap at
    I(X;X') <= R in place of 2R (see the module docstring)."""
    return _outer_minimize(rp, metric, ch, opts, rp.rate)


_E0_TOL = 1e-13  # E_0's allowed excess over its minimum over Q_Y


def _gallager_e0(rho: float, q: np.ndarray, w: np.ndarray) -> float:
    """Gallager's E_0(rho, Q) = min over Q_Y of
    -(1+rho) sum_x Q(x) log sum_y W(y|x)^{1/(1+rho)} Q_Y(y)^{rho/(1+rho)}, by
    alternating minimization of the jointly convex D(V||W|Q) + rho D(V||Q_Y|Q):
    V is proportional to W^{1/(1+rho)} Q_Y^{rho/(1+rho)}, then Q_Y becomes the
    output law of (Q, V). It stops once the Frank-Wolfe gap
    rho (max_y Q_Y'(y) / Q_Y(y) - 1), which bounds the excess over the
    minimum, is below _E0_TOL. q > 0 and every output of w is reachable."""
    a = w ** (1.0 / (1.0 + rho))
    qy = q @ w
    for _ in range(10_000):
        tilt = a * qy ** (rho / (1.0 + rho))
        z = tilt.sum(axis=1)
        new = q @ (tilt / z[:, None])
        if rho * (float(np.max(new / qy)) - 1.0) <= _E0_TOL:
            break
        qy = new
    return -(1.0 + rho) * float(q @ np.log(z))


def random_coding_exponent(rp: RatePoint, ch: Channel) -> float:
    """Baseline ensemble-average exponent of the fixed-composition ensemble,
    min over Q_{Y|X} of D(Q_{Y|X} || W | Q_X) + [I(X;Y) - R]_+, as
    max over rho in [0, 1] of E_0(rho, Q) - rho R (Gallager 1968, ch. 5;
    Arimoto, IEEE T-IT 1976). That is concave in rho: a golden section finds
    an interior maximum, and the ends are exact (the value at rho = 0 is 0)."""
    qx = rp.composition
    if qx.size != ch.n_in:
        raise ProbError(f"composition has {qx.size} symbols, channel accepts {ch.n_in}")
    support = qx.probs > MASS_TOL
    q, w = qx.probs[support], ch.w[support]
    w = w[:, q @ w > 0]  # outputs no used input reaches add nothing

    def objective(rho: float) -> float:
        return _gallager_e0(rho, q, w) - rho * rp.rate

    _, v = golden_max(objective, 0.0, 1.0)
    return max(0.0, objective(1.0), v)


def sweep(rates, composition: Dist, metric: DecodingMetric, ch: Channel,
          opts: OptimizerOptions = OptimizerOptions(), which: str = "trc") -> ExponentCurve:
    """Evaluate one exponent family at each rate of a list, in its order;
    each rate is solved on its own.

    Per-point failures become flagged records; the sweep never aborts.
    """
    if which not in ("trc", "expurgated", "random"):
        raise ProbError(f"unknown sweep target {which!r}")
    curve = ExponentCurve(which=which, metric=metric.kind)
    for r in map(float, rates):
        try:
            rp = RatePoint(r, composition)
            if which == "random":
                val, diag = random_coding_exponent(rp, ch), {}
            else:
                fn = trc_exponent if which == "trc" else expurgated_exponent
                res = fn(rp, metric, ch, opts)
                val, diag = res.value, res.diagnostics
            curve.records.append(RateRecord(r, val, True, None, diag))
        except Exception as exc:  # noqa: BLE001 - flagged, not raised
            curve.records.append(RateRecord(r, math.nan, False, str(exc), {}))
    return curve
