"""Lagrange-dual relaxations of the TRC exponent's inner problems, and the
numerical certification of the inequality chain between them.

Four per-coupling functionals are evaluated, each in the sup/inf order of
its defining formula (the sup over the multiplier stays outside):

- ``psi``          sup over a Chernoff parameter of a pairwise row-overlap
                   score (the s = 1/2 point is the Bhattacharyya value);
- ``theta``        sup over rho of the (sigma, tau, V) infimum of
                   rho*(sigma*(R - H(Q_X)) - tau*D(Q_X||V)) minus the
                   pair term built on the auxiliary kernel (``log_g_aux``); the
                   infimum is computed in its equal primal form, the
                   Lagrangian of Gamma_ML's threshold constraint;
- ``lambda_bound`` sup over a multiplier of the score-tilted inner channel
                   minimization with penalty I(X;Y) - I(X';Y);
- ``phi_bound``    same with penalty R - I(X';Y).

Each returns a ``RayResult``: the maximizing multiplier, the value, and
whether the multiplier search ended at the top of its domain. Each relaxes
a constraint of a primal inner value, so at every coupling psi, theta <=
Gamma_ML and lambda <= Gamma_MMI, and phi <= Gamma_MMI while the MMI
threshold min{R, max I} equals R. Across the metrics there is no
per-coupling order: lambda, phi and Gamma_MMI are invariant under a
relabelling of X', psi, theta and Gamma_ML are not.

``ml_upper_bound`` / ``mmi_lower_bound`` push max{psi, theta} and
max{lambda, phi} (lambda alone at rates at or above I(Q_X;W)) through the
common outer coupling minimization, and
``certify_theorem1`` assembles every margin into a report. Certification
never asserts: each inequality is reported with its measured margin, and
infinities (zero channel support between row pairs) are propagated as
flagged records, never as NaN.
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .exponents import (
    ML,
    MMI,
    OptimizerOptions,
    RatePoint,
    _N_STARTS,
    _channel_memo,
    _metric_ctx,
    _outer_search,
    _spread_minima,
    _support_slots,
    gamma,
    trc_exponent,
)
from .prob import (
    Channel,
    Dist,
    Joint2,
    ProbError,
    coupling_grid,
    mutual_information,
)
from .search import (
    BUDGET,
    SHRINK,
    RayResult,
    RowMesh,
    global_mesh,
    pattern_min,
    sup_ray,
    zoom_slot_grids,
)


# ---------------------------------------------------------------------------
# auxiliary kernel G
# ---------------------------------------------------------------------------


def log_g_aux(y: int, sigma: float, tau: float, v: np.ndarray,
              ch: Channel, q_x: Dist) -> float:
    """log of the auxiliary kernel for output symbol y: one point of
    ``_log_g_aux_mesh``. V must be strictly positive wherever W(y|x) > 0
    and (for tau > 0) q(x) > 0; elsewhere its entries drop out."""
    if sigma < 0 or tau < 0:
        raise ProbError("sigma and tau must be nonnegative")
    v = np.asarray(v, dtype=float)
    alive = (ch.w[:, y] > 0) & (q_x.probs > 0)
    if tau > 0 and np.any(alive & (v <= 0)):
        raise ProbError("V must be strictly positive wherever the Q_X-weighted "
                        "channel column is positive")
    v = np.where(v > 0, v, 1.0)[None, :]
    return float(_log_g_aux_mesh(np.array([sigma]), np.array([tau]), v, ch, q_x)[0, 0, 0, y])


def _log_g_aux_mesh(sigmas: np.ndarray, taus: np.ndarray, vs: np.ndarray,
                    ch: Channel, q_x: Dist) -> np.ndarray:
    """log G over a full (sigma, tau, V, y) mesh, vs of shape (nV, nx) and
    strictly positive. For sigma > 0 this is

        sigma * log sum_x [W(y|x) q(x)^tau v(x)^-tau]^(1/sigma),

    evaluated stably in the log domain; sigma = 0 takes the exact max-term
    limit (the bound chain picks sigma = 0). Terms with W(y|x) = 0, or
    q(x) = 0 at tau > 0, drop out of the sum, and an output with no term
    left has log G = -inf."""
    q = q_x.probs
    logw = ch.log_matrix  # (nx, ny)
    logq = np.where(q > 0, np.log(np.where(q > 0, q, 1.0)), -np.inf)
    logv = np.log(vs)  # (nV, nx)
    # contribution tau * (logq - logv), with tau = 0 killing the factor even
    # on zero composition entries (q^0 = 1)
    with np.errstate(invalid="ignore"):
        contrib = taus[:, None, None] * (logq[None, None, :] - logv[None, :, :])
    contrib = np.where(taus[:, None, None] == 0.0, 0.0, contrib)
    # t[tau, V, x, y] = logw + contrib
    t = logw[None, None, :, :] + contrib[:, :, :, None]
    t = np.where(np.isnan(t), -np.inf, t)
    out = np.empty((sigmas.size, taus.size, vs.shape[0], ch.n_out))
    tmax = t.max(axis=2)  # (tau, V, y)
    shift = np.where(np.isneginf(tmax), 0.0, tmax)[:, :, None, :]  # no -inf - -inf
    for i, sig in enumerate(sigmas):
        if sig == 0.0:
            out[i] = tmax
        else:
            with np.errstate(divide="ignore"):  # log 0 where no term is left
                out[i] = tmax + sig * np.log(np.exp((t - shift) / sig).sum(axis=2))
    return out


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------


def _pair_logsum(logw_x: list, logw_xp: list, s: float) -> float:
    """log sum_y W(y|x)^(1-s) W(y|x')^s with the 0-support conventions; the
    log rows are lists of floats."""
    coef_a, coef_b = 1.0 - s, s
    terms = np.full(len(logw_x), -np.inf)
    for yi, (la, lb) in enumerate(zip(logw_x, logw_xp)):
        dead_a, dead_b = la == -math.inf, lb == -math.inf
        if (dead_a and coef_a > 0) or (dead_b and coef_b > 0):
            continue  # zero factor with positive exponent kills the term
        if (dead_a and coef_a < 0) or (dead_b and coef_b < 0):
            return math.inf  # division by a zero channel entry
        va = 0.0 if (dead_a and coef_a == 0) else coef_a * la
        vb = 0.0 if (dead_b and coef_b == 0) else coef_b * lb
        terms[yi] = va + vb
    m = terms.max()
    if m == -math.inf:
        return -math.inf
    return float(m + np.log(np.exp(terms - m).sum()))


def psi(q_xx: Joint2, ch: Channel) -> RayResult:
    """sup over s >= 0 of -sum_(x,x') Q(x,x') log sum_y W(y|x)^(1-s) W(y|x')^s.

    +inf when some charged pair of channel rows has disjoint support
    (reported as 'unbounded' by the certification layer).
    """
    weights, xs, xps = _support_slots(q_xx.probs)
    logw = ch.log_matrix.tolist()
    for x, xp in zip(xs, xps):
        if not (ch.support[x] & ch.support[xp]).any():
            return RayResult(math.nan, math.inf, True)

    def f(s: float) -> float:
        tot = 0.0
        for w, x, xp in zip(weights, xs, xps):
            ls = _pair_logsum(logw[x], logw[xp], s)
            if math.isinf(ls):
                return -math.inf if ls > 0 else math.inf
            tot -= w * ls
        return tot

    return sup_ray(f)


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------


def theta(q_xx: Joint2, rate: float, ch: Channel, q_x: Dist,
          opts: OptimizerOptions = OptimizerOptions()) -> RayResult:
    """sup over rho >= 0 of the inner (sigma, tau, V) infimum of

        rho*(sigma*(rate - H(Q_X)) - tau*D(Q_X || V))
            - sum Q(x,x') log sum_y W(y|x) W(y|x')^rho G(y)^-rho.

    The threshold half, sigma*(rate - H(Q_X)) - tau*D(Q_X || V) + sum_y
    Q_Y(y) log G(y), is the Lagrangian of a(R, Q_Y) under the ML metric
    (sigma prices I(X;Y) <= rate, tau and V the pinned X-marginal), so by
    strong duality the inner infimum equals the primal form

        min over Q_{Y|XX'} of D(Q_{Y|XX'} || W | Q_XX') + rho*(a(R,Q_Y) - g_ML(Q_X'Y)),

    the Lagrangian of Gamma_ML's threshold constraint g_ML(Q_X'Y) >= a(R,Q_Y),
    and that form is what is computed (on the same a(R,Q_Y) lattice as
    ``gamma``). Every conditional feasible for Gamma_ML has a nonpositive
    drive a - g_ML, so theta <= Gamma_ML; rho = 0 contributes exactly 0, so
    theta >= 0. +inf when no conditional on the search grid meets the
    threshold (the sup over rho is unbounded). When the true channel's own
    drive is <= 0 (it has kl = 0), theta is exactly 0 and no search runs.
    The solve is memoized per channel on (rate, the coupling's bytes).
    """
    memo = _channel_memo(ch, "theta", q_x.probs.tobytes(), opts)
    key = (rate, q_xx.probs.tobytes())
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = _ThetaProblem(q_xx, rate, ch, q_x, opts).solve()
    return hit


def _lower_front(kl: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """Indices of the candidates that can attain min(kl + rho*drive) at some
    rho >= 0: the Pareto front in (kl, drive), cut to its lower convex hull
    in the (drive, kl) plane (kept whole when some drive is -inf). Neither
    input holds NaN."""
    # a superset of the Pareto front first: a point whose drive exceeds the
    # least drive before it in any kl-ascending order is weakly dominated by
    # a point ahead of it in (kl, drive, index) order, so dropping it moves
    # no running minimum below
    order = np.argsort(kl)
    ds = drive[order]
    keep = np.sort(order[ds <= np.minimum.accumulate(ds)])
    kl, drive = kl[keep], drive[keep]
    order = np.lexsort((drive, kl))
    ds = drive[order]
    prev = np.minimum.accumulate(np.concatenate([[np.inf], ds[:-1]]))
    front = order[ds < prev][::-1]  # drive ascending, kl descending
    if np.isneginf(drive[front]).any():
        return keep[front]
    # the hull in plain floats: the same products and differences as on
    # numpy scalars, so the same decisions
    kl_l, drive_l = kl.tolist(), drive.tolist()
    hull: list[int] = []
    for t in front.tolist():
        kt, dt = kl_l[t], drive_l[t]
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            ko, do = kl_l[o], drive_l[o]
            if ((drive_l[a] - do) * (kt - ko) - (kl_l[a] - ko) * (dt - do)) > 0:
                break
            hull.pop()
        hull.append(t)
    return keep[np.array(hull, dtype=int)]


def _envelope_sup(kl: np.ndarray, drive: np.ndarray) -> tuple[float, float, int, int]:
    """sup over rho >= 0 of min_i kl_i + rho*drive_i over finite candidates.

    By LP duality this is the least kl of a two-point mixture whose mean
    drive is <= 0, so it is computed exactly. Returns (value, rho, i, j)
    with rho the least maximizer and i, j the candidates active there:
    i with drive <= 0, j with drive > 0 (j == i when rho = 0). The value is
    +inf when no candidate has drive <= 0.
    """
    if np.isneginf(drive).any():
        i = int(np.argmin(kl))
        return float(kl[i]), 0.0, i, i
    neg = drive <= 0
    if not neg.any():
        return math.inf, math.inf, -1, -1
    value = float(kl[neg].min())
    pos = np.nonzero(~neg & (kl < value))[0]
    if pos.size == 0:
        i = int(np.flatnonzero(neg)[np.argmin(kl[neg])])
        return value, 0.0, i, i
    ka, da = kl[neg][:, None], drive[neg][:, None]
    kb, db = kl[pos][None, :], drive[pos][None, :]
    value = min(value, float(((ka * db - kb * da) / (db - da)).min()))
    slopes = (value - kl[pos]) / drive[pos]
    j = int(pos[np.argmax(slopes)])
    rho = max(float(slopes.max()), 0.0)
    lag = np.where(neg, kl + rho * drive, np.inf)
    return value, rho, int(np.argmin(lag)), j


def _lagrangian(kl: np.ndarray, drive: np.ndarray, rho: float) -> np.ndarray:
    """kl + rho*drive, +inf where undefined (infinite kl, or 0 * inf)."""
    with np.errstate(invalid="ignore"):
        lag = kl + rho * drive if rho > 0 else kl.copy()
    return np.where(np.isnan(lag), np.inf, lag)


class _ThetaProblem:
    """theta's inner problem in primal form for one coupling.

    Every conditional evaluated is a candidate, and the sup over rho of the
    candidates' lower envelope is exact (``_envelope_sup``), so the search
    only has to supply candidates: the global row grid, nested zoom meshes
    from the active candidates and from distinct basins of the grid
    Lagrangian, then a pattern polish of the active ones. The pool of
    candidates is their ``_lower_front``, in ascending drive: ``kl`` and
    ``drive`` as lists of floats, ``rows`` as (s, ny) arrays.
    """

    def __init__(self, q_xx: Joint2, rate: float, ch: Channel, q_x: Dist,
                 opts: OptimizerOptions):
        self.ctx = _metric_ctx(ch, q_x, ML, opts)
        self.rate = rate
        weights, xs, xps = _support_slots(q_xx.probs)
        # the zoom stages start at the global mesh's step
        self.mesh, self.k = global_mesh(weights, xs, xps, ch.n_in, ch.log_matrix, opts.k)
        self.kl: list[float] = []
        self.drive: list[float] = []
        self.rows: list[np.ndarray] = []
        # _add_stats' probes, on the exact bytes of their rows
        self._seen: dict[bytes, tuple[float, float]] = {}
        self._pack = struct.Struct(f"{self.mesh.s * self.mesh.ny}d").pack

    def _drive(self, qy: np.ndarray, gxp: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            d = self.ctx.threshold_batch(qy, self.rate) - gxp
        # -inf on both sides is a feasible tie, as in gamma
        return np.where(np.isnan(d), 0.0, d)

    def _envelope(self) -> tuple[float, float, int, int]:
        return _envelope_sup(np.array(self.kl), np.array(self.drive))

    def _insert(self, k: float, d: float, rows) -> None:
        """Make the pool the ``_lower_front`` of the pool and one more
        candidate; rows() makes its rows, called only if it enters the pool.

        The pool is a staircase (kl falls as drive rises), so bisection on
        drive finds whether a member weakly dominates the candidate, where
        it goes, and the run of members it dominates. A -inf drive keeps
        that front whole. Otherwise every consecutive triple of the pool
        passed _lower_front's hull test already, so the test, in the same
        floats, runs from the candidate on until two old neighbours top the
        hull again."""
        kl, drive = self.kl, self.drive
        r = bisect.bisect_right(drive, d)
        if (r and kl[r - 1] <= k) or not math.isfinite(k) or d == math.inf:
            return  # weakly dominated, or no candidate
        pos = j = bisect.bisect_left(drive, d)
        while j < len(kl) and kl[j] >= k:  # weakly dominated by the candidate
            j += 1
        ks, ds = kl[:pos] + [k] + kl[j:], drive[:pos] + [d] + drive[j:]
        rs = self.rows[:pos] + [None] + self.rows[j:]
        hull = list(range(len(ks) if ds[0] == -math.inf else pos))
        for t in range(len(hull), len(ks)):
            while len(hull) >= 2:
                o, a = hull[-2], hull[-1]
                if ((ds[a] - ds[o]) * (ks[t] - ks[o]) - (ks[a] - ks[o]) * (ds[t] - ds[o])) > 0:
                    break
                hull.pop()
            hull.append(t)
            if t > pos + 1 and hull[-2] == t - 1:
                hull += range(t + 1, len(ks))  # the rest passes as it is
                break
        self.kl, self.drive = [ks[i] for i in hull], [ds[i] for i in hull]
        self.rows = [rows() if i == pos else rs[i] for i in hull]

    def _add_mesh(self, mesh: RowMesh) -> tuple[np.ndarray, np.ndarray]:
        """Merge a mesh's candidates into the pool, keeping its lower front
        (only survivors' rows are built); returns their (kl, drive)."""
        arrs = mesh.build("ml", self.ctx.qy_cols)
        kl, drive = arrs["kl"], self._drive(arrs["qy"], arrs["gxp"])
        ok = np.flatnonzero(np.isfinite(kl) & ~np.isposinf(drive))
        # one candidate is its own front
        new = ok if ok.size <= 1 else ok[_lower_front(kl[ok], drive[ok])]
        picks = np.unravel_index(new, mesh.gs)
        rows = self.rows + list(np.stack([g[i] for g, i in zip(mesh.slot_grids, picks)], axis=1))
        pool_kl = np.concatenate([self.kl, kl[new]])
        pool_drive = np.concatenate([self.drive, drive[new]])
        keep = _lower_front(pool_kl, pool_drive).tolist()
        self.kl, self.drive = pool_kl[keep].tolist(), pool_drive[keep].tolist()
        self.rows = [rows[i] for i in keep]
        return kl, drive

    def _add_rows(self, rows: np.ndarray) -> tuple[float, float]:
        """``_add_stats`` of an (s, ny) array of rows."""
        return self._add_stats(rows.reshape(-1).tolist(), self.mesh.stats_of(rows, "ml"))

    def _add_stats(self, flat_rows, st: dict) -> tuple[float, float]:
        """(kl, drive) of one candidate, from its rows (flat) and stats,
        merged into the pool on its first probe only: the pool then holds it
        or an envelope at or below it, so a repeat cannot move the envelope
        that theta reads."""
        key = self._pack(*flat_rows)
        hit = self._seen.get(key)
        if hit is not None:
            return hit
        d = self.ctx.threshold(st["qy"], self.rate) - st["gxp"]
        d = 0.0 if math.isnan(d) else d  # as in _drive
        mesh = self.mesh
        self._insert(st["kl"], d, lambda: np.array(flat_rows).reshape(mesh.s, mesh.ny))
        hit = self._seen[key] = (st["kl"], d)
        return hit

    @cached_property
    def _grid(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The global mesh's (kl, drive), merged into the pool after the
        true channel (kl = 0); None, and no mesh, when the channel's own
        drive is <= 0, which makes theta exactly 0."""
        _, d = self._add_rows(self.ctx.ch.w[self.mesh.x_of])
        return None if d <= 0 else self._add_mesh(self.mesh)

    def cap(self) -> float:
        """min kl over the true channel and the global mesh's candidates
        with drive <= 0. Each keeps kl + rho*drive <= kl at every rho >= 0,
        so theta <= cap, up to the rounding of ``_envelope_sup``'s two-point
        mixtures."""
        if self._grid is None:
            return 0.0
        kl, drive = self._grid
        return float(np.min(kl, where=drive <= 0, initial=math.inf))

    def solve(self) -> RayResult:
        mesh, opts = self.mesh, self.ctx.opts
        if self._grid is None:  # the sup would end at max(value <= 0, 0.0)
            return RayResult(0.0, 0.0, False)
        kl, drive = self._grid
        _, rho, i, j = self._envelope()
        if i < 0:
            return RayResult(math.inf, math.inf, True)
        # zoom chains from the active candidates and from distinct basins of
        # the grid Lagrangian, each re-centred on its own local minimizer at
        # the current multiplier
        starts = [self.rows[i], self.rows[j]] + [
            mesh.rows_of(idx) for idx in _spread_minima(_lagrangian(kl, drive, rho),
                                                        _N_STARTS, mesh.gs)]
        budget = BUDGET // (4 * mesh.nx * mesh.ny)
        for rows in starts:
            h = 1.0 / self.k
            for _ in range(max(4, opts.refine_iters // 3)):
                local = mesh.regrid(zoom_slot_grids(rows, h, budget, points_cap=9))
                kl, drive = self._add_mesh(local)
                _, rho, _, _ = self._envelope()
                rows = local.rows_of(int(np.argmin(_lagrangian(kl, drive, rho))))
                h *= SHRINK
        _, rho, i, j = self._envelope()

        def f(params: list) -> float:
            st = mesh.param_stats(params, "ml")
            if st is None:
                return math.inf
            kl, d = self._add_stats(st["rows"], st)  # every probe joins the pool
            lag = kl + rho * d if rho > 0 else kl  # _lagrangian's, in floats
            return math.inf if math.isnan(lag) else lag

        for c in {i, j}:
            pattern_min(mesh.rows_to_params(self.rows[c]), f,
                        opts.grid_step / 2**4, opts.refine_iters)
        value, rho, _, _ = self._envelope()
        return RayResult(rho, max(value, 0.0), False)


def _theta_cap(q_xx: Joint2, rate: float, ch: Channel, q_x: Dist,
               opts: OptimizerOptions) -> float:
    """theta's memoized value, or else ``_ThetaProblem.cap``. The problem
    built for the cap is dropped: were theta then solved, the solve builds
    its own, about 3 % of its time."""
    hit = _channel_memo(ch, "theta", q_x.probs.tobytes(), opts).get((rate, q_xx.probs.tobytes()))
    return hit.value if hit is not None else _ThetaProblem(q_xx, rate, ch, q_x, opts).cap()


# ---------------------------------------------------------------------------
# lambda and phi
# ---------------------------------------------------------------------------


class _TiltedProblem:
    """Shared mesh state for the multiplier-tilted inner minimizations of one
    coupling.

    solve('balance') is the I(X;Y) - I(X';Y) penalty, solve('rate', R) the
    R - I(X';Y) one; both take the sup over the multiplier with ``sup_ray``,
    which ranks its grid by a vectorized scan of the mesh minima and polishes
    only at the best point and inside the winning bracket.
    The global mesh is ``global_mesh``'s.
    """

    def __init__(self, q_xx: Joint2, ch: Channel, opts: OptimizerOptions):
        self.opts = opts
        weights, xs, xps = _support_slots(q_xx.probs)
        self.mesh, _ = global_mesh(weights, xs, xps, ch.n_in, ch.log_matrix, opts.k)
        arrs = self.mesh.build("mmi", 0)  # no threshold: no Q_Y column
        self.i_x, self.i_xp, self.kl = arrs["gx"], arrs["gxp"], arrs["kl"]
        # the mesh is kept for its kernels: its scratch goes
        self.mesh.release()
        # polish probes of every multiplier and penalty, keyed on the exact
        # bytes of the parameter vector: (kl, I(X;Y), I(X';Y)) from its
        # param_stats, or None off the simplex
        self._probes: dict[bytes, tuple | None] = {}
        self._pack = struct.Struct(f"{self.mesh.s * (self.mesh.ny - 1)}d").pack
        # _inner's values, on (mu, penalty, rate); mu = 0 is one key for both
        # penalties, whose drives are finite, so kl + 0.0*drive is kl
        self._inners: dict[tuple, float] = {}

    def _drive(self, penalty: str, rate: float) -> np.ndarray:
        if penalty == "balance":
            return self.i_x - self.i_xp
        return rate - self.i_xp

    def _inner(self, mu: float, penalty: str, rate: float) -> float:
        key = (0.0,) if mu == 0.0 else (mu, penalty, rate)
        hit = self._inners.get(key)
        if hit is None:
            hit = self._inners[key] = self._solve_inner(mu, penalty, rate)
        return hit

    def _solve_inner(self, mu: float, penalty: str, rate: float) -> float:
        mesh, opts = self.mesh, self.opts
        obj = self.kl + mu * self._drive(penalty, rate)
        best = int(np.argmin(obj))
        rows0, v0 = mesh.rows_of(best), float(obj[best])

        def f(params: list) -> float:
            key = self._pack(*params)
            if key not in self._probes:
                st = mesh.param_stats(params, "mmi")
                self._probes[key] = None if st is None else (st["kl"], st["gx"], st["gxp"])
            hit = self._probes[key]
            if hit is None:
                return math.inf
            kl, i_x, i_xp = hit
            return kl + mu * (i_x - i_xp if penalty == "balance" else rate - i_xp)

        _, fp, _ = pattern_min(mesh.rows_to_params(rows0), f, opts.grid_step, opts.refine_iters)
        return min(v0, fp)

    def solve(self, penalty: str, rate: float = 0.0) -> RayResult:
        drive = self._drive(penalty, rate)
        return sup_ray(lambda mu: self._inner(mu, penalty, rate),
                       lambda grid: (self.kl[None, :] + np.array(grid)[:, None]
                                     * drive[None, :]).min(axis=1), n=13, tol=1e-3)

    def cap(self, rate: float) -> float:
        """min kl over the mesh's candidates with rate - I(X';Y) <= 0. Every
        ``_inner`` value of solve('rate', rate) is at most its mesh minimum,
        which is at most kl + mu*(rate - I(X';Y)) <= kl at each of them, in
        floats too: so phi <= cap exactly."""
        return float(np.min(self.kl, where=self._drive("rate", rate) <= 0, initial=math.inf))


def _tilted_problem(q_xx: Joint2, ch: Channel, opts: OptimizerOptions) -> _TiltedProblem:
    """The coupling's ``_TiltedProblem``. Only the latest coupling's problem
    is kept, so lambda and phi there share one mesh evaluation and probe
    memo: kept for every coupling, the probe memos would hold most of a
    certify run's memory."""
    latest = _channel_memo(ch, "tilted problem", opts)
    key = q_xx.probs.tobytes()
    prob = latest.get(key)
    if prob is None:
        latest.clear()
        prob = latest[key] = _TiltedProblem(q_xx, ch, opts)
    return prob


def _tilted_sup(q_xx: Joint2, ch: Channel, opts: OptimizerOptions,
                penalty: str, rate: float) -> RayResult:
    """``_TiltedProblem(q_xx, ch, opts).solve(penalty, rate)``, memoized per
    channel on (the coupling's bytes, penalty, rate)."""
    values = _channel_memo(ch, "tilted", opts)
    key = (q_xx.probs.tobytes(), penalty, rate)
    hit = values.get(key)
    if hit is None:
        hit = values[key] = _tilted_problem(q_xx, ch, opts).solve(penalty, rate)
    return hit


def _phi_cap(q_xx: Joint2, rate: float, ch: Channel, opts: OptimizerOptions) -> float:
    """phi's memoized value, or else ``_TiltedProblem.cap`` of the
    coupling's problem (the one lambda there has just used)."""
    hit = _channel_memo(ch, "tilted", opts).get((q_xx.probs.tobytes(), "rate", rate))
    return hit.value if hit is not None else _tilted_problem(q_xx, ch, opts).cap(rate)


def lambda_bound(q_xx: Joint2, ch: Channel,
                 opts: OptimizerOptions = OptimizerOptions()) -> RayResult:
    """Multiplier-tilted inner channel minimum with penalty I(X;Y) - I(X';Y)."""
    return _tilted_sup(q_xx, ch, opts, "balance", 0.0)


def phi_bound(q_xx: Joint2, rate: float, ch: Channel,
              opts: OptimizerOptions = OptimizerOptions()) -> RayResult:
    """Multiplier-tilted inner channel minimum with penalty rate - I(X';Y)."""
    return _tilted_sup(q_xx, ch, opts, "rate", rate)


# ---------------------------------------------------------------------------
# outer bounds and certification
# ---------------------------------------------------------------------------


def _outer_bound(rp: RatePoint, opts: OptimizerOptions, per_coupling) -> float:
    """min over couplings {I <= 2R} of per_coupling(Q_XX') + I - R, clamped
    at 0. per_coupling is memoized on the coupling rounded to the 1/4096
    lattice, so nearby polish probes share one value."""
    memo: dict[tuple, float] = {}

    def value(q: np.ndarray, warm) -> tuple[float, None]:
        key = tuple(np.rint(q.reshape(-1) * 4096).astype(np.int64))
        if key not in memo:
            memo[key] = per_coupling(Joint2(q / q.sum()))
        return memo[key], None

    best, (_, v_ref), _, _ = _outer_search(rp, opts, 2.0 * rp.rate, value)
    return max(float(min(best[0], v_ref)), 0.0)


def ml_upper_bound(rp: RatePoint, ch: Channel,
                   opts: OptimizerOptions = OptimizerOptions()) -> float:
    """min over {I <= 2R} of max{psi, theta} + I - R.

    Named for its place in the certified chain, but psi and theta are lower
    bounds of Gamma_ML at every coupling, so in exact arithmetic this value
    cannot exceed the ML-decoding TRC exponent.

    theta is solved only where it can beat psi: where its cap
    (``_ThetaProblem.cap``, from the global mesh that starts its search)
    is below psi by more than 1e-12*max(1, psi), a margin over the cap's
    rounding, the value is psi, which is max{psi, theta} as it stands.
    """
    qx = rp.composition

    def per_coupling(j2: Joint2) -> float:
        p = psi(j2, ch).value
        if _theta_cap(j2, rp.rate, ch, qx, opts) < p - 1e-12 * max(1.0, p):
            return p
        return max(p, theta(j2, rp.rate, ch, qx, opts).value)

    return _outer_bound(rp, opts, per_coupling)


def mmi_lower_bound(rp: RatePoint, ch: Channel,
                    opts: OptimizerOptions = OptimizerOptions()) -> float:
    """Lower bound on the MMI-decoding TRC exponent:
    min over {I <= 2R} of max{lambda, phi} + I - R, with lambda alone at
    rates where phi does not relax Gamma_MMI (``_phi_relaxes``).

    phi is solved only where it can beat lambda: where its cap
    (``_TiltedProblem.cap``, on the mesh lambda has just used) is at most
    lambda, phi is too, so the value is lambda, which is max{lambda, phi}
    as it stands."""
    use_phi = _phi_relaxes(rp, ch)

    def per_coupling(j2: Joint2) -> float:
        lm = lambda_bound(j2, ch, opts).value
        if not use_phi or _phi_cap(j2, rp.rate, ch, opts) <= lm:
            return lm
        return max(lm, phi_bound(j2, rp.rate, ch, opts).value)

    return _outer_bound(rp, opts, per_coupling)


def _phi_relaxes(rp: RatePoint, ch: Channel) -> bool:
    """Whether the rate is below I(Q_X;W). At or above it the MMI threshold
    min{R, max I} can fall below R, and phi no longer relaxes Gamma_MMI."""
    qx = rp.composition
    return rp.rate < mutual_information(Joint2(qx.probs[:, None] * ch.w))


@dataclass
class CouplingMargins:
    """The four dual functionals at one coupling, the primal inner values
    they relax, and the margins between them.

    ``gamma_*_minus_*`` are the relaxation margins certification judges;
    ``lambda_minus_psi`` and ``phi_minus_theta`` carry no sign and are only
    reported. ``phi_judged`` is False when the rate is at or above I(Q_X;W),
    where the MMI threshold min{R, max I} can fall below R and phi no
    longer relaxes Gamma_MMI.
    """

    coupling: list
    information: float
    psi: float
    theta: float
    lambda_: float
    phi: float
    gamma_ml: float
    gamma_mmi: float
    gamma_ml_minus_psi: float
    gamma_ml_minus_theta: float
    gamma_mmi_minus_lambda: float
    gamma_mmi_minus_phi: float
    phi_judged: bool
    lambda_minus_psi: float
    phi_minus_theta: float

    def judged_margins(self) -> list[float]:
        out = [self.gamma_ml_minus_psi, self.gamma_ml_minus_theta,
               self.gamma_mmi_minus_lambda]
        return out + [self.gamma_mmi_minus_phi] if self.phi_judged else out


# BoundReport's margin fields and their keys under "margins"
_MARGIN_KEYS = {
    "margin_lambda_psi": "lambda_minus_psi",
    "margin_phi_theta": "phi_minus_theta",
    "margin_mmi_ml": "mmi_lower_minus_ml_upper",
    "margin_upper_vs_trc_ml": "ml_upper_minus_trc_ml",
    "margin_trc_mmi_vs_lower": "trc_mmi_minus_mmi_lower",
    "primal_gap": "primal_gap",
}


@dataclass
class BoundReport:
    """Everything certify_theorem1 measured, margins included.

    Margins are reported, never asserted: ``passed`` summarizes whether the
    outer-chain margins and every coupling's judged relaxation margins
    (``CouplingMargins.judged_margins``) clear -certify_tol, and ``flags``
    lists infinite/unbounded or unjudged quantities with reasons.
    ``margin_lambda_psi`` and ``margin_phi_theta`` are the worst cross
    margins over the couplings (``psi`` .. ``phi`` are the values where they
    occur); they are reported only. Infinite and NaN values stay floats:
    the CLI's JSON encoder writes them as strings.
    """

    rate: float
    composition: list
    certify_tol: float
    psi: float
    theta: float
    lambda_: float
    phi: float
    ml_upper: float
    mmi_lower: float
    trc_ml: float
    trc_mmi: float
    margin_lambda_psi: float
    margin_phi_theta: float
    margin_mmi_ml: float
    margin_upper_vs_trc_ml: float
    margin_trc_mmi_vs_lower: float
    primal_gap: float
    per_coupling: list[CouplingMargins] = field(default_factory=list)
    flags: list[dict] = field(default_factory=list)
    passed: bool = False

    def to_dict(self) -> dict:
        """The report as plain data for a result file: ``lambda_`` is
        "lambda", here and per coupling, and the six report margins go under
        "margins" (``_MARGIN_KEYS``)."""
        d = asdict(self)
        for c in [d, *d["per_coupling"]]:
            c["lambda"] = c.pop("lambda_")
        d["margins"] = {key: d.pop(name) for name, key in _MARGIN_KEYS.items()}
        return d


def _margin(hi: float, lo: float) -> float:
    """hi - lo, with a tie between equal infinities counted as zero."""
    return 0.0 if math.isinf(hi) and hi == lo else hi - lo


def _clears(margins, tol: float) -> bool:
    """Every finite margin is >= -tol and none is -inf (NaN is skipped)."""
    return all(v >= -tol for v in margins if not math.isnan(v))


def certify_theorem1(rp: RatePoint, ch: Channel,
                     opts: OptimizerOptions = OptimizerOptions(),
                     certify_tol: float = 1e-4) -> BoundReport:
    """Measure the full bound chain at one rate point and report margins.

    Per coupling of the 1/4 grid coupling_grid(composition, 4), each dual
    functional is judged against the primal inner value it relaxes:
    psi, theta <= Gamma_ML and lambda <= Gamma_MMI, and phi <= Gamma_MMI
    while the rate is below I(Q_X;W). lambda - psi and phi - theta are
    reported but not judged: they have no sign at a single coupling. The
    outer chain compares trc(ml) <= ml_upper <= mmi_lower <= trc(mmi) plus
    the primal gap. certify_tol must be finite and >= 0.
    """
    if not 0.0 <= certify_tol < math.inf:
        raise ProbError(f"certify_tol must be finite and >= 0, got {certify_tol}")
    qx = rp.composition
    phi_judged = _phi_relaxes(rp, ch)
    per = []
    flags: list[dict] = []
    if not phi_judged:
        flags.append({"quantity": "phi", "reason": "rate at or above I(Q_X;W): the MMI "
                      "threshold can fall below R, so phi is not judged"})
    worst_lp, worst_pt = math.inf, math.inf
    worst_vals = [math.nan] * 4
    for j2 in coupling_grid(qx, 4):
        p = psi(j2, ch).value
        t = theta(j2, rp.rate, ch, qx, opts).value
        lm, ph = lambda_bound(j2, ch, opts).value, phi_bound(j2, rp.rate, ch, opts).value
        g_ml = gamma(j2, rp.rate, ML, ch, qx, opts)
        g_mmi = gamma(j2, rp.rate, MMI, ch, qx, opts)
        if math.isinf(p):
            flags.append({"quantity": "psi", "coupling": j2.probs.tolist(),
                          "reason": "disjoint channel row support on a charged pair"})
        if math.isinf(lm):
            flags.append({"quantity": "lambda", "coupling": j2.probs.tolist(),
                          "reason": "unbounded multiplier ray"})
        mlp, mpt = _margin(lm, p), _margin(ph, t)
        per.append(CouplingMargins(
            coupling=j2.probs.tolist(), information=mutual_information(j2),
            psi=p, theta=t, lambda_=lm, phi=ph, gamma_ml=g_ml, gamma_mmi=g_mmi,
            gamma_ml_minus_psi=_margin(g_ml, p),
            gamma_ml_minus_theta=_margin(g_ml, t),
            gamma_mmi_minus_lambda=_margin(g_mmi, lm),
            gamma_mmi_minus_phi=_margin(g_mmi, ph),
            phi_judged=phi_judged,
            lambda_minus_psi=mlp, phi_minus_theta=mpt,
        ))
        if mlp < worst_lp:
            worst_lp, worst_vals[0], worst_vals[2] = mlp, p, lm
        if mpt < worst_pt:
            worst_pt, worst_vals[1], worst_vals[3] = mpt, t, ph

    ml_u = ml_upper_bound(rp, ch, opts)
    mmi_l = mmi_lower_bound(rp, ch, opts)
    trc_ml = trc_exponent(rp, ML, ch, opts).value
    trc_mmi = trc_exponent(rp, MMI, ch, opts).value

    chain = {
        "mmi_ml": mmi_l - ml_u,
        "up_vs_ml": ml_u - trc_ml,
        "mmi_vs_low": trc_mmi - mmi_l,
    }
    passed = (_clears(chain.values(), certify_tol)
              and all(_clears(c.judged_margins(), certify_tol) for c in per))
    return BoundReport(
        rate=rp.rate, composition=qx.probs.tolist(), certify_tol=certify_tol,
        psi=worst_vals[0], theta=worst_vals[1],
        lambda_=worst_vals[2], phi=worst_vals[3],
        ml_upper=ml_u, mmi_lower=mmi_l, trc_ml=trc_ml, trc_mmi=trc_mmi,
        margin_lambda_psi=worst_lp, margin_phi_theta=worst_pt,
        margin_mmi_ml=chain["mmi_ml"],
        margin_upper_vs_trc_ml=chain["up_vs_ml"],
        margin_trc_mmi_vs_lower=chain["mmi_vs_low"],
        primal_gap=abs(trc_ml - trc_mmi),
        per_coupling=per, flags=flags, passed=passed,
    )
