import gc
import json
import math
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import explab.exponents as exponents
from explab.cli import run as cli_run
from explab.duals import certify_theorem1
from explab.exponents import (
    ML,
    MMI,
    DecodingMetric,
    OptimizerOptions,
    RatePoint,
    a_threshold,
    expurgated_exponent,
    gamma,
    random_coding_exponent,
    sweep,
    trc_exponent,
)
from explab.prob import Channel, Dist, Joint2, ProbError, coupling_grid, mutual_information, xlogx
from explab import search
from explab.search import RowMesh, elog_batch, mi_batch

LOG2 = math.log(2.0)
UNIF = Dist.uniform(2)
BSC01 = Channel.bsc(0.1)
OPTS = OptimizerOptions()

# frozen independent-oracle values (dense linspace scans / exhaustive grids,
# separate code path from the solvers; see the assertions for the bands)
A_ML_R02_K64 = -0.5516717579292457        # k=64 rows grid, exact-marginal subset
GAMMA_PROD_R01_K64 = 0.26242326943728905  # same value for both metrics
ER_ZERO_K128 = 0.22314355131420988        # also the closed form -log(0.8)

PROD = Joint2(np.full((2, 2), 0.25))
ANTI = Joint2(np.array([[0.0, 0.5], [0.5, 0.0]]))


class TestOptions:
    def test_defaults(self):
        assert OPTS.k == 8
        assert OPTS.slack == pytest.approx(1e-3)

    def test_slack_scales_with_step(self):
        o = OptimizerOptions(grid_step=1 / 16)
        assert o.slack == pytest.approx(5e-4)

    def test_validation(self):
        with pytest.raises(ProbError):
            OptimizerOptions(grid_step=0.3)
        with pytest.raises(ProbError):
            OptimizerOptions(refine_iters=-1)
        with pytest.raises(ProbError):
            RatePoint(-0.1, UNIF)

    def test_metric_evaluate(self):
        j = Joint2.from_input_and_rows(UNIF, BSC01.w)
        g = {m.kind: exponents._metric_ctx(BSC01, UNIF, m, OPTS).g_batch(j.probs[None])[0]
             for m in (ML, MMI)}
        assert g["mmi"] == pytest.approx(mutual_information(j))
        want = sum(j.probs[a, b] * math.log(BSC01.w[a, b])
                   for a in range(2) for b in range(2))
        assert g["ml"] == pytest.approx(want)
        with pytest.raises(ProbError):
            DecodingMetric("map")


class TestAThreshold:
    def test_mmi_rate_zero(self):
        assert a_threshold(0.0, UNIF, MMI, BSC01, UNIF, OPTS) == pytest.approx(0.0, abs=1e-9)

    def test_mmi_unconstrained_hits_entropy(self):
        # R above H(q_x): the constraint is inactive and the value is the
        # maximal information over the pinned-marginal polytope (log 2 for
        # two uniform marginals)
        val = a_threshold(2.0, UNIF, MMI, BSC01, UNIF, OPTS)
        assert val == pytest.approx(LOG2, abs=1e-9)
        # skewed output marginal: compare to a dense independent scan of the
        # one-parameter polytope (a deterministic coupling does not exist
        # here, so the entropy bound min{H, H} is not attained)
        qy = Dist(np.array([0.75, 0.25]))
        skew = a_threshold(2.0, qy, MMI, BSC01, UNIF, OPTS)
        base = np.outer(UNIF.probs, qy.probs)
        move = np.array([[1.0, -1.0], [-1.0, 1.0]])
        best = 0.0
        for c in np.linspace(-0.5, 0.5, 20001):
            j = base + c * move
            if (j >= -1e-12).all():
                best = max(best, mutual_information(Joint2(np.clip(j, 0, 1))))
        assert skew == pytest.approx(best, abs=1e-6)
        h_qy = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert skew <= min(LOG2, h_qy) + 1e-9

    def test_mmi_binding_rate(self):
        # max I subject to I <= R is exactly R while R is reachable
        assert a_threshold(0.2, UNIF, MMI, BSC01, UNIF, OPTS) == pytest.approx(0.2, abs=1e-9)

    def test_ml_oracle_band(self):
        # the k=64 oracle optimizes over a coarse exact-marginal subset, so it
        # can only fall short of the continuum optimum
        val = a_threshold(0.2, UNIF, ML, BSC01, UNIF, OPTS)
        assert A_ML_R02_K64 - 1e-9 <= val <= A_ML_R02_K64 + 0.05

    def test_nondecreasing_in_rate(self):
        vals = [a_threshold(r, UNIF, ML, BSC01, UNIF, OPTS)
                for r in (0.0, 0.1, 0.2, 0.4, 0.7)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_skewed_qy(self):
        qy = Dist(np.array([0.75, 0.25]))
        v_ml = a_threshold(0.15, qy, ML, BSC01, UNIF, OPTS)
        assert math.isfinite(v_ml)
        v_mmi = a_threshold(0.15, qy, MMI, BSC01, UNIF, OPTS)
        assert 0.0 <= v_mmi <= 0.15 + 1e-9


def _lattice_joint_form(ctx, qys: np.ndarray, rate: float) -> np.ndarray:
    """The binary threshold lattice solved on (N, 2, 2) joints with mi_batch:
    _MetricCtx._solve_1d_batch in the joint form. ML bisects to the ends of
    {I <= R} on the segment and takes the better one; MMI is the closed form
    min(R, the larger I at the segment's ends), as I is convex there and 0
    at the product coupling."""
    base = ctx.qx.probs[None, :, None] * qys[:, None, :]
    bmove = np.array([[1.0, -1.0], [-1.0, 1.0]])

    def info(c):
        return mi_batch(base + c[:, None, None] * bmove)

    side_lo = -np.minimum(base[:, 0, 0], base[:, 1, 1])
    side_hi = np.minimum(base[:, 0, 1], base[:, 1, 0])
    if ctx.kind == "mmi":
        return np.minimum(rate, np.maximum(info(side_lo), info(side_hi)))

    def edge(side):
        ok = info(side) <= rate
        a = np.where(ok, side, 0.0)
        b = side.copy()
        for _ in range(60):
            mid = 0.5 * (a + b)
            good = info(mid) <= rate
            a = np.where(good, mid, a)
            b = np.where(good, b, mid)
        return np.where(ok, side, a)

    c_lo, c_hi = edge(side_lo), edge(side_hi)
    return np.maximum(elog_batch(base + c_lo[:, None, None] * bmove, ctx.logw),
                      elog_batch(base + c_hi[:, None, None] * bmove, ctx.logw))


class TestLattice:
    """The cell-vector lattice equals the joint form bit for bit. Rows are
    solved independently, so every 8th lattice point plus the two next to
    the ends (cells of 1/4096 and below) stand for the whole lattice."""

    QY0 = np.unique(np.concatenate([np.arange(0, 4097, 8), [1, 4095]])) / 4096.0
    # 0.8 nats exceeds log 2, so I(Q_X;W) and every coupling's I lie below it
    RATES = (0.0, 0.005, 0.01, 0.1, 0.3, 0.8)

    @pytest.mark.parametrize("rows, kind", [
        ([[0.9, 0.1], [0.1, 0.9]], "ml"),
        ([[0.9, 0.1], [0.1, 0.9]], "mmi"),
        ([[0.75, 0.25], [0.1, 0.9]], "ml"),
        ([[0.75, 0.25], [0.1, 0.9]], "mmi"),
        ([[1.0, 0.0], [0.2, 0.8]], "mmi"),
        # zeros of W: g_ML is -inf wherever a zero cell carries mass
        ([[1.0, 0.0], [0.2, 0.8]], "ml"),
        ([[0.8, 0.2], [0.0, 1.0]], "ml"),
        ([[1.0, 0.0], [0.0, 1.0]], "ml"),
    ])
    @pytest.mark.parametrize("comp", [[0.5, 0.5], [0.25, 0.75], [0.0, 1.0]])
    def test_matches_joint_form(self, rows, kind, comp):
        ctx = exponents._MetricCtx(Channel.from_rows(rows), Dist(np.array(comp)),
                                   DecodingMetric(kind), OPTS)
        assert ctx._fast_1d
        qys = np.stack([self.QY0, 1.0 - self.QY0], axis=1)
        for rate in self.RATES:
            got = ctx._solve_1d_batch(qys, rate)
            want = _lattice_joint_form(ctx, qys, rate)
            assert np.array_equal(got, want), (rate, np.flatnonzero(got != want)[:5])
            if kind == "mmi":  # a is an information within I <= R
                assert (got >= 0.0).all() and (got <= rate).all(), (rate, got.max())


def _lattice_bisection_reference(ctx, qys: np.ndarray, rate: float) -> np.ndarray:
    """_MetricCtx._solve_1d_batch as it was before it kept the marginal
    sums' x log x from step to step: the cell-vector form, with every x log
    x taken anew in each of the 60 bisection steps."""
    n = qys.shape[0]
    base = np.tile(np.stack([q * y for q in ctx.qx.probs for y in qys.T]), 2)
    sign = np.array([[1.0], [-1.0], [-1.0], [1.0]])

    def info(b, c):
        j = b + sign * c
        j = np.concatenate([j, [j[0] + j[1], j[2] + j[3], j[0] + j[2], j[1] + j[3]]])
        x = xlogx(j)
        return np.maximum((((x[0] + x[1]) + x[2]) + x[3] - (x[4] + x[5]) - (x[6] + x[7])), 0.0)

    sides = np.concatenate([-np.minimum(base[0, :n], base[3, :n]),
                            np.minimum(base[1, :n], base[2, :n])])
    at_sides = info(base, sides)
    if ctx.kind == "mmi":
        return np.minimum(rate, np.maximum(at_sides[:n], at_sides[n:]))
    todo = np.flatnonzero(at_sides > rate)
    b, lo, hi = base[:, todo], np.zeros(todo.size), sides[todo]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        good = info(b, mid) <= rate
        lo = np.where(good, mid, lo)
        hi = np.where(good, hi, mid)
    c = sides.copy()
    c[todo] = lo
    g = elog_batch((base + sign * c).T.reshape(-1, 2, 2), ctx.logw)
    return np.maximum(g[:n], g[n:])


@pytest.mark.parametrize("rows", [[[0.9, 0.1], [0.1, 0.9]], [[0.75, 0.25], [0.1, 0.9]],
                                  [[1.0, 0.0], [0.2, 0.8]]], ids=["bsc", "asym", "z"])
@pytest.mark.parametrize("comp", [[0.5, 0.5], [3 / 8, 5 / 8], [0.3, 0.7]], ids=["uniform", "3/8", "0.3"])
def test_lattice_equals_a_plain_bisection(rows, comp):
    """The whole threshold lattice (4,097 output laws) and 500 random output
    laws, whose bisection takes the marginal sums' x log x again only when a
    sum changed, equal the bisection that takes every x log x anew, bit for
    bit, at R in {0, 0.01, 0.2} under both metrics. On the lattice at the
    first two compositions no sum changes; at (0.3, 0.7) some do."""
    qy0 = np.concatenate([np.arange(4097) / 4096.0, np.random.default_rng(7).random(500)])
    qys = np.stack([qy0, 1.0 - qy0], axis=1)
    for kind in ("ml", "mmi"):
        ctx = exponents._MetricCtx(Channel.from_rows(rows), Dist(np.array(comp)),
                                   DecodingMetric(kind), OPTS)
        for rate in (0.0, 0.01, 0.2):
            got, want = ctx._solve_1d_batch(qys, rate), _lattice_bisection_reference(ctx, qys, rate)
            assert got.tobytes() == want.tobytes(), (kind, rate, np.flatnonzero(got != want)[:5])


def _zoom_reference(prob, rows0, v0, anchor, shallow=False):
    """_InnerSolve._zoom as it was before its arrays went into the mesh
    structure's buffers: every array a new one."""
    ctx = prob.ctx
    stages = max(4, ctx.opts.refine_iters // 3)
    h = ctx.opts.grid_step
    cap = 33
    if shallow:
        stages = max(3, stages - 2)
        h = ctx.opts.grid_step / 2
        cap = 9
    rows, val = rows0, v0
    evals = 0
    budget = exponents.BUDGET // (4 * prob.mesh.nx * prob.mesh.ny)
    for _ in range(stages):
        local = prob.mesh.regrid(exponents.zoom_slot_grids(rows, h, budget, points_cap=cap))
        arrs = local.build(ctx.kind)
        evals += arrs["kl"].size
        avals = ctx.threshold_batch(arrs["qy"], prob.rate)
        with np.errstate(invalid="ignore"):
            margin = arrs["gxp"] - np.maximum(arrs["gx"], avals)
        margin = np.where(np.isnan(margin), 0.0, margin)
        slack_h = ctx.opts.slack * (h / ctx.opts.grid_step)
        obj = np.where(margin >= -slack_h, arrs["kl"], np.inf)
        best = int(np.argmin(obj))
        if np.isfinite(obj[best]) and obj[best] < val - 1e-15:
            rows, val = local.rows_of(best), float(obj[best])
        strict = np.where(margin >= 0.0, arrs["kl"], np.inf)
        sbest = int(np.argmin(strict))
        if np.isfinite(strict[sbest]) and strict[sbest] < anchor["kl"]:
            anchor["rows"] = local.rows_of(sbest)
            anchor["kl"] = float(strict[sbest])
        h *= exponents.SHRINK
    return rows, val, evals


class TestZoomInBuffers:
    @pytest.mark.parametrize("rows", [[[0.9, 0.1], [0.1, 0.9]], [[1.0, 0.0], [0.2, 0.8]],
                                      [[0.75, 0.25], [0.1, 0.9]]], ids=["bsc", "z", "asym"])
    @pytest.mark.parametrize("metric", [ML, MMI])
    def test_zoom_equals_its_old_code(self, rows, metric, monkeypatch):
        """The zoom stages, whose threshold lookup, margin and objectives
        are computed in the mesh structure's scratch buffers, return what
        they did with new arrays: the same incumbent, evaluation count and
        repair anchor, from the grid starts of solve, cold and shallow. The
        cases take both ways to the anchor: the incumbent's argmin, when its
        margin is >= 0, and the second argmin over margin >= 0."""
        cuts = []
        kl_argmin = exponents._kl_argmin

        def count(kl, margin, cut, obj, off):
            cuts.append(cut)
            return kl_argmin(kl, margin, cut, obj, off)

        monkeypatch.setattr(exponents, "_kl_argmin", count)
        ch = Channel.from_rows(rows)
        ctx = exponents._metric_ctx(ch, UNIF, metric, OPTS)
        for q in (PROD, Joint2(np.array([[0.3, 0.2], [0.2, 0.3]])),
                  Joint2(np.array([[0.1, 0.4], [0.4, 0.1]]))):
            for rate in (0.0, 0.05, 0.2):
                prob = exponents._InnerSolve(ctx, q.probs, rate)
                obj = prob._objective(prob.mesh.build(ctx.kind))
                for idx in exponents._spread_minima(obj, 2, prob.mesh.gs):
                    for shallow in (False, True):
                        start = (prob.mesh.rows_of(idx), float(obj[idx]))
                        got_anchor = {"rows": None, "kl": math.inf}
                        want_anchor = {"rows": None, "kl": math.inf}
                        got = prob._zoom(*start, got_anchor, shallow=shallow)
                        want = _zoom_reference(prob, *start, want_anchor, shallow=shallow)
                        where = (q.probs.tolist(), rate, idx, shallow)
                        assert got[0].tobytes() == want[0].tobytes(), where
                        assert got[1:] == want[1:], where
                        assert got_anchor["kl"] == want_anchor["kl"], where
                        assert (got_anchor["rows"] is None) == (want_anchor["rows"] is None), where
                        if want_anchor["rows"] is not None:
                            assert got_anchor["rows"].tobytes() == want_anchor["rows"].tobytes(), where
        # every stage takes the incumbent's argmin (cut -slack_h < 0), and
        # some take the second
        stages, second = sum(c < 0.0 for c in cuts), cuts.count(0.0)
        assert stages + second == len(cuts)
        assert stages - second > 0 and second > 0, (stages, second)

    def test_kl_argmin_cuts_at_the_margin(self):
        """kl where the margin is at least the cut, NaN margins included."""
        kl = np.array([5.0, 1.0, 2.0, 3.0, 0.5])
        margin = np.array([0.0, -0.25, -0.125, np.nan, -1.0])
        obj, off = np.empty(5), np.empty(5, dtype=bool)
        assert exponents._kl_argmin(kl, margin, -0.125, obj, off) == (2, 2.0)
        assert exponents._kl_argmin(kl, margin, 0.0, obj, off) == (3, 3.0)
        assert exponents._kl_argmin(kl, margin, -1.0, obj, off) == (4, 0.5)
        none = exponents._kl_argmin(kl, np.full(5, -2.0), 0.0, obj, off)
        assert none[1] == math.inf


class TestGamma:
    def test_diagonal_smallest_at_rate_zero(self):
        # exhaustive over the k=8 coupling grid: the diagonal coupling's
        # constraint is an equality by symmetry, giving the smallest value
        vals = {}
        for j2 in coupling_grid(UNIF, 8):
            vals[j2.probs[0, 0]] = gamma(j2, 0.0, ML, BSC01, UNIF, OPTS)
        assert all(vals[0.5] <= v + 1e-9 for v in vals.values())
        assert vals[0.5] == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_returns_inf(self):
        # noiseless channel, antidiagonal coupling, ml metric: the competitor
        # score is -inf for every conditional, the transmit score is 0
        ident = Channel.from_rows([[1.0, 0.0], [0.0, 1.0]])
        assert gamma(ANTI, 0.1, ML, ident, UNIF, OPTS) == math.inf

    @pytest.mark.parametrize("metric", [ML, MMI])
    def test_product_oracle_band(self, metric):
        val = gamma(PROD, 0.1, metric, BSC01, UNIF, OPTS)
        # the k=64 oracle sits on a coarse grid: it can only overshoot the
        # continuum minimum, and by no more than its resolution allows
        assert val <= GAMMA_PROD_R01_K64 + 1e-9
        assert val >= GAMMA_PROD_R01_K64 - 0.01

    def test_nondecreasing_in_rate(self):
        vals = [gamma(PROD, r, MMI, BSC01, UNIF, OPTS) for r in (0.0, 0.1, 0.2, 0.3)]
        assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))

    def test_coupling_marginal_check(self):
        bad = Joint2(np.array([[0.6, 0.1], [0.1, 0.2]]))
        with pytest.raises(ProbError):
            gamma(bad, 0.1, ML, BSC01, UNIF, OPTS)


class TestTrcExponent:
    def test_rate_zero_equals_product_gamma(self):
        rp = RatePoint(0.0, UNIF)
        res = trc_exponent(rp, MMI, BSC01, OPTS)
        direct = gamma(PROD, 0.0, MMI, BSC01, UNIF, OPTS)
        assert res.value == pytest.approx(direct, abs=1e-6)
        assert np.allclose(res.argmin_coupling.probs, PROD.probs, atol=1e-6)

    def test_zero_at_capacity(self):
        # the outer-min functional crosses zero at the capacity of BSC(0.1)
        # (~0.368 nats); beyond it the tightening score threshold pushes the
        # value back up, so the zero test sits right at the crossing
        rp = RatePoint(0.37, UNIF)
        assert trc_exponent(rp, MMI, BSC01, OPTS).value <= 1e-4

    def test_witness_consistency(self):
        res = trc_exponent(RatePoint(0.1, UNIF), ML, BSC01, OPTS)
        assert res.diagnostics["witness_recheck_gap"] <= 1e-6
        assert res.value >= 0.0

    @pytest.mark.parametrize("metric", [ML, MMI], ids=["ml", "mmi"])
    def test_reported_value_is_its_witness_value(self, metric):
        """The value is reported with the rows of the solve that attained it.
        At this asymmetric point (0.7 I(Q;W), non-uniform Q) the warm polish
        solve beats the cold re-solve, whose rows missed the reported value
        by 8.0e-6 (ML) and 3.6e-5 (MMI) when they were reported with it."""
        a, b = 0.6314832198285961, 0.27899524521331553
        ch = Channel.from_rows([[a, 1 - a], [b, 1 - b]])
        rp = RatePoint(0.042330936333379386, Dist(np.array([3 / 8, 5 / 8])))
        diag = trc_exponent(rp, metric, ch, OPTS).diagnostics
        assert diag["witness_recheck_gap"] == 0.0
        assert diag["score_margin"] >= 0.0

    def test_dominates_random_coding(self):
        for r in (0.05, 0.15, 0.25):
            rp = RatePoint(r, UNIF)
            e_trc = trc_exponent(rp, MMI, BSC01, OPTS).value
            e_r = random_coding_exponent(rp, BSC01)
            assert e_trc >= e_r - 1e-6


class TestExpurgatedExponent:
    def test_rate_zero_equals_product_gamma(self):
        # at R = 0 the cap I(X;X') <= R leaves the product coupling alone
        rp = RatePoint(0.0, UNIF)
        for metric in (ML, MMI):
            res = expurgated_exponent(rp, metric, BSC01, OPTS)
            direct = gamma(PROD, 0.0, metric, BSC01, UNIF, OPTS)
            assert res.value == pytest.approx(direct, abs=1e-6)

    def test_dominates_random_coding(self):
        for r in (0.05, 0.15):
            rp = RatePoint(r, UNIF)
            e_ex = expurgated_exponent(rp, ML, BSC01, OPTS).value
            e_r = random_coding_exponent(rp, BSC01)
            assert e_ex >= e_r - 1e-6


class TestZeroRateClosedForm:
    # at R = 0 both caps (2R, R) leave only the product coupling, where at
    # the uniform binary composition Gamma = d_B/2 under either metric
    @pytest.mark.parametrize("ch", [Channel.bsc(0.1), Channel.bsc(0.25),
                                    Channel.from_rows([[1.0, 0.0], [0.2, 0.8]])],
                             ids=["bsc01", "bsc025", "z"])
    def test_half_bhattacharyya_at_product(self, ch):
        half_db = -0.5 * math.log(float(np.sqrt(ch.w[0] * ch.w[1]).sum()))
        rp = RatePoint(0.0, UNIF)
        for exponent in (trc_exponent, expurgated_exponent):
            for metric in (ML, MMI):
                res = exponent(rp, metric, ch, OPTS)
                assert res.value == pytest.approx(half_db, abs=1e-12)
                assert np.array_equal(res.argmin_coupling.probs, PROD.probs)
                assert res.diagnostics["coupling_information"] == 0.0
                assert res.diagnostics["outer_refine_evals"] == 0


    @pytest.mark.parametrize("ch", [Channel.bsc(0.1), Channel.from_rows([[1.0, 0.0], [0.2, 0.8]])],
                             ids=["bsc01", "z"])
    @pytest.mark.parametrize("q", [[3 / 8, 5 / 8], [1 / 4, 3 / 4]], ids=["3/8", "1/4"])
    def test_ml_bhattacharyya_average_off_the_uniform_composition(self, ch, q):
        """At R = 0 the ML exponents sit at the product coupling Q x Q, where
        Gamma_ML is a Chernoff bound that the symmetry in x and x' puts at
        s = 1/2: E_trc^ML(0) = E_ex^ML(0) = sum Q(x) Q(x') d_B(x, x'). These
        compositions give the slots unequal weights, so every zoom stage
        works on the whole mesh. (MMI reads below this average here: the
        headline ML = MMI check covers the uniform composition only.)"""
        q = np.array(q)
        d_b = -np.log(np.sqrt(ch.w[:, None, :] * ch.w[None, :, :]).sum(axis=-1))
        average = float(q @ d_b @ q)
        rp = RatePoint(0.0, Dist(q))
        for exponent in (trc_exponent, expurgated_exponent):
            assert exponent(rp, ML, ch, OPTS).value == pytest.approx(average, abs=1e-9)


class TestDiagnostics:
    @pytest.mark.parametrize("metric", [ML, MMI], ids=["ml", "mmi"])
    def test_every_count_is_nonnegative(self, metric):
        """At R = 0.01 on BSC(0.1) the warm polish solve is reported: it scans
        no global grid, and reports 0 grid points (not a sentinel)."""
        for exponent in (trc_exponent, expurgated_exponent):
            diag = exponent(RatePoint(0.01, UNIF), metric, BSC01, OPTS).diagnostics
            counts = {k: v for k, v in diag.items() if isinstance(v, int)}
            assert set(counts) == {"outer_feasible_grid_points", "outer_refine_evals",
                                   "inner_feasible_grid_points", "inner_refine_evals"}
            assert all(v >= 0 for v in counts.values()), counts
        assert diag["inner_feasible_grid_points"] == (0 if metric is ML else 3432)


def test_a_cold_gamma_solve_peaks_within_its_old_memory():
    """One cold Gamma solve (MMI, R = 0.01, BSC(0.1), the uniform product
    coupling) under tracemalloc, after the same solve on another channel
    object has compiled the structure's kernels. Before its zoom stages
    formed Q_Y and a(R, Q_Y) on tables of distinct columns, this peaked at
    4,385,954 bytes (4.18 MiB; 3.11 MiB since); the bound is that peak plus
    5 %. The tables are gated (search._by_columns): built where the
    columns do not repeat, they would be nearly as large as the mesh."""
    gamma(PROD, 0.01, MMI, Channel.bsc(0.1), UNIF, OPTS)
    ch = Channel.bsc(0.1)
    tracemalloc.start()
    try:
        gamma(PROD, 0.01, MMI, ch, UNIF, OPTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 4_385_954, peak


def _bsc_random_coding(p: float, rate: float) -> float:
    """E_r of BSC(p) at the uniform composition in closed form: E_0(1) - R
    up to R_crit, D(delta || p) with log 2 - h(delta) = R up to capacity,
    and 0 from there on."""
    def h(d):
        return -sum(v * math.log(v) for v in (d, 1.0 - d) if v > 0)

    r_crit = LOG2 - h(math.sqrt(p) / (math.sqrt(p) + math.sqrt(1.0 - p)))
    if rate <= r_crit:
        return LOG2 - 2.0 * math.log(math.sqrt(p) + math.sqrt(1.0 - p)) - rate
    if rate >= LOG2 - h(p):
        return 0.0
    lo, hi = p, 0.5  # log 2 - h falls on [p, 1/2]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if LOG2 - h(mid) > rate else (lo, mid)
    return lo * math.log(lo / p) + (1.0 - lo) * math.log((1.0 - lo) / (1.0 - p))


class TestRandomCoding:
    @pytest.mark.parametrize("p, rate", [
        (0.1, 0.0), (0.1, 0.05), (0.1, 0.15), (0.1, 0.2), (0.1, 0.3),
        (0.25, 0.01), (0.25, 0.05), (0.25, 0.1), (0.25, 0.15),
    ])
    def test_bsc_closed_form(self, p, rate):
        # R_crit = 0.1308 and C = 0.3681 on BSC(0.1); 0.0363 and 0.1308 on
        # BSC(0.25), so 0.15 lies above its capacity
        val = random_coding_exponent(RatePoint(rate, UNIF), Channel.bsc(p))
        assert val == pytest.approx(_bsc_random_coding(p, rate), abs=1e-9)
        assert math.copysign(1.0, val) == 1.0

    def test_zero_at_mutual_information(self):
        # choosing the true channel makes both terms vanish at R >= I(Q_X; W)
        rp = RatePoint(0.37, UNIF)
        assert random_coding_exponent(rp, BSC01) <= 1e-9

    def test_rate_zero_oracle(self):
        val = random_coding_exponent(RatePoint(0.0, UNIF), BSC01)
        assert val == pytest.approx(ER_ZERO_K128, abs=1e-6)

    def test_nonincreasing(self):
        vals = [random_coding_exponent(RatePoint(r, UNIF), BSC01)
                for r in (0.0, 0.1, 0.2, 0.3, 0.4)]
        assert all(b <= a + 1e-6 for a, b in zip(vals, vals[1:]))


class TestNonBinaryAlphabets:
    def test_binary_input_ternary_output(self):
        ch = Channel.from_rows([[0.8, 0.15, 0.05], [0.05, 0.15, 0.8]])
        coarse = OptimizerOptions(grid_step=0.25, refine_iters=8)
        qy = Dist(np.array([0.425, 0.15, 0.425]))
        assert math.isfinite(a_threshold(0.1, qy, ML, ch, UNIF, coarse))
        a_mmi = a_threshold(0.1, qy, MMI, ch, UNIF, coarse)
        assert 0.0 <= a_mmi <= 0.1 + 1e-6
        g = gamma(PROD, 0.1, MMI, ch, UNIF, coarse)
        assert g >= 0.0 and math.isfinite(g)

    def test_ternary_input_smoke(self):
        # exercises the generic polytope threshold, a product coupling that
        # is off the grid, and Gamma solves whose product mesh is over
        # search.BUDGET (every slot of the product coupling is charged: 5**9
        # candidates), which start from the soft-penalty ladder. Both values
        # are pinned bit for bit
        ch = Channel.from_rows([[0.85, 0.15], [0.5, 0.5], [0.15, 0.85]])
        comp = Dist(np.array([0.25, 0.5, 0.25]))
        coarse = OptimizerOptions(grid_step=0.25, refine_iters=6)
        res = trc_exponent(RatePoint(0.08, comp), MMI, ch, coarse)
        assert res.value.hex() == "0x1.ac33158e67cf8p-7"  # 0.0130676
        assert np.allclose(res.argmin_coupling.probs.sum(axis=0), comp.probs, atol=1e-9)
        assert np.allclose(res.argmin_coupling.probs.sum(axis=1), comp.probs, atol=1e-9)
        er = random_coding_exponent(RatePoint(0.08, comp), ch)
        assert er.hex() == "0x1.41ad5fac30bf4p-7"  # 0.0098168


class TestSweep:
    def test_empty(self):
        curve = sweep([], UNIF, MMI, BSC01, OPTS, "random")
        assert curve.records == []

    def test_single_matches_pointwise(self):
        curve = sweep([0.1], UNIF, MMI, BSC01, OPTS, "random")
        assert len(curve.records) == 1
        rec = curve.records[0]
        assert rec.ok
        assert rec.value == pytest.approx(
            random_coding_exponent(RatePoint(0.1, UNIF), BSC01), abs=1e-12)

    def test_unsorted_rates_keep_their_order(self):
        # each rate is solved on its own: an unsorted list returns the
        # sorted run's records, in the order given
        coarse = OptimizerOptions(grid_step=0.25, refine_iters=4)
        rates = [0.2, 0.0, 0.1]
        got = sweep(rates, UNIF, ML, Channel.bsc(0.1), coarse, "trc").records
        ordered = sweep(sorted(rates), UNIF, ML, Channel.bsc(0.1), coarse, "trc").records
        assert [r.rate for r in got] == rates
        assert got == sorted(ordered, key=lambda r: rates.index(r.rate))

    def test_failure_flagged_not_raised(self):
        # composition off the coupling grid: the trc solve fails per point
        comp = Dist(np.array([0.3, 0.7]))
        curve = sweep([0.1], comp, MMI, BSC01, OPTS, "trc")
        assert not curve.records[0].ok
        assert curve.records[0].error

    def test_monotone_random_curve(self):
        curve = sweep([0.0, 0.1, 0.2, 0.3], UNIF, MMI, BSC01, OPTS, "random")
        vals = [r.value for r in curve.records]
        assert all(b <= a + 1e-6 for a, b in zip(vals, vals[1:]))
        assert all(v >= 0 for v in vals)


class TestSharedContext:
    """One _MetricCtx per (channel object, composition, metric, options):
    each threshold lattice is solved once per command."""

    @staticmethod
    def _count_lattices(monkeypatch):
        solved = []
        solve = exponents._MetricCtx._solve_1d_batch

        def counted(self, qys, rate):
            solved.append((self.kind, rate))
            return solve(self, qys, rate)

        monkeypatch.setattr(exponents._MetricCtx, "_solve_1d_batch", counted)
        return solved

    def test_certify_solves_two_lattices(self, monkeypatch):
        # ML a(R, .) serves gamma, theta, trc and ml_upper_bound; MMI a(R, .)
        # serves gamma and trc
        solved = self._count_lattices(monkeypatch)
        certify_theorem1(RatePoint(0.01, UNIF), Channel.bsc(0.1), OPTS)
        assert sorted(solved) == [("ml", 0.01), ("mmi", 0.01)]

    def test_each_cli_command_starts_cold(self, monkeypatch, tmp_path):
        solved = self._count_lattices(monkeypatch)
        ch_file = tmp_path / "bsc.ch"
        ch_file.write_text("dmc 2 2\n0.9 0.1\n0.1 0.9\n")
        argv = ["certify", "theorem1", "--channel", str(ch_file), "--rate", "0.01",
                "--refine-iters", "4"]
        for n_commands in (1, 2):
            assert cli_run(argv, echo=lambda *a, **k: None) == 0
            assert len(solved) == 2 * n_commands

    def test_cache_freed_with_channel(self):
        ch = Channel.bsc(0.2)
        alive = weakref.ref(ch)
        before = set(exponents._CTX_CACHE)
        key = id(ch)
        gamma(PROD, 0.05, ML, ch, UNIF, OptimizerOptions(refine_iters=4))
        assert key in exponents._CTX_CACHE
        del ch
        gc.collect()
        assert alive() is None
        assert key not in exponents._CTX_CACHE
        assert set(exponents._CTX_CACHE) <= before

    @staticmethod
    def _count_solves(monkeypatch):
        """Keys of the Gamma, theta and (lambda, phi) solves that run."""
        from explab import duals
        ran = {"gamma": [], "theta": [], "tilted": []}

        def sig(mesh):
            return mesh.weights.tobytes(), mesh.x_of.tobytes(), mesh.xp_of.tobytes()

        def wrap(cls, name, record):
            orig = getattr(cls, name)

            def counted(self, *args, **kwargs):
                out = orig(self, *args, **kwargs)
                record(self, *args, **kwargs)
                return out

            monkeypatch.setattr(cls, name, counted)

        wrap(exponents._InnerSolve, "solve", lambda self, warm=None: ran["gamma"].append(
            (id(self.ctx), self.rate) + sig(self.mesh)
            + (None if warm is None else np.asarray(warm).tobytes(),)))
        wrap(duals._ThetaProblem, "solve", lambda self: ran["theta"].append(
            (self.rate,) + sig(self.mesh)))
        wrap(duals._TiltedProblem, "__init__", lambda self, q, ch, opts: ran["tilted"].append(
            sig(self.mesh)))
        return ran

    def test_cli_commands_repeat_the_same_solves(self, monkeypatch, tmp_path):
        # a memo that outlived its command would make the second run cheaper
        ran = self._count_solves(monkeypatch)
        ch_file = tmp_path / "bsc.ch"
        ch_file.write_text("dmc 2 2\n0.9 0.1\n0.1 0.9\n")
        argv = ["certify", "theorem1", "--channel", str(ch_file), "--rate", "0.01",
                "--refine-iters", "4"]
        counts = []
        for _ in range(2):
            for log in ran.values():
                log.clear()
            assert cli_run(argv, echo=lambda *a, **k: None) == 0
            counts.append({name: len(log) for name, log in ran.items()})
        assert counts[0] == counts[1]
        assert min(counts[0].values()) > 0

    def test_certify_runs_no_exact_repeat(self, monkeypatch):
        ran = self._count_solves(monkeypatch)
        certify_theorem1(RatePoint(0.01, UNIF), Channel.bsc(0.1), OPTS)
        for name, log in ran.items():
            assert len(log) == len(set(log)), name
        assert len(ran["gamma"]) > 0

    def test_memoized_gamma_equals_fresh_solve(self):
        ch = Channel.bsc(0.15)
        opts = OptimizerOptions(refine_iters=4)
        q = np.array([[0.3, 0.2], [0.2, 0.3]])
        ctx = exponents._metric_ctx(ch, UNIF, MMI, opts)
        for warm in (None, np.array([[0.8, 0.2], [0.7, 0.3], [0.25, 0.75], [0.1, 0.9]])):
            first = exponents._inner_solve(ch, ctx, q, 0.05, warm)
            assert exponents._inner_solve(ch, ctx, q.copy(), 0.05,
                                          None if warm is None else warm.copy()) is first
            fresh = exponents._InnerSolve(ctx, q, 0.05).solve(warm)
            assert fresh is not first
            assert fresh.keys() == first.keys()
            for key, val in first.items():
                if isinstance(val, np.ndarray):
                    assert val.tobytes() == fresh[key].tobytes(), key
                else:
                    assert val == fresh[key], key

    def test_memos_freed_with_channel(self):
        from explab.duals import lambda_bound, phi_bound, theta
        ch = Channel.bsc(0.2)
        opts = OptimizerOptions(refine_iters=4)
        alive = weakref.ref(ch)
        key = id(ch)
        gamma(PROD, 0.05, ML, ch, UNIF, opts)
        theta(PROD, 0.05, ch, UNIF, opts)
        lambda_bound(PROD, ch, opts)
        phi_bound(PROD, 0.05, ch, opts)
        entries = exponents._CTX_CACHE[key]
        memos = [k[1] for k in entries if k[0] == "memo"]
        assert sorted(memos) == ["gamma", "theta", "tilted", "tilted problem"]
        assert all(entries[k] for k in entries)  # each holds its solve
        del ch, entries
        gc.collect()
        assert alive() is None
        assert key not in exponents._CTX_CACHE

    def test_one_context_under_contention(self):
        ch = Channel.bsc(0.3)
        qys = np.array([[0.3, 0.7], [0.5, 0.5], [0.9, 0.1]])

        def lookup(i):
            memo = exponents._channel_memo(ch, "probe")
            memo.setdefault(i % 4, []).append(i)
            ctx = exponents._metric_ctx(ch, UNIF, ML, OPTS)
            return ctx, ctx.threshold_batch(qys, 0.05)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lookup, range(32), timeout=120))
        finally:
            sys.setswitchinterval(old)
        assert len(got) == 32
        assert all(ctx is got[0][0] for ctx, _ in got)
        assert all(np.array_equal(vals, got[0][1]) for _, vals in got)
        # one memo dict for every thread: no insert went to a lost copy
        memo = exponents._channel_memo(ch, "probe")
        assert sorted(i for vals in memo.values() for i in vals) == list(range(32))

    def test_threads_share_context_safely(self, tmp_path):
        ch_file = tmp_path / "bsc.ch"
        ch_file.write_text("dmc 2 2\n0.9 0.1\n0.1 0.9\n")
        results = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}.json"
            assert cli_run(["exponent", "trc", "--channel", str(ch_file),
                            "--rates", "0,0.01,0.02", "--threads", threads,
                            "--out", str(out)], echo=lambda *a, **k: None) == 0
            results.append(json.loads(out.read_text())["results"])
        assert results[0] == results[1]


class TestDistinctColumnWork:
    """The work of Gamma's cold zoom stages (RowMesh.margin) at R = 0 on
    BSC(0.1). At the uniform product coupling each 17**4 stage forms Q_Y
    and reads a(R, Q_Y) on a table of 33 x 17 x 17 = 9,537 entries (the
    first X group's distinct cell columns by the other two slots' rows),
    never on the mesh, and scores g(Q_XY) and g(Q_X'Y) on the 33 x 33 pairs
    of distinct cell columns, under both metrics. At Q = (3/8, 5/8) every
    stage forms Q_Y and reads a(R, Q_Y) on the whole mesh: the slot weights
    differ, and the first X group's columns repeat too little for a
    table."""

    @staticmethod
    def _stages(monkeypatch, q, metric):
        """Per 17**4 stage of gamma's solve at the product coupling of q:
        the shapes of the Q_Y buffers it asked for, of the Q_Y rows its
        threshold read, and of its scores."""
        stages = []
        margin, score, buffer = RowMesh.margin, RowMesh._score, RowMesh.buffer

        def staged(self, kind, threshold, cols):
            stage = {"gs": self.gs, "qy": [], "read": [], "scores": []}
            stages.append(stage)

            def read(qy, **scratch):
                stage["read"].append(qy.shape)
                return threshold(qy, **scratch)

            return margin(self, kind, read, cols)

        def scored(self, kind, cells, out):
            if stages:  # the global mesh's build comes first
                stages[-1]["scores"].append(out.shape)
            return score(self, kind, cells, out)

        def buffered(self, name, shape=None, dtype=float):
            if name == "qy" and stages:
                stages[-1]["qy"].append(shape)
            return buffer(self, name, shape, dtype)

        q = np.array(q)
        with monkeypatch.context() as patch:
            patch.setattr(RowMesh, "margin", staged)
            patch.setattr(RowMesh, "_score", scored)
            patch.setattr(RowMesh, "buffer", buffered)
            # a channel of its own: no solve of an earlier test is reused
            gamma(Joint2(np.outer(q, q)), 0.0, metric, Channel.bsc(0.1), Dist(q), OPTS)
        zoom = [st for st in stages if st["gs"] == (17,) * 4]
        assert len(zoom) >= 12
        return zoom

    @staticmethod
    def _assert_on_tables(zoom):
        for st in zoom:
            assert st["qy"] == [(1, 33, 1, 17, 17)], st
            assert st["read"] == [(9_537, 1)], st
            assert st["scores"] == [(33, 33)] * 2, st

    def test_product_coupling_scores_33_by_33_pairs(self, monkeypatch):
        self._assert_on_tables(self._stages(monkeypatch, [0.5, 0.5], MMI))

    def test_ml_scores_33_by_33_pairs(self, monkeypatch):
        self._assert_on_tables(self._stages(monkeypatch, [0.5, 0.5], ML))

    def test_unequal_weights_score_the_full_mesh(self, monkeypatch):
        # 9 a + 15 b repeats where a and b step 5 and 3 grid points apart:
        # MMI scores the 121 x 121 distinct pairs, as build does
        for metric, want in ((ML, [(17,) * 4] * 2), (MMI, [(121, 121)] * 2)):
            for st in self._stages(monkeypatch, [3 / 8, 5 / 8], metric):
                assert st["qy"] == [(1,) + (17,) * 4], st
                assert st["read"] == [(17**4, 1)], st
                assert st["scores"] == want, st
