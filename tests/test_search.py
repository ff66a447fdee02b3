import math

import numpy as np
import pytest

from explab.prob import Channel
from explab.search import (
    RowMesh,
    TransportPolytope,
    elog_batch,
    entropy_batch,
    golden_max,
    mi_batch,
    pattern_min,
    row_grid,
    sup_ray,
    xlogx,
    zoom_slot_grids,
)


def test_golden_max_parabola():
    x, v = golden_max(lambda t: -(t - 1.3) ** 2 + 2.0, 0.0, 4.0)
    assert x == pytest.approx(1.3, abs=1e-6)
    assert v == pytest.approx(2.0, abs=1e-12)


def test_pattern_min_quadratic():
    f = lambda z: float((z[0] - 0.3) ** 2 + (z[1] + 0.7) ** 2)
    x, fx, evals = pattern_min(np.zeros(2), f, step=0.5, iters=40, shrink=0.5)
    assert fx < 1e-10
    assert np.allclose(x, [0.3, -0.7], atol=1e-5)
    assert evals > 0


def test_pattern_min_respects_infeasible():
    f = lambda z: float(z[0] ** 2) if z[0] >= 1.0 else math.inf
    x, fx, _ = pattern_min(np.array([2.0]), f, step=0.5, iters=30, shrink=0.5)
    assert fx == pytest.approx(1.0, abs=1e-6)


def test_sup_ray_boundary_doubling():
    res = sup_ray(lambda t: -((t - 20.0) ** 2), hi=8.0, doublings=3)
    assert res.arg == pytest.approx(20.0, rel=1e-3)
    assert res.domain_hi >= 20.0


def test_sup_ray_interior():
    res = sup_ray(lambda t: t * math.exp(-t), hi=8.0)
    assert res.arg == pytest.approx(1.0, abs=1e-3)
    assert not res.hit_boundary


def test_mi_batch_matches_scalar():
    rng = np.random.default_rng(0)
    j = rng.random((5, 3, 2))
    j /= j.sum(axis=(1, 2), keepdims=True)
    vals = mi_batch(j)
    for i in range(5):
        m = j[i]
        row, col = m.sum(axis=1), m.sum(axis=0)
        want = sum(m[a, b] * math.log(m[a, b] / (row[a] * col[b]))
                   for a in range(3) for b in range(2) if m[a, b] > 0)
        assert vals[i] == pytest.approx(want, abs=1e-12)


def test_elog_batch_zero_support():
    logw = np.array([[0.0, -np.inf], [-1.0, -2.0]])
    j = np.array([[[0.5, 0.0], [0.25, 0.25]],
                  [[0.25, 0.25], [0.25, 0.25]]])
    out = elog_batch(j, logw)
    assert out[0] == pytest.approx(0.5 * 0 + 0.25 * -1 + 0.25 * -2)
    assert out[1] == -math.inf


class TestTransportPolytope:
    def test_marginals_preserved(self):
        p = np.array([0.3, 0.7])
        q = np.array([0.6, 0.4])
        poly = TransportPolytope(p, q)
        c = np.array([[0.05], [-0.1], [0.0]])
        joints = poly.joints(c)
        assert np.allclose(joints.sum(axis=2), p)
        assert np.allclose(joints.sum(axis=1), q)

    def test_param_roundtrip(self):
        poly = TransportPolytope(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        j = np.array([[0.4, 0.1], [0.1, 0.4]])
        assert np.allclose(poly.joints(poly.param_of(j)), j)

    def test_feasible(self):
        poly = TransportPolytope(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert poly.feasible(poly.joints(np.array([0.2]))[None])[0]
        assert not poly.feasible(poly.joints(np.array([0.9]))[None])[0]

    def test_grid_respects_budget(self):
        poly = TransportPolytope(np.full(3, 1 / 3), np.full(3, 1 / 3))
        mesh = poly.grid(17, budget=10_000)
        assert mesh.shape[1] == poly.dim == 4
        assert mesh.shape[0] <= 10_000


def _summed_joint_reference(mesh, rows):
    """kl, qy and the ML and MMI scores of one candidate, computed on the
    explicitly summed joints Q_XY and Q_X'Y (slot by slot, in slot order)."""
    qxy = np.zeros((mesh.nx, mesh.ny))
    qxpy = np.zeros((mesh.nx, mesh.ny))
    qy = np.zeros(mesh.ny)
    kl = 0.0
    for r in range(mesh.s):
        w, row, lw = mesh.weights[r], rows[r], mesh.logw[mesh.x_of[r]]
        qxy[mesh.x_of[r]] += w * row
        qxpy[mesh.xp_of[r]] += w * row
        qy += w * row
        if np.any((row > 0) & np.isneginf(lw)):
            kl = math.inf
        else:
            kl += w * sum(p * (math.log(p) - l) for p, l in zip(row, lw) if p > 0)
    ref = {"kl": kl, "qy": qy}
    for kind, g in (("ml", lambda j: elog_batch(j[None], mesh.logw)[0]),
                    ("mmi", lambda j: mi_batch(j[None])[0])):
        ref[kind] = (float(g(qxy)), float(g(qxpy)))
    return ref


def _same(got, want) -> bool:
    """Equal infinities, or finite values within 1e-12."""
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= 1e-12


MESH_CASES = {
    # name: (channel rows, coupling, per-slot grid steps)
    "bsc": ([[0.9, 0.1], [0.1, 0.9]], [[0.4, 0.1], [0.1, 0.4]], (4, 4, 4, 4)),
    # zero cells of W: -inf ML scores and +inf kl
    "z": ([[1.0, 0.0], [0.2, 0.8]], [[0.25, 0.25], [0.25, 0.25]], (4, 4, 4, 4)),
    "2x3": ([[0.8, 0.15, 0.05], [0.05, 0.15, 0.8]], [[0.3, 0.2], [0.2, 0.3]], (2, 2, 2, 2)),
    # one zero cell: 3 slots, x groups {0, 1} {2}, x' groups {0, 2} {1}
    "zero-cell": ([[1.0, 0.0], [0.2, 0.8]], [[0.2, 0.3], [0.5, 0.0]], (8, 4, 2)),
    # 8 cells per joint: numpy sums them pairwise, not left to right
    "2x4": ([[0.7, 0.1, 0.1, 0.1], [0.0, 0.2, 0.3, 0.5]], [[0.5, 0.0], [0.2, 0.3]], (2, 2, 2)),
}


class TestRowMesh:
    def mesh(self):
        logw = np.log(np.array([[0.9, 0.1], [0.1, 0.9]]))
        grid = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        return RowMesh(np.array([0.5, 0.5]), np.array([0, 1]), np.array([1, 0]),
                       grid, 2, logw)

    def test_build_matches_stats(self):
        """build(kind) and stats_of(rows, kind) agree with mi_batch and
        elog_batch on the summed joints, candidate by candidate: kl to
        1e-12, Q_Y and the scores bit for bit (the searches break ties on
        exact score margins, so their paths depend on the last bit)."""
        for name, (w, coupling, steps) in MESH_CASES.items():
            ch = Channel.from_rows(w)
            q = np.array(coupling)
            xs, xps = np.nonzero(q > 0)
            grids = [row_grid(ch.n_out, k, 10_000) for k in steps]
            mesh = RowMesh(q[xs, xps], xs, xps, grids, ch.n_in, ch.log_matrix)
            assert len(set(mesh.gs)) == len(set(steps))
            for kind in ("ml", "mmi"):
                arrs = mesh.build(kind)
                assert arrs["qy"].shape == (mesh.size(), ch.n_out)
                for flat in range(mesh.size()):
                    rows = mesh.rows_of(flat)
                    ref = _summed_joint_reference(mesh, rows)
                    st = mesh.stats_of(rows, kind)
                    for got in (
                        {k: arrs[k][flat] for k in ("kl", "qy", "gx", "gxp")}, st):
                        where = f"{name}/{kind} candidate {flat}: {got} vs {ref}"
                        assert np.array_equal(got["qy"], ref["qy"]), where
                        assert _same(float(got["kl"]), ref["kl"]), where
                        assert float(got["gx"]) == ref[kind][0], where
                        assert float(got["gxp"]) == ref[kind][1], where
                # off-grid candidates too: their logs exercise the last bit
                rng = np.random.default_rng(7)
                for rows in rng.dirichlet(np.ones(ch.n_out), size=(500, mesh.s)):
                    if name in ("z", "zero-cell"):
                        rows[rng.random(mesh.s) < 0.5, -1] = 0.0
                        rows /= rows.sum(axis=1, keepdims=True)
                    ref = _summed_joint_reference(mesh, rows)
                    st = mesh.stats_of(rows, kind)
                    where = f"{name}/{kind} rows {rows.tolist()}: {st} vs {ref}"
                    assert np.array_equal(st["qy"], ref["qy"]), where
                    assert _same(st["kl"], ref["kl"]), where
                    assert (st["gx"], st["gxp"]) == ref[kind], where
            if name in ("z", "zero-cell"):
                ml = mesh.build("ml")
                assert np.isposinf(ml["kl"]).any() and np.isneginf(ml["gx"]).any()

    def test_params_roundtrip(self):
        mesh = self.mesh()
        rows = np.array([[0.25, 0.75], [0.6, 0.4]])
        assert np.allclose(mesh.params_to_rows(mesh.rows_to_params(rows)), rows)
        assert mesh.params_to_rows(np.array([1.4, 0.2])) is None


def test_zoom_grids_contain_center():
    centers = np.array([[0.3, 0.7], [0.05, 0.95]])
    grids = zoom_slot_grids(centers, h=0.1, budget=10_000)
    for r, g in enumerate(grids):
        assert np.any(np.all(np.isclose(g, centers[r], atol=1e-12), axis=1))
        assert np.allclose(g.sum(axis=1), 1.0)
        assert np.all(g >= -1e-12)


def test_xlogx_and_entropy_batch():
    v = np.array([0.0, 0.5, 1.0])
    assert np.allclose(xlogx(v), [0.0, 0.5 * math.log(0.5), 0.0])
    assert entropy_batch(np.array([[0.5, 0.5]]))[0] == pytest.approx(math.log(2))


class TestStatsMemo:
    """stats_of memoizes per mesh on (kind, the exact bytes of rows)."""

    CASES = {
        "bsc": ([[0.9, 0.1], [0.1, 0.9]], [[0.25, 0.25], [0.25, 0.25]]),
        "z": ([[1.0, 0.0], [0.2, 0.8]], [[0.4, 0.1], [0.1, 0.4]]),
        "2x3": ([[0.8, 0.15, 0.05], [0.05, 0.15, 0.8]], [[0.5, 0.0], [0.2, 0.3]]),
    }

    @staticmethod
    def _mesh(w, coupling):
        ch = Channel.from_rows(w)
        q = np.array(coupling)
        xs, xps = np.nonzero(q > 0)
        return RowMesh(q[xs, xps], xs, xps, row_grid(ch.n_out, 4, 10_000),
                       ch.n_in, ch.log_matrix)

    @staticmethod
    def _counted(mesh):
        calls = []
        compute = mesh.compute_stats
        mesh.compute_stats = lambda rows, kind: calls.append(kind) or compute(rows, kind)
        return calls

    def test_hit_bit_identical_to_fresh_mesh(self):
        rng = np.random.default_rng(3)
        for name, (w, coupling) in self.CASES.items():
            for kind in ("ml", "mmi"):
                mesh = self._mesh(w, coupling)
                calls = self._counted(mesh)
                for rows in [mesh.rows_of(7)] + list(
                        rng.dirichlet(np.ones(mesh.ny), size=(20, mesh.s))):
                    first = mesh.stats_of(rows, kind)
                    hit = mesh.stats_of(rows.copy(), kind)
                    fresh = self._mesh(w, coupling).stats_of(rows, kind)
                    assert hit is first
                    assert hit == fresh, (name, kind, rows.tolist())
                assert len(calls) == 21

    def test_other_kind_and_one_ulp_miss(self):
        w, coupling = self.CASES["bsc"]
        mesh = self._mesh(w, coupling)
        calls = self._counted(mesh)
        rows = np.array([[0.3, 0.7], [0.6, 0.4], [0.2, 0.8], [0.9, 0.1]])
        ml = mesh.stats_of(rows, "ml")
        mmi = mesh.stats_of(rows, "mmi")
        assert calls == ["ml", "mmi"]
        assert mmi["gx"] == self._mesh(w, coupling).stats_of(rows, "mmi")["gx"] != ml["gx"]
        bumped = rows.copy()
        bumped[0, 0] = np.nextafter(bumped[0, 0], 1.0)
        st = mesh.stats_of(bumped, "ml")
        assert calls == ["ml", "mmi", "ml"]
        assert st == self._mesh(w, coupling).stats_of(bumped, "ml")


class TestFloatKernel:
    """stats_of's float kernel returns build's values, bit for bit, for
    every candidate."""

    CASES = {
        # name: (channel rows, coupling, grid step)
        "bsc": ([[0.9, 0.1], [0.1, 0.9]], [[0.4, 0.1], [0.1, 0.4]], 4),
        # dead cells of W: -inf ML scores and +inf kl on the grid
        "z": ([[1.0, 0.0], [0.2, 0.8]], [[0.3, 0.2], [0.2, 0.3]], 4),
        "2x3": ([[0.8, 0.15, 0.05], [0.05, 0.15, 0.8]], [[0.3, 0.2], [0.2, 0.3]], 3),
        # zero coupling cells: x_of and xp_of group the slots unevenly
        "3x2": ([[0.9, 0.1], [0.5, 0.5], [0.0, 1.0]],
                [[0.2, 0.1, 0.0], [0.0, 0.2, 0.2], [0.1, 0.0, 0.2]], 2),
    }

    def test_stats_equal_build_per_candidate(self):
        for name, (w, coupling, k) in self.CASES.items():
            ch = Channel.from_rows(w)
            q = np.array(coupling)
            xs, xps = np.nonzero(q > 0)
            mesh = RowMesh(q[xs, xps], xs, xps, row_grid(ch.n_out, k, 10_000),
                           ch.n_in, ch.log_matrix)
            assert not np.array_equal(mesh.x_of, mesh.xp_of)
            assert (mesh.slot_grids[0] == 0.0).any()  # rows with zero entries
            for kind in ("ml", "mmi"):
                arrs = mesh.build(kind)
                for i in range(mesh.size()):
                    st = mesh.stats_of(mesh.rows_of(i), kind)
                    where = f"{name}/{kind} candidate {i}"
                    assert st["qy"] == arrs["qy"][i].tolist(), where
                    assert st["gx"] == arrs["gx"][i], where
                    assert st["gxp"] == arrs["gxp"][i], where
                    assert st["kl"] == arrs["kl"][i], where
                if name == "z" and kind == "ml":
                    assert np.isneginf(arrs["gx"]).any() and np.isposinf(arrs["kl"]).any()
