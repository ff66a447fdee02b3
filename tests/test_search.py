import math

import numpy as np
import pytest

from explab.prob import Channel, simplex_grid_array
from explab.search import (
    BUDGET,
    RowMesh,
    TransportPolytope,
    elog_batch,
    entropy_batch,
    global_mesh,
    golden_max,
    mi_batch,
    pattern_min,
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
    x, fx, evals = pattern_min(np.zeros(2), f, step=0.5, iters=40)
    assert fx < 1e-10
    assert np.allclose(x, [0.3, -0.7], atol=1e-5)
    assert evals > 0


def test_pattern_min_respects_infeasible():
    f = lambda z: float(z[0] ** 2) if z[0] >= 1.0 else math.inf
    x, fx, _ = pattern_min(np.array([2.0]), f, step=0.5, iters=30)
    assert fx == pytest.approx(1.0, abs=1e-6)


def test_sup_ray_boundary_doubling():
    res = sup_ray(lambda t: -((t - 20.0) ** 2))
    assert res.arg == pytest.approx(20.0, rel=1e-3)
    assert res.domain_hi >= 20.0


def test_sup_ray_interior():
    res = sup_ray(lambda t: t * math.exp(-t))
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
    # 9 outputs: the row sums of Q_XY are pairwise too, with a remainder
    "2x9": ([[0.3, 0.2, 0.1, 0.1, 0.1, 0.05, 0.05, 0.1, 0.0],
             [0.05, 0.05, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2, 0.2]],
            [[0.0, 0.4], [0.6, 0.0]], (1, 1)),
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
            grids = [simplex_grid_array(ch.n_out, k, 10_000) for k in steps]
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
                    if name in ("z", "zero-cell", "2x9"):
                        rows[rng.random(mesh.s) < 0.5, -1] = 0.0
                        rows /= rows.sum(axis=1, keepdims=True)
                    ref = _summed_joint_reference(mesh, rows)
                    st = mesh.stats_of(rows, kind)
                    where = f"{name}/{kind} rows {rows.tolist()}: {st} vs {ref}"
                    assert np.array_equal(st["qy"], ref["qy"]), where
                    assert _same(st["kl"], ref["kl"]), where
                    assert (st["gx"], st["gxp"]) == ref[kind], where
            if name in ("z", "zero-cell", "2x9"):
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


@pytest.mark.parametrize("w, k", [
    ([[0.9, 0.1], [0.1, 0.9]], 8),
    ([[0.8, 0.15, 0.05], [0.05, 0.15, 0.8]], 5),
    ([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]], 1),
], ids=["2x2", "2x3", "3x3"])
def test_global_mesh_fits_the_budget(w, k):
    # every slot of the product coupling is charged: 4 slots, 4 and 9. At
    # the 1/8 step the 3x3 mesh would hold 45**9 candidates; it is not built
    nx, ny = len(w), len(w[0])
    q = np.full((nx, nx), 1.0 / nx**2)
    xs, xps = np.nonzero(q > 0)
    mesh, got = global_mesh(q[xs, xps], xs, xps, nx, np.log(np.array(w)), 8)
    assert got == k
    assert mesh.s == nx * nx
    assert mesh.size() * nx * ny <= BUDGET
    assert mesh.gs[0] == simplex_grid_array(ny, k).shape[0]


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
        return RowMesh(q[xs, xps], xs, xps, simplex_grid_array(ch.n_out, 4, 10_000),
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
        # 9 outputs and a dead cell: row sums of 9 cells and joints of 18
        # are summed pairwise, with a remainder
        "2x9": ([[0.3, 0.2, 0.1, 0.1, 0.1, 0.05, 0.05, 0.1, 0.0],
                 [0.05, 0.05, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2, 0.2]],
                [[0.0, 0.5], [0.5, 0.0]], 2),
    }

    @staticmethod
    def _mesh(w, coupling, k):
        ch = Channel.from_rows(w)
        q = np.array(coupling)
        xs, xps = np.nonzero(q > 0)
        return RowMesh(q[xs, xps], xs, xps, simplex_grid_array(ch.n_out, k, 10_000),
                       ch.n_in, ch.log_matrix)

    def test_stats_equal_build_per_candidate(self):
        for name, case in self.CASES.items():
            mesh = self._mesh(*case)
            assert not np.array_equal(mesh.x_of, mesh.xp_of)
            assert (mesh.slot_grids[0] == 0.0).any()  # rows with zero entries
            for kind in ("ml", "mmi"):
                arrs = mesh.build(kind)
                for i in range(mesh.size()):
                    rows = mesh.rows_of(i)
                    # -0.0 entries, as params_to_rows makes them, count as zeros
                    negzero = np.where(rows == 0.0, -0.0, rows)
                    for st in (mesh.stats_of(rows, kind), mesh.stats_of(negzero, kind)):
                        where = f"{name}/{kind} candidate {i}"
                        assert st["qy"] == arrs["qy"][i].tolist(), where
                        assert st["gx"] == arrs["gx"][i], where
                        assert st["gxp"] == arrs["gxp"][i], where
                        assert st["kl"] == arrs["kl"][i], where
                if name in ("z", "2x9") and kind == "ml":
                    assert np.isneginf(arrs["gx"]).any() and np.isposinf(arrs["kl"]).any()

    def test_params_to_rows_makes_negative_zeros(self):
        mesh = self._mesh(*self.CASES["bsc"])
        rows = mesh.params_to_rows(np.array([-0.0, 0.5, 1.0, 0.25]))
        assert rows[0, 0] == 0.0 and math.copysign(1.0, rows[0, 0]) < 0
        assert math.copysign(1.0, rows[2, 1]) > 0  # 1.0 - 1.0

    def test_kernel_source_has_no_float_and_compiles_once(self, monkeypatch):
        """The kernel is generated from the mesh structure alone: weights and
        log W come in as arguments, and two meshes of one structure share
        one compiled kernel per kind."""
        import ast

        from explab import search

        w, coupling, k = self.CASES["2x9"]
        mesh = self._mesh(w, coupling, k)
        structure = (mesh.nx, mesh.ny, tuple(mesh.x_of.tolist()),
                     tuple(mesh.xp_of.tolist()), tuple(map(tuple, mesh._dead_l)))
        for kind in ("ml", "mmi"):
            tree = ast.parse(search._kernel_source(kind, *structure))
            floats = [node.value for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))]
            assert floats == [], kind

        made = []
        source = search._kernel_source
        monkeypatch.setattr(search, "_kernel_source", lambda *a: made.append(a[0]) or source(*a))
        search._stats_kernel.cache_clear()
        # same structure (slots, dead cell), other weights and channel values
        w2 = [[0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2, 0.2, 0.0],
              [0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]]
        other = self._mesh(w2, [[0.0, 0.3], [0.7, 0.0]], 2)
        rng = np.random.default_rng(5)
        for kind in ("ml", "mmi"):
            for m in (mesh, other, mesh):
                for rows in rng.dirichlet(np.ones(m.ny), size=(3, m.s)):
                    m.stats_of(rows, kind)
            assert mesh._kernels[kind] is other._kernels[kind]
        assert made == ["ml", "mmi"]
        assert mesh.stats_of(mesh.rows_of(3), "ml") != other.stats_of(mesh.rows_of(3), "ml")

    def test_threads_racing_for_a_kernel_agree(self):
        """Threads that find a structure's kernel missing may compile it
        twice; every probe still returns the single-thread stats."""
        import sys
        import threading

        from explab import search

        cases = [self.CASES[name] for name in ("z", "2x3", "3x2")]
        probes = [(i, kind, rows) for i, case in enumerate(cases)
                  for kind in ("ml", "mmi") for rows in (1, 4, 6)]
        want = [self._mesh(*cases[i]).stats_of(self._mesh(*cases[i]).rows_of(j), kind)
                for i, kind, j in probes]
        errors = []

        def worker():
            try:
                meshes = [self._mesh(*case) for case in cases]
                got = [meshes[i].stats_of(meshes[i].rows_of(j), kind) for i, kind, j in probes]
                if got != want:
                    errors.append(got)
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                search._stats_kernel.cache_clear()
                threads = [threading.Thread(target=worker) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
