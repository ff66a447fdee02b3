import dataclasses
import functools
import math
import threading
import tracemalloc

import numpy as np
import pytest

from explab import exponents, search
from explab.prob import Channel, Dist, entropy, simplex_grid_array, xlogx
from explab.search import (
    BUDGET,
    RAY_HI,
    RayResult,
    RowMesh,
    TransportPolytope,
    elog_batch,
    global_mesh,
    golden_max,
    mi_batch,
    pattern_min,
    ray_grid,
    sup_ray,
    zoom_slot_grids,
)


BSC01 = Channel.from_rows([[0.9, 0.1], [0.1, 0.9]])


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
    assert not res.hit_boundary


def test_sup_ray_interior():
    res = sup_ray(lambda t: t * math.exp(-t))
    assert res.arg == pytest.approx(1.0, abs=1e-3)
    assert not res.hit_boundary


def _sup_ray_reference(f):
    """sup_ray with its own grid-and-doubling loop, as it was before
    ray_grid, and psi's final max with f(0): the reference for
    test_sup_ray_equals_its_old_loop."""
    top = RAY_HI
    for _ in range(4):
        xs = [0.0] + list(np.geomspace(1e-3, top, 25))
        vals = [f(x) for x in xs]
        best = int(np.argmax(vals))
        if best < len(xs) - 1:
            break
        top *= 2.0
    hit = best == len(xs) - 1
    lo_n = xs[best - 1] if best > 0 else xs[0]
    hi_n = xs[best + 1] if best < len(xs) - 1 else xs[-1]
    if hi_n > lo_n:
        xg, vg = golden_max(f, lo_n, hi_n, tol=1e-9 * max(1.0, hi_n))
        if vg > vals[best]:
            return RayResult(float(xg), float(max(vg, f(0.0))), hit)
    return RayResult(float(xs[best]), float(max(vals[best], f(0.0))), hit)


# concave functions of the ray, by where their maximum lies
RAY_PEAKS = {
    "at 0": lambda t: -t - t * t,
    "interior": lambda t: t * math.exp(-t),
    "past 8": lambda t: -((t - 12.0) ** 2),
    "past 16": lambda t: -abs(t - 20.0),
    "past 64": lambda t: math.log1p(t),  # increasing: a boundary hit
}


@pytest.mark.parametrize("name", list(RAY_PEAKS))
def test_sup_ray_equals_its_old_loop(name):
    f = RAY_PEAKS[name]
    got, want = sup_ray(f), _sup_ray_reference(f)
    assert got == want
    assert [type(v) for v in dataclasses.astuple(got)] == [type(v) for v in dataclasses.astuple(want)]
    assert got.hit_boundary == (name == "past 64")


def test_ray_grid_doubles_while_the_maximum_is_last():
    for peak in (0.0, 0.5, 12.0, 20.0, 40.0, 100.0):
        grids = []

        def values(grid):
            grids.append(grid)
            return [-abs(x - peak) for x in grid]

        xs, best = ray_grid(values, 13)
        assert 1 <= len(grids) <= 4 and xs is grids[-1]
        assert [g[-1] for g in grids] == [RAY_HI * 2**i for i in range(len(grids))]
        assert len(xs) == 14 and xs[:2] == [0.0, 1e-3]
        for g in grids[:-1]:
            assert int(np.argmax([-abs(x - peak) for x in g])) == 13
        assert best == int(np.argmax(values(xs))) and (best == 13) == (peak > 64.0)
        assert (best == 0) == (peak == 0.0)


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


def _zoom_slot_grids_reference(centers, h, budget, points_cap=33):
    """zoom_slot_grids one slot and one free axis at a time: an np.linspace
    per axis and an np.meshgrid per slot."""
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


def test_zoom_grids_equal_per_slot_reference():
    """One linspace for every axis of every slot, and no meshgrid for two
    outputs, give the per-slot grids byte for byte: interior centers, centers
    on the simplex boundary (vertices, zero entries), h from 1/1024 to 0.3."""
    rng = np.random.default_rng(41)
    checked = 0
    for ny in (2, 3, 4):
        for s in (1, 2, 4):
            vertices = np.zeros((s, ny))
            vertices[np.arange(s), rng.integers(0, ny, s)] = 1.0
            first_zero = rng.dirichlet(np.ones(ny), size=s)
            first_zero[:, 0] = 0.0
            last_zero = rng.dirichlet(np.ones(ny), size=s)
            last_zero[:, -1] = 0.0
            for centers in (rng.dirichlet(np.ones(ny), size=s), vertices,
                            first_zero / first_zero.sum(axis=1, keepdims=True),
                            last_zero / last_zero.sum(axis=1, keepdims=True)):
                for h in (1 / 1024, 1 / 300, 1 / 64, 0.05, 1 / 8, 0.3):
                    for cap in (9, 33):
                        for budget in (10_000, BUDGET // 16):
                            got = zoom_slot_grids(centers, h, budget, points_cap=cap)
                            want = _zoom_slot_grids_reference(centers, h, budget, points_cap=cap)
                            assert len(got) == len(want) == s
                            for g, w in zip(got, want):
                                assert g.dtype == w.dtype and g.shape == w.shape
                                assert g.tobytes() == w.tobytes(), (ny, s, h, cap, centers.tolist())
                            checked += 1
    assert checked == 3 * 3 * 4 * 6 * 2 * 2


def test_regrid_builds_as_a_fresh_mesh():
    """A zoom stage's mesh shares its parent's structure and kernels; it
    builds, indexes and scores exactly as a RowMesh made from scratch on the
    same grids."""
    for name, (w, coupling, steps) in MESH_CASES.items():
        ch = Channel.from_rows(w)
        q = np.array(coupling)
        xs, xps = np.nonzero(q > 0)
        parent = RowMesh(q[xs, xps], xs, xps, simplex_grid_array(ch.n_out, 2, 10_000),
                         ch.n_in, ch.log_matrix)
        center = parent.rows_of(parent.size() // 2)
        if ch.n_out <= 4:
            grids = zoom_slot_grids(center, 0.1, 2_000, points_cap=9)
        else:  # a zoom mesh of 9 outputs would hold millions of candidates
            grids = [simplex_grid_array(ch.n_out, k, 10_000) for k in steps]
        for kind in ("ml", "mmi"):
            parent.stats_of(center, kind)  # the parent's kernel exists first
            local = parent.regrid(grids)
            fresh = RowMesh(q[xs, xps], xs, xps, grids, ch.n_in, ch.log_matrix)
            assert local.gs == fresh.gs and local.size() == fresh.size()
            got, want = local.build(kind), fresh.build(kind)
            assert got.keys() == want.keys()
            for key in want:
                assert got[key].dtype == want[key].dtype, (name, kind, key)
                assert got[key].tobytes() == want[key].tobytes(), (name, kind, key)
            for i in (0, fresh.size() // 3, fresh.size() - 1):
                rows = fresh.rows_of(i)
                assert local.rows_of(i).tobytes() == rows.tobytes()
                assert local.stats_of(rows, kind) == fresh.stats_of(rows, kind)
            assert local._kernels is parent._kernels
            assert parent.gs == (simplex_grid_array(ch.n_out, 2, 10_000).shape[0],) * parent.s


def test_a_build_of_fewer_qy_columns_equals_the_full_build():
    """build(kind, qy_cols) makes the first qy_cols columns of Q_Y only; they,
    kl, gx and gxp are the full build's, bit for bit, on binary, ternary and
    wider outputs. A stage margin (margin) hands its threshold those columns
    alone, and its kl and gxp - max(gx, a) are the full build's too: these
    meshes are small, so it works on the whole mesh."""
    for name, (w, coupling, steps) in MESH_CASES.items():
        ch = Channel.from_rows(w)
        q = np.array(coupling)
        xs, xps = np.nonzero(q > 0)
        grids = [simplex_grid_array(ch.n_out, k, 10_000) for k in steps]
        mesh = RowMesh(q[xs, xps], xs, xps, grids, ch.n_in, ch.log_matrix)
        for kind in ("ml", "mmi"):
            full = {k: v.copy() for k, v in mesh.build(kind).items()}
            assert full["qy"].shape == (mesh.size(), ch.n_out)
            for cols in range(ch.n_out + 1):
                got = mesh.build(kind, cols)
                assert got["qy"].shape == (mesh.size(), cols), (name, kind, cols)
                assert np.ascontiguousarray(got["qy"]).tobytes() == \
                    np.ascontiguousarray(full["qy"][:, :cols]).tobytes(), (name, kind, cols)
                for key in ("kl", "gx", "gxp"):
                    assert got[key].tobytes() == full[key].tobytes(), (name, kind, cols, key)
            for cols in range(1, ch.n_out + 1):
                def threshold(qy, out=None, index=None):
                    assert qy.shape == (mesh.size(), cols) and index.dtype == np.int64
                    return np.multiply(qy[:, cols - 1], -2.0, out=out)

                a = threshold(full["qy"][:, :cols], np.empty(mesh.size()), np.empty(0, np.int64))
                kl, margin = mesh.margin(kind, threshold, cols)
                with np.errstate(invalid="ignore"):
                    want = full["gxp"] - np.maximum(full["gx"], a)
                assert kl.tobytes() == full["kl"].tobytes(), (name, kind, cols)
                assert margin.tobytes() == want.tobytes(), (name, kind, cols)


def _xlogx_reference(a):
    pos = a > 0
    out = np.log(a, out=np.zeros_like(a), where=pos)
    return np.multiply(out, a, out=out, where=pos)


def _seq_sum_reference(terms, out=None):
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


def _np_sum_reference(terms):
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


def _vec_sum_reference(vecs):
    acc = list(vecs[0])
    for v in vecs[1:]:
        acc = [a + b for a, b in zip(acc, v)]
    return acc


def _build_reference(mesh, kind):
    """RowMesh.build as it was before its arrays went into the structure's
    buffers: every array a new one, summed in the same order."""
    s, ny, n = mesh.s, mesh.ny, mesh.n
    mass = [[mesh._axis_view(mesh.weights[r] * mesh.slot_grids[r][:, y], r)
             for y in range(ny)] for r in range(s)]
    qy = np.empty((ny,) + mesh.gs)
    for y in range(ny):
        _seq_sum_reference([mass[r][y] for r in range(s)], out=qy[y])

    def row_kl(rows, x):
        bad = ((rows > 0) & mesh._dead[x]).any(axis=-1)
        val = (_xlogx_reference(rows) - rows * mesh._fin[x]).sum(axis=-1)
        return np.where(bad, np.inf, val)

    kl = _seq_sum_reference([mesh._axis_view(mesh.weights[r] * row_kl(mesh.slot_grids[r], mesh.x_of[r]), r)
                             for r in range(s)])

    def score(of):
        cells = [(x, _vec_sum_reference([mass[r] for r in np.flatnonzero(of == x)]))
                 for x in np.unique(of).tolist()]
        terms = [0.0] * (mesh.nx * ny)
        if kind == "ml":
            charged = False
            for x, col in cells:
                for y, q in enumerate(col):
                    if mesh._dead[x][y]:
                        charged = charged | (q > 0)
                    else:
                        terms[x * ny + y] = q * mesh._fin_l[x][y]
            total = _np_sum_reference(terms)
            return total if charged is False else np.where(charged, -np.inf, total)
        row_sums = [_np_sum_reference(col) for _, col in cells]
        h_y = [_xlogx_reference(q) for q in _vec_sum_reference([col for _, col in cells])]
        h_x = [0.0] * mesh.nx
        for (x, col), tot in zip(cells, row_sums):
            for y, q in enumerate(col):
                terms[x * ny + y] = _xlogx_reference(q)
            h_x[x] = _xlogx_reference(tot)
        return np.maximum(_np_sum_reference(terms) - _np_sum_reference(h_x)
                          - _np_sum_reference(h_y), 0.0)

    gx = score(mesh.x_of)
    gxp = gx if np.array_equal(mesh.x_of, mesh.xp_of) else score(mesh.xp_of)
    return {"qy": qy.reshape(ny, n).T, "kl": kl.reshape(n),
            "gx": gx.reshape(n), "gxp": gxp.reshape(n)}


def _assert_builds_equal(got, want, where):
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype, (where, key)
        assert got[key].shape == want[key].shape, (where, key)
        assert got[key].tobytes() == want[key].tobytes(), (where, key)


def _product_zoom(ch):
    """The zoom mesh of the uniform product coupling around the 1/8 grid
    point nearest the channel's rows, and its parent; 17**4 candidates on a
    binary channel."""
    q = np.full((2, 2), 0.25)
    xs, xps = np.nonzero(q > 0)
    parent = RowMesh(q[xs, xps], xs, xps, simplex_grid_array(2, 8), 2, ch.log_matrix)
    center = np.round(ch.w[xs] * 8) / 8
    local = parent.regrid(zoom_slot_grids(center, 1 / 16, BUDGET // 16))
    return parent, local


# channels and couplings of the zoom stage tests. On Z, g_ML is -inf where a
# charged cell has W = 0, and the margin -inf - (-inf) is NaN. The 3-slot
# coupling (composition (2/3, 1/3)) has equal weights too; its X' groups
# {0, 2} {1} interleave on the mesh. The product coupling of (3/8, 5/8) has
# unequal weights: its columns repeat too little for a table
STAGE_CHANNELS = {"bsc": [[0.9, 0.1], [0.1, 0.9]], "asym": [[0.75, 0.25], [0.1, 0.9]],
                  "z": [[1.0, 0.0], [0.2, 0.8]]}
STAGE_COUPLINGS = {"product": ([0.5, 0.5], [[0.25, 0.25], [0.25, 0.25]]),
                   "3-slot": ([2 / 3, 1 / 3], [[1 / 3, 1 / 3], [1 / 3, 0.0]]),
                   "unequal": ([3 / 8, 5 / 8], [[9 / 64, 15 / 64], [15 / 64, 25 / 64]])}


class TestStageMargin:
    """A zoom stage's kl and score margin (RowMesh.margin), formed on a
    table of Q_Y and distinct cell columns where the columns repeat, equal
    the full-mesh arithmetic bit for bit: the reference build's Q_Y,
    threshold_batch on it, np.maximum and a subtraction."""

    @pytest.mark.parametrize("coupling", list(STAGE_COUPLINGS))
    @pytest.mark.parametrize("channel", list(STAGE_CHANNELS))
    def test_margin_equals_the_full_mesh_arithmetic(self, channel, coupling):
        """Zoom meshes at dyadic and random centres and three half-widths,
        R in {0, 0.01, 0.2}, both metrics: kl, the margin's bytes and the
        candidate each cut of the stage picks are the full mesh's. Every
        mesh of at least _COLUMNS_MIN candidates takes the table at equal
        weights, and none at unequal ones; smaller ones stay on the mesh."""
        ch = Channel.from_rows(STAGE_CHANNELS[channel])
        qx, cpl = STAGE_COUPLINGS[coupling]
        q = np.array(cpl)
        xs, xps = np.nonzero(q > 0)
        parent = RowMesh(q[xs, xps], xs, xps, simplex_grid_array(2, 8), 2, ch.log_matrix)
        noise = np.random.default_rng(3).random(xs.size)
        centres = {"dyadic": np.round(ch.w[xs] * 8) / 8, "random": np.stack([noise, 1 - noise], 1)}
        read = []

        def spy(qy, **scratch):
            read.append(qy.shape[0])
            return threshold(qy, **scratch)

        paths, nan = set(), False
        obj, off = np.empty(BUDGET), np.empty(BUDGET, dtype=bool)
        for kind in ("ml", "mmi"):
            ctx = exponents._metric_ctx(ch, Dist(np.array(qx)), exponents.DecodingMetric(kind),
                                        exponents.OptimizerOptions())
            for where, centre in centres.items():
                for h in (1 / 8, 1 / 16, 1 / 256):
                    mesh = parent.regrid(zoom_slot_grids(centre, h, BUDGET // 16))
                    ref = _build_reference(mesh, kind)
                    for rate in (0.0, 0.01, 0.2):
                        threshold = functools.partial(ctx.threshold_batch, rate=rate)
                        read.clear()
                        kl, margin = (v.copy() for v in mesh.margin(kind, spy, ctx.qy_cols))
                        with np.errstate(invalid="ignore"):
                            want = ref["gxp"] - np.maximum(ref["gx"], threshold(ref["qy"]))
                        case = (kind, where, h, rate)
                        assert kl.tobytes() == ref["kl"].tobytes(), case
                        assert margin.tobytes() == want.tobytes(), case
                        n = mesh.size()
                        for cut in (-1e-3, 0.0):
                            assert exponents._kl_argmin(kl, margin, cut, obj[:n], off[:n]) == \
                                exponents._kl_argmin(ref["kl"], want, cut, obj[:n], off[:n]), case
                        paths.add((n >= search._COLUMNS_MIN, read != [n]))
                        nan |= bool(np.isnan(margin).any())
        tables = coupling != "unequal"
        assert (True, tables) in paths and (True, not tables) not in paths
        assert (False, True) not in paths
        assert nan == (channel == "z")


class TestBuffers:
    """build writes its arrays into buffers its mesh structure owns, which
    every mesh of the structure (regrid) shares: the values are those of
    the build that made new arrays, and they last until the next build of
    the same structure."""

    def test_build_equals_its_old_code(self):
        """Every MESH_CASES structure, both kinds, built twice: dead cells,
        and numpy's pairwise sums of 2x4 and 2x9."""
        for name, (w, coupling, steps) in MESH_CASES.items():
            ch = Channel.from_rows(w)
            q = np.array(coupling)
            xs, xps = np.nonzero(q > 0)
            grids = [simplex_grid_array(ch.n_out, k, 10_000) for k in steps]
            mesh = RowMesh(q[xs, xps], xs, xps, grids, ch.n_in, ch.log_matrix)
            for kind in ("ml", "mmi", "ml", "mmi"):
                _assert_builds_equal(mesh.build(kind), _build_reference(mesh, kind), (name, kind))

    @pytest.mark.parametrize("rows, gs", [
        ([[0.9, 0.1], [0.1, 0.9]], (17, 17, 17, 17)),
        # rows at a vertex of the simplex: their zoom grids are clipped
        ([[1.0, 0.0], [0.2, 0.8]], (9, 9, 17, 17)),
    ], ids=["bsc", "z"])
    def test_zoom_meshes_in_a_row_equal_the_old_code(self, rows, gs):
        """The product-coupling zoom mesh, then two regrids in a row, one
        of them smaller, then the parent again."""
        parent, local = _product_zoom(Channel.from_rows(rows))
        assert local.gs == gs
        shifted = np.array([[0.8, 0.2], [0.5, 0.5], [0.375, 0.625], [0.0, 1.0]])
        meshes = [local, parent.regrid(zoom_slot_grids(shifted, 1 / 64, BUDGET // 16)),
                  parent.regrid(zoom_slot_grids(shifted, 1 / 64, 2_000)), parent]
        # the buffers shrink into their views on bsc, and grow on z
        assert meshes[2].size() < meshes[1].size()
        assert (meshes[1].size() < local.size()) == (rows[0][0] < 1.0)
        for kind in ("ml", "mmi"):
            for i, mesh in enumerate(meshes):
                _assert_builds_equal(mesh.build(kind), _build_reference(mesh, kind), (kind, i))

    def test_arrays_last_until_the_next_build_of_the_structure(self):
        parent, local = _product_zoom(BSC01)
        first = local.build("mmi")
        kept = {k: v.copy() for k, v in first.items()}
        # another structure, even of equal weights and symbols, has its own
        q = np.full((2, 2), 0.25)
        xs, xps = np.nonzero(q > 0)
        other = RowMesh(q[xs, xps], xs, xps, local.slot_grids, 2, BSC01.log_matrix)
        other.build("ml")
        for key in kept:
            assert first[key].tobytes() == kept[key].tobytes(), key
            assert not np.shares_memory(first[key], other.build("mmi")[key]), key
        # a mesh of the same structure writes over them
        second = parent.regrid(local.slot_grids).build("ml")
        for key in ("qy", "kl", "gx", "gxp"):
            assert np.shares_memory(first[key], second[key]), key
        assert first["gx"].tobytes() == second["gx"].tobytes() != kept["gx"].tobytes()

    def test_threads_with_their_own_structures_agree(self):
        """Two threads building meshes of two structures at once: each
        structure's buffers are its own."""
        want = {}
        for rows in ([[0.9, 0.1], [0.1, 0.9]], [[1.0, 0.0], [0.2, 0.8]]):
            _, local = _product_zoom(Channel.from_rows(rows))
            want[str(rows)] = {kind: _build_reference(local, kind) for kind in ("ml", "mmi")}
        bad = []

        def worker(rows):
            _, local = _product_zoom(Channel.from_rows(rows))
            for _ in range(10):
                for kind in ("mmi", "ml"):
                    got = local.build(kind)
                    if any(got[k].tobytes() != want[str(rows)][kind][k].tobytes() for k in got):
                        bad.append((rows, kind))

        threads = [threading.Thread(target=worker, args=(rows,))
                   for rows in ([[0.9, 0.1], [0.1, 0.9]], [[1.0, 0.0], [0.2, 0.8]])]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert bad == []

    @pytest.mark.parametrize("kind", ["ml", "mmi"])
    def test_a_second_build_allocates_under_one_mib(self, kind):
        """The 17**4 zoom mesh holds 0.64 MiB per float array; its first
        build makes the buffers, and a second one writes into them (new
        arrays peaked at 3.9 MiB for ml and 5.2 MiB for mmi)."""
        _, local = _product_zoom(BSC01)
        local.build(kind)
        tracemalloc.start()
        try:
            local.build(kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


class TestDistinctColumns:
    """build scores on the whole mesh, or on the grid of each slot group's
    distinct cell columns, gathered onto the mesh; _by_columns picks the
    path. Forced down each path, every build gives the same bytes."""

    @staticmethod
    def _builds(monkeypatch, mesh, kind):
        """Copies of the mesh's build on the full-mesh path and on the
        distinct-column path, and the distinct columns the second one found."""
        seen = []
        distinct = search._distinct_columns

        def recorded(col):
            cols, inverse = distinct(col)
            seen.append(cols)
            return cols, inverse

        monkeypatch.setattr(search, "_distinct_columns", recorded)
        builds = []
        for take in (False, True):
            monkeypatch.setattr(search, "_by_columns", lambda *args, take=take: take)
            builds.append({k: v.copy() for k, v in mesh.build(kind).items()})
        return builds, seen

    @staticmethod
    def _assert_stats(mesh, kind, arrs, where):
        """stats_of at sampled candidates equals the build's entries."""
        rng = np.random.default_rng(5)
        for i in {0, mesh.size() - 1, *rng.integers(0, mesh.size(), 20).tolist()}:
            st = mesh.stats_of(mesh.rows_of(i), kind)
            assert st["qy"] == arrs["qy"][i].tolist(), (where, i)
            assert (st["kl"], st["gx"], st["gxp"]) == \
                (arrs["kl"][i], arrs["gx"][i], arrs["gxp"][i]), (where, i)

    def test_mesh_cases_give_the_same_bytes(self, monkeypatch):
        """Every MESH_CASES structure (2, 3, 4 and 9 outputs), both kinds:
        equal and unequal slot weights, dead cells, pairwise sums."""
        for name, (w, coupling, steps) in MESH_CASES.items():
            ch = Channel.from_rows(w)
            q = np.array(coupling)
            xs, xps = np.nonzero(q > 0)
            grids = [simplex_grid_array(ch.n_out, k, 10_000) for k in steps]
            mesh = RowMesh(q[xs, xps], xs, xps, grids, ch.n_in, ch.log_matrix)
            for kind in ("ml", "mmi"):
                (full, cols), seen = self._builds(monkeypatch, mesh, kind)
                assert seen, (name, kind)
                _assert_builds_equal(cols, full, (name, kind))
                _assert_builds_equal(full, _build_reference(mesh, kind), (name, kind))
                self._assert_stats(mesh, kind, cols, (name, kind))

    @pytest.mark.parametrize("coupling", [[[0.25, 0.25], [0.25, 0.25]], [[0.4, 0.1], [0.1, 0.4]]],
                             ids=["equal", "unequal"])
    @pytest.mark.parametrize("rows", [[[0.9, 0.1], [0.1, 0.9]], [[1.0, 0.0], [0.2, 0.8]]],
                             ids=["bsc", "z"])
    def test_zoom_meshes_give_the_same_bytes(self, monkeypatch, rows, coupling):
        """Zoom meshes of up to 17**4 candidates, built as the search builds
        them and down each path. On the Z-channel the rows at the vertex
        (1, 0) have grids clipped at 0 and 1, with zero cells (MMI's masked
        x log x) and dead ones (ML's -inf charges)."""
        ch = Channel.from_rows(rows)
        q = np.array(coupling)
        xs, xps = np.nonzero(q > 0)
        parent = RowMesh(q[xs, xps], xs, xps, simplex_grid_array(2, 8), 2, ch.log_matrix)
        mesh = parent.regrid(zoom_slot_grids(np.round(ch.w[xs] * 8) / 8, 1 / 16, BUDGET // 16))
        clipped = rows[0][0] == 1.0
        assert mesh.gs == ((9, 9, 17, 17) if clipped else (17,) * 4)
        assert (mesh.slot_grids[0] == 0.0).any() == clipped
        for kind in ("ml", "mmi"):
            searched = {k: v.copy() for k, v in mesh.build(kind).items()}
            (full, cols), seen = self._builds(monkeypatch, mesh, kind)
            _assert_builds_equal(cols, full, kind)
            _assert_builds_equal(searched, full, kind)
            self._assert_stats(mesh, kind, cols, kind)
            if not clipped and coupling[0][0] == 0.25:
                # 2 * 17 - 1 distinct sums of two 17-point grids, per group
                assert [c.shape[1] for c in seen] == [33] * 4
            if clipped and kind == "ml":
                assert np.isneginf(full["gx"]).any() and np.isfinite(full["gx"]).any()

    def test_columns_that_differ_in_the_sign_of_a_zero(self, monkeypatch):
        """0.25 * -0.0 + 0.25 * -0.0 is -0.0, and 0.25 * 0.0 + 0.25 * -0.0
        is 0.0: the columns (-0.0, 0.5) and (0.0, 0.5) stay apart."""
        grid = np.array([[0.0, 1.0], [-0.0, 1.0], [0.5, 0.5], [1.0, -0.0], [1.0, 0.0]])
        q = np.full((2, 2), 0.25)
        xs, xps = np.nonzero(q > 0)
        mesh = RowMesh(q[xs, xps], xs, xps, grid, 2, BSC01.log_matrix)
        for kind in ("ml", "mmi"):
            (full, cols), seen = self._builds(monkeypatch, mesh, kind)
            _assert_builds_equal(cols, full, kind)
            self._assert_stats(mesh, kind, cols, kind)
            for c in seen:
                assert c.shape[1] > len(set(map(tuple, c.T.tolist()))), c


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
    """One x log x for every module, also in place into buffers: byte for
    byte the masked formula below, on all-positive input (the unmasked
    path) and on input with 0.0, -0.0, a negative, NaN, +inf and a
    subnormal (the masked path); integer input gives floats."""

    def masked(a):
        pos = a > 0
        out = np.log(a, out=np.zeros(a.shape), where=pos)
        return np.multiply(out, a, out=out, where=pos)

    v = np.array([0.0, 0.5, 1.0, -1.0, np.nan])
    want = np.array([0.0, 0.5 * math.log(0.5), 0.0, 0.0, 0.0])
    assert xlogx(v).tobytes() == masked(v).tobytes() == want.tobytes()
    positive = np.concatenate([np.random.default_rng(5).random(1000),
                               [5e-324, 1e-300, 1.0, 2.5, 1e300, np.inf]])
    mixed = np.concatenate([positive, [0.0, -0.0, -1.0, np.nan, np.inf, 5e-324]])
    for a in (positive, mixed, np.array([1, 2, 0]), np.array([1, 2, 3])):
        want = masked(a)
        assert want.dtype == float
        got = xlogx(a)
        assert got.dtype == float and got.tobytes() == want.tobytes(), a
        out, pos = np.full(a.shape, 7.0), np.empty(a.shape, dtype=bool)
        assert xlogx(a, out, pos) is out and out.tobytes() == want.tobytes(), a
        assert np.array_equal(pos, a > 0)
    assert entropy(Dist(np.array([0.5, 0.5]))) == pytest.approx(math.log(2))


class TestStatsOf:
    """stats_of keeps no memo: repeated and copied rows give equal stats,
    each time in a new dict."""

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

    def test_repeated_and_copied_rows_give_equal_new_dicts(self):
        rng = np.random.default_rng(3)
        for name, (w, coupling) in self.CASES.items():
            for kind in ("ml", "mmi"):
                mesh = self._mesh(w, coupling)
                for rows in [mesh.rows_of(7)] + list(
                        rng.dirichlet(np.ones(mesh.ny), size=(20, mesh.s))):
                    first = mesh.stats_of(rows, kind)
                    again = mesh.stats_of(rows, kind)
                    copied = mesh.stats_of(rows.copy(), kind)
                    fresh = self._mesh(w, coupling).stats_of(rows, kind)
                    assert first == again == copied == fresh, (name, kind, rows.tolist())
                    assert again is not first and copied is not first
                    assert again["qy"] is not first["qy"]
                    first["kl"], first["qy"][0] = math.nan, math.nan  # the caller's own
                    assert mesh.stats_of(rows, kind) == fresh

    def test_other_kind_and_one_ulp_apart(self):
        w, coupling = self.CASES["bsc"]
        mesh = self._mesh(w, coupling)
        rows = np.array([[0.3, 0.7], [0.6, 0.4], [0.2, 0.8], [0.9, 0.1]])
        ml = mesh.stats_of(rows, "ml")
        mmi = mesh.stats_of(rows, "mmi")
        assert mmi["gx"] == self._mesh(w, coupling).stats_of(rows, "mmi")["gx"] != ml["gx"]
        bumped = rows.copy()
        bumped[0, 0] = np.nextafter(bumped[0, 0], 1.0)
        st = mesh.stats_of(bumped, "ml")
        assert st == self._mesh(w, coupling).stats_of(bumped, "ml")
        # nested lists and arrays of the same floats give the same stats
        assert mesh.stats_of(rows.tolist(), "ml") == ml


def _param_rows_reference(mesh, params):
    """param_stats' prelude in plain Python: free coordinates (a list) ->
    the rows as nested lists, or None outside the simplex."""
    k = mesh.ny - 1
    if min(params, default=0.0) < -1e-12:
        return None
    rows = []
    for r in range(mesh.s):
        free = params[r * k:(r + 1) * k]
        tot = 0.0
        for v in free:
            tot += v
        last = 1.0 - tot
        if last < -1e-12:
            return None
        rows.append([min(max(v, 0.0), 1.0) for v in free] + [min(max(last, 0.0), 1.0)])
    return rows


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
        params = [-0.0, 0.5, 1.0, 0.25]
        rows = mesh.params_to_rows(np.array(params))
        assert rows[0, 0] == 0.0 and math.copysign(1.0, rows[0, 0]) < 0
        assert math.copysign(1.0, rows[2, 1]) > 0  # 1.0 - 1.0
        for kind in ("ml", "mmi"):
            flat = mesh.param_stats(params, kind)["rows"]
            assert [v.hex() for v in flat] == [v.hex() for v in rows.reshape(-1).tolist()]
            assert flat[0] == 0.0 and math.copysign(1.0, flat[0]) < 0
            assert math.copysign(1.0, flat[5]) > 0

    @staticmethod
    def _random_structure(rng):
        """A mesh of random structure: 2-4 inputs, 2-9 outputs, up to 6
        slots, dead cells of W in some rows."""
        nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 10))
        w = rng.dirichlet(np.ones(ny), size=nx)
        for x in range(nx):
            if rng.random() < 0.5:  # dead cells, keeping one live cell
                dead = rng.random(ny) < 0.4
                dead[rng.integers(0, ny)] = False
                w[x, dead] = 0.0
                w[x] /= w[x].sum()
        s = int(rng.integers(1, 7))
        xs, xps = rng.integers(0, nx, s), rng.integers(0, nx, s)
        with np.errstate(divide="ignore"):
            logw = np.log(w)
        return RowMesh(rng.dirichlet(np.ones(s)), xs, xps, simplex_grid_array(ny, 1),
                       nx, logw)

    @staticmethod
    def _edge_params(rng, mesh):
        """Free coordinates inside the simplex, on its boundary and just
        outside it: -0.0 entries, entries within 1e-12 below 0 and just past
        it, free sums within 1e-12 above 1 and just past it, NaN."""
        k, s = mesh.ny - 1, mesh.s
        tiny = [-0.0, 0.0, -5e-13, -1e-12, np.nextafter(-1e-12, -1.0), -3e-12]
        out = []
        for _ in range(40):
            rows = rng.dirichlet(np.ones(mesh.ny), size=s)
            free = rows[:, :k].copy()
            case = int(rng.integers(0, 7))
            if case == 1:  # a vertex or an edge: entries 0.0 / -0.0 / 1.0
                free = np.where(rng.random(free.shape) < 0.5, 0.0, -0.0)
                hit = rng.integers(0, mesh.ny, s)
                for r in range(s):
                    if hit[r] < k:
                        free[r, hit[r]] = 1.0
            elif case == 2:  # tiny negatives, accepted and rejected
                free.flat[rng.integers(0, free.size)] = rng.choice(tiny)
            elif case == 3:  # free sum on 1 or past it by a hair
                r = int(rng.integers(0, s))
                free[r] = free[r] / free[r].sum() if free[r].sum() > 0 else free[r]
                free[r, 0] += rng.choice([0.0, 4e-13, 1e-12, 3e-12, 1e-9])
            elif case == 4:  # one coordinate above 1, another slightly negative
                r = int(rng.integers(0, s))
                free[r] = 0.0
                free[r, 0] = 1.0 + rng.choice([5e-13, 2e-12])
                if k > 1:
                    free[r, 1] = -rng.choice([5e-13, 2e-12])
            elif case == 5:  # far outside
                free.flat[rng.integers(0, free.size)] = rng.choice([-0.2, 1.3])
            elif case == 6 and rng.random() < 0.3:
                free.flat[rng.integers(0, free.size)] = math.nan
            out.append(free.reshape(-1).tolist())
        return out

    def test_param_stats_equal_compute_stats_of_param_rows(self):
        """The fused probe returns, float.hex for float.hex, what the plain
        Python prelude (_param_rows_reference) followed by stats_of
        returns, and None on the same inputs: random structures and every
        MESH_CASES channel, at edge-case free coordinates."""
        rng = np.random.default_rng(43)
        meshes = [self._random_structure(rng) for _ in range(60)]
        for w, coupling, steps in MESH_CASES.values():
            ch = Channel.from_rows(w)
            q = np.array(coupling)
            xs, xps = np.nonzero(q > 0)
            meshes.append(RowMesh(q[xs, xps], xs, xps, simplex_grid_array(ch.n_out, 2, 10_000),
                                  ch.n_in, ch.log_matrix))
        nones = values = 0
        for mesh in meshes:
            for params in self._edge_params(rng, mesh):
                rows = _param_rows_reference(mesh, params)
                for kind in ("ml", "mmi"):
                    got = mesh.param_stats(params, kind)
                    if rows is None:
                        assert got is None, (params, kind)
                        nones += 1
                        continue
                    want = mesh.stats_of(rows, kind)
                    where = (params, kind)
                    assert [v.hex() for v in got["qy"]] == [v.hex() for v in want["qy"]], where
                    for key in ("kl", "gx", "gxp"):
                        assert got[key].hex() == want[key].hex(), where
                    assert [v.hex() for v in got["rows"]] == [v.hex() for row in rows for v in row]
                    values += 1
        assert nones > 200 and values > 2000

    def test_kernel_source_has_no_float_and_compiles_once(self, monkeypatch):
        """The kernels are generated from the mesh structure alone: weights,
        log W and the constants, -1e-12 of the parameter prelude included,
        come in as arguments or names, and two meshes of one structure
        share one compiled kernel per kind and flavour."""
        import ast

        from explab import search

        w, coupling, k = self.CASES["2x9"]
        mesh = self._mesh(w, coupling, k)
        structure = (mesh.nx, mesh.ny, tuple(mesh.x_of.tolist()),
                     tuple(mesh.xp_of.tolist()), tuple(map(tuple, mesh._dead_l)))
        for kind in ("ml", "mmi"):
            for params in (False, True):
                tree = ast.parse(search._kernel_source(kind, *structure, params))
                floats = [node.value for node in ast.walk(tree)
                          if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))]
                assert floats == [], (kind, params)
                names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                assert ("_NEG" in names) == params, (kind, params)
        assert search._stats_kernel(*(("ml",) + structure + (True,))).__globals__["_NEG"] == -1e-12

        made = []
        source = search._kernel_source
        monkeypatch.setattr(search, "_kernel_source",
                            lambda *a: made.append((a[0], a[-1])) or source(*a))
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
                    m.param_stats(m.rows_to_params(rows).tolist(), kind)
            for params in (False, True):
                assert mesh._kernels[kind, params] is other._kernels[kind, params]
        assert made == [("ml", False), ("ml", True), ("mmi", False), ("mmi", True)]
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
