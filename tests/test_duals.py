import dataclasses
import json
import math
import tracemalloc
import warnings
from functools import cached_property

import numpy as np
import pytest

from explab import duals
from explab.cli import json_dumps
from explab.duals import (
    _TiltedProblem,
    certify_theorem1,
    lambda_bound,
    log_g_aux,
    ml_upper_bound,
    mmi_lower_bound,
    phi_bound,
    psi,
    theta,
)
from explab.exponents import ML, MMI, OptimizerOptions, RatePoint, a_threshold, gamma, trc_exponent
from explab.prob import Channel, Dist, Joint2, ProbError, entropy
from explab.search import RAY_HI, RayResult, RowMesh, golden_max, pattern_min

UNIF = Dist.uniform(2)
BSC01 = Channel.bsc(0.1)
OPTS = OptimizerOptions()
CERT_TOL = 1e-4  # certify's default tolerance

DIAG = Joint2(np.diag([0.5, 0.5]))
PROD = Joint2(np.full((2, 2), 0.25))
ANTI = Joint2(np.array([[0.0, 0.5], [0.5, 0.0]]))

# frozen closed forms / dense-grid oracles (mpmath, independent scans)
PSI_BHAT = {0.05: 0.83036560341082545, 0.1: 0.51082562376599068,
            0.25: 0.14384103622589046}
G_AUX_S2_T1 = 1.6  # (sqrt(0.9) + sqrt(0.1))^2, exactly
THETA_ANTI_R01_DENSE = 1.0912038756845863


def threshold_dual(rate: float, q_y: Dist, ch: Channel, q_x: Dist,
                   sigmas: np.ndarray, taus: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The threshold half of theta's defining formula over a (sigma, tau, V) mesh:

        sigma*(rate - H(Q_X)) - tau*D(Q_X || V) + sum_y Q_Y(y) log G(y),

    with G the auxiliary kernel (``log_g_aux``) and vs of shape (nV, nx),
    strictly positive. It is the Lagrangian of a_threshold under the ML
    metric (sigma prices I(X;Y) <= rate, tau and V price the pinned
    X-marginal), so its infimum over the mesh is at least a_threshold(rate,
    q_y, ML, ...) and, by strong duality, equals it in the limit of a dense
    mesh. Returns shape (nsigma, ntau, nV). The package computes theta in
    its primal form; this dual form is the tests' reference for it.
    """
    q = q_x.probs
    log_g = duals._log_g_aux_mesh(sigmas, taus, vs, ch, q_x)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(np.where(q > 0, q, 1.0)) - np.log(vs)
    d_qv = np.where(q > 0, q * log_ratio, 0.0).sum(axis=1)  # D(Q_X || V) per V
    lead = (sigmas[:, None, None] * (rate - entropy(q_x))
            - taus[None, :, None] * d_qv[None, None, :])
    # an output with Q_Y(y) = 0 adds 0 * log G(y) = 0, even where G(y) = 0
    return lead + np.where(q_y.probs > 0, log_g, 0.0) @ q_y.probs


class TestGAux:
    def test_tau_zero_drops_v_and_qx(self):
        v1 = math.exp(log_g_aux(0, 2.0, 0.0, np.array([0.9, 0.1]), BSC01, UNIF))
        v2 = math.exp(log_g_aux(0, 2.0, 0.0, np.array([0.5, 0.5]), BSC01,
                                Dist(np.array([0.25, 0.75]))))
        want = (0.9 ** 0.5 + 0.1 ** 0.5) ** 2
        assert v1 == pytest.approx(want, abs=1e-12)
        assert v2 == pytest.approx(want, abs=1e-12)

    def test_sigma_tau_one_gives_column_mass(self):
        v = math.exp(log_g_aux(1, 1.0, 1.0, UNIF.probs, BSC01, UNIF))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_derived_value(self):
        v = math.exp(log_g_aux(0, 2.0, 1.0, UNIF.probs, BSC01, UNIF))
        assert v == pytest.approx(G_AUX_S2_T1, abs=1e-12)

    def test_sigma_zero_max_term(self):
        v = log_g_aux(0, 0.0, 0.0, UNIF.probs, BSC01, UNIF)
        assert v == pytest.approx(math.log(0.9), abs=1e-12)

    def test_v_support_violation(self):
        with pytest.raises(ProbError):
            log_g_aux(0, 1.0, 1.0, np.array([1.0, 0.0]), BSC01, UNIF)

    def test_mesh_matches_scalar(self):
        from explab.duals import _log_g_aux_mesh
        ch = Channel.from_rows([[0.85, 0.15], [0.5, 0.5], [0.15, 0.85]])
        sigmas = np.array([0.0, 0.3, 2.0])
        taus = np.array([0.0, 0.7, 3.0])
        vs = np.array([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]])

        def defining(y, s, t, v, q):
            # the terms W(y|x) q(x)^t v(x)^-t that stay in the sum
            terms = [ch.w[x, y] * (q[x] / v[x]) ** t for x in range(3)
                     if ch.w[x, y] > 0 and (t == 0 or q[x] > 0)]
            if s == 0:
                return max(math.log(c) for c in terms)
            return s * math.log(sum(c ** (1 / s) for c in terms))

        for q in (Dist(np.array([0.25, 0.5, 0.25])), Dist(np.array([0.5, 0.0, 0.5]))):
            mesh = _log_g_aux_mesh(sigmas, taus, vs, ch, q)
            for i, s in enumerate(sigmas):
                for j, t in enumerate(taus):
                    for k, v in enumerate(vs):
                        for y in range(2):
                            want = defining(y, s, t, v, q.probs)
                            assert mesh[i, j, k, y] == pytest.approx(want, abs=1e-12)
                            assert log_g_aux(y, s, t, v, ch, q) == mesh[i, j, k, y]

    def test_dead_output_column(self):
        # no input reaches y = 2: log G(2) = -inf at every sigma, with no
        # -inf - -inf on the way, and Q_Y(2) = 0 makes 0 * log G(2) = 0 in
        # theta's threshold form, which then equals the form without y = 2
        from explab.duals import _log_g_aux_mesh
        ch = Channel.from_rows([[0.5, 0.5, 0.0], [0.25, 0.75, 0.0]])
        two = Channel.from_rows([[0.5, 0.5], [0.25, 0.75]])
        sigmas, taus, vs = np.array([0.0, 1.0]), np.array([0.0, 0.5]), np.array([[0.5, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mesh = _log_g_aux_mesh(sigmas, taus, vs, ch, UNIF)
            got = threshold_dual(0.1, Dist(np.array([0.4, 0.6, 0.0])), ch, UNIF, sigmas, taus, vs)
        assert (mesh[:, :, :, 2] == -math.inf).all()
        assert log_g_aux(2, 1.0, 0.5, UNIF.probs, ch, UNIF) == -math.inf
        want = threshold_dual(0.1, Dist(np.array([0.4, 0.6])), two, UNIF, sigmas, taus, vs)
        assert np.isfinite(got).all()
        assert got == pytest.approx(want, abs=1e-12)


class TestPsi:
    def test_diagonal_zero(self):
        assert psi(DIAG, BSC01).value == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.25])
    def test_bhattacharyya_closed_form(self, p):
        val = psi(ANTI, Channel.bsc(p)).value
        assert val == pytest.approx(PSI_BHAT[p], abs=1e-6)

    def test_off_diagonal_mass_scales(self):
        val = psi(PROD, BSC01).value
        assert val == pytest.approx(0.5 * PSI_BHAT[0.1], abs=1e-6)

    def test_nonnegative(self):
        for q in (DIAG, PROD, ANTI):
            assert psi(q, BSC01).value >= -1e-12

    def test_noiseless_unbounded(self):
        ident = Channel.from_rows([[1.0, 0.0], [0.0, 1.0]])
        assert psi(ANTI, ident).value == math.inf


class TestTheta:
    def test_nonnegative_and_zero_cases(self):
        assert theta(DIAG, 0.0, BSC01, UNIF, OPTS).value == pytest.approx(0.0, abs=1e-9)
        assert theta(PROD, 0.0, BSC01, UNIF, OPTS).value == pytest.approx(0.0, abs=1e-6)
        assert theta(ANTI, 0.1, BSC01, UNIF, OPTS).value >= 0.0

    def test_restriction_self_check(self):
        # the inner infimum can never exceed the value at a fixed feasible
        # (sigma, tau, V); check a few fixed choices at the solver's rho,
        # V != Q_X included, where the lead term's -tau*D(Q_X||V) is live
        res = theta(ANTI, 0.1, BSC01, UNIF, OPTS)
        rho = res.arg
        hq = math.log(2)
        for sig, tau, v in ((0.0, 1.0, UNIF.probs), (1.0, 0.0, UNIF.probs),
                            (0.5, 0.5, UNIF.probs), (0.5, 1.0, np.array([0.3, 0.7])),
                            (1.0, 2.0, np.array([0.8, 0.2])),
                            (2.4, 0.5, np.array([0.6, 0.4]))):
            lg = np.array([log_g_aux(y, sig, tau, v, BSC01, UNIF) for y in range(2)])
            d_qv = float(np.sum(UNIF.probs * np.log(UNIF.probs / v)))
            val = rho * (sig * (0.1 - hq) - tau * d_qv)
            for (x, xp), w in (((0, 1), 0.5), ((1, 0), 0.5)):
                inner = np.sum(BSC01.w[x] * np.exp(
                    rho * (BSC01.log_matrix[xp] - lg)))
                val += -w * math.log(inner)
            assert res.value <= val + 1e-9

    def test_dense_oracle_band(self):
        val = theta(ANTI, 0.1, BSC01, UNIF, OPTS).value
        assert val == pytest.approx(THETA_ANTI_R01_DENSE, abs=0.01)

    def test_threshold_form_matches_a_threshold(self):
        # theta's (sigma, tau, V) threshold form is the Lagrange dual of
        # a(R, Q_Y): its minimum must reach a_threshold, here at
        # (sigma, tau, V) ~ (0, 1.5, (0.18, 0.82)). Without the
        # -tau*D(Q_X||V) term the form only approaches a(R, Q_Y) as
        # tau -> inf and misses by about 0.08 on tau <= 8.
        q_y = Dist(np.array([0.05, 0.95]))
        want = a_threshold(0.2, q_y, ML, BSC01, UNIF, OPTS)
        assert want == pytest.approx(-1.0940, abs=1e-4)
        ray = np.concatenate([[0.0], np.geomspace(1e-2, 8.0, 25)])
        v0 = np.arange(1, 64) / 64

        def form(sig, tau, v):
            return threshold_dual(0.2, q_y, BSC01, UNIF, sig, tau, np.stack([v, 1 - v], 1))

        vals = form(ray, ray, v0)
        i, j, k = np.unravel_index(np.argmin(vals), vals.shape)

        def f(z):
            z = np.array(z)  # pattern_min probes with lists
            if z[0] < 0 or not 0 <= z[1] <= 8 or not 0 < z[2] < 1:
                return math.inf
            return float(form(z[:1], z[1:2], z[2:]).min())

        _, best, _ = pattern_min(np.array([ray[i], ray[j], v0[k]]), f, 0.05, 80)
        assert best == pytest.approx(want, abs=1e-3)

    @pytest.mark.parametrize("q, rate", [(ANTI, 0.0), (ANTI, 0.2), (ANTI, 0.4),
                                         (PROD, 0.4)],
                             ids=["anti-R0", "anti-R0.2", "anti-R0.4", "prod-R0.4"])
    def test_below_gamma_ml(self, q, rate):
        # theta relaxes Gamma_ML's threshold constraint, so it can not exceed
        # Gamma_ML (these points read +0.007 .. +0.6 above it before)
        assert theta(q, rate, BSC01, UNIF, OPTS).value <= gamma(
            q, rate, ML, BSC01, UNIF, OPTS) + 1e-4

    def test_repeated_probe_leaves_pool_unchanged(self):
        """theta's polish probes the same rows again and again; a repeat
        returns the stored (kl, drive) and leaves the pool as one insert."""
        from explab.duals import _ThetaProblem
        rng = np.random.default_rng(11)
        once = _ThetaProblem(ANTI, 0.1, BSC01, UNIF, OPTS)
        twice = _ThetaProblem(ANTI, 0.1, BSC01, UNIF, OPTS)
        probes = [BSC01.w[once.mesh.x_of], once.mesh.rows_of(5)] + list(
            rng.dirichlet(np.ones(2), size=(12, once.mesh.s)))
        for rows in probes:
            got = once._add_rows(rows)
            assert twice._add_rows(rows) == got
            assert twice._add_rows(rows.copy()) == got
            for attr in ("kl", "drive", "rows"):
                assert np.array_equal(getattr(twice, attr), getattr(once, attr))
        assert 1 < len(once.kl) < len(probes)  # some probes were pruned


def _front_reference(kl, drive):
    """_lower_front by brute force, in exact arithmetic on integer inputs.

    Pareto filter: i survives unless a candidate ranked before it (by kl,
    then drive, then index) has drive <= drive_i. When no survivor has a
    -inf drive, a survivor on or above the chord of two others on either
    side of it (in drive) is dropped. Returned in ascending drive.
    """
    n = len(kl)
    rank = sorted(range(n), key=lambda i: (kl[i], drive[i], i))
    front = [i for pos, i in enumerate(rank)
             if all(drive[j] > drive[i] for j in rank[:pos])]
    front.sort(key=lambda i: drive[i])
    if any(drive[i] == -math.inf for i in front):
        return front

    def below_chord(m):
        return all((drive[a] - drive[o]) * (kl[m] - kl[o])
                   - (kl[a] - kl[o]) * (drive[m] - drive[o]) < 0
                   for o in front for a in front if drive[o] < drive[m] < drive[a])

    return [m for m in front if below_chord(m)]


def _lexsort_front(kl, drive):
    """_lower_front without the argsort prefilter: the Pareto filter on the
    full (kl, drive, index) lexsort, then the hull in plain floats."""
    order = np.lexsort((drive, kl))
    ds = drive[order]
    prev = np.minimum.accumulate(np.concatenate([[np.inf], ds[:-1]]))
    front = order[ds < prev][::-1]
    if np.isneginf(drive[front]).any():
        return front
    kl_l, drive_l = kl.tolist(), drive.tolist()
    hull = []
    for t in front.tolist():
        kt, dt = kl_l[t], drive_l[t]
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            ko, do = kl_l[o], drive_l[o]
            if ((drive_l[a] - do) * (kt - ko) - (kl_l[a] - ko) * (dt - do)) > 0:
                break
            hull.pop()
        hull.append(t)
    return np.array(hull, dtype=int)


class TestLowerFront:
    """theta's pool: _lower_front and the dominated-probe shortcut of _add."""

    def test_prefilter_keeps_the_lexsort_front(self):
        """The argsort prefilter drops only points that cannot change the
        lexsort front: same indices, in the same order, on inputs with ties
        in kl and drive, duplicates and -inf drives."""
        from explab.duals import _lower_front
        rng = np.random.default_rng(29)
        for trial in range(2000):
            n = int(rng.integers(0, 300))
            if rng.random() < 0.5:  # integers: many ties
                kl = rng.integers(0, 8, n).astype(float)
                drive = rng.integers(-6, 6, n).astype(float)
            else:  # floats drawn with or without repeats
                pool = rng.random(max(1, n // 3))
                kl = rng.choice(pool, n) if rng.random() < 0.5 else rng.random(n)
                drive = rng.choice(pool - 0.5, n) if rng.random() < 0.5 else rng.normal(size=n)
            if n and rng.random() < 0.3:
                drive[rng.integers(0, n, int(rng.integers(1, 3)))] = -np.inf
            got, want = _lower_front(kl, drive), _lexsort_front(kl, drive)
            assert got.tolist() == want.tolist(), (trial, kl.tolist(), drive.tolist())

    @staticmethod
    def _random_set(rng, n):
        # small integers: ties, duplicates and collinear triples are common,
        # and every product in the hull test is exact
        kl = rng.integers(0, 6, n).astype(float)
        drive = rng.integers(-4, 5, n).astype(float)
        if rng.random() < 0.3:
            drive[rng.integers(0, n)] = -math.inf
        return kl, drive

    def test_matches_brute_force(self):
        from explab.duals import _lower_front
        rng = np.random.default_rng(17)
        for trial in range(600):
            kl, drive = self._random_set(rng, int(rng.integers(1, 14)))
            got = _lower_front(kl, drive).tolist()
            assert got == _front_reference(kl.tolist(), drive.tolist()), (
                trial, kl.tolist(), drive.tolist())
        # collinear points strictly inside the hull's edge are dropped
        kl = np.array([4.0, 3.0, 2.0, 1.0, 0.0])
        drive = np.array([-4.0, -3.0, -2.0, -1.0, 0.0])
        assert _lower_front(kl, drive).tolist() == [0, 4]

    def test_dominated_probe_shortcut_equals_full_merge(self):
        """_insert leaves the pool that _lower_front of the pool plus the
        probe leaves, on each of its paths: a weakly dominated probe (ties
        included) or one that is no candidate (infinite kl, +inf drive)
        changes nothing; a -inf drive, in the probe or the pool, keeps the
        front whole; every other probe takes the local hull repair. Probes
        fall at either end of the pool and between, mostly on small
        integers, so ties and collinear triples are common, and on floats,
        whose hull tests round."""
        from explab.duals import _ThetaProblem, _lower_front
        rng = np.random.default_rng(23)
        prob = object.__new__(_ThetaProblem)
        paths = {"dominated": 0, "no candidate": 0, "-inf drive": 0, "repair": 0}
        for _ in range(3000):
            floats = rng.random() < 0.3  # an affine map: the hull tests round
            a, b, c = rng.random(3) + 0.1

            def scaled(kl, drive):
                return (kl * a + b, drive * c) if floats else (kl, drive)

            kl, drive = scaled(*self._random_set(rng, int(rng.integers(1, 12))))
            rows = rng.random((kl.size, 2, 2))
            keep = _lower_front(kl, drive)
            prob.kl, prob.drive = kl[keep].tolist(), drive[keep].tolist()
            prob.rows = list(rows[keep])
            k, d = (float(v[0]) for v in scaled(*self._random_set(rng, 1)))
            u = rng.random()
            if u < 0.25:  # force a weak domination, ties included
                m = int(rng.integers(0, len(prob.kl)))
                k, d = prob.kl[m] + rng.integers(0, 2), prob.drive[m] + rng.integers(0, 2)
            elif u < 0.35:  # beyond either end of the pool
                k, d = (max(prob.kl) + rng.integers(0, 3), min(prob.drive) - 1.0) if rng.random() < 0.5 \
                    else (min(prob.kl) - 1.0, max(prob.drive) + rng.integers(0, 3))
            elif u < 0.40:  # not dominated, but no candidate
                k, d = (math.inf, min(prob.drive) - 1.0) if rng.random() < 0.5 \
                    else (min(prob.kl) - 1.0, math.inf)
            row = rng.random((2, 2))
            all_kl = np.array(prob.kl + [k])
            all_drive = np.array(prob.drive + [d])
            all_rows = np.array(prob.rows + [row])
            cand = np.isfinite(all_kl) & (all_drive < math.inf)
            ok = np.flatnonzero(cand)[_lower_front(all_kl[cand], all_drive[cand])]
            want = (all_kl[ok].tolist(), all_drive[ok].tolist(), all_rows[ok])
            if any(km <= k and dm <= d for km, dm in zip(prob.kl, prob.drive)):
                paths["dominated"] += 1
            elif not math.isfinite(k) or d == math.inf:
                paths["no candidate"] += 1
            elif d == -math.inf or -math.inf in prob.drive:
                paths["-inf drive"] += 1
            else:
                paths["repair"] += 1
            made = []
            prob._insert(k, d, lambda: made.append(1) or row)
            assert prob.kl == want[0] and prob.drive == want[1], (kl.tolist(), drive.tolist(), k, d)
            assert np.array_equal(np.array(prob.rows).reshape(-1, 2, 2), want[2])
            assert len(made) <= 1 and bool(made) <= any(r is row for r in prob.rows)
        assert min(paths.values()) >= 100, paths


def _tilted_solve_reference(prob, penalty, rate=0.0):
    """_TiltedProblem.solve with its own grid-and-doubling loop over the
    multiplier, as it was before search.ray_grid and search.sup_ray."""
    drive = prob._drive(penalty, rate)
    top = RAY_HI
    for _ in range(4):
        mu_grid = np.concatenate([[0.0], np.geomspace(1e-3, top, 13)])
        gvals = (prob.kl[None, :] + mu_grid[:, None] * drive[None, :]).min(axis=1)
        best = int(np.argmax(gvals))
        if best < mu_grid.size - 1:
            break
        top *= 2.0
    hit_boundary = best == mu_grid.size - 1
    lo_b = mu_grid[best - 1] if best > 0 else mu_grid[best]
    hi_b = mu_grid[best + 1] if best < mu_grid.size - 1 else mu_grid[best]
    best_mu = float(mu_grid[best])
    value = prob._inner(best_mu, penalty, rate)
    if hi_b > lo_b:
        mu_ref, val_ref = golden_max(lambda m: prob._inner(m, penalty, rate),
                                     lo_b, hi_b, tol=1e-3)
        if val_ref > value:
            value, best_mu = float(val_ref), float(mu_ref)
    value = max(value, prob._inner(0.0, penalty, rate))
    return RayResult(best_mu, float(value), hit_boundary)


def _types(res):
    return [type(v) for v in dataclasses.astuple(res)]


class TestLambdaPhi:
    def test_lambda_diagonal_zero(self):
        assert lambda_bound(DIAG, BSC01, OPTS).value == pytest.approx(0.0, abs=1e-9)

    def test_lambda_antidiag_zero(self):
        # true-channel rows score zero at every multiplier: both informations
        # coincide when X' determines X, pinning the sup at zero
        assert lambda_bound(ANTI, BSC01, OPTS).value == pytest.approx(0.0, abs=1e-8)

    def test_lambda_matches_psi_at_product(self):
        assert lambda_bound(PROD, BSC01, OPTS).value == pytest.approx(
            psi(PROD, BSC01).value, abs=1e-4)

    def test_phi_nonnegative_feasible_point(self):
        for rr in (0.0, 0.1):
            assert phi_bound(PROD, rr, BSC01, OPTS).value >= -1e-12

    def test_phi_antidiag_rate_zero(self):
        assert phi_bound(ANTI, 0.0, BSC01, OPTS).value == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("ch", [BSC01, Channel.from_rows([[1.0, 0.0], [0.2, 0.8]])],
                             ids=["bsc01", "z"])
    @pytest.mark.parametrize("q", [PROD, Joint2(np.array([[0.3, 0.2], [0.2, 0.3]]))],
                             ids=["product", "tilted"])
    def test_probe_memo_changes_no_bit(self, ch, q, monkeypatch):
        class NeverHits(dict):
            writes = 0

            def __contains__(self, key):
                return False

            def __setitem__(self, key, value):
                self.writes += 1
                super().__setitem__(key, value)

        def solve(prob):
            return prob.solve("balance"), prob.solve("rate", 0.01)

        memo = _TiltedProblem(q, ch, OPTS)
        bypass = _TiltedProblem(q, ch, OPTS)
        monkeypatch.setattr(bypass, "_probes", NeverHits())
        assert solve(memo) == solve(bypass)
        assert len(memo._probes) < bypass._probes.writes  # the memo did hit

    @pytest.mark.parametrize("ch", [BSC01, Channel.from_rows([[1.0, 0.0], [0.2, 0.8]]),
                                    Channel.from_rows([[1.0, 0.0], [0.0, 1.0]])],
                             ids=["bsc01", "z", "noiseless"])
    @pytest.mark.parametrize("q", [PROD, ANTI, Joint2(np.array([[0.3, 0.2], [0.2, 0.3]]))],
                             ids=["product", "anti", "tilted"])
    def test_bracket_equals_its_old_loop(self, ch, q):
        """solve's multiplier search (search.sup_ray) returns what its own
        loop did, for both penalties and rates on either side of I(Q_X;W)."""
        new, old = _TiltedProblem(q, ch, OPTS), _TiltedProblem(q, ch, OPTS)
        for penalty, rate in (("balance", 0.0), ("rate", 0.0), ("rate", 0.01), ("rate", 0.6)):
            got, want = new.solve(penalty, rate), _tilted_solve_reference(old, penalty, rate)
            assert got == want and _types(got) == _types(want), (penalty, rate)

    @pytest.mark.parametrize("peak", [0.0, 3.0, 12.0, 20.0, 100.0],
                             ids=["at 0", "interior", "past 8", "past 16", "past 64"])
    def test_bracket_peaks_equal_the_old_loop(self, peak):
        """The same, on a synthetic mesh whose inner minimum at multiplier
        mu is min(mu, 2 peak - mu): two candidates, every other one far
        above, and no polish. Past 64 is a boundary hit."""
        results = []
        for solve in (_TiltedProblem.solve, _tilted_solve_reference):
            prob = _TiltedProblem(PROD, BSC01, OPTS)
            prob.kl = np.full(prob.kl.size, 1e3)
            prob.i_x, prob.i_xp = np.zeros(prob.kl.size), np.zeros(prob.kl.size)
            prob.kl[[5, 9]] = 0.0, 2.0 * peak
            prob.i_x[[5, 9]] = 1.0, -1.0
            prob._solve_inner = lambda mu, penalty, rate, prob=prob: float(
                (prob.kl + mu * prob._drive(penalty, rate)).min())
            results.append(solve(prob, "balance"))
        got, want = results
        assert got == want and _types(got) == _types(want)
        assert got.hit_boundary == (peak > 64.0)
        if peak <= 64.0:
            assert got.arg == pytest.approx(peak, abs=1e-2)
            assert got.value == pytest.approx(peak, abs=1e-2)

    @pytest.mark.parametrize("q", [PROD, Joint2(np.array([[0.3, 0.2], [0.2, 0.3]]))],
                             ids=["product", "tilted"])
    def test_mesh_arrays_last_through_the_solves(self, q):
        """i_x, i_xp and kl are the global mesh's build arrays, which the
        problem holds alone: solving lambda and phi, and the other bounds'
        meshes between them, leave them as built."""
        prob = _TiltedProblem(q, BSC01, OPTS)
        kept = [a.copy() for a in (prob.i_x, prob.i_xp, prob.kl)]
        for step in (lambda: prob.solve("balance"), lambda: theta(q, 0.01, BSC01, UNIF, OPTS),
                     lambda: gamma(q, 0.01, MMI, BSC01, UNIF, OPTS),
                     lambda: prob.solve("rate", 0.01)):
            step()
            for got, want in zip((prob.i_x, prob.i_xp, prob.kl), kept):
                assert got.tobytes() == want.tobytes()

    def test_holds_only_its_three_arrays(self):
        """On the 2x3 channel the k = 5 mesh has 194,481 candidates. The
        problem keeps I(X;Y), I(X';Y) and kl per candidate (4.5 MiB), not the
        mesh's output marginals and scratch buffers (12.1 MiB in all)."""
        ch = Channel.from_rows([[0.8, 0.15, 0.05], [0.05, 0.15, 0.8]])
        q = Joint2(np.full((2, 2), 0.25))
        _TiltedProblem(q, ch, OPTS)  # the first one also imports and caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            prob = _TiltedProblem(q, ch, OPTS)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        n = prob.mesh.size()
        assert n == 194_481
        assert sum(a.nbytes for a in (prob.i_x, prob.i_xp, prob.kl)) == 3 * 8 * n
        assert held <= 3 * 8 * n + 2**18, f"{held / 2**20:.2f} MiB held"

    def test_permutation_equivariance(self):
        # relabel X symbols consistently in coupling, composition, channel
        perm = [1, 0]
        ch_p = Channel.from_rows(BSC01.w[perm, :])
        for q in (PROD, Joint2(np.array([[0.125, 0.375], [0.375, 0.125]]))):
            q_p = Joint2(q.probs[np.ix_(perm, perm)])
            assert psi(q, BSC01).value == pytest.approx(psi(q_p, ch_p).value, abs=1e-8)
            assert lambda_bound(q, BSC01, OPTS).value == pytest.approx(
                lambda_bound(q_p, ch_p, OPTS).value, abs=1e-5)
            assert theta(q, 0.1, BSC01, UNIF, OPTS).value == pytest.approx(
                theta(q_p, 0.1, ch_p, UNIF, OPTS).value, abs=1e-5)
            assert phi_bound(q, 0.1, BSC01, OPTS).value == pytest.approx(
                phi_bound(q_p, 0.1, ch_p, OPTS).value, abs=1e-5)


class _SecondBuild(Exception):
    """Stops a solve at its second mesh build."""


@pytest.mark.parametrize("rows, cols", [
    ([[0.9, 0.1], [0.1, 0.9]], 1),
    ([[0.8, 0.15, 0.05], [0.05, 0.15, 0.8]], 3),
], ids=["2x2", "2x3"])
def test_each_build_makes_the_qy_columns_its_threshold_reads(monkeypatch, rows, cols):
    """Gamma's and theta's meshes make the Q_Y columns a(R, Q_Y) reads:
    Q_Y(0) alone for the binary lattice, every column for the threshold
    solves; lambda's and phi's mesh, which reads no threshold, makes none.
    Each solve stops at its second mesh: the global mesh's build, then
    theta's first zoom build, or the Q_Y that gamma's first zoom stage
    (RowMesh.margin) hands its threshold."""
    made = []
    build, margin = RowMesh.build, RowMesh.margin

    def made_one(width):
        made.append(width)
        if len(made) == 2:
            raise _SecondBuild

    def spy(mesh, kind, qy_cols=None):
        arrs = build(mesh, kind, qy_cols)
        made_one(arrs["qy"].shape[1])
        return arrs

    def stage(mesh, kind, threshold, qy_cols):
        def read(qy, **scratch):
            made_one(qy.shape[1])
            return threshold(qy, **scratch)

        return margin(mesh, kind, read, qy_cols)

    monkeypatch.setattr(RowMesh, "build", spy)
    monkeypatch.setattr(RowMesh, "margin", stage)
    ch, opts = Channel.from_rows(rows), OptimizerOptions(grid_step=0.25, refine_iters=4)
    for solve in (lambda: gamma(ANTI, 0.05, ML, ch, UNIF, opts),
                  lambda: gamma(ANTI, 0.05, MMI, ch, UNIF, opts),
                  lambda: theta(ANTI, 0.05, ch, UNIF, opts)):
        made.clear()
        with pytest.raises(_SecondBuild):
            solve()
        assert made == [cols, cols]
    made.clear()
    lambda_bound(ANTI, ch, opts)
    phi_bound(ANTI, 0.05, ch, opts)
    assert made == [0]


class TestOuterBounds:
    def test_rate_zero_reduces_to_product_coupling(self):
        rp = RatePoint(0.0, UNIF)
        up = ml_upper_bound(rp, BSC01, OPTS)
        want = max(psi(PROD, BSC01).value, theta(PROD, 0.0, BSC01, UNIF, OPTS).value)
        assert up == pytest.approx(want, abs=1e-6)
        low = mmi_lower_bound(rp, BSC01, OPTS)
        want_low = max(lambda_bound(PROD, BSC01, OPTS).value,
                       phi_bound(PROD, 0.0, BSC01, OPTS).value)
        assert low == pytest.approx(want_low, abs=1e-4)

    def test_mmi_lower_drops_phi_above_information(self):
        # on BSC(0.25) I(Q_X;W) = 0.1308 < R = 0.3: phi is no relaxation
        # there, and max{lambda, phi} put the bound 4.4e-4 above trc_mmi
        ch = Channel.bsc(0.25)
        rp = RatePoint(0.3, UNIF)
        trc_mmi = trc_exponent(rp, MMI, ch, OPTS).value
        assert trc_mmi - mmi_lower_bound(rp, ch, OPTS) >= -CERT_TOL

    def test_deterministic_across_runs(self):
        rp = RatePoint(0.1, UNIF)
        assert ml_upper_bound(rp, BSC01, OPTS) == ml_upper_bound(rp, BSC01, OPTS)

    @pytest.mark.parametrize("rows, rate", [
        ([[0.9, 0.1], [0.1, 0.9]], 0.01), ([[0.9, 0.1], [0.1, 0.9]], 0.1),
        ([[0.9, 0.1], [0.1, 0.9]], 0.3), ([[0.75, 0.25], [0.1, 0.9]], 0.2)],
        ids=["bsc-R0.01", "bsc-R0.1", "bsc-R0.3", "asym-R0.2"])
    def test_caps_change_no_bit(self, rows, rate, monkeypatch):
        # the outer bounds skip theta and phi where their caps say they
        # cannot beat psi and lambda; solved everywhere (caps and the
        # theta = 0 exit off, on a fresh channel's memos) they must agree
        opts = OptimizerOptions(refine_iters=4)
        rp = RatePoint(rate, UNIF)
        caps = {"theta": [], "phi": []}

        def recorded(name, cap):
            def rec(q_xx, *args):
                caps[name].append((q_xx, cap(q_xx, *args)))
                return caps[name][-1][1]
            return rec

        monkeypatch.setattr(duals, "_theta_cap", recorded("theta", duals._theta_cap))
        monkeypatch.setattr(duals, "_phi_cap", recorded("phi", duals._phi_cap))
        ch = Channel.from_rows(rows)
        got = ml_upper_bound(rp, ch, opts), mmi_lower_bound(rp, ch, opts)

        def grid_always(self):
            self._add_rows(self.ctx.ch.w[self.mesh.x_of])
            return self._add_mesh(self.mesh)

        grid = cached_property(grid_always)
        grid.__set_name__(duals._ThetaProblem, "_grid")
        monkeypatch.setattr(duals, "_theta_cap", lambda *args: math.inf)
        monkeypatch.setattr(duals, "_phi_cap", lambda *args: math.inf)
        monkeypatch.setattr(duals._ThetaProblem, "_grid", grid)
        full = Channel.from_rows(rows)
        assert got == (ml_upper_bound(rp, full, opts), mmi_lower_bound(rp, full, opts))
        # where a cap fired, the solve it skipped could not move the max
        # (theta and phi are memo hits on the full run's channel); at R = 0.3
        # and on the asymmetric channel none fires
        for q, cap in caps["theta"]:
            p = psi(q, full).value
            if cap < p - 1e-12 * max(1.0, p):
                assert theta(q, rate, full, UNIF, opts).value <= p
        for q, cap in caps["phi"]:
            lm = lambda_bound(q, full, opts).value
            if cap <= lm:
                assert phi_bound(q, rate, full, opts).value <= lm

    def test_certify_solves_theta_and_phi_on_the_grid_only(self, monkeypatch):
        # on BSC(0.1) at R = 0.01 neither outer bound needs theta or phi
        # past the three couplings of certify's own table
        runs = {"theta": 0, "phi": 0}

        def counted(name, solve, wanted=lambda *args: True):
            def run(self, *args):
                runs[name] += wanted(*args)
                return solve(self, *args)
            return run

        monkeypatch.setattr(duals._ThetaProblem, "solve",
                            counted("theta", duals._ThetaProblem.solve))
        monkeypatch.setattr(duals._TiltedProblem, "solve",
                            counted("phi", duals._TiltedProblem.solve,
                                    lambda penalty, *rest: penalty == "rate"))
        certify_theorem1(RatePoint(0.01, UNIF), Channel.bsc(0.1), OPTS)
        assert 0 < runs["theta"] <= 3
        assert 0 < runs["phi"] <= 3


class TestCertify:
    def test_cross_margins_reported_not_judged(self):
        # at R = 0 the outer chain closes on the product coupling; the
        # antidiagonal's lambda - psi = -d_B (lambda = 0, psi = d_B there)
        # carries no sign and must not fail the certification
        rep = certify_theorem1(RatePoint(0.0, UNIF), BSC01, OPTS)
        assert rep.margin_lambda_psi == pytest.approx(-PSI_BHAT[0.1], abs=1e-4)
        for c in rep.per_coupling:
            assert c.phi_judged
            assert min(c.judged_margins()) >= -rep.certify_tol
        assert rep.passed

    def test_noiseless_channel_flagged_not_crashed(self):
        ident = Channel.from_rows([[1.0, 0.0], [0.0, 1.0]])
        rep = certify_theorem1(RatePoint(0.35, UNIF), ident, OPTS)
        assert [f["quantity"] for f in rep.flags].count("psi") == 2
        # lambda = 0 and psi = +inf at the antidiagonals
        assert rep.margin_lambda_psi == -math.inf
        assert not rep.passed
        # the file keeps the infinities as the CLI's strings
        doc = json.loads(json_dumps(rep.to_dict()))
        assert doc["margins"]["lambda_minus_psi"] == "-inf"
        assert (doc["psi"], doc["lambda"]) == ("+inf", 0)
