import itertools
import math

import numpy as np
import pytest

from explab.prob import (
    Channel,
    CondDist,
    Dist,
    Joint2,
    ProbError,
    conditional_entropy,
    coupling_grid,
    empirical_joint,
    entropy,
    kl_divergence,
    mutual_information,
    simplex_grid_array,
    simplex_grid_size,
)

LOG2 = math.log(2.0)
# -0.9 log 0.9 - 0.1 log 0.1, cross-checked with mpmath at 50 digits
H_09_01 = 0.32508297339144824
# log 2 - H_b(0.1), same cross-check
I_BSC01 = 0.36806420716849707


def bsc(p):
    return Channel.bsc(p)


class TestTypes:
    def test_dist_validation(self):
        with pytest.raises(ProbError):
            Dist(np.array([0.5, 0.6]))
        with pytest.raises(ProbError):
            Dist(np.array([1.5, -0.5]))
        d = Dist(np.array([0.25, 0.75]))
        assert d.probs.flags.writeable is False

    def test_joint_marginals(self):
        j = Joint2(np.array([[0.5, 0.25], [0.0, 0.25]]))
        assert np.allclose(j.marginal_row().probs, [0.75, 0.25])
        assert np.allclose(j.marginal_col().probs, [0.5, 0.5])

    def test_channel_support(self):
        z = Channel.from_rows([[1.0, 0.0], [0.5, 0.5]])
        assert z.support.tolist() == [[True, False], [True, True]]
        assert z.log_matrix[0, 1] == -math.inf

    def test_cond_dist_bad_row(self):
        with pytest.raises(ProbError):
            CondDist(np.array([[0.9, 0.2], [0.5, 0.5]]))


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(Dist.uniform(2)) == pytest.approx(LOG2, abs=1e-15)

    def test_point_mass(self):
        assert entropy(Dist.point_mass(4, 2)) == 0.0

    def test_skewed(self):
        assert entropy(Dist(np.array([0.9, 0.1]))) == pytest.approx(H_09_01, abs=1e-14)


class TestConditionalEntropy:
    def test_product_of_uniforms(self):
        j = Joint2.from_product(Dist.uniform(2), Dist.uniform(2))
        assert conditional_entropy(j) == pytest.approx(LOG2, abs=1e-15)

    def test_identity_coupling(self):
        j = Joint2(np.diag([0.5, 0.5]))
        assert conditional_entropy(j) == pytest.approx(0.0, abs=1e-15)

    def test_bsc_rows(self):
        # H(col | row) of uniform x BSC(0.1) equals H(row | col) by symmetry
        j = Joint2.from_input_and_rows(Dist.uniform(2), bsc(0.1).w)
        assert conditional_entropy(j) == pytest.approx(H_09_01, abs=1e-14)
        # brute-force double sum oracle
        m = j.probs
        col = m.sum(axis=0)
        brute = -sum(m[a, b] * math.log(m[a, b] / col[b])
                     for a in range(2) for b in range(2))
        assert conditional_entropy(j) == pytest.approx(brute, abs=1e-14)


class TestMutualInformation:
    def test_product_is_zero(self):
        j = Joint2.from_product(Dist(np.array([0.3, 0.7])), Dist(np.array([0.6, 0.4])))
        assert mutual_information(j) == pytest.approx(0.0, abs=1e-15)

    def test_identity_coupling(self):
        j = Joint2(np.diag([0.5, 0.5]))
        assert mutual_information(j) == pytest.approx(LOG2, abs=1e-15)

    def test_bsc_direct_sum_oracle(self):
        j = Joint2.from_input_and_rows(Dist.uniform(2), bsc(0.1).w)
        m = j.probs
        row, col = m.sum(axis=1), m.sum(axis=0)
        brute = sum(m[a, b] * math.log(m[a, b] / (row[a] * col[b]))
                    for a in range(2) for b in range(2))
        assert mutual_information(j) == pytest.approx(I_BSC01, abs=1e-14)
        assert mutual_information(j) == pytest.approx(brute, abs=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_identity_h_minus_hcond(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.random((3, 4))
        j = Joint2(m / m.sum())
        lhs = mutual_information(j)
        rhs = entropy(j.marginal_row()) - conditional_entropy(j)
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestKl:
    def test_equal(self):
        d = Dist(np.array([0.2, 0.8]))
        assert kl_divergence(d, d) == 0.0

    def test_point_vs_uniform(self):
        assert kl_divergence(Dist.point_mass(2, 0), Dist.uniform(2)) == pytest.approx(LOG2)

    def test_support_violation(self):
        assert kl_divergence(Dist.uniform(2), Dist.point_mass(2, 0)) == math.inf

    def test_nonnegative_exhaustive_small_grids(self):
        # every grid pair at k <= 8, dim <= 3: D >= 0, zero iff equal
        for dim, k in ((2, 8), (3, 4)):
            pts = [Dist(v) for v in simplex_grid_array(dim, k)]
            for a, b in itertools.product(pts, repeat=2):
                d = kl_divergence(a, b)
                if np.allclose(a.probs, b.probs, atol=1e-15):
                    assert d == 0.0
                else:
                    assert d > 0.0


class TestEmpiricalJoint:
    def test_diagonal(self):
        j = empirical_joint([0, 0, 1, 1], [0, 0, 1, 1])
        assert np.allclose(j.probs, [[0.5, 0.0], [0.0, 0.5]])

    def test_antidiagonal(self):
        j = empirical_joint([0, 1], [1, 0])
        assert np.allclose(j.probs, [[0.0, 0.5], [0.5, 0.0]])

    def test_hand_count(self):
        j = empirical_joint([0, 0, 0, 1], [0, 1, 0, 1])
        assert np.allclose(j.probs, [[0.5, 0.25], [0.0, 0.25]])

    def test_marginals_exact(self):
        rng = np.random.default_rng(3)
        xs = rng.integers(0, 3, size=60)
        ys = rng.integers(0, 2, size=60)
        j = empirical_joint(xs, ys, 3, 2)
        for a in range(3):
            assert j.marginal_row().probs[a] == np.count_nonzero(xs == a) / 60
        for b in range(2):
            assert j.marginal_col().probs[b] == np.count_nonzero(ys == b) / 60

    def test_length_mismatch(self):
        with pytest.raises(ProbError):
            empirical_joint([0, 1], [0])


class TestSimplexGrid:
    def test_binary_k2(self):
        pts = [tuple(row) for row in simplex_grid_array(2, 2)]
        assert pts == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]

    def test_dim1(self):
        assert [tuple(row) for row in simplex_grid_array(1, 7)] == [(1.0,)]

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_counts(self, dim, k):
        pts = simplex_grid_array(dim, k)
        assert pts.shape[0] == simplex_grid_size(dim, k) == math.comb(k + dim - 1, dim - 1)

    def test_lexicographic(self):
        pts = simplex_grid_array(3, 4)
        as_tuples = [tuple(row) for row in pts]
        assert as_tuples == sorted(as_tuples)

    def test_cap(self):
        with pytest.raises(ProbError):
            simplex_grid_array(4, 100, cap=1000)


class TestCouplingGrid:
    def test_uniform_k4(self):
        cs = coupling_grid(Dist.uniform(2), 4)
        zs = sorted(c.probs[0, 0] for c in cs)
        assert zs == [0.0, 0.25, 0.5]

    def test_marginals_exact(self):
        q = Dist(np.array([0.25, 0.75]))
        for c in coupling_grid(q, 4):
            assert np.array_equal(c.probs.sum(axis=0), q.probs)
            assert np.array_equal(c.probs.sum(axis=1), q.probs)

    def test_degenerate_marginal(self):
        cs = coupling_grid(Dist.point_mass(2, 0), 4)
        assert len(cs) == 1
        assert cs[0].probs[0, 0] == 1.0

    def test_filter_equivalence_with_simplex_grid(self):
        # couplings are exactly the simplex_grid_array(dim^2, k) points with both
        # marginals equal to q
        q = Dist(np.array([0.5, 0.5]))
        k = 4
        expected = []
        for flat in simplex_grid_array(4, k):
            m = flat.reshape(2, 2)
            if np.allclose(m.sum(axis=0), q.probs, atol=1e-12) and \
               np.allclose(m.sum(axis=1), q.probs, atol=1e-12):
                expected.append(tuple(flat))
        got = sorted(tuple(c.probs.reshape(-1)) for c in coupling_grid(q, k))
        assert got == sorted(expected)

    def test_misaligned_composition_rejected(self):
        with pytest.raises(ProbError):
            coupling_grid(Dist(np.array([0.3, 0.7])), 4)
