import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import explab.simulate as sim
from explab.exponents import ML, MMI
from explab.prob import Channel, Dist, ProbError
from explab.simulate import (
    Codebook,
    ErrorProfile,
    GldConfig,
    empirical_trc,
    exact_error_profile,
    exact_error_profile_gld,
    expurgate_worst_half,
    sample_codebook,
)

UNIF = Dist.uniform(2)
BSC01 = Channel.bsc(0.1)


# ---------------------------------------------------------------------------
# independent oracle: plain loops over Y^n, scores from integer joint counts
# so that ties are detected exactly (no float summation-order noise)
# ---------------------------------------------------------------------------


def oracle_counts(cw, y, nx, ny):
    counts = np.zeros((nx, ny), dtype=int)
    for a, b in zip(cw, y):
        counts[a, b] += 1
    return counts


def oracle_scores(cb, ch, y, kind):
    """Per-message scores for output y; exact rationals via integer counts."""
    out = []
    for cw in cb.codewords:
        counts = oracle_counts(cw, y, ch.n_in, ch.n_out)
        if kind == "ml":
            s = 0.0
            for a in range(ch.n_in):
                for b in range(ch.n_out):
                    if counts[a, b]:
                        if ch.w[a, b] == 0:
                            s = -math.inf
                            break
                        s += counts[a, b] * math.log(ch.w[a, b])
        else:
            n = cb.n
            s = 0.0
            row = counts.sum(axis=1)
            col = counts.sum(axis=0)
            for a in range(ch.n_in):
                for b in range(ch.n_out):
                    if counts[a, b]:
                        s += (counts[a, b] / n) * math.log(
                            counts[a, b] * n / (row[a] * col[b]))
        out.append(s)
    return out, [oracle_counts(cw, y, ch.n_in, ch.n_out) for cw in cb.codewords]


def oracle_profile(cb, ch, kind, tie_split=False):
    m = cb.m_count
    pe = np.zeros(m)
    for y in itertools.product(range(ch.n_out), repeat=cb.n):
        scores, all_counts = oracle_scores(cb, ch, y, kind)
        # exact tie detection: identical integer count tables give identical
        # scores; otherwise compare floats with a tiny guard band
        best = max(scores)
        winners = [i for i, s in enumerate(scores) if s >= best - 1e-12]
        for msg in range(m):
            lik = 1.0
            for a, b in zip(cb.codewords[msg], y):
                lik *= ch.w[a, b]
            if tie_split:
                wrong = 1.0 - (1.0 / len(winners) if msg in winners else 0.0)
                pe[msg] += lik * wrong
            elif winners[0] != msg:
                pe[msg] += lik
    return pe


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


class TestSampling:
    def test_type_class_n2(self):
        seen = set()
        for seed in range(40):
            cb = sample_codebook(2, 1, UNIF, seed)
            seen.add(tuple(cb.codewords[0]))
        assert seen == {(0, 1), (1, 0)}

    def test_type_class_frequencies_n4(self):
        # C(4,2) = 6 type-class members; each frequency within 3 sigma of 1/6
        draws = 60000
        cb = sample_codebook(4, draws, UNIF, seed=123)
        keys, counts = np.unique(cb.codewords, axis=0, return_counts=True)
        assert len(keys) == 6
        p = 1.0 / 6.0
        sigma = math.sqrt(p * (1 - p) / draws)
        assert np.all(np.abs(counts / draws - p) <= 3 * sigma)

    def test_determinism(self):
        a = sample_codebook(6, 4, UNIF, seed=9)
        b = sample_codebook(6, 4, UNIF, seed=9)
        assert np.array_equal(a.codewords, b.codewords)

    def test_unrealizable_composition(self):
        with pytest.raises(ProbError):
            sample_codebook(3, 2, UNIF, seed=0)

    def test_codebook_composition_enforced(self):
        with pytest.raises(ProbError):
            Codebook(n=2, codewords=np.array([[0, 1], [1, 1]]))


# ---------------------------------------------------------------------------
# exact deterministic-decoder profiles
# ---------------------------------------------------------------------------


class TestExactProfiles:
    def test_single_message_zero(self):
        cb = Codebook(n=4, codewords=np.array([[0, 0, 1, 1]]))
        assert exact_error_profile(cb, BSC01, ML).per_message.tolist() == [0.0]

    def test_duplicate_codewords_tie_rule(self):
        cb = Codebook(n=2, codewords=np.array([[0, 1], [0, 1]]))
        prof = exact_error_profile(cb, BSC01, ML)
        assert prof.per_message.tolist() == [0.0, 1.0]

    def test_ml_against_oracle_and_hand_value(self):
        cb = Codebook(n=4, codewords=np.array([[0, 0, 1, 1], [1, 1, 0, 0]]))
        prof = exact_error_profile(cb, BSC01, ML)
        # complementary codewords: m=0 errs iff >= 3 of 4 flips (ties at
        # distance 2 go to index 0), m=1 errs iff >= 2 flips
        pe0 = 4 * 0.1**3 * 0.9 + 0.1**4
        pe1 = 6 * 0.1**2 * 0.9**2 + 4 * 0.1**3 * 0.9 + 0.1**4
        assert prof.per_message == pytest.approx([pe0, pe1], abs=1e-12)
        assert prof.per_message == pytest.approx(oracle_profile(cb, BSC01, "ml"), abs=1e-12)

    def test_mmi_against_oracle(self):
        cb = Codebook(n=4, codewords=np.array([[0, 0, 1, 1], [1, 0, 1, 0]]))
        prof = exact_error_profile(cb, BSC01, MMI)
        assert prof.per_message == pytest.approx(oracle_profile(cb, BSC01, "mmi"), abs=1e-12)

    def test_profiles_with_channel_zeros(self):
        z = Channel.from_rows([[1.0, 0.0], [0.2, 0.8]])
        cb = Codebook(n=4, codewords=np.array([[0, 1, 0, 1], [1, 0, 1, 0]]))
        prof = exact_error_profile(cb, z, ML)
        assert prof.per_message == pytest.approx(oracle_profile(cb, z, "ml"), abs=1e-12)

    def test_enumeration_cap(self):
        # |Y|^n = 2^22 is over the 2^20 cap: refused before any array is built
        cb = Codebook(n=22, codewords=np.array([[0, 1] * 11]))
        with pytest.raises(ProbError, match="cap"):
            exact_error_profile(cb, BSC01, ML)

    def test_symbol_outside_input_alphabet(self):
        cb = Codebook(n=4, codewords=[[0, 2, 1, 1], [2, 0, 1, 1]])
        with pytest.raises(ProbError, match="symbol 2 .* size 2"):
            exact_error_profile(cb, BSC01, MMI)


class TestGld:
    def test_beta_zero_uniform_posterior(self):
        cb = Codebook(n=4, codewords=np.array([[0, 0, 1, 1], [1, 1, 0, 0], [0, 1, 0, 1]]))
        prof = exact_error_profile_gld(cb, BSC01, GldConfig(metric=ML, beta=0.0))
        assert prof.per_message == pytest.approx([2 / 3] * 3, abs=1e-12)

    @pytest.mark.parametrize("rows, q_x", [
        ([[1.0, 0.0], [0.2, 0.8]], UNIF),
        ([[1.0, 0.0], [0.5, 0.5], [0.1, 0.9]], Dist.uniform(3)),
    ])
    def test_beta_zero_is_the_small_beta_limit(self, rows, q_x):
        """beta = 0 picks uniformly among the messages that can produce y.
        On the Z-channel every such message has the same likelihood; on the
        3x2 channel they differ, so small beta moves the profile by at most
        beta n max|log W| (the posterior's derivative in beta is bounded by
        the spread of the log-likelihoods)."""
        ch = Channel.from_rows(rows)
        cb = sample_codebook(6, 3, q_x, seed=1)
        prof = exact_error_profile_gld(cb, ch, GldConfig(metric=ML, beta=0.0)).per_message
        want = [0.0] * cb.m_count
        for y in itertools.product(range(ch.n_out), repeat=cb.n):
            w = [math.prod(ch.w[x, b] for x, b in zip(cw, y)) for cw in cb.codewords]
            live = sum(v > 0.0 for v in w)
            for m in range(cb.m_count):
                if w[m] > 0.0:
                    want[m] += w[m] * (1.0 - 1.0 / live)
        assert np.max(np.abs(prof - want)) <= 1e-12
        spread = np.max(np.abs(np.log(ch.w[ch.w > 0])))
        for beta in (1e-9, 1e-8, 1e-7, 1e-6):
            near = exact_error_profile_gld(cb, ch, GldConfig(metric=ML, beta=beta)).per_message
            assert np.max(np.abs(near - prof)) <= beta * cb.n * spread

    def test_large_beta_recovers_tie_split_ml(self):
        cb = Codebook(n=4, codewords=np.array([[0, 0, 1, 1], [1, 1, 0, 0]]))
        prof = exact_error_profile_gld(cb, BSC01, GldConfig(metric=ML, beta=64 * cb.n))
        want = oracle_profile(cb, BSC01, "ml", tie_split=True)
        assert prof.per_message == pytest.approx(want, abs=1e-6)

    def test_beta_near_float_max_recovers_tie_split_ml(self):
        """beta log W(y | x_m) overflows to -inf at every message of most
        outputs at beta = 1e308; the posterior is still the tie-split ML
        decision. The codebook is the CLI's for ``simulate --n 8 --M 4
        --samples 1 --seed 3 --decoder gld --beta 1e308``."""
        cb = sample_codebook(8, 4, UNIF, seed=[3, 0])
        want = oracle_profile(cb, BSC01, "ml", tie_split=True)
        for beta in (1e300, 1e308, np.finfo(float).max):
            prof = exact_error_profile_gld(cb, BSC01, GldConfig(metric=ML, beta=beta))
            assert np.max(np.abs(prof.per_message - want)) <= 1e-12, beta

    def test_factor_two_bound_every_instance(self):
        for seed in range(25):
            cb = sample_codebook(6, 4, UNIF, seed)
            ml_avg = exact_error_profile(cb, BSC01, ML).average
            # beta = 1 is the ordinary likelihood decoder: posterior ~ W(y|x_m)
            gld = exact_error_profile_gld(cb, BSC01, GldConfig(metric=ML, beta=1.0))
            assert gld.average <= 2 * ml_avg + 1e-12

    def test_ml_metric_unreachable_outputs_add_zero(self):
        """On the Z-channel most outputs are out of reach of some codewords,
        and some of every codeword: those add nothing, not 0 * (0/0). The
        codebooks are the CLI's for ``simulate --decoder gld --metric ml
        --n 8 --M 3 --samples 2 --seed 1``."""
        zch = Channel.from_rows([[1.0, 0.0], [0.2, 0.8]])
        for i in range(2):
            cb = sample_codebook(8, 3, UNIF, seed=[1, i])
            prof = exact_error_profile_gld(cb, zch, GldConfig(metric=ML, beta=1.0))
            want = [0.0] * cb.m_count
            for y in itertools.product(range(2), repeat=cb.n):
                w = [math.prod(zch.w[x, b] for x, b in zip(cw, y)) for cw in cb.codewords]
                if sum(w) == 0.0:
                    continue  # no codeword can produce y
                for m in range(cb.m_count):
                    want[m] += w[m] * (1.0 - w[m] / sum(w))
            assert np.all(np.isfinite(prof.per_message))
            assert np.max(np.abs(prof.per_message - want)) <= 1e-12

    def test_mmi_metric_gld_valid_profile(self):
        cb = sample_codebook(6, 4, UNIF, 5)
        prof = exact_error_profile_gld(cb, BSC01, GldConfig(metric=MMI))
        assert np.all(prof.per_message >= 0) and np.all(prof.per_message <= 1)


# ---------------------------------------------------------------------------
# block enumeration against the full-array formulas
# ---------------------------------------------------------------------------


def full_array_reference(cb, ch, cfg):
    """Deterministic and GLD profiles, each from the (M, |X|, |Y|, |Y|^n)
    joint counts of every output at once."""
    nx, ny, n, m = ch.n_in, ch.n_out, cb.n, cb.m_count
    t = np.arange(ny**n)
    counts = np.zeros((m, nx, ny, t.size), dtype=np.int16)
    for msg, cw in enumerate(cb.codewords):
        for i in range(n):
            digit = (t // ny**i) % ny
            for b in range(ny):
                counts[msg, cw[i], b] += digit == b
    logw = ch.log_matrix
    fin = np.where(np.isneginf(logw), 0.0, logw)
    ll = np.einsum("mabt,ab->mt", counts.astype(float), fin)
    dead = np.einsum("mabt->mt", (counts > 0) & np.isneginf(logw)[None, :, :, None])
    ll = np.where(dead > 0, -np.inf, ll)
    if cfg.metric.kind == "ml":
        scores, gn = ll, cfg.beta * ll
    else:
        nf = counts.astype(float) / n

        def xlx(v):
            return np.where(v > 0, v * np.log(np.where(v > 0, v, 1.0)), 0.0)

        scores = (xlx(nf).sum(axis=(1, 2)) - xlx(nf.sum(axis=2)).sum(axis=1)
                  - xlx(nf.sum(axis=1)).sum(axis=1))
        gn = n * scores
    probs = np.exp(ll)
    # ties to the lowest index; scores within 1e-12 (relative, at least
    # absolute) of the best are ties that rounding split apart
    best = scores.max(axis=0)
    tied = scores >= best - 1e-12 * np.maximum(1.0, np.abs(best))
    wrong = np.argmax(tied, axis=0)[None, :] != np.arange(m)[:, None]
    det = (probs * wrong).sum(axis=1)
    gmax = gn.max(axis=0)
    safe = np.where(np.isfinite(gmax), gmax, 0.0)
    expg = np.exp(gn - safe[None, :])
    # an output no codeword can produce (every n*g is -inf) adds 0
    with np.errstate(invalid="ignore"):
        gld = np.where(np.isfinite(gmax)[None, :],
                       probs * (1.0 - expg / expg.sum(axis=0)), 0.0).sum(axis=1)
    return np.clip(det, 0.0, 1.0), np.clip(gld, 0.0, 1.0)


ZCH = Channel.from_rows([[1.0, 0.0], [0.2, 0.8]])
CH23 = Channel.from_rows([[0.8, 0.15, 0.05], [0.05, 0.15, 0.8]])
CH32 = Channel.from_rows([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]])
BLOCK_CASES = {
    # a duplicate codeword and the complementary pair tie exactly at many outputs
    "bsc-ties": (BSC01, Codebook(n=6, codewords=np.array(
        [[0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1], [0, 1, 0, 1, 0, 1]]))),
    "bsc": (BSC01, sample_codebook(8, 4, UNIF, seed=3)),
    "z": (ZCH, sample_codebook(6, 4, UNIF, seed=4)),
    "2x3": (CH23, sample_codebook(4, 3, UNIF, seed=5)),
    "3x2": (CH32, sample_codebook(6, 4, Dist.uniform(3), seed=6)),
    "single": (BSC01, Codebook(n=6, codewords=np.array([[0, 1, 1, 0, 1, 0]]))),
    # 8 distinct columns (patterns 0-3 and their complements): one position
    # per type, so there are as many classes as outputs
    "distinct": (BSC01, Codebook(n=8, codewords=np.array(
        [[(p >> msg) & 1 for p in (0, 1, 2, 3, 15, 14, 13, 12)] for msg in range(4)]))),
    # types of 3, 1, 1 and 2 positions: 3^1 raw digits beat (1+1)^2 counts,
    # (3+1)^2 counts beat 3^3 raw digits, and (2+1)^2 counts tie 3^2 raw
    # digits; messages 0 and 2 are equal
    "2x3-mixed": (CH23, Codebook(n=7, codewords=np.array(
        [[0, 0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 0, 1, 1], [0, 0, 0, 0, 1, 1, 1]]))),
}


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53: the relative error
    bound of a sum of nonnegative terms that each went through at most k
    roundings."""
    u = 2.0**-53
    return k * u / (1 - k * u)


def class_sums_bound(classes):
    """Relative bound of ``class_sums`` on a nonnegative table, against the
    exact sum over all outputs. A term table[m, c] is rounded once in its
    product with ``mult_low`` (an exact integer), at most L - 1 times in
    the first contraction's adds (L = mult_low.size, whatever their order),
    once in its product with ``mult_high`` and at most H - 1 times in the
    second contraction's adds (H = mult_high.size): L + H roundings, so the
    computed sum is within gamma(L + H) of the exact one. The exactly
    rounded reference is itself within u of it: gamma(L + H + 1) in all."""
    return gamma(classes.mult_low.size + classes.mult_high.size + 1)


def record_class_sums(monkeypatch):
    """Make every ``_OutputClasses.class_sums`` call append (its value, the
    exactly rounded row sums of the materialized ``gather``, the relative
    bound) to the returned list. The gathered values are the per-output
    error mass; ``math.fsum`` rounds their exact sum once."""
    records = []
    class_sums = sim._OutputClasses.class_sums

    def recording(self, table):
        got = class_sums(self, table)
        full = self.gather(table, np.empty((table.shape[0], self.ch.n_out**self.cb.n)))
        exact = np.array([math.fsum(row) for row in full])
        records.append((got, exact, class_sums_bound(self)))
        return got

    monkeypatch.setattr(sim._OutputClasses, "class_sums", recording)
    return records


class TestBlockEnumeration:
    """Blocks of |Y| and |Y|^2 classes and outputs, so that every codebook
    spans many blocks, give the same bits as one block, and the values of the
    full-array formulas (the profiles within their summation bounds)."""

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    @pytest.mark.parametrize("kind", ["ml", "mmi"])
    def test_many_blocks_bit_identical(self, monkeypatch, case, kind):
        """Bit-identical across blockings. The profiles sum each output class
        once, weighted by its size, where the full-array formulas sum every
        output in numpy's pairwise order: both are within gamma of the exact
        sum of the same nonnegative values (``class_sums_bound``; at most
        |Y|^n - 1 roundings for the reference), so they differ by at most
        2 gamma(sum) of it."""
        ch, cb = BLOCK_CASES[case]
        metric, cfg = (ML, GldConfig(metric=ML, beta=1.0)) if kind == "ml" else (MMI, GldConfig(metric=MMI))

        def run():
            return (exact_error_profile(cb, ch, metric).per_message,
                    exact_error_profile_gld(cb, ch, cfg).per_message)

        one_block = run()
        assert ch.n_out**cb.n <= sim._BLOCK_OUTPUTS
        ref = full_array_reference(cb, ch, cfg)
        classes = sim._OutputClasses(cb, ch)
        bound = 2 * gamma(classes.mult_low.size + classes.mult_high.size + ch.n_out**cb.n)
        for power in (1, 2):
            monkeypatch.setattr(sim, "_BLOCK_OUTPUTS", ch.n_out**power)
            blocked = run()
            for got, single in zip(blocked, one_block):
                assert np.array_equal(got, single)
            for got, want in zip(blocked, ref):
                assert np.all(np.abs(got - want) <= bound * want)
            assert np.max(np.abs(blocked[0] - oracle_profile(cb, ch, kind))) <= 1e-12

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_each_type_class_scored_once(self, monkeypatch, case):
        """The type classes scored are the joint type classes of (x_m, y):
        each joint type is scored once, for all messages and output classes.
        Every row N_m(a, .) of a joint type is a composition of the n_a
        positions with x_m = a into |Y| parts."""
        ch, cb = BLOCK_CASES[case]
        scored = []
        log_likelihoods = sim._log_likelihoods

        def counting(counts, ch):
            scored.append(counts.shape[-1])
            return log_likelihoods(counts, ch)

        monkeypatch.setattr(sim, "_log_likelihoods", counting)
        exact_error_profile(cb, ch, ML)
        comp = np.bincount(cb.codewords[0], minlength=ch.n_in)
        assert sum(scored) == math.prod(math.comb(int(na) + ch.n_out - 1, ch.n_out - 1) for na in comp)
        if case == "2x3-mixed":
            # n_0 = 4 and n_1 = 3: 15 * 10 joint types, where the classes
            # are 10 * 6 * 3 * 3 (10 compositions of 3 positions, 6 of 2 and
            # 3 of 1) in a code space of 16 * 9 * 3 * 3
            assert sum(scored) == 15 * 10
            classes = sim._OutputClasses(cb, ch)
            assert math.prod(local.size for _, _, local, _, _ in classes.types) == 10 * 6 * 3 * 3
            assert classes.size == 16 * 9 * 3 * 3

    @pytest.mark.parametrize("kind", ["ml", "mmi"])
    def test_row_sums_equal_the_materialized_sum(self, monkeypatch, kind):
        """per_message, under the deterministic decoder and the GLD, is the
        row sum of the (M, |Y|^n) per-output error mass: within
        ``class_sums_bound`` of its exactly rounded value. The benchmark's
        size: 2^20 outputs."""
        cb = sample_codebook(20, 4, UNIF, seed=11)
        metric, cfg = (ML, GldConfig(metric=ML, beta=1.0)) if kind == "ml" else (MMI, GldConfig(metric=MMI))
        records = record_class_sums(monkeypatch)
        profiles = (exact_error_profile(cb, BSC01, metric), exact_error_profile_gld(cb, BSC01, cfg))
        assert len(records) == 2
        for prof, (got, exact, bound) in zip(profiles, records):
            assert np.all(exact > 0.0)
            assert np.all(np.abs(got - exact) <= bound * exact)
            assert np.array_equal(prof.per_message, np.clip(got, 0.0, 1.0))

    @pytest.mark.parametrize("power", [2, 4, None])
    @pytest.mark.parametrize("kind", ["ml", "mmi"])
    def test_row_sums_across_block_edges(self, monkeypatch, power, kind):
        """3^9 outputs on the 2x3 channel, in blocks of 3^2, 3^4 or (by
        default) 3^7 classes and outputs: the row sums are within
        ``class_sums_bound`` of the exactly rounded sums, and the same bits
        whatever the blocking."""
        cb = sample_codebook(9, 4, Dist(np.array([1 / 3, 2 / 3])), seed=12)
        metric, cfg = (ML, GldConfig(metric=ML, beta=1.0)) if kind == "ml" else (MMI, GldConfig(metric=MMI))

        def run():
            return [exact_error_profile(cb, CH23, metric).per_message,
                    exact_error_profile_gld(cb, CH23, cfg).per_message]

        default = run()
        if power is not None:
            monkeypatch.setattr(sim, "_BLOCK_OUTPUTS", 3**power)
        records = record_class_sums(monkeypatch)
        for got, want in zip(run(), default):
            assert np.array_equal(got, want)
        assert len(records) == 2
        for got, exact, bound in records:
            assert np.all(np.abs(got - exact) <= bound * exact)

    def test_no_output_is_visited(self, monkeypatch):
        """The profiles never map classes onto outputs: with ``gather``
        raising, the n = 20 codebook's ML, MMI and GLD profiles still run."""
        ch, cb = REFERENCE_CASES["bsc-n20"]

        def refuse(self, table, out):
            raise AssertionError("an error profile enumerated the outputs")

        monkeypatch.setattr(sim._OutputClasses, "gather", refuse)
        for metric in (ML, MMI):
            assert exact_error_profile(cb, ch, metric).per_message.shape == (4,)
        for cfg in (GldConfig(metric=ML, beta=1.0), GldConfig(metric=MMI)):
            assert exact_error_profile_gld(cb, ch, cfg).per_message.shape == (4,)

    def test_memory_is_one_float_row_per_message_plus_blocks(self):
        # n = 18, M = 4 under MMI peaked at 148 MiB with every output's
        # (M, |X|, |Y|, |Y|^n) counts built at once. The per-class table, one
        # float row per message (1 MiB here), is the only array that grows
        # with the outputs; a block float array is M |X| |Y| |Y|^k float64
        # (0.5 MiB) and the scoring of one block holds under six of them.
        # Bound: the table plus 8 block arrays, which any (M, |Y|^n) float64
        # array (8 MiB) exceeds.
        n, m = 18, 4
        cb = sample_codebook(n, m, UNIF, seed=1)
        table = m * sim._OutputClasses(cb, BSC01).size * 8
        block = m * 2 * 2 * sim._BLOCK_OUTPUTS * 8
        bound = table + 8 * block
        assert m * 2**n * 8 > bound
        for profile in (lambda: exact_error_profile(cb, BSC01, MMI),
                        lambda: exact_error_profile_gld(cb, BSC01, GldConfig())):
            tracemalloc.start()
            try:
                prof = profile()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert prof.per_message.shape == (m,)
            assert peak <= bound, f"peak {peak / 2**20:.1f} MiB > bound {bound / 2**20:.1f} MiB"

    def test_memory_of_an_incompressible_codebook(self):
        # n = 16 distinct columns: every type class holds one position, so
        # there are as many classes as outputs and the per-class table is as
        # large as an (M, |Y|^n) array. Bound: the table (4 MiB) and 8 block
        # arrays of M |X| |Y| 2^12 float64 (8 MiB). The scoring of a block
        # under MMI (9.6 MiB peak measured) outweighs the table plus one more
        # (M, |Y|^n) array, so here the bound checks the scoring.
        n, m = 16, 8
        patterns = list(range(8)) + [255 - p for p in range(8)]
        cb = Codebook(n=n, codewords=np.array(
            [[(p >> msg) & 1 for p in patterns] for msg in range(m)]))
        assert len({tuple(col) for col in cb.codewords.T}) == n
        table = m * 2**n * 8
        block = m * 2 * 2 * sim._BLOCK_OUTPUTS * 8
        bound = table + 8 * block
        tracemalloc.start()
        try:
            prof = exact_error_profile(cb, BSC01, MMI)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prof.per_message.shape == (m,)
        assert peak <= bound, f"peak {peak / 2**20:.1f} MiB > bound {bound / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# joint-type tables against per-class scoring
# ---------------------------------------------------------------------------


def _blocks_reference(self, kind):
    """_OutputClasses.blocks as it was before the joint-type tables: the
    (M, |X|, |Y|) joint counts of every class are built and scored, in blocks
    of 2^12 classes whatever ``_BLOCK_OUTPUTS`` is. The last block takes a
    lone remaining class, since numpy sums the cells of a single column in
    another order."""
    cb, ch = self.cb, self.ch
    count = math.prod(local.size for _, _, local, _, _ in self.types)
    edges = list(range(0, count, 2**12)) + [count]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    for lo, hi in zip(edges, edges[1:]):
        rest = np.arange(lo, hi)
        codes = np.zeros(rest.size, dtype=np.int64)
        counts = np.zeros((cb.m_count, ch.n_in, ch.n_out, rest.size), dtype=np.int16)
        for col, local_counts, local, _, stride in self.types:
            rest, idx = np.divmod(rest, local.size)
            codes += stride * np.take(local, idx)
            k = np.take(local_counts, idx, axis=1)
            for m, a in enumerate(col):
                counts[m, a] += k
        ll = sim._log_likelihoods(counts, ch)
        scores = ll if kind == "ml" else sim._empirical_mi(counts, cb.n)
        yield codes, scores, np.exp(ll)


CH44 = Channel.from_rows(np.full((4, 4), 0.1) + 0.6 * np.eye(4))
REFERENCE_CASES = dict(BLOCK_CASES) | {
    # x_2 never occurs: its rows are one composition of 0 positions
    "zero-entry": (CH32, sample_codebook(6, 4, Dist(np.array([0.5, 0.5, 0.0])), seed=7)),
    # n_0 = 1: rows N_m(0, .) are coded by their covering type's raw digit
    # (3 codes, not 2^2 count codes), so each message has its own table but
    # messages 0 and 3, which are equal
    "2x3-subcode": (CH23, sample_codebook(8, 4, Dist(np.array([1 / 8, 7 / 8])), seed=8)),
    # n_a = 1 or 2 and |Y| = 4: every row is coded by its covering types
    "4x4-subcode": (CH44, sample_codebook(6, 3, Dist(np.array([1, 1, 2, 2]) / 6), seed=9)),
    "bsc-n20": (BSC01, sample_codebook(20, 4, UNIF, seed=10)),
}


def _every_output(cb, ch):
    """sha256 of per_message under ML, MMI and the GLD (ML metric at beta 0
    and 1, MMI metric)."""
    out = [exact_error_profile(cb, ch, metric).per_message for metric in (ML, MMI)]
    for cfg in (GldConfig(metric=ML, beta=0.0), GldConfig(metric=ML, beta=1.0), GldConfig(metric=MMI)):
        out.append(exact_error_profile_gld(cb, ch, cfg).per_message)
    return [hashlib.sha256(a.tobytes()).hexdigest() for a in out]


class TestJointTypeTables:
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_bit_identical_to_per_class_scoring(self, monkeypatch, case):
        ch, cb = REFERENCE_CASES[case]
        got = {None: _every_output(cb, ch)}
        if case != "bsc-n20":  # blocks of |Y| and |Y|^2 classes and table entries
            for power in (1, 2):
                monkeypatch.setattr(sim, "_BLOCK_OUTPUTS", ch.n_out**power)
                got[power] = _every_output(cb, ch)
            monkeypatch.undo()
        monkeypatch.setattr(sim._OutputClasses, "blocks", _blocks_reference)
        want = _every_output(cb, ch)
        for power, hashes in got.items():
            assert hashes == want, power

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_multiplicities_count_the_outputs(self, case):
        """mult(c), the outer product of ``mult_high`` and ``mult_low``, is
        the number of outputs whose class code is c, counted over all |Y|^n
        outputs; it sums to |Y|^n exactly."""
        ch, cb = REFERENCE_CASES[case]
        classes = sim._OutputClasses(cb, ch)
        outputs = ch.n_out**cb.n
        codes = classes.gather(np.arange(classes.size)[None], np.empty((1, outputs), dtype=np.int64))
        count = np.bincount(codes[0], minlength=classes.size)
        mult = np.multiply.outer(classes.mult_high, classes.mult_low).ravel()
        assert np.array_equal(mult, count)
        assert mult.sum() == outputs

    @pytest.mark.parametrize("case, tables", [("2x3-subcode", 3), ("4x4-subcode", 3), ("bsc-n20", 1)])
    def test_a_table_per_row_coding(self, case, tables):
        """Messages share a table when their rows are coded alike; every
        table has at most ``size`` entries."""
        ch, cb = REFERENCE_CASES[case]
        classes = sim._OutputClasses(cb, ch)
        assert len(classes.tables) == tables
        ends = [offset for offset, _ in classes.tables[1:]] + [classes.entries]
        assert all(end - offset <= classes.size for (offset, _), end in zip(classes.tables, ends))
        if case == "bsc-n20":  # n_0 = n_1 = 10, every row count-coded
            assert classes.entries == 11 * 11

    @pytest.mark.parametrize("rows, n, m, q_x", [
        (CH23.w, 12, 4, UNIF),
        # rows N_m(a, .) in radix n_a + 1 would take 4^3 4^3 3^3 3^3 = 2.99M
        # entries per table, more than the 4^10 outputs
        (CH44.w, 10, 2, Dist(np.array([3, 3, 2, 2]) / 10)),
    ], ids=["2x3", "4x4"])
    def test_memory_of_the_tables(self, rows, n, m, q_x):
        """The joint-type tables (a score and a probability per entry) have
        at most as many entries as the per-class table, M * size. Bound: the
        per-class table, the two joint-type arrays and 8 block arrays of
        max(M, |X| |Y|) (2^12 + 1) float64. On the 4x4 channel, tables with
        every row in radix n_a + 1 would exceed it."""
        ch = Channel.from_rows(rows)
        cb = sample_codebook(n, m, q_x, seed=1)
        classes = sim._OutputClasses(cb, ch)
        assert classes.entries <= m * classes.size
        table = m * classes.size * 8
        block = max(m, ch.n_in * ch.n_out) * (sim._BLOCK_OUTPUTS + 1) * 8
        bound = table + 2 * classes.entries * 8 + 8 * block
        comp = np.bincount(cb.codewords[0], minlength=ch.n_in)
        radix = math.prod((int(na) + 1) ** (ch.n_out - 1) for na in comp)
        if ch.n_out == 4:
            assert table + 2 * radix * 8 > bound
        for metric in (ML, MMI):
            tracemalloc.start()
            try:
                prof = exact_error_profile(cb, ch, metric)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert prof.per_message.shape == (m,)
            assert peak <= bound, f"peak {peak / 2**20:.1f} MiB > bound {bound / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# decisions and block writes against their plain forms
# ---------------------------------------------------------------------------


def decisions_reference(scores):
    """The lowest index in the tie band, as the argmax of the (M, B) band
    mask over the messages."""
    best = scores.max(axis=0)
    return np.argmax(scores >= best - sim._TIE_RTOL * np.maximum(1.0, np.abs(best)), axis=0)


def _columns_reference(self, table, kind):
    """``_OutputClasses.columns`` with every block written by index: each
    block fills a new array, then table[:, codes] = it."""
    for codes, scores, probs in self.blocks(kind):
        out = np.empty(scores.shape)
        yield out, scores, probs
        table[:, codes] = out


class TestDecisions:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_equals_the_argmax_of_the_tie_band(self, m):
        """Random (M, B) scores at magnitudes below and above 1, with exact
        ties, rows just inside, on and just outside the band, -inf entries
        and all -inf columns."""
        rng = np.random.default_rng(m)
        b = 700
        scores = rng.normal(size=(m, b)) * rng.choice([1e-3, 1.0, 50.0], size=b)
        best = scores.max(axis=0)
        tol = sim._TIE_RTOL * np.maximum(1.0, np.abs(best))
        # per column group: the offsets, in band widths, below the best that
        # random rows are moved to
        for group, offset in enumerate([0.0, 0.5, 1.0, 2.0, 1e3]):
            cols = np.arange(group * 100, (group + 1) * 100)
            rows = rng.integers(0, m, size=(2, cols.size))
            for r in rows:
                scores[r, cols] = best[cols] - offset * tol[cols]
        scores[rng.integers(0, m, size=100), np.arange(500, 600)] = -np.inf
        scores[:, 600:] = -np.inf
        got = sim._decisions(scores)
        assert got.shape == (b,)
        assert np.array_equal(got, decisions_reference(scores))
        assert np.all(got[600:] == 0)
        if m > 1:  # the band decides columns a plain argmax decides otherwise
            assert np.any(got[:300] != np.argmax(scores[:, :300], axis=0))


CH24 = Channel.from_rows([[0.6, 0.2, 0.1, 0.1], [0.1, 0.1, 0.2, 0.6]])
ORDER_CASES = {
    "bsc": (BLOCK_CASES["bsc"], 2**2),
    "2x3-mixed": (BLOCK_CASES["2x3-mixed"], 3),
    # types of 3, 1, 1, 1 and 1 positions: (3 + 1)^3 counts tie 4^3 raw digits
    "2x4": ((CH24, Codebook(n=7, codewords=np.array(
        [[0, 0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 0, 1, 1], [0, 0, 0, 1, 1, 0, 1]]))), 4),
}


class TestBlockOrder:
    @pytest.mark.parametrize("case", sorted(ORDER_CASES))
    def test_blocks_tile_the_class_codes_in_ascending_order(self, monkeypatch, case):
        """In blocks of a few classes, each class code comes once, in
        ascending order, and a block is written as a table slice exactly
        where its codes are one run: always on |Y| = 2, and on |Y| >= 3 but
        where a count-coded type leaves gaps. The profiles equal those of
        index writes and argmax decisions to the byte."""
        (ch, cb), block = ORDER_CASES[case]
        monkeypatch.setattr(sim, "_BLOCK_OUTPUTS", block)
        blocks, columns = sim._OutputClasses.blocks, sim._OutputClasses.columns
        codes_seen, paths = [], {"slice": 0, "index": 0}

        def recording(self, kind):
            for codes, scores, probs in blocks(self, kind):
                codes_seen.append(codes)
                yield codes, scores, probs

        def counting(self, table, kind):
            for out, scores, probs in columns(self, table, kind):
                paths["slice" if np.shares_memory(out, table) else "index"] += 1
                yield out, scores, probs

        monkeypatch.setattr(sim._OutputClasses, "blocks", recording)
        monkeypatch.setattr(sim._OutputClasses, "columns", counting)
        exact_error_profile(cb, ch, ML)
        classes = sim._OutputClasses(cb, ch)
        mult = np.multiply.outer(classes.mult_high, classes.mult_low).ravel()
        runs = sum(int(c[-1] - c[0]) == c.size - 1 for c in codes_seen)
        assert len(codes_seen) > 4
        assert all(np.all(np.diff(c) > 0) for c in codes_seen)
        assert np.array_equal(np.sort(np.concatenate(codes_seen)), np.flatnonzero(mult))
        assert paths == {"slice": runs, "index": len(codes_seen) - runs}
        if ch.n_out == 2:
            assert paths["index"] == 0
        else:
            assert paths["slice"] > 0 and paths["index"] > 0
        got = _every_output(cb, ch)
        monkeypatch.setattr(sim._OutputClasses, "columns", _columns_reference)
        monkeypatch.setattr(sim, "_decisions", decisions_reference)
        assert _every_output(cb, ch) == got


class TestDecoderInvariants:
    @pytest.mark.parametrize("seed", range(12))
    def test_ml_beats_mmi_average(self, seed):
        cb = sample_codebook(6, 4, UNIF, seed)
        ml_avg = exact_error_profile(cb, BSC01, ML).average
        mmi_avg = exact_error_profile(cb, BSC01, MMI).average
        assert ml_avg <= mmi_avg + 1e-12 <= 1 + 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_mmi_equals_min_conditional_entropy(self, seed):
        # argmax empirical MI == argmin empirical H(X|Y) for every output,
        # because fixed composition makes H(X) constant across codewords
        cb = sample_codebook(5, 4, Dist(np.array([0.6, 0.4])), seed)
        ch = BSC01
        for y in itertools.product(range(2), repeat=cb.n):
            scores, counts = oracle_scores(cb, ch, y, "mmi")
            hcond = []
            for cnt in counts:
                h = 0.0
                col = cnt.sum(axis=0)
                for a in range(2):
                    for b in range(2):
                        if cnt[a, b]:
                            h -= (cnt[a, b] / cb.n) * math.log(cnt[a, b] / col[b])
                hcond.append(h)
            assert int(np.argmax(scores)) == int(np.argmin(hcond))

    @pytest.mark.parametrize("seed", range(6))
    def test_y_relabel_invariance(self, seed):
        cb = sample_codebook(5, 3, Dist(np.array([0.6, 0.4])), seed)
        perm = [1, 0]
        swapped = Channel.from_rows(BSC01.w[:, perm])
        for kind, metric in (("ml", ML), ("mmi", MMI)):
            base = oracle_profile(cb, BSC01, kind)
            prof = exact_error_profile(cb, BSC01, metric).per_message
            prof_sw = exact_error_profile(cb, swapped, metric).per_message
            assert prof == pytest.approx(base, abs=1e-12)
            assert prof_sw == pytest.approx(prof, abs=1e-12)


class TestExpurgation:
    def test_markov_guarantee_random_instances(self):
        for seed in range(30):
            cb = sample_codebook(6, 8, UNIF, seed)
            prof = exact_error_profile(cb, BSC01, ML)
            kept = expurgate_worst_half(cb, prof)
            assert kept.m_count == 4
            recomputed = exact_error_profile(kept, BSC01, ML)
            assert recomputed.max <= 2 * prof.average + 1e-15

    def test_profile_example(self):
        prof = ErrorProfile(per_message=np.array([0.9, 0.1, 0.1, 0.1]))
        assert prof.average == pytest.approx(0.3)
        cb = Codebook(n=4, codewords=np.array(
            [[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0], [1, 0, 0, 1]]))
        kept = expurgate_worst_half(cb, prof)
        # ceil(4/2) = 2 kept: the first two 0.1 entries, in original order;
        # their max 0.1 clears the 2 * average = 0.6 guarantee with slack
        assert np.array_equal(kept.codewords, cb.codewords[1:3])
        assert prof.per_message[1:3].max() <= 2 * prof.average

    def test_profile_rejects_nan_and_out_of_range(self):
        for bad in ([0.1, math.nan], [0.1, -0.2], [1.5]):
            with pytest.raises(ProbError):
                ErrorProfile(per_message=np.array(bad))

    def test_single_message_unchanged(self):
        cb = Codebook(n=2, codewords=np.array([[0, 1]]))
        prof = ErrorProfile(per_message=np.array([0.4]))
        assert expurgate_worst_half(cb, prof) is cb

    def test_mismatched_profile(self):
        cb = Codebook(n=2, codewords=np.array([[0, 1]]))
        with pytest.raises(ProbError):
            expurgate_worst_half(cb, ErrorProfile(per_message=np.array([0.1, 0.2])))


class TestEmpiricalTrc:
    def test_trend_toward_asymptote(self):
        # fixed rate log(2)/4 = log(4)/8 = log(8)/12: the finite-n surrogate
        # approaches the asymptotic exponent from above (polynomial factors
        # favor small n), and the ML/MMI gap shrinks with n
        points = {}
        for n, m in ((4, 2), (8, 4), (12, 8)):
            points[n] = (
                empirical_trc(n, m, UNIF, BSC01, ML, samples=400, seed=31)[0],
                empirical_trc(n, m, UNIF, BSC01, MMI, samples=400, seed=31)[0],
            )
        asymptote = 0.0568  # exponents-module value at this rate
        mls = [points[n][0].empirical_exponent for n in (4, 8, 12)]
        mmis = [points[n][1].empirical_exponent for n in (4, 8, 12)]
        assert mls[0] > mls[1] > mls[2] > asymptote
        assert mmis[0] > mmis[1] > mmis[2] > asymptote
        gaps = [a - b for a, b in zip(mls, mmis)]
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_determinism(self):
        a, _ = empirical_trc(6, 2, UNIF, BSC01, ML, samples=40, seed=11)
        b, _ = empirical_trc(6, 2, UNIF, BSC01, ML, samples=40, seed=11)
        assert a == b

    def test_noiseless_all_zero_flag(self):
        # distinct codewords over a noiseless channel are never confused; a
        # single-message codebook keeps the samples duplicate-free by
        # construction, so every sampled P_e is exactly zero
        ident = Channel.from_rows([[1.0, 0.0], [0.0, 1.0]])
        s, _ = empirical_trc(4, 1, UNIF, ident, ML, samples=10, seed=2)
        assert s.all_zero_error and s.zero_error_samples == 10
        assert math.isinf(s.empirical_exponent)
        cb = Codebook(n=4, codewords=np.array([[0, 0, 1, 1], [1, 1, 0, 0]]))
        assert exact_error_profile(cb, ident, ML).per_message.tolist() == [0.0, 0.0]

    def test_reproducible_values(self):
        s, _ = empirical_trc(8, 2, UNIF, BSC01, ML, samples=200, seed=7)
        s2, _ = empirical_trc(8, 2, UNIF, BSC01, ML, samples=200, seed=7)
        assert s.mean_log_pe == s2.mean_log_pe
        assert s.empirical_exponent > 0
        assert s.zero_error_samples == 0

    @pytest.mark.parametrize("cfg", [GldConfig(metric=ML, beta=0.0), GldConfig(metric=MMI)],
                             ids=["gld-ml-beta0", "gld-mmi"])
    def test_gld_threads_match_the_serial_samples(self, cfg):
        """Two workers give the serial summary and, sample by sample, the
        bits of the GLD profile of the codebook drawn from (seed, i)."""
        serial, profiles = empirical_trc(6, 4, UNIF, ZCH, cfg, samples=6, seed=5)
        pooled, pooled_profiles = empirical_trc(6, 4, UNIF, ZCH, cfg, samples=6, seed=5, threads=2)
        assert pooled == serial and serial.decoder == "gld"
        for i, (one, two) in enumerate(zip(profiles, pooled_profiles, strict=True)):
            want = exact_error_profile_gld(sample_codebook(6, 4, UNIF, seed=[5, i]), ZCH, cfg)
            assert one.per_message.tobytes() == want.per_message.tobytes()
            assert two.per_message.tobytes() == want.per_message.tobytes()

    def test_cap_is_checked_before_any_codebook(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a codebook was drawn")

        monkeypatch.setattr(sim, "sample_codebook", refuse)
        with pytest.raises(ProbError, match="enumeration cap"):
            empirical_trc(21, 4, UNIF, BSC01, ML, samples=3, seed=0)
