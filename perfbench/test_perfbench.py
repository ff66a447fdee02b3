"""Tests of the benchmark's own references and checks (no explab needed).

    python3 -m pytest -q perfbench
"""

import itertools
import json
import math
import os

import numpy as np
import pytest

import oracle
import tracer
import workloads

BSC = np.array(workloads.CHANNELS["bsc"])
Z = np.array(workloads.CHANNELS["z"])
Q = np.array(workloads.UNIFORM)


def test_gallager_e0_at_one():
    assert oracle.gallager_e0(BSC, Q, 1.0) == pytest.approx(0.2231436, abs=1e-7)
    assert oracle.gallager_e0(Z, Q, 1.0) == pytest.approx(0.3235071, abs=1e-7)
    assert oracle.random_coding_low_rate(BSC, Q, 0.01) == pytest.approx(0.2131436, abs=1e-7)


def test_random_coding_refuses_rates_above_critical():
    r_crit = oracle.critical_rate(BSC, Q)
    assert 0.01 < r_crit < math.log(2)
    with pytest.raises(ValueError):
        oracle.random_coding_low_rate(BSC, Q, r_crit + 1e-3)


def test_bhattacharyya_and_psi_at_the_antidiagonal():
    d_b = oracle.bhattacharyya(BSC)
    assert d_b == pytest.approx(-math.log(2 * math.sqrt(0.1 * 0.9)), abs=1e-15)
    assert d_b == pytest.approx(0.5108256, abs=1e-7)
    assert d_b / 2 == pytest.approx(0.2554128, abs=1e-7)
    # psi at the antidiagonal: sup over s of -ln sum_y W(y|0)^(1-s) W(y|1)^s
    s = np.linspace(0.0, 1.0, 100001)[:, None]
    vals = -np.log((BSC[0] ** (1 - s) * BSC[1] ** s).sum(axis=1))
    assert vals.max() == pytest.approx(d_b, abs=1e-12)


@pytest.mark.parametrize("w, rate, want", [
    (BSC, 0.0, 0.2554128), (BSC, 0.01, 0.2193523), (Z, 0.01, 0.3455523),
])
def test_ck_expurgated_hand_values(w, rate, want):
    assert oracle.ck_expurgated_binary(oracle.bhattacharyya(w), rate) == pytest.approx(want, abs=1e-7)


@pytest.mark.parametrize("w", [BSC, Z])
@pytest.mark.parametrize("rate", [0.0, 0.005, 0.01, 0.03, 0.05, 0.2])
def test_ck_expurgated_matches_a_dense_delta_grid(w, rate):
    d_b = oracle.bhattacharyya(w)
    delta = np.linspace(0.0, 1.0, 2_000_001)
    h = -np.where(delta > 0, delta * np.log(np.where(delta > 0, delta, 1)), 0) \
        - np.where(delta < 1, (1 - delta) * np.log(np.where(delta < 1, 1 - delta, 1)), 0)
    info = math.log(2) - h
    grid = np.where(info <= rate + 1e-15, delta * d_b + info - rate, np.inf).min()
    closed = oracle.ck_expurgated_binary(d_b, rate)
    assert closed <= grid + 1e-12
    assert grid - closed < 1e-6


def _brute_ml_profile(codewords, p):
    cw = np.asarray(codewords)
    m_count, n = cw.shape
    pe = np.zeros(m_count)
    for y in itertools.product((0, 1), repeat=n):
        lik = [p ** int((np.array(y) != c).sum()) * (1 - p) ** int((np.array(y) == c).sum())
               for c in cw]
        decided = max(range(m_count), key=lambda m: (lik[m], -m))
        for m in range(m_count):
            if m != decided:
                pe[m] += lik[m]
    return pe


def test_bsc_ml_enumeration_hand_value():
    pe = oracle.bsc_ml_error_profile([[0, 0, 0], [1, 1, 1]], 0.1)
    assert pe == pytest.approx([3 * 0.01 * 0.9 + 0.001] * 2, abs=1e-15)


def test_bsc_ml_enumeration_matches_brute_force_with_ties():
    rng = np.random.default_rng(3)
    cw = np.stack([rng.permutation([0, 0, 0, 1, 1, 1]) for _ in range(4)])
    cw[3] = cw[1]  # a repeated codeword: every tie goes to index 1
    got = oracle.bsc_ml_error_profile(cw, 0.15)
    assert got == pytest.approx(_brute_ml_profile(cw, 0.15), abs=1e-14)
    assert got[3] == pytest.approx(1.0)


def _primal_outputs(rates, values):
    return {name: {"results": [{"rate": r, "ok": True, "error": "", "value": values[name](r)}
                               for r in rates]}
            for name in workloads.PRIMAL}


def test_primal_check_passes_closed_forms_and_flags_the_mmi_fault():
    wl = workloads.Primal(0, "bsc", (0.0, 0.01))
    d_b = oracle.bhattacharyya(BSC)
    e_r = lambda r: oracle.random_coding_low_rate(BSC, Q, r)
    ck = lambda r: oracle.ck_expurgated_binary(d_b, r)
    trc = lambda r: d_b / 2 if r == 0 else e_r(r) + 1e-3
    values = {"trc-ml": trc, "trc-mmi": trc, "expurgated-ml": ck,
              "expurgated-mmi": ck, "random": e_r}
    assert wl.check(_primal_outputs(wl.rates, values), []) == (10, [])
    values["expurgated-mmi"] = e_r  # what expurgated_exponent(MMI) returns today
    n, failures = wl.check(_primal_outputs(wl.rates, values), [])
    assert n == 10 and [name for name, _ in failures] == ["expurgated-mmi"] * 2
    values["trc-mmi"] = lambda r: trc(r) + 1e-4
    _, failures = wl.check(_primal_outputs(wl.rates, values), [])
    assert sorted({name for name, _ in failures}) == ["expurgated-mmi", "trc-mmi"]


def test_benchmark_json_lists_every_metric():
    path = os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [("trace.wall_s", "s")] + tracer.metric_names()
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mib"}
