"""Acceptance gate: one test per shipped criterion, each printing its own
PASS/FAIL line with the measured margins (run with `pytest -s` to watch).

Heavy primal/dual tables are computed once in module-scoped fixtures and
shared across criteria. Tolerances are the contract values, pinned here.
"""

import itertools
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from explab.cli import run as cli_run
from explab.duals import ml_upper_bound, mmi_lower_bound, lambda_bound, phi_bound, psi, theta
from explab.exponents import (
    ML,
    MMI,
    OptimizerOptions,
    RatePoint,
    a_threshold,
    expurgated_exponent,
    gamma,
    random_coding_exponent,
    trc_exponent,
)
from explab.prob import Channel, Dist, Joint2, coupling_grid, mutual_information
from explab.simulate import (
    GldConfig,
    exact_error_profile,
    exact_error_profile_gld,
    expurgate_worst_half,
    sample_codebook,
    _OutputClasses,
)

UNIF = Dist.uniform(2)
OPTS = OptimizerOptions()  # the default settings are the contract settings
CHANNELS = {0.1: Channel.bsc(0.1), 0.25: Channel.bsc(0.25)}
RATES = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
# at the contract rates every primal value is E_r, so criteria 1 and 2
# cannot tell the metrics apart: on BSC(0.1) 0.05 and 0.10 lie below
# R_crit = 0.1308, where E_r = E_0(1) - R, and 0.15-0.30 above it, where
# E_r = E_sp > E_0(1) - R; on BSC(0.25) (R_crit = 0.0363, C = 0.1308) all
# six lie above R_crit and 0.15-0.30 at or above C, where every exponent is
# 0. Below these rates the exponents differ from E_r
LOW_RATES = (0.0, 0.005, 0.01, 0.02)
Z_CHANNEL = Channel.from_rows([[1.0, 0.0], [0.2, 0.8]])

EQ_TOL = 0.02         # criteria 1, 2, and the sandwich halves of 4
CK_TOL = 1e-5         # low-rate table: E_ex against the Csiszar-Korner form
ORDER_TOL = 1e-9      # low-rate table: E_ex >= E_trc >= E_r
CERT_TOL = 1e-4       # criterion 3 margins and the bound-vs-bound half of 4
PSI_TOL = 1e-6        # criterion 5
MONO_TOL = 1e-6       # criterion 8


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def primal_table():
    """E_trc and E_ex for both metrics at every contract rate point."""
    jobs = [(p, r) for p in CHANNELS for r in RATES]

    def solve(job):
        p, r = job
        rp = RatePoint(r, UNIF)
        ch = CHANNELS[p]
        return job, {
            ("trc", "ml"): trc_exponent(rp, ML, ch, OPTS).value,
            ("trc", "mmi"): trc_exponent(rp, MMI, ch, OPTS).value,
            ("ex", "ml"): expurgated_exponent(rp, ML, ch, OPTS).value,
            ("ex", "mmi"): expurgated_exponent(rp, MMI, ch, OPTS).value,
        }

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(pool.map(solve, jobs))


@pytest.fixture(scope="module")
def bound_table():
    """Dual sandwich bounds at every BSC(0.1)/BSC(0.25) rate point."""
    jobs = [(p, r) for p in CHANNELS for r in RATES]

    def solve(job):
        p, r = job
        rp = RatePoint(r, UNIF)
        ch = CHANNELS[p]
        return job, (ml_upper_bound(rp, ch, OPTS), mmi_lower_bound(rp, ch, OPTS))

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(pool.map(solve, jobs))


def test_criterion_1_trc_metric_equality(primal_table):
    worst, at = -1.0, None
    for (p, r), vals in primal_table.items():
        gap = abs(vals[("trc", "ml")] - vals[("trc", "mmi")])
        if gap > worst:
            worst, at = gap, (p, r)
    ok = worst <= EQ_TOL
    _line("criterion 1 (TRC exponent: ML vs MMI)",
          ok, f"worst |gap| = {worst:.3e} at BSC({at[0]}), R={at[1]} (tol {EQ_TOL})")
    assert ok


def test_criterion_2_expurgated_metric_equality(primal_table):
    worst, at = -1.0, None
    for (p, r), vals in primal_table.items():
        gap = abs(vals[("ex", "ml")] - vals[("ex", "mmi")])
        if gap > worst:
            worst, at = gap, (p, r)
    ok = worst <= EQ_TOL
    _line("criterion 2 (expurgated exponent: ML vs MMI)",
          ok, f"worst |gap| = {worst:.3e} at BSC({at[0]}), R={at[1]} (tol {EQ_TOL})")
    assert ok


def _ck_expurgated(ch: Channel, rate: float) -> float:
    """Csiszar-Korner expurgated exponent of a binary-input channel at the
    uniform composition: min over the crossover d of the coupling, subject
    to log 2 - h(d) <= R, of d*d_B + log 2 - h(d) - R (d_B/2 at R = 0)."""
    d_b = -math.log(float(np.sqrt(ch.w[0] * ch.w[1]).sum()))

    def h(d):
        return -sum(v * math.log(v) for v in (d, 1.0 - d) if v > 0)

    lo, hi = 0.0, 0.5  # log 2 - h(d) falls on [0, 1/2]; find where it meets R
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if math.log(2.0) - h(mid) <= rate else (mid, hi)
    d = max(1.0 / (1.0 + math.exp(d_b)), hi)  # the free minimizer, or the cap
    return d * d_b + math.log(2.0) - h(d) - rate


def test_low_rate_expurgated_closed_form():
    """Below the contract rates the exponents differ from E_r: E_ex under
    both metrics must equal the Csiszar-Korner form (the ML = MMI corollary),
    and E_ex >= E_trc >= E_r, since E_ex minimizes the TRC objective over a
    subset of its couplings."""
    jobs = [(CHANNELS[0.1], "BSC(0.1)", r) for r in LOW_RATES] + [(Z_CHANNEL, "Z", 0.01)]

    def solve(job):
        ch, name, r = job
        rp = RatePoint(r, UNIF)
        vals = {(which, m.kind): fn(rp, m, ch, OPTS).value for m in (ML, MMI)
                for which, fn in (("ex", expurgated_exponent), ("trc", trc_exponent))}
        vals["er"] = random_coding_exponent(rp, ch)
        return vals

    with ThreadPoolExecutor(max_workers=2) as pool:
        table = list(pool.map(solve, jobs))
    failures, worst = [], 0.0
    for (ch, name, r), vals in zip(jobs, table):
        ck = _ck_expurgated(ch, r)
        for m in ("ml", "mmi"):
            err = abs(vals[("ex", m)] - ck)
            worst = max(worst, err)
            if err > CK_TOL:
                failures.append(f"E_ex/{m} = {vals[('ex', m)]:.7f} != CK {ck:.7f} at {name}, R={r}")
            if not (vals[("ex", m)] >= vals[("trc", m)] - ORDER_TOL
                    and vals[("trc", m)] >= vals["er"] - ORDER_TOL):
                failures.append(f"E_ex/{m} {vals[('ex', m)]:.7f} >= E_trc {vals[('trc', m)]:.7f}"
                                f" >= E_r {vals['er']:.7f} fails at {name}, R={r}")
    ok = not failures
    _line("low-rate table (E_ex vs Csiszar-Korner, E_ex >= E_trc >= E_r)", ok,
          f"worst |E_ex - CK| = {worst:.2e} (tol {CK_TOL})"
          + ("" if ok else f"; violations: {failures}"))
    assert ok, failures


def test_criterion_3_per_coupling_margins():
    """Each dual functional relaxes a constraint of its primal inner value,
    so at every coupling psi, theta <= Gamma_ML and lambda <= Gamma_MMI.
    phi relaxes Gamma_MMI only while the MMI threshold min{R, max I} equals
    R, so it is judged below I(Q_X;W) (the capacity of BSC(0.1), 0.368
    nats) and not at R = 0.4.

    lambda - psi and phi - theta carry no sign: lambda, phi and Gamma_MMI
    are invariant under a relabelling of X', psi, theta and Gamma_ML are
    not (at the antidiagonal lambda = 0 while psi is the Bhattacharyya
    distance). They are printed as measurements only.
    """
    ch = CHANNELS[0.1]
    cap = mutual_information(Joint2(UNIF.probs[:, None] * ch.w))
    failures = []
    worst = {"Gml-psi": math.inf, "Gml-theta": math.inf,
             "Gmmi-lambda": math.inf, "Gmmi-phi": math.inf}
    worst_lp, worst_pt = math.inf, math.inf
    for j2 in coupling_grid(UNIF, 4):
        z = j2.probs[0, 0]
        p, lm = psi(j2, ch), lambda_bound(j2, ch, OPTS)
        worst_lp = min(worst_lp, lm - p)
        for r in (0.0, 0.1, 0.2, 0.4):
            g_ml = gamma(j2, r, ML, ch, UNIF, OPTS)
            g_mmi = gamma(j2, r, MMI, ch, UNIF, OPTS)
            t, ph = theta(j2, r, ch, UNIF, OPTS), phi_bound(j2, r, ch, OPTS)
            worst_pt = min(worst_pt, ph - t)
            margins = {"Gml-psi": g_ml - p, "Gml-theta": g_ml - t,
                       "Gmmi-lambda": g_mmi - lm}
            if r < cap:
                margins["Gmmi-phi"] = g_mmi - ph
            for name, m in margins.items():
                worst[name] = min(worst[name], m)
                if m < -CERT_TOL:
                    failures.append(f"{name}={m:+.2e} at z={z}, R={r}")
    ok = not failures
    _line("criterion 3 (per-coupling dual margins)",
          ok, ", ".join(f"worst {k} = {v:+.2e}" for k, v in worst.items())
              + f" (tol {CERT_TOL}); measured lambda-psi >= {worst_lp:+.4f},"
              f" phi-theta >= {worst_pt:+.4f}"
              + ("" if ok else f"; violations: {failures}"))
    assert ok, failures


def test_criterion_4_sandwich(primal_table, bound_table):
    worst = {"upper": math.inf, "lower": math.inf, "chain": math.inf}
    for (p, r), (up, low) in bound_table.items():
        vals = primal_table[(p, r)]
        worst["upper"] = min(worst["upper"], up + EQ_TOL - vals[("trc", "ml")])
        worst["lower"] = min(worst["lower"], vals[("trc", "mmi")] + EQ_TOL - low)
        worst["chain"] = min(worst["chain"], low + CERT_TOL - up)
    ok = all(v >= 0 for v in worst.values())
    _line("criterion 4 (bound sandwich)",
          ok, f"slack: trc_ml<=upper {worst['upper']:+.3e}, "
              f"lower<=trc_mmi {worst['lower']:+.3e}, upper<=lower {worst['chain']:+.3e}")
    assert ok


def test_criterion_5_bhattacharyya_closed_form():
    worst = -1.0
    for p in (0.05, 0.1, 0.25):
        anti = Joint2(np.array([[0.0, 0.5], [0.5, 0.0]]))
        want = -math.log(2.0 * math.sqrt(p * (1 - p)))
        got = psi(anti, Channel.bsc(p))
        worst = max(worst, abs(got - want))
    ok = worst <= PSI_TOL
    _line("criterion 5 (pairwise-overlap closed form)",
          ok, f"worst |error| = {worst:.2e} (tol {PSI_TOL})")
    assert ok


def _simulated_instances():
    """200 seeded instances cycling over n in {4,6,8}, M in {2,4,8}."""
    combos = list(itertools.product((4, 6, 8), (2, 4, 8)))
    for seed in range(200):
        n, m = combos[seed % len(combos)]
        yield seed, n, m


def test_criteria_6_and_7_exact_simulation():
    ch = CHANNELS[0.1]
    viol6, viol7 = [], []
    for seed, n, m in _simulated_instances():
        cb = sample_codebook(n, m, UNIF, seed)
        ml_prof = exact_error_profile(cb, ch, ML)
        mmi_prof = exact_error_profile(cb, ch, MMI)
        gld_prof = exact_error_profile_gld(cb, ch, GldConfig(metric=ML, beta=1.0))
        if not (ml_prof.average <= mmi_prof.average + 1e-12 <= 1 + 1e-12):
            viol6.append(f"seed {seed}: ML {ml_prof.average} > MMI {mmi_prof.average}")
        if gld_prof.average > 2 * ml_prof.average + 1e-12:
            viol6.append(f"seed {seed}: GLD {gld_prof.average} > 2x ML {ml_prof.average}")
        # MMI decisions == minimum conditional empirical entropy decisions:
        # the scores differ by the constant composition entropy, so the
        # decision (and tie) sets coincide; the independently computed
        # entropy pipeline may order exact ties differently in floats, so a
        # disagreement only counts when the scores are not tied; outputs of
        # one type class share their counts, so each class stands for them
        blocks = list(_OutputClasses(cb, ch, 2**20).blocks("mmi"))
        counts = np.concatenate([c for _, c, _, _ in blocks], axis=3)
        mi_scores = np.concatenate([s for _, _, s, _ in blocks], axis=1)
        col = counts.sum(axis=1).astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            hcond = -(np.where(counts > 0,
                               counts / cb.n * np.log(counts / np.maximum(col[:, None], 1e-300)),
                               0.0)).sum(axis=(1, 2))
        d_mi = np.argmax(mi_scores, axis=0)
        d_h = np.argmin(hcond, axis=0)
        diff = np.nonzero(d_mi != d_h)[0]
        tied = (np.abs(hcond[d_mi[diff], diff] - hcond[d_h[diff], diff]) <= 1e-10) \
            & (np.abs(mi_scores[d_mi[diff], diff] - mi_scores[d_h[diff], diff]) <= 1e-10)
        if not tied.all():
            viol6.append(f"seed {seed}: MMI decisions differ from min-H(X|Y) decisions "
                         f"beyond exact ties")
        kept = expurgate_worst_half(cb, ml_prof)
        kept_prof = exact_error_profile(kept, ch, ML)
        if kept_prof.max > 2 * ml_prof.average + 1e-15:
            viol7.append(f"seed {seed}: kept max {kept_prof.max} > 2*avg {ml_prof.average}")
    ok6, ok7 = not viol6, not viol7
    _line("criterion 6 (simulation decoder invariants)", ok6,
          f"200 instances, violations: {len(viol6)}")
    _line("criterion 7 (expurgation guarantee)", ok7,
          f"200 instances, violations: {len(viol7)}")
    assert ok6, viol6[:5]
    assert ok7, viol7[:5]


def test_criterion_8_monotonicity_nonnegativity(primal_table):
    ch = CHANNELS[0.1]
    problems = []
    # exponent curves over the contract rates, BSC(0.1), both families
    for which in ("trc", "ex"):
        for metric in ("ml", "mmi"):
            vals = [primal_table[(0.1, r)][(which, metric)] for r in RATES]
            if any(b > a + MONO_TOL for a, b in zip(vals, vals[1:])):
                problems.append(f"{which}/{metric} curve not nonincreasing: {vals}")
            if any(v < 0 for v in vals):
                problems.append(f"{which}/{metric} negative value")
    er = [random_coding_exponent(RatePoint(r, UNIF), ch) for r in RATES]
    if any(b > a + MONO_TOL for a, b in zip(er, er[1:])):
        problems.append(f"random-coding curve not nonincreasing: {er}")
    # thresholds nondecreasing in R
    for metric in (ML, MMI):
        av = [a_threshold(r, UNIF, metric, ch, UNIF, OPTS) for r in RATES]
        if any(b < a - MONO_TOL for a, b in zip(av, av[1:])):
            problems.append(f"a_threshold/{metric.kind} not nondecreasing: {av}")
    ok = not problems
    _line("criterion 8 (monotonicity / nonnegativity)", ok,
          "all curves ordered" if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_9_byte_identical_output(tmp_path):
    chfile = tmp_path / "bsc01.ch"
    chfile.write_text("dmc 2 2\n0.9 0.1\n0.1 0.9\n")
    outs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        code = cli_run(["simulate", "--channel", str(chfile), "--n", "8", "--M", "2",
                        "--samples", "100", "--seed", "7", "--out", str(out)],
                       echo=lambda *a, **k: None)
        assert code == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    _line("criterion 9 (deterministic JSON)", ok,
          f"{len(outs[0])} bytes, identical={ok}")
    assert ok
