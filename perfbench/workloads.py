"""The benchmark's workloads: the CLI commands of one round, made from the
seed, and the checks of their output files.

Every check compares explab's output with a computation made apart from it
(``oracle``) or with a property the method must have. An operation is one
value the program returned: one rate of an ``exponent`` command, one
``certify`` report, or one sampled codebook of a ``simulate`` command. Each
check returns the failed operations with their reasons.
"""

from __future__ import annotations

import math
import random

import numpy as np

import oracle

CHANNELS = {
    "bsc": [[0.9, 0.1], [0.1, 0.9]],
    "z": [[1.0, 0.0], [0.2, 0.8]],
}
UNIFORM = [0.5, 0.5]

CLOSED_FORM_TOL = 1e-5  # the optimizers reach the closed forms to about 3e-6
ORDER_TOL = 1e-9  # E_trc >= E_r; output files carry 9 significant digits
AGREE_TOL = 1e-6  # E_trc^ML = E_trc^MMI, measured equal to 1e-14
CERTIFY_TOL = 1e-4  # the CLI's default --certify-tol
PROB_RTOL = 1e-7  # simulate probabilities against the enumeration

# Operations that fail on every run because of a known fault of the program
# (CHANGES.md, FOUND): expurgated_exponent under MMI reads E_r at every rate.
KNOWN_FAULTS = {"expurgated-mmi"}

PRIMAL = ("trc-ml", "trc-mmi", "expurgated-ml", "expurgated-mmi", "random")
SIM_N, SIM_M, SIM_SAMPLES = 20, 4, 4


class Workload:
    """name, channel, the commands of one round and the check of its outputs."""

    channel: str

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def commands(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def codebooks(self) -> list[dict]:
        return []

    def check(self, outputs: dict[str, dict], codebooks: list) -> tuple[int, list[tuple[str, str]]]:
        """(attempted, [(command name, reason)] per failed operation) for one
        round's output files."""
        raise NotImplementedError


class Primal(Workload):
    """The five exponent commands at the given rates; the seed orders them."""

    def __init__(self, seed: int, channel: str, rates: tuple[float, ...]):
        super().__init__(seed)
        self.channel, self.rates = channel, rates

    def commands(self):
        rates = ",".join(str(r) for r in self.rates)
        cmds = []
        for name in PRIMAL:
            which, _, metric = name.partition("-")
            argv = ["exponent", which, "--rates", rates]
            cmds.append((name, argv + (["--metric", metric] if metric else [])))
        self.rng.shuffle(cmds)
        return cmds

    def check(self, outputs, codebooks):
        w = np.array(CHANNELS[self.channel])
        d_b = oracle.bhattacharyya(w)
        values = {name: {rec["rate"]: rec for rec in out["results"]}
                  for name, out in outputs.items()}
        failures = []
        for r in self.rates:
            e_r = oracle.random_coding_low_rate(w, np.array(UNIFORM), r)
            ck = oracle.ck_expurgated_binary(d_b, r)
            got = {name: values[name].get(r) for name in PRIMAL}
            v = {name: _value(rec) for name, rec in got.items()}
            expect = {
                "random": [("E_0(1) - R", abs(v["random"] - e_r) <= CLOSED_FORM_TOL, e_r)],
                "expurgated-ml": [("Csiszar-Korner", abs(v["expurgated-ml"] - ck) <= CLOSED_FORM_TOL, ck)],
                "expurgated-mmi": [("Csiszar-Korner", abs(v["expurgated-mmi"] - ck) <= CLOSED_FORM_TOL, ck)],
                "trc-ml": [(">= E_r", v["trc-ml"] >= e_r - ORDER_TOL, e_r)],
                "trc-mmi": [(">= E_r", v["trc-mmi"] >= e_r - ORDER_TOL, e_r),
                            ("= trc-ml", abs(v["trc-mmi"] - v["trc-ml"]) <= AGREE_TOL, v["trc-ml"])],
            }
            if r == 0.0:
                for name in ("trc-ml", "trc-mmi"):
                    expect[name].append(("d_B/2", abs(v[name] - d_b / 2) <= CLOSED_FORM_TOL, d_b / 2))
            for name, checks in expect.items():
                bad = [f"{what} (expected {want:.9g})" for what, ok, want in checks if not ok]
                if got[name] is None or not got[name]["ok"]:
                    bad = [f"not computed: {got[name] and got[name]['error']}"]
                if bad:
                    failures.append((name, f"{name}@{r}: value {v[name]:.9g}, fails {'; '.join(bad)}"))
        return len(PRIMAL) * len(self.rates), failures


class Certify(Workload):
    """``certify theorem1`` at R = 0.01 on BSC(0.1); the inputs are fixed."""

    channel, rate = "bsc", 0.01

    def commands(self):
        return [("certify", ["certify", "theorem1", "--rate", str(self.rate)])]

    def check(self, outputs, codebooks):
        rep = outputs["certify"]["results"][0]
        w = np.array(CHANNELS[self.channel])
        e_r = oracle.random_coding_low_rate(w, np.array(UNIFORM), self.rate)
        d_b = oracle.bhattacharyya(w)
        bad = []
        for c in rep["per_coupling"]:
            margins = ["gamma_ml_minus_psi", "gamma_ml_minus_theta", "gamma_mmi_minus_lambda"]
            margins += ["gamma_mmi_minus_phi"] if c["phi_judged"] else []
            bad += [f"{m} = {c[m]} at {c['coupling']}" for m in margins
                    if not float(c[m]) >= -CERTIFY_TOL]
        anti = [c for c in rep["per_coupling"] if c["coupling"] == [[0, 0.5], [0.5, 0]]]
        if not anti or abs(float(anti[0]["psi"]) - d_b) > CLOSED_FORM_TOL:
            bad.append(f"psi at the antidiagonal is not d_B = {d_b:.9g}")
        trc_ml, trc_mmi = float(rep["trc_ml"]), float(rep["trc_mmi"])
        if not abs(trc_ml - trc_mmi) <= CERTIFY_TOL:
            bad.append(f"trc_ml {trc_ml} != trc_mmi {trc_mmi}")
        if not min(trc_ml, trc_mmi) >= e_r - ORDER_TOL:
            bad.append(f"trc below E_r = {e_r:.9g}")
        if not float(rep["ml_upper"]) <= trc_ml + CERTIFY_TOL:
            bad.append(f"ml_upper {rep['ml_upper']} above trc_ml")
        if not float(rep["mmi_lower"]) <= trc_mmi + CERTIFY_TOL:
            bad.append(f"mmi_lower {rep['mmi_lower']} above trc_mmi")
        return 1, [("certify", "; ".join(bad))] if bad else []


class Simulate(Workload):
    """ML then MMI on the same seeded codebooks; the seed picks them."""

    channel = "bsc"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sim_seed = self.rng.randrange(2**31)
        self._reference = None

    def commands(self):
        base = ["simulate", "--n", str(SIM_N), "--M", str(SIM_M),
                "--samples", str(SIM_SAMPLES), "--seed", str(self.sim_seed)]
        return [(f"simulate-{d}", base + ["--decoder", d]) for d in ("ml", "mmi")]

    def codebooks(self):
        return [{"n": SIM_N, "M": SIM_M, "seed": self.sim_seed, "samples": SIM_SAMPLES}]

    def check(self, outputs, codebooks):
        if self._reference is None:  # the same codebooks in every round
            p = CHANNELS[self.channel][0][1]
            self._reference = [oracle.bsc_ml_error_profile(np.array(cw), p)
                               for cw in codebooks[0]]
        failures = []
        rows = {}
        for dec in ("ml", "mmi"):
            name = f"simulate-{dec}"
            summary, *samples = outputs[name]["results"]
            rows[dec] = samples
            logs = [math.log(s["pe_average"]) for s in samples if s["pe_average"] > 0]
            summary_ok = abs(summary["mean_log_pe"] - sum(logs) / len(logs)) <= 1e-7
            for i, s in enumerate(samples):
                pm = np.array(s["per_message"], dtype=float)
                bad = [] if summary_ok else ["mean_log_pe is not the mean of log pe_average"]
                if not ((pm >= 0) & (pm <= 1)).all():
                    bad.append("a per-message value outside [0, 1]")
                if not math.isclose(s["pe_average"], pm.mean(), rel_tol=PROB_RTOL):
                    bad.append("pe_average is not the mean of per_message")
                if dec == "ml" and not np.allclose(pm, self._reference[i], rtol=PROB_RTOL, atol=1e-12):
                    bad.append(f"ML profile {pm.tolist()} != enumeration {self._reference[i].tolist()}")
                if dec == "mmi" and not s["pe_average"] >= rows["ml"][i]["pe_average"] - 1e-12:
                    bad.append("MMI average below the ML average")
                if bad:
                    failures.append((name, f"codebook {i}: {'; '.join(bad)}"))
        return 2 * SIM_SAMPLES, failures


def _value(rec) -> float:
    return math.nan if rec is None or not rec["ok"] else float(rec["value"])


WORKLOADS = {
    "primal-bsc": lambda seed: Primal(seed, "bsc", (0.0,)),
    "primal-z": lambda seed: Primal(seed, "z", (0.01,)),
    "certify-bsc": Certify,
    "simulate-bsc": Simulate,
}
