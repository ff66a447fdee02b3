import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from explab.cli import (
    CliError,
    csv_text,
    json_dumps,
    parse_channel_spec,
    parse_rates,
    run,
)

BSC_TEXT = """\
# binary symmetric channel, crossover 0.1
dmc 2 2
0.9 0.1
0.1 0.9
"""


@pytest.fixture()
def bsc_file(tmp_path):
    p = tmp_path / "bsc01.ch"
    p.write_text(BSC_TEXT)
    return str(p)


def collect(argv):
    lines = []
    code = run(argv, echo=lambda *a, **k: lines.append(" ".join(str(x) for x in a)))
    return code, "\n".join(lines)


class TestChannelParsing:
    def test_parse_bsc(self):
        ch = parse_channel_spec(BSC_TEXT).to_channel()
        assert np.allclose(ch.w, [[0.9, 0.1], [0.1, 0.9]])

    def test_comments_and_blanks(self):
        ch = parse_channel_spec("# c\n\ndmc 2 3 # inline\n0.5 0.25 0.25\n0 0.5 0.5\n").to_channel()
        assert ch.n_out == 3

    def test_bad_row_sum_reports_index(self):
        with pytest.raises(CliError, match="row 1"):
            parse_channel_spec("dmc 2 2\n0.9 0.1\n0.4 0.4\n")

    def test_near_one_renormalized(self):
        ch = parse_channel_spec("dmc 1 2\n0.5000000001 0.4999999999\n").to_channel()
        assert ch.w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_header(self):
        with pytest.raises(CliError):
            parse_channel_spec("channel 2 2\n0.5 0.5\n0.5 0.5\n")
        with pytest.raises(CliError):
            parse_channel_spec("dmc 2 2\n0.5 0.5\n")

    def test_rejects_negative(self):
        with pytest.raises(CliError):
            parse_channel_spec("dmc 1 2\n1.2 -0.2\n")

    def test_rejects_non_finite_reports_index(self):
        for bad in ("nan 0.5", "inf 0.5", "0.5 -inf"):
            with pytest.raises(CliError, match="row 1"):
                parse_channel_spec(f"dmc 2 2\n0.9 0.1\n{bad}\n")


class TestRates:
    def test_range_inclusive(self):
        rates = parse_rates("0:0.4:0.05")
        assert len(rates) == 9
        assert rates[0] == 0.0 and rates[-1] == pytest.approx(0.4)

    def test_explicit_list(self):
        assert parse_rates("0.1, 0.2") == [0.1, 0.2]

    def test_bad_specs(self):
        for bad in ("0:1", "0:1:-0.1", "abc", "", "0:a:0.1", "0:nan:0.1", "0:inf:0.1",
                    "0:0.1:nan", "0.1,nan"):
            with pytest.raises(CliError):
                parse_rates(bad)

    def test_bad_range_exits_2(self, bsc_file):
        for bad in ("0:a:0.1", "0:nan:0.1"):
            code, text = collect(["exponent", "random", "--channel", bsc_file, "--rates", bad])
            assert code == 2 and "error:" in text


class TestSerialization:
    def test_json_floats_9_sig_digits(self):
        s = json_dumps({"x": 0.123456789123, "inf": math.inf, "n": 3})
        obj = json.loads(s)
        assert obj["x"] == float("0.123456789")
        assert obj["inf"] == "+inf"
        assert obj["n"] == 3

    def test_json_sorted_keys(self):
        assert json_dumps({"b": 1, "a": 2}).index('"a"') < json_dumps({"b": 1, "a": 2}).index('"b"')

    def test_csv_matches_json_formatting(self):
        x = 0.040292481726
        assert csv_text(["v"], [[x]]).splitlines()[1] == "0.0402924817"
        # the shared formatter guarantees identical text in both emissions
        from explab.cli import _fmt
        assert _fmt(x) in csv_text(["v"], [[x]])
        assert _fmt(x) in json_dumps({"v": x})


class TestSimulateCommand:
    def test_byte_identical_json(self, bsc_file, tmp_path):
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        argv = ["simulate", "--channel", bsc_file, "--n", "6", "--M", "2",
                "--samples", "12", "--seed", "7", "--decoder", "ml"]
        assert collect(argv + ["--out", out1])[0] == 0
        assert collect(argv + ["--out", out2])[0] == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_gld_ml_on_zero_channel_entry_is_finite(self, tmp_path):
        # outputs no codeword can produce add nothing, not 0 * nan
        z = tmp_path / "z.ch"
        z.write_text("dmc 2 2\n1 0\n0.2 0.8\n")
        out = str(tmp_path / "g.json")
        code, _ = collect(["simulate", "--channel", str(z), "--decoder", "gld",
                           "--metric", "ml", "--n", "8", "--M", "3", "--samples", "2",
                           "--seed", "1", "--out", out])
        assert code == 0
        summary, *samples = json.loads(open(out).read())["results"]
        assert math.isfinite(summary["mean_log_pe"])
        assert math.isfinite(summary["empirical_exponent"])
        for s in samples:
            assert all(0.0 < v < 1.0 for v in s["per_message"])

    def test_json_csv_same_numbers(self, bsc_file, tmp_path):
        out = str(tmp_path / "r.json")
        csvp = str(tmp_path / "r.csv")
        code, _ = collect(["simulate", "--channel", bsc_file, "--n", "6", "--M", "2",
                           "--samples", "5", "--seed", "3", "--out", out, "--csv", csvp])
        assert code == 0
        payload = json.loads(open(out).read())
        samples = [r for r in payload["results"] if r["type"] == "sample"]
        rows = open(csvp).read().strip().splitlines()[1:]
        for rec, row in zip(samples, rows):
            idx, avg, mx = row.split(",")
            assert float(avg) == rec["pe_average"]
            assert float(mx) == rec["pe_max"]

    def test_gld_decoder(self, bsc_file, tmp_path):
        out = str(tmp_path / "g.json")
        code, text = collect(["simulate", "--channel", bsc_file, "--n", "4", "--M", "2",
                              "--samples", "4", "--seed", "1", "--decoder", "gld",
                              "--beta", "0.0", "--out", out])
        assert code == 0
        payload = json.loads(open(out).read())
        summ = payload["results"][0]
        # beta=0 means a uniform guess: every sample has P_e = 1/2 exactly
        assert summ["empirical_exponent"] == pytest.approx(-math.log(0.5) / 4)

    def test_enumeration_cap_rejected(self, bsc_file):
        code, text = collect(["simulate", "--channel", bsc_file, "--n", "25",
                              "--M", "2", "--samples", "1"])
        assert code == 2
        assert "cap" in text

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_rejected(self, bsc_file, tmp_path, samples):
        # with no sample run, the summary would claim all_zero_error and an
        # infinite exponent
        out = tmp_path / "s.json"
        code, text = collect(["simulate", "--channel", bsc_file, "--n", "4", "--M", "2",
                              "--samples", samples, "--out", str(out)])
        assert code == 2
        assert "--samples" in text
        assert not out.exists()

    def test_negative_seed_rejected(self, bsc_file):
        code, text = collect(["simulate", "--channel", bsc_file, "--n", "4", "--M", "2",
                              "--samples", "1", "--seed", "-1"])
        assert code == 2
        assert "--seed" in text

    def test_threads_agree_with_serial(self, bsc_file, tmp_path):
        a, b = str(tmp_path / "t1.json"), str(tmp_path / "t2.json")
        argv = ["simulate", "--channel", bsc_file, "--n", "6", "--M", "2",
                "--samples", "10", "--seed", "5"]
        collect(argv + ["--threads", "1", "--out", a])
        collect(argv + ["--threads", "2", "--out", b])
        ja, jb = json.loads(open(a).read()), json.loads(open(b).read())
        assert ja["results"] == jb["results"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "6", "--M", "2", "--samples", "4", "--seed", "5"],
    ["exponent", "trc", "--rates", "0,0.05", "--grid-step", "0.25", "--refine-iters", "4"],
], ids=["simulate", "exponent"])
def test_thread_count_changes_no_byte(bsc_file, tmp_path, argv):
    # the worker count is not part of the recorded configuration
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.json"
        code, _ = collect(argv + ["--channel", bsc_file, "--threads", threads,
                                  "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


class TestExponentCommand:
    def test_random_sweep_csv_rows(self, bsc_file, tmp_path):
        out = str(tmp_path / "e.json")
        csvp = str(tmp_path / "e.csv")
        code, _ = collect(["exponent", "random", "--channel", bsc_file,
                           "--rates", "0:0.4:0.05", "--metric", "mmi",
                           "--out", out, "--csv", csvp])
        assert code == 0
        rows = open(csvp).read().strip().splitlines()
        assert rows[0].startswith("rate,value,ok")
        assert len(rows) == 1 + 9

    def test_random_has_no_coupling_fields(self, bsc_file, tmp_path):
        # E_r has no coupling search: no unclamped minimum, no coupling
        out, csvp = tmp_path / "r.json", tmp_path / "r.csv"
        code, _ = collect(["exponent", "random", "--channel", bsc_file,
                           "--rates", "0,0.5", "--out", str(out), "--csv", str(csvp)])
        assert code == 0
        for rec in json.loads(out.read_text())["results"]:
            assert rec["ok"] and rec["value"] >= 0
            assert rec["raw_value"] is None
            assert rec["coupling_information"] is None
        rows = csvp.read_text().splitlines()
        assert rows[0] == "rate,value,ok,raw_value,coupling_information,error"
        for row in rows[1:]:
            assert row.split(",")[3:] == ["", "", ""]

    def test_gnuplot_script(self, bsc_file, tmp_path):
        csvp = str(tmp_path / "e.csv")
        gp = str(tmp_path / "e.gp")
        code, _ = collect(["exponent", "random", "--channel", bsc_file,
                           "--rates", "0.1,0.2", "--csv", csvp, "--gnuplot", gp])
        assert code == 0
        assert csvp in open(gp).read()

    def test_gnuplot_requires_csv(self, bsc_file, tmp_path):
        code, text = collect(["exponent", "random", "--channel", bsc_file,
                              "--rates", "0.1", "--gnuplot", str(tmp_path / "x.gp")])
        assert code == 2

    def test_composition_rounding_notice(self, bsc_file):
        code, text = collect(["exponent", "random", "--channel", bsc_file,
                              "--rates", "0.1", "--composition", "0.3,0.7"])
        assert code == 0
        assert "rounded" in text

    def test_non_finite_composition_rejected(self, bsc_file, recwarn):
        for bad in ("nan,1", "inf,1"):
            code, text = collect(["exponent", "random", "--channel", bsc_file,
                                  "--rates", "0.1", "--composition", bad])
            assert code == 2
            assert "composition needs 2 nonnegative entries" in text
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_bits_display_only(self, bsc_file, tmp_path):
        out_n = str(tmp_path / "n.json")
        out_b = str(tmp_path / "b.json")
        argv = ["exponent", "random", "--channel", bsc_file, "--rates", "0.1"]
        _, text_nats = collect(argv + ["--out", out_n])
        _, text_bits = collect(argv + ["--bits", "--out", out_b])
        jn, jb = json.loads(open(out_n).read()), json.loads(open(out_b).read())
        assert jn["results"][0]["value"] == jb["results"][0]["value"]  # files in nats
        assert text_nats != text_bits

    def test_config_embedded(self, bsc_file, tmp_path):
        out = str(tmp_path / "c.json")
        collect(["exponent", "random", "--channel", bsc_file, "--rates", "0.1",
                 "--out", out])
        payload = json.loads(open(out).read())
        assert payload["version"] == "4"
        assert payload["config"]["channel"]["rows"] == [[0.9, 0.1], [0.1, 0.9]]
        assert payload["config"]["rates"] == [0.1]


class TestCertifyCommand:
    def test_certify_runs_and_reports(self, bsc_file, tmp_path):
        # coarse settings keep this quick; the exit code mirrors the measured
        # pass/fail status under --strict, and is asserted only to be 0/1
        out = str(tmp_path / "cert.json")
        code, text = collect(["certify", "theorem1", "--channel", bsc_file,
                              "--rate", "0.1", "--grid-step", "0.25",
                              "--refine-iters", "8", "--strict", "--out", out])
        assert code in (0, 1)
        payload = json.loads(open(out).read())
        rep = payload["results"][0]
        assert "margins" in rep and "per_coupling" in rep
        assert ("PASSED" in text) or ("FAILED" in text)

    def test_certify_nonstrict_exit_zero(self, bsc_file, tmp_path):
        out = str(tmp_path / "cert2.json")
        code, _ = collect(["certify", "theorem1", "--channel", bsc_file,
                           "--rate", "0.1", "--grid-step", "0.25",
                           "--refine-iters", "8", "--out", out])
        assert code == 0


class TestErrors:
    def test_missing_channel_file(self, tmp_path):
        code, text = collect(["simulate", "--channel", str(tmp_path / "nope.ch"),
                              "--n", "4", "--M", "2"])
        assert code == 2

    def test_malformed_channel(self, tmp_path):
        p = tmp_path / "bad.ch"
        p.write_text("dmc 2 2\n0.9 0.1\n0.8 0.1\n")
        code, text = collect(["simulate", "--channel", str(p), "--n", "4", "--M", "2"])
        assert code == 2
        assert "row 1" in text

    @pytest.mark.parametrize("step", ["0", "nan", "inf", "-0.125", "0.3"])
    def test_bad_grid_step_exits_2(self, bsc_file, tmp_path, step, recwarn):
        # the step is checked before the composition is snapped to its grid
        out = tmp_path / "e.json"
        code, text = collect(["exponent", "random", "--channel", bsc_file, "--rates", "0.1",
                              "--grid-step", step, "--out", str(out)])
        assert code == 2
        assert "grid_step must be" in text
        assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_certify_tol_exits_2(self, bsc_file, tmp_path, tol):
        out = tmp_path / "c.json"
        code, text = collect(["certify", "theorem1", "--channel", bsc_file, "--rate", "0.01",
                              "--certify-tol", tol, "--out", str(out)])
        assert code == 2
        assert "certify_tol must be finite and >= 0" in text
        assert "FAILED" not in text
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, bsc_file, tmp_path, threads):
        out = tmp_path / "s.json"
        code, text = collect(["simulate", "--channel", bsc_file, "--n", "4", "--M", "2",
                              "--samples", "1", "--threads", threads, "--out", str(out)])
        assert code == 2
        assert "--threads must be at least 1" in text
        assert not out.exists()


def test_python_dash_m_entry_point():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "explab", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: explab" in proc.stdout
    assert "certify" in proc.stdout
