"""Command-line front end: channel files in, JSON/CSV results out.

Three subcommands drive the compute modules:

    explab exponent {trc,expurgated,random} --channel ch.txt --rates 0:0.4:0.05 --metric mmi
    explab certify theorem1 --channel ch.txt --rate 0.1 [--strict]
    explab simulate --channel ch.txt --n 8 --M 4 --samples 200 --seed 7 --decoder ml

Result files embed the fully resolved run configuration and a format
version, numbers are emitted at 9 significant digits (identically in JSON
and CSV), infinities become the strings "+inf"/"-inf", a value that does
not exist is JSON null and an empty CSV cell, and writes are atomic (temp
file + rename). Repeated runs with the same configuration and seed produce
byte-identical JSON: nothing time- or host-dependent is ever written, and
neither is ``--threads``, the worker count of ``simulate``'s sample pool
(the only command that uses it), which changes no result.

Rates are nats per channel use throughout; --bits only converts the printed
summary table, never the files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .duals import certify_theorem1
from .exponents import (
    ML,
    MMI,
    OptimizerOptions,
    RatePoint,
    sweep,
)
from .prob import Channel, Dist, ProbError
from .simulate import (
    GldConfig,
    _check_enumerable,
    _trial_summary,
    exact_error_profile,
    exact_error_profile_gld,
    sample_codebook,
)

FORMAT_VERSION = "4"
LN2 = math.log(2.0)


class CliError(ValueError):
    """Malformed channel file, rate spec, or inconsistent configuration."""


# ---------------------------------------------------------------------------
# channel files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelSpec:
    n_in: int
    n_out: int
    rows: tuple
    name: str = ""

    def to_channel(self) -> Channel:
        return Channel.from_rows(np.array(self.rows, dtype=float))


def parse_channel_spec(text: str, name: str = "") -> ChannelSpec:
    """Parse the channel text format:

        dmc <|X|> <|Y|>
        <|Y| probabilities>   (one line per input symbol)

    '#' starts a comment. Rows must sum to 1 within 1e-9 (then they are
    renormalized exactly); anything further off is rejected with its row
    index.
    """
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if not lines:
        raise CliError("empty channel file")
    head = lines[0].split()
    if len(head) != 3 or head[0].lower() != "dmc":
        raise CliError(f"header must be 'dmc <|X|> <|Y|>', got {lines[0]!r}")
    try:
        nx, ny = int(head[1]), int(head[2])
    except ValueError as exc:
        raise CliError(f"non-integer alphabet sizes in header {lines[0]!r}") from exc
    if nx < 1 or ny < 1:
        raise CliError("alphabet sizes must be positive")
    if len(lines) - 1 != nx:
        raise CliError(f"expected {nx} matrix rows, found {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != ny:
            raise CliError(f"row {i} has {len(parts)} entries, expected {ny}")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise CliError(f"row {i} has a non-numeric entry") from exc
        if not all(map(math.isfinite, vals)):
            raise CliError(f"row {i} has a non-numeric entry")
        if any(v < 0 for v in vals):
            raise CliError(f"row {i} has a negative probability")
        s = sum(vals)
        if abs(s - 1.0) > 1e-9:
            raise CliError(f"row {i} sums to {s!r}, outside the 1e-9 tolerance")
        rows.append(tuple(v / s for v in vals))
    return ChannelSpec(n_in=nx, n_out=ny, rows=tuple(rows), name=name)


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    """One number formatter for every emission: 9 significant digits."""
    if isinstance(x, float):
        if math.isinf(x):
            return "+inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
    return format(float(x), ".9g")


def _json_encode(obj, out: list) -> None:
    import json as _json

    if obj is None or isinstance(obj, bool):
        out.append("true" if obj is True else "false" if obj is False else "null")
    elif isinstance(obj, str):
        out.append(_json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x) or math.isnan(x):
            out.append(_json.dumps(_fmt(x)))  # strings "+inf"/"-inf"/"nan"
        else:
            out.append(_fmt(x))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(_json.dumps(str(key)) + ":")
            _json_encode(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(list(obj)):
            if i:
                out.append(",")
            _json_encode(v, out)
        out.append("]")
    else:
        raise CliError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj) -> str:
    out: list = []
    _json_encode(obj, out)
    return "".join(out) + "\n"


def atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".explab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else "" if v is None else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    command: str
    channel_path: str
    channel: ChannelSpec
    rates: list[float] = field(default_factory=list)
    composition: list[float] = field(default_factory=list)
    metric: str = "mmi"
    grid_step: float = 0.125
    refine_iters: int = 20
    certify_tol: float = 1e-4
    n: int = 0
    m_count: int = 0
    samples: int = 0
    seed: int = 0
    beta: float = 1.0
    decoder: str = "ml"
    threads: int = 1
    strict: bool = False
    bits: bool = False

    def opts(self) -> OptimizerOptions:
        return OptimizerOptions(grid_step=self.grid_step, refine_iters=self.refine_iters)

    def to_dict(self) -> dict:
        """Every setting that can change a result; ``threads`` cannot."""
        d = asdict(self)
        del d["threads"]
        d["M"] = d.pop("m_count")
        return d


def parse_rates(spec: str) -> list[float]:
    """'start:stop:step' (inclusive ends, within half a step) or 'r1,r2,...'."""
    spec = spec.strip()
    form = "range" if ":" in spec else "list"
    try:
        vals = [float(p) for p in spec.split(":" if form == "range" else ",") if p.strip()]
    except ValueError as exc:
        raise CliError(f"bad rate {form} {spec!r}") from exc
    if not all(map(math.isfinite, vals)):
        raise CliError(f"rates must be finite, got {spec!r}")
    if not vals:
        raise CliError(f"empty rate {form}")
    if form == "list":
        return vals
    if len(vals) != 3:
        raise CliError(f"rate range must be start:stop:step, got {spec!r}")
    start, stop, step = vals
    if step <= 0 or stop < start:
        raise CliError("need step > 0 and stop >= start")
    count = int(round((stop - start) / step)) + 1
    rates = [start + i * step for i in range(count)]
    if rates[-1] > stop + step * 1e-9:
        rates.pop()
    return rates


def _resolve_composition(arg: str | None, nx: int, k: int, echo) -> list[float]:
    """Default uniform; always snapped to the optimizer's 1/k grid (with a
    notice)."""
    if arg is None:
        comp = np.full(nx, 1.0 / nx)
    else:
        try:
            comp = np.array([float(p) for p in arg.split(",")], dtype=float)
        except ValueError as exc:
            raise CliError(f"bad composition {arg!r}") from exc
        if comp.size != nx or not np.all(comp >= 0) or not 0 < comp.sum() < math.inf:
            raise CliError(f"composition needs {nx} nonnegative entries")
        comp = comp / comp.sum()
    counts = np.floor(comp * k).astype(int)
    while counts.sum() < k:  # largest-remainder rounding onto the grid
        rem = comp * k - counts
        counts[int(np.argmax(rem))] += 1
    snapped = counts / k
    if np.max(np.abs(snapped - comp)) > 1e-12:
        echo(f"composition rounded to the 1/{k} grid: "
             f"[{', '.join(_fmt(v) for v in snapped)}]")
    return [float(v) for v in snapped]


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _emit(cfg: RunConfig, results: list, flags: list, out: str | None,
          csv_path: str | None, csv_header: list[str] | None,
          csv_rows: list[list] | None, gnuplot: str | None, echo) -> None:
    payload = {"config": cfg.to_dict(), "results": results,
               "flags": flags, "version": FORMAT_VERSION}
    if out:
        atomic_write(out, json_dumps(payload))
        echo(f"wrote {out}")
    if csv_path and csv_header is not None:
        atomic_write(csv_path, csv_text(csv_header, csv_rows or []))
        echo(f"wrote {csv_path}")
    if gnuplot:
        if not csv_path:
            raise CliError("--gnuplot needs --csv (the script plots the CSV)")
        atomic_write(gnuplot, _gnuplot_script(csv_path, cfg))
        echo(f"wrote {gnuplot}")


def _gnuplot_script(csv_path: str, cfg: RunConfig) -> str:
    return (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        f"set xlabel 'rate [{'bits' if cfg.bits else 'nats'}/use]'\n"
        "set ylabel 'exponent'\n"
        "set grid\n"
        f"plot '{csv_path}' using 1:2 with linespoints\n"
        "pause -1\n"
    )


def _unit(cfg: RunConfig, v: float) -> float:
    return v / LN2 if cfg.bits else v


def cmd_exponent(cfg: RunConfig, which: str, out, csv_path, gnuplot, echo) -> int:
    ch = cfg.channel.to_channel()
    comp = Dist(np.array(cfg.composition))
    metric = ML if cfg.metric == "ml" else MMI
    opts = cfg.opts()
    records = sweep(cfg.rates, comp, metric, ch, opts, which).records

    results = []
    csv_rows = []
    flags = []
    unit = "bits" if cfg.bits else "nats"
    echo(f"{'rate':>10} {'value [' + unit + ']':>16}  status")
    for rec in records:
        row = {
            "rate": rec.rate,
            "value": rec.value,
            "ok": rec.ok,
            "error": rec.error or "",
            # None (null, an empty CSV cell) where the exponent has no
            # coupling search: E_r, and failed records
            "raw_value": rec.diagnostics.get("raw_value"),
            "coupling_information": rec.diagnostics.get("coupling_information"),
        }
        results.append(row)
        csv_rows.append([row["rate"], row["value"], row["ok"],
                         row["raw_value"], row["coupling_information"], row["error"]])
        if not rec.ok:
            flags.append({"quantity": "exponent", "rate": rec.rate, "reason": rec.error})
        shown = "nan" if not rec.ok else _fmt(_unit(cfg, rec.value))
        echo(f"{_fmt(rec.rate):>10} {shown:>16}  {'ok' if rec.ok else 'FAILED'}")
    header = ["rate", "value", "ok", "raw_value", "coupling_information", "error"]
    _emit(cfg, results, flags, out, csv_path, header, csv_rows, gnuplot, echo)
    if cfg.strict and flags:
        return 1
    return 0


def cmd_certify(cfg: RunConfig, out, echo) -> int:
    ch = cfg.channel.to_channel()
    comp = Dist(np.array(cfg.composition))
    report = certify_theorem1(RatePoint(cfg.rates[0], comp), ch, cfg.opts(),
                              certify_tol=cfg.certify_tol)
    d = report.to_dict()
    flags = list(report.flags)
    if not report.passed:
        flags.append({"quantity": "certification",
                      "reason": "a judged margin fell below -certify_tol"})
    relax = min((m for c in report.per_coupling for m in c.judged_margins()),
                default=math.nan)
    echo(f"rate {_fmt(report.rate)}: trc_ml={_fmt(report.trc_ml)} "
         f"trc_mmi={_fmt(report.trc_mmi)} ml_upper={_fmt(report.ml_upper)} "
         f"mmi_lower={_fmt(report.mmi_lower)}")
    echo(f"judged margins: worst gamma-dual={_fmt(relax)} "
         f"mmi_lower-ml_upper={_fmt(report.margin_mmi_ml)} "
         f"ml_upper-trc_ml={_fmt(report.margin_upper_vs_trc_ml)} "
         f"trc_mmi-mmi_lower={_fmt(report.margin_trc_mmi_vs_lower)}")
    echo(f"reported only: lambda-psi={_fmt(report.margin_lambda_psi)} "
         f"phi-theta={_fmt(report.margin_phi_theta)}")
    echo(f"certification {'PASSED' if report.passed else 'FAILED'}")
    _emit(cfg, [d], flags, out, None, None, None, None, echo)
    return 1 if (cfg.strict and not report.passed) else 0


def cmd_simulate(cfg: RunConfig, out, csv_path, echo) -> int:
    ch = cfg.channel.to_channel()
    comp = Dist(np.array(cfg.composition))
    metric = ML if cfg.metric == "ml" else MMI
    _check_enumerable(cfg.n, ch.n_out)  # before any codebook is drawn

    def run_sample(i: int) -> dict:
        cb = sample_codebook(cfg.n, cfg.m_count, comp, seed=[cfg.seed, i])
        if cfg.decoder == "gld":
            prof = exact_error_profile_gld(cb, ch, GldConfig(metric=metric, beta=cfg.beta))
        else:
            prof = exact_error_profile(cb, ch, ML if cfg.decoder == "ml" else MMI)
        return {"index": i, "pe_average": prof.average, "pe_max": prof.max,
                "per_message": list(prof.per_message)}

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
            sample_rows = list(ex.map(run_sample, range(cfg.samples)))
    else:
        sample_rows = [run_sample(i) for i in range(cfg.samples)]

    trials = _trial_summary([s["pe_average"] for s in sample_rows], cfg.n, cfg.m_count,
                            cfg.decoder, cfg.seed)
    summary = {"type": "summary", **asdict(trials)}
    summary["M"] = summary.pop("m_count")
    zero, exponent = trials.zero_error_samples, trials.empirical_exponent
    flags = []
    if zero:
        flags.append({"quantity": "empirical_exponent", "reason":
                      f"{zero} sampled codebooks had zero error probability "
                      "and were excluded from the log-mean"})
    results = [summary] + [{"type": "sample", **s} for s in sample_rows]
    echo(f"n={cfg.n} M={cfg.m_count} (rate {_fmt(_unit(cfg, summary['rate']))}) "
         f"decoder={cfg.decoder} samples={cfg.samples}: "
         f"empirical exponent {_fmt(_unit(cfg, exponent)) if math.isfinite(exponent) else 'undefined'}"
         f"{' [' + str(zero) + ' zero-error samples]' if zero else ''}")
    header = ["index", "pe_average", "pe_max"]
    csv_rows = [[s["index"], s["pe_average"], s["pe_max"]] for s in sample_rows]
    _emit(cfg, results, flags, out, csv_path, header, csv_rows, None, echo)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="explab",
        description="Error exponents of fixed-composition codes over DMCs: "
                    "primal optimizers, dual-bound certification, exact simulation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, rates=False):
        p.add_argument("--channel", required=True, help="channel file (format: 'dmc |X| |Y|' header, then |X| rows)")
        p.add_argument("--composition", help="comma-separated composition (default uniform), snapped to the grid")
        p.add_argument("--grid-step", type=float, default=0.125, help="search grid step 1/k (default 1/8)")
        p.add_argument("--refine-iters", type=int, default=20)
        p.add_argument("--threads", type=int, default=1,
                       help="simulate's worker pool cap (default 1; the other commands "
                            "run in one thread); results do not depend on it")
        p.add_argument("--out", help="JSON output path")
        p.add_argument("--bits", action="store_true", help="print values in bits (files stay in nats)")
        p.add_argument("--strict", action="store_true", help="exit nonzero on any flagged failure")

    pe = sub.add_parser("exponent", help="exponent sweeps over rates")
    pe.add_argument("which", choices=["trc", "expurgated", "random"])
    common(pe)
    pe.add_argument("--rates", required=True, help="start:stop:step or r1,r2,...")
    pe.add_argument("--metric", choices=["ml", "mmi"], default="mmi")
    pe.add_argument("--csv", help="CSV output path (rate,value,ok,raw_value,coupling_information,error)")
    pe.add_argument("--gnuplot", help="write a gnuplot script plotting the CSV")

    pc = sub.add_parser("certify", help="bound-chain certification at one rate")
    pc.add_argument("which", choices=["theorem1"])
    common(pc)
    pc.add_argument("--rate", required=True, type=float)
    pc.add_argument("--certify-tol", type=float, default=1e-4)

    ps = sub.add_parser("simulate", help="exact error probabilities of sampled codebooks")
    common(ps)
    ps.add_argument("--n", required=True, type=int, help="blocklength")
    ps.add_argument("--M", required=True, type=int, help="number of codewords")
    ps.add_argument("--samples", type=int, default=100)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--decoder", choices=["ml", "mmi", "gld"], default="ml")
    ps.add_argument("--metric", choices=["ml", "mmi"], default="ml",
                    help="GLD metric (gld decoder only)")
    ps.add_argument("--beta", type=float, default=1.0, help="GLD ml-metric scale")
    ps.add_argument("--csv", help="CSV output path (index,pe_average,pe_max)")

    return ap


def run(argv: list[str] | None = None, echo=print) -> int:
    """Parse arguments, dispatch, write artifacts; returns the exit status."""
    args = _build_parser().parse_args(argv)
    try:
        with open(args.channel, encoding="utf-8") as fh:
            spec = parse_channel_spec(fh.read(), name=os.path.basename(args.channel))
        cfg = RunConfig(
            command=f"{args.command}:{getattr(args, 'which', '')}".rstrip(":"),
            channel_path=args.channel,
            channel=spec,
            metric=getattr(args, "metric", "mmi"),
            grid_step=args.grid_step,
            refine_iters=args.refine_iters,
            threads=args.threads,
            strict=args.strict,
            bits=args.bits,
        )
        if args.threads < 1:
            raise CliError(f"--threads must be at least 1, got {args.threads}")
        # the options check the grid step before the composition is snapped
        cfg.composition = _resolve_composition(args.composition, spec.n_in,
                                               cfg.opts().k, echo)
        if args.command == "exponent":
            cfg.rates = parse_rates(args.rates)
            return cmd_exponent(cfg, args.which, args.out, args.csv,
                                args.gnuplot, echo)
        if args.command == "certify":
            if args.rate < 0:
                raise CliError("rate must be >= 0")
            cfg.rates = [args.rate]
            cfg.certify_tol = args.certify_tol
            return cmd_certify(cfg, args.out, echo)
        if args.samples < 1:
            raise CliError(f"--samples must be at least 1, got {args.samples}")
        if args.seed < 0:
            raise CliError(f"--seed must be >= 0, got {args.seed}")
        cfg.n, cfg.m_count = args.n, args.M
        cfg.samples, cfg.seed = args.samples, args.seed
        cfg.decoder, cfg.beta = args.decoder, args.beta
        return cmd_simulate(cfg, args.out, getattr(args, "csv", None), echo)
    except (CliError, ProbError, OSError) as exc:
        echo(f"error: {exc}", file=sys.stderr) if echo is print else echo(f"error: {exc}")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
