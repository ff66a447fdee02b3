"""Benchmark of explab driven through its CLI, one workload per run.

    python3 perfbench/run.py --workload primal-bsc --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (``src/explab``); nothing is built or
installed. The run:

1. writes the workload's channel file under ``.perfbench_out/``;
2. untraced only: times seven fresh interpreters, after one warm-up start,
   from launch to ``explab.cli`` imported and the channel parsed
   (``setup_s`` is their median);
3. starts one worker process (``worker.py``) with BLAS/OpenMP pinned to one
   thread and ``EXPLAB_THREADS`` unset, which runs whole rounds of the
   workload's ``explab.cli.run`` commands with ``--threads 1`` until the
   next round would end after ``--seconds`` (at least one round);
4. checks every output file against ``oracle``'s closed forms and the
   method's properties (``workloads``);
5. prints one JSON line: correct, attempted, failed and the metrics.

Untraced metrics: ``setup_s``, ``wall_s`` (the median round's wall time)
and ``peak_rss_mib`` (the worker's peak resident memory). Traced
(``--trace 1``) metrics: the per-layer figures of ``tracer`` per round and
``trace.wall_s``, the traced round's wall time. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import metric_names  # noqa: E402
from workloads import CHANNELS, KNOWN_FAULTS, WORKLOADS  # noqa: E402

SETUP_STARTS = 7
WORKER_TIMEOUT_S = 170
PROBE = (
    "import sys, time\n"
    "from explab import cli\n"
    "with open(sys.argv[1], encoding='utf-8') as fh:\n"
    "    cli.parse_channel_spec(fh.read()).to_channel()\n"
    "print(time.monotonic())\n"
)


def pinned_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("EXPLAB_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_seconds(channel_path: str, env: dict) -> float:
    """Median over fresh interpreters of launch -> program imported and channel parsed."""
    samples = []
    for _ in range(SETUP_STARTS + 1):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", PROBE, channel_path], env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(out.stdout) - t0)
    return statistics.median(samples[1:])


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_channel(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dmc {len(rows)} {len(rows[0])}\n")
        fh.writelines(" ".join(repr(v) for v in row) + "\n" for row in rows)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "explab", "cli.py")):
        print(f"error: no explab source under {src}; run from the repository root",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.seed)
    out_dir = os.path.join(root, ".perfbench_out", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    channel_path = os.path.join(out_dir, f"{wl.channel}.ch")
    write_channel(channel_path, CHANNELS[wl.channel])
    env = pinned_env(src)

    metrics = {}
    if not args.trace:
        metrics["setup_s"] = {"value": setup_seconds(channel_path, env), "unit": "s"}

    commands = wl.commands()
    out_of = {name: os.path.join(out_dir, f"r{{round}}-{name}.json") for name, _ in commands}
    spec = {
        "ops": [{"name": name, "argv": argv + ["--channel", channel_path, "--threads", "1",
                                                "--out", out_of[name]]}
                for name, argv in commands],
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "codebooks": wl.codebooks(),
    }
    spec_path = os.path.join(out_dir, "spec.json")
    result_path = os.path.join(out_dir, "worker.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
                          env=env, cwd=root, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"error: the worker exited with status {proc.returncode}", file=sys.stderr)
        return 1
    res = load_json(result_path)

    attempted = failed = 0
    correct = True
    for k, ops in enumerate(res["rounds"]):
        crashed = [op for op in ops if op["status"] != 0]
        if crashed:
            for op in crashed:
                print(f"round {k}: {op['name']} exited {op['status']}\n{op['error']}", file=sys.stderr)
            print(f"error: round {k} is incomplete", file=sys.stderr)
            return 1
        outputs = {name: load_json(path.replace("{round}", str(k))) for name, path in out_of.items()}
        n, failures = wl.check(outputs, res["codebooks"])
        attempted += n
        failed += len(failures)
        for name, reason in failures:
            known = name in KNOWN_FAULTS
            correct &= known
            print(f"round {k}: {'known fault' if known else 'FAILED'}: {reason}", file=sys.stderr)

    round_s = [sum(op["s"] for op in ops) for ops in res["rounds"]]
    print(f"{args.workload}: {len(round_s)} round(s), wall_s {round_s}, cpu_s "
          f"{[sum(op['cpu_s'] for op in ops) for ops in res['rounds']]}", file=sys.stderr)
    if args.trace:
        metrics["trace.wall_s"] = {"value": statistics.median(round_s), "unit": "s"}
        for name, unit in metric_names():
            metrics[name] = {"value": res["per_layer"][name], "unit": unit}
    else:
        metrics["wall_s"] = {"value": statistics.median(round_s), "unit": "s"}
        metrics["peak_rss_mib"] = {"value": res["peak_rss_kib"] / 1024.0, "unit": "MiB"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
