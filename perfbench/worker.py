"""One benchmark process: run whole rounds of explab CLI commands, timed.

    python3 perfbench/worker.py <spec.json> <result.json>

The spec lists the round's commands (argument lists for ``explab.cli.run``,
where "{round}" stands for the round's index), the seconds to fill and
whether to trace. Rounds repeat while the next one is expected to end within
the seconds, and at least one always runs. The result holds each command's wall and CPU time and exit status per round, the
process's peak resident memory, the sampled codebooks the simulate checks
need and, when traced, the per-layer metrics per round. Each command writes
its own --out file, which run.py checks.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from explab import Dist, cli, simulate

    # the simulate checks need the codewords; drawn before any tracing so
    # they do not count as the program's work
    codebooks = [
        [simulate.sample_codebook(cb["n"], cb["M"], Dist.uniform(2), seed=[cb["seed"], i])
         .codewords.tolist() for i in range(cb["samples"])]
        for cb in spec["codebooks"]
    ]
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def quiet(*args, **kwargs):
        pass

    rounds = []
    start = time.monotonic()
    while True:
        ops = []
        for op in spec["ops"]:
            argv = [a.replace("{round}", str(len(rounds))) for a in op["argv"]]
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                status, error = cli.run(argv, echo=quiet), ""
            except Exception:  # a crash is a failed operation, not a lost run
                status, error = -1, traceback.format_exc()
            ops.append({"name": op["name"], "s": time.perf_counter() - t0,
                        "cpu_s": time.process_time() - c0, "status": status, "error": error})
        rounds.append(ops)
        round_s = sum(o["s"] for o in ops)
        if time.monotonic() - start + round_s > spec["seconds"]:
            break

    result = {
        "rounds": rounds,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "codebooks": codebooks,
        "per_layer": tracer.report(len(rounds)) if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
