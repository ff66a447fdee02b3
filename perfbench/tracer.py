"""Per-layer spans around explab's public functions, installed from outside.

``Tracer.install()`` replaces each traced function or method by a wrapper
that times it and counts its calls. A function is replaced wherever an
explab module bound it by name, so ``exponents.mi_batch`` and
``duals.mi_batch`` both report into ``search.mi_batch``. Spans nest through
a stack: ``s`` is a span's inclusive time, ``self_s`` that time minus the
time of the traced spans it encloses. Some layers add a work count read from
their arguments or result (mesh candidates, joints, pattern evaluations,
enumerated outputs, the optimizer diagnostics) and ``exact_error_profile``
records its tracemalloc peak.

Only the benchmark's worker process of a traced run installs a tracer; an
untraced run leaves the program as it is.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
import tracemalloc

MODULES = ("prob", "search", "exponents", "duals", "simulate", "cli")

# (layer, reported stats). A layer is "<module>.<name>" or
# "<module>.<Class>.<method>"; the stats are summed over calls, except
# peak_mib, which is the largest over calls.
LAYERS = (
    ("search.RowMesh.build", ("calls", "self_s", "candidates")),
    ("search.mi_batch", ("calls", "self_s", "joints")),
    ("search.elog_batch", ("calls", "self_s", "joints")),
    ("search.TransportPolytope.joints", ("calls", "self_s")),
    ("search.RowMesh.stats_of", ("calls", "self_s")),
    ("search.pattern_min", ("calls", "s", "evals")),
    ("search.zoom_slot_grids", ("calls", "self_s")),
    ("search.sup_ray", ("calls", "s")),
    ("search.golden_max", ("calls", "s")),
    ("exponents.trc_exponent", ("calls", "s", "self_s")),
    ("exponents.expurgated_exponent", ("calls", "s", "self_s")),
    ("exponents.gamma", ("calls", "s", "self_s")),
    ("exponents.random_coding_exponent", ("calls", "s")),
    ("duals.psi", ("calls", "s", "self_s")),
    ("duals.theta", ("calls", "s", "self_s")),
    ("duals.lambda_bound", ("calls", "s", "self_s")),
    ("duals.phi_bound", ("calls", "s", "self_s")),
    ("duals.ml_upper_bound", ("calls", "s", "self_s")),
    ("duals.mmi_lower_bound", ("calls", "s", "self_s")),
    ("duals.certify_theorem1", ("calls", "s", "self_s")),
    ("simulate.sample_codebook", ("calls", "s")),
    ("simulate.exact_error_profile", ("calls", "s", "outputs", "peak_mib")),
    ("prob.coupling_grid", ("calls", "s")),
    ("prob.mutual_information", ("calls", "s")),
    ("cli.run", ("calls", "s", "self_s")),
    ("cli.json_dumps", ("calls", "s")),
    ("cli.parse_channel_spec", ("calls", "s")),
)

# sums of the ExponentResult.diagnostics of trc_exponent and expurgated_exponent
DIAGNOSTICS = ("outer_refine_evals", "inner_refine_evals",
               "outer_feasible_grid_points", "inner_feasible_grid_points")

UNITS = {"calls": "count", "s": "s", "self_s": "s", "candidates": "count",
         "joints": "count", "evals": "count", "outputs": "count", "peak_mib": "MiB"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = [(f"{layer}.{stat}", UNITS[stat]) for layer, stats in LAYERS for stat in stats]
    names += [(f"exponents.{d}", "count") for d in DIAGNOSTICS]
    return names


def _batch(j, trailing: int) -> int:
    """Joints in a batch: the product of the axes before the trailing ones."""
    return math.prod(j.shape[: j.ndim - trailing])


def _diagnostics(args, kwargs, result) -> dict:
    return {f"diag.{d}": result.diagnostics[d] for d in DIAGNOSTICS}


EXTRA = {
    "search.RowMesh.build": lambda a, k, r: {"candidates": a[0].n},
    "search.mi_batch": lambda a, k, r: {"joints": _batch(a[0], 2)},
    "search.elog_batch": lambda a, k, r: {"joints": _batch(a[0], (a[1] if len(a) > 1 else k["logw"]).ndim)},
    "search.pattern_min": lambda a, k, r: {"evals": r[2]},
    "simulate.exact_error_profile": lambda a, k, r: {"outputs": a[1].n_out ** a[0].n},
    "exponents.trc_exponent": _diagnostics,
    "exponents.expurgated_exponent": _diagnostics,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {layer: {} for layer, _ in LAYERS}
        self._stack: list[float] = []

    def _wrap(self, layer: str, fn):
        stats = self.stats[layer]
        extra = EXTRA.get(layer)
        malloc = layer == "simulate.exact_error_profile"
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if malloc:
                tracemalloc.start()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats["calls"] = stats.get("calls", 0) + 1
                stats["s"] = stats.get("s", 0.0) + dt
                stats["self_s"] = stats.get("self_s", 0.0) + dt - child
                if malloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    stats["peak_mib"] = max(stats.get("peak_mib", 0.0), peak)
            if extra is not None:
                for key, val in extra(args, kwargs, result).items():
                    stats[key] = stats.get(key, 0) + val
            return result

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"explab.{m}") for m in MODULES}
        mods["explab"] = importlib.import_module("explab")
        for layer, _ in LAYERS:
            mod_name, *path = layer.split(".")
            if len(path) == 2:  # a method: replace it on its class
                cls = getattr(mods[mod_name], path[0])
                setattr(cls, path[1], self._wrap(layer, getattr(cls, path[1])))
                continue
            orig = getattr(mods[mod_name], path[0])
            wrapped = self._wrap(layer, orig)
            for mod in mods.values():
                if getattr(mod, path[0], None) is orig:
                    setattr(mod, path[0], wrapped)

    def report(self, rounds: int) -> dict[str, float]:
        """Per-round values of every per-layer metric; absent layers read 0."""
        out = {}
        for layer, stats in LAYERS:
            got = self.stats[layer]
            for stat in stats:
                val = got.get(stat, 0)
                out[f"{layer}.{stat}"] = val if stat == "peak_mib" else val / rounds
        for d in DIAGNOSTICS:
            total = sum(self.stats[f"exponents.{fn}"].get(f"diag.{d}", 0)
                        for fn in ("trc_exponent", "expurgated_exponent"))
            out[f"exponents.{d}"] = total / rounds
        return out
