"""The benchmark's tracer (perfbench/tracer.py) wraps explab functions and
methods by name, so renaming one breaks every traced benchmark run. These
tests install the tracer in a fresh interpreter, where the wrapping cannot
leak into the other tests, and check that every traced layer resolves."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import importlib
import numpy as np
from tracer import LAYERS, Tracer

tracer = Tracer()
tracer.install()
for layer, _ in LAYERS:
    mod, *path = layer.split(".")
    obj = importlib.import_module("explab." + mod)
    for name in path:
        obj = getattr(obj, name)
    assert hasattr(obj, "__wrapped__"), f"{layer} is not wrapped"

from explab.search import RowMesh
mesh = RowMesh(np.array([0.5, 0.5]), np.array([0, 1]), np.array([1, 0]),
               np.array([[0.0, 1.0], [1.0, 0.0]]), 2, np.log(np.full((2, 2), 0.5)))
mesh.build("mmi")
mesh.stats_of(mesh.rows_of(0), "ml")
stats = tracer.stats
assert stats["search.RowMesh.build"]["candidates"] == 4, stats["search.RowMesh.build"]
assert stats["search.RowMesh.stats_of"]["calls"] == 1, stats["search.RowMesh.stats_of"]
print(len(LAYERS))
"""


def test_every_traced_layer_resolves():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) > 0
