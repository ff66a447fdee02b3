"""Golden outputs: CLI results must equal a stored snapshot.

Most commands run on BSC(0.1). Two ``certify theorem1`` runs use asymmetric
channels, where psi and theta (and lambda and phi) differ between a coupling
and its mirror image: [[0.75, 0.25], [0.1, 0.9]] at R = 0.2 and the
Z-channel [[1, 0], [0.2, 0.8]] at R = 0.01. The snapshot pins today's values,
known faults included.

Performance changes promise byte-identical outputs; this test keeps that
promise checked. The parsed JSON of each command, minus the machine-specific
``channel_path``, must equal the snapshot in ``tests/data/`` exactly. A
change that moves a value on purpose regenerates the snapshot with

    PYTHONPATH=src python tests/test_golden_outputs.py --write

and lists the moved values in CHANGES.md.
"""

import json
import pathlib
import sys
import tempfile

import pytest

from explab.cli import run as cli_run

SNAPSHOT = pathlib.Path(__file__).parent / "data" / "golden.json"
CHANNELS = {
    "bsc01": "dmc 2 2\n0.9 0.1\n0.1 0.9\n",
    "asym": "dmc 2 2\n0.75 0.25\n0.1 0.9\n",
    "z": "dmc 2 2\n1 0\n0.2 0.8\n",
}
COMMANDS = {
    "certify-theorem1-0": ["certify", "theorem1", "--rate", "0"],
    "certify-theorem1-0.01": ["certify", "theorem1", "--rate", "0.01"],
    **{f"exponent-{which}-{metric}-0": ["exponent", which, "--metric", metric, "--rates", "0"]
       for which in ("trc", "expurgated") for metric in ("ml", "mmi")},
    **{f"simulate-{decoder}": ["simulate", "--n", "14", "--M", "4", "--samples", "2",
                               "--seed", "7", "--decoder", decoder]
       for decoder in ("ml", "mmi", "gld")},
    "certify-theorem1-asym-0.2": ["certify", "theorem1", "--rate", "0.2"],
    "certify-theorem1-z-0.01": ["certify", "theorem1", "--rate", "0.01"],
}
# the commands not run on BSC(0.1)
CHANNEL_OF = {"certify-theorem1-asym-0.2": "asym", "certify-theorem1-z-0.01": "z"}


def _outputs(workdir: pathlib.Path, names) -> dict:
    got = {}
    for name in names:
        channel = CHANNEL_OF.get(name, "bsc01")
        ch_file = workdir / f"{channel}.ch"
        ch_file.write_text(CHANNELS[channel])
        out = workdir / f"{name}.json"
        argv = COMMANDS[name] + ["--channel", str(ch_file), "--threads", "1", "--out", str(out)]
        assert cli_run(argv, echo=lambda *a, **k: None) == 0, name
        doc = json.loads(out.read_text())
        doc["config"].pop("channel_path")
        got[name] = doc
    return got


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_equals_snapshot(name, tmp_path):
    want = json.loads(SNAPSHOT.read_text())[name]
    assert _outputs(tmp_path, [name])[name] == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_outputs.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        snap = _outputs(pathlib.Path(tmp), sorted(COMMANDS))
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(snap, indent=1, sort_keys=True) + "\n")
    print(f"wrote {SNAPSHOT}")
