"""Golden outputs: CLI results on BSC(0.1) must equal a stored snapshot.

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

SNAPSHOT = pathlib.Path(__file__).parent / "data" / "golden_bsc01.json"
CHANNEL = "dmc 2 2\n0.9 0.1\n0.1 0.9\n"
COMMANDS = {
    "certify-theorem1-0": ["certify", "theorem1", "--rate", "0"],
    "certify-theorem1-0.01": ["certify", "theorem1", "--rate", "0.01"],
    **{f"exponent-{which}-{metric}-0": ["exponent", which, "--metric", metric, "--rates", "0"]
       for which in ("trc", "expurgated") for metric in ("ml", "mmi")},
    **{f"simulate-{decoder}": ["simulate", "--n", "14", "--M", "4", "--samples", "2",
                               "--seed", "7", "--decoder", decoder]
       for decoder in ("ml", "mmi", "gld")},
}


def _outputs(workdir: pathlib.Path, names) -> dict:
    ch_file = workdir / "bsc01.ch"
    ch_file.write_text(CHANNEL)
    got = {}
    for name in names:
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
