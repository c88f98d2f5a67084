"""The end-to-end demo script on the bundled running example."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_pipeline.py"


def test_run_pipeline_depth_6(tmp_path):
    out = tmp_path / "default.policy"
    p = subprocess.run(
        [sys.executable, str(SCRIPT), "--depth", "6", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    for line in (
        "PROP1 ok words=8 depth=6",
        "THM1 ok words=14 depth=6",
        "PROBLEM1 ok words=14 depth=6",
        "transmissions over words to depth 6: 21 of 43",
        f"wrote {out}",
    ):
        assert line in lines
    assert out.read_text().startswith("initial ")
