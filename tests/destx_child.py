"""Run the command-line interface of this checkout in a child process."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(*args, timeout=None):
    """`python -m destx ARGS` with this checkout's sources first on
    PYTHONPATH; a child still running after `timeout` seconds raises
    subprocess.TimeoutExpired."""
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, full_env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "destx", *args],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=timeout,
    )
