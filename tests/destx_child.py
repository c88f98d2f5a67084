"""Run the command-line interface, or any Python code, of this checkout in a
child process."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(*args, timeout=None):
    """`python -m destx ARGS`, as `python_child` runs it."""
    return python_child("-m", "destx", *args, timeout=timeout)


def python_child(*argv, timeout=None):
    """`python ARGV` with this checkout's sources first on PYTHONPATH; a
    child still running after `timeout` seconds raises
    subprocess.TimeoutExpired."""
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, full_env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=timeout,
    )
