"""Run the command-line interface of this checkout in a child process."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(*args, env=None, timeout=None):
    """`python -m destx ARGS` with this checkout's sources first on
    PYTHONPATH, DESTX_BUDGET unset, and then `env` applied; a child still
    running after `timeout` seconds raises subprocess.TimeoutExpired."""
    full_env = dict(os.environ)
    full_env.pop("DESTX_BUDGET", None)
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, full_env.get("PYTHONPATH"))))
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "destx", *args],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=timeout,
    )
