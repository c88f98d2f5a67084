#!/usr/bin/env python3
"""What each command line call compiles, and how long that takes.

Every `python -m destx` call is a fresh interpreter, and the benchmark runs
it with PYTHONDONTWRITEBYTECODE=1, so each call compiles every destx module
it loads from source.  For each command this script runs it once on the
bundled running example in a child process, lists the destx modules it
loaded, plus `destx.__main__`, which `python -m destx` runs, and prints
each module's line count and its best-of-N `compile()` time, then the sums
per command.

    python3 scripts/compile_cost.py [--repeat 50]
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
PLANT, PAIRS, HAND = (str(DATA / f) for f in ("running_example.des", "distinguish.pairs", "example.policy"))

# the child runs the command and prints the destx modules loaded, on the
# last line of stderr
PROBE = (
    "import sys; from destx.cli import main; code = main(sys.argv[1:]); "
    "print(*sorted(m for m in sys.modules if m.startswith('destx')), file=sys.stderr); "
    "raise SystemExit(code)"
)


def commands(out: str) -> dict[str, list[str]]:
    return {
        "build-observer": ["build-observer", PLANT],
        "oracle-maxs": ["oracle-maxs", PLANT],
        "synthesize": ["synthesize", PLANT, PAIRS, out],
        "verify": ["verify", PLANT, HAND, PAIRS],
        "simulate": ["simulate", PLANT, HAND, "--trace", "σ3 σ2"],
    }


def loaded_modules(argv: list[str]) -> list[str]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    p = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, env=env)
    if p.returncode not in (0, 5):  # verify fails the hand-written policy with 5
        raise SystemExit(f"{argv[0]} exited {p.returncode}: {p.stderr}")
    loaded = p.stderr.splitlines()[-1].split()
    return loaded[:1] + ["destx.__main__"] + loaded[1:]


def module_path(name: str) -> Path:
    parts = name.split(".")
    path = SRC.joinpath(*parts)
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def compile_ms(path: Path, repeat: int) -> float:
    source = path.read_text("utf-8")
    best = float("inf")
    for _ in range(repeat):
        t = time.perf_counter()
        compile(source, str(path), "exec", dont_inherit=True)
        best = min(best, time.perf_counter() - t)
    return best * 1000


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=50, help="compile() runs per module, the best is kept")
    args = ap.parse_args()
    costs: dict[str, tuple[int, float]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command, argv in commands(str(Path(tmp) / "out.policy")).items():
            modules = loaded_modules(argv)
            for m in modules:
                if m not in costs:
                    path = module_path(m)
                    costs[m] = (len(path.read_text("utf-8").splitlines()), compile_ms(path, args.repeat))
            lines = sum(costs[m][0] for m in modules)
            ms = sum(costs[m][1] for m in modules)
            print(f"{command}: {len(modules)} modules, {lines} lines, {ms:.2f} ms")
            for m in modules:
                print(f"  {m:<18} {costs[m][0]:>5} {costs[m][1]:>7.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
