#!/usr/bin/env python3
"""Byte-compare the CLI of two source trees.

    python scripts/compare_cli.py OLD_TREE NEW_TREE

Runs ``validate-env``, ``transform``, ``index``, ``simulate``,
``--format json simulate``, ``audit --suite all`` and ``bound`` on each
of the five shipped configs (``configs/*.cfg`` of each tree) at
``--seed 0`` and ``--seed 5``: 70 runs per tree.  Each run is a fresh
``python -m dynamech.cli`` process with ``PYTHONPATH=<tree>/src`` and
``PYTHONDONTWRITEBYTECODE=1``, in its own temporary directory, reading
a copy of the tree's config there and writing to ``out/`` there, so the
two trees' runs see the same relative paths.

Every run's artifacts, stdout, stderr and exit code are compared.  Each
difference is listed; the exit status is 0 only when all 70 runs match.
It takes minutes (the audits dominate), so no test runs it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

CONFIGS = ("ar1_additive", "exponential_control", "posted_price", "sponsored_search_2", "sponsored_search_4")
SEEDS = (0, 5)
COMMANDS = (
    ("validate-env",),
    ("transform",),
    ("index",),
    ("simulate",),
    ("--format", "json", "simulate"),
    ("audit", "--suite", "all"),
    ("bound",),
)
WORKERS = 2  # cases run at once, each the old tree's run then the new one's


def run(tree: Path, config: str, seed: int, command: tuple[str, ...]) -> dict:
    """One CLI run in a fresh directory: its files, stdout, stderr and code."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(prefix="compare_cli_") as tmp:
        work = Path(tmp)
        shutil.copy(tree / "configs" / f"{config}.cfg", work / "run.cfg")
        argv = ["--config", "run.cfg", "--seed", str(seed), "--out", "out", *command]
        proc = subprocess.run(
            [sys.executable, "-m", "dynamech.cli", *argv], cwd=work, env=env, capture_output=True
        )
        out = work / "out"
        files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return {"files": files, "stdout": proc.stdout, "stderr": proc.stderr, "code": proc.returncode}


def differences(old: dict, new: dict) -> list[str]:
    out = [what for what in ("code", "stdout", "stderr") if old[what] != new[what]]
    for name in sorted(set(old["files"]) | set(new["files"])):
        if old["files"].get(name) != new["files"].get(name):
            both = name in old["files"] and name in new["files"]
            out.append(name if both else f"{name} (only in one tree)")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage:", __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old_tree, new_tree = (Path(a).resolve() for a in argv)
    runs = [(config, seed, command) for config in CONFIGS for seed in SEEDS for command in COMMANDS]

    def both(case):
        return run(old_tree, *case), run(new_tree, *case)

    failed = 0
    with ThreadPoolExecutor(WORKERS) as pool:
        for (config, seed, command), (old, new) in zip(runs, pool.map(both, runs)):
            diff = differences(old, new)
            label = f"{config} --seed {seed} {' '.join(command)}"
            if diff:
                failed += 1
                print(f"DIFFER  {label}: {', '.join(diff)}")
            else:
                print(f"same    {label} (exit {old['code']}, {len(old['files'])} files)")
    print(f"{len(runs) - failed} of {len(runs)} runs identical")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
