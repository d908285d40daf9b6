#!/usr/bin/env python3
"""Self-tests of the benchmark's output checks: every check can fail.

Run from the repository root (about 3 minutes on 2 CPUs)::

    python3 decalbench/selftest.py

Each case runs one short workload (2 s window) with a fault
injected into the outputs its check reads, and passes only if the run
reports ``correct: false`` with at least one failed unit or problem. A
last case runs ``run.py`` in a directory without the ``repro`` sources
and expects a non-zero exit and no result line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

CASES = [
    ("serve_stream", "perturbed_detection"),
    ("serve_stream", "dropped_response"),
    ("serve_stream", "late_generator"),
    ("attack_train", "patch_digest"),
    ("challenge_eval", "eval_outcome"),
    ("av_drive", "av_action"),
]


def run_case(workload: str, inject: str) -> str:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", "0", "--inject", inject],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"crashed (exit {proc.returncode}): {proc.stderr[-400:]}"
    result = json.loads(lines[-1])
    problems = json.loads(lines[-2])["report"]["checks"]["problems"]
    if result["correct"] or not problems:
        return "not caught: run reported correct"
    return f"caught: {problems[0]}"


def run_bare_directory() -> str:
    """The benchmark alone, without the program, must fail fast."""
    os.makedirs(".decalbench_out", exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=".decalbench_out")
    try:
        shutil.copytree(os.path.dirname(RUN), os.path.join(bare, "decalbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "decalbench/run.py", "--workload", "av_drive",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return "not caught: exit 0 or a result printed"
    return f"caught: exit {proc.returncode}"


def main() -> int:
    failures = 0
    for workload, inject in CASES:
        verdict = run_case(workload, inject)
        failures += not verdict.startswith("caught")
        print(f"{workload:15s} {inject:20s} {verdict}", flush=True)
    verdict = run_bare_directory()
    failures += not verdict.startswith("caught")
    print(f"{'(no sources)':15s} {'bare directory':20s} {verdict}")
    print("PASS" if failures == 0 else f"FAIL ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
