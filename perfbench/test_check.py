#!/usr/bin/env python3
"""Checks that the benchmark's output check catches a wrong point result.

Runs one repetition of cold_start twice: against the recorded point results,
where no point may fail, and against a copy with one recorded value
perturbed, where exactly that one point must fail. Run from the repository
root:

    python3 perfbench/test_check.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected_points.txt"
PERTURBED_POINT = "threat_seq_alpha"


def run_cold_start(expected):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cold_start",
         "--seed", "1", "--seconds", "1", "--trace", "0", "--reps", "1",
         "--expected", str(expected)],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def perturbed_copy():
    lines = []
    for line in EXPECTED.read_text().splitlines():
        fields = line.split()
        if fields and fields[0] == PERTURBED_POINT:
            fields[1] = repr(float(fields[1]) * (1 + 1e-6))
            line = " ".join(fields)
        lines.append(line)
    path = HERE / "out" / "expected_perturbed.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def main():
    clean = run_cold_start(EXPECTED)
    assert clean["correct"] and clean["failed"] == 0, clean
    perturbed = run_cold_start(perturbed_copy())
    assert not perturbed["correct"], perturbed
    assert perturbed["failed"] == 1, perturbed
    assert perturbed["attempted"] == clean["attempted"], perturbed
    print(f"ok: {clean['attempted']} points, 1 perturbed value, "
          f"{perturbed['failed']} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
