#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
or `perfbench/target`, runs one workload, and passes its output through.
The last line of standard output is the run's JSON result; it is printed
only after checking that it carries exactly the metrics BENCHMARK.json
lists for the mode (end-to-end with `--trace 0`, per-layer with
`--trace 1`). Exits non-zero, without a result, when the build or the run
fails or the result does not match BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def arg(argv, flag):
    if flag not in argv or argv.index(flag) + 1 >= len(argv):
        fail(f"missing {flag}")
    return argv[argv.index(flag) + 1]


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        # Cargo's output goes to stderr so standard output ends with the result.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(ROOT, target, "release", "perfbench")


def main():
    argv = sys.argv[1:]
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    arg(argv, "--workload")
    trace = arg(argv, "--trace")
    expected = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]

    binary = build()
    proc = subprocess.Popen([binary] + argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not a JSON result: {lines[-1]!r}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(result)}")
    if sorted(result["metrics"]) != sorted(expected):
        missing = set(expected) - set(result["metrics"])
        extra = set(result["metrics"]) - set(expected)
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, extra {sorted(extra)}")
    if proc.returncode != 0 or not result["correct"]:
        fail(f"run failed (exit code {proc.returncode}, correct {result['correct']})")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
