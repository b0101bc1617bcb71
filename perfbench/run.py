#!/usr/bin/env python3
"""Builds and runs the decision benchmark.

    python3 perfbench/run.py --workload schedule|fleet|fleet-chaos \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark is its own CMake project (perfbench/CMakeLists.txt) over the
repository's src/ tree. It is configured and built into .bench_build/ at the
repository root (or $CARGO_TARGET_DIR when set); build output goes to
stderr. The benchmark's standard output is passed through once it has
exited, after its last line has been checked against BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd, kills it on timeout, and always waits for it to end."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("timed out after %ds: %s" % (timeout, " ".join(cmd)))
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir(), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir(), "-j", jobs, "--target", target],
    ]
    for cmd in steps:
        code, _ = run_checked(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir(), target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(result)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "or units differ" % (missing, extra)
    return None


def main(argv):
    if argv == ["--selftest"]:
        binary = build("perfbench_selftest")
        code, _ = run_checked([binary], RUN_TIMEOUT_S)
        return code

    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or sorted(args) != ["--seconds", "--seed", "--trace", "--workload"]:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    binary = build("perfbench")
    extra = []
    if args["--trace"] == "1":
        extra = ["--spans", os.path.join(build_dir(), "spans-%s-%s.jsonl" % (
            args["--workload"], args["--seed"]))]
    code, out = run_checked([binary] + argv + extra, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                            text=True)
    lines = out.rstrip("\n").split("\n")
    try:
        problem = check_result(lines[-1], args["--trace"])
    except (ValueError, KeyError, TypeError) as e:
        problem = "no result line (%s)" % e
    if problem:
        print(out, file=sys.stderr)
        fail("benchmark exited with code %d; %s" % (code, problem))
    # A failed correctness check still prints its result, with a non-zero
    # exit code.
    sys.stdout.write(out)
    return 1 if code != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
