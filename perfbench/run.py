#!/usr/bin/env python3
"""Builds and runs the ddup end-to-end benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload <aqp_read|join_read|drift_update>
                             --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the ddup library from
src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; runs the histogram self-test; runs one workload; and
checks that the final JSON line names exactly the metrics BENCHMARK.json
declares for the mode (end_to_end with --trace 0, per_layer with --trace 1).
Every checkpoint the run writes lives in a temporary directory under the
build directory that is removed on exit. Exits nonzero on any build, test,
correctness or format failure.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def build(build_dir):
    configured = os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
    if configured and run_quiet(["cmake", "--build", build_dir, "-j", "4"]):
        return True
    # No build tree yet, or one that no longer builds (say, configured from
    # another checkout): configure from scratch.
    shutil.rmtree(build_dir, ignore_errors=True)
    return (run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                       "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]) and
            run_quiet(["cmake", "--build", build_dir, "-j", "4"]))


def expected_metrics(trace):
    """(name -> unit) declared in BENCHMARK.json for the mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Problems with the final JSON line; empty when it is well formed."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return ["unexpected keys %s" % sorted(result)]
    problems = []
    if result["attempted"] < 1:
        problems.append("no operations attempted")
    expected = expected_metrics(trace)
    if expected is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            wrong = sorted(k for k in got if k in expected and
                           got[k] != expected[k])
            problems.append("metrics differ from BENCHMARK.json: missing %s, "
                            "extra %s, unit mismatch %s"
                            % (missing, extra, wrong))
    return problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    # A terminated run still stops its benchmark process and removes its
    # checkpoint directory (the finally clause below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    out_dir = os.path.join(build_root, "perfbench-out")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        print("perfbench: histogram self-test failed", file=sys.stderr)
        return 1

    os.makedirs(out_dir, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="ckpt-", dir=out_dir)
    proc = None
    watchdog = None
    last = ""
    try:
        proc = subprocess.Popen(
            [os.path.join(build_dir, "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", out_dir, "--tmp-dir", tmp_dir],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        watchdog.daemon = True
        watchdog.start()
        # Echo everything but the result line, which is printed last, after
        # the format check.
        pending = None
        for line in proc.stdout:
            if pending is not None:
                sys.stdout.write(pending)
                sys.stdout.flush()
            pending = line
        proc.wait()
        last = (pending or "").strip()
    finally:
        if watchdog is not None:
            watchdog.cancel()
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp_dir, ignore_errors=True)

    if not last.startswith("{"):
        if last:
            print(last)
        print("perfbench: exited with %d and no result" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    problems = check_result(last, args.trace)
    print(last)
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    if problems:
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
