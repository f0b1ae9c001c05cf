#!/usr/bin/env python3
"""The repo benchmark: builds the harness, runs one workload, checks it.

    python3 perfbench/run.py --workload table1-suite --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The first run configures and builds
perfbench/ (a CMake package that compiles ../src in Release mode) into
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the
build.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

Besides the checks the harness makes on every run (each problem's best
log-likelihood is bit-identical across runs and equal to a from-scratch
re-score of the best program), this script compares each problem's best
log-likelihood and target verdict, bit for bit, with the values recorded
in perfbench/expected.json for the seeds recorded there.

Other modes:
    --smoke    run every workload at toy size, traced and untraced, and
               assert the output has every metric of BENCHMARK.json with
               its unit and that the output checks ran
    --record   re-record perfbench/expected.json (the default seed and
               the held-out seed, full size; the default seed at toy size)
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("table1-suite", "table1-4x")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def build():
    """Configures (once) and builds the harness; returns its path."""
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if _have("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "perfbench")


def _have(prog):
    return any(os.access(os.path.join(d, prog), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def run_harness(binary, workload, seed, seconds, trace, size):
    """Runs the harness once; returns (info lines, detail, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size,
           "--out-dir", os.path.join(build_dir(), "perfbench-out")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: harness timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        log("error: harness exited with %d" % proc.returncode)
        return None
    detail = None
    for line in lines:
        if line.startswith("detail: "):
            detail = json.loads(line[len("detail: "):])
    return lines[:-1], detail, json.loads(lines[-1])


def load_expected():
    try:
        with open(EXPECTED) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def compare_expected(detail, result, size, seed):
    """Fails each problem of the first instances whose best LL or target
    verdict differs from the recorded one.  Returns a note for the log."""
    rec = load_expected().get(size, {}).get(detail["workload"], {}).get(str(seed))
    if rec is None:
        return "no recorded outputs for this seed"
    bad = ["%d/%s" % (i, name)
           for i, (got, want) in enumerate(zip(detail["instances"], rec))
           for name, value in got["problems"].items()
           if want["problems"].get(name) != value]
    if bad:
        result["failed"] += len(bad)
        result["correct"] = False
        return "MISMATCH against recorded outputs: " + ", ".join(bad)
    return "matches recorded outputs (%d instances)" % min(
        len(detail["instances"]), len(rec))


def measure(binary, workload, seed, seconds, trace, size):
    """One checked run; returns the result object or None."""
    out = run_harness(binary, workload, seed, seconds, trace, size)
    if out is None:
        return None, []
    info, detail, result = out
    if detail is not None:
        note = compare_expected(detail, result, size, seed)
        info.append("expected: " + note)
    return result, info


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for w in spec["workloads"]:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, info = measure(binary, w["name"], DEFAULT_SEED, 1, trace, "toy")
            problems = []
            if result is None:
                problems.append("no result")
            else:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append("result keys %s" % sorted(result))
                if not result.get("correct") or result.get("failed"):
                    problems.append("output check failed")
                want = {m["name"]: m["unit"] for m in names}
                got = {k: v.get("unit") for k, v in result["metrics"].items()}
                if want != got:
                    problems.append("metrics differ: missing %s, extra %s" % (
                        sorted(set(want) - set(got)), sorted(set(got) - set(want))))
                checks = [l for l in info if l.startswith("check: ")]
                if not checks or json.loads(checks[0][7:])["rescored"] < 1:
                    problems.append("re-score check did not run")
                if not any(l.startswith("expected: matches") for l in info):
                    problems.append("recorded-output check did not run")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            log("smoke %-14s trace=%d %s" % (w["name"], trace, status))
            ok = ok and not problems
    return 0 if ok else 1


def record(binary):
    rec = {}
    for size, seeds in (("full", (DEFAULT_SEED, HELD_OUT_SEED)),
                        ("toy", (DEFAULT_SEED,))):
        for w in WORKLOADS:
            for seed in seeds:
                out = run_harness(binary, w, seed, 1, 0, size)
                if out is None or not out[2]["correct"]:
                    log("error: %s seed %d (%s) failed" % (w, seed, size))
                    return 1
                rec.setdefault(size, {}).setdefault(w, {})[str(seed)] = \
                    out[1]["instances"]
                log("recorded %s %s seed %d" % (size, w, seed))
    text = json.dumps(rec, indent=1, sort_keys=True)
    # One line per problem: ["best LL as a C99 hex float", reached].
    text = re.sub(r'\[\s*("[^"]*"),\s*(true|false)\s*\]', r"[\1, \2]", text)
    with open(EXPECTED, "w") as f:
        f.write(text + "\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not (args.smoke or args.record or args.workload):
        ap.error("--workload is required")

    t0 = time.monotonic()
    binary = build()
    if binary is None:
        log("error: build failed")
        return 1
    log("build checked in %.1f s" % (time.monotonic() - t0))
    if args.smoke:
        return smoke(binary)
    if args.record:
        return record(binary)

    result, info = measure(binary, args.workload, args.seed, args.seconds,
                           args.trace, args.size)
    if result is None:
        return 1
    for line in info:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
