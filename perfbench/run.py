#!/usr/bin/env python3
"""End-to-end benchmark of xicc: build, run one workload, report.

One run:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench/ (and the xicc libraries it links) into $CARGO_TARGET_DIR
or .bench_build/, runs one workload, and prints a provenance line and then,
as the last line, the result object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics (spans are written to
<build>/traces/<workload>.tsv). --smoke runs a handful of operations.

Steadiness:
    python3 perfbench/run.py steady --workload NAME --runs K [--seconds S]
        [--trace 0|1] [--first-seed N] [--smoke]

runs the workload K times with seeds N..N+K-1 and prints, per metric, the
median, the quartiles and (q3 - q1) / median.

Run from the root of a source tree. Exits non-zero, without a result, when
the tree has no xicc sources to build.
"""

import argparse
import datetime
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("authoring_session", "gadget_oneshot", "batch_bulk",
             "fresh_oneshot")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run's own limit; a run that goes past it is killed and reports nothing.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no xicc sources (src/CMakeLists.txt) next to perfbench/; "
            "nothing to measure")
        sys.exit(2)
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            step(["cmake", "-S", HERE, "-B", out,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
        step(["cmake", "--build", out, "--target", "xicc_perfbench",
              "-j", str(os.cpu_count() or 1)])
    return os.path.join(out, "xicc_perfbench")


def local_env():
    """The environment of every child: compilers and the program keep
    their temporary files inside the build directory, not in /tmp."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def step(command):
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          env=local_env())
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:])
        log(f"build step failed: {' '.join(command)}")
        sys.exit(2)


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """sha256 over the measured sources (src/ and perfbench/), so a result
    names its code even where the tree is not a git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def run_once(binary, workload, seed, seconds, trace, smoke):
    """Runs one workload; returns (exit code, provenance dict, result)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, f"{workload}.tsv")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=local_env())
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: no result within {RUN_TIMEOUT_S} s")
        return 3, None, None
    lines = done.stdout.strip().splitlines()
    provenance, result = None, None
    for line in lines:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log(f"{workload} seed {seed}: no result (exit {done.returncode})")
        return done.returncode or 3, provenance, None
    return done.returncode, provenance, result


def main_run(args):
    binary = build()
    code, provenance, result = run_once(binary, args.workload, args.seed,
                                        args.seconds, args.trace, args.smoke)
    if result is None:
        sys.exit(code or 3)
    provenance = dict(provenance or {})
    provenance.update({
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
                     .strftime("%Y-%m-%dT%H:%M:%SZ"),
    })
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    sys.exit(code)


def main_steady(args):
    binary = build()
    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        code, provenance, result = run_once(binary, args.workload, seed,
                                            args.seconds, args.trace,
                                            args.smoke)
        if result is None or code != 0 or not result["correct"]:
            log(f"run with seed {seed} failed (exit {code})")
            sys.exit(code or 1)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        log(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()))
    summary = {}
    print(f"{'metric':32} {'unit':>9} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8}")
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": units[name], "median": median, "q1": q1,
                         "q3": q3, "spread": spread, "values": vals}
        print(f"{name:32} {units[name]:>9} {median:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:8.4f}")
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "seconds": args.seconds, "trace": args.trace,
                      "first_seed": args.first_seed, "metrics": summary}))


def main():
    argv = sys.argv[1:]
    steady = bool(argv) and argv[0] == "steady"
    parser = argparse.ArgumentParser(
        prog="run.py" + (" steady" if steady else ""),
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    if steady:
        parser.add_argument("--runs", type=int, default=10)
        parser.add_argument("--first-seed", type=int, default=1)
        main_steady(parser.parse_args(argv[1:]))
    else:
        parser.add_argument("--seed", type=int, required=True)
        main_run(parser.parse_args(argv))


if __name__ == "__main__":
    main()
