#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload, print
every metric by name and unit, and end with one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {dense_values|dense_thin|served_mix}
                             --seed N --seconds S --trace {0|1}

--trace 0 prints the end-to-end metrics: setup_s (median of three cold
set-ups, each in a fresh process) plus the measuring program's latency,
accuracy and memory metrics. --trace 1 prints the per-layer metrics and
writes the run's spans as Chrome trace-event JSON under .bench_build/traces/.
The full result, with the machine fingerprint, is also written under
.bench_build/results/. The exit status is non-zero when the build fails, an
operation fails or an output check fails. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("dense_values", "dense_thin", "served_mix")
SETUP_REPEATS = 3
RUN_DEADLINE_S = 170.0  # a run (after its build) must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build perfbench plus the library it links."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        raise RuntimeError("library sources (CMakeLists.txt, src/) not found at " + ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
        check=True,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )


def source_revision():
    """Git commit when the checkout has one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sha256:" + digest.hexdigest()[:16]


def child_env():
    env = dict(os.environ)
    env["UNISVD_TUNING_FILE"] = ""  # never read a tuning table from $HOME
    return env


def remaining(start):
    return max(1.0, RUN_DEADLINE_S - (time.monotonic() - start))


def measure_setup(args, start):
    """Median cold set-up over SETUP_REPEATS fresh processes."""
    values = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [BINARY, "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=remaining(start),
        )
        if out.returncode != 0:
            raise RuntimeError("set-up probe failed: " + out.stderr.strip())
        fields = out.stdout.split()
        if len(fields) != 2 or fields[0] != "setup_s":
            raise RuntimeError("set-up probe printed %r" % out.stdout)
        values.append(float(fields[1]))
    return statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        build()
        start = time.monotonic()  # the build may take longer than one run
        setup_s = None if args.trace else measure_setup(args, start)
        cmd = [
            BINARY,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds),
            "--trace", str(args.trace),
            "--source", source_revision(),
        ]
        if args.trace:
            trace_dir = os.path.join(BUILD_ROOT, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
        out = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                             timeout=remaining(start))
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1

    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: the measuring program printed no result (exit %d)" % out.returncode)
        return 1

    metrics = {}
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        print("%-26s %14.6g %s" % ("setup_s", setup_s, "s"))
    metrics.update(result["metrics"])
    for line in lines[:-1]:
        print(line)
    print("fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))

    record = dict(result, metrics=metrics, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    results_dir = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    final = {
        "correct": bool(result["correct"]) and out.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
