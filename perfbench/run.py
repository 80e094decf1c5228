#!/usr/bin/env python3
"""End-to-end DeepJoin benchmark: build, run one workload, record, report.

    python3 perfbench/run.py --workload query|serve|churn|scan --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt pulls in the repository's own build)
under $CARGO_TARGET_DIR (default .bench_build). Each run writes its full
result record, with provenance, to <build dir>/results/<workload>/ and
prints one JSON summary as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the span log next to the record). perfbench/compare.py
compares two result sets.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("query", "serve", "churn", "scan")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    bdir = os.path.join(build_root(), "perfbench-cmake")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(build_root(), "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(nproc()), "--target"]
                 + list(targets))
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                rc = str(e)
            if rc != 0:
                # A failed configure must not leave a cache that skips it.
                if "-S" in cmd:
                    cache = os.path.join(bdir, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                sys.stderr.write("perfbench: build step failed (%s): %s\n"
                                 "see %s\n" % (rc, " ".join(cmd), log_path))
                return None
    return bdir


def cmake_cache(bdir):
    out = {}
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(("#", "//")) or ":" not in line:
                    continue
                if "=" in line:
                    key, rest = line.split(":", 1)
                    out[key] = rest.split("=", 1)[1].strip()
    except OSError:
        pass
    return out


def source_digest(root):
    """sha256 over the program's sources and build files (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "cmake", "CMakeLists.txt"):
        path = os.path.join(root, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            files += [os.path.join(dirpath, n) for n in sorted(filenames)]
        for p in files:
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    try:
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def provenance(bdir, record):
    cache = cmake_cache(bdir)
    root = os.path.dirname(HERE)
    return {
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "compiler": cache.get("CMAKE_CXX_COMPILER", "unknown"),
        "dj_options": {k: v for k, v in sorted(cache.items())
                       if k.startswith("DJ_")},
        "kernel_tier": record["runtime"]["kernel_tier"],
        "nproc": record["runtime"]["nproc"],
        "workload": record["workload"],
        "seed": record["seed"],
        "seconds": record["seconds"],
        "trace": record["trace"],
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is there."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    bdir = build(["djbench"])
    if bdir is None:
        return 1
    work = os.path.join(build_root(), "work")
    results = os.path.join(build_root(), "results", args.workload)
    os.makedirs(work, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    stamp = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace,
                                      int(time.time() * 1000))
    spans = os.path.join(results, stamp + "-spans.json")
    cmd = [os.path.join(bdir, "djbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--work-dir", work, "--spans", spans]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("perfbench: djbench exited with %d\n"
                         % proc.returncode)
        return 1
    record = json.loads(lines[-1])
    record["provenance"] = provenance(bdir, record)
    with open(os.path.join(results, stamp + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    metrics = record["metrics"]
    want = expected_metrics(args.trace)
    if want is not None:
        got = {k: v["unit"] for k, v in metrics.items()}
        if got != want:
            sys.stderr.write("perfbench: metrics differ from BENCHMARK.json: "
                             "missing %s, extra %s\n" % (
                                 sorted(set(want) - set(got)),
                                 sorted(set(got) - set(want))))
            return 1
    phases = record["phases"]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["attempted"] - p["succeeded"] for p in phases)
    summary = {
        "correct": bool(record["checks"]["correct"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if not summary["correct"]:
        sys.stderr.write("perfbench: output checks failed: %s\n"
                         % record["checks"]["messages"])
    print(json.dumps(summary))
    return 0


def self_test():
    bdir = build(["djbench_selftest"])
    if bdir is None:
        return 1
    rc = subprocess.run([os.path.join(bdir, "djbench_selftest")]).returncode
    py = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                         os.path.join(HERE, "tests"), "-p", "test_*.py"])
    return 1 if rc != 0 or py.returncode != 0 else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
