#!/usr/bin/env python3
"""Repository benchmark launcher.

Builds the benchmark binary from source, measures set-up time across fresh
processes, runs one workload and prints its result as the last stdout line:

    python3 perfbench/run.py --workload link|harbor|network --seed N \
        --seconds S --trace 0|1

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json;
with --trace 1 it carries the per-layer metrics of a separate traced run.
Run it from the repository root. Build products go to $CARGO_TARGET_DIR
(default .bench_build); spans and result records go to .bench_out.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("link", "harbor", "network")
SETUP_PROBES = 5
DEADLINE_S = 170.0  # one run must end within 180 s
STARTED = time.monotonic()


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def remaining():
    return max(1.0, DEADLINE_S - (time.monotonic() - STARTED))


def build(root, build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "aqua_perfbench"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=root)
        if proc.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    binary = build_dir / "aqua_perfbench"
    if not binary.is_file():
        raise RuntimeError(f"benchmark binary missing: {binary}")
    return binary


def setup_seconds(binary, args, root):
    """Median, over fresh processes, of process start to the first timed block."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(binary), *args, "--setup-only"], cwd=root,
                                stdout=subprocess.PIPE, text=True)
        elapsed = None
        try:
            for line in proc.stdout:
                if line.startswith("setup_done"):
                    elapsed = time.perf_counter() - t0
            proc.wait(timeout=remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or elapsed is None:
            raise RuntimeError("set-up probe failed")
        samples.append(elapsed)
    return statistics.median(samples), samples


def run_workload(binary, args, root):
    proc = subprocess.Popen([str(binary), *args], cwd=root, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=remaining())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"workload printed nothing (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1]), lines, proc.returncode


def provenance(root, build_line):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                capture_output=True, timeout=10).stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass
    # The checkout may not be a git repository: a digest of the sources that
    # build the benchmark identifies the code either way.
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".h", ".txt", ".py"):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    digest.update((root / "CMakeLists.txt").read_bytes())
    compiler, _, build_type = build_line.partition(", ")
    return {
        "arch": platform.machine(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": compiler,
        "build_type": build_type,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def declared_metrics(root, key):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[key]]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opt = p.parse_args()

    root = Path.cwd()
    if not (root / "src").is_dir() or not (root / "CMakeLists.txt").is_file():
        log("run.py: run from the repository root (src/ and CMakeLists.txt not found)")
        return 1
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        binary = build(root, build_dir)
        args = ["--workload", opt.workload, "--seed", str(opt.seed),
                "--seconds", repr(opt.seconds), "--trace", str(opt.trace),
                "--out-dir", str(out_dir)]
        if opt.trace == 0:
            setup_s, setup_samples = setup_seconds(binary, args, root)
        result, lines, code = run_workload(binary, args, root)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        return 1

    build_line = next((l[len("build: "):] for l in lines if l.startswith("build: ")), "")
    prov = provenance(root, build_line)
    print("provenance " + json.dumps(prov, sort_keys=True))

    if opt.trace == 0:
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setup_samples))
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **result["end_to_end"]}
        declared = declared_metrics(root, "end_to_end")
    else:
        metrics = result["per_layer"]
        declared = declared_metrics(root, "per_layer")
    correct = bool(result["correct"]) and code == 0
    # The reported set must be exactly the declared one, finite, with units.
    if sorted(metrics) != sorted(n for n, _ in declared):
        log(f"run.py: metric names differ from BENCHMARK.json: {sorted(metrics)}")
        correct = False
    for name, unit in declared:
        m = metrics.get(name)
        if m is None or m["unit"] != unit or not math.isfinite(m["value"]):
            log(f"run.py: metric {name} missing, non-finite or not in {unit}")
            correct = False
    final = {"correct": correct, "attempted": int(result["attempted"]),
             "failed": int(result["failed"]),
             "metrics": {n: metrics[n] for n, _ in declared if n in metrics}}

    record = {"workload": opt.workload, "seed": opt.seed, "seconds": opt.seconds,
              "trace": opt.trace, "provenance": prov, **final}
    (out_dir / f"{opt.workload}-{opt.seed}-trace{opt.trace}.result.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(final))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
