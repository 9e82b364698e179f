#!/usr/bin/env python3
"""Benchmark of the Mr.TPL router: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The router and the benchmark driver
(perfbench/src) are built from source into $CARGO_TARGET_DIR (default
.bench_build) on first use. Each run is its own process, because peak RSS
is process-wide. The last line of stdout is the result:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

--trace 0 reports every end-to-end metric of BENCHMARK.json; --trace 1
runs a short untraced measurement, then a traced one, and reports every
per-layer metric plus the tracing overhead. A line before the result
gives the host. The exit status is nonzero when any output check fails,
the driver crashes, or the build fails. See perfbench/README.md.
"""

import argparse
import functools
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("prod_serial", "prod_tiled", "tpl_dense", "eco_stream")
BUILD_TYPE = "Release"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SERIAL_REF_SECONDS = 0  # the warm-up unit and the least measured units


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure (a no-op when cached), then build the driver only."""
    out = build_dir()
    binary = out / "mrtpl_perfbench"
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "mrtpl_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return binary


@functools.cache
def source_digest():
    """Digest of every source the driver is built from."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench/src", "perfbench/CMakeLists.txt"):
        for path in sorted(p for p in [ROOT / top, *(ROOT / top).rglob("*")] if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_line(compiler):
    commit = "none (not a git checkout)"
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "compiler": compiler, "build_type": BUILD_TYPE,
            "commit": commit, "source_sha256": source_digest()}


def drive(binary, workload, seed, seconds, trace, deadline, min_units=0):
    """One process of the driver; returns its JSON object (None on crash).
    min_units > 0 overrides the workload's least number of measured units."""
    # Relative to ROOT, where the driver runs: keeps the daemon's Unix
    # socket path short whatever the checkout's own path.
    work = os.path.relpath(
        build_dir().parent / "perfbench-work" / f"{workload}-{seed}-{os.getpid()}", ROOT)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work]
    if min_units > 0:
        cmd += ["--min-units", str(min_units)]
    if trace:
        traces = build_dir().parent / "perfbench-traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"{workload}: driver timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"{workload}: driver crashed (exit {proc.returncode})")
        return None
    result = json.loads(lines[-1])
    for problem in result["problems"]:
        log(f"{workload}: CHECK FAILED: {problem}")
    return result


def serial_path():
    # The routing inputs do not depend on the seed (README "Seeds"), so one
    # serial reference serves every seed. It is keyed on the source digest:
    # a reference routed by other sources is never read.
    return build_dir().parent / "perfbench-ref" / f"prod_serial-{source_digest()}.json"


def serial_reference(binary, seed, deadline):
    """prod_serial hash and route time of these sources, cached so
    prod_tiled can check byte identity without routing serially again."""
    if serial_path().exists():
        return json.loads(serial_path().read_text())
    log("prod_tiled: routing prod_serial once as the hash reference")
    result = drive(binary, "prod_serial", seed, SERIAL_REF_SECONDS, False, deadline)
    if result is None or result["problems"]:
        return None
    return record_serial(result)


def record_serial(result):
    ref = {"hash": result["info"]["solution_hash"], "route_s": result["e2e"]["route_s"]}
    serial_path().parent.mkdir(parents=True, exist_ok=True)
    serial_path().write_text(json.dumps(ref))
    return ref


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S  # a first run's build is extra

    # A traced run is compared with the untraced run's first (cold) unit,
    # so its untraced leg measures no more than one unit after that.
    plain = drive(binary, args.workload, args.seed, 0 if args.trace else args.seconds,
                  False, deadline, min_units=1 if args.trace else 0)
    traced = None
    if args.trace and plain is not None:
        traced = drive(binary, args.workload, args.seed, args.seconds, True, deadline)
    runs = [plain] + ([traced] if args.trace else [])

    problems = [p for r in runs if r is not None for p in r["problems"]]
    crashed = any(r is None for r in runs)
    attempted = max(1, plain["attempted"] if plain else 1)
    failed = plain["failed"] if plain else attempted
    if crashed:
        failed = attempted  # a crashed run fails every operation it held
    elif problems:
        failed = max(failed, 1)

    ref = None
    if plain is not None and not problems and not crashed:
        if args.workload == "prod_serial" and not args.trace:
            record_serial(plain)
        elif args.workload == "prod_tiled":
            ref = serial_reference(binary, args.seed, deadline)
            mine = plain["info"]["solution_hash"]
            if ref is None or ref["hash"] != mine:
                problems.append(f"prod_tiled hash {mine} != prod_serial hash "
                                f"{ref and ref['hash']}")
                failed = attempted

    if plain is not None:
        print(json.dumps({"host": host_line(plain["compiler"]), "workload": args.workload,
                          "seed": args.seed, "info": plain["info"],
                          "e2e": plain["e2e"]}))

    metrics = {}
    if plain is not None:
        if not args.trace:
            for m in spec["end_to_end"]:
                value = plain["e2e"][m["name"]]
                if m["name"] == "ok_frac":
                    value = 1.0 - failed / attempted
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        elif traced is not None:
            layer = dict(traced["layer"])
            # The traced run does one unit: compare it with the untraced
            # run's first set-up and first unit, not its warm medians.
            for name in ("setup_s", "route_s", "signoff_s", "edit_p50_ms"):
                layer[f"trace.{name}_delta"] = (traced["e2e"][name]
                                                - plain["e2e_first"][name])
            if args.workload == "prod_tiled" and ref:
                layer["shard.parallel_efficiency"] = (
                    ref["route_s"] / plain["e2e"]["route_s"] / int(plain["info"]["threads"]))
            for m in spec["per_layer"]:
                metrics[m["name"]] = {"value": layer.get(m["name"], 0.0), "unit": m["unit"]}

    correct = plain is not None and not problems and not crashed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
