#!/usr/bin/env python3
"""Build and run the oscar benchmark.

Usage, from the root of a checkout:

  python3 oscarbench/run.py --workload fig5_grid --seed 1 --seconds 20 --trace 0
  python3 oscarbench/run.py --workload all --seed 1 --seconds 20 --trace 0
  python3 oscarbench/run.py --selftest
  python3 oscarbench/run.py --compare OLD.json NEW.json

A run builds the benchmark executable (oscarbench/CMakeLists.txt, which
compiles the simulator from ../src) into .bench_build/oscarbench, runs
one workload, and prints a provenance line, the metric table, the claim
outcomes and, as the last line, one JSON object with the keys correct,
attempted, failed and metrics. It also writes a run record with the
provenance and host fingerprint to .bench_build/results/. --compare
prints the metric deltas between two records and flags records whose
host or build fingerprints differ.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "oscarbench"
RESULTS_DIR = BUILD_ROOT / "results"
EXE = BUILD_DIR / "oscarbench"
WORKLOADS = ["fig5_grid", "serving_open", "numa_k2"]
# A run must end within 180 s; leave room for start-up and the record.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Fields that must match for two records to be compared as equals.
FINGERPRINT = ["build_type", "compiler", "cpu_model", "nproc"]


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout):
    """Run cmd with output appended to log; True on success."""
    with open(log, "ab") as out:
        try:
            proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
    return proc.returncode == 0


def build():
    """Configure (once) and build the executable; exits on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources at %s" % (ROOT / "src"))
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(BUILD_ROOT / "oscarbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        ok = True
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            ok = run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                             "-DCMAKE_BUILD_TYPE=Release"], log,
                            BUILD_TIMEOUT_S)
        if ok:
            ok = run_logged(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                            log, BUILD_TIMEOUT_S)
    if not ok or not EXE.is_file():
        tail = log.read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail("build failed (log: %s)" % log)


def source_digest():
    """sha256 over the simulator and benchmark sources."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_revision():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(args, workload):
    info = subprocess.run([str(EXE), "--build-info"], capture_output=True,
                          text=True, timeout=30, check=True)
    prov = json.loads(info.stdout)
    prov.update({
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    })
    return prov


def run_workload(args, workload):
    """Run one workload; returns (exit code, result line or None)."""
    prov = provenance(args, workload)
    print("provenance: " + json.dumps(prov, sort_keys=True), flush=True)
    cmd = [str(EXE), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("run.py: %s timed out" % workload, file=sys.stderr)
        return 1, None
    lines = stdout.splitlines()
    result = detail = None
    for line in lines:
        if line.startswith("detail: "):
            detail = json.loads(line[len("detail: "):])
        else:
            print(line)
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if result is not None:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        record = {"schema": "oscarbench.run.v1", "provenance": prov,
                  "detail": detail, "result": result}
        name = "%s-seed%d-trace%d.json" % (workload, args.seed, args.trace)
        (RESULTS_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    return proc.returncode, result


def compare(old_path, new_path):
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    po, pn = old["provenance"], new["provenance"]
    differing = [k for k in FINGERPRINT if po.get(k) != pn.get(k)]
    for key in differing:
        print("FLAG: %s differs: %r vs %r" % (key, po.get(key), pn.get(key)))
    if differing:
        print("FLAG: host or build fingerprints differ; the deltas below "
              "compare different machines or builds")
    print("%-34s %16s %16s %9s" % ("metric", "old", "new", "delta"))
    mo, mn = old["result"]["metrics"], new["result"]["metrics"]
    for name in mo:
        if name not in mn:
            continue
        a, b = mo[name]["value"], mn[name]["value"]
        delta = "%+8.1f%%" % (100.0 * (b - a) / a) if a else "     n/a"
        print("%-34s %16.6g %16.6g %s %s" % (name, a, b, delta,
                                             mo[name]["unit"]))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build, then run the replay check")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two run records")
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    build()
    if args.selftest:
        return subprocess.run([str(EXE), "--selftest"], cwd=ROOT).returncode
    if args.workload is None:
        fail("--workload is required")
    if args.workload != "all":
        return run_workload(args, args.workload)[0]

    status = 0
    summary = []
    for workload in WORKLOADS:
        code, result = run_workload(args, workload)
        status = status or code
        summary.append((workload, result))
    print("\n%-14s %-34s %16s" % ("workload", "metric", "value"))
    for workload, result in summary:
        if result is None:
            print("%-14s %s" % (workload, "no result"))
            continue
        for name, m in result["metrics"].items():
            print("%-14s %-34s %16.6g %s" % (workload, name, m["value"],
                                             m["unit"]))
    return status


if __name__ == "__main__":
    sys.exit(main())
