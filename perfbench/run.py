#!/usr/bin/env python3
"""Deployment benchmark for dpstore: one command, three workloads.

    python3 perfbench/run.py --workload <dpram_mem|oram_durable|pir_scan> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the dpstore library, dpstore_server
and the benchmark's load process from source (Release) into
.bench_build/perfbench, runs the percentile routine's own test, then runs
the load process in a fresh working directory that is deleted afterwards.
It forks the workload's servers, drives them from two closed-loop
client threads, checks every answer, and prints one JSON object as the
last line of stdout: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1 (whose spans are written to .bench_build/perfbench/traces).
Build output goes to stderr. Exits non-zero, printing no result, when the
sources cannot be built.
"""

import argparse
import ctypes
import hashlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
LOAD = BUILD / "perfbench_load"
SERVER = BUILD / "dpstore" / "src" / "dpstore_server"
STATS_TEST = BUILD / "perfbench_stats_test"
WORKLOADS = ("dpram_mem", "oram_durable", "pir_scan")
# The load process must finish well inside the 180 s a run may take.
LOAD_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout.split()
        if len(out) == 2 and pathlib.Path(out[0]).resolve() == ROOT:
            return out[1]
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted(
        p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")
        if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sources-" + digest.hexdigest()[:16]


def die_with_parent():
    """In the load process: get SIGTERM if this script dies first."""
    pr_set_pdeathsig = 1
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig, signal.SIGTERM)


def run_logged(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no dpstore sources under {ROOT}; nothing to build")
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    # Configure every time: cheap when nothing changed, and a build tree
    # left by an older perfbench/CMakeLists.txt may lack today's targets.
    if not run_logged(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                       "-DCMAKE_BUILD_TYPE=Release"]):
        log("cmake configure failed")
        return False
    if not run_logged(["cmake", "--build", str(BUILD), "-j", "4", "--target",
                       "perfbench_load", "dpstore_server",
                       "perfbench_stats_test"]):
        log("build failed")
        return False
    if not run_logged([str(STATS_TEST)]):
        log("the percentile routine's test failed")
        return False
    return True


def run_load(args, commit):
    # Runs are sequential: whatever an interrupted run left here is stale.
    runs = BUILD / "runs"
    shutil.rmtree(runs, ignore_errors=True)
    run_dir = runs / f"{args.workload}-{args.seed}"
    run_dir.mkdir(parents=True)
    cmd = [str(LOAD), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server-bin", str(SERVER), "--commit", commit]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--spans", str(traces / f"{args.workload}.tsv")]
    last = ""
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE,
                            text=True, start_new_session=True,
                            preexec_fn=die_with_parent)
    timed_out = threading.Event()

    def stop():
        # SIGTERM lets the load process reap its servers; SIGKILL if it
        # hangs.
        timed_out.set()
        try:
            os.killpg(proc.pid, signal.SIGTERM)
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(LOAD_TIMEOUT_S, stop)
    timer.start()
    try:
        for line in proc.stdout:
            print(line, end="", flush=True)
            if line.strip():
                last = line.strip()
        returncode = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            stop()
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
    if timed_out.is_set():
        log(f"load process stopped after {LOAD_TIMEOUT_S} s")
        return None, last
    return returncode, last


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # Turn SIGTERM into an exit that runs the cleanup below (the load
    # process is stopped and reaps its servers; the run directory is
    # deleted).
    signal.signal(signal.SIGTERM, lambda signo, frame: sys.exit(128 + signo))

    if not build():
        return 2
    returncode, last = run_load(args, source_id())
    if returncode is None:
        return 1
    try:
        result = json.loads(last)
        complete = isinstance(result, dict) and set(result) == {
            "correct", "attempted", "failed", "metrics"}
    except json.JSONDecodeError:
        complete = False
    if not complete:
        log("the load process printed no result")
        return returncode or 1
    declared = declared_metrics(args.trace)
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if declared is not None and reported != declared:
        log(f"metrics differ from BENCHMARK.json: reported {reported}, "
            f"declared {declared}")
        return returncode or 1
    return returncode


if __name__ == "__main__":
    sys.exit(main())
