#!/usr/bin/env python3
"""Repository benchmark: builds qbench from this checkout, prepares the
trained models once per source tree, then measures one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Everything it writes goes under
.bench_build/ there. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1, as named in BENCHMARK.json).
See perfbench/README.md for the workloads, metrics and noise notes.
"""
import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
THREADS = "2"  # the OpenMP team of every process started here
SETUP_SAMPLES = 30  # setup-only processes per run, besides the measuring one
DEADLINE_S = 170.0  # a run must end within 180 s once built and prepared

# Top-1 floors (%) on each workload's seeded labelled images. The search
# workload checks its selected model against the search's own tolerance.
TOP1_FLOOR = {
    "deepcaps-int8": 90.0,
    "deepcaps-fp32": 90.0,
    "shallowcaps-int8-serve": 95.0,
    "qcapsnets-search": 0.0,
}


def child_env():
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = THREADS
    return env


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("run.py: " + msg)
    sys.exit(2)


def run_logged(cmd, logfile):
    with open(logfile, "w") as out:
        rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                            env=child_env()).returncode
    if rc != 0:
        log(Path(logfile).read_text()[-4000:])
        fail("command failed (%d): %s" % (rc, " ".join(map(str, cmd))))


def build():
    cmake_dir = BUILD / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    run_logged(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                "-DCMAKE_BUILD_TYPE=Release"], BUILD / "configure.log")
    run_logged(["cmake", "--build", str(cmake_dir), "--target", "qbench",
                "-j", "3"], BUILD / "build.log")
    return cmake_dir / "qbench"


def source_key():
    """Digest of everything the prepared models depend on, so prepare output
    is never reused across source trees."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def prepare(qbench):
    out = BUILD / "prepared" / source_key()
    if (out / "meta.txt").exists():
        return out
    tmp = out.with_name(out.name + ".tmp")
    tmp.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    run_logged([str(qbench), "prepare", "--dir", str(tmp)], BUILD / "prepare.log")
    tmp.rename(out)
    log("prepared models in %.1f s" % (time.perf_counter() - t0))
    return out


def spawn_until_ready(cmd):
    """Start cmd; return (process, seconds from spawn to its @ready line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
    for line in iter(proc.stdout.readline, ""):
        if line.strip() == "@ready":
            return proc, time.perf_counter() - t0
    proc.wait()
    fail("%s exited (%s) before @ready" % (cmd[1], proc.returncode))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        qbench = build()
        prepared = prepare(qbench)
    started = time.perf_counter()

    base = [str(qbench)]
    where = ["--dir", str(prepared), "--workload", args.workload]
    setup_s = []

    def sample_setup(n):
        for _ in range(n):
            proc, t = spawn_until_ready(base + ["setup"] + where)
            proc.stdout.read()
            proc.wait()
            setup_s.append(t)

    # Half the set-up samples are taken before the measuring process and half
    # after it, so a short burst from another tenant cannot own the median.
    if not args.trace:
        sample_setup(SETUP_SAMPLES // 2)
    trace_out = BUILD / "traces" / ("%s-seed%d.json" % (args.workload, args.seed))
    trace_out.parent.mkdir(exist_ok=True)
    cmd = base + ["measure"] + where + [
        "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--trace", str(args.trace), "--min-top1", repr(TOP1_FLOOR[args.workload]),
        "--trace-out", str(trace_out)]
    proc, t = spawn_until_ready(cmd)
    setup_s.append(t)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()))
    reader.start()
    reader.join(max(1.0, DEADLINE_S - (time.perf_counter() - started)))
    if reader.is_alive():
        proc.kill()
        reader.join()
        proc.wait()
        fail("measuring process timed out")
    proc.wait()
    if not args.trace:
        sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    out = "".join(chunks)
    lines = out.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail("measuring process printed no result (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setup_s)
    if set(values) != set(units):
        fail("metric names differ from BENCHMARK.json: %s" % sorted(set(values) ^ set(units)))
    result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
