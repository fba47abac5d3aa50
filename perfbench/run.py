#!/usr/bin/env python3
"""Wall-clock benchmark for wavepipe (see README.md in this directory).

    python3 perfbench/run.py --workload tomcatv-large --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one table
    python3 perfbench/run.py --smoke              # the benchmark's own test

Builds the benchmark binary (wpbench) from the checkout's sources (CMake,
Release, into .bench_build/perfbench), runs one workload in its own process
on the parallel engine, records the host, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end set, with --trace 1 its per_layer
set (the traced run also writes a Chrome trace beside the results).
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(BUILD, "results")
# service-mix is run by hand only: BENCHMARK.json does not list it, because
# its figures follow the host's steal more than the program (README.md).
WORKLOADS = ["tomcatv-large", "service-mix", "sweep3d-sched"]
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "wavepipe.hh")):
        die("wavepipe sources not found at %s" % os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        die("cmake not found")
    log = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD, "--target", "wpbench", "-j",
                  str(min(4, os.cpu_count() or 1))])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "wpbench")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """sha256 over src/ (paths and bytes): identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            p = os.path.join(d, name)
            h.update(os.path.relpath(p, src).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def cpu_times():
    """The aggregate cpu line of /proc/stat: user nice system idle iowait
    irq softirq steal ..."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def cpu_shares(before, after):
    """Busy and steal shares of all cpus between two cpu_times() samples;
    steal is time a VM's vCPUs waited for the host."""
    if not before or not after:
        return None, None
    d = [b - a for a, b in zip(before, after)]
    total = sum(d) or 1
    return (total - d[3] - d[4]) / total, (d[7] if len(d) > 7 else 0) / total


def run_one(exe, workload, seed, seconds, trace, smoke=False):
    """Runs one workload in its own process; returns (result, record)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("WAVEPIPE_")}
    env["WAVEPIPE_ENGINE"] = "parallel"
    if "WAVEPIPE_PIN" in os.environ:
        env["WAVEPIPE_PIN"] = os.environ["WAVEPIPE_PIN"]
    os.makedirs(RESULTS, exist_ok=True)
    tag = "%s-seed%d-trace%d%s" % (workload, seed, trace, "-smoke" if smoke else "")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    trace_file = os.path.join(RESULTS, tag + ".trace.json") if trace else None
    if trace_file:
        cmd += ["--trace-file", trace_file]
    if smoke:
        cmd.append("--smoke")
    load_before = os.getloadavg()
    cpu_before = cpu_times()
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    load_after = os.getloadavg()
    busy, steal = cpu_shares(cpu_before, cpu_times())
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        die("%s exited with code %d" % (workload, p.returncode), 1)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "build_type": result.get("build_type"),
        "compiler": result.get("compiler"),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "engine": env["WAVEPIPE_ENGINE"],
        "pin": env.get("WAVEPIPE_PIN", "1"),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "cpu_busy_frac": busy,
        "cpu_steal_frac": steal,
        # False when even the timed loop's quietest windows saw host steal
        # (wpbench keeps only windows without it when it can): the run's
        # figures then measure the neighbours too and are not comparable.
        "host_quiet": result.get("host_quiet"),
        "trace_file": os.path.relpath(trace_file, ROOT) if trace_file else None,
    }
    with open(os.path.join(RESULTS, tag + ".json"), "w") as f:
        json.dump({"record": record, "result": result}, f, indent=1)
    return result, record


def check_metrics(result, wanted):
    """Returns the problems with the emitted metric set: every wanted name
    present with its unit."""
    got = result["metrics"]
    problems = []
    for name, unit in wanted.items():
        if name not in got:
            problems.append("missing metric " + name)
        elif got[name]["unit"] != unit:
            problems.append("%s has unit %s, expected %s"
                            % (name, got[name]["unit"], unit))
    return problems


def print_human(result, record):
    print("# %s seed=%d trace=%d  host: %d cpus (%s), %s build, %s, "
          "load %.2f -> %.2f, steal %s"
          % (record["workload"], record["seed"], record["trace"],
             record["nproc"], record["cpu_model"], record["build_type"],
             record["compiler"], record["loadavg_before"][0],
             record["loadavg_after"][0], record["cpu_steal_frac"]))
    for name, m in result["metrics"].items():
        print("  %-30s %16.6g %s" % (name, m["value"], m["unit"]))
    print("  samples: %s" % json.dumps(result.get("samples", {})))
    for note in result.get("notes", []):
        print("  note: " + note)
    print("# record " + json.dumps(record))


def smoke(exe):
    """Every workload for a few solves, both modes: every metric of
    BENCHMARK.json emitted with its unit, every output verified, and the
    traced Tomcatv value checked against tomcatv_spmd's."""
    e2e, layer = contract()
    problems = []
    for w in WORKLOADS:
        for trace, wanted in ((0, e2e), (1, layer)):
            result, record = run_one(exe, w, 1, 1, trace, smoke=True)
            print_human(result, record)
            where = "%s trace=%d: " % (w, trace)
            problems += [where + p for p in check_metrics(result, wanted)]
            if not result["correct"] or result["failed"]:
                problems.append(where + "outputs failed their check")
            if trace and result["samples"].get("tomcatv.spmd_checked") != 1:
                problems.append(where + "traced Tomcatv value was not checked "
                                "against tomcatv_spmd")
            if trace and not os.path.isfile(os.path.join(ROOT, record["trace_file"])):
                problems.append(where + "no Chrome trace written")
    for p in problems:
        print("SMOKE FAIL: " + p)
    print("smoke: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    exe = build()
    if args.smoke:
        return smoke(exe)

    e2e, layer = contract()
    wanted = layer if args.trace else e2e
    names = WORKLOADS if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in names:
        result, record = run_one(exe, w, args.seed, args.seconds, args.trace)
        print_human(result, record)
        problems = check_metrics(result, wanted)
        if problems:
            die("%s: %s" % (w, "; ".join(problems)), 1)
        if "error_rate" in result["metrics"]:
            print("  error_rate = %d/%d" % (result["failed"], result["attempted"]))
        if not args.trace and not record["host_quiet"]:
            print("run.py: warning: %s: every window of the timed loop saw host "
                  "CPU steal; its figures are not comparable" % w, file=sys.stderr)
        total["correct"] = total["correct"] and bool(result["correct"])
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else w + "/"
        for name in wanted:
            total["metrics"][prefix + name] = result["metrics"][name]
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
