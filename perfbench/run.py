#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run builds the perfbench
package (perfbench/CMakeLists.txt, which pulls in the library sources)
into the build directory — $CARGO_TARGET_DIR when set, else .bench_build —
and later runs reuse it.  The perfbench binary then runs the workload; this
script checks its metrics against BENCHMARK.json, prints them as a table
with units and sample counts, prints the run manifest, writes everything to
<build>/results/, and prints as its last line the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 its per_layer metrics.  A per-layer metric of a layer the
workload does not run is reported as 0 and listed as off-path.  The spans
of a traced run go to <build>/traces/.

Exits non-zero, printing no result, when the build fails (for example when
the repository sources are not next to perfbench/), when the binary fails,
or when its metrics do not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_PREFIX = "PERFBENCH-RESULT "
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build the perfbench target incrementally."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if code != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (see %s)" % log_path)
    return os.path.join(build_dir, "bin", "perfbench")


def source_manifest():
    """Which code ran: the git commit and dirty flag when the checkout is a
    git repository, and always a digest of the sources the build reads."""
    manifest = {"git_sha": None, "git_dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30)
            status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                    capture_output=True, text=True, timeout=30)
            if sha.returncode == 0 and status.returncode == 0:
                manifest["git_sha"] = sha.stdout.strip()
                manifest["git_dirty"] = bool(status.stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as content:
                digest.update(content.read())
    manifest["source_sha256"] = digest.hexdigest()
    return manifest


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    for sub in ("runs", "traces", "results"):
        os.makedirs(os.path.join(build_dir, sub), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "runs")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(build_dir, "traces", tag + ".jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    raw = None
    for line in lines:
        if line.startswith(RESULT_PREFIX):
            raw = json.loads(line[len(RESULT_PREFIX):])
        else:
            print(line)
    if proc.returncode != 0 or raw is None:
        fail("perfbench exited with code %d" % proc.returncode)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    measured = raw["per_layer" if args.trace else "end_to_end"]
    undeclared = sorted(set(measured) - {m["name"] for m in declared})
    if undeclared:
        fail("metrics not declared in BENCHMARK.json: %s" % ", ".join(undeclared))
    metrics, off_path = {}, []
    print("\n%-36s %16s %-6s %8s  %s" % ("metric", "value", "unit", "samples", "note"))
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            off_path.append(m["name"])
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
            continue
        if got["unit"] != m["unit"]:
            fail("%s measured in %s, declared in %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        print("%-36s %16.6g %-6s %8d  %s" % (m["name"], got["value"], m["unit"], got["samples"],
                                            got["note"]))
    manifest = dict(raw["manifest"], **source_manifest())
    print("\nmanifest " + json.dumps(manifest, sort_keys=True))
    if off_path:
        print("off this workload's path (reported as 0): " + ", ".join(off_path))
    result = {"correct": bool(raw["correct"]) and raw["failed"] == 0,
              "attempted": int(raw["attempted"]), "failed": int(raw["failed"]),
              "metrics": metrics}
    with open(os.path.join(build_dir, "results", tag + ".json"), "w") as f:
        json.dump({"result": result, "manifest": manifest, "failures": raw["failures"],
                   "end_to_end": raw["end_to_end"], "per_layer": raw["per_layer"]}, f, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
