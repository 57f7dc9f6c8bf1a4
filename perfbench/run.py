#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library sources under src/ plus the benchmark program in
perfbench/harness/) as a Release build in .bench_build/perfbench, or under
$CARGO_TARGET_DIR when set; later calls rebuild only what changed. Build
output goes to build.log there.

BENCHMARK.json at the root is the one list of workloads and metrics. The
workload's slo_frac latency limit is read from its "why" text ("slo_frac
limit N ms"). The program prints a context line, progress lines and a
result line of bare metric values; this script passes the first two
through, checks the result's metric names against BENCHMARK.json, and
prints the result again with each metric's unit as the last line. A
per-layer metric the workload does not measure reports 0.

The exit code is the program's (1 when an output check failed). A missing
source tree or BENCHMARK.json exits 1, a failed build 3, a run over the
time limit 4 and a result that does not match BENCHMARK.json 5, all
without a result.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
SLO_RE = re.compile(r"slo_frac limit (\d+(?:\.\d+)?) ms")


def load_benchmark():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        sys.exit("perfbench: cannot read BENCHMARK.json: %s" % err)


def with_units(result, declared, require_all):
    """The result with each metric as {value, unit} in BENCHMARK.json
    order, or None when its metric names do not match the declared ones."""
    values = result["metrics"]
    names = [m["name"] for m in declared]
    unknown = sorted(set(values) - set(names))
    missing = [n for n in names if n not in values]
    if unknown or (require_all and missing):
        sys.stderr.write("perfbench: result metrics do not match "
                         "BENCHMARK.json: undeclared %s, missing %s\n" %
                         (unknown, missing))
        return None
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in declared}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def source_digest():
    """Digest of every file the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    ident = "src-" + source_digest()
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True,
                                 timeout=30).stdout.strip()
            ident = sha + "+" + ident
        except (OSError, subprocess.SubprocessError):
            pass
    return ident


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at %s; run from a full "
                 "checkout" % os.path.join(ROOT, "src"))
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(os.path.join(build_dir, "build.log"), "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write("perfbench: build failed, see %s\n" %
                                 os.path.join(build_dir, "build.log"))
                sys.exit(3)


def main():
    bench = load_benchmark()
    workloads = {w["name"]: w for w in bench["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    slo = SLO_RE.search(workloads[args.workload]["why"])
    if not slo:
        sys.exit("perfbench: BENCHMARK.json gives no slo_frac limit for %s"
                 % args.workload)

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        build(build_dir)
    except OSError as err:
        sys.stderr.write("perfbench: cannot build: %s\n" % err)
        sys.exit(3)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--slo-ms", slo.group(1), "--out-dir", out_dir,
           "--commit", commit_id()]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 4
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        sys.stderr.write("perfbench: no result line\n")
        return proc.returncode or 5
    traced = args.trace == "1"
    result = with_units(result, bench["per_layer" if traced else "end_to_end"],
                        require_all=not traced)
    if result is None:
        return 5
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
