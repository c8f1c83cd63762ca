#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload phy_link|rx_pipelined|serve_churn \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The first run configures and builds the
Ziria libraries and the zbench binary from source into .bench_build/
(a few minutes); later runs rebuild only what changed.  Everything the
benchmark writes (build tree, private native-code cache, traces,
compiler temporaries) stays under .bench_build/.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; its metric names and
units are checked against BENCHMARK.json before it is printed.  See
perfbench/NOTES.md for what each workload measures.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(env):
    cmake_dir = os.path.join(BUILD, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cfg, stdout=sys.stderr, env=env).returncode:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", cmake_dir, "--target", "zbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
        return None
    return os.path.join(cmake_dir, "zbench")


def check_result(line, trace):
    """Problems with the result line, as a list of strings."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are " + ", ".join(sorted(res))]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return [f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"extra {extra}, wrong unit {wrong}"]
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=["phy_link", "rx_pipelined", "serve_churn"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check every oracle accepts reference outputs "
                         "and fires on a flipped byte")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no Ziria sources under {ROOT}/src; run from a full checkout")
        return 2

    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    exe = build(env)
    if not exe:
        log("build failed")
        return 2

    if args.self_test:
        return subprocess.run([exe, "--self-test"], env=env).returncode

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", BUILD, "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        log(f"zbench exited with {proc.returncode}")
        return proc.returncode
    problems = check_result(lines[-1], args.trace == 1)
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        for p in problems:
            log(p)
        return 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
