#!/usr/bin/env python3
"""NoK benchmark: build the driver, run one workload, check and print.

Usage (from the repository root):

    python3 perfbench/run.py --workload read_paged|read_bp|update_read \
        --seed N --seconds S --trace 0|1 [--smoke]

Builds perfbench/ (which compiles the library sources under src/) with
CMake in Release mode into $CARGO_TARGET_DIR or .bench_build/, runs the
driver, validates its result against BENCHMARK.json, and prints an
environment line followed, as the last line of stdout, by one JSON
object with exactly the keys correct, attempted, failed and metrics.
Build logs and diagnostics go to stderr.  Exits non-zero without a
result when the sources are missing, the build fails, the driver fails
or its output does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("read_paged", "read_bp", "update_read")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def run_logged(cmd, env, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            stderr=sys.stderr)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out: " + " ".join(cmd))
    if code != 0:
        fail("failed (exit %d): %s" % (code, " ".join(cmd)))


def build(env):
    """Configures and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 3)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found", 3)
    build_dir = os.path.join(build_root(), "perfbench-release")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            stale = ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % BENCH_DIR
                     not in f.read())
        if stale:  # configured for another checkout
            shutil.rmtree(build_dir)
    cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(cache) and shutil.which("ninja") is not None:
        cmd += ["-G", "Ninja"]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    run_logged(cmd, env, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "-j", jobs], env,
               max(1, deadline - time.monotonic()))
    return os.path.join(build_dir, "nokbench")


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout is
    not always a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def filesystem_type(path):
    """fstype of the mount holding path, from /proc/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            fail("driver result lacks " + key)
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "wrong unit %s" % (missing, extra, wrong), 4)
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            fail("metric %s has no numeric value" % name, 4)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny documents, for the benchmark's own tests")
    args = parser.parse_args()

    root = build_root()
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(root, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = build(env)

    work_dir = os.path.join(root, "work", "%s-%d" % (args.workload,
                                                     os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail("driver timed out after %d s" % RUN_TIMEOUT_S)
        fstype = filesystem_type(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail("driver printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail("driver result is not JSON: %s" % e)
    validate(result, bool(args.trace))

    env_block = result.get("env", {})
    env_block.update({
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "store_fs_type": fstype,
    })
    print("# env " + json.dumps(env_block, sort_keys=True))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
