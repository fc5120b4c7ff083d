#!/usr/bin/env python3
"""Builds and runs the rsse_serverd benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The first run configures and builds
perfbench/ (which builds the repository's libraries and rsse_serverd) into
.bench_build/perfbench; later runs only check the build is current. The
load generator then starts the daemon, measures, and prints a report whose
last line is the JSON result. Before it, one line records the machine.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import glob
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_loadgen",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def cache_value(key):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def fingerprint():
    model, flags = "", set()
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name") and not model:
                model = line.split(":", 1)[1].strip()
            elif line.startswith("flags") and not flags:
                flags = set(line.split(":", 1)[1].split())
    compiler = cache_value("CMAKE_CXX_COMPILER")
    for path in glob.glob(os.path.join(BUILD, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and version:
            compiler = f"{ident.group(1)} {version.group(1)}"
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "sha_ni": "sha_ni" in flags,
        "avx2": "avx2" in flags,
        "avx512f": "avx512f" in flags,
        "kernel": platform.release(),
        "compiler": compiler,
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
    }


def result_line(line, trace):
    """The generator's last line names each metric with its value; the
    result gives each its unit from BENCHMARK.json, whose list for this
    mode it must match exactly."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != set(units):
        raise ValueError(f"metrics {sorted(result['metrics'])} differ from "
                         f"BENCHMARK.json {sorted(units)}")
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in result["metrics"].items()}
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    loadgen = os.path.join(BUILD, "perfbench_loadgen")
    cmd = [loadgen, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--workdir={WORK}"]
    # A new process group: on timeout the whole group, daemon included, is
    # killed.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = result_line(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        sys.stderr.write(out)
        print(f"perfbench: no valid result ({e})", file=sys.stderr)
        return 1
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    print("\n".join(lines[:-1]))
    print(result)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
