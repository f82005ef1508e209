#!/usr/bin/env python3
"""Run one benchmark workload.

    python3 perfbench/run.py --workload <train|monitor|fleet> --seed <n> \
        --seconds <s> --trace <0|1>

Builds the perfbench program and the library it links from source (CMake,
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), makes
the model monitor and fleet deploy when this build has none (perfbench
--make-model, a process of its own), runs the workload, and prints the program's output with its result line last: one
JSON object with the keys correct, attempted, failed and metrics. The
metric names are checked against BENCHMARK.json. Exits non-zero, without
a result line, when the build, the run or that check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Making the deployed model is one paper-scale training.
MAKE_MODEL_TIMEOUT_S = 600


def run_timeout_s(seconds):
    # A run measures --seconds (a train run may overrun it by one
    # training) plus its set-up.
    return 2 * seconds + 60


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:
            shutil.rmtree(out)  # configured for another checkout
    if not os.path.exists(cache):
        subprocess.run([cmake, "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run([cmake, "--build", out, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys: %s" % sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        raise ValueError("metrics differ from BENCHMARK.json: %s"
                         % sorted(set(got.items()) ^ set(want.items())))
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "monitor", "fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (RuntimeError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    # Only the arguments shape a run: drop the library's MHM_* environment
    # knobs (thread count, server port, kill switches).
    env = {k: v for k, v in os.environ.items() if not k.startswith("MHM_")}
    env["MHM_PROGRESS"] = "0"
    # monitor and fleet deploy a model trained once per build of the
    # library, by a process of its own, so that no run's time or peak
    # memory includes it; the file name pins it to this binary.
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    run_dir = os.path.join(out, "out")
    model = os.path.join(run_dir, "deployed-%s.mhmm" % build_id)
    if args.workload != "train" and not os.path.isfile(model):
        os.makedirs(run_dir, exist_ok=True)
        try:
            subprocess.run([binary, "--make-model", model], env=env,
                           stdout=sys.stderr, check=True,
                           timeout=MAKE_MODEL_TIMEOUT_S)
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as e:
            print("perfbench: making the deployed model failed: %s" % e,
                  file=sys.stderr)
            return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", run_dir, "--model", model]
    timeout = run_timeout_s(args.seconds)
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run exceeded %g s" % timeout, file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        print("perfbench: exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, OSError) as e:
        print("perfbench: bad result: %s" % e, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print("wall %.3f s" % (time.monotonic() - start))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
