#!/usr/bin/env python3
"""Builds and runs the subrec end-to-end benchmark.

Run from the root of a subrec source tree:

    python3 perfbench/run.py --workload serve_filtered --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest      # the benchmark's own unit tests

The library and the benchmark are built from source into $CARGO_TARGET_DIR
(default .bench_build) on first use. The workload plan comes from
perfbench/workloads.json, the metric names and units from BENCHMARK.json.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: every end_to_end metric with --trace 0,
every per_layer metric with --trace 1. The exit code is non-zero when the
build fails, a run fails, or any correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no subrec sources under {ROOT}")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j4"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, target)


def plan_flags(plan, seconds):
    def share(key):
        return str(plan[key] * seconds)
    return [
        "--setup-repeats", str(plan["setup_repeats"]),
        "--workers", str(plan["workers"]),
        "--cache-capacity", str(plan["cache_capacity"]),
        "--retrieval", plan["retrieval"],
        "--zipf", str(plan["zipf"]),
        "--fixed-rate", str(plan["fixed_rate"]),
        "--slice-seconds", share("slice_share"),
        "--slices", str(plan["slices"]),
        "--ladder", ",".join(str(r) for r in plan["ladder"]),
        "--step-seconds", share("step_share"),
        "--idle-reloads", str(plan["idle_reloads"]),
        "--reload-under-load", str(plan["reload_under_load"]),
    ]


def idle(name, idle_layers):
    """True when metric `name` belongs to one of the layers in `idle_layers`:
    the layer itself, or the layer followed by "." or "_"."""
    return any(name == layer or name.startswith((layer + ".", layer + "_"))
               for layer in idle_layers)


def select_metrics(measured, spec, trace, idle_layers):
    """Picks BENCHMARK.json's metrics out of everything the run measured.

    Per-layer metrics of the layers the workload's plan lists as idle read 0
    (the workload does not run them); any other metric the run did not
    report fails the run. traced.<name> is the traced run's own end-to-end
    <name>, so the tracing overhead shows against the untraced run.
    """
    out = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        name = metric["name"]
        key = name[len("traced."):] if name.startswith("traced.") else name
        if key in measured:
            value = measured[key]
        elif trace and idle(name, idle_layers):
            value = 0.0
        else:
            fail(f"the run did not report {key}")
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    if args.selftest:
        try:
            binary = build(build_dir, "perfbench_test")
        except (subprocess.CalledProcessError, OSError) as err:
            fail(f"build failed: {err}")
        sys.exit(subprocess.run([binary]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(BENCH_DIR, "workloads.json")) as f:
            plans = json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read the benchmark definition: {err}")
    if args.workload not in plans or args.workload.startswith("_"):
        fail(f"unknown workload {args.workload}")
    try:
        binary = build(build_dir, "perfbench")
    except (subprocess.CalledProcessError, OSError) as err:
        fail(f"build failed: {err}")

    workdir = os.path.join(build_dir, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace), "--workdir", workdir] + plan_flags(plans[args.workload],
                                                  args.seconds)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        for name in os.listdir(workdir):
            if name.endswith(".snap"):
                os.remove(os.path.join(workdir, name))
    lines = proc.stdout.splitlines()
    result_lines = [l for l in lines if l.startswith("PERFBENCH ")]
    for line in lines:
        if not line.startswith("PERFBENCH "):
            print(line)
    if proc.returncode not in (0, 1) or len(result_lines) != 1:
        fail(f"run failed with exit code {proc.returncode}")
    if os.listdir(workdir) == []:
        shutil.rmtree(workdir)

    raw = json.loads(result_lines[0][len("PERFBENCH "):])
    result = {
        "correct": bool(raw["correct"]) and proc.returncode == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": select_metrics(raw["metrics"], spec, args.trace == 1,
                                  plans[args.workload]["idle_layers"]),
    }
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
