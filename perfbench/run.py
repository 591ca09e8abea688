#!/usr/bin/env python3
"""Repo benchmark: three end-to-end workloads, one command.

    python3 perfbench/run.py --workload submission_acc --seed 1 \
        --seconds 10 --trace 0

Workloads (README.md in this directory gives the rationale and the
layer-to-metric table):
  submission_acc   one v1.0 accuracy + performance submission, Dimensity 1100
  submission_perf  performance-only submissions, all four v1.0 chipsets
  fleet_serve      one 64-shard server-scenario fleet under bounded admission

Builds perfbench_op from source on first use (CMake, into $CARGO_TARGET_DIR
or .bench_build at the repo root), then runs one op per fresh process,
closed loop with one caller, until --seconds have passed (at least
MIN_OPS ops).  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced ops, runs the per-layer probes,
and reports the per-layer metrics.  Every op's outputs must equal the first
op's, and one extra op at the LoadGen's official seed must match the digest
recorded in digests.json.  The last line of stdout is one JSON object.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("submission_acc", "submission_perf", "fleet_serve")
UNIT_NAME = {"submission_acc": "suite task", "submission_perf": "suite task",
             "fleet_serve": "fleet shard"}
MIN_OPS = 3
MIN_TRACED_PAIRS = 2
OP_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 840

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

PER_LAYER = {
    "datasets.bundle_s": "s",
    "datasets.samples_built": "count",
    "quant.prepare_s": "s",
    "infer.accuracy_s": "s",
    "infer.fp32_ref_s": "s",
    "infer.samples_per_s": "1/s",
    "infer.gflops": "GFLOP/s",
    "infer.isa_speedup": "x",
    "infer.op_self_s.conv2d": "s",
    "infer.op_self_s.depthwise_conv2d": "s",
    "infer.op_self_s.fully_connected": "s",
    "infer.op_self_s.other": "s",
    "infer.arena_bytes": "B",
    "common.pool_speedup": "x",
    "harness.checker_s": "s",
    "harness.pretask_s": "s",
    "harness.report_s": "s",
    "harness.unattributed_s": "s",
    "core.qsl_load_s": "s",
    "core.loadgen_s.single_stream": "s",
    "core.loadgen_s.offline": "s",
    "core.loadgen_s.server": "s",
    "core.ns_per_query.single_stream": "ns",
    "core.ns_per_query.offline": "ns",
    "core.ns_per_query.server": "ns",
    "soc.ns_per_inference": "ns",
    "backends.compile_s": "s",
    "fleet.run_s": "s",
    "fleet.ns_per_query": "ns",
    "fleet.scaling": "x",
    "fleet.cpu_util": "fraction",
    "fleet.sys_frac": "fraction",
    "fleet.models_built": "count",
    "fleet.shed_frac": "fraction",
    "obs.hot_counter_updates": "count",
    "obs.trace_overhead": "fraction",
    "process.cpu_s": "s",
    "process.sys_s": "s",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench_op; returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = target if target.is_absolute() else ROOT / target
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=deadline - time.monotonic())
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))
    return build_dir / "perfbench_op"


def run_op(exe, workload, seed=None, trace=False, isa=None):
    """Runs one op in a fresh process and returns its JSON record."""
    cmd = [str(exe), "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if isa:
        cmd += ["--isa", isa]
    # Set-up time runs from here: CLOCK_MONOTONIC, as the op reads it.
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=OP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"op {' '.join(cmd)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def failed_units(op, ref, compare_digest=True):
    """Units of `op` that failed: errored/invalid, or outputs unlike `ref`."""
    mismatched = sum(a != b for a, b in zip(op["unit_digests"],
                                            ref["unit_digests"]))
    mismatched += abs(len(op["unit_digests"]) - len(ref["unit_digests"]))
    failed = min(op["units"], op["failed_units"] + mismatched)
    if compare_digest and op["digest"] != ref["digest"]:
        failed = op["units"]
    return int(failed)


def check_recorded_digest(op, workload):
    """Failed units of the official-seed op against digests.json."""
    recorded = json.loads((HERE / "digests.json").read_text())
    want = recorded.get(workload, {}).get(op["isa"])
    if want is None:
        log(f"perfbench: no recorded digest for {workload} on {op['isa']}; "
            "official-seed digest unchecked")
        return int(op["failed_units"])
    if op["digest"] != want:
        log(f"perfbench: {workload} official-seed digest {op['digest']} "
            f"!= recorded {want}")
        return int(op["units"])
    return int(op["failed_units"])


def median(xs):
    return statistics.median(xs) if xs else 0.0


def per_layer(traced, untraced, scalar, workload):
    """Per-layer metrics: medians over the traced ops."""
    def med(fn):
        return median([fn(op) for op in traced])

    def span(name):
        return lambda op: op["spans"].get(name, 0.0)

    def value(name):
        return lambda op: op["values"].get(name, 0.0)

    def ratio(num, den, scale=1.0):
        return lambda op: (num(op) * scale / den(op)) if den(op) else 0.0

    m = {}
    for name in ("datasets.bundle_s", "quant.prepare_s", "infer.accuracy_s",
                 "infer.fp32_ref_s", "harness.checker_s", "harness.pretask_s",
                 "harness.report_s", "core.loadgen_s.single_stream",
                 "core.loadgen_s.offline", "fleet.run_s"):
        m[name] = med(span(name))
    for name in ("datasets.samples_built", "infer.arena_bytes",
                 "common.pool_speedup", "core.qsl_load_s",
                 "core.loadgen_s.server", "soc.ns_per_inference",
                 "fleet.scaling", "fleet.models_built",
                 "infer.op_self_s.conv2d", "infer.op_self_s.depthwise_conv2d",
                 "infer.op_self_s.fully_connected", "infer.op_self_s.other"):
        m[name] = med(value(name))
    m["backends.compile_s"] = med(
        lambda op: span("backends.compile_s")(op) +
        value("backends.compile_s")(op))
    acc = span("infer.accuracy_s")
    m["infer.samples_per_s"] = med(ratio(value("infer.samples"), acc))
    m["infer.gflops"] = med(ratio(value("infer.flops"), acc, 1e-9))
    infer_s = median([op["spans"].get("infer.accuracy_s", 0.0) +
                      op["spans"].get("infer.fp32_ref_s", 0.0)
                      for op in traced])
    scalar_s = median([op["spans"].get("infer.accuracy_s", 0.0) +
                       op["spans"].get("infer.fp32_ref_s", 0.0)
                       for op in scalar])
    m["infer.isa_speedup"] = scalar_s / infer_s if scalar and infer_s else 0.0
    for sc in ("single_stream", "offline"):
        m[f"core.ns_per_query.{sc}"] = med(ratio(
            span(f"core.loadgen_s.{sc}"), value(f"core.queries.{sc}"), 1e9))
    m["core.ns_per_query.server"] = med(ratio(
        value("core.loadgen_s.server"), value("core.queries.server"), 1e9))
    m["harness.unattributed_s"] = med(
        lambda op: op["wall_s"] - sum(op["spans"].values()))
    m["fleet.ns_per_query"] = med(ratio(span("fleet.run_s"),
                                        value("fleet.offered"), 1e9))
    m["fleet.shed_frac"] = med(ratio(value("fleet.shed"),
                                     value("fleet.offered")))
    m["obs.hot_counter_updates"] = med(lambda op: op["soc_inferences"])
    m["obs.trace_overhead"] = (med(lambda op: op["wall_s"]) /
                               median([op["wall_s"] for op in untraced]) - 1)
    # Process accounting comes from the untraced ops: it describes the op
    # as users run it.
    cpu = median([op["cpu_s"] for op in untraced])
    sys_s = median([op["sys_s"] for op in untraced])
    m["process.cpu_s"] = cpu
    m["process.sys_s"] = sys_s
    if workload == "fleet_serve":
        wall = median([op["wall_s"] for op in untraced])
        m["fleet.cpu_util"] = cpu / (wall * (os.cpu_count() or 1))
        m["fleet.sys_frac"] = sys_s / cpu if cpu else 0.0
    else:
        m["fleet.cpu_util"] = 0.0
        m["fleet.sys_frac"] = 0.0
    assert set(m) == set(PER_LAYER), set(m) ^ set(PER_LAYER)
    return m


def describe(name, ops):
    xs = [op[name] for op in ops]
    return (f"mean {statistics.fmean(xs):.6g}, median {median(xs):.6g} "
            f"over {len(xs)} ops (min {min(xs):.6g}, max {max(xs):.6g})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        exe = build()
    except (subprocess.SubprocessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    w = args.workload
    try:
        untraced, traced, scalar = [], [], []
        deadline = time.monotonic() + args.seconds
        if args.trace:
            while (len(traced) < MIN_TRACED_PAIRS or
                   time.monotonic() < deadline):
                untraced.append(run_op(exe, w, args.seed))
                traced.append(run_op(exe, w, args.seed, trace=True))
            if w == "submission_acc":
                scalar.append(run_op(exe, w, args.seed, trace=True,
                                     isa="scalar"))
        else:
            while len(untraced) < MIN_OPS or time.monotonic() < deadline:
                untraced.append(run_op(exe, w, args.seed))
        official = run_op(exe, w)
    except (BenchError, subprocess.SubprocessError, OSError,
            json.JSONDecodeError) as e:
        log(f"perfbench: {e}")
        return 1

    ref = untraced[0]
    ops = untraced + traced + scalar + [official]
    attempted = sum(int(op["units"]) for op in ops)
    failed = sum(failed_units(op, ref) for op in untraced + traced)
    failed += sum(failed_units(op, ref, compare_digest=False) for op in scalar)
    failed += check_recorded_digest(official, w)

    unit = UNIT_NAME[w]
    print(f"perfbench {w}: seed {args.seed}, {len(untraced)} untraced + "
          f"{len(traced)} traced ops of {int(ref['units'])} {unit}s, "
          f"kernel isa {ref['isa']}")
    for name in ("wall_s", "setup_s", "peak_rss_mib", "cpu_s", "sys_s"):
        print(f"  {name:<16} {describe(name, untraced)}")
    print(f"  failed_fraction  {failed}/{attempted} {unit}s "
          f"= {failed / attempted:.6g}")
    if args.trace:
        metrics = per_layer(traced, untraced, scalar, w)
        for name in sorted(metrics):
            print(f"  {name:<36} {metrics[name]:.6g} {PER_LAYER[name]}")
        units = PER_LAYER
    else:
        metrics = {
            # The mean, not the median: this host's speed switches between
            # regimes for tens of seconds, which makes a run's median jump
            # between modes; the mean of the run's ops moves less.
            "wall_s": statistics.fmean([op["wall_s"] for op in untraced]),
            "setup_s": median([op["setup_s"] for op in untraced]),
            "peak_rss_mib": median([op["peak_rss_mib"] for op in untraced]),
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
