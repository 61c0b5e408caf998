#!/usr/bin/env python3
"""The CoIC benchmark: one command, three workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload mixed_storm|region_churn|live_loopback \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the coic library from src/ plus the coic_perfbench
program) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs one workload. --trace 0 reports the end-to-end metrics; --trace 1
runs the traced variant and reports the per-layer metrics, writing one
Chrome trace that tools/check_trace_json.py validates.

stdout: a run manifest line, one line per metric (value, unit, sample
count, and for per-layer metrics the end-to-end metric it should move),
the correctness checks, and as the last line one JSON object with the keys
correct, attempted, failed and metrics. The exit code is nonzero when the
build fails, a correctness check fails, or a metric is missing.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("mixed_storm", "region_churn", "live_loopback")

# The metric names and units are declared in BENCHMARK.json. Per-layer
# metrics also print the end-to-end metric they should move, and where.
_PHASE_LAYER = {
    "client_compute": "core", "uplink": "netsim", "edge_lookup": "cache",
    "coalesce_park": "core", "peer_probe": "federation",
    "cloud_fetch": "core", "cache_insert": "cache", "downlink": "netsim",
    "client_finish": "core",
}
_CORE_MOVES = "failed_frac and the p99 metrics on mixed_storm, region_churn"
MOVES = {
    "trace.gen_s": "setup_s on all workloads",
    "vision.synth_us": "ops_per_s on mixed_storm; recog_p50_ms on live_loopback",
    "vision.extract_us": "ops_per_s on mixed_storm; recog_p50_ms on live_loopback",
    "vision.share": "ops_per_s on mixed_storm; ~0 on region_churn",
    "render.load_us": "ops_per_s on mixed_storm; render_p50_ms on live_loopback",
    "render.pano_us": "ops_per_s on mixed_storm; pano_p50_ms on live_loopback",
    "render.share": "ops_per_s on mixed_storm",
    "common.digest_us": "ops_per_s on mixed_storm",
    "common.frame_copies_per_op": "ops_per_s on mixed_storm (must stay 0)",
    "common.frame_bytes_copied_per_op": "ops_per_s on mixed_storm (must stay 0)",
    "proto.encode_ns": "ops_per_s on region_churn and mixed_storm",
    "proto.decode_ns": "ops_per_s on region_churn and mixed_storm",
    "proto.frames_per_op": "ops_per_s on region_churn and mixed_storm",
    "proto.bytes_per_op": "ops_per_s on region_churn and mixed_storm",
    "netsim.events_per_op": "ops_per_s on region_churn",
    "netsim.max_inflight": "ops_per_s on region_churn",
    "netsim.sched_ns": "ops_per_s on region_churn",
    "netsim.sync_windows_per_op": "ops_per_s on region_churn once sharded",
    "netsim.xshard_msgs_per_op": "ops_per_s on region_churn once sharded",
    "netsim.worker_imbalance": "ops_per_s on region_churn once sharded",
    "netsim.shard_speedup_2w": "reported, not gated",
    "cache.local_hit_ratio": "hit_rate and ops_per_s on region_churn",
    "cache.inserts_per_op": "hit_rate and ops_per_s on region_churn",
    "cache.evictions_per_op": "hit_rate and ops_per_s on region_churn",
    "cache.lookup_us": "ops_per_s on region_churn; recog_p50_ms on live_loopback",
    "federation.gossip_bytes_per_op": "ops_per_s on region_churn; small on mixed_storm",
    "federation.gossip_frames_per_op": "ops_per_s on region_churn; small on mixed_storm",
    "federation.probes_per_miss": "hit_rate and render_p99_ms on region_churn",
    "federation.peer_hit_ratio": "hit_rate and render_p99_ms on region_churn",
    "federation.relay_forwards_per_op": "ops_per_s on region_churn",
    "federation.head_forwards_per_op": "render_p99_ms on region_churn",
    "federation.summary_build_us": "ops_per_s on region_churn",
    "core.cloud_forwards_per_op": _CORE_MOVES,
    "core.coalesced_per_op": _CORE_MOVES,
    "core.sheds": _CORE_MOVES,
    "core.retransmissions": _CORE_MOVES,
    "obs.trace_overhead": "none; must stay small",
    "obs.spans": "none",
    "net.connect_ms": "setup_s on live_loopback",
    "net.edge_hit_ratio": "hit_rate on live_loopback",
    "net.client_compute_share": "recog_p50_ms on live_loopback",
    "net.cloud_tasks_per_op": "recog_p50_ms on live_loopback",
    "run.unattributed_share": "none; the gap a cost ledger must close",
}
for _phase, _layer in _PHASE_LAYER.items():
    for _q in ("p50", "p99"):
        MOVES[f"phase.{_phase}.{_q}_us"] = f"{_CORE_MOVES} (layer {_layer})"


def declared_metrics(traced):
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


# A run must finish within 180 s; past this it is stopped and fails.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "perfbench"))


def build(out_dir):
    """Configures and builds perfbench/; returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out_dir, "-j", jobs],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"perfbench: build step failed: {err}")
            return None
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            return None
    binary = os.path.join(out_dir, "coic_perfbench")
    return binary if os.path.exists(binary) else None


def cpu_times():
    """Aggregate /proc/stat cpu line: (steal ticks, total ticks) or None."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def git_sha():
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """sha256 over the library sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def check_trace(path):
    """Runs tools/check_trace_json.py on the traced run's Chrome trace."""
    checker = os.path.join(ROOT, "tools", "check_trace_json.py")
    if not os.path.exists(checker):
        return {"name": "chrome_trace_valid", "ok": False,
                "detail": "tools/check_trace_json.py not found"}
    done = subprocess.run([sys.executable, checker, path], capture_output=True,
                          text=True, timeout=120)
    detail = (done.stdout + done.stderr).strip().splitlines()
    return {"name": "chrome_trace_valid", "ok": done.returncode == 0,
            "detail": detail[-1] if detail else ""}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.trace.json")
        command += ["--trace-out", trace_path]

    before = cpu_times()
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    after = cpu_times()
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench: no result from coic_perfbench (exit {done.returncode})")
        return 1

    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "nproc": os.cpu_count(),
        "compiler": result["build"]["compiler"],
        "build_type": result["build"]["build_type"],
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "workers": 2 if args.trace and args.workload == "region_churn" else 1,
        "pinned_cpus": 1,
        "cpu_steal_share": steal,
    }
    print("manifest " + json.dumps(manifest, sort_keys=True))

    checks = result["checks"]
    if trace_path:
        checks.append(check_trace(trace_path))

    # Every measured metric is printed; the result carries the declared
    # ones. failed_frac is not declared: it reads 0 on every healthy run,
    # and the result's attempted/failed pair carries it.
    wanted = declared_metrics(args.trace)
    measured = result["metrics"]
    missing = sorted(set(wanted) - set(measured))
    if missing:
        checks.append({"name": "metrics_complete", "ok": False,
                       "detail": "missing " + ", ".join(missing)})
    for name, unit in wanted.items():
        if name in measured and measured[name]["unit"] != unit:
            checks.append({"name": "metric_units", "ok": False,
                           "detail": f"{name} in {measured[name]['unit']}, "
                                     f"expected {unit}"})

    for name, m in sorted(measured.items()):
        note = ""
        if args.trace and name in MOVES:
            note = "  -> " + MOVES[name]
        print(f"metric {name:36s} {m['value']:16.6g} {m['unit']:9s} "
              f"n={m['samples']}{note}")
    for check in checks:
        print(f"check  {check['name']:36s} {'ok' if check['ok'] else 'FAIL'}  "
              f"{check['detail']}")

    correct = bool(result["correct"]) and all(c["ok"] for c in checks)
    final = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": measured[name]["value"],
                           "unit": measured[name]["unit"]}
                    for name in wanted if name in measured},
    }
    print(json.dumps(final))
    if done.returncode != 0 and correct:
        log(f"perfbench: coic_perfbench exited {done.returncode}")
        return 1
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
