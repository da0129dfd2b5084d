#!/usr/bin/env python3
"""Repository benchmark: one command, three workloads, end-to-end and
per-layer metrics.

Usage (from the repository root):

  python3 perfbench/run.py --workload fleet-mixed --seed 1 --seconds 20 --trace 0

Builds the simulator libraries and the benchmark program
(perfbench/cc) into .bench_build/perfbench with CMake, generates the
workload's config from the seed, runs it and prints one JSON object
as the last line of stdout:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the end-to-end metrics:
  ops_per_s      operations per wall second; an operation is one
                 simulated server on fleet-*, one served request on
                 hw-interference
  cpu_ms_per_op  user+system CPU ms per operation, shard children
                 included
  setup_s        launch of the program until it is ready for its
                 first timed batch (median of several launches)

The seed fixes a few populations (fleet-*; hw-interference has one)
and the measuring launch runs them in turn until --seconds have
passed. The first pass over them is warm-up; after it each
population repeats at least MIN_REPEATS times, and both rates are
taken from each population's median repeat, summed over one pass.
Resident memory is a per-layer metric only (host.peak_rss_mb): the
pooled server arenas of fleet-mixed grow in steps set by which worker
drew the heaviest server, so it differs between runs of one seed.

--trace 1 runs two untraced batches, replays the last outside-in with a span
around every layer call, checks the replay's outputs are
byte-identical, validates the span file with tools/check_spans.py and
prints the per-layer metrics of BENCHMARK.json; perfbench/layers.json
names each one's layer, source, and the end-to-end metric and workload
it should move.

Every run also checks outputs: each repeat of a population must give
the same output digest, contiguitas must confine unmovable 2 MB blocks below
vanilla (fleet-*) and migrations must complete (hw-interference),
and a fixed-seed canary must reproduce the digest recorded in
perfbench/golden.json. A batch that throws or fails a check counts
its operations as failed.

Any CTG_* environment variable makes the run refuse to start.
"""

import argparse
import fcntl
import json
import os
import random
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

# Whole run, build excluded, must end well inside 180 s.
RUN_BUDGET_S = 170.0
# Least number of timed repeats of each population after warm-up.
MIN_REPEATS = 2
# Set-up-only launches; the measuring launch adds one more sample.
SETUP_LAUNCHES = 6

# Batch shape of each workload. run.py adds the seed-derived fields.
WORKLOADS = {
    # Headline fig11-shaped scale tier in one process on 2 workers:
    # Fragmenter pretreatment and short-server churn dominate.
    "fleet-mixed": {
        "populations": 4,
        "servers_per_policy": 128,
        "mem_mb": 64,
        "min_uptime_s": 2,
        "max_uptime_s": 5,
        "min_intensity": 0.7,
        "max_intensity": 1.3,
        "prefragment_frac": 0.25,
        "coarse_step": 1,
        "threads": 2,
        "shards": 1,
    },
    # No pretreatment, fine 1 s steps, long uptimes, 4x larger
    # servers; forked into 2 single-threaded shards.
    "fleet-steady": {
        "populations": 2,
        "servers_per_policy": 32,
        "mem_mb": 256,
        "min_uptime_s": 10,
        "max_uptime_s": 30,
        "min_intensity": 0.7,
        "max_intensity": 1.3,
        "prefragment_frac": 0.0,
        "coarse_step": 0,
        "threads": 1,
        "shards": 2,
    },
    # Section 5.3: memcached on Table 1 hardware while Contiguitas-HW
    # migrates networking buffers at 1000/s, noncacheable mode.
    "hw-interference": {
        "mem_mb": 4096,
        "data_mb": 1536,
        "code_mb": 16,
        "zipf_theta": 0.8,
        "buffer_pages": 4096,
        "requests": 3000,
        "ops_per_request": 60,
        "dma_per_request": 8,
        "payload_reads": 4,
        "migrations_per_sec": 1000,
        "cacheable": 0,
    },
}



def load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def seeded_config(workload, seed):
    """The workload's config with every seeded field drawn from seed."""
    config = {"workload": workload}
    config.update(WORKLOADS[workload])
    rng = random.Random("%s/%d" % (workload, seed))
    for p in range(config.get("populations", 0)):
        config["vanilla_seed_%d" % p] = rng.getrandbits(63)
        config["contiguitas_seed_%d" % p] = rng.getrandbits(63)
    if not workload.startswith("fleet-"):
        config["stream_seed"] = rng.getrandbits(63)
        config["dma_seed"] = rng.getrandbits(63)
    return config


def write_config(config, name):
    path = os.path.join(BUILD_DIR, "runs", name + ".cfg")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for key, value in config.items():
            f.write("%s = %s\n" % (key, value))
    return path


def build():
    """Configure and build into BUILD_DIR; False when it fails."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock, \
            open(log_path, "w", encoding="utf-8") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=log)
            except OSError as exc:
                print("perfbench: %s: %s" % (cmd[0], exc), file=sys.stderr)
                return False
            if proc.returncode != 0:
                log.flush()
                with open(log_path, "r", encoding="utf-8") as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                print("perfbench: build failed (%s)" % log_path,
                      file=sys.stderr)
                return False
    return True


class Run:
    """Launches of the benchmark program within one time budget."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def launch(self, config_path, mode, extra=()):
        """Run the program. Returns (parsed JSON lines, error text,
        set-up seconds from launch to its ready line or None)."""
        cmd = [BINARY, "--config", config_path, "--mode", mode]
        cmd += list(extra)
        out_path = os.path.join(BUILD_DIR, "runs", "%s.out" % mode)
        with open(out_path, "w+", encoding="utf-8") as out:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out)
            try:
                proc.wait(timeout=max(0.0, self.deadline - start))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return [], "%s timed out" % mode, None
            out.seek(0)
            text = out.read()
        lines = []
        for line in text.splitlines():
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict):
                lines.append(obj)
        ready = [l["ready_s"] - start for l in lines
                 if l.get("kind") == "ready"]
        setup = ready[0] if ready else None
        error = ""
        if proc.returncode != 0:
            error = "%s exited with %d" % (mode, proc.returncode)
        return lines, error, setup


class Tally:
    """Attempted and failed operations, and why they failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, ops, ok, why):
        self.attempted += ops
        if not ok:
            self.failed += max(1, ops)
            self.problems.append(why)

    def fail(self, why):
        self.add(1, False, why)


def check_batches(batches, tally, label):
    """Count each batch, failing those that threw, broke the paper
    shape or disagree with the first output digest of their
    population."""
    digests = {}
    for b in batches:
        ops = int(b["ops"])
        if b["error"]:
            tally.add(ops, False, "%s batch threw: %s" % (label, b["error"]))
            continue
        digest = digests.setdefault(b["population"], b["digest"])
        tally.add(ops, b["shape_ok"] == 1,
                  "%s batch broke the paper shape" % label)
        if b["digest"] != digest:
            tally.fail("%s batch digest %s differs from %s"
                       % (label, b["digest"], digest))


def check_canary(run, workload, tally):
    """The fixed-seed canary must reproduce the recorded digest."""
    golden = load_json(os.path.join(BENCH_DIR, "golden.json"))[workload]
    config = {"workload": workload}
    config.update(WORKLOADS[workload])
    config.update(golden["config"])
    path = write_config(config, "canary-" + workload)
    lines, error, _ = run.launch(path, "measure",
                                 ["--seconds", "0", "--min-batches", "1"])
    batches = [l for l in lines if l.get("kind") == "batch"]
    if error or not batches:
        tally.fail("canary: %s" % (error or "no batch"))
        return
    check_batches(batches, tally, "canary")
    if batches[0]["digest"] != golden["digest"]:
        tally.fail("canary digest %s, recorded %s: the simulated outputs "
                   "changed" % (batches[0]["digest"], golden["digest"]))


def measure(run, workload, seed, seconds, tally):
    config = seeded_config(workload, seed)
    path = write_config(config, "%s-%d" % (workload, seed))

    setups = []
    for _ in range(SETUP_LAUNCHES):
        _, error, setup = run.launch(path, "setup")
        if error or setup is None:
            tally.fail("setup: %s" % (error or "no ready line"))
            return None
        setups.append(setup)

    populations = config.get("populations", 1)
    lines, error, setup = run.launch(
        path, "measure",
        ["--seconds", str(seconds),
         "--min-batches", str((1 + MIN_REPEATS) * populations)])
    batches = [l for l in lines if l.get("kind") == "batch"]
    end = [l for l in lines if l.get("kind") == "end"]
    check_batches(batches, tally, "measure")
    if error or not end or setup is None:
        tally.fail("measure: %s" % (error or "no ready or end line"))
        return None
    setups.append(setup)
    # The first pass grows the heap and the server arenas; every later
    # repeat of a population does the same work as its others.
    repeats = {}
    for b in batches[populations:]:
        if not b["error"]:
            repeats.setdefault(b["population"], []).append(b)
    if len(repeats) < populations:
        tally.fail("measure: a population has no timed batch that ran")
        return None
    ops = sum(bs[0]["ops"] for bs in repeats.values())
    wall = sum(statistics.median(b["wall_s"] for b in bs)
               for bs in repeats.values())
    cpu = sum(statistics.median(b["cpu_s"] for b in bs)
              for bs in repeats.values())
    return {
        "ops_per_s": ops / wall,
        "cpu_ms_per_op": 1e3 * cpu / ops,
        "setup_s": statistics.median(setups),
    }


def span_layers(trace_path):
    """Per span name: calls, total ms and self ms (duration minus the
    child spans and the hot calls folded into the span)."""
    with open(trace_path, "r", encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    layers = {}
    stack = []  # [name, begin ts, child us]
    for ev in events:
        if ev["ph"] == "B":
            stack.append([ev["name"], ev["ts"], 0.0])
        elif ev["ph"] == "E":
            name, begin, child_us = stack.pop()
            dur = ev["ts"] - begin
            folded_us = sum(v for k, v in ev["args"].items()
                            if k.endswith(".ns")) / 1e3
            if stack:
                stack[-1][2] += dur
            entry = layers.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur / 1e3
            entry[2] += (dur - child_us - folded_us) / 1e3
    return layers


def trace(run, workload, seed, tally):
    config = seeded_config(workload, seed)
    path = write_config(config, "%s-%d-trace" % (workload, seed))
    trace_path = os.path.join(BUILD_DIR, "runs", "trace-%s.json" % workload)
    if os.path.exists(trace_path):
        os.remove(trace_path)
    lines, error, _ = run.launch(path, "trace",
                                 ["--trace-out", trace_path,
                                  "--min-batches", "2"])
    batches = [l for l in lines if l.get("kind") == "batch"]
    check_batches(batches, tally, "untraced")
    result = [l for l in lines if l.get("kind") == "trace"]
    if error or not result or not result[0]["trace_written"]:
        tally.fail("trace: %s" % (error or "no trace written"))
        return None
    t = result[0]
    replayed = int(batches[-1]["ops"])
    tally.add(replayed, t["mismatches"] == 0,
              "traced replay differs from the untraced batch on %d outputs"
              % t["mismatches"])

    checker = os.path.join(ROOT, "tools", "check_spans.py")
    try:
        proc = subprocess.run(
            [sys.executable, checker, trace_path], stdout=subprocess.PIPE,
            text=True, timeout=max(1.0, run.deadline - time.monotonic()))
        sys.stdout.write(proc.stdout)
        valid = proc.returncode == 0
    except (OSError, subprocess.TimeoutExpired) as exc:
        print("perfbench: check_spans.py: %s" % exc, file=sys.stderr)
        valid = False
    if not valid:
        tally.fail("check_spans.py rejected %s" % trace_path)
        return None

    layers = span_layers(trace_path)
    print("%-24s %8s %12s %12s" % ("span", "calls", "total ms", "self ms"))
    for name, (calls, total, self_ms) in sorted(layers.items()):
        print("%-24s %8d %12.3f %12.3f" % (name, calls, total, self_ms))

    def total(name):
        return layers.get(name, [0, 0.0, 0.0])[1]

    def self_ms(name):
        return layers.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return layers.get(name, [0, 0.0, 0.0])[0]

    values = {k: v for k, v in t.items() if isinstance(v, (int, float))}
    values.update({k: v for k, v in batches[-1].items()
                   if k.startswith("fleet.")})
    values.update({
        "fleet.server_boot.ms": total("fleet.server_boot"),
        "fleet.server_boot.calls": calls("fleet.server_boot"),
        "fleet.server_teardown.ms": total("fleet.server_teardown"),
        "workloads.fragmenter.self_ms": self_ms("workloads.fragmenter"),
        "workloads.fragmenter.calls": calls("workloads.fragmenter"),
        "workloads.start.self_ms": self_ms("workloads.start"),
        "workloads.step.self_ms": self_ms("workloads.step"),
        "mem.scan.ms": total("mem.scan"),
        "kernel.boot.ms": total("kernel.boot"),
        "kernel.touch_range.ms": total("kernel.touch_range"),
        "trace.overhead_pct": 100.0 * (t["trace.traced_wall_ms"]
                                       / t["trace.untraced_cpu_ms"] - 1.0),
    })
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    pinned = sorted(k for k in os.environ if k.startswith("CTG_"))
    if pinned:
        print("perfbench: refusing to run with %s set" % ", ".join(pinned),
              file=sys.stderr)
        return 2
    if not build():
        return 1

    # Metric names and units come from BENCHMARK.json; layers.json
    # says which workloads exercise each per-layer metric.
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    run = Run()
    tally = Tally()
    metrics = {}
    if args.trace:
        layers = load_json(os.path.join(BENCH_DIR, "layers.json"))
        values = trace(run, args.workload, args.seed, tally)
        for spec in bench["per_layer"]:
            name = spec["name"]
            applies = args.workload in layers[name]["workloads"]
            if values is not None and applies and name not in values:
                tally.fail("per-layer metric %s missing" % name)
            value = (values or {}).get(name, 0.0) if applies else 0.0
            metrics[name] = {"value": value, "unit": spec["unit"]}
    else:
        values = measure(run, args.workload, args.seed, args.seconds, tally)
        if values is not None:
            for spec in bench["end_to_end"]:
                metrics[spec["name"]] = {"value": values[spec["name"]],
                                         "unit": spec["unit"]}
    check_canary(run, args.workload, tally)

    for problem in tally.problems:
        print("perfbench: FAILED: %s" % problem, file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
