#!/usr/bin/env python3
"""The simulator benchmark: one command, run from the repository root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the driver (perfbench/driver.cpp, with the simulator sources) into
.bench_build/perfbench, runs one workload through the public API, checks
every result, and prints the metrics BENCHMARK.json names. The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Correctness gate (any failure prints correct=false and exits 1):
  * every job's z_hash and simulated cycles equal a cold Service::run_one
    oracle of the same spec, computed outside the timed windows;
  * train_b1 / train_b16: every job's cycles and MACs, and the MAC/cycle
    they give, equal the committed BENCH_network.json B1.* / B16.* records.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from a separate traced run and writes its spans and a report to
.bench_build/perfbench/.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("train_b16", "train_b1", "serve_small")
TRAIN_BATCH = {"train_b1": 1, "train_b16": 16}
DRIVER_TIMEOUT_S = 170
# Latency samples per tail block: p90 with 10 samples beyond it. A tail over
# all of a serve run's tens of thousands of samples would be its rarest host
# hiccup; the median over blocks is a tail that repeats from run to run.
TAIL_BLOCK = 100
LAYERS = ("bench", "api", "serve", "cluster", "state", "sim", "core", "fp16")


# --- Statistics ---------------------------------------------------------------

def tail(values, beyond=10):
    """Highest percentile with at least `beyond` samples strictly above it.

    Returns (value, percentile, samples_beyond). Raises ValueError when there
    are too few samples for any such percentile.
    """
    s = sorted(values)
    idx = len(s) - 1 - beyond
    while idx >= 0 and sum(1 for v in s if v > s[idx]) < beyond:
        idx -= 1
    if idx < 0:
        raise ValueError(f"{len(s)} samples leave no percentile with "
                         f"{beyond} samples beyond it")
    above = sum(1 for v in s if v > s[idx])
    return s[idx], 100.0 * (len(s) - above) / len(s), above


def block_tail(values, block=TAIL_BLOCK):
    """tail() of each consecutive block of `block` samples, median across
    blocks; one block of all samples when there are fewer than two blocks.
    Returns (value, percentile, samples_beyond, blocks, samples_per_block)."""
    if len(values) < 2 * block:
        return (*tail(values), 1, len(values))
    tails = [tail(values[i:i + block]) for i in range(0, len(values) - block + 1, block)]
    _, pct, beyond = tails[0]
    return statistics.median(t[0] for t in tails), pct, beyond, len(tails), block


def self_times(spans):
    """Self time (ns) of each span: its duration minus the union of the
    intervals its child spans cover. `spans` are [name, request, parent,
    start_ns, end_ns] lists; a parent is an index into `spans` or -1."""
    children = {}
    for i, (_, _, parent, start, end) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, _, _, start, end) in enumerate(spans):
        covered, cur_lo, cur_hi = 0, None, None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def layer_self_ms(spans):
    totals = {layer: 0.0 for layer in LAYERS}
    for span, self_ns in zip(spans, self_times(spans)):
        layer = span[0].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + self_ns / 1e6
    return totals


def span_ms(spans, name):
    return [(s[4] - s[3]) / 1e6 for s in spans if s[0] == name]


def child_ms(spans, parent, name):
    """Durations of the `name` spans whose parent span is a `parent` span."""
    return [(s[4] - s[3]) / 1e6 for s in spans
            if s[0] == name and s[2] >= 0 and spans[s[2]][0] == parent]


# --- Correctness ----------------------------------------------------------------

def load_reference(path=os.path.join(ROOT, "BENCH_network.json")):
    with open(path) as f:
        return {r["name"]: r["value"] for r in json.load(f)["records"]}


def check(raw, reference):
    """Counts attempted jobs and errors, and lists what failed the gate.

    The driver checks each job as it completes: an error is a job that
    failed, or whose z_hash, simulated cycles or MACs differ from the cold
    oracle of its spec. On train_* the oracle's cycles and MACs must also
    equal the BENCH_network.json B1.* / B16.* records; otherwise every job
    ran a design that does not match them, and every job is an error.
    """
    tallies = raw["tallies"].values()
    attempted = sum(t["attempted"] for t in tallies)
    errors = sum(t["failed"] + t["mismatched"] for t in tallies)
    problems = list(raw["problems"])
    if errors and not problems:
        problems.append(f"{errors} jobs failed or did not match their oracle")
    batch = TRAIN_BATCH.get(raw["workload"])
    if batch is not None:
        want = (reference[f"B{batch}.total_cycles"], reference[f"B{batch}.macs"])
        got = {(o["cycles"], o["macs"]) for o in raw["oracle"]}
        if got != {want} or want[1] / want[0] != reference[f"B{batch}.macs_per_cycle"]:
            errors = attempted
            problems.append(f"cycles, MACs {sorted(got)} differ from "
                            f"BENCH_network.json B{batch}: {want}")
    return attempted, errors, problems


# --- Metrics ----------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def sim_per_job(raw):
    """Simulated cycles per job and MAC/cycle from the oracle of every spec
    (each job matched its spec's oracle): the mean over the serve sizes,
    each weighted equally, as the job mix runs them."""
    by_size = {}
    for spec, o in zip(raw["specs"], raw["oracle"]):
        by_size.setdefault(spec.split(",", 1)[0], []).append((o["cycles"], o["macs"]))
    cycles = statistics.fmean(statistics.fmean(c for c, _ in v) for v in by_size.values())
    macs = statistics.fmean(statistics.fmean(m for _, m in v) for v in by_size.values())
    return cycles, macs / cycles


def end_to_end(raw, attempted, errors):
    latencies = raw["latency_ms"]["unloaded"]
    cycles, mac_per_cycle = sim_per_job(raw)
    tail_ms, pct, beyond, blocks, per_block = block_tail(latencies)
    m = {
        "sim_cycles_per_job": metric(cycles, "cycle"),
        "mac_per_cycle": metric(mac_per_cycle, "MAC/cycle"),
        "latency_p50_ms": metric(statistics.median(latencies), "ms"),
        "latency_tail_ms": metric(tail_ms, "ms"),
        "jobs_per_s": metric(raw["saturated_jobs"] / raw["saturated_s"], "1/s"),
        "setup_s": metric(statistics.median(raw["setup_s"]), "s"),
        "peak_rss_mb": metric(raw["peak_rss_kib"] * 1024 / 1e6, "MB"),
        "success_rate": metric(1.0 - errors / attempted, "ratio"),
    }
    notes = [f"latency_tail_ms: p{pct:.4g} ({beyond} samples beyond it) of "
             f"{per_block} unloaded jobs, median of {blocks} such blocks; "
             f"{len(latencies)} unloaded jobs in all",
             f"jobs_per_s: {raw['saturated_jobs']} jobs in "
             f"{raw['saturated_s']:.3f} s, saturated",
             f"error_rate {errors / attempted:.6g} ({errors} of {attempted} jobs)",
             f"setup_s: median of {len(raw['setup_s'])} samples"]
    return m, notes


def per_layer(raw):
    spans, counts = raw["spans"], raw["counts"]
    c = lambda k: counts.get(k, 0.0)  # noqa: E731 -- absent layers count 0
    med = lambda name: statistics.median(span_ms(spans, name))  # noqa: E731
    traced, untraced = raw["latency_ms"]["traced"], raw["latency_ms"]["untraced"]
    serve = raw["workload"] == "serve_small"
    mean = lambda k: c(f"traced.{k}") / c("traced.jobs")  # noqa: E731
    fp16_ops = c("fp16.ops_per_span")
    reuse_base = c("api.cluster_reuses") + c("api.clusters_constructed")
    template_base = c("api.template_forks") + c("api.template_misses")
    m = {
        "fp16.fma_ns.normal": med("fp16.fma.normal") * 1e6 / fp16_ops,
        "fp16.fma_ns.zero_result": med("fp16.fma.zero_result") * 1e6 / fp16_ops,
        "fp16.fma_ns.subnormal": med("fp16.fma.subnormal") * 1e6 / fp16_ops,
        "core.fma_ops": mean("fma_ops"),
        "core.advance_cycles": mean("advance_cycles"),
        "core.stall_cycles": mean("stall_cycles"),
        "core.ns_per_fma.dense":
            med("core.gemm.dense") * 1e6 / c("core.gemm.dense.fma_ops"),
        "core.ns_per_fma.zero_x":
            med("core.gemm.zero_x") * 1e6 / c("core.gemm.zero_x.fma_ops"),
        "sim.ns_per_cycle": med("sim.step") * 1e6 / c("sim.cycles"),
        "mem.dma_bytes": c("mem.dma_bytes"),
        "mem.dma_wait_cycles": c("mem.dma_wait_cycles"),
        "mem.l2_resident_kib": c("mem.l2_resident_bytes") / 1024.0,
        # A serve job is one TCDM-resident GEMM: all forward, no DMA to hide.
        "cluster.phase_cycles.fw":
            mean("cycles") if serve else c("cluster.phase_cycles.fw"),
        "cluster.phase_cycles.dx": c("cluster.phase_cycles.dx"),
        "cluster.phase_cycles.dw": c("cluster.phase_cycles.dw"),
        "cluster.overlap_efficiency": 1.0 if serve else
            c("cluster.compute_cycles") / c("cluster.gemm_cycles"),
        "cluster.construct_ms": med("cluster.construct"),
        "cluster.reset_us": med("cluster.reset") * 1e3,
        "cluster.step_ms": med("cluster.run_staged"),
        "state.snapshot_ms": med("state.snapshot"),
        "state.restore_us": med("state.restore") * 1e3,
        "state.image_kib": c("state.image_bytes") / 1024.0,
        "api.create_us": med("api.create") * 1e3,
        "api.overhead_us": statistics.median(
            s - d for s, d in zip(child_ms(spans, "bench.service", "api.service"),
                                  span_ms(spans, "bench.direct"))) * 1e3,
        "api.template_fork_ratio":
            c("api.template_forks") / template_base if template_base else 0.0,
        "api.cluster_reuse_ratio":
            c("api.cluster_reuses") / reuse_base if reuse_base else 0.0,
        "api.retries": c("api.retries"),
        "api.failed": c("api.failed"),
        "serve.overhead_us":
            (med("serve.client_run") - med("api.service")) * 1e3 if serve else 0.0,
        "serve.frames_per_job":
            (c("serve.frames_in") + c("serve.frames_out")) / c("serve.jobs")
            if serve else 0.0,
        "serve.protocol_errors": c("serve.protocol_errors"),
        "trace.overhead_ms": statistics.median(traced) - statistics.median(untraced),
    }
    for layer, ms in layer_self_ms(spans).items():
        m[f"{layer}.self_ms"] = ms
    return m


PER_LAYER_UNITS = {
    "fp16.fma_ns.normal": "ns",
    "fp16.fma_ns.zero_result": "ns",
    "fp16.fma_ns.subnormal": "ns",
    "core.fma_ops": "count",
    "core.advance_cycles": "cycle",
    "core.stall_cycles": "cycle",
    "core.ns_per_fma.dense": "ns",
    "core.ns_per_fma.zero_x": "ns",
    "sim.ns_per_cycle": "ns",
    "mem.dma_bytes": "B",
    "mem.dma_wait_cycles": "cycle",
    "mem.l2_resident_kib": "KiB",
    "cluster.phase_cycles.fw": "cycle",
    "cluster.phase_cycles.dx": "cycle",
    "cluster.phase_cycles.dw": "cycle",
    "cluster.overlap_efficiency": "ratio",
    "cluster.construct_ms": "ms",
    "cluster.reset_us": "us",
    "cluster.step_ms": "ms",
    "state.snapshot_ms": "ms",
    "state.restore_us": "us",
    "state.image_kib": "KiB",
    "api.create_us": "us",
    "api.overhead_us": "us",
    "api.template_fork_ratio": "ratio",
    "api.cluster_reuse_ratio": "ratio",
    "api.retries": "count",
    "api.failed": "count",
    "serve.overhead_us": "us",
    "serve.frames_per_job": "count",
    "serve.protocol_errors": "count",
    "trace.overhead_ms": "ms",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
}


def trace_report(raw, metrics):
    """Per-layer self time, counts and ratios, tracing overhead, and the span
    tree of every request."""
    spans = raw["spans"]
    selfs = self_times(spans)
    lines = [f"traced run: {raw['workload']} seed {raw['seed']}",
             f"tracing overhead: {metrics['trace.overhead_ms']:.4f} ms on the "
             "latency median (traced minus untraced jobs, interleaved)",
             "self time per layer (ms):"]
    lines += [f"  {layer:8s} {metrics[f'{layer}.self_ms']:12.3f}" for layer in LAYERS]
    lines.append("per-layer metrics:")
    lines += [f"  {k:28s} {v:.6g} {PER_LAYER_UNITS[k]}"
              for k, v in metrics.items() if not k.endswith(".self_ms")]
    lines.append("span tree per request (duration / self, ms):")
    depth = {}
    last_request = None
    for i, (name, request, parent, start, end) in enumerate(spans):
        depth[i] = 0 if parent < 0 else depth[parent] + 1
        if request != last_request:
            lines.append(f"  request {request}")
            last_request = request
        lines.append(f"    {'  ' * depth[i]}{name} "
                     f"{(end - start) / 1e6:.4f} / {selfs[i] / 1e6:.4f}")
    return "\n".join(lines)


# --- Running --------------------------------------------------------------------

def build():
    """Configures (once) and builds the driver; build output goes to stderr so
    standard output stays the benchmark's report."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def run_driver(args):
    binary = build()
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--scratch", os.path.relpath(BUILD_DIR, ROOT)]
        + (["--corrupt-oracle"] if args.corrupt_oracle else []),
        cwd=ROOT, check=True, stdout=subprocess.PIPE, timeout=DRIVER_TIMEOUT_S)
    return json.loads(proc.stdout)


def main(argv=None, driver=run_driver, reference=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt-oracle", action="store_true",
                   help="flip one oracle bit (the benchmark's test of its gate)")
    args = p.parse_args(argv)

    if reference is None:
        reference = load_reference()
    raw = driver(args)
    attempted, errors, problems = check(raw, reference)
    if args.trace:
        layer = per_layer(raw)
        report = trace_report(raw, layer)
        stem = os.path.join(BUILD_DIR, f"trace-{args.workload}-{args.seed}")
        os.makedirs(BUILD_DIR, exist_ok=True)
        with open(stem + ".spans.json", "w") as f:
            json.dump(raw["spans"], f)
        with open(stem + ".txt", "w") as f:
            f.write(report + "\n")
        print("\n".join(report.split("\n")[:60]))
        print(f"(full report and spans: {os.path.relpath(stem, ROOT)}.txt / .spans.json)")
        metrics = {k: metric(v, PER_LAYER_UNITS[k]) for k, v in layer.items()}
    else:
        metrics, notes = end_to_end(raw, attempted, errors)
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
        print("\n".join(notes))
    for problem in problems[:20]:
        print(f"CORRECTNESS: {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": errors, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
