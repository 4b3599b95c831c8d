#!/usr/bin/env python3
"""Trace reducer: turns one traced benchmark run into a per-layer table.

    python3 perfbench/reduce_trace.py <span-file> <report.json>

<span-file> holds the host-clock spans gdmp_perfbench writes with
--span-file: [name, start_ns, end_ns, parent] per call the benchmark made
into a layer, named "<layer>.<call>". <report.json> is the binary's JSON
report of the same run (counts, sim-time span summary, repetition times).
perfbench/run.py --trace 1 calls reduce() directly.

A layer's self time is its spans' duration minus the part their child
spans cover; a span's parent is the span open when it began, so calls made
from inside simulator events nest under "sim.run_until" and the kernel's
self time is what is left after them.
"""

import json
import statistics
import sys

# Per-layer metrics and their units, in output order.
UNITS = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.run_host_s": "s",
    "sim.pending_max": "count",
    "net.segments": "count",
    "net.retransmits": "count",
    "net.timeouts": "count",
    "net.link_packets": "count",
    "net.link_drops": "count",
    "net.events_per_segment": "ratio",
    "flow.renegotiations": "count",
    "flow.flows_recomputed": "count",
    "flow.links_recomputed": "count",
    "flow.flows_per_reneg": "ratio",
    "flow.start_host_s": "s",
    "gridftp.transfers": "count",
    "gridftp.restarts": "count",
    "gridftp.blocks_corrupted": "count",
    "gridftp.control_rpcs": "count",
    "gridftp.get_host_s": "s",
    "rpc.requests": "count",
    "rpc.auth_failures": "count",
    "rpc.requests_per_replica": "ratio",
    "catalog.cache_hits": "count",
    "catalog.cache_misses": "count",
    "catalog.cache_stale": "count",
    "catalog.hit_ratio": "ratio",
    "catalog.lookups_per_replica": "ratio",
    "catalog.populate_host_s": "s",
    "catalog.probe_host_ns": "ns",
    "sched.completed": "count",
    "sched.busy_deferrals": "count",
    "sched.bounces_per_replica": "ratio",
    "sched.retries": "count",
    "sched.dead_lettered": "count",
    "sched.peak_active": "count",
    "sched.queue_wait_p99_s": "s",
    "gdmp.notifications": "count",
    "gdmp.files_replicated": "count",
    "gdmp.replication_failures": "count",
    "gdmp.stage_requests": "count",
    "gdmp.publish_host_s": "s",
    "storage.pool_hits": "count",
    "storage.pool_misses": "count",
    "storage.evictions": "count",
    "storage.mss_stages": "count",
    "storage.mss_archives": "count",
    "objrep.requests": "count",
    "objrep.packs_served": "count",
    "objrep.chunks": "count",
    "objrep.bytes_vs_file": "ratio",
    "testbed.grid_build_host_s": "s",
    "testbed.produce_host_s": "s",
    "obs.spans": "count",
    "obs.trace_overhead": "ratio",
}

# Ratios and the bases they are taken over.
RATIO_BASES = {
    "net.events_per_segment": ("sim.events", "net.segments"),
    "flow.flows_per_reneg": ("flow.flows_recomputed", "flow.renegotiations"),
    "rpc.requests_per_replica": ("rpc.requests", "replicas (ops)"),
    "catalog.hit_ratio": ("catalog.cache_hits", "cache probes"),
    "catalog.lookups_per_replica": ("cache probes", "replicas (ops)"),
    "sched.bounces_per_replica": ("sched.busy_deferrals", "sched.completed"),
    "objrep.bytes_vs_file": ("object bytes moved", "bytes of the files covering the selection"),
}

# Host-time metrics taken from span totals: name -> (span name, reduction).
SPAN_METRICS = {
    "sim.run_host_s": ("sim.run_until", "total_s"),
    "flow.start_host_s": ("flow.start", "total_s"),
    "gridftp.get_host_s": ("gridftp.get", "total_s"),
    "gdmp.publish_host_s": ("gdmp.publish", "total_s"),
    "catalog.populate_host_s": ("catalog.populate", "total_s"),
    "catalog.probe_host_ns": ("catalog.lookup", "mean_ns"),
    "testbed.grid_build_host_s": ("testbed.grid_build", "total_s"),
    "testbed.produce_host_s": ("testbed.produce", "total_s"),
}


def load_spans(path):
    with open(path) as f:
        return json.load(f)["spans"]


def span_totals(spans):
    """Per span name: calls, inclusive and self nanoseconds."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {}
    for i, (name, start, end, parent) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        t["calls"] += 1
        t["total_ns"] += end - start
        t["self_ns"] += end - start - child_ns[i]
    return totals


def layer_of(name):
    return name.split(".", 1)[0]


def normalized_median(times, calibration, reference):
    return statistics.median(t * reference / c for t, c in zip(times, calibration))


def reduce(report, span_file, reference_calibration):
    """Returns (per-layer metrics, printable table) for one traced run."""
    spans = load_spans(span_file)
    totals = span_totals(spans)
    counts = report["outcomes"]
    sim_spans = report["sim_spans"]

    metrics = {}
    for name in UNITS:
        if name in counts:
            metrics[name] = counts[name]
    for name, (span, how) in SPAN_METRICS.items():
        t = totals.get(span)
        if t is None:
            metrics[name] = 0.0
        elif how == "mean_ns":
            metrics[name] = t["total_ns"] / t["calls"]
        else:
            metrics[name] = t["total_ns"] * 1e-9
    metrics["sim.events_per_s"] = (counts["sim.events"] / metrics["sim.run_host_s"]
                                   if metrics["sim.run_host_s"] > 0 else 0.0)
    metrics["sched.queue_wait_p99_s"] = sim_spans.get("sched.queue_wait_p99_s", 0.0)
    sim_span_count = sum(v for k, v in sim_spans.items() if k.endswith(".count"))
    metrics["obs.spans"] = len(spans) + sim_span_count
    untraced = normalized_median(report["run_s"], report["calibration_s"],
                                 reference_calibration)
    traced = normalized_median(report["traced_run_s"], report["traced_calibration_s"],
                               reference_calibration)
    metrics["obs.trace_overhead"] = traced / untraced
    metrics = {name: float(metrics.get(name, 0.0)) for name in UNITS}
    return metrics, table(report, totals, metrics, sim_spans, untraced, traced,
                          len(spans), sim_span_count)


def table(report, totals, metrics, sim_spans, untraced, traced, host_spans, sim_span_count):
    out = []
    workload = report["workload"]
    out.append("== %s (seed %d): per-layer host time, traced repetition ==" % (
        workload, report["seed"]))
    layers = {}
    for name, t in totals.items():
        layer = layers.setdefault(layer_of(name), {"calls": 0, "total_ns": 0, "self_ns": 0})
        for key in layer:
            layer[key] += t[key]
    all_self = sum(l["self_ns"] for l in layers.values()) or 1
    out.append("  %-10s %10s %14s %14s %8s" % ("layer", "calls", "inclusive ms", "self ms", "self %"))
    for layer, l in sorted(layers.items(), key=lambda kv: -kv[1]["self_ns"]):
        out.append("  %-10s %10d %14.3f %14.3f %7.1f%%" % (
            layer, l["calls"], l["total_ns"] / 1e6, l["self_ns"] / 1e6,
            100.0 * l["self_ns"] / all_self))
    out.append("  (sim self time is the kernel plus every layer the simulator runs "
               "without a benchmark call on the stack)")
    out.append("  %-28s %10s %14s %14s" % ("span", "calls", "inclusive ms", "self ms"))
    for name, t in sorted(totals.items()):
        out.append("  %-28s %10d %14.3f %14.3f" % (
            name, t["calls"], t["total_ns"] / 1e6, t["self_ns"] / 1e6))

    out.append("-- counts (deterministic; equal in traced and untraced runs) --")
    for name, unit in UNITS.items():
        if unit == "count" and name not in ("obs.spans",):
            value = metrics[name]
            if value:
                out.append("  %-32s %16.0f" % (name, value))
    if "sched.busy_deferrals_registry" in report["outcomes"] and metrics["sched.busy_deferrals"]:
        out.append("  %-32s %16.0f  (registry mirror site.*.sched.busy_deferrals)" % (
            "", report["outcomes"]["sched.busy_deferrals_registry"]))
    out.append("-- ratios, with their bases --")
    for name, (num, den) in RATIO_BASES.items():
        if metrics[name]:
            out.append("  %-32s %16.6g  = %s / %s" % (name, metrics[name], num, den))
    out.append("-- host time per layer call (wall clock) --")
    for name in SPAN_METRICS:
        if metrics[name]:
            out.append("  %-32s %16.6g %s" % (name, metrics[name], UNITS[name]))
    if metrics["sim.events_per_s"]:
        out.append("  %-32s %16.6g 1/s  = sim.events / sim.run_host_s" % (
            "sim.events_per_s", metrics["sim.events_per_s"]))

    sim_names = sorted({k.rsplit(".", 1)[0] for k in sim_spans if k.endswith(".count")})
    if sim_names:
        out.append("-- simulated time per span (obs::Tracer); self = total minus children --")
        out.append("  %-24s %10s %14s %14s" % ("span", "count", "total sim s", "self sim s"))
        for name in sim_names:
            out.append("  %-24s %10d %14.3f %14.3f" % (
                name, sim_spans[name + ".count"], sim_spans[name + ".total_s"],
                sim_spans[name + ".self_s"]))
        out.append("  %-24s %39.6g s" % ("sched.queue_wait p99",
                                         metrics["sched.queue_wait_p99_s"]))

    out.append("-- tracing overhead --")
    out.append("  run_s untraced %.6g s, traced %.6g s (medians, reference-host s): "
               "overhead %.3fx; %d host spans + %d sim spans" % (
                   untraced, traced, metrics["obs.trace_overhead"], host_spans,
                   sim_span_count))
    return "\n".join(out)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[2]) as f:
        report = json.load(f)
    from run import REFERENCE_CALIBRATION_S  # same directory
    _, text = reduce(report, argv[1], REFERENCE_CALIBRATION_S)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
