"""Metric catalogue, statistics and output checks of paperbench.

The C++ runner (src/main.cpp) prints one raw JSON document per run: the
host time of every step of every leg, the engine counters, the serve
engine's passes and the span tables. Everything here is pure: it turns
that document into the named metrics and checks the outputs.
"""

import hashlib
import statistics

DEFAULT_SEED = 0x5EED

# name, unit, better, layer — the end-to-end metrics (BENCHMARK.json
# holds their bounds). Host times are measured with tracing off, at the
# reference host speed (src/speed.hpp).
END_TO_END = [
    ("setup_s", "s", "lower", "rt+kernels+simt"),
    ("sim_s.t1", "s", "lower", "simt"),
    ("mwips.t1", "Mwi/s", "higher", "simt"),
    ("peak_rss_mb", "MB", "lower", "process"),
    ("ipc", "lanes/cycle", "higher", "model"),
    ("mrays_per_s", "Mrays/s", "higher", "model"),
    ("simt_efficiency", "share", "higher", "model"),
    ("job_p50_s", "s", "lower", "serve"),
    ("job_p90_s", "s", "lower", "serve"),
    ("batch_s", "s", "lower", "serve"),
    ("hit_p50_ms", "ms", "lower", "serve"),
    ("ok_share", "share", "higher", "checks"),
]

STALL_REASONS = ["issued", "scoreboard", "barrier", "fifo_empty",
                 "bank_conflict", "no_warps", "drained"]

# The per-layer metrics, reported by the traced run (--trace 1).
PER_LAYER = [
    ("rt.scene_s", "s", "lower", "rt"),
    ("rt.kdtree_s", "s", "lower", "rt"),
    ("rt.triangles", "count", "lower", "rt"),
    ("rt.kd_nodes", "count", "lower", "rt"),
    ("rt.reference_s", "s", "lower", "rt"),
    ("kernels.assemble_s", "s", "lower", "kernels"),
    ("kernels.upload_s", "s", "lower", "kernels"),
    ("kernels.download_s", "s", "lower", "kernels"),
    ("simt.load_program_s", "s", "lower", "simt"),
    ("simt.warp_issues", "count", "lower", "simt"),
    ("simt.lane_instructions", "count", "higher", "simt"),
    ("simt.sim_cycles", "count", "lower", "simt"),
    ("simt.ns_per_warp_issue.t1", "ns", "lower", "simt"),
    # N-thread host time: per-layer, because an N-thread leg waits at
    # every epoch for whichever vCPU the host has taken away, and on a
    # shared host that spreads it far past any useful bound.
    ("sim_s.tN", "s", "lower", "simt"),
    ("mwips.tN", "Mwi/s", "higher", "simt"),
] + [("simt.stall." + r, "share", "higher" if r == "issued" else "lower",
      "simt") for r in STALL_REASONS] + [
    ("epoch.epochs", "count", "lower", "epoch"),
    ("epoch.rounds", "count", "lower", "epoch"),
    ("epoch.rounds_per_epoch", "count", "lower", "epoch"),
    ("epoch.mean_cycles", "cycles", "higher", "epoch"),
    ("epoch.cap_mem_latency_share", "share", "lower", "epoch"),
    ("epoch.advance_s.t1", "s", "lower", "epoch"),
    ("epoch.advance_s.tN", "s", "lower", "epoch"),
    ("epoch.merge_s.t1", "s", "lower", "epoch"),
    ("epoch.merge_s.tN", "s", "lower", "epoch"),
    ("epoch.merge_share.tN", "share", "lower", "epoch"),
    ("epoch.advance_speedup", "x", "higher", "epoch"),
    ("ff.cycles_skipped", "count", "higher", "ff"),
    ("ff.jumps", "count", "lower", "ff"),
    ("ff.skip_share", "share", "higher", "ff"),
    ("blockexec.fused_ops", "count", "higher", "blockexec"),
    ("blockexec.fused_share", "share", "higher", "blockexec"),
    ("blockexec.fallbacks", "count", "lower", "blockexec"),
    ("blockexec.compile_s", "s", "lower", "blockexec"),
    ("spawn.threads_spawned", "count", "lower", "spawn"),
    ("spawn.warps_formed", "count", "lower", "spawn"),
    ("spawn.lanes_per_formed_warp", "lanes", "higher", "spawn"),
    ("spawn.partial_flushes", "count", "lower", "spawn"),
    ("spawn.mem_bytes", "B", "lower", "spawn"),
    ("mem.dram_bytes", "B", "lower", "mem"),
    ("mem.dram_transactions", "count", "lower", "mem"),
    ("mem.tex_l1_hit_rate", "share", "higher", "mem"),
    ("mem.tex_l2_hit_rate", "share", "higher", "mem"),
    ("mem.bank_conflict_cycles", "cycles", "lower", "mem"),
    ("mem.onchip_bytes", "B", "lower", "mem"),
    ("trace.overhead_s", "s", "lower", "trace"),
    ("trace.span_overhead_s", "s", "lower", "trace"),
    ("trace.traced_minus_untraced_s", "s", "lower", "trace"),
    ("trace.registry_s", "s", "lower", "trace"),
    ("harness.serialize_s", "s", "lower", "harness"),
    ("serve.job_hash_s", "s", "lower", "serve"),
    ("serve.computed", "count", "lower", "serve"),
    ("serve.cache_hits", "count", "higher", "serve"),
    ("serve.warm_hit_ratio", "share", "higher", "serve"),
    ("failed_share", "share", "lower", "checks"),
    ("host.sim_raw_s.t1", "s", "lower", "host"),
]

UNITS = {name: unit for name, unit, _, _ in END_TO_END + PER_LAYER}


class InvariantError(Exception):
    """A counter broke an invariant; its layer numbers cannot be trusted."""


# --- statistics ---------------------------------------------------------------

def median(values):
    return statistics.median(values)


def percentile(values, p):
    """Linear-interpolated p-th percentile (0..100) of a non-empty list."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# --- output checks ------------------------------------------------------------

def digest_matches(payload, expected_hex):
    """True when @payload (bytes) hashes to @expected_hex."""
    return hashlib.sha256(payload).hexdigest() == expected_hex


def check_outputs(doc, pins):
    """Digest checks over one run. Returns (attempted, failure messages).

    - every leg of a point carries the same serializeResult digest,
      whatever its host thread count;
    - the payload file of each point hashes (here, independently of the
      simulator's sha256) to the digest the simulator reported;
    - at the default seed every point's digest equals its pin.
    """
    attempted = 0
    failures = []
    first = {}
    for leg in doc["legs"]:
        if not leg["digest"]:
            continue
        point = leg["point"]
        if point not in first:
            first[point] = leg
            continue
        attempted += 1
        if leg["digest"] != first[point]["digest"]:
            failures.append("%s: digest at %d threads differs from %d "
                            "threads" % (point, leg["threads"],
                                         first[point]["threads"]))
    for point, path in doc["payloads"].items():
        attempted += 1
        with open(path, "rb") as f:
            if not digest_matches(f.read(), first[point]["digest"]):
                failures.append("%s: payload does not hash to the "
                                "reported digest" % point)
    if doc["seed"] == DEFAULT_SEED:
        for point, leg in sorted(first.items()):
            attempted += 1
            if pins.get(point) != leg["digest"]:
                failures.append("%s: digest %s != pinned %s"
                                % (point, leg["digest"], pins.get(point)))
    return attempted, failures


# --- aggregation --------------------------------------------------------------

def _passes(doc, mode, threads=None):
    """Legs of @mode grouped by pass, in pass order (optionally filtered
    by thread count). A paper pass is one leg; a serve pass is the whole
    batch driven leg by leg."""
    groups = {}
    for leg in doc["legs"]:
        if leg["mode"] != mode:
            continue
        if threads is not None and leg["threads"] != threads:
            continue
        groups.setdefault((leg["pass"], leg["threads"]), []).append(leg)
    return [groups[k] for k in sorted(groups)]


def _sum(legs, section, key):
    return sum(leg[section][key] for leg in legs)


def _ratio(num, den):
    return num / den if den else 0.0


def _per_point(doc, modes, key, stat, threads=None):
    """Sum over points of @stat of @key across the point's legs.

    Summarising per point before summing rejects a leg that an
    interference burst on the host slowed down, even in a serve pass
    whose other legs were unaffected."""
    by_point = {}
    for leg in doc["legs"]:
        if leg["mode"] in modes and key in leg["t"] and \
                (threads is None or leg["threads"] == threads):
            by_point.setdefault(leg["point"], []).append(leg["t"][key])
    return sum(stat(v) for v in by_point.values())


def end_to_end(doc, failed, attempted):
    ref = _passes(doc, "plain", 1)[0]
    issues = _sum(ref, "c", "warp_issues")
    # Per point, the median 1-thread leg: its speed-corrected time errs
    # both ways.
    sim1 = _per_point(doc, ("plain",), "sim_ref_s", median, 1)
    setup = _per_point(doc, ("plain", "setup"), "setup_ref_s", median)
    cold = [e for e in doc["engine"] if e["cold"]]
    warm = [e for e in doc["engine"] if not e["cold"]]
    m = {
        "setup_s": setup,
        "sim_s.t1": sim1,
        "mwips.t1": issues / sim1 / 1e6,
        "peak_rss_mb": doc["peak_rss_mb"],
        "ipc": _sum(ref, "c", "lane_instructions") / _sum(ref, "c", "cycles"),
        "mrays_per_s": _sum(ref, "c", "items_completed") /
                       _sum(ref, "c", "sim_time_s") / 1e6,
        "simt_efficiency": _sum(ref, "c", "lane_instructions") /
                           (issues * ref[0]["c"]["warp_size"]),
        "hit_p50_ms": median([s * 1e3 for e in warm for s in e["latency_s"]]),
        "ok_share": 1.0 - failed / attempted,
    }
    if cold:
        # serve-sweep: the engine's cold passes; per job, the median over
        # the passes, so one disturbed pass does not set the tail.
        jobs = [median(s) for s in zip(*(e["latency_s"] for e in cold))]
        m["job_p50_s"] = median(jobs)
        m["job_p90_s"] = percentile(jobs, 90)
        m["batch_s"] = median([e["batch_s"] for e in cold])
    else:
        # A paper run is one job: the point at 1 thread, setup to digest.
        # Its steps after the run (download, serialize, digest; well under
        # 1% of it) are raw.
        post = median([leg["t"]["leg_s"] - leg["t"]["setup_s"] -
                       leg["t"]["sim_s"] for leg in doc["legs"]
                       if leg["mode"] == "plain"])
        # The batch is that one job.
        m["job_p50_s"] = m["job_p90_s"] = m["batch_s"] = setup + sim1 + post
    return m


def check_invariants(doc):
    """Counter invariants of the traced run; raise InvariantError."""
    for leg in doc["legs"]:
        if leg["mode"] == "setup" or not leg["c"]:
            continue
        c, t = leg["c"], leg["t"]
        if c["stall_total"] != c["sms"] * c["cycles"]:
            raise InvariantError(
                "%s: stall total %d != SMs x cycles %d"
                % (leg["point"], c["stall_total"], c["sms"] * c["cycles"]))
        if t["epoch.advance_s"] + t["epoch.merge_s"] > t["sim_s"] + 1e-6:
            raise InvariantError(
                "%s: epoch advance + merge %.6f s > sim %.6f s"
                % (leg["point"], t["epoch.advance_s"] + t["epoch.merge_s"],
                   t["sim_s"]))
    for e in doc["engine"]:
        if e["computed"] + e["cache_hits"] != e["submitted"]:
            raise InvariantError(
                "serve pass: computed %d + cache hits %d != submitted %d"
                % (e["computed"], e["cache_hits"], e["submitted"]))


def per_layer(doc, failed, attempted):
    n = doc["threads_n"]
    plain1 = _passes(doc, "plain", 1)[0]
    plainn = _passes(doc, "plain", n)[0] if n != 1 else plain1
    traced = _passes(doc, "traced")[0]
    events = _passes(doc, "events")[0]
    spans = doc["spans"]

    def span(name):
        return spans[name]["self_s"] if name in spans else 0.0

    def c(key):
        return _sum(plain1, "c", key)

    issues = c("warp_issues")
    epochs = c("epoch.epochs")
    simn = _per_point(doc, ("plain",), "sim_ref_s", min, n)
    m = {
        "rt.scene_s": span("rt.makeSceneByName"),
        "rt.kdtree_s": span("rt.KdTree::build"),
        "rt.triangles": c("triangles"),
        "rt.kd_nodes": c("kd_nodes"),
        "rt.reference_s": sum(doc["reference_s"].values()),
        "kernels.assemble_s": span("kernels.build"),
        "kernels.upload_s": span("kernels.uploadScene"),
        "kernels.download_s": span("kernels.downloadHits"),
        "simt.load_program_s": span("simt.loadProgram"),
        "simt.warp_issues": issues,
        "simt.lane_instructions": c("lane_instructions"),
        "simt.sim_cycles": c("cycles"),
        "simt.ns_per_warp_issue.t1":
            _sum(plain1, "t", "sim_ref_s") / issues * 1e9,
        # Per point, the fastest N-thread leg: an N-thread leg also
        # waits on stalled cores, which only ever slows it down.
        "sim_s.tN": simn,
        "mwips.tN": issues / simn / 1e6,
        "epoch.epochs": epochs,
        "epoch.rounds": c("epoch.rounds"),
        "epoch.rounds_per_epoch": _ratio(c("epoch.rounds"), epochs),
        "epoch.mean_cycles": _ratio(c("epoch.cycles_total"), epochs),
        "epoch.cap_mem_latency_share":
            _ratio(c("epoch.cap_mem_latency"), epochs),
        "epoch.advance_s.t1": _sum(plain1, "t", "epoch.advance_s"),
        "epoch.advance_s.tN": _sum(plainn, "t", "epoch.advance_s"),
        "epoch.merge_s.t1": _sum(plain1, "t", "epoch.merge_s"),
        "epoch.merge_s.tN": _sum(plainn, "t", "epoch.merge_s"),
        "epoch.merge_share.tN": _sum(plainn, "t", "epoch.merge_s") /
                                _sum(plainn, "t", "sim_s"),
        "epoch.advance_speedup":
            _ratio(_sum(plain1, "t", "epoch.advance_s"),
                   _sum(plainn, "t", "epoch.advance_s")),
        "ff.cycles_skipped": c("ff.cycles_skipped"),
        "ff.jumps": c("ff.jumps"),
        "ff.skip_share": c("ff.cycles_skipped") /
                         sum(l["c"]["sms"] * l["c"]["cycles"]
                             for l in plain1),
        "blockexec.fused_ops": c("blockexec.fused_ops"),
        "blockexec.fused_share": c("blockexec.fused_ops") / issues,
        "blockexec.fallbacks": c("blockexec.fallbacks"),
        "blockexec.compile_s": _sum(plain1, "t", "blockexec.compile_s"),
        "spawn.threads_spawned": c("threads_spawned"),
        "spawn.warps_formed": c("warps_formed"),
        "spawn.lanes_per_formed_warp":
            _ratio(c("threads_spawned"),
                   c("warps_formed") + c("partial_flushes")),
        "spawn.partial_flushes": c("partial_flushes"),
        "spawn.mem_bytes": c("spawn_mem_bytes"),
        "mem.dram_bytes": c("dram_bytes"),
        "mem.dram_transactions": c("dram_transactions"),
        "mem.tex_l1_hit_rate":
            _ratio(c("tex_l1_hits"), c("tex_l1_hits") + c("tex_l1_misses")),
        "mem.tex_l2_hit_rate":
            _ratio(c("tex_l2_hits"), c("tex_l2_hits") + c("tex_l2_misses")),
        "mem.bank_conflict_cycles": c("bank_conflict_cycles"),
        "mem.onchip_bytes": c("onchip_bytes"),
        # The events-on leg against the warm plain one: the run at the
        # reference host speed, plus the export steps timed directly.
        "trace.overhead_s":
            _sum(events, "t", "sim_ref_s") - _sum(plain1, "t", "sim_ref_s") +
            _sum(events, "t", "trace.chromeTraceJson") +
            _sum(events, "t", "trace.buildRegistry"),
        "trace.span_overhead_s": doc["span_count"] * doc["span_cost_s"],
        "trace.traced_minus_untraced_s":
            _sum(traced, "t", "sim_ref_s") - _sum(plain1, "t", "sim_ref_s"),
        "trace.registry_s": _sum(events, "t", "trace.buildRegistry"),
        "harness.serialize_s": _sum(plain1, "t", "harness.serializeResult"),
        "serve.job_hash_s": doc["job_hash_s"],
        "failed_share": failed / attempted,
        "host.sim_raw_s.t1": _sum(plain1, "t", "sim_s"),
        "serve.computed": sum(e["computed"] for e in doc["engine"]),
        "serve.cache_hits": sum(e["cache_hits"] for e in doc["engine"]),
        "serve.warm_hit_ratio": _ratio(
            sum(e["cache_hits"] for e in doc["engine"] if not e["cold"]),
            sum(e["submitted"] for e in doc["engine"] if not e["cold"])),
    }
    stall_total = c("stall_total")
    for r in STALL_REASONS:
        m["simt.stall." + r] = c("stall." + r) / stall_total
    return m


def with_units(values):
    return {name: {"value": values[name], "unit": UNITS[name]}
            for name in values}


def span_table(doc):
    """Per-layer self-time table of the traced leg, as text."""
    rows = sorted(doc["spans"].items(),
                  key=lambda kv: -kv[1]["self_s"])
    lines = ["%-28s %8s %12s %12s" % ("span", "count", "total_s", "self_s")]
    for name, t in rows:
        lines.append("%-28s %8d %12.6f %12.6f"
                     % (name, t["count"], t["total_s"], t["self_s"]))
    return "\n".join(lines)
