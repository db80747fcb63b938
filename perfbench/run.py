#!/usr/bin/env python3
"""Request-path benchmark of the keyword-search server.

    python3 perfbench/run.py --workload hot|cold|reload --seed N \\
        --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the library modules from
src/ plus km_reqbench) into .bench_build/, runs one workload over loopback
TCP, checks every answer against an in-process engine and prints each
metric by name with its unit. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones (see
BENCHMARK.json, perfbench/predictions.json and perfbench/README.md).

Exits non-zero when an answer differs from the in-process oracle, when a
request fails, or when the load generator ran too late for the run to
count (lateness bound below).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

# A run whose generator sent requests later than this behind schedule
# measured the generator, not the server: it is invalid.
# The bounds allow for the few-ms scheduling hiccups of a shared 4-vCPU
# VM; a generator that cannot keep its schedule exceeds them by far.
MAX_LATENESS_P99_MS = 10.0
MAX_LATENESS_MS = 100.0

TOTAL_BUDGET_S = 170.0
# The end-to-end metrics of BENCHMARK.json. p99_ms, rss_mb and reload_ms
# are printed on every run but left out of the bounded set: their
# run-to-run spread exceeds any bound the benchmark may set (README.md).
END_TO_END = [("setup_s", "s"), ("p50_ms", "ms"), ("qps", "1/s"),
              ("mrr", "ratio")]
PRINTED = END_TO_END + [("p99_ms", "ms"), ("rss_mb", "MB"),
                        ("reload_ms", "ms")]


def build(build_dir):
    """Configures and builds km_reqbench; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs,
              "--target", "km_reqbench"]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            return None
    return os.path.join(build_dir, "km_reqbench")


def lateness(records):
    return [r[stats.SENT] - r[stats.DUE] for r in records]


def finite(x):
    return x if math.isfinite(x) else 1e9


def end_to_end(raw):
    timed = raw["timed"]
    p50 = stats.latency_summary(timed["open"])[0]
    tail_ms, q, windows = stats.windowed_tail(timed["open"])
    n = len(timed["open"])
    # On reload the closed loop is the big tenant's.
    qps = stats.closed_loop_qps(timed["closed"], timed["closed_t0_ms"],
                                timed["closed_end_ms"])
    mondial = timed["open"] + ([] if raw["workload"] == "reload"
                               else timed["closed"])
    values = {
        "setup_s": stats.median(raw["setup_s"]),
        "p50_ms": finite(p50),
        "p99_ms": finite(tail_ms),
        "qps": qps,
        "mrr": stats.mean_reciprocal_rank(mondial),
        "rss_mb": raw["rss_mb"],
        "reload_ms": stats.median(raw["reload_ms"]),
    }
    notes = {"p99_ms": "p%d, median of %d windows of n=%d open-loop requests"
                       % (q, windows, n),
             "setup_s": "median of %d set-ups" % len(raw["setup_s"]),
             "reload_ms": "median of %d reloads" % len(raw["reload_ms"]),
             "qps": "%s closed loop" %
                    ("big tenant's" if raw["workload"] == "reload"
                     else "mondial")}
    return values, notes


def p50(values):
    return stats.percentile(values, 50)


def tail(values):
    """The highest percentile (at most p99) with 10 samples beyond it."""
    return stats.percentile(values, stats.tail_percentile(len(values)))


def per_layer(raw):
    """Per-layer metrics of a traced run (reqbench.cc documents the
    replays the spans come from)."""
    tree = stats.SpanTree(raw["spans"])
    wire = [s for s in tree.named("net.request")
            if tree.has_child(s, "serve.submit")]
    net_reply = [tree.self_ms(s) for s in wire]
    queue_wait = [tree.self_ms(s) for s in tree.named("serve.submit")]
    answers = tree.named("core.answer")
    answer_ms = [s[5] - s[4] for s in answers]
    core_self = [tree.self_ms(s) for s in answers]
    translate = list(tree.per_request("core.translate").values())
    tokenize_us = [1000.0 * v for v in tree.per_request("text.tokenize").values()]
    weights = list(tree.per_request("metadata.weights").values())
    configs = [tree.self_ms(s) for s in tree.named("core.configurations")]
    steiner_by_rid = tree.per_request("graph.steiner")
    steiner = list(steiner_by_rid.values())
    c = raw["counters"]
    traced = raw["traced"]["open"]
    rate, conns = raw["open_qps"], raw["open_conns"]
    stalled, base = stats.stalled_replies(traced, 1000.0 * conns / rate)
    untraced_p50 = stats.latency_summary(raw["timed"]["open"])[0]
    traced_p50, traced_tail, _, _ = stats.latency_summary(traced)
    late = lateness(raw["timed"]["open"] + traced + raw["inproc"]["open"])

    # Tail requests of the traced open loop: where their engine time went.
    slowest = [r for r in traced if r[stats.OUTCOME] == stats.OK
               and r[stats.DONE] - r[stats.DUE] >= traced_tail]
    tail_lat = sum(r[stats.DONE] - r[stats.DUE] for r in slowest)
    tail_steiner = sum(steiner_by_rid.get(r[stats.RID], 0.0) for r in slowest)
    lookups = c["row_hits"] + c["row_misses"]
    st_lookups = c["steiner_hits"] + c["steiner_misses"]
    setup_ms = 1000.0 * stats.median(raw["setup_s"])
    m = {
        "net.reply_p50_ms": (p50(net_reply), "ms"),
        "net.reply_p99_ms": (tail(net_reply), "ms"),
        "net.stalled_reply_ratio": (stalled / base if base else 0.0, "ratio"),
        "net.stalled_reply_base": (base, "count"),
        "net.codec_us": (p50(raw["codec_us"]), "us"),
        "net.bytes_per_reply": (c["bytes_out"] / max(1, c["replies"]), "B"),
        "net.share_of_p50": (p50(net_reply) / traced_p50
                             if traced_p50 else 0.0, "ratio"),
        "serve.queue_wait_p50_ms": (p50(queue_wait), "ms"),
        "serve.queue_wait_p99_ms": (tail(queue_wait), "ms"),
        "serve.max_queue_depth": (c["max_queue_depth"], "count"),
        "serve.shed_ratio": (c["shed"] / max(1, c["submitted"]), "ratio"),
        "core.answer_p50_ms": (p50(answer_ms), "ms"),
        "core.answer_p99_ms": (tail(answer_ms), "ms"),
        "core.self_p50_ms": (p50(core_self), "ms"),
        "core.unattributed_share": (sum(core_self) / sum(answer_ms)
                                    if answer_ms else 0.0, "ratio"),
        "core.translate_p50_ms": (p50(translate), "ms"),
        "text.tokenize_p50_us": (p50(tokenize_us), "us"),
        "metadata.weights_p50_ms": (p50(weights), "ms"),
        "metadata.weights_p99_ms": (tail(weights), "ms"),
        "metadata.row_hit_ratio": (c["row_hits"] / lookups if lookups else 0.0,
                                   "ratio"),
        "matching.configs_p50_ms": (p50(configs), "ms"),
        "matching.configs_p99_ms": (tail(configs), "ms"),
        "graph.steiner_p50_ms": (p50(steiner), "ms"),
        "graph.steiner_p99_ms": (tail(steiner), "ms"),
        "graph.steiner_hit_ratio": (c["steiner_hits"] / st_lookups
                                    if st_lookups else 0.0, "ratio"),
        "graph.steiner_misses_per_query": (c["steiner_misses"] /
                                           max(1, c["replayed"]), "count"),
        "graph.share_of_tail": (tail_steiner / tail_lat if tail_lat else 0.0,
                                "ratio"),
        "core.cache_dependent_ratio": (c["cache_dependent"] /
                                       max(1, c["distinct"]), "ratio"),
        "core.cache_dependent_base": (c["distinct"], "count"),
        "snapshot.load_ms": (c["snapshot_load_ms"], "ms"),
        "snapshot.bytes": (c["snapshot_bytes"], "B"),
        "snapshot.share_of_setup": (c["snapshot_load_ms"] / setup_ms
                                    if setup_ms else 0.0, "ratio"),
        "trace.overhead_p50_ms": (traced_p50 - untraced_p50, "ms"),
        "gen.lateness_p99_ms": (stats.percentile(late, 99), "ms"),
        "gen.lateness_max_ms": (max(late) if late else 0.0, "ms"),
    }
    return m


def prediction(workload, m):
    """The prediction of predictions.json this workload's traced run checks."""
    if workload == "hot":
        share = m["net.share_of_p50"][0]
        claim = "net dominates hot p50_ms"
        why = "net.reply_p50_ms is %.0f%% of the traced p50" % (100 * share)
    elif workload == "cold":
        share = m["graph.share_of_tail"][0]
        claim = "graph dominates cold p99_ms"
        why = "Steiner time is %.0f%% of tail-request latency" % (100 * share)
    else:
        share = m["snapshot.share_of_setup"][0]
        claim = "snapshot dominates reload setup_s"
        why = "LoadSnapshot is %.0f%% of set-up" % (100 * share)
    return "%s: %s (%s)" % (claim, "confirmed" if share > 0.5 else "refuted",
                            why)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["hot", "cold", "reload"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    started = time.monotonic()

    root = os.getcwd()
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    binary = build(os.path.join(build_root, "perfbench"))
    if binary is None:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    workdir = os.path.join(build_root, "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    raw_path = os.path.join(workdir, "raw.json")
    try:
        budget = TOTAL_BUDGET_S - (time.monotonic() - started)
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", raw_path, "--workdir", workdir],
            timeout=max(10.0, budget))
        if proc.returncode != 0:
            sys.stderr.write("perfbench: km_reqbench exited %d\n" %
                             proc.returncode)
            return 1
        with open(raw_path) as f:
            raw = json.load(f)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded its time budget\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    phases = [raw["timed"]["open"], raw["timed"]["closed"]]
    if args.trace:
        phases += [raw["traced"]["open"], raw["traced"]["closed"],
                   raw["inproc"]["open"], raw["inproc"]["closed"]]
    attempted, failed, by_kind = stats.count_failures(
        [r for p in phases for r in p])
    late = lateness(raw["timed"]["open"] +
                    (raw["traced"]["open"] + raw["inproc"]["open"]
                     if args.trace else []))
    late_p99, late_max = stats.percentile(late, 99), max(late)
    valid = late_p99 <= MAX_LATENESS_P99_MS and late_max <= MAX_LATENESS_MS

    print("workload %s seed %d: %d requests attempted, %d failed %s" %
          (args.workload, args.seed, attempted, failed, by_kind or ""))
    print("fail_ratio = %.6f" % (failed / attempted if attempted else 0.0))
    print("generator lateness: p99 %.3f ms, max %.3f ms (bound %.1f / %.1f) "
          "-> run %s" % (late_p99, late_max, MAX_LATENESS_P99_MS,
                         MAX_LATENESS_MS, "valid" if valid else "INVALID"))
    stalled, base = stats.stalled_replies(
        raw["timed"]["open"], 1000.0 * raw["open_conns"] / raw["open_qps"])
    print("stalled replies (timed open loop): %d of %d" % (stalled, base))
    print("answers that depended on cache fill order (equal to an empty-cache "
          "engine's, not to the same-order replay's): %d" %
          raw["order_dependent"])
    values, notes = end_to_end(raw)
    for name, unit in PRINTED:
        print("%s = %.4f %s%s" % (name, values[name], unit,
                                  "  (%s)" % notes[name] if name in notes
                                  else ""))
    if args.trace:
        layers = per_layer(raw)
        for name in sorted(layers):
            print("%s = %.4f %s" % (name, layers[name][0], layers[name][1]))
        print("prediction: " + prediction(args.workload, layers))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    correct = failed == 0 and valid
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
