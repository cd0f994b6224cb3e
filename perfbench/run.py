#!/usr/bin/env python3
"""End-to-end benchmark of redoptd and the in-process session paths.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds redoptd and perfbench_driver from
source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR or .bench_build,
runs the workload once in a scratch directory under .bench_work, checks
every output, and prints the metrics.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer breakdown.  The exit code
is 0 only when every output was correct.  README.md describes workloads
and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

WORKLOADS = ("serve_small", "serve_wide", "session_tree")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root):
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "perfbench-build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4",
                  "--target", "redoptd", "perfbench_driver"])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                fail("build failed; see " + str(log))
    return build_dir / "perfbench_driver", build_dir / "redopt/tools/redoptd/redoptd"


def run_driver(root, driver, redoptd, args):
    workdir = root / ".bench_work" / "{}-{}".format(args.workload, os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [str(driver), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--redoptd", str(redoptd), "--out", "result.json"],
            cwd=workdir, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=DRIVER_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail("driver exited with status {}".format(proc.returncode))
        raw = json.loads((workdir / "result.json").read_text())
        files = {}
        for name in ("daemon-trace.json", "session-trace.json", raw["rss_status"]):
            if (workdir / name).is_file():
                files[name] = (workdir / name).read_text()
        return raw, files
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def metric(value, unit):
    return {"value": value, "unit": unit}


def latency_metrics(samples, notes):
    out = {}
    for wanted in (50, 90, 99):
        value, used = benchlib.tail(samples, wanted)
        out["ttr_p{}_ms".format(wanted)] = metric(value, "ms")
        if used != wanted:
            notes.append("ttr_p{}_ms reports p{} ({} samples)".format(wanted, used, len(samples)))
    return out


def end_to_end(raw, files, notes):
    m = {"setup_s": metric(statistics.median(raw["setup_s"]), "s")}
    m.update(latency_metrics(raw["ttr_ms"], notes))
    m["jobs_per_s"] = metric(raw["jobs"] / raw["wall_s"], "1/s")
    m["rounds_per_s"] = metric(raw["rounds"] / raw["wall_s"], "1/s")
    m["peak_rss_mb"] = metric(benchlib.parse_vmhwm_mb(files[raw["rss_status"]]), "MB")
    return m


def per_layer(raw, files, notes):
    def p(key, q=50):
        value, used = benchlib.tail(raw[key], q)
        if used != q:
            notes.append("{} reports p{} ({} samples)".format(key, used, len(raw[key])))
        return value

    m = {}
    m["serving.ckpt_serialize_us.p50"] = metric(p("replay.ckpt_serialize_us"), "us")
    m["serving.ckpt_write_us.p50"] = metric(p("replay.ckpt_write_us"), "us")
    m["serving.ckpt_write_us.p99"] = metric(p("replay.ckpt_write_us", 99), "us")
    m["serving.manifest_us.p50"] = metric(p("replay.manifest_us"), "us")
    m["serving.slice_us.p50"] = metric(p("replay.slice_us"), "us")
    m["serving.slice_us.p99"] = metric(p("replay.slice_us", 99), "us")
    m["serving.admit_ms.p50"] = metric(p("replay.admit_ms"), "ms")
    ckpt, compute = raw["replay.ckpt_total_us"], raw["replay.slice_total_us"]
    m["serving.ckpt_share"] = metric(ckpt / (ckpt + compute), "ratio")
    m["chaos.materialize_ms.p50"] = metric(p("replay.materialize_ms"), "ms")
    m["chaos.executor_round_us.p50"] = metric(p("probe.executor_round_us"), "us")
    m["core.gradient_us_per_round.p50"] = metric(p("probe.gradient_us"), "us")
    m["core.restack_ms.p50"] = metric(p("replay.restack_ms"), "ms")
    for name in ("cge", "cwtm", "krum"):
        m["filters.apply_us." + name] = metric(p("probe.filter_{}_us".format(name)), "us")
    m["util.frame_codec_us"] = metric(p("probe.codec_us"), "us")

    client = "" if "status_us" in raw else "probe."
    m["client.status_rtt_us.p50"] = metric(p(client + "status_us"), "us")
    m["client.status_rtt_us.p99"] = metric(p(client + "status_us", 99), "us")
    m["client.submit_rtt_us.p50"] = metric(p(client + "submit_us"), "us")
    m["client.result_rtt_us.p50"] = metric(p(client + "result_us"), "us")
    m["client.polls_per_job.p50"] = metric(p(client + "polls"), "count")

    daemon_events = json.loads(files["daemon-trace.json"])["traceEvents"]
    session_events = json.loads(files["session-trace.json"])["traceEvents"]
    dropped = raw["span_dropped"] > 0 or benchlib.spans_dropped(daemon_events) \
        or benchlib.spans_dropped(session_events)
    daemon = benchlib.fold_spans(daemon_events)
    session = benchlib.fold_spans(session_events)

    def self_p50(folded, name):
        return statistics.median(folded[name]["self"]) if name in folded else 0.0

    m["daemon.request_self_us.p50"] = metric(self_p50(daemon, "serving.request"), "us")
    m["daemon.slice_self_us.p50"] = metric(self_p50(daemon, "serving.slice"), "us")
    loop = daemon["serving.daemon"]
    m["daemon.other_share"] = metric(loop["self_us"] / loop["incl_us"], "ratio")
    m["session.round_self_us.p50"] = metric(self_p50(session, "session.round"), "us")
    m["transport.exchange_self_us.p50"] = metric(self_p50(session, "transport.exchange"), "us")
    m["elastic.round_self_us.p50"] = metric(self_p50(session, "elastic.round"), "us")

    untraced = raw["rounds"] / raw["wall_s"]
    traced = raw["traced.rounds"] / raw["traced.wall_s"]
    m["trace.overhead_pct"] = metric(100.0 * (untraced / traced - 1.0), "%")
    notes.append("layer split: checkpoint {:.0f} us vs slice compute {:.0f} us -> {}".format(
        ckpt, compute, "checkpoint-dominated" if ckpt > compute else "compute-dominated"))
    return m, dropped


COUNT_UNITS = {
    "serving.ckpt_bytes_per_slice": "B",
    "serving.slices_per_job": "count",
    "serving.restacks": "count",
    "transport.bytes_per_round": "B",
    "transport.frames_per_round": "count",
    "transport.reduce_depth": "count",
    "elastic.filter_rebuilds": "count",
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src" / "serving").is_dir():
        fail("run from a full checkout: the program sources are missing")
    driver, redoptd = build(root)
    raw, files = run_driver(root, driver, redoptd, args)

    notes = []
    counts = {name: metric(raw["count." + name], unit) for name, unit in COUNT_UNITS.items()}
    dropped = False
    if args.trace:
        metrics, dropped = per_layer(raw, files, notes)
        metrics.update(counts)
    else:
        metrics = end_to_end(raw, files, notes)

    failed = int(raw["rejected"] + raw["exceptions"] + raw["mismatches"])
    attempted = max(1, int(raw["attempted"]))
    correct = failed == 0 and not dropped
    print("workload {} seed {} trace {}: attempted {} ok {} rejected {} client errors {} "
          "mismatched {} error_rate {:.6f} (ratio)".format(
              args.workload, args.seed, args.trace, attempted, int(raw["completed"]),
              int(raw["rejected"]), int(raw["exceptions"]), int(raw["mismatches"]),
              failed / attempted))
    if dropped:
        print("span log dropped records: the traced breakdown is incomplete")
    print("work counts: " + json.dumps({k: v["value"] for k, v in counts.items()}))
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print("{:34s} {:>16.6f} {}".format(name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
