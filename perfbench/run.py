#!/usr/bin/env python3
"""End-to-end benchmark of the LTFB training path (see perfbench/README.md).

    python3 perfbench/run.py --workload dp-skinny --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Builds the benchmark binary (ltfb_perfbench) from source into .bench_build/, runs one
workload, checks the binary's report against the metric schema in
BENCHMARK.json, prints a readable summary (and, for --trace 1, the layer
table), and ends stdout with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status is 0 only when the build, the run, the output checks and the
schema check all pass.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "ltfb_perfbench"
WORKLOADS = ("dp-skinny", "tournament-wide", "datastore-epochs")
RUN_TIMEOUT_S = 170

# Which end-to-end metric each layer should move, and on which workload.
LAYER_MAP = {
    "tensor": "samples_per_s on dp-skinny (skinny GEMMs); "
              "round_wall_p50_s on tournament-wide (fat GEMMs)",
    "nn": "samples_per_s on dp-skinny; no change on tournament-wide "
          "(no allreduce there)",
    "gan": "samples_per_s on dp-skinny; round_wall_p50_s on tournament-wide",
    "data": "samples_per_s on dp-skinny (next_batch) and datastore-epochs "
            "(make_batch)",
    "core": "round_wall_p50_s / round_wall_tail_s on tournament-wide; "
            "small on dp-skinny",
    "comm": "round_wall_p50_s on tournament-wide (socket p2p); "
            "samples_per_s on datastore-epochs (in-proc all-to-all)",
    "datastore": "samples_per_s and first_round_s on datastore-epochs; "
                 "absent from the LTFB workloads",
    "bench": "the benchmark's own consumer (payload check); not a layer",
}

# Per-layer metrics of layers a workload does not run: reported as 0 with
# a sample count of 0 so every traced result carries the full list.
NOT_EXERCISED = {
    "dp-skinny": ("datastore.", "data.make_batch_ms"),
    "tournament-wide": ("datastore.", "data.make_batch_ms"),
    "datastore-epochs": ("tensor.", "nn.", "gan.", "core.",
                         "data.next_batch_ms"),
}

# Report-only figures: workload-specific names of the end-to-end metrics
# and the failure ratio (which is 0 on a healthy run, so it is carried by
# the result's attempted/failed fields instead of a bounded metric).
EXTRA = ("train_samples_per_s", "ingest_samples_per_s", "final_val_loss",
         "first_epoch_s", "failed_frac")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds the binary; returns False on failure."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        log("perfbench: the program's sources (src/, CMakeLists.txt) are "
            "missing from", ROOT)
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "ltfb_perfbench"])
    with open(build_log, "w", encoding="utf-8") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                log("perfbench: build failed; last lines of", build_log)
                with open(build_log, encoding="utf-8") as f:
                    log("".join(f.readlines()[-30:]))
                return False
    return True


def run_binary(workload, seed, seconds, trace):
    """Runs the binary once; returns (report dict or None, exit code)."""
    scratch = BUILD / f"scratch-{os.getpid()}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", str(scratch)]
    # Own process group, so a timeout can stop every rank process it forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: ltfb_perfbench timed out")
        return None, -1
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, json.JSONDecodeError):
        log("perfbench: ltfb_perfbench printed no report")
        return None, proc.returncode


def schema_errors(report, spec, trace):
    """Every metric the result must carry is present, numeric, with the
    schema's unit and a sample count."""
    errors = []
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = report.get("metrics", {})
    for entry in wanted:
        m = metrics.get(entry["name"])
        if m is None:
            errors.append(f"missing metric {entry['name']}")
            continue
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{entry['name']}: value is not a number")
        if m.get("unit") != entry["unit"]:
            errors.append(f"{entry['name']}: unit {m.get('unit')!r} != "
                          f"{entry['unit']!r}")
        if not isinstance(m.get("n"), int):
            errors.append(f"{entry['name']}: no sample count")
    for key in ("nproc", "simd_width", "build_type", "compute_pool",
                "comm_backend"):
        if key not in report.get("fingerprint", {}):
            errors.append(f"fingerprint lacks {key}")
    return errors


def fmt_metric(name, m):
    pct = f" (p{m['pct']:.1f})" if "pct" in m else ""
    return (f"  {name:<38} {m['value']:>14.6g} {m['unit']:<10} "
            f"n={m['n']}{pct}")


def print_summary(report, spec, trace):
    fp = report["fingerprint"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  repetitions {report['reps']}")
    print(f"host: nproc={fp['nproc']} simd_width={fp['simd_width']} "
          f"build={fp['build_type']} compute_pool={fp['compute_pool']} "
          f"comm={fp['comm_backend']}")
    metrics = report["metrics"]
    names = [e["name"] for e in spec["per_layer" if trace else "end_to_end"]]
    print("end-to-end metrics:" if not trace else "per-layer metrics:")
    for name in names:
        if name in metrics:
            print(fmt_metric(name, metrics[name]))
    extra = [n for n in EXTRA if n in metrics]
    if extra:
        print("also reported:")
        for name in extra:
            print(fmt_metric(name, metrics[name]))
    if trace:
        print_layer_table(report, names)
    for err in report.get("errors", []):
        print("CHECK FAILED:", err)


def print_layer_table(report, names):
    wall = report["traced_wall_s"]
    layers = report["layers"]
    program = sum(v for k, v in layers.items() if k != "bench")
    own = layers.get("bench", 0.0)
    print(f"layer table (traced wall {wall:.3f} s summed over ranks; "
          f"unattributed {report['unattributed_s']:.3f} s):")
    print(f"  {'layer':<10} {'self s':>9} {'share':>7}  moves")
    for layer in ("tensor", "nn", "gan", "data", "core", "comm", "datastore",
                  "bench"):
        self_s = layers.get(layer, 0.0)
        share = self_s / wall if wall > 0 else 0.0
        print(f"  {layer:<10} {self_s:>9.3f} {share:>7.1%}  {LAYER_MAP[layer]}")
        for name in names:
            if name.startswith(layer + "."):
                print("    " + fmt_metric(name, report["metrics"][name]).strip())
    covered = program / (wall - own) if wall > own else 0.0
    print(f"  named layers cover {covered:.1%} of the traced wall time"
          + (" (excluding the benchmark's own check)" if own else ""))
    gemm = report.get("gemm_s", 0.0)
    if gemm > 0 and wall > 0:
        print(f"  tensor: GEMM time inside the nn and gan spans of the train "
              f"phase {gemm:.3f} s ({gemm / wall:.1%} of the traced wall)")


def result_line(report, spec, trace, ok):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        m = report["metrics"].get(entry["name"])
        if m is not None:
            metrics[entry["name"]] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({"correct": ok,
                       "attempted": max(1, int(report.get("attempted", 0))),
                       "failed": int(report.get("failed", 0)),
                       "metrics": metrics})


def run_one(workload, seed, seconds, trace, spec):
    report, code = run_binary(workload, seed, seconds, trace)
    if report is None:
        return None, False
    if trace:
        for entry in spec["per_layer"]:
            if entry["name"].startswith(NOT_EXERCISED[workload]):
                report["metrics"].setdefault(
                    entry["name"], {"value": 0.0, "unit": entry["unit"], "n": 0})
    problems = schema_errors(report, spec, trace)
    for p in problems:
        log("perfbench: schema:", p)
    print_summary(report, spec, trace)
    ok = code == 0 and not report.get("errors") and not problems and \
        int(report.get("failed", 0)) == 0
    return report, ok


def self_check(spec):
    """Short run of every workload, timed and traced, through the same
    schema check the real runs use."""
    all_ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, ok = run_one(workload, 1, 2, trace, spec)
            log(f"self-check {workload} trace={trace}: "
                f"{'ok' if ok else 'FAILED'}")
            all_ok = all_ok and ok
    return all_ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="short timed and traced run of every workload")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    if args.self_check:
        return 0 if self_check(spec) else 1

    report, ok = run_one(args.workload, args.seed, args.seconds, args.trace,
                         spec)
    if report is None:
        return 1
    print(result_line(report, spec, args.trace, ok), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
