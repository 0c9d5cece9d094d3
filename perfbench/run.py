#!/usr/bin/env python3
"""voicequal benchmark: one closed-loop client, one operation at a time.

Run one workload from the repository root; the last line of standard output
is the JSON result (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``) and a readable summary goes to standard error:

    python3 perfbench/run.py --workload extract-long --seed 1 --seconds 20 --trace 0

Run every workload in both modes, print every metric and write one results
file that records the environment:

    python3 perfbench/run.py --all --seed 1 --seconds 20 --results out.json

``--smoke`` shrinks every workload to a few short inputs for a quick check.
The program is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from itertools import cycle, islice
from pathlib import Path

# One thread per numerical library, set before NumPy loads: the benchmark is
# one closed-loop client, and BLAS threads contending with other load for the
# two vCPUs slowed operations in ways the speed calibration cannot follow.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from speed import REFERENCE_S, SpeedClock, Stopwatch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("extract-long", "score-batch", "rank-corpus")

# Set-up runs this many times per measured run and reports the median.
SETUP_REPEATS = 2

# Workload-specific end-to-end figures that the fixed metric set cannot carry;
# they go to the summary and the results file.
EXTRA_UNITS = {"fail_ratio": "ratio", "file_ms_p90": "ms", "pairs_per_s": "1/s",
               "vectors_scored_per_s": "1/s", "accuracy_pct": "%"}

# Wrapped in the traced run: (module, function, span name, capture args/result).
# Names are replaced where they are looked up, so cli's imported copies are
# wrapped separately from the definitions the library API reaches.
TRACE_POINTS = (
    ("cli", "main", "cli.main", False),
    ("cli", "load_audio", "audio_io.load_audio", True),
    ("cli", "load_stats", "stats.load_stats", False),
    ("cli", "load_table", "quality.load_table", False),
    ("cli", "extract_llf_vector", "llf.extract_llf_vector", False),
    ("cli", "score_all", "quality.score_all", False),
    ("llf", "extract_llf_vector", "llf.extract_llf_vector", False),
    ("llf", "frame_signal", "framing.frame_signal", True),
    ("llf", "track_pitch", "pitch.track_pitch", True),
    ("llf", "compute_spectral_llfs", "spectral.compute_spectral_llfs", False),
    ("llf", "compute_period_llfs", "periods.compute_period_llfs", True),
    ("llf", "estimate_formants", "formants.estimate_formants", True),
    ("llf", "compute_harmonic_llfs", "harmonics.compute_harmonic_llfs", False),
    ("stats", "fit_stats", "stats.fit_stats", False),
    ("quality", "score_all", "quality.score_all", False),
    ("evaluation", "form_pairs", "evaluation.form_pairs", False),
    ("evaluation", "evaluate_pairs", "evaluation.evaluate_pairs", True),
)


def p90(values: list[float]) -> float:
    """90th percentile with linear interpolation between samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def environment(seed: int | None = None) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


class Book:
    """Attempted and failed operations, and the first output seen per input id."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict[str, list[float]] = {}

    def attempt(self, op, clock: Stopwatch | None = None):
        """Run one operation; returns (seconds, scaled seconds, raw result or None
        if it raised). Without a SpeedClock the scaled seconds are the seconds."""
        clock = clock or Stopwatch()
        clock.start()
        try:
            raw = op.run(clock.tick)
        except Exception as exc:  # a failing operation is counted, never fatal
            elapsed, scaled = clock.stop()
            self.attempted += 1
            self.failures.append(f"{op.id}: {type(exc).__name__}: {exc}")
            return elapsed, scaled, None
        elapsed, scaled = clock.stop()
        self.check(op, lambda: op.output(raw))
        return elapsed, scaled, raw

    def check(self, op, get_output) -> None:
        """Check one output against the reference and against earlier runs of the same input."""
        from workloads import OpFailed
        self.attempted += 1
        try:
            output = get_output()
        except (OpFailed, KeyError, ValueError, OSError) as exc:
            self.failures.append(f"{op.id}: unusable output: {exc}")
            return
        error = op.check(output)
        values = op.values(output)
        if error is None and self.outputs.setdefault(op.id, values) != values:
            error = f"{op.id}: output differs from an earlier run of the same input"
        if error:
            self.failures.append(error)


def run_plain(wl, seconds: float, book: Book) -> tuple[dict, dict]:
    """Set-up, memory pass, warm-up and timed rounds; returns (metrics, extras).

    Set-up and timed operations run on a SpeedClock: every time is also scaled
    to a fixed machine speed, measured around it (``speed.py``), and the
    metrics are the scaled times; the raw ones go to the extras.
    """
    from workloads import RankResult
    clock = SpeedClock()
    setup_raw, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        clock.start()
        wl.setup(clock.tick)
        raw, scaled = clock.stop()
        setup_raw.append(raw)
        setup_times.append(scaled)
    for op, output in wl.setup_outputs():
        book.check(op, lambda: output)

    # memory pass: the first operation alone under tracemalloc; it also warms up
    ops = wl.ops
    tracemalloc.start()
    try:
        book.attempt(ops[0])
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for op in islice(cycle(ops), wl.round_size * wl.warmup_rounds):
        book.attempt(op)

    # per successful timed operation: seconds per file and audio seconds per
    # second, scaled and raw
    per_file, xrt, per_file_raw, xrt_raw = [], [], [], []
    rank = {"pairs": 0, "pair_s": 0.0, "vectors": 0, "score_s": 0.0, "accuracy": []}
    stream = cycle(ops)
    start = time.perf_counter()
    rounds = timed = 0
    while True:
        for op in islice(stream, wl.round_size):
            failed_before = len(book.failures)
            elapsed, scaled, raw = book.attempt(op, clock)
            timed += 1
            # a failed operation's time is not a measure of the program's work
            if len(book.failures) == failed_before:
                per_file.append(scaled / op.files)
                xrt.append(op.audio_s / scaled)
                per_file_raw.append(elapsed / op.files)
                xrt_raw.append(op.audio_s / elapsed)
            if isinstance(raw, RankResult):
                rank["pairs"] += raw.n_pairs
                rank["pair_s"] += raw.pair_s
                rank["vectors"] += op.files
                rank["score_s"] += raw.score_s
                rank["accuracy"].append(raw.report.mean_accuracy_percent)
        rounds += 1
        wall = time.perf_counter() - start
        # stop between rounds, before a round that would overrun the budget
        if wall + wall / rounds > seconds:
            break

    if not per_file:
        raise RuntimeError(f"every timed operation failed: {book.failures[:3]}")
    # Rounds are whole, so every input weighs the same in the medians.
    metrics = {
        "setup_s": statistics.median(setup_times),
        "audio_xrt": statistics.median(xrt),
        "file_ms_p50": 1000.0 * statistics.median(per_file),
        "peak_mem_mb": peak_bytes / 1e6,
    }
    extras = {
        "setup_s_each": setup_times,
        "setup_s_raw": statistics.median(setup_raw),
        "timed_operations": timed,
        "timed_rounds": rounds,
        "timed_wall_s": wall,
        "audio_xrt_raw": statistics.median(xrt_raw),
        "file_ms_p50_raw": 1000.0 * statistics.median(per_file_raw),
        "machine_speed": statistics.median(REFERENCE_S / k for k in clock.kernel_times),
        "file_seconds": per_file,
        "fail_ratio": len(book.failures) / book.attempted,
    }
    # a tail percentile only where at least ten samples lie beyond it
    if len(per_file) >= 100:
        extras["file_ms_p90"] = 1000.0 * p90(per_file)
    if rank["pairs"]:
        extras["pairs_per_s"] = rank["pairs"] / rank["pair_s"]
        extras["vectors_scored_per_s"] = rank["vectors"] / rank["score_s"]
        extras["accuracy_pct"] = statistics.median(rank["accuracy"])
    return metrics, extras


def collect_counts(captured: list, counts: dict) -> None:
    """Counts from the results of wrapped calls, taken after the operation's spans closed."""
    from voicequal.periods import find_period_marks, voiced_runs
    for name, args, result in captured:
        if name == "audio_io.load_audio":
            counts["loaded_audio_s"] += result.duration_s
        elif name == "framing.frame_signal":
            counts["dsp_audio_s"] += args[0].duration_s
            counts["frames"] += result.n_frames
        elif name == "pitch.track_pitch":
            counts["voiced_frames"] += result.n_voiced
        elif name == "periods.compute_period_llfs":
            signal, pitch = args[0], args[1]
            counts["voiced_runs"] += len(voiced_runs(pitch.voiced))
            counts["marks"] += sum(len(m.positions) for m in find_period_marks(signal, pitch))
        elif name == "formants.estimate_formants":
            counts["formant_frames"] += len(result)
        elif name == "evaluation.evaluate_pairs":
            counts["pairs"] += len(args[0])


def layer_metrics(totals: dict, counts: dict, overhead_pct: float) -> dict:
    def total(name, key="total_s"):
        return totals[name][key] if name in totals else 0.0

    def per_call(name, scale, key="total_s"):
        return scale * totals[name][key] / totals[name]["calls"] if name in totals else 0.0

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    audio = counts["dsp_audio_s"]
    voiced = counts["voiced_frames"]
    return {
        "audio_io.load_ms_per_audio_s": ratio(total("audio_io.load_audio"), counts["loaded_audio_s"], 1e3),
        "framing.ms_per_audio_s": ratio(total("framing.frame_signal"), audio, 1e3),
        "pitch.ms_per_audio_s": ratio(total("pitch.track_pitch"), audio, 1e3),
        "spectral.ms_per_audio_s": ratio(total("spectral.compute_spectral_llfs"), audio, 1e3),
        "periods.ms_per_audio_s": ratio(total("periods.compute_period_llfs"), audio, 1e3),
        "formants.ms_per_audio_s": ratio(total("formants.estimate_formants"), audio, 1e3),
        "harmonics.ms_per_audio_s": ratio(total("harmonics.compute_harmonic_llfs"), audio, 1e3),
        "formants.ms_per_voiced_frame": ratio(total("formants.estimate_formants"), voiced, 1e3),
        "harmonics.ms_per_voiced_frame": ratio(total("harmonics.compute_harmonic_llfs"), voiced, 1e3),
        "llf.self_ms_per_audio_s": ratio(total("llf.extract_llf_vector", "self_s"), audio, 1e3),
        "cli.self_ms_per_file": per_call("cli.main", 1e3, "self_s"),
        "stats.load_ms": per_call("stats.load_stats", 1e3),
        "quality.load_table_ms": per_call("quality.load_table", 1e3),
        "quality.score_all_us": per_call("quality.score_all", 1e6),
        "stats.fit_ms": per_call("stats.fit_stats", 1e3),
        "evaluation.form_pairs_ms": per_call("evaluation.form_pairs", 1e3),
        "evaluation.us_per_pair": ratio(total("evaluation.evaluate_pairs"), counts["pairs"], 1e6),
        "trace.overhead_pct": overhead_pct,
        "framing.frames": counts["frames"],
        "pitch.voiced_frame_ratio": ratio(voiced, counts["frames"]),
        "periods.voiced_runs": counts["voiced_runs"],
        "periods.marks": counts["marks"],
        "formants.kept_ratio": ratio(counts["formant_frames"], voiced),
    }


def run_traced(wl, book: Book) -> tuple[dict, dict]:
    """Every trace operation once untraced, then once traced; returns (metrics, extras)."""
    from tracer import Tracer
    t0 = time.perf_counter()
    wl.setup()
    setup_s = time.perf_counter() - t0
    for op, output in wl.setup_outputs():
        book.check(op, lambda: output)

    ops = wl.trace_ops()
    plain_s = sum(book.attempt(op)[0] for op in ops)

    tracer = Tracer()
    for module, attr, name, capture in TRACE_POINTS:
        tracer.patch(module, attr, name, capture)
    counts = dict.fromkeys(("loaded_audio_s", "dsp_audio_s", "frames", "voiced_frames",
                            "voiced_runs", "marks", "formant_frames", "pairs"), 0)
    traced_s = 0.0
    try:
        for i, op in enumerate(ops):
            tracer.trace_id = i
            traced_s += book.attempt(op)[0]
            collect_counts(tracer.captured, counts)
            tracer.captured.clear()
    finally:
        tracer.restore()

    totals = tracer.totals()
    metrics = layer_metrics(totals, counts, 100.0 * (traced_s / plain_s - 1.0))
    extras = {
        "setup_s_once": setup_s,
        "trace_operations": len(ops),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "root_self_coverage": tracer.root_coverage(),
        "span_totals": totals,
        "counts": counts,
        "fail_ratio": len(book.failures) / book.attempted,
    }
    return metrics, extras


def run_one(args, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    import voicequal
    if not Path(voicequal.__file__).resolve().is_relative_to(SRC):
        print(f"error: voicequal imported from {voicequal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, fingerprint

    work_dir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    result_out = sys.stdout
    sys.stdout = sys.stderr  # anything the program prints stays off the result stream
    try:
        wl = WORKLOADS[args.workload](args.seed, str(work_dir), smoke=args.smoke)
        book = Book()
        if args.trace:
            metrics, extras = run_traced(wl, book)
            listed = spec["per_layer"]
        else:
            metrics, extras = run_plain(wl, args.seconds, book)
            listed = spec["end_to_end"]
        extras["output_sha256"] = fingerprint(book.outputs)
    finally:
        sys.stdout = result_out
        shutil.rmtree(work_dir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in listed}
    result = {
        "correct": not book.failures,
        "attempted": book.attempted,
        "failed": len(book.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    _print_summary(args, result, extras, book, wl.inputs())
    if args.results:
        record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
                  "smoke": args.smoke, "environment": environment(args.seed),
                  "inputs": wl.inputs(), "result": result, "extras": extras,
                  "failures": book.failures[:20]}
        Path(args.results).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


def _print_summary(args, result, extras, book, inputs) -> None:
    err = sys.stderr
    mode = "traced" if args.trace else "untraced"
    print(f"== {args.workload} seed={args.seed} {mode}: {result['attempted']} operations, "
          f"{result['failed']} failed, correct={result['correct']}", file=err)
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}", file=err)
    for name, value in extras.items():
        if isinstance(value, (int, float, str)):
            print(f"  ({name}) {value}", file=err)
    print(f"  (inputs) {json.dumps(inputs)}", file=err)
    for failure in book.failures[:5]:
        print(f"  FAIL {failure}", file=err)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    records = []
    tmp = ROOT / ".bench_build" / "perfbench" / f"all-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOAD_NAMES:
            for trace in (0, 1):
                out = tmp / f"{name}-{trace}.json"
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--results", str(out)]
                if args.smoke:
                    cmd.append("--smoke")
                proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=900)
                if proc.returncode != 0:
                    print(f"error: {name} trace={trace} exited {proc.returncode}", file=sys.stderr)
                    return proc.returncode or 1
                records.append(json.loads(out.read_text(encoding="utf-8")))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"{'workload':14s} {'metric':32s} {'value':>14s} unit")
    for rec in records:
        res = rec["result"]
        rows = [(k, m["value"], m["unit"]) for k, m in res["metrics"].items()]
        rows += [(k, rec["extras"][k], unit) for k, unit in EXTRA_UNITS.items()
                 if k in rec["extras"]]
        for name, value, unit in rows:
            print(f"{rec['workload']:14s} {name:32s} {value:14.6g} {unit}")
        print(f"{rec['workload']:14s} {'correct':32s} {str(res['correct']):>14s} "
              f"({res['failed']}/{res['attempted']} failed)")
    if args.results:
        combined = {"environment": environment(args.seed), "seconds": args.seconds,
                    "runs": records}
        Path(args.results).write_text(json.dumps(combined, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["result"]["correct"] for r in records) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed window of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few short inputs only")
    parser.add_argument("--results", help="write the full results record (JSON) here")
    args = parser.parse_args(argv)

    if not (SRC / "voicequal" / "__init__.py").is_file():
        print(f"error: no voicequal sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
