#!/usr/bin/env python3
"""Run untraced workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/results/x.json
    python3 perfbench/spread.py --workloads extract-long --seeds 1-5

For every end-to-end metric this prints the median and the quartile spread
(Q3 - Q1) / median with ``statistics.quantiles(values, n=4)``, next to the
bound in BENCHMARK.json; a spread above a third of the bound is flagged.
It also prints the mean wall time of one run, set-up included.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": bound is None or spread <= bound / 3}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="write every run and the summary here (JSON)")
    args = parser.parse_args(argv)

    from run import environment

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"environment": environment(), "seconds": args.seconds,
              "seeds": seed_list(args.seeds), "inputs": {}, "runs": [], "summary": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        walls = []
        for seed in record["seeds"]:
            detail = ROOT / ".bench_build" / f"spread-{workload}-{seed}.json"
            detail.parent.mkdir(exist_ok=True)
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0", "--results", str(detail)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            full = json.loads(detail.read_text(encoding="utf-8"))
            detail.unlink()
            ok &= result["correct"]
            extras = {k: v for k, v in full["extras"].items() if not isinstance(v, list)}
            record["inputs"].setdefault(workload, full["inputs"])
            record["runs"].append({"workload": workload, "seed": seed, "wall_s": walls[-1],
                                   **result, "extras": extras})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed={seed} wall={walls[-1]:.1f}s correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {name: summarize(v, bounds.get(name)) for name, v in values.items()}
        summary["wall_s"] = summarize(walls, None)
        record["summary"][workload] = summary
        for name, s in summary.items():
            flag = "" if s["steady"] or name == "setup_s" else "  SPREAD ABOVE BOUND/3"
            print(f"  {workload:13s} {name:14s} median={s['median']:.5g} "
                  f"spread={s['spread']:.4f} bound={s['bound']}{flag}")

    walls = [r["wall_s"] for r in record["runs"]]
    print(f"mean wall time per run: {statistics.mean(walls):.1f} s over {len(walls)} runs")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
