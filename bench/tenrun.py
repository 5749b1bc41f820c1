"""Run workloads over several seeds, one process at a time, and summarize.

    python3 bench/tenrun.py --seeds 1-10 --seconds 30 --trace 0 --label a

For each workload and metric it prints the median, the quartiles (Python's
statistics.quantiles, n=4) and their distance as a share of the median, plus
the share of failed operations and the wall time per run. The raw lines go
to bench/results/tenrun-<label>.json. With two labels given to --overhead
(an untraced and a traced set) it prints the tracing overhead instead.
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
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("nan"),
                     "unit": runs[0]["result"]["metrics"][name]["unit"]}
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    out["_runs"] = {"n": len(runs), "attempted": attempted, "failed": failed,
                    "all_correct": all(r["result"]["correct"] for r in runs),
                    "wall_s_max": max(r["wall_s"] for r in runs),
                    "wall_s_median": statistics.median(r["wall_s"] for r in runs)}
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--label", default="latest")
    ap.add_argument("--overhead", nargs=2, metavar=("UNTRACED", "TRACED"))
    args = ap.parse_args()
    RESULTS.mkdir(exist_ok=True)
    if args.overhead:
        sets = [json.loads((RESULTS / f"tenrun-{label}.json").read_text())
                for label in args.overhead]
        for w in sets[0]["summary"]:
            if w in sets[1]["summary"]:
                plain = sets[0]["summary"][w]["train_inst_per_s"]["median"]
                traced = sets[1]["summary"][w]["trace.train_inst_per_s"]["median"]
                print(f"{w}: train {plain:.2f}/s untraced, {traced:.2f}/s traced, "
                      f"overhead {100 * (1 - traced / plain):.1f}%")
        return 0
    runs: dict[str, list] = {}
    for w in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            wall = time.perf_counter() - t
            if proc.returncode:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            result, info = json.loads(lines[-1]), json.loads(lines[-2])
            runs.setdefault(w, []).append({"seed": seed, "wall_s": wall, "result": result,
                                           "info": info})
            short = {k: round(v["value"], 3) for k, v in result["metrics"].items()}
            print(f"{w} seed {seed} wall {wall:.1f}s failed {result['failed']}/"
                  f"{result['attempted']} probe {[round(x, 1) for x in info['probe_ms']]} "
                  f"{short}", flush=True)
    summary = {w: summarize(r) for w, r in runs.items()}
    (RESULTS / f"tenrun-{args.label}.json").write_text(
        json.dumps({"args": vars(args), "runs": runs, "summary": summary}, indent=1))
    for w, s in summary.items():
        print(f"\n{w}: {s['_runs']}")
        for name, m in s.items():
            if not name.startswith("_"):
                print(f"  {name:34s} median {m['median']:.4g} q1 {m['q1']:.4g} "
                      f"q3 {m['q3']:.4g} spread {100 * m['spread']:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
