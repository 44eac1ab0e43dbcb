"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload sweep-drude --seeds 1-10 [--seconds S] [--json out.json]

Runs run.py once per seed (one process at a time) and prints, for each
end-to-end metric, the median, the quartiles as statistics.quantiles(n=4)
gives them, and their distance as a share of the median next to the bound
BENCHMARK.json fixes.  --json also writes those figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def measure(workload: str, seeds: list[int], seconds: int) -> dict:
    values: dict[str, list[float]] = {m["name"]: [] for m in SPEC["end_to_end"]}
    failed = attempted = 0
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=180,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"{workload} seed {seed}: incorrect\n{proc.stderr}")
        failed += result["failed"]
        attempted += result["attempted"]
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"  seed {seed}: " + ", ".join(f"{k} {v[-1]:.5g}" for k, v in values.items()), flush=True)
    summary = {"seeds": seeds, "seconds": seconds, "attempted": attempted, "failed": failed, "metrics": {}}
    for m in SPEC["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary["metrics"][m["name"]] = {
            "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "bound": m["bound"], "values": vals,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    out = {}
    for workload in args.workload:
        print(workload, flush=True)
        out[workload] = summary = measure(workload, _seeds(args.seeds), args.seconds)
        print(f"  failed {summary['failed']} of {summary['attempted']} operations")
        for name, s in summary["metrics"].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {name:16s} median {s['median']:.5g} {s['unit']}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
                  f"  spread {s['spread']:.3f} (bound {s['bound']}){flag}")
    if args.json:
        args.json.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
