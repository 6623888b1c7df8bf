"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/collect.py --seeds 1-10 --out summary.json

For each workload of BENCHMARK.json, both trace modes and each metric it
records the values over the seeds, their median and quartiles and the spread (q3 - q1) / median, with
``statistics.quantiles(values, n=4)``, next to the bound of BENCHMARK.json.
Runs are made one after another, each in its own process, from the checkout
root.  `baseline.json` in this directory was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values, bound=None):
    out = {"values": values, "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3,
                   spread=(q3 - q1) / out["median"] if out["median"] else None)
    if bound is not None:
        out["bound"] = bound
    return out


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    summary = {"run_seconds": declared["run_seconds"], "seeds": args.seeds,
               "workloads": {}}
    for name in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            values, elapsed, provenance, failed = {}, [], None, 0
            for seed in args.seeds:
                start = time.perf_counter()
                done = subprocess.run(
                    [*declared["command"], "--workload", name, "--seed", str(seed),
                     "--seconds", str(declared["run_seconds"]), "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=180)
                elapsed.append(time.perf_counter() - start)
                if done.returncode != 0:
                    sys.exit(f"{name} seed {seed} trace {trace} failed:\n{done.stderr}")
                lines = done.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                failed += result["failed"]
                if provenance is None:
                    provenance = json.loads(lines[0].removeprefix("# provenance "))
                for metric, entry in result["metrics"].items():
                    values.setdefault(metric, []).append(entry["value"])
                print(f"{name} trace {trace} seed {seed}: {elapsed[-1]:.1f} s, "
                      f"failed {result['failed']}", file=sys.stderr)
            summary["workloads"].setdefault(name, {})[f"trace{trace}"] = {
                "failed": failed, "elapsed_s": summarise(elapsed),
                "provenance": {k: v for k, v in provenance.items()
                               if k in ("git_commit", "src_sha256", "nproc", "cpu_model",
                                        "python", "numpy", "scipy", "blas", "blas_threads")},
                "metrics": {m: summarise(v, bounds.get(m)) for m, v in values.items()},
            }
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    for name, modes in summary["workloads"].items():
        for mode, entry in modes.items():
            for metric, s in entry["metrics"].items():
                if "bound" in s:
                    print(f"{name:17s} {mode} {metric:12s} median {s['median']:.4g} "
                          f"spread {s.get('spread', float('nan')):.3f} bound {s['bound']}")


if __name__ == "__main__":
    main()
