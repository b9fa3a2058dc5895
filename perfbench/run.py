"""woexplain benchmark: one command, four workloads, each in a fresh interpreter.

    python3 perfbench/run.py --workload cli-chain --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 1
    python3 perfbench/run.py --self-check

Run from the repository root. Each workload runs in its own child
interpreter (workload.py) with BLAS and OpenMP pinned to one thread, so
peak memory and timings are per workload. The last line of standard
output is one JSON object: correct, attempted, failed and metrics, the
end-to-end metrics with --trace 0 and the per-layer ones with --trace 1.
failed/attempted is the failed fraction: operations that raised or whose
output failed a check, over operations attempted.

--self-check runs every workload once at tiny sizes in both modes and
checks that every metric named in BENCHMARK.json is emitted, with its
unit, and that every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("cli-chain", "discover", "wide-contrast", "cli-fit-validate")
# one thread keeps timings steady on a shared machine; it is at most nproc
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 tiny: bool = False) -> dict:
    """Run one workload in a child interpreter and return its result.

    Peak resident memory is read from the child's own resource usage.
    Raises RuntimeError when the child fails.
    """
    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"result-{name}-{seed}-{trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(OUT_DIR), "--result", str(result_path)]
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ, **{var: str(THREADS) for var in THREAD_VARS})
    child = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise RuntimeError(f"workload {name} exited with code {child.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    if not trace:
        # ru_maxrss is in KiB on Linux
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    return result


def report(name: str, result: dict) -> None:
    """Human-readable lines; the JSON result line comes last."""
    print(f"# workload {name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"{result['rounds']} rounds of {result['slots']} explanations, "
          f"output digest {result['digest']}, speed factor {result['speed_factor']:.4f}, "
          f"threads {THREADS} (nproc {os.cpu_count()})")
    for metric, entry in result["metrics"].items():
        print(f"#   {metric:<36} {entry['value']:.6g} {entry['unit']}")


def result_line(result: dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({k: result[k] for k in keys})


def self_check() -> int:
    """Run each workload once at tiny sizes and check the emitted metric sets."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name in WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run_workload(name, seed=0, seconds=1, trace=trace, tiny=True)
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in metrics.items()}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {sorted(got)} "
                                f"differ from BENCHMARK.json {sorted(want)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace {trace}: output checks failed")
            bad = [k for k, v in metrics.items() if not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{name} trace {trace}: non-finite {bad}")
            print(f"# self-check {name} trace {trace}: {len(metrics)} metrics, "
                  f"attempted {result['attempted']}, failed {result['failed']}")
    for line in problems:
        print(f"SELF-CHECK FAILED: {line}", file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="woexplain benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "woexplain").is_dir():
        print(f"error: no woexplain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace)
                   for name in names}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        report(name, result)
    for name, result in results.items():
        line = result_line(result)
        print(line if len(results) == 1 else f'{{"workload": "{name}", {line[1:]}')
    return 0


if __name__ == "__main__":
    sys.exit(main())
