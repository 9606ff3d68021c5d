"""Benchmark of the partitioned-well force calculator.

Usage (from the repository root):

    python3 perfbench/run.py --workload {curve|search|compare} --seed N \
        --seconds S --trace {0|1}

Builds the workload's command list from the seed, runs it in a worker process
(worker.py) through ``partition_well.cli.main`` with ``--jobs 1`` for about S
seconds, checks every output against the reference in reference.py and
prints one JSON line: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of the traced rounds.  Run outputs and
traces go to ``.perfbench/``.  Exits 1 if an output fails its check, 2 if
the program cannot be found or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def metric(value, unit):
    return {"value": value, "unit": unit}


def list_time(rounds):
    """Time of the whole command list: the sum of each command's median over
    rounds, which sheds a slow spell that hits different commands in
    different rounds."""
    return sum(statistics.median(r["op_s"][i] for r in rounds)
               for i in range(len(rounds[0]["op_s"])))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "partition_well" / "cli.py").is_file():
        print(f"error: no partition_well sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    commands = workloads.commands(args.workload, args.seed)
    spec = {"src": str(src), "commands": commands, "seconds": args.seconds,
            "trace": args.trace,
            "trace_path": str(out_dir / f"{stem}.spans.json") if args.trace else None}
    spec_path, result_path = out_dir / f"{stem}.spec.json", out_dir / f"{stem}.result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                               str(result_path)], timeout=args.seconds + 120, check=False)
    except subprocess.TimeoutExpired:
        print("error: worker did not finish in time", file=sys.stderr)
        return 2
    if proc.returncode != 0 or not result_path.is_file():
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 2
    result = json.loads(result_path.read_text(encoding="utf-8"))
    rounds = result["rounds"]

    attempted = sum(len(r["codes"]) for r in rounds)
    failed = sum(1 for r in rounds for code in r["codes"] if code != 0)
    problems = []
    for i, argv_i in enumerate(commands):
        if rounds[0]["codes"][i] != 0:
            continue  # counted in failed; its output is not checked
        if len({r["digests"][i] for r in rounds}) != 1:
            problems.append(f"{' '.join(argv_i)}: output differs between rounds")
    ok_commands = [c for c, code in zip(commands, rounds[0]["codes"]) if code == 0]
    ok_outputs = [o for o, code in zip(result["outputs"], rounds[0]["codes"]) if code == 0]
    problems += checks.check_outputs(args.workload, ok_commands, ok_outputs,
                                     random.Random(args.seed))
    for r in rounds:
        for argv_i, code, err in zip(commands, r["codes"], r["stderr"]):
            if code != 0:
                print(f"failed ({code}): {' '.join(argv_i)}: {err.strip()}", file=sys.stderr)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    ops = [t for r in plain for t in r["op_s"]]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = {}
        for name, unit in tracing.LAYER_METRICS:
            if name == "trace.overhead_s":
                value = list_time(traced) - list_time(plain)
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = metric(value, unit)
        print(f"{args.workload} seed={args.seed}: {len(plain)} untraced and "
              f"{len(traced)} traced rounds of {len(commands)} commands; spans in "
              f"{spec['trace_path']}")
    else:
        metrics = {
            "setup_s": metric(statistics.median(result["setup_s"]), "s"),
            "wall_s": metric(list_time(plain), "s"),
            "op_p50_s": metric(statistics.median(ops), "s"),
            "rss_peak_mb": metric(result["rss_peak_mb"], "MB"),
        }
        print(f"{args.workload} seed={args.seed}: {len(plain)} rounds of "
              f"{len(commands)} commands; op_p50_s over {len(ops)} samples, "
              f"setup_s over {len(result['setup_s'])} fresh interpreters")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
