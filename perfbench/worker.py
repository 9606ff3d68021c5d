"""Runs one workload's commands through ``partition_well.cli.main`` and times them.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

Started by run.py in a process of its own, so that its peak resident memory
is that of the commands and not of the checks.  It repeats whole rounds of
the command list until the next round would overrun the time budget, times
each command, and between commands starts fresh interpreters, spread evenly
over the run, to time the CLI's set-up.  With tracing on, untraced and
traced rounds alternate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

SETUP_PROBES = 10

# launch-to-ready probe: import the CLI, build its parser, merge the
# configuration and print it, then report the monotonic clock
PROBE = (
    "import contextlib, io, time\n"
    "import partition_well.cli as cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(['show-config'])\n"
    "print(code, repr(time.monotonic()))\n"
)


def probe_setup(env) -> float:
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2 or fields[0] != "0":
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(fields[1]) - start


def run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from partition_well import cli
    import tracing

    env = {k: v for k, v in os.environ.items() if k != cli.ENV_CONFIG}
    env["PYTHONPATH"] = spec["src"]
    probe_setup(env)  # warm-up: the first start also writes bytecode caches

    commands, seconds, traced_mode = spec["commands"], spec["seconds"], spec["trace"]
    start = time.monotonic()
    deadline = start + seconds
    due = [start + seconds * (k + 0.5) / SETUP_PROBES for k in range(SETUP_PROBES)]
    setup = []
    tracer = tracing.Tracer() if traced_mode else None
    rounds, outputs, spans = [], [], []

    while True:
        traced = traced_mode and len(rounds) % 2 == 1
        began = time.monotonic()
        record = {"traced": traced, "op_s": [], "codes": [], "digests": [], "stderr": []}
        if traced:
            tracer.install(cli)
        try:
            for argv in commands:
                while due and due[0] <= time.monotonic():
                    due.pop(0)
                    setup.append(probe_setup(env))
                elapsed, code, out, err = run_command(cli, argv)
                record["op_s"].append(elapsed)
                record["codes"].append(code)
                record["digests"].append(hashlib.sha256(out.encode()).hexdigest())
                record["stderr"].append(err[-2000:])
                if not rounds:
                    outputs.append(out)
        finally:
            if traced:
                tracer.restore()
        if traced:
            round_spans = tracer.take()
            record["layers"] = tracing.layer_metrics(round_spans)
            spans.append(round_spans)
        rounds.append(record)
        took = time.monotonic() - began
        enough = len(rounds) >= (2 if traced_mode else 1)
        if enough and time.monotonic() + took > deadline:
            break
    while due:  # probes not yet due when the last round ended
        due.pop(0)
        setup.append(probe_setup(env))

    result = {
        "rounds": rounds,
        "outputs": outputs,
        "setup_s": setup,
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if spec.get("trace_path"):
        with open(spec["trace_path"], "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
