"""The benchmark's tracer still finds every layer boundary it wraps.

``perfbench/tracing.py`` replaces module attributes of ``partition_well``
(``oracle.net_force``, ``fermion_medium.quad_semi_infinite``, ...) with
timing wrappers; a renamed or deleted attribute makes it fail at install
time, and the benchmark with it.
"""

import importlib
import sys
from pathlib import Path

from partition_well import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores():
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = tracing.Tracer()
    try:
        tracer.install(cli)  # AttributeError if a wrapped attribute is gone
        wrapped = list(tracer._saved)
        assert wrapped
        for module, attr, original in wrapped:
            assert getattr(module, attr) is not original
    finally:
        tracer.restore()
    for module, attr, original in wrapped:
        assert getattr(module, attr) is original
