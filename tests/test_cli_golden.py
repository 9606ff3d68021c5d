"""The CLI output of the benchmark's seed-1 commands, byte for byte.

Each command's stdout, stderr and exit code are compared with its file
under ``tests/golden/``.  A change that moves printed digits on purpose
rewrites the files in its own diff:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import pathlib

import pytest
from mpmath import mp

from partition_well import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
_JSON = ["--format", "json", "--jobs", "1"]
_FERMION_MEDIUM = "fermion_quadrature,fermion_tanh,fermion_semi_four,high_leading,high_next"
COMMANDS = {
    "curve-boson-8": ["curve", "--stat", "boson", "--N", "8", "--t", "0.010031:30093:8:log"],
    "curve-boson-24": ["curve", "--stat", "boson", "--N", "24", "--t", "0.010197:30591.1:8:log"],
    "curve-fermion-4": ["curve", "--stat", "fermion", "--N", "4",
                        "--t", "0.0101774:30532.3:8:log"],
    "curve-fermion-12": ["curve", "--stat", "fermion", "--N", "12",
                         "--t", "0.0100589:30176.7:8:log"],
    "minimum-boson-6": ["report", "--kind", "minimum", "--stat", "boson", "--N", "6",
                        "--window", "0.601859:12.0372"],
    "minimum-fermion-3": ["report", "--kind", "minimum", "--stat", "fermion", "--N", "3",
                          "--window", "0.458867:18.3547"],
    "inflections-fermion-3": ["report", "--kind", "inflections", "--stat", "fermion",
                              "--N", "3"],
    "shift-boson-5": ["report", "--kind", "equilibrium_shift", "--stat", "boson", "--N", "5",
                      "--t-value", "3.05323"],
    "compare-fermion-25": ["compare", "--stat", "fermion", "--N", "10",
                           "--t", "25.0775:25.0775:1:log", "--approx", _FERMION_MEDIUM],
    "compare-fermion-102": ["compare", "--stat", "fermion", "--N", "10",
                            "--t", "101.97:101.97:1:log", "--approx", _FERMION_MEDIUM],
    "compare-fermion-2544": ["compare", "--stat", "fermion", "--N", "10",
                             "--t", "2544.36:2544.36:1:log",
                             "--approx", "fermion_quadrature,high_leading,high_next"],
    "compare-boson": ["compare", "--stat", "boson", "--N", "10", "--t", "2.01178:1005.89:6:log",
                      "--approx", "boson_medium_exactS,boson_quad_naive,boson_quad_improved,"
                                  "boson_two_level,high_leading,high_next"],
}


def transcript(argv) -> str:
    """Exit code, stdout and stderr of one ``cli.main`` call, as one text."""
    out, err = io.StringIO(), io.StringIO()
    # the grid is built at the ambient precision: that of a fresh process
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mp.workdps(15):
        code = cli.main(argv + _JSON)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("name", COMMANDS)
def test_output_matches_golden(name, monkeypatch):
    monkeypatch.delenv("PARTITION_WELL_CONFIG", raising=False)
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert transcript(COMMANDS[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.txt").write_text(transcript(argv))
