"""Seeded command lists of the three workloads.

Each workload is a fixed list of CLI commands.  The seed shifts every grid,
minimum-search window and temperature by a factor of at most 10^0.01 (2.3%),
so different seeds give different inputs of the same size, cost and regime
make-up: every point stays inside the regime window it was chosen for.  The
inflection search keeps its default window (see ``commands``).
"""

from __future__ import annotations

import random

WORKLOADS = ("curve", "search", "compare")
DEFAULT_SEED = 1

# (stat, N) of the curve sweeps; grids run from 0.01 (deep low regime) to
# 3e4 (two or more decades into the high regime for every N here)
CURVE_CASES = (("boson", 8), ("boson", 24), ("fermion", 4), ("fermion", 12))
CURVE_GRID = (0.01, 3e4, 8)

# compare: (stat, N, t_lo, t_hi, points, approximations).  Windows stay off
# the regime boundaries (0.1 and 10 times N or N^2) and, for the tanh
# surrogate, inside its domain (t below about 140 at N = 10).  The
# quadrature route costs seconds per point, so it runs one point per
# command (medium, medium, high), and the boson grid is sized to cost about
# as much: commands of equal cost keep op_p50_s a median of many samples.
FERMION_MEDIUM = "fermion_quadrature,fermion_tanh,fermion_semi_four,high_leading,high_next"
COMPARE_CASES = (
    ("fermion", 10, 25.0, 25.0, 1, FERMION_MEDIUM),
    ("fermion", 10, 100.0, 100.0, 1, FERMION_MEDIUM),
    ("fermion", 10, 2500.0, 2500.0, 1, "fermion_quadrature,high_leading,high_next"),
    ("boson", 10, 2.0, 1000.0, 6,
     "boson_medium_exactS,boson_quad_naive,boson_quad_improved,"
     "boson_two_level,high_leading,high_next"),
)


def regime_window(stat: str, N: int, t) -> str:
    """The CLI's regime rule: low below 0.1 scale, high above 10 scale,
    with scale N for bosons and N^2 for fermions."""
    scale = N if stat == "boson" else N * N
    if 10 * t < scale:
        return "low"
    if t > 10 * scale:
        return "high"
    return "medium"


def _num(x: float) -> str:
    return f"{x:.6g}"


def commands(workload: str, seed: int) -> list:
    """argv lists for ``partition_well.cli.main``; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(seed)

    def shift() -> float:
        return 10 ** (0.01 * rng.random())

    common = ["--format", "json", "--jobs", "1"]
    out = []
    if workload == "curve":
        lo, hi, points = CURVE_GRID
        for stat, N in CURVE_CASES:
            s = shift()
            out.append(["curve", "--stat", stat, "--N", str(N),
                        "--t", f"{_num(lo * s)}:{_num(hi * s)}:{points}:log"] + common)
    elif workload == "search":
        s = [shift() for _ in range(3)]
        out.append(["report", "--kind", "minimum", "--stat", "boson", "--N", "6",
                    "--window", f"{_num(0.6 * s[0])}:{_num(12 * s[0])}"] + common)
        out.append(["report", "--kind", "minimum", "--stat", "fermion", "--N", "3",
                    "--window", f"{_num(0.45 * s[1])}:{_num(18 * s[1])}"] + common)
        # the default window [0.05 N, N]: shifted windows make the refinement
        # fail now and then (StepNotFound), so this input stays fixed
        out.append(["report", "--kind", "inflections", "--stat", "fermion", "--N", "3"]
                   + common)
        out.append(["report", "--kind", "equilibrium_shift", "--stat", "boson",
                    "--N", "5", "--t-value", _num(3 * s[2])] + common)
    else:
        for stat, N, lo, hi, points, approx in COMPARE_CASES:
            s = shift()
            out.append(["compare", "--stat", stat, "--N", str(N),
                        "--t", f"{_num(lo * s)}:{_num(hi * s)}:{points}:log",
                        "--approx", approx] + common)
    return out
