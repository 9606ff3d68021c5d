"""Checks of the program's outputs against the reference and against properties
the method must have.

The CLI prints every number as a decimal string of 17 significant digits,
but the oracle forms delta_f in binary64 and the CLI converts each number to
binary64 before printing, so each printed operand carries half a binary64
unit plus half a unit in its 17th digit of rounding; every comparison allows
that on top of the bound the method itself states.  Each check returns a
list of problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext

import reference as ref
from workloads import regime_window

DIGITS = 17
ABS_TOL = Decimal("1e-12")  # the CLI default --abs-tol the workloads run at
# compare prints no error column; the oracle's certified delta_f_error at the
# default tolerance stays below 4e-14 * t on the curve workload, so
# abs_tol * (1 + t) leaves a margin of 25 for the oracle column
MIN_STEP = Decimal("2e-3")  # relative step around t_min (refined to 1e-3 in log t)
INFLECTION_STEP = Decimal("2e-3")  # times N: inflections are refined to 1e-3 N
XI_STEP = Decimal("1e-9")  # the shift is solved to 1e-12


BINARY64_HALF_UNIT = Decimal(2) ** -53


def half_unit(s) -> Decimal:
    """Rounding bound of a number as the CLI prints it: binary64, then DIGITS digits."""
    d = Decimal(s)
    if d == 0:
        return Decimal(0)
    return abs(d) * BINARY64_HALF_UNIT + Decimal(5).scaleb(d.adjusted() - DIGITS)


def option(argv, name):
    return argv[argv.index(name) + 1]


def _oracle_bound(t: Decimal, value: Decimal) -> Decimal:
    """Allowed |reference - printed oracle value| where no error is printed:
    abs_tol (1 + t), the value's rounding and that of the printed t (the log
    slope of delta_f stays below 2)."""
    return ABS_TOL * (1 + t) + half_unit(value) + 2 * abs(value) * half_unit(t) / t


def check_curve(argv, doc, rng) -> list:
    problems = []
    stat, N = option(argv, "--stat"), int(option(argv, "--N"))
    points = int(option(argv, "--t").split(":")[2])
    rows = doc["rows"]
    if len(rows) != points:
        return [f"{stat} N={N}: {len(rows)} rows for {points} grid points"]
    with localcontext() as ctx:
        ctx.prec = ref.PREC
        last = Decimal(0)
        for row in rows:
            t, fp, fm, df, err = (Decimal(row[k]) for k in
                                  ("t", "f_plus", "f_minus", "delta_f", "delta_f_error"))
            where = f"{stat} N={N} t={row['t']}"
            if not t > last:
                problems.append(f"{where}: grid not increasing")
            last = t
            if abs(df - (fm - fp)) > half_unit(df) + half_unit(fm) + half_unit(fp):
                problems.append(f"{where}: delta_f != f_minus - f_plus")
            if not df > 0:
                problems.append(f"{where}: delta_f not positive")
            if not err >= 0:
                problems.append(f"{where}: negative delta_f_error")
        row = rng.choice(rows)
        t, df, err = (Decimal(row[k]) for k in ("t", "delta_f", "delta_f_error"))
        exact = ref.net_force(stat, N, row["t"])
        bound = err + half_unit(err) + half_unit(df) + 2 * df * half_unit(t) / t
        if abs(exact - df) > bound:
            problems.append(f"{stat} N={N} t={row['t']}: reference {exact:.20g} "
                            f"outside delta_f {row['delta_f']} +- {row['delta_f_error']}")
    return problems


# approximations recomputed here, with the relative agreement required: the
# closed forms are exact up to the printed t; the quadrature route is solved
# by the program to abs_tol = 1e-12 and by the reference in binary64 (about
# 1e-13)
RECOMPUTED = {
    "high_leading": (lambda stat, N, t: ref.high_leading(N, t), Decimal("1e-15")),
    "high_next": (ref.high_next, Decimal("1e-15")),
    "fermion_quadrature": (lambda stat, N, t: ref.fermion_medium_force(N, t),
                           Decimal("1e-10")),
}


def check_compare(argv, doc, rng) -> list:
    problems = []
    stat, N = option(argv, "--stat"), int(option(argv, "--N"))
    points = int(option(argv, "--t").split(":")[2])
    names = doc["approximations"]
    rows = doc["rows"]
    if len(rows) != points * len(names):
        return [f"compare {stat} N={N}: {len(rows)} rows for {points} x {len(names)}"]
    oracle = {}
    windows = {}
    with localcontext() as ctx:
        ctx.prec = ref.PREC
        for row in rows:
            where = f"compare {stat} N={N} t={row['t']} {row['approximation']}"
            oracle.setdefault(row["t"], row["oracle_delta_f"])
            if oracle[row["t"]] != row["oracle_delta_f"]:
                problems.append(f"{where}: oracle value differs between rows")
            if row["value"] is None:
                problems.append(f"{where}: blank cell")
                continue
            t, o, v, a, r = (Decimal(row[k]) for k in
                             ("t", "oracle_delta_f", "value", "abs_error", "rel_error"))
            if abs(a - abs(v - o)) > half_unit(a) + half_unit(v) + half_unit(o):
                problems.append(f"{where}: abs_error != |value - oracle|")
            if abs(r - a / abs(o)) > half_unit(r) + (half_unit(a) + r * half_unit(o)) / abs(o):
                problems.append(f"{where}: rel_error != abs_error / |oracle|")
            windows.setdefault((row["approximation"], regime_window(stat, N, t)), []).append(r)
            if row["approximation"] in RECOMPUTED:
                recompute, rel = RECOMPUTED[row["approximation"]]
                expected = recompute(stat, N, row["t"])
                # rounding of the printed t moves each form by at most
                # d/dt of the leading law, (N/2) sqrt(t/pi) / (2 t), times it
                slack = half_unit(v) + ref.high_leading(N, t) * half_unit(t) / t
                if abs(v - expected) > rel * abs(expected) + slack:
                    problems.append(f"{where}: value {row['value']} != recomputed {expected:.20g}")
        t_str = rng.choice(sorted(oracle, key=Decimal))
        t, o = Decimal(t_str), Decimal(oracle[t_str])
        exact = ref.net_force(stat, N, t_str)
        if abs(exact - o) > _oracle_bound(t, o):
            problems.append(f"compare {stat} N={N} t={t_str}: oracle {oracle[t_str]} "
                            f"!= reference {exact:.20g}")
        for entry in doc["summary"]:
            errs = windows.get((entry["approximation"], entry["window"]), [])
            if entry["points"] != len(errs) or \
                    Decimal(entry["max_rel_error"]) != max(errs, default=None):
                problems.append(f"compare {stat} N={N}: summary {entry} disagrees with rows")
        if len(doc["summary"]) != len(windows):
            problems.append(f"compare {stat} N={N}: summary misses a window")
    return problems


def check_report(argv, doc) -> list:
    rep = doc["report"]
    stat, N = option(argv, "--stat"), int(option(argv, "--N"))
    kind = rep["kind"]
    where = f"report {kind} {stat} N={N}"
    problems = []
    with localcontext() as ctx:
        ctx.prec = ref.PREC
        if kind == "minimum":
            lo, hi = (Decimal(x) for x in option(argv, "--window").split(":"))
            t, df = Decimal(rep["t_min"]), Decimal(rep["delta_f_min"])
            if not lo < t < hi:
                problems.append(f"{where}: t_min {t} outside the window")
            at = ref.net_force(stat, N, t)
            if abs(at - df) > _oracle_bound(t, df):
                problems.append(f"{where}: delta_f_min {df} != reference {at:.20g}")
            for side in (1 - MIN_STEP, 1 + MIN_STEP):
                if not ref.net_force(stat, N, t * side) > at:
                    problems.append(f"{where}: reference delta_f at {side} t_min is "
                                    "not above its value at t_min")
        elif kind == "inflections":
            t_begin, t_end = Decimal(rep["t_begin"]), Decimal(rep["t_end"])
            stencil = Decimal("1e-3") * N
            step = INFLECTION_STEP * N

            def d2(t):
                return ref.net_force(stat, N, t - stencil) - 2 * ref.net_force(stat, N, t) \
                    + ref.net_force(stat, N, t + stencil)

            if not t_begin + 2 * step < t_end:
                problems.append(f"{where}: inflections out of order")
            if not d2(t_begin - step) < 0 < d2(t_begin + step):
                problems.append(f"{where}: reference curvature does not turn convex "
                                f"across t_begin = {t_begin}")
            if not d2(t_end - step) > 0 > d2(t_end + step):
                problems.append(f"{where}: reference curvature does not turn concave "
                                f"across t_end = {t_end}")
        elif kind == "equilibrium_shift":
            t, xi, r = Decimal(rep["t"]), Decimal(rep["xi"]), Decimal(rep["r_ratio"])
            if abs(t - Decimal(option(argv, "--t-value"))) > half_unit(t) \
                    or rep["method"] != "finite_t_solve":
                problems.append(f"{where}: not the finite-temperature solve at the given t")
            elif not 0 < xi < 1:
                problems.append(f"{where}: xi {xi} outside (0, 1)")
            else:
                if not ref.shift_balance(stat, N, t, xi - XI_STEP) > 0 > \
                        ref.shift_balance(stat, N, t, xi + XI_STEP):
                    problems.append(f"{where}: reference force balance does not change "
                                    f"sign across xi = {xi}")
                if abs(r - (1 + xi) / (1 - xi)) > Decimal("1e-9") * r:
                    problems.append(f"{where}: r_ratio != (1 + xi)/(1 - xi)")
        else:
            problems.append(f"{where}: unexpected report kind")
    return problems


def check_outputs(workload, commands, outputs, rng) -> list:
    """Problems found in one output per command (empty list: all correct)."""
    problems = []
    for argv, text in zip(commands, outputs):
        try:
            doc = json.loads(text)
        except ValueError:
            problems.append(f"{' '.join(argv)}: output is not JSON")
            continue
        if workload == "curve":
            problems += check_curve(argv, doc, rng)
        elif workload == "compare":
            problems += check_compare(argv, doc, rng)
        else:
            problems += check_report(argv, doc)
    return problems
