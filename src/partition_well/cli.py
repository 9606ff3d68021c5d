"""Command-line front end: sweeps, comparisons, and scalar reports.

Commands
--------
curve        evaluate the exact net-force curve on a temperature grid
compare      tabulate named regime approximations against the exact curve
report       scalar quantities: minimum, inflections, shift, transfer, zero_t
show-config  print the effective configuration after merging all sources

Configuration precedence: built-in defaults, then a line-oriented
``key=value`` file (path in ``$PARTITION_WELL_CONFIG`` or ``--config``),
then command-line flags.  Outputs are deterministic: numbers are serialized
as decimal strings at the configured digit count, independent of locale.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from statistics import median

from mpmath import mp, mpf

from . import __version__
from .model import BOSON, FERMION, Statistics, W_MINUS, W_PLUS
from .numerics import DEFAULT_POLICY, SOLVER_FAILURES, PrecisionPolicy
from . import boson_medium, equilibrium, fermion_medium, hightemp, lowtemp, oracle

SCHEMA_VERSION = "1"
ENV_CONFIG = "PARTITION_WELL_CONFIG"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class GridSpec:
    t_min: float
    t_max: float
    points: int
    spacing: str  # log | linear

    def temperatures(self):
        """Grid points computed at working precision, each rounded once to
        the ambient precision; ``t_min`` and ``t_max`` come out exactly."""
        lo, hi, n = mpf(self.t_min), mpf(self.t_max), self.points
        if n == 1:
            return [lo]
        with mp.workdps(DEFAULT_POLICY.dps):
            if self.spacing == "log":
                step = (mp.log(hi) - mp.log(lo)) / (n - 1)
                inner = [mp.e ** (mp.log(lo) + i * step) for i in range(1, n - 1)]
            else:
                step = (hi - lo) / (n - 1)
                inner = [lo + i * step for i in range(1, n - 1)]
        ts = [lo] + [mpf(t) for t in inner] + [hi]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise UsageError("grid points coincide at the ambient precision")
        return ts


@dataclass(frozen=True)
class RunConfig:
    statistics: str = "boson"
    particles_N: int = 100
    grid: GridSpec = field(default_factory=lambda: GridSpec(0.01, 1e6, 50, "log"))
    digits: int = 17
    abs_tol: float = 1e-12
    jobs: int = 1
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.statistics not in ("boson", "fermion"):
            raise UsageError(f"unknown statistics {self.statistics!r}")
        if self.particles_N < 1:
            raise UsageError("N must be a positive integer")
        if not self.grid.t_min < self.grid.t_max:
            if self.grid.points != 1:
                raise UsageError("grid requires t_min < t_max")
        if self.grid.points < 1:
            raise UsageError("grid needs at least one point")
        if not 0 < self.grid.t_min < mp.inf or not self.grid.t_max < mp.inf:
            raise UsageError("grid temperatures must be positive and finite")
        if self.grid.spacing not in ("log", "linear"):
            raise UsageError(f"unknown spacing {self.grid.spacing!r}")
        if self.format not in ("csv", "json"):
            raise UsageError(f"unknown format {self.format!r}")
        if not 1 <= self.digits <= 30:
            raise UsageError("digits must lie in [1, 30]")
        if self.jobs < 1:
            raise UsageError("jobs must be a positive integer")
        if not 0 < self.abs_tol < mp.inf:
            raise UsageError("abs_tol must be positive and finite")

    @property
    def stat(self) -> Statistics:
        return BOSON if self.statistics == "boson" else FERMION

    @property
    def policy(self) -> PrecisionPolicy:
        return PrecisionPolicy(target_abs_error=self.abs_tol,
                               target_rel_error=self.abs_tol)

    def as_dict(self):
        return {
            "statistics": self.statistics,
            "N": self.particles_N,
            "t": f"{self.grid.t_min}:{self.grid.t_max}:{self.grid.points}:{self.grid.spacing}",
            "digits": self.digits,
            "abs_tol": self.abs_tol,
            "jobs": self.jobs,
            "out": self.out,
            "format": self.format,
        }


def _fmt(x, digits: int) -> str:
    # an mpf is rounded once, from all the digits it carries
    return mp.nstr(x if isinstance(x, mpf) else mpf(x), digits)


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise UsageError("grid spec must be t_min:t_max:points:{log|linear}")
    try:
        return GridSpec(float(parts[0]), float(parts[1]), int(parts[2]), parts[3])
    except ValueError as exc:
        raise UsageError(f"bad grid spec {text!r}: {exc}") from None


def _parse_window(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError("window must be LO:HI")
    try:
        lo, hi = mpf(parts[0]), mpf(parts[1])
    except ValueError:
        raise UsageError(f"bad window {text!r}: LO and HI must be numbers") from None
    if not 0 < lo < hi < mp.inf:
        raise UsageError(f"bad window {text!r}: need 0 < LO < HI")
    return lo, hi


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    values = {}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line without '=': {line!r}")
        key, val = line.split("=", 1)
        values[key.strip()] = val.strip()
    return values


# config key (also the command-line flag) -> (RunConfig field, file-value
# parser); the grid comes first, so that a bad grid is the error reported
_CONFIG_KEYS = {
    "t": ("grid", _parse_grid),
    "stat": ("statistics", str),
    "N": ("particles_N", int),
    "digits": ("digits", int),
    "abs_tol": ("abs_tol", float),
    "jobs": ("jobs", int),
    "out": ("out", str),
    "format": ("format", str),
}


def _merge_config(args) -> RunConfig:
    """The values supplied by flag or config file; RunConfig supplies the
    defaults of the rest."""
    file_values = {}
    path = getattr(args, "config", None) or os.environ.get(ENV_CONFIG)
    if path:
        if not os.path.exists(path):
            raise UsageError(f"config file not found: {path}")
        file_values = _read_config_file(path)
        unknown = set(file_values) - set(_CONFIG_KEYS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    supplied = {}
    for key, (name, conv) in _CONFIG_KEYS.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            # argparse has converted every flag but the grid
            supplied[name] = conv(flag_val)
        elif key in file_values:
            try:
                supplied[name] = conv(file_values[key])
            except ValueError as exc:  # a UsageError too, from the grid parser
                raise UsageError(f"config key {key}: {exc}") from None
    return RunConfig(**supplied)


# ---------------------------------------------------------------------------
# approximation registry for `compare`

def _exact_s_force(N, t, stat):
    plus = boson_medium.solve_scaled_alpha(W_PLUS, N, t, "exact_S_solve")
    minus = boson_medium.solve_scaled_alpha(W_MINUS, N, t, "exact_S_solve")
    return boson_medium.boson_medium_net_force(N, t, plus, minus)


def _quad_model(variant):
    def run(N, t, stat):
        a, center, minimum = boson_medium.quadratic_approximant(variant)
        w = mpf(t) / N
        return N * (a * (w - center) ** 2 + minimum)

    return run


APPROXIMATIONS = {
    "high_leading": (None, lambda N, t, stat: hightemp.net_force_asymptote(N, t, "leading")),
    "high_next": (None, lambda N, t, stat: hightemp.net_force_asymptote(N, t, "next", stat)),
    "boson_medium_exactS": ("boson", _exact_s_force),
    "boson_quad_naive": ("boson", _quad_model("naive")),
    "boson_quad_improved": ("boson", _quad_model("improved")),
    "fermion_quadrature": ("fermion", lambda N, t, stat: fermion_medium.fermion_medium_net_force(N, t, "quadrature")),
    "fermion_stoner": ("fermion", lambda N, t, stat: fermion_medium.fermion_medium_net_force(N, t, "stoner")),
    "fermion_tanh": ("fermion", lambda N, t, stat: fermion_medium.fermion_medium_net_force(N, t, "tanh_surrogate")),
    "boson_two_level": ("boson", lambda N, t, stat: lowtemp.boson_two_level_net_force(N, t)),
    "fermion_two_level": ("fermion", lambda N, t, stat: lowtemp.fermion_step_net_force(N, t, "two_level")),
    "fermion_semi_four": ("fermion", lambda N, t, stat: lowtemp.fermion_step_net_force(N, t, "semi_four_level")),
}


def _regime_window(stat: Statistics, N: int, t) -> str:
    scale = N if stat.is_boson else N * N
    if t < mpf("0.1") * scale:
        return "low"
    if t > 10 * scale:
        return "high"
    return "medium"


CURVE_COLUMNS = ("t", "alpha_plus", "alpha_minus", "f_plus", "f_minus",
                 "delta_f", "delta_f_error")


def _approximate(names, N: int, stat: Statistics, point) -> list:
    """The named approximations at ``point.t``, in order: each value, None
    outside the variant's domain, or, ending the list, the message of a
    numeric failure."""
    values = []
    for name in names:
        _, fn = APPROXIMATIONS[name]
        try:
            values.append(fn(N, point.t, stat))
        except SOLVER_FAILURES as exc:  # before ValueError: NoSignChange is one
            values.append(f"numeric failure in {name} at t = {_fmt(point.t, 12)}: {exc}")
            break
        except (ValueError, ZeroDivisionError):
            # outside the variant's domain: VariantDomainError, OutOfRange,
            # a tanh-surrogate pole or an invalid argument
            values.append(None)
    return values


def _sweep(cfg: RunConfig, names=None) -> list:
    """The exact curve on the configured grid, over up to ``jobs`` processes
    (no more than grid points or CPUs); with approximation ``names``,
    (point, :func:`_approximate` values) pairs computed in the same
    per-point call."""
    args = (cfg.stat, cfg.particles_N, cfg.grid.temperatures(), cfg.policy)
    each = None if names is None else \
        partial(_approximate, tuple(names), cfg.particles_N, cfg.stat)
    if cfg.jobs == 1:
        return oracle.sweep_curve(*args, each=each)
    # the fork start method launches every worker at the first submit
    workers = min(cfg.jobs, cfg.grid.points, os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return oracle.sweep_curve(*args, map=pool.map, each=each)


def _write_json(out_stream, cfg: RunConfig, command, **body):
    """The JSON document of a command: the envelope (schema and program
    versions, the command unless it is None, the merged config), then
    ``body``."""
    doc = {"schema_version": SCHEMA_VERSION, "version": __version__}
    if command is not None:
        doc["command"] = command
    doc["config"] = cfg.as_dict()
    json.dump({**doc, **body}, out_stream, indent=2)
    out_stream.write("\n")


def _run_curve(cfg: RunConfig, out_stream) -> int:
    rows = [tuple(_fmt(getattr(point, col), cfg.digits) for col in CURVE_COLUMNS)
            for point in _sweep(cfg)]
    if cfg.format == "csv":
        out_stream.write(",".join(CURVE_COLUMNS) + "\n")
        for row in rows:
            out_stream.write(",".join(row) + "\n")
    else:
        _write_json(out_stream, cfg, "curve",
                    rows=[dict(zip(CURVE_COLUMNS, row)) for row in rows])
    return EXIT_OK


def _run_compare(cfg: RunConfig, names, out_stream) -> int:
    for name in names:
        if name not in APPROXIMATIONS:
            raise UsageError(
                f"unknown approximation {name!r}; valid names: "
                + ", ".join(sorted(APPROXIMATIONS)))
        required, _ = APPROXIMATIONS[name]
        if required is not None and required != cfg.statistics:
            raise UsageError(f"approximation {name!r} requires --stat {required}")
    rows = []
    stats: dict = {}
    for point, values in _sweep(cfg, names):
        t, exact = point.t, point.delta_f
        for name, approx in zip(names, values):
            if isinstance(approx, str):
                print(approx, file=sys.stderr)
                return EXIT_NUMERIC
            if approx is None:
                rows.append((t, exact, name, None, None, None))
                continue
            abs_err = abs(approx - exact)
            rel_err = abs_err / abs(exact)
            window = _regime_window(cfg.stat, cfg.particles_N, t)
            stats.setdefault((name, window), []).append(rel_err)
            rows.append((t, exact, name, approx, abs_err, rel_err))
    summary = []
    for (name, window), errs in sorted(stats.items()):
        summary.append({"approximation": name, "window": window,
                        "points": len(errs),
                        "max_rel_error": _fmt(max(errs), cfg.digits),
                        "median_rel_error": _fmt(median(errs), cfg.digits)})
    d = cfg.digits
    if cfg.format == "csv":
        out_stream.write("t,oracle_delta_f,approximation,value,abs_error,rel_error\n")
        for t, exact, name, approx, abs_err, rel_err in rows:
            cells = [_fmt(t, d), _fmt(exact, d), name]
            cells += ["", "", ""] if approx is None else \
                [_fmt(approx, d), _fmt(abs_err, d), _fmt(rel_err, d)]
            out_stream.write(",".join(cells) + "\n")
        for entry in summary:
            out_stream.write("# summary " + json.dumps(entry, sort_keys=True) + "\n")
    else:
        _write_json(out_stream, cfg, "compare", approximations=list(names), rows=[
            {"t": _fmt(t, d), "oracle_delta_f": _fmt(exact, d),
             "approximation": name,
             "value": None if approx is None else _fmt(approx, d),
             "abs_error": None if abs_err is None else _fmt(abs_err, d),
             "rel_error": None if rel_err is None else _fmt(rel_err, d)}
            for t, exact, name, approx, abs_err, rel_err in rows
        ], summary=summary)
    return EXIT_OK


REPORT_KINDS = ("minimum", "inflections", "equilibrium_shift", "transfer", "zero_t")


def _run_report(cfg: RunConfig, kind: str, t_value, window, out_stream) -> int:
    stat, N = cfg.stat, cfg.particles_N
    policy = cfg.policy
    d = cfg.digits
    scale = N if stat.is_boson else N * N
    record: dict = {"kind": kind, "statistics": cfg.statistics, "N": N}
    if kind == "zero_t":
        zt = lowtemp.zero_temperature_forces(stat, N)
        record.update(f_plus=str(zt.f_plus), f_minus=str(zt.f_minus),
                      delta_f=str(zt.delta_f), method="exact_rational")
    elif kind == "minimum":
        t_min, df_min, t_err = oracle.locate_minimum(stat, N, policy, window)
        record.update(t_min=_fmt(t_min, d), t_min_error=_fmt(t_err, d),
                      delta_f_min=_fmt(df_min, d),
                      t_min_over_scale=_fmt(t_min / scale, d),
                      delta_f_min_over_scale=_fmt(df_min / scale, d),
                      method="derivative_root_log_t",
                      t_relative_precision="1e-8")
    elif kind == "inflections":
        if stat.is_boson:
            raise UsageError("inflections require --stat fermion")
        found = oracle.locate_inflections(stat, N, policy, window)
        record.update(t_begin=_fmt(found.t_begin, d),
                      t_begin_error=_fmt(found.t_begin_error, d),
                      t_end=_fmt(found.t_end, d), t_end_error=_fmt(found.t_end_error, d),
                      t_begin_over_N=_fmt(found.t_begin / N, d),
                      t_end_over_N=_fmt(found.t_end / N, d),
                      method="curvature_sign_root_log_t")
    elif kind == "equilibrium_shift":
        if t_value is None:
            res = equilibrium.shift_zero_temperature(stat, N)
        elif 0 < t_value < mp.inf:
            res = equilibrium.shift_finite_temperature(stat, N, t_value, policy)
        else:
            raise UsageError("--t-value must be a positive finite temperature")
        record.update(t=_fmt(res.t, d), xi=_fmt(res.xi, d),
                      r_ratio=_fmt(res.r_ratio, d), method=res.method)
    elif kind == "transfer":
        split = equilibrium.transfer_zero_temperature(stat, N)
        np_r, nm_r = split.rounded()
        record.update(n_plus=_fmt(split.n_plus, d), n_minus=_fmt(split.n_minus, d),
                      n_plus_rounded=np_r, n_minus_rounded=nm_r,
                      method="zero_t_force_balance")
    else:  # pragma: no cover - guarded by argparse choices
        raise UsageError(f"unknown report kind {kind!r}")
    if cfg.format == "csv":
        out_stream.write("key,value\n")
        for key, value in record.items():
            out_stream.write(f"{key},{value}\n")
    else:
        _write_json(out_stream, cfg, "report", report=record)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partition-well",
        description="Net quantum-statistical force on a Dirichlet/Neumann "
                    "partition in a 1D well.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--stat", choices=("boson", "fermion"), default=None)
        p.add_argument("--N", type=int, default=None, metavar="INT")
        p.add_argument("--t", type=str, default=None,
                       metavar="MIN:MAX:POINTS:{log|linear}")
        p.add_argument("--digits", type=int, default=None)
        p.add_argument("--abs-tol", dest="abs_tol", type=float, default=None)
        p.add_argument("--jobs", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--config", type=str, default=None,
                       help=f"key=value config file (default: ${ENV_CONFIG})")

    add_common(sub.add_parser("curve", help="exact net-force curve on a grid"))

    p_cmp = sub.add_parser("compare", help="approximations vs the exact curve")
    add_common(p_cmp)
    p_cmp.add_argument("--approx", action="append", required=True,
                       metavar="NAME[,NAME...]",
                       help="approximation names; repeatable or comma separated")

    p_rep = sub.add_parser("report", help="scalar reports")
    add_common(p_rep)
    p_rep.add_argument("--kind", choices=REPORT_KINDS, required=True)
    p_rep.add_argument("--t-value", dest="t_value", type=float, default=None,
                       help="temperature for equilibrium_shift "
                            "(omit for the zero-temperature closed form)")
    p_rep.add_argument("--window", type=str, default=None, metavar="LO:HI",
                       help="search window for minimum/inflections")

    add_common(sub.add_parser("show-config", help="print the merged configuration"))
    return parser


def _open_out(cfg: RunConfig):
    """A new file beside ``--out`` for the output, or None; :func:`_close_out`
    moves it over ``--out`` only when the command succeeds, so that a failed
    run leaves an existing file as it was."""
    if not cfg.out:
        return None
    try:
        if os.path.isdir(cfg.out) or (os.path.exists(cfg.out) and not os.access(cfg.out, os.W_OK)):
            raise PermissionError("not a writable file")
        return open(f"{os.path.realpath(cfg.out)}.{os.getpid()}.tmp", "x",
                    encoding="utf-8", newline="\n")
    except OSError as exc:
        raise UsageError(f"cannot open output file {cfg.out}: {exc}") from None


def _close_out(handle, out: str, keep: bool):
    handle.close()
    try:
        if keep:
            os.replace(handle.name, os.path.realpath(out))
    except OSError as exc:
        raise UsageError(f"cannot write output file {out}: {exc}") from None
    finally:
        if os.path.exists(handle.name):
            os.remove(handle.name)


def _run(args, cfg: RunConfig, stream) -> int:
    if args.command == "curve":
        return _run_curve(cfg, stream)
    if args.command == "compare":
        names = []
        for part in args.approx:
            names.extend(x for x in part.split(",") if x)
        return _run_compare(cfg, names, stream)
    if args.command == "report":
        if args.window is not None and args.kind not in ("minimum", "inflections"):
            raise UsageError("--window applies only to --kind minimum or inflections")
        if args.t_value is not None and args.kind != "equilibrium_shift":
            raise UsageError("--t-value applies only to --kind equilibrium_shift")
        window = None if args.window is None else _parse_window(args.window)
        return _run_report(cfg, args.kind, args.t_value, window, stream)
    raise UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        cfg = _merge_config(args)
        if args.command == "show-config":
            _write_json(sys.stdout, cfg, None)
            return EXIT_OK
        handle = _open_out(cfg)
        code = None
        try:
            code = _run(args, cfg, handle or sys.stdout)
        finally:
            if handle:
                _close_out(handle, cfg.out, code == EXIT_OK)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except oracle.SweepFailure as exc:
        for i, t, msg in exc.failures:
            print(f"numeric failure at grid point {i} (t = {mp.nstr(t, 25)}): {msg}",
                  file=sys.stderr)
        return EXIT_NUMERIC
    except (oracle.BracketFailure, oracle.StepNotFound,
            oracle.NotUnimodal) + SOLVER_FAILURES as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
