"""Command-line interface: run experiment sweeps and emit CSV/plot data.

Subcommands:

    ssem run --config FILE          run the sweep described by a config file
    ssem study --problem ID --grids 10:38:4 --p 2,4,6,8 --out FILE
    ssem plotdata --in FILE --out FILE

Exit codes: 0 on success, 1 if any row failed, 2 on configuration errors.
The config file is flat ``key = value`` text with keys problem, grids,
p_list, smoother, and out; unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import tempfile

from .experiments import (
    ConfigError,
    ConvergenceRow,
    ExperimentConfig,
    run_experiment,
)

__all__ = ["main", "parse_config", "write_csv", "emit_plot_data"]

CSV_HEADER = ("m", "n_omega", "n_gamma", "p", "l2_error", "linf_error",
              "cond", "seconds")
CONFIG_KEYS = ("problem", "grids", "p_list", "smoother", "out")


def _parse_grids(text: str):
    """Grid list: either '10,14,18' or an inclusive range '10:38:4', or
    '10:38' with step 1."""
    text = text.strip()
    try:
        if ":" in text:
            parts = [int(v) for v in text.split(":")]
            if len(parts) == 2:
                lo, hi, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                lo, hi, step = parts
            else:
                raise ValueError(text)
            if step <= 0 or hi < lo:
                raise ValueError(text)
            return tuple(range(lo, hi + 1, step))
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse grid list {text!r}; expected "
                          f"'lo:hi:step' or comma-separated integers")


def _parse_p_list(text: str):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse p list {text!r}")


def parse_config(path: str) -> ExperimentConfig:
    """Read a flat key = value config file into an ExperimentConfig.

    A key set twice is refused, naming both lines.
    """
    values, lines = {}, {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key = value', "
                        f"got {raw.strip()!r}"
                    )
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key not in CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}; "
                                      f"valid keys are {', '.join(CONFIG_KEYS)}")
                if key in values:
                    raise ConfigError(f"{path}:{lineno}: key {key!r} is set "
                                      f"again (first on line {lines[key]})")
                values[key], lines[key] = val, lineno
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    for required in ("problem", "grids", "out"):
        if required not in values:
            raise ConfigError(f"{path}: missing required key {required!r}")
    smoother = values.get("smoother", "power")
    p_list = _parse_p_list(values["p_list"]) if "p_list" in values else ()
    return ExperimentConfig(
        problem=values["problem"],
        grids=_parse_grids(values["grids"]),
        p_list=p_list,
        smoother=smoother,
        out=values["out"],
    )


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_csv(rows, path: str) -> None:
    """Write rows under the fixed header, 17 significant digits.

    Numeric columns are deterministic for identical inputs; only the
    seconds column varies between reruns.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for r in rows:
            fh.write(",".join([
                str(r.m), str(r.n_omega), str(r.n_gamma), r.p,
                _fmt(r.l2_error), _fmt(r.linf_error), _fmt(r.cond),
                _fmt(r.seconds),
            ]) + "\n")


def read_csv_rows(path: str):
    """Rows back from a results CSV (for plot-data emission)."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_HEADER:
                raise ConfigError(f"{path}: unexpected CSV header "
                                  f"{reader.fieldnames}")
            for rec in reader:
                where = f"{path} line {reader.line_num}"
                if None in rec or None in rec.values():
                    raise ConfigError(f"{where}: expected {len(CSV_HEADER)} "
                                      f"fields")
                try:
                    row = ConvergenceRow(
                        m=int(rec["m"]), n_omega=int(rec["n_omega"]),
                        n_gamma=int(rec["n_gamma"]), p=rec["p"],
                        l2_error=float(rec["l2_error"]),
                        linf_error=float(rec["linf_error"]),
                        cond=float(rec["cond"]), seconds=float(rec["seconds"]),
                    )
                except ValueError as exc:
                    raise ConfigError(f"{where}: {exc}") from None
                row.failed = math.isnan(row.l2_error)
                row.mark_floor()
                rows.append(row)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read CSV {path}: {exc}")
    return rows


def emit_plot_data(rows, path: str) -> None:
    """Columnar plot data: per-smoother error and condition series.

    For each p the error series is followed by a reference line of slope
    -p anchored at its first point, and the condition series by a
    reference of slope +p, all as (m, value) pairs in log-log-ready form.
    Blocks are separated by blank lines and titled with '#' comments.
    """
    groups = {}
    for r in rows:
        if not r.failed:
            groups.setdefault(r.p, []).append(r)
    blocks = []
    for label, grp in groups.items():
        ms = [r.m for r in grp]
        blocks.append([f"# p={label} l2_error"]
                      + [f"{r.m} {_fmt(r.l2_error)}" for r in grp])
        blocks.append([f"# p={label} cond"]
                      + [f"{r.m} {_fmt(r.cond)}" for r in grp])
        try:
            p = float(label)
        except ValueError:
            continue  # no algebraic reference for the exponential smoother
        anchor = grp[0]
        blocks.append([f"# p={label} reference m^-{label} anchored at "
                       f"m={anchor.m}"]
                      + [f"{m} {_fmt(anchor.l2_error * (m / anchor.m) ** (-p))}"
                         for m in ms])
        blocks.append([f"# p={label} reference m^{label} anchored at "
                       f"m={anchor.m}"]
                      + [f"{m} {_fmt(anchor.cond * (m / anchor.m) ** p)}"
                         for m in ms])
    with open(path, "w") as fh:
        fh.write("\n\n".join("\n".join(b) for b in blocks) + "\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _require_writable(path: str, what: str) -> None:
    """A ConfigError unless path can be written, found without creating or
    truncating it: opened to append, or else a temporary file in its dir."""
    try:
        if os.path.exists(path) or not path:
            os.close(os.open(path, os.O_WRONLY | os.O_APPEND))
        else:
            tempfile.TemporaryFile(dir=os.path.dirname(path) or ".").close()
    except OSError as exc:
        raise ConfigError(f"cannot write {what} to {path}: {exc.strerror}")


def _sweep(config: ExperimentConfig) -> int:
    """Run the sweep, write its CSV; exit code 1 if any row failed."""
    _require_writable(config.out, "CSV")
    rows = run_experiment(config)
    write_csv(rows, config.out)
    return 1 if any(r.failed for r in rows) else 0


def _cmd_run(args) -> int:
    return _sweep(parse_config(args.config))


def _cmd_study(args) -> int:
    return _sweep(ExperimentConfig(
        problem=args.problem,
        grids=_parse_grids(args.grids),
        p_list=_parse_p_list(args.p) if args.p else (),
        smoother=args.smoother,
        out=args.out,
    ))


def _cmd_plotdata(args) -> int:
    _require_writable(args.out, "plot data")
    rows = read_csv_rows(args.infile)
    emit_plot_data(rows, args.out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ssem",
        description="Smooth-selection embedding solves of built-in "
                    "benchmark problems on Chebyshev tensor grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the sweep from a config file")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_study = sub.add_parser("study", help="run a sweep from flags")
    p_study.add_argument("--problem", required=True)
    p_study.add_argument("--grids", required=True,
                         help="'lo:hi:step', 'lo:hi' (step 1) or "
                              "comma-separated sizes")
    p_study.add_argument("--p", default="",
                         help="comma-separated smoother exponents")
    p_study.add_argument("--smoother", default="power",
                         choices=("power", "exp"))
    p_study.add_argument("--out", required=True)
    p_study.set_defaults(func=_cmd_study)

    p_plot = sub.add_parser("plotdata", help="emit plot data from a CSV")
    p_plot.add_argument("--in", dest="infile", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=_cmd_plotdata)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"ssem: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
