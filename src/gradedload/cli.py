"""Command-line front end.

Maps flags and config-file keys onto a :class:`~gradedload.driver.RunConfig`
and owns all output: single-case runs print a text report; sweeps emit CSV
to stdout or write it to --out.
Exit codes: 0 success, 2 configuration error, 3 numerical gate violation.
Errors are printed to stderr as ``ErrorName: message`` so scripts can
match on the class name.
"""

from __future__ import annotations

import argparse
import sys

from .driver import RunConfig, csv_text, format_report, run_case, run_sweep
from .errors import ConfigError, GradedLoadError
from .params import MaterialConfig

__all__ = ["main", "build_parser", "parse_config_file"]

# the field names of the MaterialConfig dataclass, in order
_MATERIAL_KEYS = MaterialConfig.__match_args__
_LIST_KEYS = ("xi", "y")
_INT_KEYS = ("n",)
_STR_KEYS = ("sweep", "sweep_range", "out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedload",
        description=(
            "Displacements and stresses in a power-law graded elastic "
            "half-plane under a subsonic moving point load."
        ),
    )
    parser.add_argument("--config", metavar="FILE",
                        help="key=value file; command-line flags override it")
    parser.add_argument("--nu", type=float, help="grading exponent, in (0, 1)")
    parser.add_argument("--nu-p", type=float, dest="nu_p",
                        help="Poisson ratio, in [0, 0.5)")
    parser.add_argument("--speed-ratio", type=float, dest="speed_ratio",
                        help="load speed over shear wave speed, in (0, 1)")
    parser.add_argument("--h1", type=float, help="tangential load amplitude over mu0")
    parser.add_argument("--h2", type=float, help="normal load amplitude over mu0")
    parser.add_argument("--xi", type=float, action="append",
                        help="query abscissa (repeatable)")
    parser.add_argument("--xi0", type=float, help="load application point")
    parser.add_argument("--y", type=float, action="append",
                        help="query depth (repeatable, pairs with --xi)")
    parser.add_argument("--n", type=int, help="collocation points per unknown")
    parser.add_argument("--sweep", choices=("nu", "speed"),
                        help="sweep axis instead of a single case")
    parser.add_argument("--sweep-range", dest="sweep_range", metavar="A:B:STEP",
                        help="inclusive sweep grid")
    parser.add_argument("--out", metavar="PATH", help="write sweep CSV here")
    return parser


def parse_config_file(path: str) -> dict:
    """Read a key=value file (one pair per line, # comments allowed)."""
    values: dict = {}
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        try:
            if key in _MATERIAL_KEYS:
                values[key] = float(value)
            elif key in _INT_KEYS:
                values[key] = int(value)
            elif key in _LIST_KEYS:
                values[key] = [float(part) for part in value.split(",")]
            elif key in _STR_KEYS:
                values[key] = value
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def _parse_sweep_range(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"sweep range must be A:B:STEP, got {text!r}")
    try:
        return tuple(float(part) for part in parts)
    except ValueError as exc:
        raise ConfigError(f"sweep range must be numeric, got {text!r}") from exc


def _merge(args: argparse.Namespace) -> dict:
    values = parse_config_file(args.config) if args.config else {}
    for key in _MATERIAL_KEYS + _LIST_KEYS + _INT_KEYS + _STR_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    return values


def _build_run_config(values: dict) -> RunConfig:
    # keys left unset keep the defaults of MaterialConfig and RunConfig
    material = MaterialConfig(**{k: values[k] for k in _MATERIAL_KEYS if k in values})
    xi_default, y_default = RunConfig.points[0]
    xi_list = values.get("xi", [xi_default])
    y_list = values.get("y", [y_default])
    if len(y_list) == 1 and len(xi_list) > 1:
        y_list = y_list * len(xi_list)
    if len(xi_list) == 1 and len(y_list) > 1:
        xi_list = xi_list * len(y_list)
    if len(xi_list) != len(y_list):
        raise ConfigError(
            f"--xi and --y counts differ: {len(xi_list)} vs {len(y_list)}"
        )
    sweep_range = values.get("sweep_range")
    return RunConfig(
        material=material,
        n=values.get("n", RunConfig.n),
        points=tuple(zip(xi_list, y_list)),
        sweep=values.get("sweep"),
        sweep_range=None if sweep_range is None else _parse_sweep_range(sweep_range),
    )


def _write_csv(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write sweep CSV {path}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        values = _merge(args)
        rc = _build_run_config(values)
        if rc.sweep is not None:
            header, rows = run_sweep(rc)
            out = values.get("out")
            if out is None:
                sys.stdout.write(csv_text(header, rows))
            else:
                _write_csv(out, csv_text(header, rows))
                print(f"wrote {len(rows)} rows to {out}")
            failed = sum(1 for row in rows if row[-1])
            if rows and failed == len(rows):
                print("every sweep value failed a numerical gate", file=sys.stderr)
                return 3
            return 0
        report = run_case(rc)
        print(format_report(report))
        return 0
    except ConfigError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except GradedLoadError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
