#!/usr/bin/env python3
"""Check that two gradedload source trees give the same outputs, bit for bit.

Run from the repository root::

    python3 tools/same_outputs.py OTHER_SRC

``OTHER_SRC`` is a directory that holds a ``gradedload`` package, such as
the ``src`` of another checkout.  The script imports the package from the
``src`` of the checkout it sits in and then from ``OTHER_SRC``, in one
process with one BLAS thread, and runs both on the same seeded study
configs at n = 100, on a smaller seeded set of slow loads with V/c_s
log-uniform in [1e-12, 1e-3], on a small seeded set of study configs
at the odd n = 75, and on a fixed set of edge configs at n = 100: loads
of +-1e308, and nu, nu_p and V/c_s at or near the ends of their ranges.
Per config it records

- the ``solve_case`` outputs by quantity class: the derived exponents
  eps, l and delta1+- (class "params"), the density stacks ``f1``/``f2``,
  the solve residuals, Delta, C+- and each expansion coefficient of both
  sides of the load, or the class and message of the error it raised;
- per query point, each field of ``evaluate_point``'s result, or the
  class and message of the error it raised.

It records the same ``solve_case`` outputs for the five configs of
``perfbench/reference.json`` at n = 400, the size at which the benchmark's
``solve-n400`` workload reads its solve residuals.

Values are compared as raw bytes, so equal means equal to the bit.  It
prints how many records differ, and how many of those belong to the slow
loads, to the odd-n set, to the edge configs and to the reference configs
at n = 400.  When any differ, it prints per quantity class (the derived
exponents, the densities, the residuals, Delta, C+-, each coefficient,
each point field) the largest relative difference,
max |ours - theirs| over max |theirs|, and the config where it occurs.  It exits 1 if any record
differs, 2 if ``OTHER_SRC`` holds no package.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported, so both trees factor alike
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEED = 0
CONFIGS = 1024
N = 100
# the benchmark's reference configs, solved at the size of its solve-n400
REFERENCE = ROOT / "perfbench" / "reference.json"
N_REFERENCE = 400
# study domain of perfbench's study-n100: nu, V/c_s, nu_p
LOW = (0.05, 0.05, 0.0)
HIGH = (0.95, 0.95, 0.45)
# slow loads, the study's nu and nu_p with log10(V/c_s) uniform in [-12, -3]
SLOW_SEED = 1
SLOW_CONFIGS = 64
SLOW_LOW = (0.05, -12.0, 0.0)
SLOW_HIGH = (0.95, -3.0, 0.45)
# the study domain at an odd n, an A1 pin size: at n = 100 and 400 the
# layout of the Schur complement is bit-neutral, at an odd n it need not be
ODD_SEED = 2
ODD_CONFIGS = 64
N_ODD = 75
# the edges of the domain, each a MaterialConfig's arguments: loads at the
# float limit, nu -> 0 and 1, nu_p -> 0.5, V/c_s -> 1, and a V/c_s in the
# band just above the speed floor where coeff_b's denominator overflows
EDGE = (
    dict(h1=1e308, h2=1e308), dict(h1=-1e308, h2=-1e308), dict(h1=1e308, h2=0.0),
    dict(nu=1e-300), dict(nu=1e-12), dict(nu=1.0 - 2.0**-53),
    dict(nu_p=0.4999), dict(nu_p=0.5 - 2.0**-54),
    dict(speed_ratio=0.999), dict(speed_ratio=1.0 - 2.0**-53),
    dict(speed_ratio=1.7e-154, nu_p=0.0),
)
# perfbench's MIX: surface, near, gap and deep points on both sides of xi0 = 0
POINTS = (
    (-1.0, 0.0), (1.0, 0.0), (-0.25, 0.0), (2.0, 0.0),
    (-1.0, 0.3), (0.5, 0.25), (-2.0, 1.0), (1.5, 0.9),
    (-1.0, 1.5), (0.5, 0.75),
    (-0.5, 2.0), (2.0, 5.0), (-1.0, 3.0), (0.25, 1.0), (1.0, 2.0), (-2.0, 8.0),
)


def _import(src: Path):
    """The ``gradedload`` package of ``src``, replacing any imported one."""
    for name in [m for m in sys.modules if m == "gradedload" or m.startswith("gradedload.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        import gradedload
    finally:
        sys.path.remove(str(src))
    if src.resolve() not in Path(gradedload.__file__).resolve().parents:
        raise SystemExit(f"imported gradedload from {gradedload.__file__}, not from {src}")
    return gradedload


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _solve(pkg, material, n: int):
    """The case and the record of its solve outputs, or None and the error.

    The record maps each quantity class to its values: the derived
    exponents, the density stacks, the residuals, Delta, C+- and each
    expansion coefficient of both sides.
    """
    try:
        case = pkg.solve_case(material, n=n)
    except Exception as exc:  # an error, typed or not, is an output to compare
        return None, _error(exc)
    p, sol, bc = case.params, case.solution, case.constants
    sides = (case.coeffs_plus, case.coeffs_minus)
    return case, {
        "params": np.array([p.eps, p.l_param, p.delta1_minus, p.delta1_plus]),
        "densities": np.concatenate([sol.f1, sol.f2]),
        "residuals": np.array([sol.residuals[m] for m in sorted(sol.residuals)]),
        "Delta": np.array(bc.delta_plus),
        "C+-": np.concatenate([bc.c_plus, bc.c_minus]),
        **{name: np.array([getattr(side, name) for side in sides])
           for name in ("kappa", "d0", "d2", "e1")},
    }


def _point(pkg, case, xi: float, y: float):
    """Record of one point: each field of its result by name, or the error."""
    try:
        result = pkg.evaluate_point(case, xi, y)
    except Exception as exc:
        return _error(exc)
    return {f"point {name}": value for name, value in result._asdict().items()}


def configs() -> list:
    """(key, n, MaterialConfig arguments) of the study configs, the slow
    loads, the odd-n set and the edge configs."""
    draws = np.random.default_rng(SEED).uniform(LOW, HIGH, size=(CONFIGS, 3))
    slow = np.random.default_rng(SLOW_SEED).uniform(
        SLOW_LOW, SLOW_HIGH, size=(SLOW_CONFIGS, 3)
    )
    slow[:, 1] = 10.0 ** slow[:, 1]
    odd = np.random.default_rng(ODD_SEED).uniform(LOW, HIGH, size=(ODD_CONFIGS, 3))

    def drawn(rows):
        return [dict(nu=nu, speed_ratio=speed, nu_p=nu_p) for nu, speed, nu_p in rows.tolist()]

    return (
        [(k, N, material) for k, material in enumerate(drawn(draws))]
        + [(f"slow {k}", N, material) for k, material in enumerate(drawn(slow))]
        + [(f"odd {k}", N_ODD, material) for k, material in enumerate(drawn(odd))]
        + [(f"edge {k}", N, material) for k, material in enumerate(EDGE)]
    )


def outputs(src: Path) -> dict:
    """Record of every output of the tree at ``src``, keyed by (config, point)."""
    pkg = _import(src)
    records = {}
    for k, n, material in configs():
        case, records[k, "solve"] = _solve(pkg, pkg.MaterialConfig(**material), n)
        if case is not None:
            for xi, y in POINTS:
                records[k, (xi, y)] = _point(pkg, case, xi, y)
    for k, ref in enumerate(json.loads(REFERENCE.read_text())["configs"]):
        material = pkg.MaterialConfig(
            nu=ref["nu"], speed_ratio=ref["speed_ratio"], nu_p=ref["nu_p"]
        )
        records[f"reference {k}", f"solve n = {N_REFERENCE}"] = _solve(
            pkg, material, N_REFERENCE
        )[1]
    return records


def _bits(value) -> tuple:
    """``value`` as exact bits: dtype, shape and bytes of its array, so
    equal means equal to the bit (0.0 differs from -0.0, NaN equals NaN),
    or the value itself when it is no number (None, a string)."""
    if value is None or isinstance(value, str):
        return (value,)
    a = np.asarray(value)
    return a.dtype.str, a.shape, a.tobytes()


def _record_bits(record):
    """A record as exact bits, class by class, or the error string as it is."""
    if not isinstance(record, dict):
        return record
    return {name: _bits(value) for name, value in record.items()}


def _same_classes(ours, theirs) -> bool:
    """Whether both records are solve or point records of the same classes."""
    return isinstance(ours, dict) and isinstance(theirs, dict) and ours.keys() == theirs.keys()


def _shown(ours, theirs) -> tuple:
    """The two records, cut to the classes whose bits differ when both are
    records of the same classes."""
    if _same_classes(ours, theirs):
        names = [name for name in ours if _bits(ours[name]) != _bits(theirs[name])]
        return ({name: ours[name] for name in names}, {name: theirs[name] for name in names})
    return ours, theirs


def relative_difference(ours, theirs) -> float:
    """Largest ``|ours - theirs|`` over the largest ``|theirs|``: 0.0 when
    the bits agree, inf when either is no number or the shapes differ."""
    if _bits(ours) == _bits(theirs):
        return 0.0
    if any(v is None or isinstance(v, str) for v in (ours, theirs)):
        return math.inf
    a, b = np.atleast_1d(ours), np.atleast_1d(theirs)
    if a.shape != b.shape:
        return math.inf
    with np.errstate(invalid="ignore"):
        gap = np.abs(a - b)
    # NaN where both are NaN is agreement, NaN anywhere else is not
    gap[np.isnan(a) & np.isnan(b)] = 0.0
    scale = np.abs(b).max()
    if np.isnan(gap).any() or not np.isfinite(scale):
        return math.inf
    return gap.max() / scale if scale else math.inf


def largest_differences(ours: dict, theirs: dict, keys) -> dict:
    """Per quantity class, the largest relative difference over ``keys``
    and the key where it occurs.  A record that is an error on either side,
    or differently shaped, counts in the class "record" as inf."""
    top = {}

    def note(name, size, key):
        if size > top.get(name, (0.0,))[0]:
            top[name] = (size, key)

    for key in keys:
        a, b = ours.get(key), theirs.get(key)
        if _same_classes(a, b):
            for name in a:
                note(name, relative_difference(a[name], b[name]), key)
        else:
            note("record", math.inf, key)
    return top


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    other = Path(argv[0])
    if not (other / "gradedload" / "__init__.py").is_file():
        print(f"no gradedload package under {other}", file=sys.stderr)
        return 2
    ours, theirs = outputs(SRC), outputs(other)
    keys = ours.keys() | theirs.keys()
    differ = [key for key in keys if _record_bits(ours.get(key)) != _record_bits(theirs.get(key))]
    for key in sorted(differ, key=str)[:5]:
        a, b = _shown(ours.get(key), theirs.get(key))
        print(f"differs at config {key[0]}, {key[1]}:\n  {SRC}: {a!r:.300}\n"
              f"  {other}: {b!r:.300}")
    for name, (size, key) in sorted(largest_differences(ours, theirs, differ).items()):
        print(f"  {name}: largest relative difference {size:.3g} at config {key[0]}, {key[1]}")
    groups = {
        group: {key for key in keys if str(key[0]).startswith(group)}
        for group in ("slow", "odd", "edge", "reference")
    }
    print(f"{len(differ)} of {len(keys)} outputs differ, "
          + ", ".join(f"{len(members.intersection(differ))} of them among the {len(members)} "
                      f"{group} records" for group, members in groups.items())
          + f" ({CONFIGS} + {SLOW_CONFIGS} + {len(EDGE)} configs x {len(POINTS)} points "
          f"at n = {N}, {ODD_CONFIGS} at n = {N_ODD}, and the reference configs at "
          f"n = {N_REFERENCE}; "
          f"{SRC} against {other})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
