#!/usr/bin/env python3
"""Check that two gradedload source trees give the same outputs, bit for bit.

Run from the repository root::

    python3 tools/same_outputs.py OTHER_SRC

``OTHER_SRC`` is a directory that holds a ``gradedload`` package, such as
the ``src`` of another checkout.  The script imports the package from the
``src`` of the checkout it sits in and then from ``OTHER_SRC``, in one
process with one BLAS thread, and runs both on the same seeded study
configs at n = 100.  Per config it records

- the ``solve_case`` outputs: the density stacks ``f1``/``f2`` as bytes,
  the solve residuals, Delta, C+- and the expansion coefficients of both
  sides of the load, or the class and message of the error it raised;
- per query point, the ``repr`` of ``evaluate_point``'s result, or the
  class and message of the error it raised.

It records the same ``solve_case`` outputs for the five configs of
``perfbench/reference.json`` at n = 400, the size at which the benchmark's
``solve-n400`` workload reads its solve residuals.

Floats are compared through ``repr`` or raw bytes, so equal means equal to
the bit.  It prints how many records differ and exits 1 if any do, 2 if
``OTHER_SRC`` holds no package.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported, so both trees factor alike
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
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


def _array(a: np.ndarray) -> tuple:
    return a.dtype.str, a.shape, a.tobytes()


def _solve(pkg, material, n: int):
    """The case and the record of its solve outputs, or None and the error."""
    try:
        case = pkg.solve_case(material, n=n)
    except Exception as exc:  # an error, typed or not, is an output to compare
        return None, _error(exc)
    sol, bc = case.solution, case.constants
    return case, (
        _array(sol.f1), _array(sol.f2), repr(sol.residuals), repr(bc.delta_plus),
        _array(bc.c_plus), _array(bc.c_minus),
        repr(case.coeffs_plus), repr(case.coeffs_minus),
    )


def outputs(src: Path) -> dict:
    """Record of every output of the tree at ``src``, keyed by (config, point)."""
    pkg = _import(src)
    draws = np.random.default_rng(SEED).uniform(LOW, HIGH, size=(CONFIGS, 3))
    records = {}
    for k, (nu, speed_ratio, nu_p) in enumerate(draws.tolist()):
        material = pkg.MaterialConfig(nu=nu, speed_ratio=speed_ratio, nu_p=nu_p)
        case, records[k, "solve"] = _solve(pkg, material, N)
        if case is None:
            continue
        for xi, y in POINTS:
            try:
                records[k, (xi, y)] = repr(pkg.evaluate_point(case, xi, y))
            except Exception as exc:
                records[k, (xi, y)] = _error(exc)
    for k, ref in enumerate(json.loads(REFERENCE.read_text())["configs"]):
        material = pkg.MaterialConfig(
            nu=ref["nu"], speed_ratio=ref["speed_ratio"], nu_p=ref["nu_p"]
        )
        records[f"reference {k}", f"solve n = {N_REFERENCE}"] = _solve(
            pkg, material, N_REFERENCE
        )[1]
    return records


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    other = Path(argv[0])
    if not (other / "gradedload" / "__init__.py").is_file():
        print(f"no gradedload package under {other}", file=sys.stderr)
        return 2
    ours, theirs = outputs(SRC), outputs(other)
    differ = [key for key in ours.keys() | theirs.keys() if ours.get(key) != theirs.get(key)]
    for key in sorted(differ, key=str)[:5]:
        print(f"differs at config {key[0]}, {key[1]}:\n  {SRC}: {ours.get(key)!r:.300}\n"
              f"  {other}: {theirs.get(key)!r:.300}")
    print(f"{len(differ)} of {len(ours.keys() | theirs.keys())} outputs differ "
          f"({CONFIGS} configs x {len(POINTS)} points, n = {N}, and the reference "
          f"configs at n = {N_REFERENCE}; {SRC} against {other})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
