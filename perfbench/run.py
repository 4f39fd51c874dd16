#!/usr/bin/env python3
"""Benchmark of the gradedload pipeline: three workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload study-n100 --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout the script sits in.
Each workload is a closed loop with one caller that runs for ``--seconds``
on inputs made from ``--seed``.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the package is wrapped by :mod:`tracing` and the JSON holds
the per-layer metrics instead.  Every run checks the program's outputs (see
``Checker``); a check that fails makes ``correct`` false, and an exception
that is not a typed ``GradedLoadError`` aborts the run.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported.  With the default two
# OpenBLAS threads on a 2-core machine, lu_solve at n = 100 measured 6 ms at
# best but had medians of 11-160 ms across runs, against a steady 7.8-8.2 ms
# at one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np
import scipy
from scipy.stats import qmc

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The README single-case command, run through the module entry point
# because the console script is only present after an install.
README_ARGS = ("--nu", "0.3", "--speed-ratio", "0.2", "--n", "100",
               "--xi", "-1", "--y", "0", "--y", "0.3")
SETUP_REPS = 5

# Fixed point mix around the load at xi0 = 0, on both sides of it:
# surface (eta = 0), near (eta <= 1), gap (1 < eta < 2) and deep (eta >= 2).
MIX = (
    (-1.0, 0.0), (1.0, 0.0), (-0.25, 0.0), (2.0, 0.0),
    (-1.0, 0.3), (0.5, 0.25), (-2.0, 1.0), (1.5, 0.9),
    (-1.0, 1.5), (0.5, 0.75),
    (-0.5, 2.0), (2.0, 5.0), (-1.0, 3.0), (0.25, 1.0), (1.0, 2.0), (-2.0, 8.0),
)
# Field map: a dense lattice over the window |xi - xi0| <= MAP_HALF_WIDTH,
# 0 <= y <= MAP_DEPTH around the load.  eta = y / |xi - xi0| does not depend
# on scale, so the share of points in each expansion follows from the
# window's aspect ratio alone.  With the depth equal to the half-width, 1/2
# of the window is near (eta <= 1), 1/4 is the gap (1 < eta < 2) and 1/4 is
# deep (eta >= 2); the first lattice row is the surface y = 0.  Gap points
# are reported out-of-range by the program, as in run_case, and are not
# failures.
MAP_HALF_WIDTH = 2.0
MAP_DEPTH = 2.0
MAP_TILE = 64  # points per field-map request ("case" on fieldmap)
# Passes of evaluate_point over the mix after each study case, so that
# point_p99_us has about 200 samples beyond it in a 30 s run.
POINT_PASSES = 4
# Rounds of untraced/traced blocks of operations for trace.overhead_s.
CALIBRATION_ROUNDS = 5

# Study domain: the whole validated range of each input.
STUDY_LOW = np.array([0.05, 0.05, 0.0])    # nu, V/c_s, nu_p
STUDY_HIGH = np.array([0.95, 0.95, 0.45])

# Correctness gates.
RESIDUAL_GATE = 1e-10    # A9: relative solve residual
PAIRING_GATE = 1e-8      # A3a: |delta_plus - delta_minus| / |delta_plus|
DELTA_ERR_GATE = 0.1     # delta_plus within 10% of its n -> infinity limit
MATCH_RTOL = 1e-9        # run_case and evaluate_point agree per field
FIELDS = ("u1", "u2", "du1_dxi", "du2_dxi", "s12", "s22")

# (calling module, name looked up there, span name) for every traced call.
TRACE_POINTS = (
    ("gradedload.driver", "run_case", "driver.run_case"),
    ("gradedload.driver", "solve_case", "driver.solve_case"),
    ("gradedload.driver", "evaluate_point", "driver.evaluate_point"),
    ("gradedload.driver", "solve_system", "system.solve_system"),
    ("gradedload.driver", "boundary_phi", "fields.boundary_phi"),
    ("gradedload.driver", "constants_c", "fields.constants_c"),
    ("gradedload.driver", "field_coeffs", "fields.field_coeffs"),
    ("gradedload.system", "derive_params", "params.derive_params"),
    ("gradedload.system", "build_grid", "system.build_grid"),
    ("gradedload.system", "mellin_m", "kernels.mellin_m"),
    ("gradedload.system", "assemble_matrix", "system.assemble_matrix"),
    ("gradedload.system", "kernel_g", "kernels.kernel_g"),
    ("gradedload.system", "assemble_rhs", "system.assemble_rhs"),
    ("gradedload.system", "lu_solve", "system.lu_solve"),
)


def _count_lu(args, kwargs, result, sizes) -> None:
    # dense complex LU of an m x m matrix: 8/3 m^3 real flops
    matrix = args[0] if args else kwargs["matrix"]
    sizes["lu_flops"] += 8.0 / 3.0 * float(matrix.shape[0]) ** 3


def _count_matrix(args, kwargs, result, sizes) -> None:
    sizes["matrix_bytes"] += result.nbytes


TRACE_HOOKS = {"system.lu_solve": _count_lu, "system.assemble_matrix": _count_matrix}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


# --------------------------------------------------------------------------
# environment and package


def blas_threads() -> dict:
    """Thread count of each OpenBLAS loaded into this process (Linux only)."""
    found = {}
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def import_package():
    """Import gradedload from ``src/`` of this checkout."""
    if not (SRC / "gradedload" / "__init__.py").is_file():
        raise BenchError(f"no gradedload package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gradedload

    if SRC.resolve() not in Path(gradedload.__file__).resolve().parents:
        raise BenchError(f"imported gradedload from {gradedload.__file__}, not from {SRC}")
    return gradedload


# Import time and first-case time inside a fresh interpreter.
COLD_PROBE = """
import contextlib, io, sys, time
start = time.perf_counter()
import gradedload.cli
imported = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = gradedload.cli.main(sys.argv[1:])
print(imported - start, time.perf_counter() - imported, code)
"""


def _fresh_interpreter(args: list[str]) -> tuple[float, str]:
    """Run ``python args...`` on this checkout's package; (wall seconds, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"README command exited with {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, proc.stdout


def cold_start(reps: int) -> dict:
    """Median import and first-case seconds over ``reps`` fresh interpreters."""
    samples = []
    for _ in range(reps):
        _, out = _fresh_interpreter(["-c", COLD_PROBE, *README_ARGS])
        import_s, first_case_s, code = out.split()
        if code != "0":
            raise BenchError(f"README command returned {code}")
        samples.append((float(import_s), float(first_case_s)))
    return {"import_s": statistics.median(s[0] for s in samples),
            "first_case_s": statistics.median(s[1] for s in samples)}


def setup_seconds(reps: int) -> list[float]:
    """Wall time of fresh interpreters running the README single-case command."""
    return [_fresh_interpreter(["-m", "gradedload.cli", *README_ARGS])[0] for _ in range(reps)]


# --------------------------------------------------------------------------
# inputs


def load_references(pkg) -> list[tuple]:
    """(material, delta_plus limit) of each reference config, from reference.json."""
    data = json.loads((HERE / "reference.json").read_text())
    refs = []
    for entry in data["configs"]:
        material = pkg.MaterialConfig(nu=entry["nu"], speed_ratio=entry["speed_ratio"],
                                      nu_p=entry["nu_p"])
        refs.append((material, complex(*entry["limit"])))
    return refs


def study_configs(pkg, seed: int, count: int = 1024) -> list:
    """Scrambled Sobol' draws over the study domain.

    Uniform like independent draws, but each run covers the domain evenly,
    so the share of configs in the RealnessError region varies little
    between seeds.
    """
    unit = qmc.Sobol(d=3, scramble=True, seed=np.random.default_rng(seed)).random(count)
    values = STUDY_LOW + unit * (STUDY_HIGH - STUDY_LOW)
    return [pkg.MaterialConfig(nu=nu, speed_ratio=v, nu_p=nu_p) for nu, v, nu_p in values]


def field_map(seed: int, side: int, xi0: float) -> list[tuple]:
    """A side x side lattice over the map window, in seeded order.

    The seed sets the offset of the columns and of the rows below the
    surface within one lattice spacing, and the order of the points.  No
    column falls on the load point xi0.
    """
    rng = np.random.default_rng(seed)
    u, v = rng.uniform(0.05, 0.95, size=2)
    dx = 2.0 * MAP_HALF_WIDTH / side
    dy = MAP_DEPTH / (side - 1)
    xs = xi0 - MAP_HALF_WIDTH + (np.arange(side) + u) * dx
    ys = np.concatenate([[0.0], (np.arange(side - 1) + v) * dy])
    points = [(float(x), float(y)) for y in ys for x in xs]
    return [points[k] for k in rng.permutation(len(points))]


# --------------------------------------------------------------------------
# checks and measurements


class Checker:
    """Correctness checks on every solved case and evaluated point."""

    def __init__(self) -> None:
        self.violations = 0

    def fail(self, message: str) -> bool:
        if self.violations < 20:
            print(f"check failed: {message}", file=sys.stderr)
        self.violations += 1
        return False

    def case(self, case, label: str) -> bool:
        residual = max(case.solution.residuals.values())
        if not residual <= RESIDUAL_GATE:
            return self.fail(f"{label}: solve residual {residual:.3e} > {RESIDUAL_GATE}")
        dp, dm = case.constants.delta_plus, case.constants.delta_minus
        pairing = abs(dp - dm) / abs(dp)
        if not pairing <= PAIRING_GATE:
            return self.fail(f"{label}: delta pairing {pairing:.3e} > {PAIRING_GATE}")
        return True

    def point(self, res, label: str) -> bool:
        eta = res.eta
        expected = "near" if eta <= 1.0 else "deep" if eta >= 2.0 else "out-of-range"
        if res.expansion != expected:
            return self.fail(f"{label}: eta {eta} reported as {res.expansion}")
        present = {"near": FIELDS, "deep": ("du1_dxi", "du2_dxi"), "out-of-range": ()}[expected]
        for name in FIELDS:
            value = getattr(res, name)
            if (name in present) != (value is not None):
                return self.fail(f"{label}: field {name} = {value} for a {expected} point")
            if value is not None and not math.isfinite(value):
                return self.fail(f"{label}: field {name} = {value} is not finite")
        return True

    def same(self, res, again, label: str) -> bool:
        """``again`` from evaluate_point (None if it raised ExpansionRangeError)."""
        if again is None:
            if res.expansion != "out-of-range":
                return self.fail(f"{label}: evaluate_point refused a {res.expansion} point")
            return True
        if again.expansion != res.expansion:
            return self.fail(f"{label}: {again.expansion} against run_case {res.expansion}")
        for name in FIELDS:
            a, b = getattr(res, name), getattr(again, name)
            if (a is None) != (b is None) or (
                a is not None and abs(a - b) > MATCH_RTOL * max(abs(a), abs(b))
            ):
                return self.fail(f"{label}: {name} {b} against run_case {a}")
        return True


class Samples:
    """Count and sum of all timings, and a uniform random subset of them.

    The subset (a reservoir of at most ``cap`` values) keeps memory flat, so
    a faster program that fits more operations into a run does not raise
    ``peak_rss_mb``.
    """

    cap = 1 << 16

    def __init__(self) -> None:
        self.values = array("d")
        self.count = 0
        self.total = 0.0
        self._rng = random.Random(0)

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if len(self.values) < self.cap:
            self.values.append(seconds)
        else:
            j = self._rng.randrange(self.count)
            if j < self.cap:
                self.values[j] = seconds


class Measurements:
    """What one loop of operations recorded."""

    def __init__(self) -> None:
        self.case_s = Samples()
        self.point_s = Samples()
        self.attempted = 0
        self.refused: dict[str, int] = {}
        self.failed = 0

    def refuse(self, exc: Exception) -> None:
        name = type(exc).__name__
        self.refused[name] = self.refused.get(name, 0) + 1


def delta_error(case, limit: complex, checker: Checker, label: str) -> float:
    """Relative error of delta_plus against its limit; checked against the gate."""
    err = abs(case.constants.delta_plus - limit) / abs(limit)
    if not err <= DELTA_ERR_GATE:
        checker.fail(f"{label}: delta_plus {case.constants.delta_plus} is {err:.3e} "
                     f"from the reference limit {limit}")
    return err


class Accuracy:
    """Accuracy of the reference configs solved at the workload's n.

    The same for every seed, so a change that costs accuracy shows as a
    regression of these metrics.
    """

    def __init__(self) -> None:
        self.imag_residue_max = 0.0
        self.delta_err_max = 0.0
        self.solve_residual_max = 0.0
        self.configs = 0

    def add(self, case, limit: complex, results, checker: Checker, label: str) -> None:
        err = delta_error(case, limit, checker, label)
        self.delta_err_max = max(self.delta_err_max, err)
        self.solve_residual_max = max(self.solve_residual_max,
                                      max(case.solution.residuals.values()))
        self.imag_residue_max = max([self.imag_residue_max] + [r.imag_residue for r in results])
        self.configs += 1


# --------------------------------------------------------------------------
# workloads


class Workload:
    """A closed loop with one caller; ``op(i)`` is operation number i."""

    n = 100
    solves_per_op = 1     # solve_case calls per operation, for computed counts
    calibration_ops = 1   # operations in one calibration block (see trace_overhead)

    def __init__(self, pkg, seed: int, n: int | None, checker: Checker) -> None:
        self.pkg = pkg
        self.seed = seed
        self.n = n or self.n
        self.check = checker
        self.refs = load_references(pkg)
        self.accuracy = Accuracy()

    def prepare(self) -> None:
        """Untimed set-up, including one warm-up operation."""

    def op(self, i: int, m: Measurements) -> None:
        raise NotImplementedError

    def _probe(self, label: str) -> list:
        """Solve every reference config at n and evaluate the point mix.

        The accuracy metrics need every reference config, so a typed error
        on one of them fails a check; the config is then left out.
        """
        cases = []
        for k, (material, limit) in enumerate(self.refs):
            rc = self.pkg.RunConfig(material=material, n=self.n, points=MIX)
            try:
                report = self.pkg.driver.run_case(rc)
            except self.pkg.GradedLoadError as exc:
                self.check.fail(f"{label} ref {k}: run_case raised {exc!r}")
                continue
            self.check.case(report.case, f"{label} ref {k}")
            for res in report.results:
                self.check.point(res, f"{label} ref {k}")
            self.accuracy.add(report.case, limit, report.results, self.check, f"{label} ref {k}")
            cases.append(report.case)
        return cases

    def _timed_point(self, case, xi: float, y: float, m: Measurements, label: str):
        """evaluate_point, timed; None for a gap point, which the program refuses."""
        start = time.perf_counter()
        try:
            return self.pkg.driver.evaluate_point(case, xi, y)
        except self.pkg.ExpansionRangeError:
            eta = y / abs(xi - case.config.xi0)
            if not 1.0 < eta < 2.0:
                self.check.fail(f"{label}: ExpansionRangeError at eta {eta}")
            return None
        finally:
            m.point_s.add(time.perf_counter() - start)


class StudyN100(Workload):
    """Seeded parameter study: one run_case per config at the default n."""

    calibration_ops = 8

    def prepare(self) -> None:
        self.configs = study_configs(self.pkg, self.seed)
        self._probe("study probe")
        self.op(-1, Measurements())  # warm-up on the last config of the sequence

    def op(self, i: int, m: Measurements) -> None:
        label = f"study op {i}"
        rc = self.pkg.RunConfig(material=self.configs[i % len(self.configs)], n=self.n, points=MIX)
        m.attempted += 1
        start = time.perf_counter()
        try:
            report = self.pkg.driver.run_case(rc)
        except self.pkg.GradedLoadError as exc:
            m.case_s.add(time.perf_counter() - start)
            m.refuse(exc)
            return
        m.case_s.add(time.perf_counter() - start)
        self.check.case(report.case, label)
        for res in report.results:
            self.check.point(res, label)
        # evaluate_point over the same mix gives the point timings; every
        # pass must reproduce run_case
        for _ in range(POINT_PASSES):
            for (xi, y), res in zip(MIX, report.results):
                try:
                    again = self._timed_point(report.case, xi, y, m, label)
                except self.pkg.GradedLoadError as exc:
                    self.check.fail(f"{label}: evaluate_point raised {exc!r} after run_case")
                    continue
                self.check.same(res, again, label)


class SolveN400(Workload):
    """Fixed reference configs in seeded order, each solved at n = 400."""

    n = 400

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.order = [int(k) for _ in range(256) for k in rng.permutation(len(self.refs))]
        self.points = field_map(self.seed, 64, self.refs[0][0].xi0)
        self._probe("solve probe")  # accuracy metrics; also the warm-up

    def op(self, i: int, m: Measurements) -> None:
        label = f"solve op {i}"
        k = self.order[i % len(self.order)]
        material, limit = self.refs[k]
        m.attempted += 1
        start = time.perf_counter()
        try:
            case = self.pkg.driver.solve_case(material, n=self.n)
        except self.pkg.GradedLoadError as exc:
            m.case_s.add(time.perf_counter() - start)
            m.refuse(exc)
            return
        m.case_s.add(time.perf_counter() - start)
        self.check.case(case, label)
        delta_error(case, limit, self.check, label)
        # a field map of the solved case, each point timed; a typed error
        # refuses the operation
        base = (i * MAP_TILE) % len(self.points)
        for xi, y in self.points[base:base + MAP_TILE]:
            try:
                res = self._timed_point(case, xi, y, m, label)
            except self.pkg.GradedLoadError as exc:
                m.refuse(exc)
                return
            if res is not None:
                self.check.point(res, label)


class FieldMap(Workload):
    """One reference case solved in set-up, then evaluate_point over a dense map."""

    solves_per_op = 0
    calibration_ops = 2048

    def prepare(self) -> None:
        cases = self._probe("fieldmap probe")
        if not cases:
            raise BenchError("no reference config could be solved")
        self.case = cases[0]
        self.points = field_map(self.seed, 128, self.case.config.xi0)
        for i in range(256):  # warm-up
            self.op(i, Measurements())

    def op(self, i: int, m: Measurements) -> None:
        label = f"fieldmap op {i}"
        xi, y = self.points[i % len(self.points)]
        m.attempted += 1
        if m.point_s.count % MAP_TILE == 0:
            self.tile_s = 0.0  # a "case" here is one field-map request of MAP_TILE points
        before = m.point_s.total
        try:
            res = self._timed_point(self.case, xi, y, m, label)
        except self.pkg.GradedLoadError as exc:
            m.refuse(exc)
            res = None
        if res is not None:
            self.check.point(res, label)
        self.tile_s += m.point_s.total - before
        if m.point_s.count % MAP_TILE == 0:
            m.case_s.add(self.tile_s)


WORKLOADS = {"study-n100": StudyN100, "solve-n400": SolveN400, "fieldmap": FieldMap}


# --------------------------------------------------------------------------
# statistics and metrics


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def timing_metrics(prefix: str, samples: Samples, scale: float, unit: str,
                   tail: float, notes: dict) -> dict:
    if not samples.count:
        raise BenchError(f"no {prefix} timings recorded")
    values = samples.values
    p_tail, beyond = percentile(values, tail)
    name_tail = f"{prefix}_p{tail:g}_{unit}"
    basis = f"{samples.count} samples" + (
        f", percentiles from a uniform subset of {len(values)}" if len(values) < samples.count else "")
    notes[f"{prefix}_p50_{unit}"] = basis
    notes[name_tail] = f"{basis}, {beyond} beyond" + (
        "; fewer than ten beyond, indicative only" if beyond < 10 else "")
    notes[f"{prefix}s_per_s"] = f"{samples.count} samples in {samples.total:.3f} s busy"
    return {
        f"{prefix}_p50_{unit}": (statistics.median(values) * scale, unit),
        name_tail: (p_tail * scale, unit),
        f"{prefix}s_per_s": (samples.count / samples.total, "1/s"),
    }


def end_to_end(w: Workload, m: Measurements, setup_times: list[float], notes: dict) -> dict:
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    notes["setup_s"] = f"median of {len(setup_times)} cold starts: " + " ".join(
        f"{t:.3f}" for t in setup_times)
    metrics.update(timing_metrics("case", m.case_s, 1e3, "ms", 90, notes))
    metrics.update(timing_metrics("point", m.point_s, 1e6, "us", 99, notes))
    refused = sum(m.refused.values())
    metrics["ok_frac"] = (1.0 - refused / m.attempted, "ratio")
    notes["ok_frac"] = f"fail_frac {refused / m.attempted:.6g} = {refused}/{m.attempted} " + (
        " ".join(f"{k}:{v}" for k, v in sorted(m.refused.items())) or "no typed errors")
    acc = w.accuracy
    for name in ("imag_residue_max", "delta_err_max", "solve_residual_max"):
        metrics[name] = (getattr(acc, name), "ratio")
        notes[name] = f"over {acc.configs} reference configs at n = {w.n}"
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(w: Workload, tr: Tracer, ops: int, setup: dict, overhead_s: float,
              notes: dict) -> dict:
    def calls(name):
        return tr.get(name).calls / ops

    def self_s(name):
        return tr.get(name).self_s / ops

    metrics = {
        "kernels.mellin_m.calls": (calls("kernels.mellin_m"), "calls/op"),
        "kernels.mellin_m.self_s": (self_s("kernels.mellin_m"), "s/op"),
        "kernels.mellin_m.calls_computed": (2.0 * w.n * w.solves_per_op, "calls/op"),
        "kernels.kernel_g.self_s": (self_s("kernels.kernel_g"), "s/op"),
        "system.build_grid.self_s": (self_s("system.build_grid"), "s/op"),
        "system.assemble_matrix.calls": (calls("system.assemble_matrix"), "calls/op"),
        "system.assemble_matrix.self_s": (self_s("system.assemble_matrix"), "s/op"),
        "system.lu_solve.calls": (calls("system.lu_solve"), "calls/op"),
        "system.lu_solve.self_s": (self_s("system.lu_solve"), "s/op"),
        "system.lu_flops": (tr.sizes["lu_flops"] / ops, "flop/op"),
        "system.matrix_bytes": (tr.sizes["matrix_bytes"] / ops, "B/op"),
        "system.solve_system.self_s": (self_s("system.solve_system"), "s/op"),
        "fields.boundary_phi.self_s": (self_s("fields.boundary_phi"), "s/op"),
        "fields.constants_c.self_s": (self_s("fields.constants_c"), "s/op"),
        "fields.field_coeffs.calls": (calls("fields.field_coeffs"), "calls/op"),
        "driver.evaluate_point.calls": (calls("driver.evaluate_point"), "calls/op"),
        "driver.evaluate_point.self_s": (self_s("driver.evaluate_point"), "s/op"),
        "driver.evaluate_point.errors": (
            sum(tr.get("driver.evaluate_point").errors.values()) / ops, "errors/op"),
        "driver.solve_case.self_s": (self_s("driver.solve_case"), "s/op"),
        "params.derive_params.self_s": (self_s("params.derive_params"), "s/op"),
        "setup.import_s": (setup["import_s"], "s"),
        "setup.first_case_s": (setup["first_case_s"], "s"),
        "trace.overhead_s": (overhead_s, "s/op"),
    }
    points = tr.get("driver.evaluate_point").calls
    metrics["fields.coeffs_per_point"] = (
        tr.get("fields.field_coeffs").calls / points if points else 0.0, "calls/point")
    for name in ("kernels.mellin_m.calls_computed", "system.lu_flops", "system.matrix_bytes"):
        notes[name] = "computed from sizes, not measured"
    for name in ("setup.import_s", "setup.first_case_s"):
        notes[name] = "median over fresh interpreters"
    notes["trace.overhead_s"] = (f"median over {CALIBRATION_ROUNDS} rounds of {w.calibration_ops} "
                                 "ops of traced minus untraced time per op")
    return metrics


# --------------------------------------------------------------------------
# driver


def drive(w: Workload, seconds: float, m: Measurements) -> None:
    """Run operations until ``seconds`` have passed.

    An operation during which any check failed counts as failed.
    """
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        before = w.check.violations
        w.op(i, m)
        m.failed += w.check.violations > before
        i += 1


def trace_overhead(w: Workload, tracer: Tracer) -> float:
    """Median over rounds of traced minus untraced seconds per operation.

    Each round runs one block of operations four times on the same inputs,
    so every pass does the same work: untraced, traced, traced, untraced.
    The symmetric order cancels a steady drift of the machine's speed.
    """
    def block(first: int) -> float:
        start = time.perf_counter()
        for i in range(first, first + w.calibration_ops):
            w.op(i, Measurements())
        return time.perf_counter() - start

    diffs = []
    for r in range(CALIBRATION_ROUNDS):
        first = r * w.calibration_ops
        untraced = block(first)
        tracer.install(TRACE_POINTS)
        try:
            traced = block(first) + block(first)
        finally:
            tracer.remove()
        untraced += block(first)
        diffs.append((traced - untraced) / (2 * w.calibration_ops))
    tracer.reset()
    return statistics.median(diffs)


def run(workload: str, seed: int, seconds: float, trace: bool,
        n: int | None = None, setup_reps: int = SETUP_REPS) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the summary lines."""
    lines = ["env: " + json.dumps(environment(), sort_keys=True)]
    pkg = import_package()
    setup_times = [] if trace else setup_seconds(setup_reps)
    checker = Checker()
    w = WORKLOADS[workload](pkg, seed, n, checker)
    w.prepare()
    notes: dict = {}
    m = Measurements()
    if trace:
        tracer = Tracer(TRACE_HOOKS)
        overhead_s = trace_overhead(w, tracer)
        tracer.install(TRACE_POINTS)
        try:
            drive(w, seconds, m)
        finally:
            tracer.remove()
        setup = cold_start(setup_reps)
        metrics = per_layer(w, tracer, m.attempted, setup, overhead_s, notes)
        lines += tracer.summary_lines(m.attempted)
    else:
        drive(w, seconds, m)
        metrics = end_to_end(w, m, setup_times, notes)
    correct = not checker.violations
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        lines.append(f"metric {name} {value:.6g} {unit}" + (f" ({note})" if note else ""))
    lines.append(f"workload {workload} seed {seed} n {w.n}: {m.attempted} operations, "
                 f"{m.failed} operations failed a check, {checker.violations} check violations")
    result = {
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
