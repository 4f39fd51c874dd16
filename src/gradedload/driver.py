"""End-to-end case orchestration: solve, evaluate points, sweep, render.

``solve_case`` runs the whole chain (derived parameters, collocation solve,
boundary functionals, load constants, expansion coefficients) once per
configuration; :func:`~gradedload.fields.evaluate_point`, re-exported here,
evaluates the fields of a solved case at one point, with the coefficients
of the side of the load that :meth:`CaseSolution.side` picks.
``run_sweep`` repeats a case over a grid of one axis of ``SWEEP_AXES`` and
returns deterministic CSV rows; ``csv_text`` renders them.  Nothing here
writes a file: the command line does.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ExpansionRangeError, GradedLoadError
from .fields import (
    DEEP_ETA_MIN,
    NEAR_ETA_MAX,
    BoundaryConstants,
    FieldCoefficients,
    boundary_phi,
    constants_c,
    evaluate_point,
    field_coeffs,
    locate,
)
from .params import DerivedParams, MaterialConfig, real_float, require_material, shown
from .system import SIESolution, cell_count, solve_system

__all__ = [
    "SWEEP_AXES",
    "RunConfig",
    "CaseSolution",
    "CaseReport",
    "solve_case",
    "evaluate_point",
    "run_case",
    "run_sweep",
    "format_report",
    "csv_text",
]

# each sweep axis and the MaterialConfig field it sets
SWEEP_AXES = {"nu": "nu", "speed": "speed_ratio"}
# most grid steps one sweep may take; each grid value is one solve
_MAX_SWEEP_STEPS = 10_000


def _floats(value, what: str, names: tuple[str, ...]) -> tuple:
    """``value`` as a tuple of floats (:func:`real_float`), one per name."""
    try:
        items = tuple(value)
        if len(items) == len(names) and all(isinstance(v, numbers.Real) for v in items):
            return tuple(real_float(v, f"{what} {name}") for v, name in zip(items, names))
    except TypeError:
        pass
    raise ConfigError(
        f"{what} must be ({', '.join(names)}) of real numbers, got {shown(value)}"
    )


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation computes; the command line owns the output.

    ``points`` are (xi, y) query pairs, each placed by
    :func:`~gradedload.fields.locate` here, before any solve.  A sweep
    evaluates only the first, so it refuses a first point between the two
    expansion ranges (:class:`ExpansionRangeError`), which a single case
    reports as "out-of-range".  ``n`` is the number of cells, by the rule
    of :func:`~gradedload.system.cell_count`.  For sweeps, ``sweep`` is an
    axis of ``SWEEP_AXES`` and ``sweep_range`` is (start, stop, step); the
    grid includes ``stop`` when a whole number of steps reaches it, up to
    float drift, and never goes past it.  A ``sweep_range`` without a
    ``sweep`` is refused.  Points and range are stored as Python floats, and
    ``material`` must be a :class:`MaterialConfig`.
    """

    material: MaterialConfig = field(default_factory=MaterialConfig)
    n: int = 100
    points: tuple = ((-1.0, 0.0),)
    sweep: str | None = None
    sweep_range: tuple | None = None

    def __post_init__(self) -> None:
        require_material(self.material)
        object.__setattr__(self, "n", cell_count(self.n))
        if self.sweep is None and self.sweep_range is not None:
            raise ConfigError("sweep_range given without a sweep axis")
        if self.sweep is not None:
            if not isinstance(self.sweep, str) or self.sweep not in SWEEP_AXES:
                raise ConfigError(
                    f"sweep must be one of {tuple(SWEEP_AXES)}, got {shown(self.sweep)}"
                )
            if self.sweep_range is None:
                raise ConfigError("sweep requested without a sweep range")
            sweep_range = _floats(self.sweep_range, "sweep range", ("start", "stop", "step"))
            object.__setattr__(self, "sweep_range", sweep_range)
            start, stop, step = self.sweep_range
            if not all(math.isfinite(v) for v in self.sweep_range):
                raise ConfigError(
                    f"sweep range must be finite, got {self.sweep_range}"
                )
            if step <= 0:
                raise ConfigError(
                    f"sweep step must be positive, got {self.sweep_range}"
                )
            # stop < start is allowed and means an empty sweep; nonempty
            # ranges must stay inside the open (0, 1) validity gate shared
            # by both sweep axes and take at most _MAX_SWEEP_STEPS steps,
            # checked before the grid is built.
            if start <= stop:
                if not (0.0 < start and stop < 1.0):
                    raise ConfigError(
                        f"{self.sweep} sweep values must lie in (0, 1), got {self.sweep_range}"
                    )
                steps = (stop - start) / step
                if steps > _MAX_SWEEP_STEPS:
                    raise ConfigError(
                        f"sweep range {self.sweep_range} takes {steps:.3g} steps, "
                        f"more than the cap of {_MAX_SWEEP_STEPS}"
                    )
        try:
            points = tuple(_floats(point, "query point", ("xi", "y")) for point in self.points)
        except TypeError:
            raise ConfigError(
                f"points must be a sequence of (xi, y) pairs, got {shown(self.points)}"
            ) from None
        if not points:
            raise ConfigError("at least one query point is required")
        object.__setattr__(self, "points", points)
        eta, expansion = [locate(xi, y, self.material.xi0) for xi, y in points][0]
        if self.sweep is not None and expansion == "out-of-range":
            raise ExpansionRangeError(
                f"eta = {eta:.3f} falls between the near range (<= {NEAR_ETA_MAX}) "
                f"and the deep range (>= {DEEP_ETA_MIN})"
            )


@dataclass(frozen=True)
class CaseSolution:
    """Solved configuration with its boundary constants and the expansion
    coefficients of both sides of the load: ``coeffs_plus`` for
    kappa = sgn(xi0 - xi) = +1 and ``coeffs_minus`` for kappa = -1.
    :meth:`side` is the one place that picks the side of a point."""

    config: MaterialConfig
    params: DerivedParams
    solution: SIESolution
    constants: BoundaryConstants
    coeffs_plus: FieldCoefficients
    coeffs_minus: FieldCoefficients

    def side(self, xi: float) -> FieldCoefficients:
        """The coefficients of the side of the load that ``xi`` lies on."""
        return self.coeffs_plus if xi < self.config.xi0 else self.coeffs_minus


@dataclass(frozen=True)
class CaseReport:
    """A solved case together with the evaluated query points."""

    case: CaseSolution
    results: tuple


def solve_case(material: MaterialConfig, n: int = 100) -> CaseSolution:
    """Run the solve chain for one configuration."""
    solution = solve_system(material, n=n)
    p = solution.params
    phi = boundary_phi(solution)
    constants = constants_c(phi, material, p)
    coeffs_plus, coeffs_minus = field_coeffs(constants, material, p)
    return CaseSolution(
        config=material,
        params=p,
        solution=solution,
        constants=constants,
        coeffs_plus=coeffs_plus,
        coeffs_minus=coeffs_minus,
    )


def run_case(rc: RunConfig) -> CaseReport:
    """Solve a configuration and evaluate every query point.

    Each result is :func:`evaluate_point`'s record, so a point between the
    two expansion ranges is reported as "out-of-range" and the others still
    carry their fields.
    """
    case = solve_case(rc.material, n=rc.n)
    return CaseReport(
        case=case, results=tuple(evaluate_point(case, xi, y) for xi, y in rc.points)
    )


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _fmtc(value: complex) -> str:
    return f"{value.real:.10g}{value.imag:+.10g}j"


def format_report(report: CaseReport) -> str:
    """Render a case report as a fixed-layout text block."""
    case = report.case
    cfg = case.config
    p = case.params
    bc = case.constants
    lines = []
    lines.append(
        "config: nu={} nu_p={} speed_ratio={} h1={} h2={} xi0={}".format(
            *map(_fmt, (cfg.nu, cfg.nu_p, cfg.speed_ratio, cfg.h1, cfg.h2, cfg.xi0))
        )
    )
    lines.append(
        "derived: a_s={} a_d={} beta1={} beta2={} eps={} l={} sigma={}".format(
            *map(_fmt, (p.a_s, p.a_d, p.beta1, p.beta2, p.eps, p.l_param, p.sigma))
        )
    )
    lines.append(f"grid: n={case.solution.disc.n}")
    lines.append(f"determinant: delta_plus={_fmtc(bc.delta_plus)}")
    for label, c in (("plus", bc.c_plus), ("minus", bc.c_minus)):
        lines.append(f"constants_{label}: c1={_fmtc(c[0])} c2={_fmtc(c[1])}")
    # the sides of the query points come in order of first appearance
    for co in dict.fromkeys(case.side(res.xi) for res in report.results):
        for j in (0, 1):
            lines.append(
                f"coeffs kappa={co.kappa:+.0f} j={j + 1}: "
                f"d0={_fmtc(co.d0[j])} d2={_fmtc(co.d2[j])} e1={_fmtc(co.e1[j])}"
            )
    for res in report.results:
        parts = [
            f"point xi={_fmt(res.xi)} y={_fmt(res.y)} eta={_fmt(res.eta)} [{res.expansion}]:"
        ]
        if res.u1 is not None:
            parts.append(f"u1={_fmt(res.u1)} u2={_fmt(res.u2)}")
        if res.du1_dxi is not None:
            parts.append(f"du1_dxi={_fmt(res.du1_dxi)} du2_dxi={_fmt(res.du2_dxi)}")
        if res.s12 is not None:
            parts.append(f"s12={_fmt(res.s12)} s22={_fmt(res.s22)}")
        parts.append(f"imag_residue={res.imag_residue:.3e}")
        lines.append(" ".join(parts))
    return "\n".join(lines)


def _sweep_values(sweep_range: tuple) -> list[float]:
    # Inclusive grid; tolerate float drift at the endpoint, but no whole step
    # beyond the endpoint that RunConfig validated.  A drifted endpoint keeps
    # its bits unless it would leave the (0, 1) gate; then it is clamped back
    # to the validated stop.
    start, stop, step = sweep_range
    if stop < start:
        return []
    count = math.floor((stop - start) / step + 1e-9) + 1
    values = start + step * np.arange(count)
    return np.where(values < 1.0, values, stop).tolist()


def run_sweep(rc: RunConfig) -> tuple[list[str], list[list[str]]]:
    """Sweep one parameter, evaluating the first query point per value.

    Returns the CSV header and rows (all strings, 10 significant digits),
    which :func:`csv_text` renders.  Numerical failures at individual sweep
    values are recorded in the ``error`` column instead of aborting;
    configuration errors propagate.
    """
    if rc.sweep is None:
        raise ConfigError("run_sweep called without a sweep parameter")
    xi, y = rc.points[0]
    header = [
        "sweep_value", "u1", "u2", "du1_dxi", "du2_dxi", "s12", "s22",
        "delta_re", "delta_im", "error",
    ]
    rows: list[list[str]] = []
    axis = SWEEP_AXES[rc.sweep]
    for value in _sweep_values(rc.sweep_range):
        material = replace(rc.material, **{axis: value})
        try:
            case = solve_case(material, n=rc.n)
            res = evaluate_point(case, xi, y)
        except ConfigError:
            raise
        except GradedLoadError as exc:
            rows.append([_fmt(value)] + [""] * 8 + [type(exc).__name__])
            continue
        delta = case.constants.delta_plus
        # res[4:10] are the record's six fields, u1 to s22, in header order
        rows.append([
            _fmt(value),
            *("" if v is None else _fmt(v) for v in res[4:10]),
            _fmt(delta.real),
            _fmt(delta.imag),
            "",
        ])
    return header, rows


def csv_text(header: list[str], rows: list[list[str]]) -> str:
    """Render a header and string rows as CSV text (CRLF line endings)."""
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()

