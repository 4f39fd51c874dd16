"""Case orchestration: solve, point evaluation, reports, sweeps, CSV."""

import math
import re

import numpy as np
import pytest

import gradedload
import gradedload.driver as driver
import gradedload.fields as fields
import gradedload.system as system
from gradedload import (
    CaseSolution,
    ConfigError,
    DegenerateDeterminantError,
    ExpansionRangeError,
    MaterialConfig,
    RunConfig,
    SingularPointError,
    evaluate_point,
    run_case,
    run_sweep,
    solve_case,
)
from gradedload.driver import _fmtc, csv_text, format_report
from gradedload.fields import FieldResult


# ---------------------------------------------------------------- solve_case


def test_slow_loads_continuous():
    # the static end of the subsonic range solves: from V/c_s = 1e-5 down, where
    # l reads 0, Delta and the fields move only by O((V/c_s)**2)
    def outputs(speed):
        case = solve_case(MaterialConfig(nu=0.3, nu_p=0.3, speed_ratio=speed))
        r = evaluate_point(case, -1.0, 0.3)
        return (case.constants.delta_plus, r.u1, r.u2, r.du1_dxi, r.du2_dxi, r.s12, r.s22)

    reference = outputs(1e-5)
    for speed in (1e-6, 1e-20, 1e-100):
        for value, ref in zip(outputs(speed), reference):
            assert value == pytest.approx(ref, rel=1e-9)


def test_solve_case_contents(case25):
    assert isinstance(case25, CaseSolution)
    assert case25.config == MaterialConfig()
    assert case25.solution.disc.n == 25
    assert case25.params.nu == 0.1
    assert case25.constants.c_plus.shape == (2,)
    # kappa = sgn(xi0 - xi) with the load at xi0 = 0; xi = xi0 itself, a
    # singular point for the fields, falls to the "-" side
    assert case25.side(-1.0) is case25.coeffs_plus
    assert case25.side(1.0) is case25.coeffs_minus
    assert case25.side(0.0) is case25.coeffs_minus
    assert (case25.coeffs_plus.kappa, case25.coeffs_minus.kappa) == (1.0, -1.0)
    for co in (case25.coeffs_plus, case25.coeffs_minus):
        for pair in (co.d0, co.d2, co.e1):
            assert len(pair) == 2 and all(type(v) is complex for v in pair)


def test_coefficients_built_once_per_case(monkeypatch):
    # both sides' coefficients come from one call in solve_case; evaluating
    # points builds none
    built = []
    real_field_coeffs = driver.field_coeffs

    def counted(bc, config, p):
        built.append(real_field_coeffs(bc, config, p))
        return built[-1]

    monkeypatch.setattr(driver, "field_coeffs", counted)
    case = driver.solve_case(MaterialConfig(), n=25)
    for k in range(1000):
        evaluate_point(case, (-1.0, 1.0)[k % 2], (0.0, 0.3, 3.0)[k % 3])
    assert built == [(case.coeffs_plus, case.coeffs_minus)]
    assert [co.kappa for co in built[0]] == [1.0, -1.0]


# ---------------------------------------------------------------- points


def test_evaluate_point_is_one_function():
    # one evaluator, defined in fields and re-exported by driver and the package
    assert gradedload.evaluate_point is driver.evaluate_point is fields.evaluate_point


def test_evaluate_point_near(case50):
    res = evaluate_point(case50, -1.0, 0.3)
    assert res.expansion == "near"
    assert res.eta == pytest.approx(0.3)
    for value in (res.u1, res.u2, res.du1_dxi, res.du2_dxi, res.s12, res.s22):
        assert isinstance(value, float) and math.isfinite(value)
    assert 0.0 <= res.imag_residue < 1e-2


def test_evaluate_point_surface_stress_free(case50):
    res = evaluate_point(case50, -1.0, 0.0)
    assert res.expansion == "near"
    assert res.s12 == 0.0 and res.s22 == 0.0
    assert res.u1 > 0.0 and res.u2 > 0.0


def test_evaluate_point_deep(case50):
    res = evaluate_point(case50, -1.0, 3.0)
    assert res.expansion == "deep"
    assert res.u1 is None and res.u2 is None
    assert res.s12 is None and res.s22 is None
    assert isinstance(res.du1_dxi, float) and isinstance(res.du2_dxi, float)


def test_evaluate_point_gates(case50):
    # a gap point is a record with no fields, not an error
    assert evaluate_point(case50, -1.0, 1.5) == FieldResult(
        xi=-1.0, y=1.5, eta=1.5, expansion="out-of-range"
    )
    with pytest.raises(SingularPointError):
        evaluate_point(case50, 0.0, 0.5)
    with pytest.raises(ConfigError):
        evaluate_point(case50, -1.0, -0.5)


def test_run_case_marks_gap_points():
    rc = RunConfig(n=25, points=((-1.0, 0.0), (-1.0, 1.5), (-1.0, 3.0)))
    report = run_case(rc)
    kinds = [res.expansion for res in report.results]
    assert kinds == ["near", "out-of-range", "deep"]
    gap = report.results[1]
    assert gap.u1 is None and gap.du1_dxi is None and gap.s12 is None


def test_readme_library_quickstart():
    # the numbers and the gap-point sentence of the README library quickstart
    case = solve_case(MaterialConfig(nu=0.3, nu_p=0.3, speed_ratio=0.2), n=100)
    res = evaluate_point(case, xi=-1.0, y=0.3)
    assert res.expansion == "near"
    assert (round(res.s12, 4), round(res.s22, 4)) == (0.1142, 0.0763)
    rc = RunConfig(material=case.config, n=100, points=((-1.0, 0.3), (-1.0, 1.5)))
    report = run_case(rc)
    assert report.results == (res, evaluate_point(case, -1.0, 1.5))
    assert report.results[1].expansion == "out-of-range"


# ---------------------------------------------------------------- report


def test_format_report_sections():
    rc = RunConfig(n=25, points=((-1.0, 0.0), (1.0, 0.3)))
    text = format_report(run_case(rc))
    for token in (
        "config: nu=0.1",
        "derived: a_s=5",
        "grid: n=25",
        "determinant: delta_plus=",
        "constants_plus: c1=",
        "constants_minus: c1=",
        "coeffs kappa=+1 j=1:",
        "coeffs kappa=-1 j=2:",
        "point xi=-1 y=0 eta=0 [near]:",
        "point xi=1 y=0.3 eta=0.3 [near]:",
    ):
        assert token in text, token


def test_format_report_sides_off_zero():
    # load at xi0 = 0.5: xi = 0.2 lies on the kappa = +1 side and xi = 0.8
    # on the kappa = -1 side; each side prints its own stored set, the
    # sides in order of first appearance
    material = MaterialConfig(xi0=0.5)

    def coeff_lines(xis):
        report = run_case(RunConfig(material=material, n=25, points=tuple((xi, 0.0) for xi in xis)))
        text = format_report(report)
        return report.case, [line for line in text.splitlines() if line.startswith("coeffs ")]

    def written(label, co):
        return [
            f"coeffs kappa={label} j={j + 1}: d0={_fmtc(co.d0[j])} "
            f"d2={_fmtc(co.d2[j])} e1={_fmtc(co.e1[j])}"
            for j in (0, 1)
        ]

    case, lines = coeff_lines((0.2, 0.8))
    assert case.coeffs_plus.d0 != case.coeffs_minus.d0
    plus, minus = written("+1", case.coeffs_plus), written("-1", case.coeffs_minus)
    assert lines == plus + minus
    assert coeff_lines((0.8, 0.2, 0.8))[1] == minus + plus
    # only points with xi > xi0: no kappa = +1 line
    assert coeff_lines((0.8, 0.9))[1] == minus


# ---------------------------------------------------------------- run config


def test_run_config_gates():
    with pytest.raises(ConfigError):
        RunConfig(sweep="mass")
    with pytest.raises(ConfigError):
        RunConfig(sweep="nu")  # missing range
    # a range that does not unpack to (start, stop, step)
    for bad in ((0.1, 0.5), (0.1, 0.5, 0.1, 0.2), 0.3):
        with pytest.raises(ConfigError, match=r"sweep range must be \(start, stop, step\)"):
            RunConfig(sweep="nu", sweep_range=bad)
    with pytest.raises(ConfigError):
        RunConfig(sweep="nu", sweep_range=(0.1, 0.5, 0.0))
    with pytest.raises(ConfigError):
        RunConfig(sweep="nu", sweep_range=(0.0, 0.5, 0.1))
    with pytest.raises(ConfigError):
        RunConfig(sweep="speed", sweep_range=(0.1, 1.0, 0.1))
    with pytest.raises(ConfigError):
        RunConfig(points=())
    # the point rule of fields.locate, applied before any solve
    with pytest.raises(ConfigError, match="y must be >= 0"):
        RunConfig(points=((-1.0, 0.0), (-1.0, -0.1)))
    with pytest.raises(SingularPointError):
        RunConfig(material=MaterialConfig(xi0=0.5), points=((0.5, 0.3),))
    # so near the load that eta = y/|xi - xi0| overflows, on any point
    with pytest.raises(SingularPointError, match=r"^eta at \|xi - xi0\| = 1\.000e-300, y"):
        RunConfig(points=((-1.0, 0.0), (-1e-300, 1e300)))


def test_run_config_types_malformed_inputs():
    # each is refused by name as a ConfigError, not an untyped TypeError or
    # ValueError from unpacking or comparing it
    for kwargs, message in (
        (dict(points=(-1.0, 0.0)), r"query point must be \(xi, y\) of real numbers, got -1.0"),
        (dict(points=((1.0, 2.0, 3.0),)), r"query point must be \(xi, y\)"),
        (dict(points=3), r"points must be a sequence of \(xi, y\) pairs, got 3"),
        (dict(points=((-1.0, "x"),)),
         r"query point must be \(xi, y\) of real numbers, got \(-1.0, 'x'\)"),
        (dict(sweep="nu", sweep_range=("a", 0.5, 0.1)),
         r"sweep range must be \(start, stop, step\) of real numbers, got \('a', 0.5, 0.1\)"),
        # not hashable, so not looked up in SWEEP_AXES
        (dict(sweep=["nu"], sweep_range=(0.1, 0.5, 0.1)),
         r"sweep must be one of \('nu', 'speed'\), got \['nu'\]"),
    ):
        with pytest.raises(ConfigError, match=message):
            RunConfig(**kwargs)


def test_run_config_refuses_non_material():
    # refused by name before any field of it is read, by RunConfig and by
    # the solve, whose derived parameters apply the same rule
    for material in (None, {"nu": 0.3}):
        for entry in (lambda: RunConfig(material=material), lambda: solve_case(material)):
            with pytest.raises(ConfigError, match=(
                f"^material must be a MaterialConfig, got {re.escape(repr(material))}$"
            )):
                entry()


def test_run_config_int_beyond_float_range_refused():
    # converted before any range check or message, so an int too long to
    # print (Python >= 3.11 refuses above 4300 digits) is refused by name
    for huge in (10**400, 10**5000, -(10**5000)):
        with pytest.raises(ConfigError, match=(
            "^query point xi must be finite, got an integer beyond the float range$"
        )):
            RunConfig(points=((huge, 0.0),))
        with pytest.raises(ConfigError, match=(
            "^sweep range stop must be finite, got an integer beyond the float range$"
        )):
            RunConfig(sweep="nu", sweep_range=(0.1, huge, 0.1))


def test_run_config_unprintable_input_refused():
    # a malformed input that holds an int too long to print (Python >= 3.11
    # refuses above 4300 digits) is shown by its type, so the message is the
    # ConfigError and not a ValueError raised while formatting it
    huge = 10**5000
    for kwargs, message in (
        (dict(points=huge),
         r"points must be a sequence of \(xi, y\) pairs, got an unprintable int$"),
        (dict(points=((huge, "x"),)),
         r"query point must be \(xi, y\) of real numbers, got an unprintable tuple$"),
        (dict(sweep="nu", sweep_range=(0.1, huge)),
         r"sweep range must be \(start, stop, step\) of real numbers, got an unprintable tuple$"),
        (dict(sweep=huge, sweep_range=(0.1, 0.5, 0.1)),
         r"sweep must be one of \('nu', 'speed'\), got an unprintable int$"),
    ):
        with pytest.raises(ConfigError, match=message):
            RunConfig(**kwargs)


def test_run_config_stores_floats():
    rc = RunConfig(
        points=((-1, np.float64(0.5)),), sweep="nu", sweep_range=[np.float64(0.1), 0.5, 0.1]
    )
    assert rc.points == ((-1.0, 0.5),) and rc.sweep_range == (0.1, 0.5, 0.1)
    assert all(type(v) is float for v in rc.points[0] + rc.sweep_range)


def test_run_config_rejects_non_finite_range():
    # a NaN passes every ordered comparison as false and an infinite bound
    # or step gives no grid count, so each must be refused up front
    for bad in (math.nan, math.inf, -math.inf):
        for pos in range(3):
            sweep_range = [0.1, 0.5, 0.1]
            sweep_range[pos] = bad
            with pytest.raises(ConfigError, match="sweep range must be finite"):
                RunConfig(sweep="nu", sweep_range=tuple(sweep_range))


def test_run_config_caps_sweep_size():
    # the grid is only built after validation, so a tiny step is refused
    # before a list of that many values exists
    with pytest.raises(ConfigError, match=r"takes 4e\+11 steps, more than the cap of 10000"):
        RunConfig(sweep="nu", sweep_range=(0.1, 0.5, 1e-12))
    # a step count that overflows to inf
    with pytest.raises(ConfigError, match="takes inf steps"):
        RunConfig(sweep="speed", sweep_range=(0.1, 0.5, 5e-324))
    rc = RunConfig(sweep="nu", sweep_range=(0.1, 0.5, 1e-4))
    assert len(driver._sweep_values(rc.sweep_range)) == 4001
    # an empty sweep takes no steps whatever its step size
    assert run_sweep(RunConfig(sweep="nu", sweep_range=(0.5, 0.1, 1e-12)))[1] == []


def test_run_config_cell_count_rule():
    # the rule of system.cell_count, applied before any solve: an integer
    # with 2 <= n <= MAX_CELLS
    for n in (10**5000, 2**62, system.MAX_CELLS + 1, "abc", -5):
        with pytest.raises(ConfigError, match="^number of cells must"):
            RunConfig(n=n)
    rc = RunConfig(n=np.int64(system.MAX_CELLS))
    assert rc.n == system.MAX_CELLS and type(rc.n) is int


def test_run_config_sweep_range_needs_sweep():
    # a range is validated only for a sweep, so without one it is refused,
    # malformed or not, instead of being stored and ignored
    for sweep_range in ((0.1, 0.5, 0.1), ("a", "b")):
        with pytest.raises(ConfigError, match="^sweep_range given without a sweep axis$"):
            RunConfig(sweep_range=sweep_range)


def test_sweep_values_inclusive():
    assert driver._sweep_values((0.1, 0.5, 0.1)) == pytest.approx(
        [0.1, 0.2, 0.3, 0.4, 0.5]
    )
    assert len(driver._sweep_values((0.1, 0.5, 0.05))) == 9
    assert driver._sweep_values((0.5, 0.1, 0.1)) == []
    # stop < start is an empty sweep even when drift-close to one value
    assert driver._sweep_values((0.5, 0.5 - 1e-12, 0.1)) == []
    assert driver._sweep_values((0.5, 0.5, 0.1)) == [0.5]
    # a step past the endpoint is left out, not rounded back in
    assert driver._sweep_values((0.5, 0.99, 0.5)) == [0.5]
    # a drifted endpoint keeps its bits inside the gate and is clamped to
    # the validated stop where it would reach 1
    assert driver._sweep_values((0.1, 0.3, 0.1))[-1] == 0.1 + 2 * 0.1
    assert driver._sweep_values((0.5, 1 - 1e-11, 0.5)) == [0.5, 1 - 1e-11]


def _sweep_values_by_loop(start, stop, step):
    # reference: step k by k until a value passes stop by more than drift
    values = []
    k = 0
    while start + k * step <= stop + 1e-9 * step:
        value = start + k * step
        values.append(stop if value >= 1.0 else value)
        k += 1
    return values


def test_sweep_values_match_loop():
    # the grid from one count equals stepping until the endpoint is passed,
    # bit for bit, on every two-decimal range in (0, 1) and common steps
    ranges = [
        (a / 100, b / 100, step)
        for a in range(1, 100)
        for b in range(a, 100)
        for step in (0.01, 0.03, 0.05, 0.07, 0.1, 0.25, 0.5)
    ]
    ranges += [(0.5, 1 - 1e-11, 0.5), (0.1, 0.5, 1e-4), (0.3, 0.9, 0.4)]
    for sweep_range in ranges:
        assert driver._sweep_values(sweep_range) == _sweep_values_by_loop(*sweep_range)


# ---------------------------------------------------------------- sweeps


def test_sweep_nu_monotone():
    rc = RunConfig(
        n=50, sweep="nu", sweep_range=(0.1, 0.5, 0.1), points=((-1.0, 0.0),)
    )
    header, rows = run_sweep(rc)
    assert header[0] == "sweep_value" and header[-1] == "error"
    assert len(rows) == 5
    assert all(row[-1] == "" for row in rows)
    u1 = [float(row[1]) for row in rows]
    u2 = [float(row[2]) for row in rows]
    du1 = [float(row[3]) for row in rows]
    # stronger grading localizes the field: displacements fall, slopes rise
    assert all(a > b for a, b in zip(u1, u1[1:]))
    assert all(a > b for a, b in zip(u2, u2[1:]))
    assert all(abs(a) < abs(b) for a, b in zip(du1, du1[1:]))


def test_sweep_speed_increasing():
    rc = RunConfig(
        material=MaterialConfig(nu=0.3),
        n=50,
        sweep="speed",
        sweep_range=(0.2, 0.8, 0.2),
        points=((-1.0, 0.0),),
    )
    header, rows = run_sweep(rc)
    u2 = [float(row[2]) for row in rows]
    assert all(a < b for a, b in zip(u2, u2[1:]))


def test_run_sweep_needs_a_sweep():
    with pytest.raises(ConfigError, match="^run_sweep called without a sweep parameter$"):
        run_sweep(RunConfig())


def test_sweep_empty_range():
    rc = RunConfig(sweep="nu", sweep_range=(0.5, 0.1, 0.1))
    header, rows = run_sweep(rc)
    assert header[0] == "sweep_value"
    assert rows == []


def test_sweep_stays_inside_validated_range():
    # the next grid value after the endpoint (nu = 1.0, V/c_s = 1.1) lies
    # outside the (0, 1) gate that RunConfig checked; so does the endpoint
    # 1 - 1e-11 once float drift carries 0.5 + 0.5 to 1.0.  A config error
    # would abort the sweep; the error column takes only numerical failures,
    # here the realness gate at V/c_s = 1 - 1e-11 and n = 25.
    for sweep, sweep_range, values, errors in (
        ("nu", (0.5, 0.99, 0.5), ["0.5"], [""]),
        ("speed", (0.3, 0.9, 0.4), ["0.3", "0.7"], ["", ""]),
        ("nu", (0.5, 1 - 1e-11, 0.5), ["0.5", "1"], ["", ""]),
        ("speed", (0.5, 1 - 1e-11, 0.5), ["0.5", "1"], ["", "RealnessError"]),
    ):
        rc = RunConfig(n=25, sweep=sweep, sweep_range=sweep_range)
        header, rows = run_sweep(rc)
        assert [row[0] for row in rows] == values
        assert [row[-1] for row in rows] == errors


def test_sweep_error_column(monkeypatch):
    calls = []
    real_solve_case = driver.solve_case

    def flaky(material, n=100):
        calls.append(material.nu)
        if abs(material.nu - 0.2) < 1e-12:
            raise DegenerateDeterminantError("synthetic failure")
        return real_solve_case(material, n=n)

    monkeypatch.setattr(driver, "solve_case", flaky)
    rc = RunConfig(n=25, sweep="nu", sweep_range=(0.1, 0.3, 0.1))
    header, rows = run_sweep(rc)
    assert len(rows) == 3
    assert rows[0][-1] == "" and rows[2][-1] == ""
    assert rows[1][-1] == "DegenerateDeterminantError"
    assert all(cell == "" for cell in rows[1][1:-1])


def test_sweep_rejects_gap_point(case50):
    # a sweep evaluates only its first point, so a gap point there is refused
    # while the config is built; evaluate_point and a single case mark the
    # same point out-of-range instead
    with pytest.raises(ExpansionRangeError, match=(
        r"^eta = 1\.500 falls between the near range \(<= 1\.0\) "
        r"and the deep range \(>= 2\.0\)$"
    )):
        RunConfig(n=25, sweep="nu", sweep_range=(0.1, 0.2, 0.1), points=((-1.0, 1.5),))
    assert evaluate_point(case50, -1.0, 1.5).expansion == "out-of-range"
    RunConfig(n=25, points=((-1.0, 1.5),))
    RunConfig(n=25, sweep="nu", sweep_range=(0.1, 0.2, 0.1), points=((-1.0, 0.0), (-1.0, 1.5)))


# ---------------------------------------------------------------- CSV


def test_csv_deterministic():
    rc1 = RunConfig(n=25, sweep="nu", sweep_range=(0.1, 0.3, 0.1))
    header1, rows1 = run_sweep(rc1)
    header2, rows2 = run_sweep(
        RunConfig(n=25, sweep="nu", sweep_range=(0.1, 0.3, 0.1))
    )
    assert csv_text(header1, rows1) == csv_text(header2, rows2)
    text = csv_text(header1, rows1)
    assert text.startswith("sweep_value,u1,u2,")
    assert "\r\n" in text
