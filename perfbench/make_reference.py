#!/usr/bin/env python3
"""Generate reference.json: n -> infinity limits of delta_plus.

Run from the repository root (takes about a minute and ~0.5 GB at n = 800)::

    python3 perfbench/make_reference.py

For each reference config (the solve-n400 configs) ``delta_plus`` is solved
at n = 100, 200, 400 and 800.  The limit is Richardson-extrapolated with an
estimated order (Aitken's delta-squared on successive doublings) over the
triple (100, 200, 400) and over (200, 400, 800).  The second triple gives
the recorded limit; the relative distance between the two is recorded as
``agreement``, the uncertainty of the limit.  For nu = 0.3 the limit is
1.25400 to five digits.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import cmath
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gradedload import MaterialConfig, solve_case  # noqa: E402

# nu, V/c_s, nu_p: low and high grading, low and high speed, and the
# README config (nu = 0.3), all clear of the RealnessError region.
CONFIGS = (
    (0.3, 0.2, 0.3),
    (0.1, 0.2, 0.3),
    (0.6, 0.5, 0.25),
    (0.85, 0.35, 0.1),
    (0.2, 0.6, 0.4),
)
SIZES = (100, 200, 400, 800)


def extrapolate(d1: complex, d2: complex, d3: complex) -> tuple[complex, float]:
    """Limit and order from three values at n, 2n, 4n."""
    ratio = (d3 - d2) / (d2 - d1)
    order = -cmath.log(ratio).real / cmath.log(2.0).real
    return d3 + (d3 - d2) * ratio / (1.0 - ratio), order


def main() -> int:
    entries = []
    for nu, speed, nu_p in CONFIGS:
        material = MaterialConfig(nu=nu, speed_ratio=speed, nu_p=nu_p)
        values = {n: solve_case(material, n=n).constants.delta_plus for n in SIZES}
        low, order_low = extrapolate(*(values[n] for n in SIZES[:3]))
        high, order_high = extrapolate(*(values[n] for n in SIZES[1:]))
        agreement = abs(high - low) / abs(high)
        entries.append({
            "nu": nu, "speed_ratio": speed, "nu_p": nu_p,
            "delta_plus": {str(n): [v.real, v.imag] for n, v in values.items()},
            "limit": [high.real, high.imag],
            "limit_100_200_400": [low.real, low.imag],
            "order_100_200_400": order_low,
            "order_200_400_800": order_high,
            "agreement": agreement,
        })
        print(f"nu={nu} V/c_s={speed} nu_p={nu_p}: limit {high.real:.6f}{high.imag:+.2e}j "
              f"order {order_high:.3f} agreement {agreement:.1e}", file=sys.stderr)
    data = {
        "about": "n -> infinity limits of delta_plus; see make_reference.py",
        "sizes": list(SIZES),
        "configs": entries,
    }
    (HERE / "reference.json").write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
