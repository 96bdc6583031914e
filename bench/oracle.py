"""Checks of steinalg reports against results that owe nothing to steinalg.

Nothing here imports the package under test.  The expected values come
from classical facts about the free group of rank two on c, d:

* the sphere of radius n has |S_n| = 4 * 3^(n-1) reduced words;
* the normalized sphere averages satisfy mu_1 mu_k = 1/4 mu_(k-1) +
  3/4 mu_(k+1), so b_k = mu_k = P_k(mu_1) with P_0 = 1, P_1 = x and
  x P_k = 1/4 P_(k-1) + 3/4 P_(k+1);
* Kesten (1959): mu_1 is self-adjoint with spectrum [-sqrt3/2, sqrt3/2],
  so ||f(mu_1)|| = max |f| over that interval for a real polynomial f;
* Haagerup (1979): ||mu_n|| = (1 + n/2) 3^(-n/2).

Every function returns a list of problems; an empty list means the report
passed.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction

# points of the grid on [-sqrt3/2, sqrt3/2], both ends included; on a
# smooth extremum the grid maximum is short of the true one by O(h^2),
# far below GRID_TOL
GRID_POINTS = 20001
GRID_TOL = 1e-6
# float slack for bounds the CLI computes in double precision
FLOAT_TOL = 1e-12


def sphere_size(n: int) -> int:
    return 4 * 3 ** (n - 1)


def sphere_norm(n: int) -> float:
    """Haagerup's closed form for the reduced norm of mu_n."""
    return (1 + n / 2) * 3 ** (-n / 2)


def _radial_values(x: float, top: int) -> list[float]:
    """P_0(x), ..., P_top(x) from the three-term recurrence."""
    vals = [1.0, x]
    for k in range(1, top):
        vals.append((4 * x * vals[k] - vals[k - 1]) / 3)
    return vals


@functools.lru_cache(maxsize=None)
def radial_norm(coeffs: tuple[tuple[int, int], ...]) -> float:
    """max |sum c_k P_k(x)| over the grid of the Kesten interval, for
    integer coefficients given as (k, c_k) pairs."""
    edge = math.sqrt(3) / 2
    top = max(max(k for k, _ in coeffs), 1)
    best = 0.0
    for i in range(GRID_POINTS):
        x = edge * (2 * i / (GRID_POINTS - 1) - 1)
        vals = _radial_values(x, top)
        best = max(best, abs(sum(c * vals[k] for k, c in coeffs)))
    return best


def difference_norm(n: int, m: int) -> float:
    """||b_n - b_m|| in the reduced algebra of the free group."""
    return radial_norm(((n, 1), (m, -1)))


def _load(report: bytes, command: str) -> tuple[dict, list[str]]:
    try:
        data = json.loads(report)
    except ValueError as exc:
        return {}, [f"report is not JSON: {exc}"]
    if not isinstance(data, dict):
        return {}, ["report is not a JSON object"]
    problems = []
    if data.get("schema_version") != 1:
        problems.append(f"schema_version {data.get('schema_version')!r} != 1")
    if data.get("command") != command:
        problems.append(f"command {data.get('command')!r} != {command!r}")
    checks = data.get("checks") or []
    if not checks:
        problems.append("report lists no checks")
    for check in checks:
        if check.get("status") != "pass":
            problems.append(f"check {check.get('id')} reports {check.get('status')}")
    if (data.get("summary") or {}).get("failed") != 0:
        problems.append("summary does not read failed = 0")
    return data, problems


def _sup_dist_problem(where: str, text, n: int) -> list[str]:
    want = Fraction(1, sphere_size(n))
    try:
        got = Fraction(text)
    except (TypeError, ValueError):
        return [f"{where}: sup_dist {text!r} is not a fraction"]
    return [] if got == want else [f"{where}: sup_dist {got} != 1/|S_{n}| = {want}"]


def check_verify(report: bytes, example: str, indices, radius: int, seed: int) -> list[str]:
    """Problems with a ``verify`` JSON report for the given configuration."""
    data, problems = _load(report, "verify")
    if not data:
        return problems
    config = data.get("config") or {}
    want_config = {"example": example, "indices": list(indices), "radius": radius, "seed": seed}
    for key, want in want_config.items():
        if config.get(key) != want:
            problems.append(f"config {key} {config.get(key)!r} != {want!r}")
    cauchy = data.get("cauchy") or {}
    pairs = cauchy.get("pairs") or []
    want_pairs = [(n, m) for n in indices for m in indices if n < m]
    if sorted((p.get("n"), p.get("m")) for p in pairs) != sorted(want_pairs):
        problems.append(f"cauchy pairs do not cover {want_pairs}")
    for p in pairs:
        n, m = p.get("n"), p.get("m")
        if (n, m) not in want_pairs:
            continue
        where = f"pair ({n},{m})"
        problems += _sup_dist_problem(where, p.get("sup_dist"), min(n, m))
        exact = difference_norm(n, m)
        lower, upper = p.get("lower_bound"), p.get("upper_bound")
        if not isinstance(lower, (int, float)) or lower > exact + GRID_TOL:
            problems.append(f"{where}: lower {lower} above ||b_n - b_m|| = {exact:.9f}")
        if not isinstance(upper, (int, float)) or exact > upper + GRID_TOL:
            problems.append(f"{where}: upper {upper} below ||b_n - b_m|| = {exact:.9f}")
    limits = cauchy.get("limits") or []
    if sorted(r.get("n") for r in limits) != sorted(indices):
        problems.append(f"limit rows do not cover {list(indices)}")
    for r in limits:
        if r.get("n") in indices:
            problems += _sup_dist_problem(f"limit n={r['n']}", r.get("sup_dist"), r["n"])
    return problems


def check_scatter(report: bytes, indices, radius: int) -> list[str]:
    """Problems with a ``scatter`` JSON report for the given indices."""
    data, problems = _load(report, "scatter")
    if not data:
        return problems
    rows = data.get("rows") or []
    if [r.get("n") for r in rows] != list(indices):
        problems.append(f"rows {[r.get('n') for r in rows]} != indices {list(indices)}")
    for r in rows:
        n = r.get("n")
        if n not in indices:
            continue
        if r.get("sphere_size") != sphere_size(n):
            problems.append(f"n={n}: sphere_size {r.get('sphere_size')} != {sphere_size(n)}")
        if r.get("radius") != radius:
            problems.append(f"n={n}: radius {r.get('radius')} != {radius}")
        exact = sphere_norm(n)
        lower, upper = r.get("lower"), r.get("upper")
        if not isinstance(lower, (int, float)) or lower > exact + FLOAT_TOL:
            problems.append(f"n={n}: lower {lower} above ||mu_n|| = {exact:.12f}")
        if not isinstance(upper, (int, float)) or exact > upper + FLOAT_TOL:
            problems.append(f"n={n}: upper {upper} below ||mu_n|| = {exact:.12f}")
    return problems


def doctored(report: bytes) -> list[tuple[str, bytes]]:
    """Wrong copies of a report: a lower bound above the closed form and,
    for ``verify``, a sup distance whose denominator is off by one."""
    data = json.loads(report)
    out = []
    if data.get("command") == "scatter":
        row = data["rows"][0]
        bad = json.loads(report)
        bad["rows"][0]["lower"] = sphere_norm(row["n"]) + 0.01
        out.append(("a lower bound above (1+n/2)3^(-n/2)", json.dumps(bad).encode()))
        return out
    pair = data["cauchy"]["pairs"][0]
    bad = json.loads(report)
    bad["cauchy"]["pairs"][0]["lower_bound"] = difference_norm(pair["n"], pair["m"]) + 0.01
    out.append(("a lower bound above ||b_n - b_m||", json.dumps(bad).encode()))
    bad = json.loads(report)
    dist = Fraction(pair["sup_dist"])
    bad["cauchy"]["pairs"][0]["sup_dist"] = str(Fraction(1, dist.denominator + 1))
    out.append(("a sup distance off by one", json.dumps(bad).encode()))
    return out
