"""The benchmark's own references for judging ffcalc's outputs.

Nothing here imports ffcalc: every closed form is derived from the problem
data, so a wrong answer in the library cannot also be the yardstick.
"""

from __future__ import annotations

import io
import math

import numpy as np

from harness import require, within

KOCH_DIM = math.log(4.0) / math.log(3.0)
# mass of the whole Koch curve at its similarity order: 4^k pieces of
# length 3^-k give sum(len^alpha) = 1 at every level
KOCH_MASS = 1.0 / math.gamma(1.0 + KOCH_DIM)
UNIT_ROUNDOFF = 2.0**-53

# crisp data of the built-in second-order problem x'' - 4x' + 4x = 1 - 2J^2
# with boundary triangles (2, 3, 4) at J = 0 and (1, 2, 2.5) at J = 1
EX2_START = (2.0, 3.0, 4.0)
EX2_END = (1.0, 2.0, 2.5)


def sum_tol(n_terms: int, total: float) -> float:
    """Error bound of a recursive sum of n non-negative terms (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., eq. 4.4),
    floored at 1e-12."""
    return max(1e-12, (n_terms - 1) * UNIT_ROUNDOFF * abs(total))


def koch_J(u):
    """Staircase of the standard Koch polyline at its similarity order.

    Every level-k piece has parameter length 4^-k and mass 4^-k * KOCH_MASS,
    so J is exactly linear in u at the vertices.
    """
    return np.asarray(u, dtype=float) * KOCH_MASS


def tri_cuts(tri, rs):
    """Level cuts of the triangular number (a, b, c) on the grid ``rs``."""
    a, b, c = tri
    return a * (1.0 - rs) + b * rs, c * (1.0 - rs) + b * rs


# ---------------------------------------------------------------------------
# first-order linear problems x' = a x + c, a > 0, fuzzy x0 and c


def linear_band(params: dict, t, rs):
    """Closed-form band of the linear problem after J-distance ``t``.

    Case I is endpoint-wise: each endpoint is its own scalar exponential.
    Case II couples them; the sum s = lo + up and the width d = up - lo
    decouple into s' = a s + (c_lo + c_hi) and d' = -a d + (c_lo - c_hi).
    """
    a = params["a"]
    t = np.asarray(t, dtype=float)[:, None]
    lo0, up0 = tri_cuts(params["x0"], rs[None, :])
    clo, chi = tri_cuts(params["c"], rs[None, :])
    grow = np.exp(a * t)
    if params["case"] == "I":
        return grow * lo0 + clo * (grow - 1.0) / a, grow * up0 + chi * (grow - 1.0) / a
    decay = np.exp(-a * t)
    s = grow * (lo0 + up0) + (clo + chi) * (grow - 1.0) / a
    d = decay * (up0 - lo0) + (clo - chi) * (1.0 - decay) / a
    return 0.5 * (s - d), 0.5 * (s + d)


def band_margin(lower, upper) -> np.ndarray:
    """Per row, how far a band table is from breaking the fuzzy-number
    shape (negative once a lower end falls, an upper end rises or the ends
    cross)."""
    return np.minimum.reduce(
        [
            np.min(np.diff(lower, axis=1), axis=1),
            np.min(-np.diff(upper, axis=1), axis=1),
            np.min(upper - lower, axis=1),
        ]
    )


def check_linear_solution(params, us, Js, rs, lower, upper, valid, J_of_u, tol=1e-6):
    """Judge a first-order solution table against :func:`linear_band`.

    ``J_of_u`` is the benchmark's own staircase; the library's J column must
    match it, the band must match on rows flagged valid, and the flags must
    agree with the closed form's shape wherever that is clear of rounding.
    Returns the error as a share of ``tol``.
    """
    J_ref = J_of_u(us)
    within("J column", float(np.max(np.abs(Js - J_ref))), 1e-12)
    lo_ref, up_ref = linear_band(params, J_ref - J_ref[0], rs)
    scale = max(1.0, float(np.max(np.abs(lo_ref))), float(np.max(np.abs(up_ref))))
    margin = band_margin(lo_ref, up_ref) / scale
    clear = np.abs(margin) > 1e-6
    bad = np.flatnonzero(clear & (valid != (margin > 0.0)))
    require(bad.size == 0, f"validity flag wrong at {bad.size} rows, first u={us[bad[:1]]}")
    require(bool(valid[0]) and np.count_nonzero(valid) >= 2, "no valid row beyond the start")
    err = np.maximum(np.abs(lower - lo_ref), np.abs(upper - up_ref))[valid]
    return within("band", float(np.max(err)), tol)


def parse_solution_csv(data: bytes):
    """Columns (us, Js, rs, lower, upper, valid) of a ``u,J,r,lower,upper,valid`` file."""
    head, _, body = data.partition(b"\n")
    require(head.strip() == b"u,J,r,lower,upper,valid", f"bad solution header {head[:60]!r}")
    table = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    rs_all = table[:, 2]
    n_r = int(np.argmax(np.diff(rs_all) < 0)) + 1
    require(table.shape[0] % n_r == 0, "rows do not form a u x r grid")
    grid = table.reshape(-1, n_r, 6)
    require(np.all(grid[:, :, 2] == grid[:1, :, 2]), "r column differs between u rows")
    return (
        grid[:, 0, 0], grid[:, 0, 1], grid[0, :, 2], grid[:, :, 3], grid[:, :, 4],
        grid[:, 0, 5] != 0.0,
    )


# ---------------------------------------------------------------------------
# second-order example: x'' - 4x' + 4x = 1 - 2J^2, x(0) = 3, x(1) = 2


def ex2_crisp(J):
    """Particular part -(J+1)^2/2 plus (c1 + c2 J) e^{2J} fitted to the peaks."""
    J = np.asarray(J, dtype=float)
    c1 = EX2_START[1] + 0.5
    c2 = (EX2_END[1] + 2.0) * math.exp(-2.0) - c1
    return -0.5 * (J + 1.0) ** 2 + (c1 + c2 * J) * np.exp(2.0 * J)


def check_bvp(js, crisp, un_lower, un_upper, tol=1e-8):
    """Crisp part against the closed form; uncertainty envelope must start
    and end on the boundary spreads and bracket zero."""
    m = within("crisp", float(np.max(np.abs(crisp - ex2_crisp(js)))), tol)
    ends = [
        (un_lower[0], EX2_START[0] - EX2_START[1]),
        (un_upper[0], EX2_START[2] - EX2_START[1]),
        (un_lower[-1], EX2_END[0] - EX2_END[1]),
        (un_upper[-1], EX2_END[2] - EX2_END[1]),
    ]
    within("envelope ends", max(abs(got - want) for got, want in ends), 1e-9)
    require(np.all(un_lower <= 1e-12) and np.all(un_upper >= -1e-12), "envelope misses zero")
    return m


# ---------------------------------------------------------------------------
# curves


def check_koch_table(us, Js, level: int):
    """A Koch staircase at the similarity order: J = u * KOCH_MASS at every
    vertex, within the rounding of its running sum."""
    n = 4**level
    require(us.size == n + 1, f"{us.size} rows, expected {n + 1}")
    require(us[0] == 0.0 and us[-1] == 1.0, "parameter range is not [0, 1]")
    within("u grid", float(np.max(np.abs(us - np.arange(n + 1) / n))), 1e-15)
    tol = sum_tol(n, KOCH_MASS)
    within("J end", abs(float(Js[-1]) - KOCH_MASS), tol)
    return within("J column", float(np.max(np.abs(Js - koch_J(us)))), tol)


def parse_staircase_csv(data: bytes):
    head, _, body = data.partition(b"\n")
    require(head.strip() == b"u,J", f"bad staircase header {head[:60]!r}")
    table = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    return table[:, 0], table[:, 1]


def check_dimension(estimate: float, curve: str):
    if curve == "segment":
        require(estimate == 1.0, f"segment dimension {estimate!r}, expected exactly 1.0")
        return None
    return within("Koch dimension", abs(estimate - KOCH_DIM), 0.01)


# ---------------------------------------------------------------------------
# fuzzy arithmetic on triangular numbers


def hukuhara_exists(A, B) -> bool:
    """A (-) B exists for triangles iff both spreads of A are at least B's."""
    return (A[1] - A[0] >= B[1] - B[0]) and (A[2] - A[1] >= B[2] - B[1])


def check_cuts(name, lowers, uppers, want_lo, want_up, tol):
    err = max(float(np.max(np.abs(lowers - want_lo))), float(np.max(np.abs(uppers - want_up))))
    return within(name, err, tol)

