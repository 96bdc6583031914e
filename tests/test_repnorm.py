"""Certified norm estimates.

The oracle for every lower bound is a dense singular value decomposition:
opnorm_lower may never exceed sigma_max of the matrix it was given (with
boundary columns dropped), and on small matrices it must attain it.  Walk
operators are cross-checked against a germ enumeration kept here as a
test-local oracle: the matrix of left convolution on an orbit basis at a
z-rooted word must be, up to a basis permutation, the ball truncation that
stein_H_norm_bound builds directly from the fiber coefficients (the
shortcut "z-rooted germs are the left regular representation of H").  The
index-gather kernel of h_ball_operator is checked against a column loop of
free-word products, kept here as its oracle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from steinalg import bundle as bundle_module, repnorm, steinberg

from steinalg.bundle import (
    WHOLE_SET,
    bstein,
    bundle_a,
    bundle_bn,
    bundle_chiB,
    bstein_conv,
)
from steinalg.groups import W_ONE, ball, free_word, sphere
from steinalg.repnorm import (
    LimitRow,
    NormEstimate,
    SparseOperator,
    bundle_norm_bound,
    cauchy_profile,
    h_ball_operator,
    haagerup_bound,
    opnorm_lower,
    rho_estimate,
    stein_H_norm_bound,
)
from steinalg.selfsim import (
    EPS,
    FinWord,
    Germ,
    S_ONE,
    Word,
    finword,
    germ_key,
    omega,
    s_apply,
    s_defined_at,
    s_from_group,
    s_mul,
    yl,
    zl,
)
from steinalg.steinberg import (
    REGION_B,
    SteinElt,
    h_elt,
    st_a,
    st_bn,
    st_conv,
    st_eval,
    st_make,
)


Z_WORD = omega(EPS, finword(zl(1)))
Y_WORD = omega(EPS, finword(yl(1, 0)))


def sparse_operator(shape, entries, boundary_cols=()) -> SparseOperator:
    """SparseOperator from a {(i, j): c} dict; zero entries are dropped,
    and the boundary columns become a sorted array."""
    cells = [(ij, c) for ij, c in sorted(entries.items()) if c != 0]
    rows = np.array([i for (i, _), _ in cells], dtype=np.intp)
    cols = np.array([j for (_, j), _ in cells], dtype=np.intp)
    return SparseOperator(
        shape,
        rows,
        cols,
        np.arange(len(cells), dtype=np.intp),
        tuple(c for _, c in cells),
        np.array(sorted(boundary_cols), dtype=np.intp),
    )


def oracle_sigma_max(op) -> float:
    """Dense SVD of the matrix with boundary columns dropped."""
    dense = np.zeros(op.shape)
    boundary = set(op.boundary_cols.tolist())
    for i, j, c in op.entries:
        if j not in boundary:
            dense[i, j] += float(c)
    if not dense.any():
        return 0.0
    return float(np.linalg.svd(dense, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# germ bases and orbit enumeration (the test-local oracle)
# ---------------------------------------------------------------------------


def germ_label(g: Germ) -> str:
    """Class of the germ's range word: 'B' (y-rooted), 'C' (z-rooted), or
    'eps' (the empty finite word)."""
    r = s_apply(g.s, g.word)
    if isinstance(r, FinWord):
        if len(r) == 0:
            return "eps"
        first = r[0]
    else:
        first = r.prefix(1)[0]
    return "B" if first.family == "y" else "C"


@dataclass(frozen=True)
class GermBasis:
    """An ordered list of distinct germs at a common base word."""

    word: Word
    germs: tuple[Germ, ...]
    labels: tuple[str, ...]
    _by_key: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_key = {}
        for i, g in enumerate(self.germs):
            if g.word != self.word:
                raise ValueError("basis germs must share the base word")
            key = germ_key(g.s, g.word)
            if key in by_key:
                raise ValueError("basis germs must be pairwise distinct")
            by_key[key] = i
        object.__setattr__(self, "_by_key", by_key)

    def __len__(self) -> int:
        return len(self.germs)

    def index(self, key) -> Optional[int]:
        return self._by_key.get(key)


def enumerate_orbit(f: SteinElt, w: Word, steps: int) -> GermBasis:
    """Germs at w reachable from the unit germ by at most ``steps`` left
    multiplications by terms of f with nonzero value.  The seed [1, w] is
    always included; duplicates are pruned by the canonical germ key, so
    terms that agree near the current range word contribute one germ.
    """
    seed = Germ(S_ONE, w)
    germs = [seed]
    seen = {germ_key(S_ONE, w)}
    frontier = [seed]
    for _ in range(steps):
        nxt = []
        for gm in frontier:
            r = s_apply(gm.s, gm.word)
            for t, _ in f.terms:
                if not s_defined_at(t, r) or st_eval(f, Germ(t, r)) == 0:
                    continue
                prod = s_mul(t, gm.s)
                key = germ_key(prod, w)
                if key in seen:
                    continue
                seen.add(key)
                new = Germ(prod, w)
                germs.append(new)
                nxt.append(new)
        frontier = nxt
        if not frontier:
            break
    return GermBasis(w, tuple(germs), tuple(germ_label(g) for g in germs))


def lambda_matrix(f: SteinElt, basis: GermBasis) -> SparseOperator:
    """Matrix of left convolution by f on the span of the basis germs.

    Column j collects f(alpha) over the distinct germs alpha of terms of f
    at the range word of gamma_j; the product germ alpha gamma_j indexes
    the row.  A product germ outside the basis flags column j as boundary.
    """
    entries: dict[tuple[int, int], Fraction] = {}
    boundary = set()
    for j, gm in enumerate(basis.germs):
        r = s_apply(gm.s, gm.word)
        reps = {}
        for t, _ in f.terms:
            if s_defined_at(t, r):
                reps.setdefault(germ_key(t, r), t)
        for t in reps.values():
            val = st_eval(f, Germ(t, r))
            if val == 0:
                continue
            prod = s_mul(t, gm.s)
            i = basis.index(germ_key(prod, basis.word))
            if i is None:
                boundary.add(j)
            else:
                entries[(i, j)] = entries.get((i, j), Fraction(0)) + val
    return sparse_operator((len(basis), len(basis)), entries, boundary)


def test_basis_rejects_duplicates_and_foreign_words():
    g = Germ(S_ONE, Z_WORD)
    with pytest.raises(ValueError):
        GermBasis(Z_WORD, (g, g), ("C", "C"))
    with pytest.raises(ValueError):
        GermBasis(Y_WORD, (g,), ("C",))


def test_orbit_at_z_word_separates_sphere_elements():
    basis = enumerate_orbit(st_bn(1), Z_WORD, 1)
    assert len(basis) == 5  # the seed germ plus one germ per sphere element
    assert basis.labels == ("C",) * 5
    assert basis.germs[0].s == S_ONE
    assert enumerate_orbit(st_bn(1), Z_WORD, 2).labels == ("C",) * 17
    assert len(enumerate_orbit(st_bn(1), Z_WORD, 3)) == len(ball(3))


def test_orbit_at_y_word_collapses_to_seed():
    basis = enumerate_orbit(st_bn(1), Y_WORD, 3)
    assert len(basis) == 1
    assert basis.labels == ("B",)


def test_orbit_labels_empty_word():
    f = st_make([(s_from_group(h_elt(free_word("c"))), Fraction(1))])
    basis = enumerate_orbit(f, EPS, 3)
    assert len(basis) == 4
    assert basis.labels == ("eps",) * 4


def test_lambda_matrix_is_identity_on_collapsed_basis():
    basis = enumerate_orbit(st_bn(2), Y_WORD, 2)
    m = lambda_matrix(st_bn(2), basis)
    assert m.entries == ((0, 0, Fraction(1)),)
    assert m.boundary_cols.tolist() == []


def test_lambda_matrix_shift_with_boundary():
    f = st_make([(s_from_group(h_elt(free_word("c"))), Fraction(1))])
    basis = enumerate_orbit(f, EPS, 3)
    m = lambda_matrix(f, basis)
    assert m.entries == (
        (1, 0, Fraction(1)),
        (2, 1, Fraction(1)),
        (3, 2, Fraction(1)),
    )
    assert m.boundary_cols.tolist() == [3]


def test_lambda_matrix_sphere_average_one_step():
    basis = enumerate_orbit(st_bn(1), Z_WORD, 1)
    m = lambda_matrix(st_bn(1), basis)
    col0 = sorted((i, c) for i, j, c in m.entries if j == 0)
    assert col0 == [(i, Fraction(1, 4)) for i in (1, 2, 3, 4)]
    row0 = sorted((j, c) for i, j, c in m.entries if i == 0)
    assert row0 == [(j, Fraction(1, 4)) for j in (1, 2, 3, 4)]
    assert m.boundary_cols.tolist() == [1, 2, 3, 4]


def test_lambda_matrix_agrees_with_ball_truncation():
    # at a z-rooted word the orbit of b_1 is a copy of the radius-3 ball,
    # so the two constructions give the same operator up to a permutation
    basis = enumerate_orbit(st_bn(1), Z_WORD, 3)
    via_germs = lambda_matrix(st_bn(1), basis)
    direct = h_ball_operator(*as_walk({h: Fraction(1, 4) for h in sphere(1)}), 3)
    assert via_germs.shape == direct.shape
    assert len(via_germs.boundary_cols) == len(direct.boundary_cols)
    lo1 = opnorm_lower(via_germs, tol=1e-12)
    lo2 = opnorm_lower(direct, tol=1e-12)
    assert lo1.lower == pytest.approx(lo2.lower, abs=1e-9)


def test_stein_H_norm_bound_matches_germ_oracle():
    # stein_H_norm_bound never builds germs: it takes |sum of coefficients|
    # for y-rooted words and a ball truncation of the free group for
    # z-rooted ones; orbit bases at a y- and a z-rooted word rebuild both
    # parts from germs (two steps of b_1, b_2 reach the radius-4 ball)
    w1, w2 = -1, 2
    f = st_make(
        [(s, w1 * c) for s, c in st_bn(1).terms]
        + [(s, w2 * c) for s, c in st_bn(2).terms]
    )
    at_z = enumerate_orbit(f, finword(zl(1)), 2)
    assert {g.s.g.h for g in at_z.germs} == set(ball(4))
    m = lambda_matrix(f, at_z)
    at_y = lambda_matrix(f, enumerate_orbit(f, Y_WORD, 2))
    assert at_y.shape == (1, 1)
    collapse = sum((c for _, _, c in at_y.entries), Fraction(0))
    assert collapse == w1 + w2
    est = stein_H_norm_bound([(f, 1)], radius=4, tol=1e-9)
    assert est.interior_cols == m.shape[1] - len(m.boundary_cols) == len(ball(2))
    assert est.lower == pytest.approx(
        max(float(abs(collapse)), opnorm_lower(m).lower), abs=1e-9
    )


# ---------------------------------------------------------------------------
# certified lower bounds
# ---------------------------------------------------------------------------


def test_opnorm_small_matrices_attain_sigma_max():
    rng = random.Random(7)
    for _ in range(20):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        entries = {}
        for i in range(rows):
            for j in range(cols):
                if rng.random() < 0.6:
                    entries[(i, j)] = Fraction(rng.randrange(-5, 6))
        op = sparse_operator((rows, cols), entries)
        est = opnorm_lower(op, tol=1e-12)
        sigma = oracle_sigma_max(op)
        assert est.lower == pytest.approx(sigma, abs=1e-9)


def test_opnorm_never_exceeds_sigma_max_with_boundary():
    rng = random.Random(11)
    for _ in range(20):
        entries = {}
        for i in range(6):
            for j in range(6):
                if rng.random() < 0.5:
                    entries[(i, j)] = Fraction(rng.randrange(-4, 5))
        boundary = {j for j in range(6) if rng.random() < 0.4}
        op = sparse_operator((6, 6), entries, boundary)
        est = opnorm_lower(op, tol=1e-12)
        assert est.lower <= oracle_sigma_max(op) + 1e-9


def test_opnorm_ignores_boundary_columns():
    op = sparse_operator(
        (2, 2), {(0, 1): Fraction(100), (1, 0): Fraction(1)}, {1}
    )
    assert opnorm_lower(op).lower == pytest.approx(1.0)
    empty = sparse_operator((2, 2), {(0, 1): Fraction(100)}, {1})
    est = opnorm_lower(empty)
    assert est.lower == 0.0 and est.iterations == 0
    # every column boundary, on both sides of the dense-SVD cut
    for n in (5, 700):
        entries = {(i, (i + 1) % n): Fraction(3) for i in range(n)}
        est = opnorm_lower(sparse_operator((n, n), entries, range(n)))
        assert (est.lower, est.iterations, est.interior_cols) == (0.0, 0, 0)


def test_kernel_products_match_dense_oracle():
    # A v and A^T u over the interior arrays against the dense matrix of
    # oracle_sigma_max, on both sides of the dense-SVD cut of 600 columns
    rng = random.Random(17)
    for rows, cols in ((40, 37), (300, 590), (650, 700), (900, 640)):
        entries = {
            (rng.randrange(rows), rng.randrange(cols)): Fraction(
                rng.randrange(-9, 10), rng.randrange(1, 8)
            )
            for _ in range(6 * cols)
        }
        boundary = {j for j in range(cols) if rng.random() < 0.3}
        op = sparse_operator((rows, cols), entries, boundary)
        dense = np.zeros(op.shape)
        for i, j, c in op.entries:
            if j not in boundary:
                dense[i, j] += float(c)
        r, c, vals = op.interior_arrays()
        assert len(vals) == np.count_nonzero(dense) > 0
        nprng = np.random.default_rng(rows)
        v = nprng.standard_normal(cols)
        u = nprng.standard_normal(rows)
        av = repnorm._spmv(r, c, vals, v, rows)
        atu = repnorm._spmv(c, r, vals, u, cols)
        assert np.max(np.abs(av - dense @ v)) <= 1e-12
        assert np.max(np.abs(atu - dense.T @ u)) <= 1e-12


def test_opnorm_power_path_matches_oracle():
    # above the dense cutoff the iterative path must still converge
    rng = random.Random(3)
    n = 700
    entries = {}
    for _ in range(4000):
        entries[(rng.randrange(n), rng.randrange(n))] = Fraction(
            rng.randrange(1, 10)
        )
    op = sparse_operator((n, n), entries)
    est = opnorm_lower(op, tol=1e-13)
    dense = np.zeros((n, n))
    for i, j, c in op.entries:
        dense[i, j] = float(c)
    sigma = float(np.linalg.svd(dense, compute_uv=False)[0])
    assert est.lower <= sigma + 1e-9
    assert est.lower == pytest.approx(sigma, rel=1e-6)
    assert est.iterations > 1


# ---------------------------------------------------------------------------
# walk operators on the free factor
# ---------------------------------------------------------------------------


def as_walk(coeffs):
    """A {FreeWord: Fraction} combination as the walk the norm layer
    takes, ``(walk, denom)``: letter strings to the nonzero numerators
    over the lcm of the denominators."""
    denom = math.lcm(*(c.denominator for c in coeffs.values()))
    return {h.chars: int(c * denom) for h, c in coeffs.items() if c}, denom


def test_ball_operator_single_generator():
    op = h_ball_operator({"c": 1}, 1, 1)
    # ball(1) sorted: 1, C, D, c, d; c*1 = c interior, c*C = 1 interior,
    # the other three products leave the ball
    words = ball(1)
    idx = {w.chars: i for i, w in enumerate(words)}
    assert op.entries == (
        (idx[""], idx["C"], Fraction(1)),
        (idx["c"], idx[""], Fraction(1)),
    )
    assert op.boundary_cols.tolist() == sorted([idx["D"], idx["c"], idx["d"]])


def oracle_step_tables(radius: int) -> dict[str, np.ndarray]:
    """The letter tables built from words: x * w is w's tail when w starts
    with x's inverse and x + w otherwise, looked up in the ball's index."""
    words = [w.chars for w in ball(radius)]
    index = {w: i for i, w in enumerate(words)}
    out = len(words)
    return {
        x: np.array(
            [index.get(w[1:] if w[:1] == x.swapcase() else x + w, out) for w in words]
            + [out],
            dtype=np.intp,
        )
        for x in "cCdD"
    }


@pytest.mark.parametrize("radius", range(9))
def test_step_tables_match_word_oracle(radius):
    # one row per letter in the ball's order C, D, c, d, then the identity
    steps = repnorm._step_tables(radius)
    want = oracle_step_tables(radius)
    size = len(ball(radius))
    assert steps.dtype == np.intp
    assert steps.shape == (5, size + 1)
    assert not steps.flags.writeable
    for rank, x in enumerate("CDcd"):
        assert np.array_equal(steps[rank], want[x])
        assert steps[rank, size] == size
    assert np.array_equal(steps[4], np.arange(size + 1))


def oracle_ball_operator(coeffs, radius) -> SparseOperator:
    """The column loop of free-word products: coefficient words longest
    first, and a column stops at its first product that leaves the ball."""
    words = ball(radius)
    index = {w: i for i, w in enumerate(words)}
    items = [
        (h, c)
        for h, c in sorted(
            coeffs.items(), key=lambda t: t[0].sort_key(), reverse=True
        )
        if c != 0
    ]
    entries = {}
    boundary = set()
    for j, w in enumerate(words):
        column = {}
        for h, c in items:
            i = index.get(h * w)
            if i is None:
                boundary.add(j)
                break
            column[(i, j)] = c
        else:
            entries.update(column)
    return sparse_operator((len(words), len(words)), entries, boundary)


# words up to length 9 reach past every radius drawn; the coefficient pool
# repeats values and holds zero, which a walk leaves out
walk_words = st.text(alphabet="cCdD", max_size=9).map(free_word)
walk_coeffs = st.sampled_from(
    [Fraction(0), Fraction(1, 4), Fraction(-1, 3), Fraction(1), Fraction(2, 7)]
)
nonzero_coeffs = walk_coeffs.filter(bool)


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(walk_words, nonzero_coeffs, max_size=6), st.integers(0, 7))
@example({}, 3)
@example({W_ONE: Fraction(1, 4), free_word("cd"): Fraction(1, 4)}, 2)
@example({h: Fraction(1, 12) for h in sphere(2)}, 1)
@example({free_word("cdcdcdcd"): Fraction(1), free_word("DC"): Fraction(1)}, 4)
@example(  # the identity beside long words: rows of different widths
    {W_ONE: Fraction(1, 4), free_word("cd"): Fraction(-1, 3),
     free_word("cdcdcdcd"): Fraction(1, 4)},
    5,
)
@example(  # a signed S_1 u S_3 walk, as a difference of sphere averages
    {**{h: Fraction(1, 4) for h in sphere(1)},
     **{h: Fraction(-1, 36) for h in sphere(3)}},
    6,
)
@example({free_word("cdcdcdcd"): Fraction(2, 7)}, 3)  # every column is boundary
def test_ball_operator_matches_column_loop(coeffs, radius):
    op = h_ball_operator(*as_walk(coeffs), radius)
    want = oracle_ball_operator(coeffs, radius)
    assert op.shape == want.shape
    assert op.entries == want.entries
    assert op.boundary_cols.tolist() == want.boundary_cols.tolist()
    assert opnorm_lower(op) == opnorm_lower(want)
    # one slot per distinct coefficient, in order of first appearance
    assert op.coeffs == tuple(dict.fromkeys(coeffs.values()))


def test_ball_operator_rejects_foreign_letters():
    # any letter other than c, d and their inverses
    for h in ("a", "cB", "x", "c.", "\u00e9", "\ud800"):
        with pytest.raises(ValueError):
            h_ball_operator({"cd": 1, h: 2}, 2, 3)


def test_rho_validation():
    # n is a sphere index, a positive integer, and the radius is positive
    for n in (0, -1, 1.5, "2"):
        with pytest.raises(ValueError):
            rho_estimate(n, radius=3)
    with pytest.raises(ValueError):
        rho_estimate(1, radius=0)


def sphere_walk(n):
    """The walk of the sphere average b_n: numerator 1 on each word of S_n,
    over |S_n|."""
    return dict.fromkeys((h.chars for h in sphere(n)), 1), len(sphere(n))


def test_rho_sphere_one_matches_generic_truncation():
    for radius in (2, 4, 5):
        fast = rho_estimate(1, radius=radius, tol=1e-12)
        generic = opnorm_lower(h_ball_operator(*sphere_walk(1), radius), tol=1e-12)
        assert fast.lower == pytest.approx(generic.lower, abs=1e-9)


def test_rho_reports_interior_columns_of_its_ball_operator():
    # the radial path reports the interior count of the ball truncation
    # it stands for; below the sphere's radius no column is interior
    for radius in range(1, 6):
        est = rho_estimate(1, radius=radius)
        generic = opnorm_lower(h_ball_operator(*sphere_walk(1), radius))
        assert est.interior_cols == generic.interior_cols == len(ball(radius - 1))
    assert rho_estimate(2, radius=1) == NormEstimate(
        0.0, haagerup_bound(2), 0, 1, 0
    )
    assert opnorm_lower(h_ball_operator(*sphere_walk(2), 1)).interior_cols == 0
    assert rho_estimate(2, radius=4).interior_cols == len(ball(2))


def test_rho_sphere_one_frozen_truncation_values():
    est = rho_estimate(1, radius=12, tol=1e-6)
    assert est.lower == pytest.approx(0.846893930, abs=1e-6)
    assert est.upper == pytest.approx(1.0)
    assert est.truncation_radius == 12
    grow = [rho_estimate(1, radius=r, tol=1e-6).lower for r in (4, 8, 12)]
    assert grow[0] < grow[1] < grow[2] < math.sqrt(3) / 2


def test_rho_sphere_two():
    est = rho_estimate(2, radius=4, tol=1e-12)
    assert est.upper == pytest.approx(haagerup_bound(2))
    assert 0 < est.lower <= est.upper + 1e-12


def test_rho_non_sphere_symmetric_set():
    # the single-generator walk (c + C) / 2 has norm 1, above the
    # sphere-1 walk's
    est = opnorm_lower(h_ball_operator({"c": 1, "C": 1}, 2, 6), tol=1e-12)
    assert 0.8 < est.lower <= 1.0
    est = opnorm_lower(h_ball_operator({"c": 1, "C": 1}, 2, 5))
    assert est.lower > 0.9 > rho_estimate(1, radius=5).lower


def test_haagerup_frozen_values():
    assert haagerup_bound(1) == pytest.approx(1.0)
    assert haagerup_bound(2) == pytest.approx(math.sqrt(3) / 2)
    assert haagerup_bound(3) == pytest.approx(Fraction(2, 3))
    assert haagerup_bound(5) == pytest.approx(Fraction(1, 3))
    assert all(
        haagerup_bound(n + 1) < haagerup_bound(n) for n in range(1, 12)
    )
    with pytest.raises(ValueError):
        haagerup_bound(0)


# ---------------------------------------------------------------------------
# reduced norm bounds for sphere averages
# ---------------------------------------------------------------------------


def test_norm_bound_validation():
    restricted = SteinElt(st_bn(1).terms, REGION_B)
    with pytest.raises(ValueError, match="unrestricted"):
        stein_H_norm_bound([(restricted, 1)], radius=2, tol=1e-9)
    # every part is checked, not only the first
    with pytest.raises(ValueError, match="unrestricted"):
        stein_H_norm_bound([(st_bn(2), 1), (restricted, -1)], radius=2, tol=1e-9)
    with pytest.raises(ValueError, match="fiber group elements"):
        stein_H_norm_bound([(st_conv(st_a(), st_bn(1)), 1)], radius=2, tol=1e-9)


def test_norm_bound_scalar_and_sphere_average():
    three = st_make([(s_from_group(h_elt(W_ONE)), Fraction(3))])
    est = stein_H_norm_bound([(three, 1)], radius=2, tol=1e-9)
    assert (est.lower, est.upper) == (3.0, 3.0)
    # the collapsed germ on y-rooted words pins the norm of b_n at 1
    est = stein_H_norm_bound([(st_bn(1), 1)], radius=4, tol=1e-9)
    assert est.lower == pytest.approx(1.0)
    assert est.upper == pytest.approx(1.0)
    zero = stein_H_norm_bound([(st_bn(1), 1), (st_bn(1), -1)], radius=6, tol=1e-9)
    assert (zero.lower, zero.upper) == (0.0, 0.0)


def test_norm_bound_difference_layers():
    est = stein_H_norm_bound([(st_bn(1), 1), (st_bn(2), -1)], radius=6, tol=1e-9)
    assert est.upper == pytest.approx(haagerup_bound(1) + haagerup_bound(2))
    assert 0.5 < est.lower <= est.upper + 1e-12


def oracle_layered_upper(coeffs) -> float:
    """sum_l (l+1) ||f_l||_2 with c*c added once per word."""
    layers = {}
    for h, c in coeffs.items():
        layers[len(h.chars)] = layers.get(len(h.chars), Fraction(0)) + c * c
    return math.fsum((l + 1) * math.sqrt(q) for l, q in layers.items())


@given(st.dictionaries(walk_words, walk_coeffs, max_size=12))
@example({h: Fraction(1, 12) for h in sphere(2)})
@example(
    {
        **{h: Fraction(1, 4) for h in sphere(1)},
        **{h: Fraction(-1, 12) for h in sphere(2)},
    }
)
def test_layered_upper_matches_per_word_sum(coeffs):
    # integer layer sums over denom^2 give the floats of the exact layers
    assert repnorm._layered_upper(*as_walk(coeffs)) == oracle_layered_upper(coeffs)


def walk_twins(coeffs):
    """The same free group terms on the whole unit space of each model."""
    twin_b = bstein([(0, h, c, WHOLE_SET) for h, c in coeffs.items()])
    twin_s = st_make([(s_from_group(h_elt(h)), c) for h, c in coeffs.items()])
    return twin_b, twin_s


@settings(deadline=None)
@given(
    st.dictionaries(walk_words, walk_coeffs, max_size=6),
    st.dictionaries(walk_words, walk_coeffs, max_size=6),
    st.integers(1, 4),
)
@example(  # b_1 - b_2
    {h: Fraction(1, 4) for h in sphere(1)},
    {h: Fraction(1, 12) for h in sphere(2)},
    5,
)
def test_bundle_norm_bound_matches_fiber_walk(coeffs, others, radius):
    # twin walks give the same estimate in both models, every field
    # included, and signed parts give what their built difference gives
    f_b, f_s = walk_twins(coeffs)
    g_b, g_s = walk_twins(others)
    via_bundle = bundle_norm_bound([(f_b, 1), (g_b, -1)], radius, 1e-9)
    assert via_bundle == stein_H_norm_bound([(f_s, 1), (g_s, -1)], radius, 1e-9)
    diff = st_make(f_s.terms + tuple((s, -c) for s, c in g_s.terms))
    assert via_bundle == stein_H_norm_bound([(diff, 1)], radius, 1e-9)


def test_norm_bound_reports_interior_columns():
    # at radius 6 every column of the b_6 - b_8 ball operator is boundary,
    # so its lower bound 0 is "no interior column", not a measured zero
    est = stein_H_norm_bound([(st_bn(6), 1), (st_bn(8), -1)], radius=6, tol=1e-9)
    assert est.interior_cols == 0 and est.lower == 0.0
    est = stein_H_norm_bound([(st_bn(1), 1), (st_bn(2), -1)], radius=6, tol=1e-9)
    assert est.interior_cols == len(ball(4))
    assert opnorm_lower(h_ball_operator({"": 1}, 1, 2)).interior_cols == 17
    assert repnorm._fiber_bound([Fraction(1)], [], 1, 3, 1e-9).interior_cols is None


def test_bundle_norm_bound_builds_each_walk_once(monkeypatch):
    # the eps unit and the fresh z unit carry the same walk for b_1 - b_2
    builds = []

    def counting(walk, denom, radius):
        builds.append(dict(walk))
        return h_ball_operator(walk, denom, radius)

    monkeypatch.setattr(repnorm, "h_ball_operator", counting)
    diff = [(bundle_bn(1), 1), (bundle_bn(2), -1)]
    est = bundle_norm_bound(diff, radius=5, tol=1e-9)
    assert len(builds) == 1
    via_fiber = stein_H_norm_bound([(st_bn(1), 1), (st_bn(2), -1)], radius=5, tol=1e-9)
    assert (est.lower, est.upper) == (via_fiber.lower, via_fiber.upper)
    assert est.interior_cols == via_fiber.interior_cols == len(ball(3))
    chi_only = bundle_norm_bound([(bundle_chiB(), 1)], radius=2, tol=1e-9)
    assert chi_only.interior_cols is None


def test_bundle_norm_bound_named_elements():
    est = bundle_norm_bound([(bundle_bn(1), 1)], radius=3, tol=1e-9)
    assert est.lower == pytest.approx(1.0)
    assert est.upper == pytest.approx(1.0)
    est = bundle_norm_bound([(bundle_chiB(), 1)], radius=2, tol=1e-9)
    assert (est.lower, est.upper) == (1.0, 1.0)
    # a*chiB lives on X u Y: 0 on x-fibers, where both bits meet, and the
    # sign character's 1 - (-1) = 2 on y-fibers; no walk is left
    a_chiB = bstein_conv(bundle_a(), bundle_chiB())
    est = bundle_norm_bound([(a_chiB, 1)], radius=2, tol=1e-9)
    assert est == NormEstimate(2.0, 2.0, 0, 2, None)
    mixed = bstein_conv(bundle_a(), bundle_bn(1))
    est = bundle_norm_bound([(mixed, 1)], radius=4, tol=1e-9)
    assert 0 < est.lower <= est.upper + 1e-12


# ---------------------------------------------------------------------------
# scattering profile
# ---------------------------------------------------------------------------


def test_cauchy_profile_selfsim_frozen():
    prof = cauchy_profile((1, 2, 3), example="selfsim", radius=4)
    assert [(r.n, r.m) for r in prof.rows] == [(1, 2), (1, 3), (2, 3)]
    assert [r.sup_dist for r in prof.rows] == [
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(1, 12),
    ]
    uppers = [r.upper for r in prof.rows]
    assert uppers[0] == pytest.approx(haagerup_bound(1) + haagerup_bound(2))
    assert uppers[0] > uppers[1] > uppers[2]
    assert all(r.lower <= r.upper + 1e-12 for r in prof.rows)
    assert all(r.lower > 0 for r in prof.rows)
    assert [(r.n, r.sup_dist) for r in prof.limit_rows] == [
        (1, Fraction(1, 4)),
        (2, Fraction(1, 12)),
        (3, Fraction(1, 36)),
    ]


def test_cauchy_profile_bundle_agrees():
    # both models read each b_n into the same walk and make every row with
    # one _walk_bound, so the rows agree to the bit
    for radius in (4, 5, 6):
        selfsim = cauchy_profile((1, 2, 3, 4), example="selfsim", radius=radius)
        bundle = cauchy_profile((1, 2, 3, 4), example="bundle", radius=radius)
        assert bundle.rows == selfsim.rows
        assert bundle.limit_rows == selfsim.limit_rows
    assert [(r.n, r.sup_dist) for r in bundle.limit_rows] == [
        (1, Fraction(1, 4)),
        (2, Fraction(1, 12)),
        (3, Fraction(1, 36)),
        (4, Fraction(1, 108)),
    ]
    # b_n - b_m has coefficient sum 1 - 1, so pi_triv kills it
    assert all(r.pi_triv == 0 for r in bundle.rows)


@pytest.mark.parametrize(
    "example, module, builder",
    [("selfsim", steinberg, "st_make"), ("bundle", bundle_module, "bstein")],
)
def test_cauchy_profile_builds_no_difference(monkeypatch, example, module, builder):
    # each b_n and chi_B is built once; a row's norm bound takes the walks
    # of b_n and b_m as signed parts, so no b_n - b_m is ever built
    calls = []
    real = getattr(module, builder)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, builder, counting)
    indices = (1, 2, 3, 4)
    prof = cauchy_profile(indices, example=example, radius=4)
    assert len(prof.rows) == 6
    assert len(calls) == len(indices) + 1


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["selfsim", "bundle"]),
    st.sets(st.integers(1, 4), min_size=1, max_size=4),
    st.integers(1, 6),
)
def test_cauchy_profile_sup_rows_equal_the_pair_functions(example, indices, radius):
    # the rows read one shared fold and one walk per b_n; each must be what
    # its pair functions say, the norm bound taking the pair's elements
    dist, chi, bound, at = {
        "selfsim": (steinberg.st_sup_dist, steinberg.st_chiB, stein_H_norm_bound, 1),
        "bundle": (bundle_module.bundle_sup_dist, bundle_chiB, bundle_norm_bound, 2),
    }[example]
    prof = cauchy_profile(sorted(indices), example=example, radius=radius)
    b = prof.elements
    assert [r.sup_dist for r in prof.rows] == [dist(b[r.n], b[r.m]) for r in prof.rows]
    assert [r.sup_dist for r in prof.limit_rows] == [
        dist(b[r.n], chi()) for r in prof.limit_rows
    ]
    for r in prof.rows:
        est = bound([(b[r.n], 1), (b[r.m], -1)], radius, 1e-9)
        assert (r.upper, r.lower) == (est.upper, est.lower)
        # the coefficient sum of b_n - b_m, a term's coefficient at ``at``
        assert r.pi_triv == sum(t[at] for t in b[r.n].terms) - sum(
            t[at] for t in b[r.m].terms
        )


@pytest.mark.parametrize("example", ["selfsim", "bundle"])
def test_cauchy_profile_runs_one_sup_fold_for_any_number_of_indices(
    monkeypatch, example
):
    # k indices give k(k-1)/2 pair rows and k limit rows, all read off one
    # fold of the model module, counted through every binding of its fold
    # functions; the norm rows come from walks and fold no pair
    module, names = {
        "selfsim": (steinberg, ["_class_sums"]),
        "bundle": (bundle_module, ["_fiber_sums", "stratum_units"]),
    }[example]
    folds = {name: [] for name in names}
    for name in names:
        real = getattr(module, name)

        def fold(*args, name=name, real=real):
            folds[name].append(len(args[0]))
            return real(*args)

        for binding in (module, repnorm):
            if getattr(binding, name, None) is real:
                monkeypatch.setattr(binding, name, fold)

    def no_pair_bound(*args):
        raise AssertionError("the profile called a per-pair norm bound")

    monkeypatch.setattr(repnorm, "stein_H_norm_bound", no_pair_bound)
    monkeypatch.setattr(repnorm, "bundle_norm_bound", no_pair_bound)
    for k in range(2, 6):
        for calls in folds.values():
            calls.clear()
        prof = cauchy_profile(range(1, k + 1), example=example, radius=1)
        assert len(prof.rows) == k * (k - 1) // 2
        assert folds == {name: [k + 1] for name in names}


def test_cauchy_profile_validation_and_edges():
    with pytest.raises(ValueError):
        cauchy_profile((1, 2), example="nope")
    with pytest.raises(ValueError):
        cauchy_profile((0, 2))
    empty = cauchy_profile((), example="selfsim")
    assert empty.rows == () and empty.limit_rows == ()
    single = cauchy_profile((2,), example="selfsim", radius=3)
    assert single.rows == ()
    assert single.limit_rows == (LimitRow(2, Fraction(1, 12)),)


def test_sup_distances_shrink_threefold_while_small_index_norms_exceed_half():
    # pointwise Cauchy: sup distances shrink by a factor 3 per index, while
    # for these small indices the certified norm lower bounds stay above
    # 0.5 (for growing n, m the norms do tend to 0, like n 3^(-n/2))
    prof = cauchy_profile((1, 2, 3), example="selfsim", radius=5)
    sups = {(r.n, r.m): r.sup_dist for r in prof.rows}
    assert sups[(2, 3)] == sups[(1, 2)] / 3
    assert min(r.lower for r in prof.rows) > 0.5
