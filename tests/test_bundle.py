"""Bundle groupoid: set algebra, convolution, value tables, singularity.

The value tables asserted here were derived by hand from the bisection
calculus chi_{U_g | U} * chi_{U_g' | V} = chi_{U_gg' | U cap V} and frozen
before the implementation; the convolution oracle below recomputes
products pointwise from the fiber-group definition, and a term-by-term
evaluation over stratum arrows checks the per-unit fiber tables that
evaluation, sup distances and singularity verdicts read.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from steinalg import bundle as bundle_module
from steinalg.groups import W_ONE, free_word, sphere
from steinalg.bundle import (
    B_ZERO,
    EMPTY_SET,
    FLAG_B,
    FLAG_FULL,
    WHOLE_SET,
    _fiber_sums,
    barrow,
    bstein,
    bstein_conv,
    bstein_eval,
    bstein_star,
    bundle_a,
    bundle_bn,
    bundle_chi,
    bundle_chiB,
    bundle_fold,
    bundle_is_singular,
    bundle_sup_dist,
    buset,
    buset_intersect,
    buset_member,
    buset_union,
    stratum_units,
    ux,
    uy,
    uz,
    U_EPS,
)
from steinalg.repnorm import fold_readings

# ---------------------------------------------------------------------------
# oracles and strategies
# ---------------------------------------------------------------------------

GRID = (
    [U_EPS]
    + [uz(k) for k in range(-2, 4)]
    + [uy(i) for i in range(-2, 4)]
    + [ux(i, j) for i in range(-2, 4) for j in range(-2, 4)]
)


def unit_fiber(u):
    if u.kind == "x":
        return [(0, W_ONE)]
    if u.kind == "y":
        return [(0, W_ONE), (1, W_ONE)]
    return None  # infinite: Z2 x H


def oracle_conv_at(f, g, arrow):
    """(f*g)(gamma) = sum over factorizations inside the fiber group."""
    u = arrow.unit
    candidates = unit_fiber(u)
    if candidates is None:
        candidates = sorted(
            {(bit, h) for bit, h, _, _ in f.terms},
            key=lambda t: (t[0], t[1].sort_key()),
        )
    total = Fraction(0)
    for b1, h1 in candidates:
        left = bstein_eval(f, barrow(b1, h1, u))
        if left == 0:
            continue
        right = bstein_eval(g, barrow((arrow.bit - b1) % 2, h1.inv() * arrow.h, u))
        total += left * right
    return total


# the term-by-term evaluation that the fiber table replaced: every term is
# matched against every stratum arrow, with no per-unit table
ORACLE_FLAG_KINDS = {
    FLAG_FULL: ("x", "y", "z", "eps"),
    FLAG_B: ("x", "y"),
}


def oracle_fiber_at(bit, h, unit):
    if unit.kind == "x":
        return (0, W_ONE)
    if unit.kind == "y":
        return (bit, W_ONE)
    return (bit, h)


def oracle_eval(f, arrow):
    if arrow.unit.kind not in ORACLE_FLAG_KINDS[f.flag]:
        return Fraction(0)
    total = Fraction(0)
    for bit, h, coeff, region in f.terms:
        if buset_member(region, arrow.unit) and oracle_fiber_at(bit, h, arrow.unit) == (
            arrow.bit,
            arrow.h,
        ):
            total += coeff
    return total


def oracle_stratum_arrows(fs):
    """Every (bit, h) of a term, plus the y-fiber, over each stratum unit."""
    fibers = {(0, W_ONE), (1, W_ONE)}
    for f in fs:
        for bit, h, _, _ in f.terms:
            fibers.add((bit, h))
    arrows = []
    for u in stratum_units(fs):
        if u.kind == "x":
            arrows.append(barrow(0, W_ONE, u))
        elif u.kind == "y":
            arrows.append(barrow(0, W_ONE, u))
            arrows.append(barrow(1, W_ONE, u))
        else:
            ordered = sorted(fibers, key=lambda t: (t[0], t[1].sort_key()))
            arrows.extend(barrow(b, h, u) for b, h in ordered)
    return arrows


def oracle_sup_dist(f, g):
    return max(
        (abs(oracle_eval(f, a) - oracle_eval(g, a)) for a in oracle_stratum_arrows((f, g))),
        default=Fraction(0),
    )


def oracle_singular(f):
    """(singular, first nonzero arrow over an x- or z-unit)."""
    for arrow in oracle_stratum_arrows((f,)):
        if arrow.unit.kind in ("x", "z") and oracle_eval(f, arrow) != 0:
            return False, arrow
    return True, None


h_words = st.sampled_from([free_word(w) for w in ("", "c", "d", "C", "cd", "Dc")])
fractions_ = st.builds(
    Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 4)
)
unit_sets = st.builds(
    buset,
    st.booleans(),
    st.frozensets(st.integers(-1, 2), max_size=3),
    st.dictionaries(
        st.integers(-1, 2),
        st.tuples(st.booleans(), st.frozensets(st.integers(0, 2), max_size=2)),
        max_size=3,
    ),
)
b_elts = st.builds(
    bstein,
    st.lists(
        st.tuples(st.integers(0, 1), h_words, fractions_, unit_sets), max_size=3
    ),
    st.sampled_from([FLAG_FULL, FLAG_B]),
)
fibers = st.tuples(st.integers(0, 1), h_words)
grid_units = st.sampled_from(GRID)


def arrows_for(u):
    fib = unit_fiber(u)
    if fib is not None:
        return st.sampled_from([barrow(b, h, u) for b, h in fib])
    return fibers.map(lambda t: barrow(t[0], t[1], u))


arrows = grid_units.flatmap(arrows_for)


# ---------------------------------------------------------------------------
# unit sets
# ---------------------------------------------------------------------------


def test_membership_frozen_cases():
    U = buset(eps=True, zs={3}, cols={0: (False, {1, 2}), 5: (True, {7})})
    assert buset_member(U, U_EPS)
    assert not buset_member(U, uz(3))
    assert buset_member(U, uz(0))
    assert not buset_member(U, uy(0))
    assert buset_member(U, ux(0, 1))
    assert not buset_member(U, ux(0, 3))
    assert buset_member(U, uy(5))
    assert not buset_member(U, ux(5, 7))
    assert buset_member(U, ux(5, 8))
    assert buset_member(U, uy(9))  # default column is full when eps is in
    V = buset(zs={1}, cols={2: (True, frozenset())})
    assert not buset_member(V, U_EPS)
    assert buset_member(V, uz(1))
    assert not buset_member(V, uz(2))
    assert buset_member(V, uy(2))
    assert buset_member(V, ux(2, 11))
    assert not buset_member(V, uy(0))


def test_canonicalization_drops_defaults():
    assert buset(cols={3: (False, frozenset())}) == EMPTY_SET
    assert buset(eps=True, cols={3: (True, frozenset())}) == WHOLE_SET
    assert buset(eps=True, cols={3: (True, frozenset({1}))}) != WHOLE_SET


@given(unit_sets, unit_sets)
@example(  # cofinite and finite, sharing column 1 and z-index 0
    buset(eps=True, zs={0}, cols={1: (True, frozenset({2}))}),
    buset(zs={0, 1}, cols={1: (False, frozenset({1, 2}))}),
)
def test_set_ops_match_membership_oracle(U, V):
    I, J = buset_intersect(U, V), buset_union(U, V)
    for u in GRID:
        assert buset_member(I, u) == (buset_member(U, u) and buset_member(V, u))
        assert buset_member(J, u) == (buset_member(U, u) or buset_member(V, u))


@given(unit_sets, unit_sets, unit_sets)
def test_set_ops_lattice_laws(U, V, W):
    assert buset_intersect(U, V) == buset_intersect(V, U)
    assert buset_union(U, V) == buset_union(V, U)
    assert buset_intersect(buset_intersect(U, V), W) == buset_intersect(
        U, buset_intersect(V, W)
    )
    assert buset_union(buset_union(U, V), W) == buset_union(U, buset_union(V, W))
    assert buset_intersect(U, U) == U
    assert buset_union(U, buset_intersect(U, V)) == U
    assert buset_intersect(U, WHOLE_SET) == U
    assert buset_intersect(U, EMPTY_SET) == EMPTY_SET


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def test_bisection_product_rule():
    U = buset(cols={0: (True, frozenset())})
    V = buset(eps=True)
    f = bstein([(0, free_word("c"), Fraction(1), U)])
    g = bstein([(1, free_word("d"), Fraction(1), V)])
    assert bstein_conv(f, g) == bstein(
        [(1, free_word("cd"), Fraction(1), buset_intersect(U, V))]
    )


@settings(max_examples=150)
@given(b_elts, b_elts, arrows)
def test_conv_matches_pointwise_oracle(f, g, arrow):
    assert bstein_eval(bstein_conv(f, g), arrow) == oracle_conv_at(f, g, arrow)


@given(b_elts, b_elts, b_elts)
def test_conv_bilinear_associative(f, g, h):
    assert bstein_conv(bstein_conv(f, g), h) == bstein_conv(f, bstein_conv(g, h))
    assert bstein_conv(f, B_ZERO) == B_ZERO


@given(b_elts, b_elts)
def test_star_antihomomorphism(f, g):
    assert bstein_star(bstein_star(f)) == f
    assert bstein_star(bstein_conv(f, g)) == bstein_conv(
        bstein_star(g), bstein_star(f)
    )


def test_a_squared_is_twice_a():
    a = bundle_a()
    aa = bstein_conv(a, a)
    doubled = bstein([(b, h, 2 * c, U) for b, h, c, U in a.terms])
    assert aa == doubled
    assert bundle_sup_dist(aa, doubled) == 0


# ---------------------------------------------------------------------------
# value tables (frozen)
# ---------------------------------------------------------------------------


def eval_table(f, n=None):
    """Values on one representative of each arrow stratum."""
    h_in = sphere(n)[0] if n else free_word("c")
    return {
        "x": bstein_eval(f, barrow(0, W_ONE, ux(3, 5))),
        "y0": bstein_eval(f, barrow(0, W_ONE, uy(2))),
        "y1": bstein_eval(f, barrow(1, W_ONE, uy(2))),
        "z0h": bstein_eval(f, barrow(0, h_in, uz(4))),
        "z1h": bstein_eval(f, barrow(1, h_in, uz(4))),
        "e0h": bstein_eval(f, barrow(0, h_in, U_EPS)),
        "e1h": bstein_eval(f, barrow(1, h_in, U_EPS)),
    }


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bn_value_table(n):
    size = 4 * 3 ** (n - 1)
    bn = bundle_bn(n)
    t = eval_table(bn, n)
    assert t["x"] == 1
    assert t["y0"] == 1 and t["y1"] == 0
    assert t["z0h"] == Fraction(1, size) and t["z1h"] == 0
    assert t["e0h"] == Fraction(1, size) and t["e1h"] == 0
    # off the sphere the z-values vanish
    assert bstein_eval(bn, barrow(0, W_ONE, uz(0))) == 0
    if n > 1:
        assert bstein_eval(bn, barrow(0, free_word("c"), uz(0))) == 0


def test_a_and_chiB_value_tables():
    t = eval_table(bundle_a())
    assert (t["x"], t["y0"], t["y1"]) == (0, 1, -1)
    assert (t["z0h"], t["z1h"]) == (0, 0)  # h = c is not the identity
    one = eval_table(bundle_chiB())
    assert (one["x"], one["y0"], one["y1"]) == (1, 1, 0)
    assert one["z0h"] == one["e0h"] == 0
    a = bundle_a()
    assert bstein_eval(a, barrow(0, W_ONE, uz(0))) == 1
    assert bstein_eval(a, barrow(1, W_ONE, uz(0))) == -1


def test_a_chiB_value_table():
    f = bstein_conv(bundle_a(), bundle_chiB())
    t = eval_table(f)
    assert (t["x"], t["y0"], t["y1"]) == (0, 1, -1)
    assert t["z0h"] == t["z1h"] == t["e0h"] == t["e1h"] == 0
    assert bstein_eval(f, barrow(0, W_ONE, uz(0))) == 0


@pytest.mark.parametrize("n", [1, 2])
def test_a_bn_value_table(n):
    size = 4 * 3 ** (n - 1)
    f = bstein_conv(bundle_a(), bundle_bn(n))
    t = eval_table(f, n)
    assert (t["x"], t["y0"], t["y1"]) == (0, 1, -1)
    assert t["z0h"] == Fraction(1, size)
    assert t["z1h"] == Fraction(-1, size)
    assert t["e0h"] == Fraction(1, size)
    assert t["e1h"] == Fraction(-1, size)


# ---------------------------------------------------------------------------
# sup distances
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bn_approaches_chiB(n):
    size = 4 * 3 ** (n - 1)
    assert bundle_sup_dist(bundle_bn(n), bundle_chiB()) == Fraction(1, size)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scattering_rate(n):
    size = 4 * 3 ** (n - 1)
    f = bstein_conv(bundle_a(), bundle_bn(n))
    g = bstein_conv(bundle_a(), bundle_chiB())
    d = bundle_sup_dist(f, g)
    assert d == Fraction(1, size)
    # witness arrow achieving the supremum
    h = sphere(n)[0]
    gap = bstein_eval(f, barrow(0, h, uz(9))) - bstein_eval(g, barrow(0, h, uz(9)))
    assert abs(gap) == d


@given(b_elts, b_elts, arrows)
def test_sup_dist_dominates_samples(f, g, arrow):
    assert abs(bstein_eval(f, arrow) - bstein_eval(g, arrow)) <= bundle_sup_dist(f, g)


@given(b_elts)
def test_sup_dist_reflexive(f):
    assert bundle_sup_dist(f, f) == 0


# ---------------------------------------------------------------------------
# restriction and singularity
# ---------------------------------------------------------------------------


def test_restrict_halves():
    # chiB is a central idempotent, so convolving with it restricts to B
    f = bstein_conv(bundle_a(), bundle_bn(1))
    fB = bstein_conv(f, bundle_chiB())
    assert fB == bstein(f.terms, FLAG_B) == bstein_conv(bundle_chiB(), f)
    h = sphere(1)[0]
    assert bstein_eval(fB, barrow(0, W_ONE, uy(0))) == 1
    assert bstein_eval(fB, barrow(0, h, uz(0))) == 0


def test_singularity_verdicts():
    assert bundle_is_singular(bstein_conv(bundle_a(), bundle_chiB())).singular
    assert bundle_is_singular(B_ZERO).singular
    for f in (bundle_a(), bundle_bn(2), bundle_chiB(),
              bstein_conv(bundle_a(), bundle_bn(1))):
        verdict = bundle_is_singular(f)
        assert not verdict.singular
        w = verdict.witness
        assert w.unit.kind in ("x", "z")
        assert bstein_eval(f, w) != 0


@given(b_elts, b_elts, arrows)
def test_fiber_fold_equals_term_by_term_oracle(f, g, arrow):
    assert bstein_eval(f, arrow) == oracle_eval(f, arrow)
    assert bundle_sup_dist(f, g) == oracle_sup_dist(f, g)
    verdict = bundle_is_singular(f)
    assert (verdict.singular, verdict.witness) == oracle_singular(f)


@given(b_elts, b_elts)
@example(bundle_chiB(), bundle_a())  # flags B and full
def test_fiber_sums_equal_oracle_differences(f, g):
    # the integer vector fold over D, read at every stratum unit, is f and
    # g arrow by arrow, so its entries differ by f - g: no nonzero value is
    # missing and no entry is off by a denominator
    units = stratum_units((f, g))
    denom, tables = _fiber_sums([f, g], units)
    arrows = oracle_stratum_arrows((f, g))
    for u, table in zip(units, tables):
        want = {
            (a.bit, a.h): (oracle_eval(f, a), oracle_eval(g, a))
            for a in arrows
            if a.unit == u
        }
        assert len({k for k, _ in table}) == len(table)  # each arrow once
        got = {k: (Fraction(x, denom), Fraction(y, denom)) for k, (x, y) in table}
        assert all(want.get(k, (0, 0)) == v for k, v in got.items())
        assert {k for k, v in want.items() if any(v)} <= set(got)
        diffs = {k: x - y for k, (x, y) in got.items() if x != y}
        assert diffs == {k: x - y for k, (x, y) in want.items() if x != y}


def test_fiber_sums_test_each_region_once_per_unit(monkeypatch):
    # the b_n share one region, a*b_2 holds a few; membership is asked
    # once per distinct region and unit, never once per term
    calls = []
    member = bundle_module.buset_member
    monkeypatch.setattr(
        bundle_module, "buset_member", lambda U, u: calls.append(U) or member(U, u)
    )
    for elements in (
        [bundle_bn(3), bundle_bn(2)],
        [bstein_conv(bundle_a(), bundle_bn(2))],
    ):
        terms = [t for f in elements for t in f.terms]
        regions = {t[3] for t in terms}
        units = stratum_units(tuple(elements))
        calls.clear()
        list(_fiber_sums(elements, units)[1])
        assert len(calls) == len(units) * len(regions) < len(units) * len(terms)


b_lists = st.lists(b_elts, max_size=4)


@given(b_elts, b_lists)
@example(bstein_conv(bundle_a(), bundle_chiB()), [
    bstein_conv(bundle_a(), bundle_bn(1)), bundle_chiB(), B_ZERO
])
def test_shared_fold_equals_pair_readers(ref, fs):
    # one fold of [ref, *fs] at the stratum units of all of them reads
    # every element's verdict and distance to ref as its own folds do
    parts = [ref, *fs]
    (dists,), singular = fold_readings(bundle_fold, parts, 1)
    assert singular == [bundle_is_singular(f).singular for f in parts]
    assert dists == [bundle_sup_dist(f, ref) for f in parts]


@given(st.lists(b_elts, min_size=1, max_size=4))
@example([bundle_chiB(), bundle_bn(1), bundle_bn(2), bundle_a()])
def test_shared_sup_table_matches_each_pair(fs):
    # the Cauchy profile's sups: one fold of every element, read pairwise
    sups, _ = fold_readings(bundle_fold, fs, len(fs))
    for i, f in enumerate(fs):
        for j, g in enumerate(fs):
            assert sups[i][j] == bundle_sup_dist(f, g)


def test_eval_folds_only_the_terms_that_reach_its_arrow(monkeypatch):
    # b_3 holds 36 terms (0, h), one per word of the sphere: a z- or
    # eps-arrow reads at most the one with its (bit, h), a y-arrow the
    # terms of its bit, an x-arrow every term
    folded = []
    real = bundle_module._fiber_sums

    def counting(elements, units):
        folded.append(sum(len(f.terms) for f in elements))
        return real(elements, units)

    monkeypatch.setattr(bundle_module, "_fiber_sums", counting)
    b3, h = bundle_bn(3), sphere(3)[0]
    f = bstein_conv(bundle_a(), b3)
    cases = [
        (b3, barrow(0, h, uz(5)), Fraction(1, 36), 1),
        (b3, barrow(1, h, U_EPS), 0, 0),
        (b3, barrow(0, W_ONE, uz(5)), 0, 0),
        (b3, barrow(1, W_ONE, uy(2)), 0, 0),
        (b3, barrow(0, W_ONE, uy(2)), 1, 36),
        (b3, barrow(0, W_ONE, ux(2, 3)), 1, 36),
        (f, barrow(1, h, uz(5)), Fraction(-1, 36), 1),
        (f, barrow(1, W_ONE, uy(2)), -1, 36),
    ]
    for elt, arrow, value, terms in cases:
        folded.clear()
        assert bstein_eval(elt, arrow) == value == oracle_eval(elt, arrow)
        assert folded == [terms]


def test_conv_intersects_each_region_pair_once(monkeypatch):
    # a and b_3 hold 2 and 36 terms, all on the whole unit space: one
    # intersection, not 72; a few distinct regions meet pairwise once each
    calls = []
    real = bundle_module.buset_intersect
    def recording(U, V):
        calls.append((U, V))
        return real(U, V)

    monkeypatch.setattr(bundle_module, "buset_intersect", recording)
    bstein_conv(bundle_a(), bundle_bn(3))
    assert calls == [(WHOLE_SET, WHOLE_SET)]
    U, V = buset(zs={1, 2}), buset(eps=True, zs={2})
    f = bstein([(0, W_ONE, 1, U), (1, W_ONE, 2, V), (0, free_word("c"), 3, U)])
    g = bstein([(0, free_word("d"), 1, V), (1, free_word("d"), 1, V)])
    calls.clear()
    prod = bstein_conv(f, g)
    assert sorted(calls, key=str) == sorted([(U, V), (V, V)], key=str)
    want = bstein(
        [
            ((b1 + b2) % 2, h1 * h2, c1 * c2, real(R, S))
            for b1, h1, c1, R in f.terms
            for b2, h2, c2, S in g.terms
        ]
    )
    assert prod == want


def test_bstein_merges_mixed_coefficients():
    c, d = free_word("c"), free_word("d")
    f = bstein(
        [
            (0, c, 1, WHOLE_SET),
            (0, d, 2, WHOLE_SET),  # an int seen once
            (1, c, Fraction(1, 2), WHOLE_SET),
            (0, c, Fraction(1, 3), WHOLE_SET),  # int plus Fraction
            (1, c, -1, WHOLE_SET),
            (1, d, 3, WHOLE_SET),
            (1, c, Fraction(1, 2), WHOLE_SET),  # cancels (1, c)
            (1, d, -3, WHOLE_SET),  # cancels (1, d) in ints
        ]
    )
    assert f.terms == (
        (0, c, Fraction(4, 3), WHOLE_SET),
        (0, d, Fraction(2), WHOLE_SET),
    )
    assert all(type(coeff) is Fraction for _, _, coeff, _ in f.terms)


def test_chi_of_compact_open():
    U = buset(zs={5}, cols={1: (True, frozenset({0}))})
    f = bundle_chi(U)
    assert bstein_eval(f, barrow(0, W_ONE, uz(5))) == 1
    assert bstein_eval(f, barrow(0, W_ONE, uy(1))) == 1
    assert bstein_eval(f, barrow(0, W_ONE, ux(1, 0))) == 0
    assert bstein_eval(f, barrow(1, W_ONE, uy(1))) == 0
    # chi_U * chi_V = chi_{U cap V}
    V = buset(eps=True, zs={5})
    assert bstein_conv(f, bundle_chi(V)) == bundle_chi(buset_intersect(U, V))
