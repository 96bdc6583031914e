"""Convolution algebra and exact support analysis.

oracle_conv_at recomputes products pointwise from germ factorizations:
every factorization of a germ has its right factor among the germs of the
right element's terms, so the sum is finite and exact.  The word-class
walk that stops at settled branches is checked against the full-depth
walk, kept here as oracle_word_classes: every branch runs to the
stabilization length, and only those full-length classes are open.
st_sub builds a difference in one merge of both term lists, the oracle
of linearity.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from steinalg import steinberg
from steinalg.groups import (
    GElt,
    KElt,
    K_ONE,
    W_ONE,
    free_word,
    hom_pi,
    sphere,
)
from steinalg.repnorm import fold_readings
from steinalg.selfsim import (
    EPS,
    FinWord,
    Germ,
    Letter,
    STABILIZATION_DEPTH,
    S_ONE,
    S_ZERO,
    SElt,
    finword,
    germ_key,
    omega,
    s_apply,
    s_defined_at,
    s_from_group,
    s_inv,
    s_from_word,
    s_mul,
    s_proj,
    yl,
    zl,
)
from steinalg.steinberg import (
    GEN_FAMILIES,
    REGION_B,
    REGION_FULL,
    SteinElt,
    _class_sums,
    _fresh_letter,
    h_elt,
    region_member,
    st_a,
    st_bn,
    st_chiB,
    st_chi_cylinder,
    st_conv,
    st_eval,
    st_evaluator,
    st_fold,
    st_is_singular,
    st_make,
    st_open_witness,
    st_sup_dist,
    st_support_strata,
)

# ---------------------------------------------------------------------------
# oracle and strategies
# ---------------------------------------------------------------------------


def st_sub(f, g):
    """f - g in one merge of f's terms and g's negated terms."""
    if f.region != g.region and f.terms and g.terms:
        raise ValueError("cannot add elements restricted to different regions")
    negated = tuple((s, -c) for s, c in g.terms)
    return st_make(f.terms + negated, f.region if f.terms else g.region)


def oracle_conv_at(f, g, gm: Germ):
    """(f*g)(gamma) = sum of f(gamma gamma2^{-1}) g(gamma2) over the
    distinct germs gamma2 of g's terms at the base word."""
    reps = {}
    for s2, _ in g.terms:
        if s_defined_at(s2, gm.word):
            reps.setdefault(germ_key(s2, gm.word), s2)
    total = Fraction(0)
    for s2 in reps.values():
        right = st_eval(g, Germ(s2, gm.word))
        left_elt = s_mul(gm.s, s_inv(s2))
        if left_elt.zero:
            continue
        w2 = s_apply(s2, gm.word)
        if not s_defined_at(left_elt, w2):
            continue
        total += st_eval(f, Germ(left_elt, w2)) * right
    return total


k_elts = st.builds(
    lambda h, n: KElt(free_word(h), W_ONE, n),
    st.sampled_from(["", "c", "D"]),
    st.integers(-1, 1),
)
g_elts = st.builds(
    lambda h, f, n, m: GElt(free_word(h), free_word(f), n, m),
    st.sampled_from(["", "c", "d"]),
    st.sampled_from(["", "a", "b"]),
    st.integers(-1, 1),
    st.integers(-1, 1),
)
letters = st.one_of(
    st.builds(yl, st.sampled_from([1, 2]), st.integers(-1, 1)),
    st.builds(zl, st.sampled_from([1, 2]), k_elts),
)
small_words = st.builds(lambda ls: FinWord(tuple(ls)), st.lists(letters, max_size=2))
s_elts = st.builds(SElt, small_words, g_elts, small_words)
# denominators up to 12 give the folds' common-denominator sums lcms well
# above any single denominator
coeffs = st.builds(Fraction, st.integers(-2, 2).filter(bool), st.integers(1, 12))
stein_full = st.builds(
    lambda ts: st_make(ts), st.lists(st.tuples(s_elts, coeffs), max_size=2)
)
any_region = st.sampled_from([REGION_FULL, REGION_B])
stein_any = st.builds(
    lambda ts, kind: st_make(ts, kind),
    st.lists(st.tuples(s_elts, coeffs), max_size=3),
    any_region,
)
# terms sharing a few alphas and betas, so that many germs meet
shared_words = st.sampled_from([EPS, finword(yl(1, 0)), finword(zl(2, K_ONE))])
stein_shared = st.builds(
    lambda ts, kind: st_make(ts, kind),
    st.lists(
        st.tuples(st.builds(SElt, shared_words, g_elts, shared_words), coeffs),
        max_size=4,
    ),
    any_region,
)
stein_keyed = st.one_of(stein_any, stein_shared)


def term_germs(f, suffix, tail):
    """Germs of f's terms at words extending their source prefixes."""
    out = []
    for s, _ in f.terms:
        w = s.beta + suffix
        if tail is not None:
            w = omega(w, tail)
        out.append(Germ(s, w))
    return out


# ---------------------------------------------------------------------------
# element construction and evaluation
# ---------------------------------------------------------------------------


def test_make_merges_and_drops():
    a = s_from_group(GElt(f=free_word("a")))
    f = st_make([(a, Fraction(1)), (a, Fraction(-1))])
    assert f == SteinElt()
    g = st_make([(a, 1), (a, 2), (S_ONE, 0)])
    assert g.terms == ((a, Fraction(3)),)


def test_region_membership():
    y_word = finword(yl(1, 0))
    z_word = finword(zl(2, K_ONE))
    assert region_member(REGION_B, y_word)
    assert region_member(REGION_B, omega(y_word, z_word))
    assert not region_member(REGION_B, z_word)
    assert not region_member(REGION_B, EPS)
    assert region_member(REGION_FULL, EPS)
    assert region_member(REGION_FULL, omega(z_word, y_word))
    with pytest.raises(ValueError):
        st_make([(S_ONE, 1)], "C")


def test_chiB_values():
    chiB = st_chiB()
    assert st_eval(chiB, Germ(S_ONE, finword(yl(1, 4)))) == 1
    assert st_eval(chiB, Germ(S_ONE, finword(zl(1, K_ONE)))) == 0
    assert st_eval(chiB, Germ(S_ONE, EPS)) == 0


def test_eval_sums_germ_equal_terms():
    # distinct H-elements collapse over y-words, so bn evaluates to 1 there
    for n in (1, 2):
        bn = st_bn(n)
        w = omega(finword(yl(1, 0)), finword(yl(2, 5)))
        assert st_eval(bn, Germ(S_ONE, w)) == 1
        h = s_from_group(h_elt(sphere(n)[0]))
        z = finword(zl(1, K_ONE))
        assert st_eval(bn, Germ(h, z)) == Fraction(1, 4 * 3 ** (n - 1))
        assert st_eval(bn, Germ(S_ONE, z)) == 0


@given(stein_full, stein_full, st.data())
def test_eval_is_linear(f, g, data):
    combined = st_make([(s, 1) for s, _ in f.terms + g.terms])
    assume(combined.terms)
    suffix = data.draw(small_words)
    gm = data.draw(st.sampled_from(term_germs(combined, suffix, None)))
    assert st_eval(st_sub(f, g), gm) == st_eval(f, gm) - st_eval(g, gm)
    assert st_eval(st_sub(SteinElt(), f), gm) == -st_eval(f, gm)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(stein_full, stein_full, st.data())
def test_conv_matches_pointwise_oracle(f, g, data):
    fg = st_conv(f, g)
    probe = st_make([(s, 1) for s, _ in fg.terms + f.terms + g.terms])
    assume(probe.terms)
    suffix = data.draw(small_words)
    tail = data.draw(st.one_of(st.none(), st.builds(lambda x: finword(x), letters)))
    gm = data.draw(st.sampled_from(term_germs(probe, suffix, tail)))
    assert st_eval(fg, gm) == oracle_conv_at(f, g, gm)


@settings(max_examples=100, deadline=None)
@given(stein_full, stein_full, stein_full)
def test_conv_associative(f, g, h):
    assert st_conv(st_conv(f, g), h) == st_conv(f, st_conv(g, h))


def test_conv_region_rules():
    f = st_make([(S_ONE, Fraction(1))])
    restricted = st_make([(S_ONE, Fraction(1))], REGION_B)
    assert st_conv(f, restricted).region == REGION_B
    with pytest.raises(ValueError):
        st_conv(restricted, f)
    with pytest.raises(ValueError, match="different regions"):
        st_sub(restricted, f)


def test_a_is_one_minus_a_conv_one_minus_b():
    one = s_from_group(GElt())
    a = s_from_group(GElt(f=free_word("a")))
    b = s_from_group(GElt(f=free_word("b")))
    lhs = st_conv(
        st_make([(one, 1), (a, -1)]), st_make([(one, 1), (b, -1)])
    )
    assert lhs == st_a()


# ---------------------------------------------------------------------------
# support strata: a * chiB (frozen four-germ table)
# ---------------------------------------------------------------------------


def a_chiB():
    return st_conv(st_a(), st_chiB())


def test_a_chiB_strata_table():
    strata = st_support_strata(a_chiB())
    assert len(strata) == 8  # four germs per channel
    assert all(not s.interior for s in strata)
    assert all(len(s.pattern) == 1 and s.pattern[0][0] == "gen" for s in strata)
    assert all(s.pattern[0][1] == "y" for s in strata)
    assert all(len(s.members) == 1 for s in strata)
    by_value = {}
    for s in strata:
        by_value.setdefault(s.value, []).append(s.members[0].g.f.chars)
    assert sorted(by_value[Fraction(1)]) == ["", "", "ab", "ab"]
    assert sorted(by_value[Fraction(-1)]) == ["a", "a", "b", "b"]


def test_a_chiB_germ_values():
    f = a_chiB()
    for n in (-3, 0, 11):
        for ch in (1, 2):
            w = finword(yl(ch, n))
            vals = {
                chars: st_eval(f, Germ(s_from_group(GElt(f=free_word(chars))), w))
                for chars in ("", "a", "b", "ab")
            }
            assert vals == {"": 1, "a": -1, "b": -1, "ab": 1}
    # off the one-letter words the function vanishes
    assert st_eval(f, Germ(S_ONE, omega(EPS, finword(yl(1, 2))))) == 0
    assert st_eval(f, Germ(S_ONE, finword(yl(1, 0), yl(1, 1)))) == 0
    assert st_eval(f, Germ(S_ONE, EPS)) == 0


def test_a_chiB_singular():
    verdict = st_is_singular(a_chiB())
    assert verdict.singular
    assert verdict.interior_stratum is None
    assert len(verdict.strata) == 8
    assert st_open_witness(a_chiB()) is None  # region B carries no z-words


# ---------------------------------------------------------------------------
# support strata: a * bn (frozen, nonsingular with open witness)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_a_bn_strata(n):
    size = 4 * 3 ** (n - 1)
    f = st_conv(st_a(), st_bn(n))
    strata = st_support_strata(f)
    open_strata = [s for s in strata if s.interior]
    assert open_strata  # cylinders inside the support
    assert all(s.pattern[0][1] == "z" for s in open_strata)
    assert {abs(s.value) for s in open_strata} == {Fraction(1, size)}
    y_strata = [s for s in strata if s.pattern and s.pattern[0][1] == "y"]
    assert {s.value for s in y_strata if len(s.pattern) == 1} == {
        Fraction(1),
        Fraction(-1),
    }
    eps_strata = [s for s in strata if not s.pattern]
    assert len(eps_strata) == 4 * size  # all group terms have distinct germs
    assert {abs(s.value) for s in eps_strata} == {Fraction(1, size)}


@pytest.mark.parametrize("n", [1, 2])
def test_a_bn_nonsingular_with_witness(n):
    size = 4 * 3 ** (n - 1)
    f = st_conv(st_a(), st_bn(n))
    verdict = st_is_singular(f)
    assert not verdict.singular
    assert verdict.interior_stratum is not None
    w = verdict.witness
    assert w is not None
    assert w.floor == Fraction(1, size)
    assert w.excluded == ()
    # validate the certificate at assorted germs
    for k in (K_ONE, KElt(free_word("cdc"), W_ONE, 7), KElt(W_ONE, free_word("a"), 0)):
        for tail in (EPS, finword(yl(2, 9)), finword(zl(1, k), zl(2, k))):
            base = finword(zl(w.channel, k)) + tail
            val = st_eval(f, Germ(s_from_group(w.group_elt), base))
            assert abs(val) == w.floor
            winf = omega(base, finword(yl(1, 3)))
            assert abs(st_eval(f, Germ(s_from_group(w.group_elt), winf))) == w.floor


def test_witness_coset_sums():
    # pi_1 separates the products t h, so every coset is a singleton
    f = st_conv(st_a(), st_bn(1))
    seen = set()
    for s, _ in f.terms:
        seen.add(hom_pi(1, s.g))
    assert len(seen) == len(f.terms)


def test_witness_respects_excluded_prefixes():
    # a term with a z-rooted source prefix excludes its leading index
    k = KElt(free_word("c"), W_ONE, 0)
    f = st_make(
        [
            (s_from_group(h_elt(free_word("c"))), Fraction(1)),
            (SElt(finword(yl(1, 0)), GElt(), finword(zl(1, k))), Fraction(1)),
        ]
    )
    w = st_open_witness(f)
    assert w is not None
    assert w.excluded == (k,)


def test_witness_none_when_cosets_cancel():
    h = s_from_group(h_elt(free_word("c")))
    f = st_make([(h, Fraction(1)), (h, Fraction(1)), (h, Fraction(-2))])
    assert f == SteinElt()
    g = st_make(
        [
            (s_from_group(GElt()), Fraction(1)),
            (s_from_group(GElt(n=1)), Fraction(-1)),
        ]
    )
    # pi_1 and pi_2 both separate these two, so no coset cancels: witness exists
    assert st_open_witness(g) is not None
    # alternating signs over an (n, m)-square cancel every coset sum in
    # both channels at once
    g2 = st_make(
        [
            (s_from_group(GElt(n=0, m=0)), Fraction(1)),
            (s_from_group(GElt(n=0, m=1)), Fraction(-1)),
            (s_from_group(GElt(n=1, m=0)), Fraction(-1)),
            (s_from_group(GElt(n=1, m=1)), Fraction(1)),
        ]
    )
    assert st_open_witness(g2) is None


# ---------------------------------------------------------------------------
# restricted indicators chi_U for compact opens U inside B
# ---------------------------------------------------------------------------


def chi_U_examples():
    y = finword(yl(1, 2))
    u_full = st_chi_cylinder(y)
    u_cut = st_sub(u_full, st_chi_cylinder(y + finword(zl(1, K_ONE))))
    return [u_full, u_cut]


@pytest.mark.parametrize("idx", [0, 1])
def test_a_chiU_singular_nonzero(idx):
    u = chi_U_examples()[idx]
    f = st_conv(st_a(), u)
    verdict = st_is_singular(f)
    assert verdict.singular
    assert verdict.strata  # nonzero
    vals = {s.value for s in verdict.strata}
    assert vals <= {Fraction(1), Fraction(-1)}


# ---------------------------------------------------------------------------
# sup distances
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bn_to_chiB_distance(n):
    assert st_sup_dist(st_bn(n), st_chiB()) == Fraction(1, 4 * 3 ** (n - 1))


def test_bn_pair_distance():
    assert st_sup_dist(st_bn(1), st_bn(2)) == Fraction(1, 4)
    assert st_sup_dist(st_bn(2), st_bn(3)) == Fraction(1, 12)
    assert st_sup_dist(st_bn(1), st_bn(1)) == 0


def test_sup_dist_sign_cancellation_regression():
    s = s_from_group(h_elt(free_word("c")))
    f = st_make([(s, Fraction(1))])
    g = st_make([(s, Fraction(-1))])
    assert st_sup_dist(f, g) == 2


def two_pass_sup_dist(f, g):
    """Reference two-pass sup distance: stratify an all-ones scaffold of
    both term lists, then evaluate f and g with st_eval at every stratum
    representative."""
    combined = st_make([(s, 1) for s, _ in f.terms + g.terms])
    best = Fraction(0)
    for stratum in st_support_strata(combined):
        gm = Germ(stratum.members[0], stratum.rep_word)
        best = max(best, abs(st_eval(f, gm) - st_eval(g, gm)))
    return best


def restricted(kind):
    """Elements restricted to the region of the given kind."""
    return st.builds(
        lambda ts: st_make(ts, kind),
        st.lists(st.tuples(s_elts, coeffs), max_size=2),
    )


@settings(max_examples=50, deadline=None)
@given(stein_full, stein_full)
def test_sup_dist_equals_two_pass_oracle(f, g):
    assert st_sup_dist(f, g) == two_pass_sup_dist(f, g)


@pytest.mark.parametrize("kind", [REGION_B, REGION_FULL])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sup_dist_equals_two_pass_oracle_on_regions(kind, data):
    f = data.draw(restricted(kind))
    g = data.draw(st.one_of(stein_full, restricted(kind), restricted(REGION_B)))
    assert st_sup_dist(f, g) == two_pass_sup_dist(f, g)
    assert st_sup_dist(g, f) == st_sup_dist(f, g)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_bn_to_a_chiB_distance_is_attained(n):
    abn, achib = st_conv(st_a(), st_bn(n)), a_chiB()
    d = st_sup_dist(abn, achib)
    assert d == Fraction(1, len(sphere(n)))
    # attained at [h, z] for a sphere word h: a*b_n is 1/|S_n| there, a*chiB 0
    h = s_from_group(h_elt(sphere(n)[0]))
    gm = Germ(h, finword(zl(1, K_ONE)))
    assert st_eval(abn, gm) - st_eval(achib, gm) == d


@settings(max_examples=100, deadline=None)
@given(stein_full, stein_full, st.data())
def test_sup_dist_dominates_samples(f, g, data):
    probe = st_make([(s, 1) for s, _ in f.terms + g.terms])
    assume(probe.terms)
    d = st_sup_dist(f, g)
    suffix = data.draw(small_words)
    tail = data.draw(st.one_of(st.none(), st.builds(lambda x: finword(x), letters)))
    for gm in term_germs(probe, suffix, tail):
        assert abs(st_eval(f, gm) - st_eval(g, gm)) <= d


@settings(max_examples=150, deadline=None)
@given(stein_keyed, st.lists(stein_keyed, min_size=1, max_size=4))
# b_1 alone settles every y-branch at depth 1, beside a*chiB it does not;
# a*chiB is singular and nonzero
@example(a_chiB(), [st_bn(1), st_conv(st_a(), st_bn(1)), a_chiB(), SteinElt()])
# the singular a*chi_U of two y-cylinders, whose source prefixes stay
# alive below the root, beside the nonsingular a*b_1
@example(
    a_chiB(),
    [
        st_conv(st_a(), st_bn(1)),
        st_conv(st_a(), st_chi_cylinder(finword(yl(1, 0)))),
        st_conv(st_a(), st_chi_cylinder(finword(yl(2, -3)))),
    ],
)
# zero elements fold to no class: distance 0, and every one singular
@example(SteinElt(), [SteinElt()])
def test_shared_fold_matches_each_elements_own_fold(ref, elements):
    # read against the first element only, as verify reads a*chiB
    parts = [ref, *elements]
    (dists,), singular = fold_readings(st_fold, parts, 1)
    assert singular == [st_is_singular(f).singular for f in parts]
    assert dists == [st_sup_dist(f, ref) for f in parts]


@settings(max_examples=100, deadline=None)
@given(st.lists(stein_keyed, min_size=1, max_size=4))
@example([st_chiB(), st_bn(1), st_bn(2), st_conv(st_a(), st_bn(1))])
def test_shared_sup_table_matches_each_pair(elements):
    # the Cauchy profile's sups: one fold of every element, read pairwise
    sups, _ = fold_readings(st_fold, elements, len(elements))
    for i, f in enumerate(elements):
        for j, g in enumerate(elements):
            assert sups[i][j] == st_sup_dist(f, g)


# ---------------------------------------------------------------------------
# degenerate cases
# ---------------------------------------------------------------------------


def test_zero_element():
    assert st_support_strata(SteinElt()) == ()
    assert st_is_singular(SteinElt()).singular
    assert st_open_witness(SteinElt()) is None
    assert st_conv(SteinElt(), st_a()) == SteinElt()


def strata_as_set(f):
    return {
        (s.pattern, s.rep_word, s.members, s.value, s.interior)
        for s in st_support_strata(f)
    }


def assert_members_sorted(f):
    """Members of every stratum in ``SElt.sort_key`` order, and
    the same strata whatever the order of f's terms."""
    # built directly, so the terms stay in reversed order
    backwards = SteinElt(f.terms[::-1], f.region)
    for h in (f, backwards):
        for s in st_support_strata(h):
            assert s.members == tuple(sorted(s.members, key=SElt.sort_key))
    assert strata_as_set(backwards) == strata_as_set(f)


def test_strata_rank_each_term_once(monkeypatch):
    f = st_conv(st_a(), st_bn(2))
    calls = []
    sort_key = SElt.sort_key

    def counting(s):
        calls.append(s)
        return sort_key(s)

    monkeypatch.setattr(SElt, "sort_key", counting)
    strata = st_support_strata(f)
    assert len(f.terms) == 48 and len(strata) == 152
    assert len(calls) <= len(f.terms)
    # some stratum has several members, so their order is tested
    assert max(len(s.members) for s in strata) > 1


def test_strata_rep_values_consistent():
    # every reported stratum value equals the evaluation at its representative
    for f in (a_chiB(), st_conv(st_a(), st_bn(1)), st_bn(2)):
        for s in st_support_strata(f):
            assert st_eval(f, Germ(s.members[0], s.rep_word)) == s.value


# ---------------------------------------------------------------------------
# the settled word-class walk against the full-depth walk
# ---------------------------------------------------------------------------


def oracle_word_classes(terms):
    """Yield ``(pattern, rep_word, interior, defined)`` for every class of
    the full-depth walk: every branch runs to L = max |beta| + 2, and the
    length-L classes, with an infinite representative, are the interior
    ones."""
    elts = [t[0] for t in terms]
    L = max(len(s.beta) + STABILIZATION_DEPTH for s in elts)
    written = [x for s in elts for x in s.alpha + s.beta]
    ys = {x.index for x in written if x.family == "y"}
    zs = {x.index for x in written if x.family == "z"}

    def walk(pos, pattern, rep, alive):
        rep_fin = FinWord(tuple(rep))
        defined = [
            t for t in terms if len(t[0].beta) <= pos and rep_fin.startswith(t[0].beta)
        ]
        if pos == L:
            tail = _fresh_letter("y", 1, L, ys, zs)
            yield pattern, omega(rep_fin, FinWord((tail,))), True, defined
            return
        yield pattern, rep_fin, False, defined
        children = sorted(
            {w[pos] for w in alive if len(w) > pos}, key=Letter.sort_key
        )
        for x in children:
            yield from walk(
                pos + 1,
                pattern + (("lit", x),),
                rep + [x],
                [w for w in alive if len(w) > pos and w[pos] == x],
            )
        for fam, ch in GEN_FAMILIES:
            x = _fresh_letter(fam, ch, pos, ys, zs)
            yield from walk(pos + 1, pattern + (("gen", fam, ch),), rep + [x], [])

    return walk(0, (), [], [s.beta for s in elts])


def oracle_class_sums(f, rep, defined):
    """Coefficient sum per germ key of f's terms at rep, inside f's region."""
    sums = {}
    if region_member(f.region, rep):
        for s, c in defined:
            key = germ_key(s, rep)
            sums[key] = sums.get(key, Fraction(0)) + c
    return sums


def oracle_sup_dist(f, g):
    """Largest |signed coefficient sum| per germ key over the full-depth
    classes of f's terms with +c and g's with -c."""
    signed = [(s, c, f) for s, c in f.terms] + [(s, -c, g) for s, c in g.terms]
    if not signed:
        return Fraction(0)
    best = Fraction(0)
    for _, rep, _, defined in oracle_word_classes(signed):
        sums = {}
        for s, c, side in defined:
            if region_member(side.region, rep):
                key = germ_key(s, rep)
                sums[key] = sums.get(key, Fraction(0)) + c
        best = max([best, *map(abs, sums.values())])
    return best


def oracle_singular(f):
    """No nonzero germ class over a full-length (open) word class."""
    if not f.terms:
        return True
    for _, rep, interior, defined in oracle_word_classes(f.terms):
        if interior and any(oracle_class_sums(f, rep, defined).values()):
            return False
    return True


def stratum_covers(stratum, pattern):
    if stratum.interior:
        return pattern[: len(stratum.pattern)] == stratum.pattern
    return pattern == stratum.pattern


@settings(max_examples=60, deadline=None)
@given(stein_any, stein_any)
def test_settled_walk_matches_full_depth_oracle(f, g):
    # every germ of every full-depth class lies in one stratum of its value
    strata = st_support_strata(f)
    if f.terms:
        for pattern, rep, _, defined in oracle_word_classes(f.terms):
            sums = oracle_class_sums(f, rep, defined)
            for s, _ in defined:
                key = germ_key(s, rep)
                hits = [
                    st_
                    for st_ in strata
                    if stratum_covers(st_, pattern)
                    and any(germ_key(m, rep) == key for m in st_.members)
                ]
                want = sums.get(key, Fraction(0))
                assert [h.value for h in hits] == ([want] if want else [])
    assert st_sup_dist(f, g) == oracle_sup_dist(f, g)
    assert st_is_singular(f).singular == oracle_singular(f)


@settings(max_examples=40, deadline=None)
@given(stein_any)
def test_sup_dist_and_strata_read_one_fold(f):
    # against zero the sup distance is the largest |stratum value|
    values = [abs(s.value) for s in st_support_strata(f)]
    assert st_sup_dist(f, SteinElt()) == max(values, default=0)
    assert st_sup_dist(f, f) == 0


@pytest.mark.parametrize("n", [1, 2])
def test_settled_walk_class_counts(n):
    # b_n - chiB settles at every first letter; a*b_n only at the z-letters
    pair = [st_bn(n), st_chiB()]
    abn = st_conv(st_a(), st_bn(n))
    signed = [(s, c) for f in pair for s, c in f.terms]
    assert sum(1 for _ in _class_sums(pair, False)[1]) == 5
    assert sum(1 for _ in _class_sums([abn], False)[1]) == 13
    assert sum(1 for _ in oracle_word_classes(signed)) == 21
    assert sum(1 for _ in oracle_word_classes(abn.terms)) == 21


# ---------------------------------------------------------------------------
# image keys against germ_key
# ---------------------------------------------------------------------------


def oracle_eval(f, gm):
    """The value at a germ, term by term: the coefficients of the terms
    defined at the base word whose ``germ_key`` there is the germ's."""
    if not region_member(f.region, gm.word):
        return Fraction(0)
    target = germ_key(gm.s, gm.word)
    return sum(
        (
            c
            for s, c in f.terms
            if s_defined_at(s, gm.word) and germ_key(s, gm.word) == target
        ),
        Fraction(0),
    )


@settings(max_examples=300, deadline=None)
@given(stein_keyed, stein_keyed, st.data())
def test_image_keys_partition_terms_as_germ_key_does(f, g, data):
    # every class of the fold groups its terms as germ_key does
    elts = [s for s, _ in f.terms + g.terms]
    for _, rep, _, sums in _class_sums([f, g], True)[1]:
        blocks = {frozenset(members) for *_, members in sums.values()}
        by_key = {}
        for *_, members in sums.values():
            for t in members:
                by_key.setdefault(germ_key(elts[t], rep), set()).add(t)
        assert blocks == {frozenset(b) for b in by_key.values()}
    # st_eval agrees with the term-by-term sum, also where the letters
    # past every beta are literals written in some term's alpha
    terms = f.terms + g.terms
    written = sorted(
        {x for s, _ in terms for x in s.alpha}, key=Letter.sort_key
    )
    pool = st.one_of(letters, st.sampled_from(written)) if written else letters
    for s, _ in terms:
        w = s.beta + FinWord(tuple(data.draw(st.lists(pool, max_size=3))))
        if data.draw(st.booleans()):
            period = data.draw(st.lists(pool, min_size=1, max_size=2))
            w = omega(w, FinWord(tuple(period)))
        for t, _ in terms:
            if s_defined_at(t, w):
                gm = Germ(t, w)
                assert st_eval(f, gm) == oracle_eval(f, gm)


def one_prefix_case():
    """A zero term, betas of lengths 0 to 2, and omega words whose heads
    are shorter than the longest beta."""
    y0, y1 = yl(1, 0), yl(1, 1)
    f = SteinElt(
        (
            (S_ZERO, Fraction(5)),
            (S_ONE, Fraction(1)),
            (s_proj(finword(y0)), Fraction(2)),
            (s_proj(finword(y0, y1)), Fraction(3)),
            (SElt(finword(y1), GElt(n=1), finword(y0, y0)), Fraction(7)),
        )
    )
    words = (
        EPS,
        finword(y0),
        finword(y0, y1),
        omega(EPS, finword(y0, y1)),
        omega(EPS, finword(y0)),
        omega(finword(y1), finword(y0)),
    )
    return f, words


def test_eval_reads_terms_off_one_prefix():
    f, words = one_prefix_case()
    for w in words:
        for s, _ in f.terms:
            if s_defined_at(s, w):
                gm = Germ(s, w)
                assert st_eval(f, gm) == oracle_eval(f, gm)


def test_evaluator_reads_terms_off_one_prefix(monkeypatch):
    # one evaluator for all words: at EPS the terms share beta = 1, past
    # y1[0] several betas are defined and germ_key keys them
    f, words = one_prefix_case()
    at = st_evaluator(f)
    calls = counting_germ_key(monkeypatch)
    for w in words:
        for s, _ in f.terms:
            if s_defined_at(s, w):
                gm = Germ(s, w)
                before = len(calls)
                assert at(gm) == oracle_eval(f, gm)
                mixed = w.prefix(1) == finword(yl(1, 0))
                assert (len(calls) > before) == mixed


@settings(max_examples=200, deadline=None)
@given(stein_keyed, st.data())
def test_evaluator_matches_term_oracle(f, data):
    # one evaluator read at many germs, so its tables serve words with
    # equal tail signatures and different letters, in any order
    at = st_evaluator(f)
    written = sorted({x for s, _ in f.terms for x in s.alpha}, key=Letter.sort_key)
    pool = st.one_of(letters, st.sampled_from(written)) if written else letters
    germs = []
    for s, _ in f.terms:
        for _ in range(3):
            w = s.beta + FinWord(tuple(data.draw(st.lists(pool, max_size=3))))
            if data.draw(st.booleans()):
                period = data.draw(st.lists(pool, min_size=1, max_size=2))
                w = omega(w, FinWord(tuple(period)))
            germs.extend(Germ(t, w) for t, _ in f.terms if s_defined_at(t, w))
        # a germ of an element that is not one of f's terms
        u = data.draw(st.builds(SElt, small_words, g_elts, st.just(s.beta)))
        germs.append(Germ(u, s.beta + finword(yl(2, 3))))
    for gm in data.draw(st.permutations(germs)):
        assert at(gm) == oracle_eval(f, gm)


def test_evaluator_keys_terms_once(monkeypatch):
    # a*b_2 read at 30 germs: its terms are keyed once, one table is
    # summed per tail signature, and the values are the terms' sums
    abn = st_conv(st_a(), st_bn(2))
    images, keyed = [], []
    real_images, real_keys = steinberg._key_images, steinberg._germ_keys

    def counting_images(elts, ids):
        images.append(len(elts))
        return real_images(elts, ids)

    def counting_keys(elts, imgs, b, word):
        keyed.append(len(elts))
        return real_keys(elts, imgs, b, word)

    monkeypatch.setattr(steinberg, "_key_images", counting_images)
    monkeypatch.setattr(steinberg, "_germ_keys", counting_keys)
    at = st_evaluator(abn)
    assert images == [len(abn.terms)]
    h = s_from_group(h_elt(sphere(2)[0]))
    for i in range(10):
        k = KElt(free_word("c" * i), W_ONE, i)
        for w in (finword(zl(1, k)), finword(zl(1, k), yl(2, i)), finword(yl(1, i))):
            assert at(Germ(h, w)) == oracle_eval(abn, Germ(h, w))
    assert images == [len(abn.terms)]
    # signatures z1, z1.y2 and y1: three tables, then one key per germ
    assert sorted(keyed, reverse=True)[:4] == [len(abn.terms)] * 3 + [1]
    assert keyed.count(1) == 30


@settings(max_examples=100, deadline=None)
@given(stein_keyed)
@example(st_conv(st_a(), st_bn(2)))
def test_strata_members_in_sort_key_order_for_any_term_order(f):
    assert_members_sorted(f)


def counting_germ_key(monkeypatch):
    calls = []

    def counting(s, w):
        calls.append((s, w))
        return germ_key(s, w)

    monkeypatch.setattr(steinberg, "germ_key", counting)
    return calls


def test_class_sums_key_shared_betas_by_images(monkeypatch):
    # a*b_2's terms all have beta = 1, so no class needs germ_key
    calls = counting_germ_key(monkeypatch)
    abn = st_conv(st_a(), st_bn(2))
    assert sum(1 for _ in _class_sums([abn], False)[1]) == 13
    assert calls == []
    # positive control: at y1[0], 1 acts on the letter that the
    # projection's beta holds, so that one class keys both terms
    x = finword(yl(1, 0))
    mixed = st_make([(S_ONE, 1), (s_proj(x), 1)])
    list(_class_sums([mixed], False)[1])
    assert calls == [(S_ONE, x), (s_proj(x), x)]


def test_eval_at_witness_germs_calls_no_germ_key(monkeypatch):
    # the open witness of a*b_2 read at germs [h, z[k].w]
    calls = counting_germ_key(monkeypatch)
    abn = st_conv(st_a(), st_bn(2))
    w = st_open_witness(abn)
    k = KElt(free_word("cd"), free_word("a"), 2)
    for rest in (EPS, finword(yl(2, 1)), omega(finword(zl(1, k)), finword(yl(1, 3)))):
        word = s_apply(s_from_word(finword(zl(w.channel, k))), rest)
        value = st_eval(abn, Germ(s_from_group(w.group_elt), word))
        assert abs(value) == w.floor
    assert calls == []
