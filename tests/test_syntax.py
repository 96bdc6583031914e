"""Text syntax round trips.

The printer is the oracle for the parser: for every generated value,
parsing its printed form must reproduce it exactly.  Group elements,
K-elements, letters and words round-trip as the S-elements they spell;
unit sets round-trip through ``str``.  Frozen examples pin the concrete
grammar (separators, aliases, shorthands), and error cases pin positions
in the diagnostics.
"""

import pytest
from hypothesis import given, settings, strategies as st

from steinalg.bundle import WHOLE_SET, buset, buset_union
from steinalg.groups import GElt, KElt, W_ONE, free_word
from steinalg.selfsim import FinWord, SElt, S_ONE, S_ZERO, finword, yl, zl
from steinalg.syntax import ParseError, parse_buset, parse_selt

k_elts = st.builds(
    lambda h, f, n: KElt(free_word(h), free_word(f), n),
    st.sampled_from(["", "c", "D", "cd"]),
    st.sampled_from(["", "a", "B"]),
    st.integers(-3, 3),
)
g_elts = st.builds(
    lambda h, f, n, m: GElt(free_word(h), free_word(f), n, m),
    st.sampled_from(["", "c", "D", "cdC"]),
    st.sampled_from(["", "a", "B", "ab"]),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
letters = st.one_of(
    st.builds(yl, st.sampled_from([1, 2]), st.integers(-4, 4)),
    st.builds(zl, st.sampled_from([1, 2]), k_elts),
)
fin_words = st.builds(lambda ls: FinWord(tuple(ls)), st.lists(letters, max_size=4))
s_elts = st.builds(SElt, fin_words, g_elts, fin_words)
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


def letter(x):
    return SElt(alpha=finword(x))


# ---------------------------------------------------------------------------
# round trips: parse is a left inverse of print
# ---------------------------------------------------------------------------


@given(g_elts)
def test_gelt_round_trip(g):
    s = SElt(g=g)
    assert parse_selt(str(s)) == s


@given(k_elts)
def test_kelt_round_trip(k):
    # a K-element alone is not an algebra element; it prints as a z-index
    s = letter(zl(1, k))
    assert parse_selt(str(s)) == s


@given(letters)
def test_letter_round_trip(x):
    s = letter(x)
    assert parse_selt(str(s)) == s


@given(fin_words)
def test_finword_round_trip(w):
    # the '.'-separated print parses as the product of its letters
    s = SElt(alpha=w)
    assert parse_selt(str(s)) == s


@settings(max_examples=200)
@given(s_elts)
def test_selt_round_trip(s):
    assert parse_selt(str(s)) == s


@given(unit_sets)
def test_buset_round_trip(U):
    assert parse_buset(str(U)) == U


# ---------------------------------------------------------------------------
# frozen grammar facts
# ---------------------------------------------------------------------------


def test_letter_alias_and_shorthands():
    assert parse_selt("x1[(1,1,0)]") == letter(zl(1))
    assert parse_selt("x2[5]") == letter(zl(2, KElt(n=5)))
    assert parse_selt("z1[-2]") == letter(zl(1, KElt(n=-2)))
    assert parse_selt("(3,-2)") == SElt(g=GElt(n=3, m=-2))
    k = KElt(free_word("cd"), free_word("ab"), -1)
    assert parse_selt("z2[(c*d,ab,-1)]") == letter(zl(2, k))
    assert parse_selt("(1,1,0,0)") == S_ONE


def test_word_separators():
    w = finword(yl(1, 0), zl(1))
    assert parse_selt("y1[0].z1[(1,1,0)]") == SElt(alpha=w)


def test_selt_expression_forms():
    triple = SElt(
        finword(yl(1, 0)),
        GElt(free_word("c"), W_ONE, 0, 0),
        finword(yl(1, 0), yl(1, 1)),
    )
    printed = "y1[0] ^ (c,1,0,0) ^ (y1[0].y1[1])*"
    assert parse_selt(printed) == triple
    # the separators are all multiplication, so spacing variants agree
    assert parse_selt("y1[0] * (c,1,0,0) * (y1[0].y1[1])*") == triple
    assert parse_selt("y1[0](c,1,0,0)(y1[0].y1[1])*") == triple
    assert parse_selt("1") == S_ONE
    assert parse_selt("0") == S_ZERO
    # a star before another atom is the infix product, not an involution;
    # an explicit separator keeps it postfix
    assert parse_selt("y1[0]* . y1[0]") == S_ONE
    assert parse_selt("y1[0]* y1[0]") == parse_selt("y1[0].y1[0]")
    assert parse_selt("x1[(1,1,0)]* . y1[0]") == S_ZERO
    assert str(parse_selt("y1[0]**")) == "y1[0]"


def test_buset_expression_forms():
    assert str(parse_buset("U(y[3];{x[3,1]})")) == "U(y[3];{x[3,1]})"
    assert parse_buset("{}").is_empty()
    assert parse_buset("U(eps)") == WHOLE_SET
    got = parse_buset("z[1] u z[5] u U(y[2])")
    assert got == buset(zs={1, 5}, cols={2: (True, set())})
    assert parse_buset("U(y[3]) & (x[3,1] u x[3,2] u z[9])") == buset(
        cols={3: (False, {1, 2})}
    )
    assert parse_buset("U(eps;{z[2],col[2]}) u x[2,7]") == buset(
        eps=True, zs={2}, cols={2: (False, {7})}
    )


def test_union_and_intersection_match_set_algebra():
    a = buset(cols={1: (True, {2})})
    b = buset(zs={4})
    assert parse_buset(f"{a} u {b}") == buset_union(a, b)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def err_pos(fn, text):
    with pytest.raises(ParseError) as exc:
        fn(text)
    return exc.value.pos


def test_error_positions():
    assert err_pos(parse_selt, "y3[0]") == 0
    assert err_pos(parse_selt, "y1[0] ^^") == 7
    assert err_pos(parse_selt, "(c,1,0,x)") == 7
    assert err_pos(parse_selt, "y1[0] . (c,1,0") > 5
    assert err_pos(parse_selt, "y1[0]!!") == 5
    assert err_pos(parse_buset, "U(y[3];{z[1]})") == 0
    assert err_pos(parse_buset, "eps") == 0
    assert err_pos(parse_buset, "y[3]") == 0


def test_error_diagnostic_shows_caret():
    with pytest.raises(ParseError) as exc:
        parse_selt("y1[0] ^^")
    diag = exc.value.diagnostic()
    lines = diag.splitlines()
    assert lines[1].strip() == "y1[0] ^^"
    assert lines[2].index("^") == 2 + 7


def test_alphabet_violations_are_reported():
    with pytest.raises(ParseError):
        parse_selt("(ab,cd,0,0)")  # parts swapped
    with pytest.raises(ParseError):
        parse_selt("(c,1,0,0,1)")


def test_kelt_rejected_as_element():
    with pytest.raises(ParseError):
        parse_selt("(c,1,0)")

