"""Free-group and product-group arithmetic against independent oracles."""

import pytest
from hypothesis import given, strategies as st

from steinalg.groups import (
    FreeWord,
    GElt,
    G_ONE,
    H_GENS,
    KElt,
    K_ONE,
    W_ONE,
    ball,
    free_mul,
    free_word,
    group_inv,
    group_mul,
    hom_pi,
    hom_tau,
    hom_zeta,
    sphere,
    sphere_size,
)

# ---------------------------------------------------------------------------
# oracles: deliberately dumb, independent implementations
# ---------------------------------------------------------------------------


def oracle_reduce(chars):
    """Quadratic cancellation by repeated single-pair removal."""
    s = list(chars)
    changed = True
    while changed:
        changed = False
        for i in range(len(s) - 1):
            if s[i] != s[i + 1] and s[i].lower() == s[i + 1].lower():
                del s[i : i + 2]
                changed = True
                break
    return "".join(s)


def oracle_is_reduced(chars):
    return all(
        not (chars[i] != chars[i + 1] and chars[i].lower() == chars[i + 1].lower())
        for i in range(len(chars) - 1)
    )


def oracle_exp_sum(chars, gen):
    total = 0
    for ch in chars:
        if ch == gen:
            total += 1
        elif ch == gen.upper():
            total -= 1
    return total


def oracle_sphere(n, gens):
    signed = [g for gen in gens for g in (gen, gen.upper())]
    words = [""]
    for _ in range(n):
        words = [w + s for w in words for s in signed]
    return {w for w in words if oracle_is_reduced(w)}


word_chars = st.text(alphabet="cdCD", max_size=8)
f_chars = st.text(alphabet="abAB", max_size=8)


def g_elts():
    return st.builds(
        lambda h, f, n, m: GElt(free_word(h), free_word(f), n, m),
        word_chars,
        f_chars,
        st.integers(-5, 5),
        st.integers(-5, 5),
    )


# ---------------------------------------------------------------------------
# free words
# ---------------------------------------------------------------------------


def test_free_mul_frozen_cases():
    assert free_mul(free_word("ab"), free_word("Ba")) == free_word("aa")
    assert free_mul(free_word("cD"), free_word("dC")) == W_ONE
    assert free_mul(free_word("cdC"), free_word("cDC")) == free_word("cdDC") == free_word("")
    assert free_word("abA").chars == "abA"
    assert free_word("aA") == W_ONE


def test_unreduced_construction_rejected():
    with pytest.raises(ValueError):
        FreeWord("aA")


def test_inverse_frozen_cases():
    assert free_word("ab").inv().chars == "BA"
    assert free_word("cDd").inv() == free_word("C")
    assert str(W_ONE) == "1"


@given(word_chars, word_chars)
def test_mul_matches_oracle(u, v):
    assert free_mul(free_word(u), free_word(v)).chars == oracle_reduce(u + v)


@given(word_chars, word_chars, word_chars)
def test_mul_associative(u, v, w):
    a, b, c = free_word(u), free_word(v), free_word(w)
    assert (a * b) * c == a * (b * c)


@given(word_chars)
def test_inverse_law(u):
    w = free_word(u)
    assert w * w.inv() == W_ONE
    assert w.inv() * w == W_ONE


@given(word_chars)
def test_exp_sum_matches_oracle(u):
    w = free_word(u)
    for gen in ("c", "d"):
        assert w.exp_sum(gen) == oracle_exp_sum(w.chars, gen)


def test_exp_sum_frozen_cases():
    assert free_word("abAB").exp_sum("a") == 0
    assert free_word("abAB").exp_sum("b") == 0
    assert free_word("aBaB").exp_sum("a") == 2
    assert free_word("aBaB").exp_sum("b") == -2


# ---------------------------------------------------------------------------
# spheres and balls
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sphere_matches_bruteforce(n):
    got = sphere(n)
    assert {w.chars for w in got} == oracle_sphere(n, H_GENS)
    assert len(got) == 4 * 3 ** (n - 1) == sphere_size(n)
    assert list(got) == sorted(got, key=FreeWord.sort_key)


def test_sphere_zero_rejected():
    with pytest.raises(ValueError):
        sphere(0)
    with pytest.raises(ValueError):
        sphere(-1)


def test_ball_sizes():
    # 1 + sum of sphere sizes
    assert len(ball(0)) == 1
    assert len(ball(3)) == 1 + 4 + 12 + 36
    assert ball(2)[0] == W_ONE


# ---------------------------------------------------------------------------
# G and K
# ---------------------------------------------------------------------------


def test_group_mul_frozen_case():
    g1 = GElt(free_word("c"), free_word("a"), 1, 0)
    g2 = GElt(free_word("C"), free_word("b"), 0, 1)
    assert group_mul(g1, g2) == GElt(W_ONE, free_word("ab"), 1, 1)


def test_gelt_alphabet_validation():
    with pytest.raises(ValueError):
        GElt(free_word("a"), W_ONE, 0, 0)
    with pytest.raises(ValueError):
        KElt(W_ONE, free_word("c"), 0)


@given(g_elts(), g_elts(), g_elts())
def test_group_axioms(g1, g2, g3):
    assert (g1 * g2) * g3 == g1 * (g2 * g3)
    assert g1 * G_ONE == g1 == G_ONE * g1
    assert g1 * group_inv(g1) == G_ONE


def test_str_forms():
    g = GElt(free_word("cd"), free_word("aB"), 1, 0)
    assert str(g) == "(cd,aB,1,0)"
    assert str(G_ONE) == "(1,1,0,0)"
    assert str(K_ONE) == "(1,1,0)"


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------


def test_tau_frozen_cases():
    # exponent sums of the F-part, everything else forgotten
    g = GElt(W_ONE, free_word("abAb"), 0, 0)
    assert hom_tau(g) == GElt(W_ONE, W_ONE, 0, 2)
    assert hom_tau(GElt(free_word("cd"), free_word("a"), 7, -3)) == GElt(
        W_ONE, W_ONE, 1, 0
    )
    assert hom_tau(G_ONE) == G_ONE


@given(g_elts())
def test_tau_squared_trivial(g):
    assert hom_tau(hom_tau(g)) == G_ONE


@given(g_elts(), g_elts())
def test_homomorphism_laws(g1, g2):
    assert hom_tau(g1 * g2) == hom_tau(g1) * hom_tau(g2)
    for i in (1, 2):
        assert hom_pi(i, g1 * g2) == hom_pi(i, g1) * hom_pi(i, g2)
        assert hom_zeta(i, g1 * g2) == hom_zeta(i, g1) + hom_zeta(i, g2)


def test_pi_zeta_frozen_cases():
    g = GElt(free_word("c"), free_word("ab"), 4, -2)
    assert hom_pi(1, g) == KElt(free_word("c"), free_word("ab"), 4)
    assert hom_pi(2, g) == KElt(free_word("c"), free_word("ab"), -2)
    assert hom_zeta(1, g) == 4
    assert hom_zeta(2, g) == -2
    with pytest.raises(ValueError):
        hom_pi(3, g)
    with pytest.raises(ValueError):
        hom_zeta(0, g)
