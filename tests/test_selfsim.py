"""Action, S-products, and germ logic against independent oracles.

Two germ oracles stand beside ``germ_key``: one multiplies by an explicit
prefix projection and compares normal forms at the stabilization depth,
the other keys a germ by the whole image word.  germ_eq, the equal-key
relation kept here, must agree with both everywhere.
"""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from steinalg.groups import (
    FreeWord,
    GElt,
    G_ONE,
    KElt,
    K_ONE,
    W_ONE,
    ball,
    free_word,
    group_inv,
    group_mul,
    hom_pi,
    hom_tau,
    sphere,
)
from steinalg.selfsim import (
    EPS,
    FinWord,
    Letter,
    OmegaWord,
    S_ONE,
    S_ZERO,
    SElt,
    act_letter,
    act_omega,
    act_word,
    effectiveness_witness,
    finword,
    germ_key,
    omega,
    s_apply,
    s_defined_at,
    s_from_group,
    s_from_word,
    s_inv,
    s_mul,
    s_proj,
    strongly_fixed_spectrum,
    yl,
    zl,
)
from steinalg.steinberg import h_elt

# ---------------------------------------------------------------------------
# oracles and strategies
# ---------------------------------------------------------------------------


def restrict_letter(g, x):
    """The restriction of g past one letter: tau(g) past a y-letter, the
    identity past a z-letter."""
    if x.family == "y":
        return hom_tau(g)
    return G_ONE


def oracle_act_letters(g, letters):
    """The action letter by letter: act, then restrict, at every letter."""
    imgs = []
    for x in letters:
        imgs.append(act_letter(g, x))
        g = restrict_letter(g, x)
    return tuple(imgs), g


def germ_eq(s, t, w):
    """Whether s and t agree on a neighborhood of w: equal germ keys."""
    return germ_key(s, w) == germ_key(t, w)


def oracle_germ_eq(s, t, w):
    """Compare s gamma and t gamma structurally at the stabilization depth."""
    depth = max(len(s.beta), len(t.beta)) + 2
    if isinstance(w, FinWord):
        depth = min(len(w), depth)
    gamma = s_from_word(w.prefix(depth) if isinstance(w, OmegaWord) else w[:depth])
    return s_mul(s, gamma) == s_mul(t, gamma)


def oracle_germ_key(s, w):
    """The full-image key: the whole image word, with the restriction past
    a finite w and the weight for an infinite one."""
    if isinstance(w, FinWord):
        _, residual = act_word(s.g, w[len(s.beta):])
        return ("fin", s_apply(s, w), residual)
    return ("inf", len(s.alpha) - len(s.beta), s_apply(s, w))


def oracle_s_mul(s, t):
    """The product on FinWords: slice, wrap and re-add the words, and
    multiply by every restriction, trivial or not."""
    if s.zero or t.zero:
        return S_ZERO
    b1, a2 = s.beta, t.alpha
    if len(a2) >= len(b1):
        if not a2.startswith(b1):
            return S_ZERO
        gamma = a2[len(b1):]
        img, r = act_word(s.g, gamma)
        return SElt(alpha=s.alpha + img, g=r * t.g, beta=t.beta)
    if not b1.startswith(a2):
        return S_ZERO
    gamma = b1[len(a2):]
    gamma_pre, r_inv = act_word(group_inv(t.g), gamma)
    return SElt(alpha=s.alpha, g=s.g * group_inv(r_inv), beta=t.beta + gamma_pre)


k_elts = st.builds(
    lambda h, f, n: KElt(free_word(h), free_word(f), n),
    st.sampled_from(["", "c", "D", "cd"]),
    st.sampled_from(["", "a", "B"]),
    st.integers(-2, 2),
)
g_elts = st.builds(
    lambda h, f, n, m: GElt(free_word(h), free_word(f), n, m),
    st.sampled_from(["", "c", "D", "cd"]),
    st.sampled_from(["", "a", "B", "ab"]),
    st.integers(-2, 2),
    st.integers(-2, 2),
)
letters = st.one_of(
    st.builds(yl, st.sampled_from([1, 2]), st.integers(-2, 2)),
    st.builds(zl, st.sampled_from([1, 2]), k_elts),
)
fin_words = st.builds(lambda ls: FinWord(tuple(ls)), st.lists(letters, max_size=4))
omega_words = st.builds(
    omega,
    fin_words,
    st.builds(lambda ls: FinWord(tuple(ls)), st.lists(letters, min_size=1, max_size=3)),
)
words = st.one_of(fin_words, omega_words)
s_elts = st.builds(SElt, fin_words, g_elts, fin_words)
left_elts = st.one_of(st.just(S_ONE), st.builds(SElt, fin_words, g_elts))


def rebuilt(v):
    """v rebuilt through the public constructors, all the way down."""
    if isinstance(v, FreeWord):
        return FreeWord(v.chars)
    if isinstance(v, GElt):
        return GElt(rebuilt(v.h), rebuilt(v.f), v.n, v.m)
    if isinstance(v, KElt):
        return KElt(rebuilt(v.h), rebuilt(v.f), v.n)
    if isinstance(v, Letter):
        return Letter(v.family, v.channel, rebuilt(v.index))
    assert type(v) is int
    return v


def A(chars):
    return s_from_group(GElt(W_ONE, free_word(chars), 0, 0))


def Hh(chars):
    return s_from_group(GElt(free_word(chars), W_ONE, 0, 0))


# ---------------------------------------------------------------------------
# the action on letters and words
# ---------------------------------------------------------------------------


def test_letter_action_table():
    g = GElt(free_word("c"), free_word("ab"), 2, -1)
    assert act_letter(g, yl(1, 5)) == yl(1, 7)
    assert act_letter(g, yl(2, 5)) == yl(2, 4)
    assert restrict_letter(g, yl(1, 5)) == GElt(W_ONE, W_ONE, 1, 1)
    k = KElt(free_word("d"), W_ONE, 3)
    assert act_letter(g, zl(1, k)) == zl(1, hom_pi(1, g) * k)
    assert act_letter(g, zl(2, k)) == zl(2, hom_pi(2, g) * k)
    assert restrict_letter(g, zl(1, k)) == G_ONE


def test_letter_constructor_validates():
    for family, channel, index in (
        ("x", 1, 0), ("y", 3, 0), ("y", 1, K_ONE), ("z", 1, 0)
    ):
        with pytest.raises(ValueError):
            Letter(family, channel, index)


@given(g_elts, g_elts, k_elts, k_elts, letters, fin_words, st.sampled_from([1, 2]))
def test_internal_products_pass_public_validation(g1, g2, k1, k2, x, w, ch):
    # products, inverses and images are built unchecked; the public
    # constructors must accept every one of them as an equal, equal-hash value
    img, r = act_word(g1, w)
    outs = [
        group_mul(g1, g2), group_inv(g1), k1 * k2, k1.inv(), hom_tau(g1),
        hom_pi(ch, g1), act_letter(g1, x), restrict_letter(g1, x), *img, r,
    ]
    for v in outs:
        again = rebuilt(v)
        assert again == v
        assert hash(again) == hash(v)


def test_ball_words_pass_public_validation():
    # sphere and ball words are built unchecked as well
    for w in ball(5):
        again = rebuilt(w)
        assert again == w
        assert hash(again) == hash(w)


def test_h_elts_pass_public_validation():
    # h_elt embeds H-words unchecked, as the sphere averages st_bn do
    for h in ball(4):
        g = h_elt(h)
        again = rebuilt(g)
        assert again == g
        assert hash(again) == hash(g)


# the identity, an element with h = f = 1, and a general element
kinds_of_g = st.one_of(
    st.just(G_ONE),
    st.builds(
        lambda n, m: GElt(W_ONE, W_ONE, n, m), st.integers(-2, 2), st.integers(-2, 2)
    ),
    g_elts,
)
long_words = st.builds(lambda ls: FinWord(tuple(ls)), st.lists(letters, max_size=6))


@settings(max_examples=200)
@given(kinds_of_g, long_words, st.lists(letters, min_size=1, max_size=3))
def test_action_matches_letter_by_letter_oracle(g, w, period):
    img, r = act_word(g, w)
    assert (img.letters, r) == oracle_act_letters(g, w.letters)
    u = omega(w, FinWord(tuple(period)))
    depth = len(u.head) + 2 * len(u.period) + 3
    assert act_omega(g, u).prefix(depth).letters == oracle_act_letters(
        g, u.prefix(depth).letters
    )[0]


@given(g_elts, g_elts, fin_words)
def test_action_cocycle(g1, g2, w):
    img2, r2 = act_word(g2, w)
    img12, r12 = act_word(g1 * g2, w)
    img1, r1 = act_word(g1, img2)
    assert img12 == img1
    assert r12 == r1 * r2


@given(g_elts, fin_words)
def test_action_invertible(g, w):
    img, _ = act_word(g, w)
    back, _ = act_word(group_inv(g), img)
    assert back == w


@given(g_elts, omega_words, st.integers(0, 8))
def test_act_omega_matches_prefixes(g, w, k):
    assert act_omega(g, w).prefix(k) == act_word(g, w.prefix(k))[0]


def test_act_omega_frozen_case():
    w = omega(EPS, finword(yl(1, 0)))
    img = act_omega(A("a").g, w)
    assert img == omega(finword(yl(1, 0), yl(1, 1)), finword(yl(1, 0)))


def test_omega_canonical_form():
    x = yl(1, 0)
    z = zl(1, K_ONE)
    assert omega(finword(x), finword(x)) == omega(EPS, finword(x))
    assert omega(EPS, finword(x, x)) == omega(EPS, finword(x))
    assert omega(finword(z, x), finword(x)) == omega(finword(z), finword(x))
    assert omega(finword(z), finword(x, z)).head == EPS  # absorbed into rotation
    assert omega(EPS, finword(x)).prefix(3) == finword(x, x, x)
    with pytest.raises(ValueError):
        OmegaWord(EPS, EPS)


# ---------------------------------------------------------------------------
# product identities through letters (frozen)
# ---------------------------------------------------------------------------


def test_f_slides_past_y_as_tau():
    # t y = y tau(t) for every t in F and both channels
    for chars in ("a", "b", "A", "ab", "aB"):
        t = A(chars)
        tau_t = s_from_group(hom_tau(t.g))
        for ch in (1, 2):
            for n in (-1, 0, 3):
                y = s_from_word(finword(yl(ch, n)))
                assert s_mul(t, y) == s_mul(y, tau_t)


def test_integer_parts_shift_y_indices():
    for n, m in ((1, 0), (0, 1), (2, -3)):
        g = s_from_group(GElt(W_ONE, W_ONE, n, m))
        for k in (-1, 0, 2):
            assert s_mul(g, s_from_word(finword(yl(1, k)))) == s_from_word(
                finword(yl(1, n + k))
            )
            assert s_mul(g, s_from_word(finword(yl(2, k)))) == s_from_word(
                finword(yl(2, m + k))
            )


def test_h_acts_trivially_past_y():
    for chars in ("c", "d", "cD"):
        h = Hh(chars)
        y = s_from_word(finword(yl(1, 0)))
        assert s_mul(h, y) == y


def test_group_translates_z_indices():
    g = GElt(free_word("c"), free_word("a"), 1, 2)
    for ch in (1, 2):
        k = KElt(free_word("d"), free_word("b"), -1)
        z = s_from_word(finword(zl(ch, k)))
        expect = s_from_word(finword(zl(ch, hom_pi(ch, g) * k)))
        assert s_mul(s_from_group(g), z) == expect


# ---------------------------------------------------------------------------
# inverse-semigroup laws
# ---------------------------------------------------------------------------


@st.composite
def s_mul_cases(draw):
    """A pair (s, t) for each way a product goes: t's alpha extends s's
    beta, s's beta strictly extends t's alpha, the prefixes disagree, or
    a factor is zero.  g runs over the identity, elements with h = f = 1
    (trivial restriction past a y-letter) and general elements."""
    elts = st.builds(SElt, fin_words, kinds_of_g, fin_words)
    s, t = draw(elts), draw(elts)
    case = draw(st.sampled_from(["alpha-extends", "beta-extends", "any", "zero"]))
    if case == "alpha-extends":
        t = SElt(s.beta + draw(fin_words), t.g, t.beta)
    elif case == "beta-extends":
        rest = FinWord(tuple(draw(st.lists(letters, min_size=1, max_size=3))))
        s = SElt(s.alpha, s.g, t.alpha + rest)
    elif case == "zero":
        s, t = draw(st.sampled_from([(S_ZERO, t), (s, S_ZERO), (S_ZERO, S_ZERO)]))
    return s, t


_Y0, _Z0 = yl(1, 0), zl(2, K_ONE)
_A, _SHIFT = A("a").g, GElt(W_ONE, W_ONE, 1, 0)


@settings(max_examples=300)
@given(s_mul_cases())
# t's alpha extends s's beta: a y-letter leaves tau(a), a z-letter 1
@example((SElt(EPS, _A, EPS), s_from_word(finword(_Y0))))
@example((SElt(EPS, _A, EPS), s_from_word(finword(_Z0))))
# a trivial restriction past the letter: (1,1,1,0) shifts y0 only
@example((SElt(EPS, _SHIFT, EPS), s_from_word(finword(_Y0, _Z0))))
# s's beta extends t's alpha, with and without a restriction left
@example((s_proj(finword(_Y0, _Y0)), SElt(finword(_Y0), _A, EPS)))
@example((s_proj(finword(_Z0, _Y0)), SElt(finword(_Z0), _A, EPS)))
@example((S_ZERO, S_ONE))
def test_s_mul_matches_finword_oracle(case):
    s, t = case
    assert s_mul(s, t) == oracle_s_mul(s, t)


@settings(max_examples=200)
@given(s_elts, s_elts, s_elts)
def test_s_mul_associative(s, t, u):
    assert s_mul(s_mul(s, t), u) == s_mul(s, s_mul(t, u))


@given(s_elts)
def test_partial_isometry_laws(s):
    assert s_mul(s_mul(s, s_inv(s)), s) == s
    assert s_mul(s, S_ONE) == s == s_mul(S_ONE, s)
    assert s_mul(s, S_ZERO) == S_ZERO == s_mul(S_ZERO, s)
    assert s_inv(s_inv(s)) == s


@given(s_elts, s_elts)
def test_involution_antihomomorphism(s, t):
    assert s_inv(s_mul(s, t)) == s_mul(s_inv(t), s_inv(s))


@given(fin_words)
def test_projection_idempotent(alpha):
    p = s_proj(alpha)
    assert s_mul(p, p) == p
    assert s_inv(p) == p


def test_s_mul_frozen_cases():
    y0, y1 = yl(1, 0), yl(1, 1)
    a = A("a")
    # (y0 a) (y0^*) absorbs nothing: beta grows by the preimage of y0 under a
    s = SElt(finword(y0), a.g, EPS)
    t = SElt(EPS, G_ONE, finword(y0))
    assert s_mul(s, t) == SElt(finword(y0), a.g, finword(y0))
    # projection meet: D(y0) D(y1) = 0
    assert s_mul(s_proj(finword(y0)), s_proj(finword(y1))) == S_ZERO
    # domain transport: a^{-1} arrives where a departs
    assert s_mul(s_inv(a), s_mul(a, s_from_word(finword(y0)))) == s_from_word(
        finword(y0)
    )


# ---------------------------------------------------------------------------
# applying S-elements to words
# ---------------------------------------------------------------------------


@given(s_elts, s_elts, words)
def test_apply_is_functorial(s, t, w):
    st_ = s_mul(s, t)
    assume(s_defined_at(st_, w))
    tw = s_apply(t, w)
    assume(s_defined_at(s, tw))
    assert s_apply(st_, w) == s_apply(s, tw)


@given(s_elts, words)
def test_apply_roundtrip(s, w):
    assume(s_defined_at(s, w))
    img = s_apply(s, w)
    assert s_defined_at(s_inv(s), img)
    assert s_apply(s_inv(s), img) == w


def test_apply_undefined_raises():
    s = SElt(EPS, G_ONE, finword(yl(1, 0)))
    with pytest.raises(ValueError):
        s_apply(s, finword(yl(1, 1)))
    with pytest.raises(ValueError):
        s_apply(S_ZERO, EPS)


# ---------------------------------------------------------------------------
# germs
# ---------------------------------------------------------------------------


def test_h_germs_collapse_over_y_only():
    # distinct H-elements agree near y-rooted words, never near z-rooted
    # words or the empty word
    hs = [Hh("c"), Hh("d"), Hh("C"), Hh("cd")]
    y_word = finword(yl(1, 0), yl(2, 3))
    y_inf = omega(EPS, finword(yl(2, -1)))
    z_word = finword(zl(1, K_ONE), yl(1, 0))
    z_inf = omega(finword(zl(2, K_ONE)), finword(yl(1, 0)))
    for i, h1 in enumerate(hs):
        for h2 in hs[i + 1 :]:
            for w in (y_word, y_inf):
                assert germ_eq(h1, h2, w)
            for w in (z_word, z_inf, EPS):
                assert not germ_eq(h1, h2, w)


def test_germ_undefined_raises():
    s = SElt(EPS, G_ONE, finword(yl(1, 0)))
    with pytest.raises(ValueError):
        germ_eq(s, S_ONE, finword(zl(1, K_ONE)))
    # the zero element, a proper prefix of beta, an omega word off beta
    long_beta = SElt(EPS, G_ONE, finword(yl(1, 0), zl(2, K_ONE)))
    off_beta = omega(finword(yl(1, 0)), finword(yl(2, 1)))
    for t, w in (
        (S_ZERO, finword(yl(1, 0))),
        (long_beta, finword(yl(1, 0))),
        (long_beta, off_beta),
    ):
        with pytest.raises(ValueError, match="germ undefined"):
            germ_key(t, w)


@settings(max_examples=300)
@given(
    s_elts,
    s_elts,
    left_elts,
    st.lists(letters, max_size=3),
    st.one_of(st.none(), omega_words),
    st.integers(0, 3),
)
def test_germ_eq_matches_oracle(s, t, u, suffix, tail, cut):
    w = s.beta + FinWord(tuple(suffix))
    if tail is not None and 0 < cut <= len(s.beta):
        # the word repeats the last letters of beta, so the canonical head
        # is shorter than beta and the key's prefix runs into the period
        w = omega(s.beta, s.beta[-cut:])
    elif tail is not None:
        w = omega(w, tail.period)
    # near's beta is longer by cut letters, and u has an empty beta, so
    # near is defined at w
    near = s_mul(u, s_mul(s, s_proj(w.prefix(len(s.beta) + cut))))
    for other in (t, near):
        if s_defined_at(other, w):
            assert germ_eq(s, other, w) == oracle_germ_eq(s, other, w)
            same_key = germ_key(s, w) == germ_key(other, w)
            assert same_key == (oracle_germ_key(s, w) == oracle_germ_key(other, w))


@given(s_elts, st.lists(letters, min_size=1, max_size=3))
def test_germ_eq_after_projection_cut(s, suffix):
    # s and s (restricted to a smaller cylinder around w) share the germ
    w = s.beta + FinWord(tuple(suffix))
    t = s_mul(s, s_proj(w.prefix(len(s.beta) + 1)))
    assert germ_eq(s, t, w)
    assert oracle_germ_eq(s, t, w)


@given(s_elts, s_elts, s_elts, st.lists(letters, max_size=3))
def test_germ_eq_left_composition(s, t, u, suffix):
    w = s.beta + FinWord(tuple(suffix))
    assume(s_defined_at(s, w) and s_defined_at(t, w))
    us, ut = s_mul(u, s), s_mul(u, t)
    assume(s_defined_at(us, w) and s_defined_at(ut, w))
    if germ_eq(s, t, w):
        assert germ_eq(us, ut, w)


# ---------------------------------------------------------------------------
# fixed-point spectrum and effectiveness
# ---------------------------------------------------------------------------


def test_spectrum_frozen_case():
    spec = strongly_fixed_spectrum(GElt(W_ONE, W_ONE, 0, 5))
    assert spec == {("y", 1), ("z", 1)}


def test_spectrum_tau_obstruction():
    # fixes every y-index but with nontrivial restriction: not strongly fixed
    spec = strongly_fixed_spectrum(GElt(W_ONE, free_word("ab"), 0, 0))
    assert ("y", 1) not in spec
    assert ("z", 1) not in spec  # pi_1 sees the f-part
    # the commutator has trivial tau, so it strongly fixes both y-families
    # while still acting effectively on z
    spec2 = strongly_fixed_spectrum(GElt(W_ONE, free_word("abAB"), 0, 0))
    assert ("y", 1) in spec2
    assert ("y", 2) in spec2
    assert ("z", 1) not in spec2


@given(g_elts)
def test_spectrum_matches_direct_check(g):
    spec = strongly_fixed_spectrum(g)
    samples = {
        ("y", 1): [yl(1, n) for n in (-2, 0, 1, 7)],
        ("y", 2): [yl(2, n) for n in (-2, 0, 1, 7)],
        ("z", 1): [zl(1, k) for k in (K_ONE, KElt(free_word("c"), W_ONE, 2))],
        ("z", 2): [zl(2, k) for k in (K_ONE, KElt(free_word("c"), W_ONE, 2))],
    }
    for key, xs in samples.items():
        fixed = [
            act_letter(g, x) == x and restrict_letter(g, x) == G_ONE for x in xs
        ]
        if key in spec:
            assert all(fixed)
        else:
            assert not any(fixed)


def test_effectiveness_witness_frozen():
    w = effectiveness_witness(GElt(W_ONE, W_ONE, 0, 5))
    assert w.letter.channel == 2
    assert w.letter == zl(2, K_ONE)
    assert w.image == zl(2, KElt(W_ONE, W_ONE, 5))
    with pytest.raises(ValueError):
        effectiveness_witness(G_ONE)


@given(g_elts)
def test_effectiveness_witness_moves(g):
    assume(not g.is_identity())
    w = effectiveness_witness(g)
    assert w.image != w.letter
    assert act_letter(g, w.letter) == w.image
    if w.letter.channel == 2:
        assert hom_pi(1, g).is_identity()


def test_sphere_elements_never_fix_z():
    # group elements used by the averaging all act effectively
    for h in sphere(2):
        g = GElt(h, W_ONE, 0, 0)
        assert effectiveness_witness(g).letter.channel == 1
