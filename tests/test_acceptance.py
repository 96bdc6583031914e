"""Acceptance gate: the ten headline checks, one test and one line each.

Each test prints a single pass/fail line (visible with -s, and implicit in
the pytest -v listing) and enforces its stated runtime budget.  Two checks
carry their own exact proofs: criterion 4 asserts the exact convolved
sup-norm rate 1/(4*3^(n-1)) together with the convolution bound
2/(4*3^(n-1)), and criterion 5 certifies in rational arithmetic that no
correct radius-12 lower bound for the sphere-1 walk reaches 0.85, then
checks the band at radius 14, the first radius that clears it.
"""

import random
import time
from fractions import Fraction

from steinalg.bundle import (
    barrow,
    bstein_conv,
    bstein_eval,
    bundle_a,
    bundle_bn,
    bundle_chiB,
    bundle_is_singular,
    bundle_sup_dist,
    uy,
    ux,
    uz,
    U_EPS,
)
from steinalg.groups import (
    F_GENS,
    GElt,
    H_GENS,
    KElt,
    K_ONE,
    W_ONE,
    ball,
    free_word,
    hom_pi,
    sphere,
)
from steinalg.repnorm import haagerup_bound, rho_estimate, stein_H_norm_bound
from steinalg.selfsim import (
    EPS,
    FinWord,
    Germ,
    S_ONE,
    SElt,
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
from steinalg.steinberg import (
    h_elt,
    st_a,
    st_bn,
    st_chiB,
    st_chi_cylinder,
    st_conv,
    st_eval,
    st_is_singular,
    st_make,
    st_open_witness,
)


def germ_eq(s, t, w) -> bool:
    """Whether s and t agree on a neighborhood of w: equal germ keys."""
    return germ_key(s, w) == germ_key(t, w)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} [{status}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def _sample_free(rng, gens, maxlen=3):
    chars = "".join(
        rng.choice(gens + tuple(g.upper() for g in gens))
        for _ in range(rng.randrange(maxlen + 1))
    )
    return free_word(chars)


def _sample_kelt(rng):
    return KElt(
        _sample_free(rng, H_GENS), _sample_free(rng, F_GENS), rng.randrange(-3, 4)
    )


def _sample_gelt(rng):
    return GElt(
        _sample_free(rng, H_GENS),
        _sample_free(rng, F_GENS),
        rng.randrange(-3, 4),
        rng.randrange(-3, 4),
    )


def _sample_letter(rng):
    if rng.random() < 0.5:
        return yl(rng.choice((1, 2)), rng.randrange(-5, 6))
    return zl(rng.choice((1, 2)), _sample_kelt(rng))


def _sample_word(rng):
    head = finword(*(_sample_letter(rng) for _ in range(rng.randrange(4))))
    if rng.random() < 0.4:
        period = finword(*(_sample_letter(rng) for _ in range(rng.randrange(1, 3))))
        return omega(head, period)
    return head


def _g(f="", h="", n=0, m=0):
    return s_from_group(GElt(free_word(h), free_word(f), n, m))


def _y(ch, n):
    return s_from_word(finword(yl(ch, n)))


def _z(ch, k):
    return s_from_word(finword(zl(ch, k)))


# ---------------------------------------------------------------------------
# 1. semigroup identity suite
# ---------------------------------------------------------------------------


def test_criterion_01_semigroup_identities():
    start = time.monotonic()
    rng = random.Random(101)
    ok = True
    for n in range(-20, 21):
        for ch in (1, 2):
            y = _y(ch, n)
            ok = ok and s_mul(S_ONE, y) == s_mul(y, S_ONE) == y
            ok = ok and s_mul(_g(f="a"), y) == s_mul(y, _g(n=1))
            ok = ok and s_mul(_g(f="b"), y) == s_mul(y, _g(m=1))
            ok = ok and s_mul(_g(f="ab"), y) == s_mul(y, _g(n=1, m=1))
            shifted = _y(ch, n + 1)
            same = (_g(m=1), _g(n=1)) if ch == 1 else (_g(n=1), _g(m=1))
            moving = (_g(n=1), _g(n=1, m=1)) if ch == 1 else (_g(m=1), _g(n=1, m=1))
            ok = ok and s_mul(same[0], y) == y
            ok = ok and all(s_mul(t, y) == shifted for t in moving)
    for _ in range(50):
        k = _sample_kelt(rng)
        for ch in (1, 2):
            z = _z(ch, k)
            fixing = _g(m=1) if ch == 1 else _g(n=1)
            ok = ok and s_mul(S_ONE, z) == s_mul(fixing, z) == z
            moved = _z(ch, KElt(n=1) * k)
            ok = ok and s_mul(_g(n=1) if ch == 1 else _g(m=1), z) == moved
            ok = ok and s_mul(_g(n=1, m=1), z) == moved
    elapsed = time.monotonic() - start
    _report(
        1,
        "semigroup identity suite",
        ok and elapsed < 1.0,
        f"product-with-y and product-after-y exact for n in [-20,20], both "
        f"channels, 50 sampled k; {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. germ-intersection law
# ---------------------------------------------------------------------------


def test_criterion_02_germ_intersection_law():
    start = time.monotonic()
    rng = random.Random(102)
    elems = [s_from_group(h_elt(h)) for h in sphere(1) + sphere(2)]
    words = [EPS] + [_sample_word(rng) for _ in range(99)]

    def first_is_y(w):
        if isinstance(w, FinWord):
            return len(w) > 0 and w[0].family == "y"
        return w.prefix(1)[0].family == "y"

    ok = True
    for i, s1 in enumerate(elems):
        for s2 in elems[i + 1:]:
            for w in words:
                ok = ok and germ_eq(s1, s2, w) == first_is_y(w)
    elapsed = time.monotonic() - start
    _report(
        2,
        "germ-intersection law",
        ok and elapsed < 5.0,
        f"germ_eq(h1,h2,w) iff w starts in Y over all {len(elems)} sphere "
        f"elements and {len(words)} words; {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. bundle value table
# ---------------------------------------------------------------------------


def test_criterion_03_bundle_value_table():
    start = time.monotonic()
    achib = bstein_conv(bundle_a(), bundle_chiB())
    x, y, z = ux(1, 2), uy(3), uz(4)
    ok = bstein_eval(achib, barrow(0, W_ONE, x)) == 0
    ok = ok and bstein_eval(achib, barrow(0, W_ONE, y)) == 1
    ok = ok and bstein_eval(achib, barrow(1, W_ONE, y)) == -1
    for h in ball(2):
        for bit in (0, 1):
            ok = ok and bstein_eval(achib, barrow(bit, h, z)) == 0
            ok = ok and bstein_eval(achib, barrow(bit, h, U_EPS)) == 0
    for n in range(1, 7):
        bn = bundle_bn(n)
        size = len(sphere(n))
        ok = ok and bstein_eval(bn, barrow(0, W_ONE, x)) == 1
        ok = ok and bstein_eval(bn, barrow(0, W_ONE, y)) == 1
        ok = ok and bstein_eval(bn, barrow(1, W_ONE, y)) == 0
        h = sphere(n)[0]
        for u in (z, U_EPS):
            ok = ok and bstein_eval(bn, barrow(0, h, u)) == Fraction(1, size)
            ok = ok and bstein_eval(bn, barrow(1, h, u)) == 0
            ok = ok and bstein_eval(bn, barrow(0, W_ONE, u)) == 0
    elapsed = time.monotonic() - start
    _report(
        3,
        "bundle value table",
        ok and elapsed < 1.0,
        f"a*chiB is 0,+1,-1,0,0 on x,(0,y),(1,y),z,eps; b_n values exact "
        f"for n <= 6; {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 4. sup-norm rates
# ---------------------------------------------------------------------------


def _fiber_support(f, u):
    """Arrows over u where f can be nonzero: f(alpha) sums the terms whose
    bisection passes through alpha, so over z and eps only the terms' own
    (bit, h) pairs carry values."""
    if u.kind == "x":
        return [barrow(0, W_ONE, u)]
    if u.kind == "y":
        return [barrow(0, W_ONE, u), barrow(1, W_ONE, u)]
    hs = {W_ONE} | {h for _, h, _, _ in f.terms}
    return [barrow(b, h, u) for b in (0, 1) for h in hs]


def _conv_oracle_bundle(f, g, gamma):
    """(f*g)(gamma) as the fiberwise sum over beta of f(gamma beta^-1) g(beta),
    from pointwise values of f and of g; only beta = alpha^-1 gamma with
    alpha in the fiber support of f can contribute."""
    total = Fraction(0)
    for alpha in _fiber_support(f, gamma.unit):
        f_val = bstein_eval(f, alpha)
        if f_val:
            beta = barrow(
                (alpha.bit + gamma.bit) % 2, alpha.h.inv() * gamma.h, gamma.unit
            )
            total += f_val * bstein_eval(g, beta)
    return total


def test_criterion_04_sup_norm_rates():
    start = time.monotonic()
    rng = random.Random(104)
    A, chib = bundle_a(), bundle_chiB()
    achib = bstein_conv(A, chib)
    plain, convd, oracle_ok = {}, {}, True
    for n in range(1, 6):
        bn = bundle_bn(n)
        abn = bstein_conv(A, bn)
        plain[n] = bundle_sup_dist(bn, chib)
        convd[n] = bundle_sup_dist(abn, achib)
        # 100 evaluation points per n: every unit kind, extremal and random
        # fibers; the stratified sup must be attained and never exceeded.
        # The convolutions are re-derived fiberwise from a, b_n and chiB.
        arrows = [
            barrow(0, W_ONE, ux(1, 1)),
            barrow(0, W_ONE, uy(1)),
            barrow(1, W_ONE, uy(2)),
        ]
        fibers = [W_ONE] + list(sphere(n)[:6]) + [
            _sample_free(rng, H_GENS, 3) for _ in range(5)
        ]
        for u in (uz(1), uz(5), U_EPS):
            for h in fibers:
                arrows.append(barrow(0, h, u))
                arrows.append(barrow(1, h, u))
        gaps = []
        for ar in arrows:
            want_abn = _conv_oracle_bundle(A, bn, ar)
            want_achib = _conv_oracle_bundle(A, chib, ar)
            oracle_ok = oracle_ok and bstein_eval(abn, ar) == want_abn
            oracle_ok = oracle_ok and bstein_eval(achib, ar) == want_achib
            gaps.append(abs(want_abn - want_achib))
        oracle_ok = oracle_ok and max(gaps) == convd[n]
        # the gap 1/|S_n| is attained on both bits over a sphere fiber at a
        # z-point and at eps, where a*chiB vanishes
        h = sphere(n)[0]
        for u in (uz(1), U_EPS):
            for bit, sign in ((0, 1), (1, -1)):
                ar = barrow(bit, h, u)
                oracle_ok = oracle_ok and ar in arrows
                oracle_ok = oracle_ok and _conv_oracle_bundle(A, bn, ar) == (
                    Fraction(sign, len(sphere(n)))
                )
                oracle_ok = oracle_ok and _conv_oracle_bundle(A, chib, ar) == 0
        seen_plain = max(
            abs(bstein_eval(bn, ar) - bstein_eval(chib, ar)) for ar in arrows
        )
        oracle_ok = oracle_ok and seen_plain == plain[n]
    elapsed = time.monotonic() - start
    rate_plain = all(plain[n] == Fraction(1, 4 * 3 ** (n - 1)) for n in plain)
    rate_conv = all(convd[n] == Fraction(1, 4 * 3 ** (n - 1)) for n in convd)
    within_bound = all(convd[n] <= 2 * plain[n] for n in convd)
    _report(
        4,
        "sup-norm rates",
        rate_plain and rate_conv and within_bound and oracle_ok
        and elapsed < 5.0,
        f"sup|b_n - chiB| = {dict((n, str(v)) for n, v in plain.items())} "
        f"= 1/(4*3^(n-1)); sup|a*b_n - a*chiB| = "
        f"{dict((n, str(v)) for n, v in convd.items())} = 1/(4*3^(n-1)), "
        f"within the convolution bound ||a||_1 * sup|b_n - chiB| = "
        f"2/(4*3^(n-1)): a = delta(0,e) - delta(1,e), so a*b_n is "
        f"+-1/|S_n| on the two bit-fibers over z-points and eps, where "
        f"a*chiB vanishes, and the two agree over x and y; the fiberwise "
        f"oracle {'agrees with' if oracle_ok else 'contradicts'} the "
        f"stratified computation; {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 5. Kesten check
# ---------------------------------------------------------------------------


# The radius-R truncation of the sphere-1 walk, ball(R-1) -> ball(R), is
# a compression of P_R lambda(mu_1) P_R, so its norm is at most the top
# eigenvalue of that symmetric nonnegative matrix.  The rooted-tree
# automorphisms act transitively on spheres and commute with it, so the
# Perron-Frobenius eigenvector is radial: the top eigenvalue is that of
# the (R+1)x(R+1) radial tridiagonal matrix with zero diagonal and
# off-diagonals 1/2 (e_0 to e_1) and sqrt(3)/4 (e_l to e_l+1, l >= 1),
# whose squares 1/4 and 3/16 are rational.  Sign counts of its LDL^T
# pivots then bracket that eigenvalue in exact arithmetic.


def _radial_offdiag_squares(radius):
    return [Fraction(1, 4)] + [Fraction(3, 16)] * (radius - 1)


def _eigs_below(x, offdiag_squares):
    """Number of eigenvalues < x of the zero-diagonal symmetric tridiagonal
    matrix with the given squared off-diagonals: the negative pivots of
    the LDL^T factorization of T - xI (Sylvester's law of inertia)."""
    pivot = -x
    below = int(pivot < 0)
    for b2 in offdiag_squares:
        if pivot == 0:
            raise ZeroDivisionError(f"{x} is an eigenvalue of a leading block")
        pivot = -x - b2 / pivot
        below += pivot < 0
    return below


def _top_eig_bracket(offdiag_squares, width):
    """Rationals lo < hi, hi - lo <= width, with the top eigenvalue in
    [lo, hi): bisection on the sign count from [3/4, 1), which the counts
    confirm (the row sums are at most 1/2 + sqrt(3)/4 < 1)."""
    size = len(offdiag_squares) + 1
    lo, hi = Fraction(3, 4), Fraction(1)
    assert _eigs_below(lo, offdiag_squares) < size
    assert _eigs_below(hi, offdiag_squares) == size
    while hi - lo > width:
        mid = (lo + hi) / 2
        if _eigs_below(mid, offdiag_squares) == size:
            hi = mid
        else:
            lo = mid
    return lo, hi


def test_criterion_05_kesten_lower_bound():
    start = time.monotonic()
    est = rho_estimate(1, radius=12, tol=1e-6)
    ceiling = 3 ** 0.5 / 2
    band_lo, band_hi = Fraction(17, 20), Fraction(86603, 100000)
    # exact certificate: the radius-12 truncation norm lies in [lo, hi),
    # and the certified lower bound sits within 1e-6 below it, never above
    lo, hi = _top_eig_bracket(_radial_offdiag_squares(12), Fraction(1, 2**40))
    lower = Fraction(est.lower)
    bracketed = lo - Fraction(1, 10**6) <= lower <= hi
    frozen = round(float(lo), 9) == round(float(hi), 9) == 0.846893930
    # no eigenvalue at radius 12 or 13 reaches 0.85, so no correct lower
    # bound at those radii lands in the band
    unreachable = all(
        _eigs_below(band_lo, _radial_offdiag_squares(r)) == r + 1
        for r in (12, 13)
    )
    # radius 14 is the first whose top eigenvalue clears 0.85, and the
    # certified bound there lands in the band
    sq14 = _radial_offdiag_squares(14)
    clears = _eigs_below(band_lo, sq14) == 14 and _eigs_below(band_hi, sq14) == 15
    est14 = rho_estimate(1, radius=14, tol=1e-6)
    in_band = 0.85 <= est14.lower <= 0.86603 and est14.lower <= ceiling
    elapsed = time.monotonic() - start
    below_ceiling = est.lower <= ceiling + 1e-9 and elapsed < 60.0
    _report(
        5,
        "Kesten lower bound",
        below_ceiling and bracketed and frozen and unreachable and clears
        and in_band,
        f"rho_estimate(1, radius=12, tol=1e-6).lower = "
        f"{est.lower:.9f}, within 1e-6 below and never above the exact "
        f"bracket [{float(lo):.12f}, {float(hi):.12f}) of the radius-12 "
        f"truncation norm bound (top "
        f"eigenvalue of the 13x13 radial matrix, off-diagonals squared 1/4 "
        f"and 3/16, by LDL^T sign counts); every eigenvalue at radius 12 and "
        f"13 is below 0.85, so the band [0.85, 0.86603] is out of reach "
        f"there; radius 14 clears it: lower = {est14.lower:.9f} <= ceiling "
        f"sqrt(3)/2 = {ceiling:.6f}; {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 6. Haagerup scattering table
# ---------------------------------------------------------------------------


def test_criterion_06_haagerup_scattering_table():
    start = time.monotonic()
    ok = True
    for n in (2, 4):
        est = rho_estimate(n, radius=6, tol=1e-6)
        ok = ok and est.lower <= haagerup_bound(n) + 1e-12
    uppers = [rho_estimate(n, radius=6, tol=1e-6).upper for n in (2, 4, 6, 8)]
    ok = ok and all(a > b for a, b in zip(uppers, uppers[1:]))
    for n, m in ((2, 4), (4, 6), (6, 8)):
        diff = st_make(st_bn(n).terms + tuple((s, -c) for s, c in st_bn(m).terms))
        triv = sum((c for _, c in diff.terms), Fraction(0))
        ok = ok and triv == 0
        bound = stein_H_norm_bound([(st_bn(n), 1), (st_bn(m), -1)], radius=6, tol=1e-6)
        ok = ok and abs(bound.upper - (haagerup_bound(n) + haagerup_bound(m))) < 1e-12
        ok = ok and bound.lower <= bound.upper + 1e-12
    elapsed = time.monotonic() - start
    _report(
        6,
        "Haagerup scattering table",
        ok and elapsed < 120.0,
        f"lower <= (n+1)/(2*3^((n-1)/2)) for n in (2,4); uppers "
        f"{[f'{u:.6f}' for u in uppers]} strictly decreasing; pi_triv part "
        f"of b_n - b_m is 0 and the certified upper bound is "
        f"haag(n)+haag(m); {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 7. singularity verdicts
# ---------------------------------------------------------------------------


def test_criterion_07_singularity_verdicts():
    start = time.monotonic()
    rng = random.Random(107)
    achib = st_conv(st_a(), st_chiB())
    v = st_is_singular(achib)
    ok = v.singular and len(v.strata) == 8
    names = set()
    for s in v.strata:
        ok = ok and not s.interior and len(s.pattern) == 1
        ok = ok and s.pattern[0][0] == "gen" and s.pattern[0][1] == "y"
        names.add((s.pattern[0][2], str(s.members[0].g.f)))
    ok = ok and names == {(ch, t) for ch in (1, 2) for t in ("1", "a", "b", "ab")}
    for n in (1, 2):
        abn = st_conv(st_a(), st_bn(n))
        vn = st_is_singular(abn)
        ok = ok and not vn.singular and vn.witness is not None
        w = vn.witness
        for _ in range(10):
            k = _sample_kelt(rng)
            while k in w.excluded:
                k = _sample_kelt(rng)
            word = finword(zl(w.channel, k))
            val = st_eval(abn, Germ(s_from_group(w.group_elt), word))
            ok = ok and val != 0 and abs(val) == w.floor
    ok = ok and bundle_is_singular(bstein_conv(bundle_a(), bundle_chiB())).singular
    # compact open U inside B around support points: single-letter cylinders
    seen = set()
    while len(seen) < 5:
        alpha = finword(yl(rng.choice((1, 2)), rng.randrange(-20, 21)))
        if alpha in seen:
            continue
        seen.add(alpha)
        prod = st_conv(st_a(), st_chi_cylinder(alpha))
        ok = ok and st_is_singular(prod).singular and len(prod.terms) > 0
    elapsed = time.monotonic() - start
    _report(
        7,
        "singularity verdicts",
        ok and elapsed < 10.0,
        f"a*chiB singular with germ family [1,y],[a,y],[b,y],[ab,y] over "
        f"both channels; a*b_n nonsingular with validated open witness for "
        f"n in (1,2); bundle a*chiB singular; a*chi_U singular and nonzero "
        f"for 5 sampled U; {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 8. open-witness extraction
# ---------------------------------------------------------------------------


def test_criterion_08_open_witness_extraction():
    start = time.monotonic()
    rng = random.Random(108)
    ok = st_open_witness(st_conv(st_a(), st_chiB())) is None
    for _ in range(20):
        # identity coefficient 1 plus noise with nontrivial h-parts keeps
        # the trivial pi_1-coset sum at 1, so the hypothesis holds
        terms = [(S_ONE, Fraction(1))]
        for _ in range(rng.randrange(1, 5)):
            g = GElt(
                rng.choice(sphere(1) + sphere(2)),
                _sample_free(rng, F_GENS),
                rng.randrange(-2, 3),
                rng.randrange(-2, 3),
            )
            coeff = Fraction(rng.randrange(-3, 4) or 1, rng.randrange(1, 4))
            terms.append((s_from_group(g), coeff))
        f = st_make(terms)
        w = st_open_witness(f)
        ok = ok and w is not None
        if w is None:
            continue
        for _ in range(50):
            k = _sample_kelt(rng)
            while k in w.excluded:
                k = _sample_kelt(rng)
            tail = _sample_word(rng)
            if isinstance(tail, FinWord):
                word = finword(zl(w.channel, k), *tail.letters)
            else:
                word = omega(
                    finword(zl(w.channel, k), *tail.head.letters), tail.period
                )
            val = st_eval(f, Germ(s_from_group(w.group_elt), word))
            ok = ok and val != 0 and abs(val) == w.floor
    elapsed = time.monotonic() - start
    _report(
        8,
        "open-witness extraction",
        ok and elapsed < 10.0,
        f"20 randomized hypothesis-satisfying elements all yield witnesses, "
        f"each validated by 50 nonzero evaluations at germs [h, z[k].w]; "
        f"a*chiB yields none; {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 9. minimality and effectiveness certificate
# ---------------------------------------------------------------------------


def test_criterion_09_effectiveness_certificate():
    start = time.monotonic()
    rng = random.Random(109)
    ok = True
    for _ in range(200):
        g = _sample_gelt(rng)
        while g.is_identity():
            g = _sample_gelt(rng)
        wit = effectiveness_witness(g)
        ok = ok and wit.image != wit.letter
        ok = ok and not hom_pi(wit.letter.channel, g).is_identity()
        ok = ok and not {("z", 1), ("z", 2)} <= strongly_fixed_spectrum(g)
    elapsed = time.monotonic() - start
    _report(
        9,
        "minimality and effectiveness certificate",
        ok and elapsed < 5.0,
        f"200 random g != 1: effectiveness witness moves a z-letter and the "
        f"fixed-point spectrum reports a non-cofinitely-fixed z-family; "
        f"{elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 10. structural invariants
# ---------------------------------------------------------------------------


def _conv_oracle_selfsim(f, g, germ_at):
    """(f*g)(gamma) as a sum over factorizations gamma = alpha.beta with
    beta running over the germ classes of g at the base word."""
    s, w = germ_at
    classes = {}
    for t, _ in g.terms:
        if s_defined_at(t, w):
            classes.setdefault(germ_key(t, w), t)
    total = Fraction(0)
    for t in classes.values():
        beta_val = st_eval(g, Germ(t, w))
        if beta_val == 0:
            continue
        alpha = s_mul(s, s_inv(t))
        r = s_apply(t, w)
        if s_defined_at(alpha, r):
            total += st_eval(f, Germ(alpha, r)) * beta_val
    return total


def test_criterion_10_structural_invariants():
    start = time.monotonic()
    rng = random.Random(110)
    ok = True

    # length-2 restriction stabilization, exhaustive over letter families
    gs = [GElt(f=free_word("a")), GElt(f=free_word("b")), GElt(n=1), GElt(m=1)]
    gs += [_sample_gelt(rng) for _ in range(10)]
    letters = [yl(1, 0), yl(2, -3), zl(1, K_ONE), zl(2, KElt(n=2))]
    letters += [_sample_letter(rng) for _ in range(4)]
    for g in gs:
        for x1 in letters:
            for x2 in letters:
                _, res = act_word(g, finword(x1, x2))
                ok = ok and res.is_identity()

    # inverse-semigroup axioms on sampled elements
    def sample_s():
        alpha = finword(*(_sample_letter(rng) for _ in range(rng.randrange(3))))
        beta = finword(*(_sample_letter(rng) for _ in range(rng.randrange(3))))
        return SElt(alpha=alpha, g=_sample_gelt(rng), beta=beta)

    for _ in range(60):
        s, t, u = sample_s(), sample_s(), sample_s()
        ok = ok and s_mul(s_mul(s, t), u) == s_mul(s, s_mul(t, u))
        ok = ok and s_mul(s_mul(s, s_inv(s)), s) == s
        ok = ok and s_inv(s_mul(s, t)) == s_mul(s_inv(t), s_inv(s))
        p = s_mul(s, s_inv(s))
        q = s_mul(t, s_inv(t))
        ok = ok and s_mul(p, q) == s_mul(q, p)

    # convolution against the factorization oracle, self-similar model
    def sample_stein():
        terms = []
        for _ in range(rng.randrange(1, 4)):
            kind = rng.random()
            if kind < 0.4:
                t = s_from_group(_sample_gelt(rng))
            elif kind < 0.7:
                t = s_proj(finword(*(_sample_letter(rng) for _ in range(rng.randrange(1, 3)))))
            else:
                t = sample_s()
            terms.append((t, Fraction(rng.randrange(-3, 4) or 1, rng.randrange(1, 4))))
        return st_make(terms)

    for _ in range(30):
        f, g = sample_stein(), sample_stein()
        prod = st_conv(f, g)
        for _ in range(5):
            w = _sample_word(rng)
            candidates = [t for t, _ in prod.terms if s_defined_at(t, w)]
            candidates += [
                s_mul(t1, t2)
                for t1, _ in f.terms
                for t2, _ in g.terms
                if s_defined_at(t2, w) and s_defined_at(s_mul(t1, t2), w)
            ]
            candidates.append(S_ONE)
            for t in candidates:
                gm = Germ(t, w)
                ok = ok and st_eval(prod, gm) == _conv_oracle_selfsim(f, g, (t, w))

    # convolution against the fiberwise oracle, bundle model
    from steinalg.bundle import bstein, buset

    def sample_bstein():
        terms = []
        for _ in range(rng.randrange(1, 4)):
            U = buset(eps=rng.random() < 0.5, zs={rng.randrange(1, 5)})
            terms.append(
                (
                    rng.randrange(2),
                    _sample_free(rng, H_GENS, 2),
                    Fraction(rng.randrange(-3, 4) or 1, rng.randrange(1, 4)),
                    U,
                )
            )
        return bstein(terms)

    def fiber_arrows(u, elems):
        if u.kind == "x":
            return [barrow(0, W_ONE, u)]
        if u.kind == "y":
            return [barrow(0, W_ONE, u), barrow(1, W_ONE, u)]
        hs = {W_ONE}
        for e in elems:
            hs.update(h for _, h, _, _ in e.terms)
            hs.update(h1 * h2 for _, h1, _, _ in elems[0].terms
                      for _, h2, _, _ in elems[1].terms)
        return [barrow(b, h, u) for b in (0, 1)
                for h in sorted(hs, key=lambda h: h.sort_key())]

    for _ in range(20):
        f, g = sample_bstein(), sample_bstein()
        prod = bstein_conv(f, g)
        for u in (ux(1, 1), uy(2), uz(1), uz(3), U_EPS):
            betas = fiber_arrows(u, (f, g))
            for gamma in fiber_arrows(u, (f, g)):
                want = Fraction(0)
                for beta in betas:
                    alpha = barrow(
                        (gamma.bit + beta.bit) % 2, gamma.h * beta.h.inv(), u
                    )
                    want += bstein_eval(f, alpha) * bstein_eval(g, beta)
                ok = ok and bstein_eval(prod, gamma) == want

    # germ equality is an equivalence relation
    for _ in range(100):
        w = _sample_word(rng)
        pool = [s_from_group(_sample_gelt(rng)) for _ in range(3)]
        pool.append(S_ONE)
        for s in pool:
            ok = ok and germ_eq(s, s, w)
            for t in pool:
                ok = ok and germ_eq(s, t, w) == germ_eq(t, s, w)
                for v in pool:
                    if germ_eq(s, t, w) and germ_eq(t, v, w):
                        ok = ok and germ_eq(s, v, w)

    elapsed = time.monotonic() - start
    _report(
        10,
        "structural invariants",
        ok and elapsed < 30.0,
        f"length-2 restrictions all trivial; inverse-semigroup axioms; "
        f"convolution matches the factorization oracle in both models; "
        f"germ equality is an equivalence; {elapsed:.2f}s",
    )
