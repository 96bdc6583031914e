"""Finite rational combinations of partial-transformation indicators.

An element is a list of (S-element, coefficient) terms on one of two
clopen word regions: the full space, or the y-rooted half B (first letter
from a y-family), which gives the paper's a*chi_B.  Evaluation at a germ,
convolution, exact sup-distances, and the support analysis all run over
finitely many strata:

Words are classified by a pattern assigning each position either a letter
written in some term's source prefix or a generic letter of one of the
four families.  Up to the stabilization length L = max source-prefix
length + ``STABILIZATION_DEPTH`` (two letters), the germ partition of the
terms and all their values are constant across each pattern class:
index arithmetic at a generic position cancels between any two terms
compared there, and restrictions die after two letters.

A branch of depth one or more (region membership reads the first
letter) settles once no source prefix stays alive below it and every
restriction there is trivial; from then on each term copies the letters
it reads, so the germ partition and the values are those of the whole
cylinder.  A settled branch is one interior class, which may be shorter
than L; its finite words, the pattern's own word included, fall into the
cylinder's stratum instead of a stratum of their own.  Every length-L
branch is settled, so the interior classes absorb every longer and
infinite word.  The other classes are exact: finite words of one length,
whose germ sets contain no open set.  A function is therefore singular
precisely when no nonzero stratum is interior.

One lazy fold over these classes, ``_class_sums``, sums integer
numerators per germ key, one per element it is given, over one common
denominator.  ``st_support_strata`` turns each nonzero sum of one element
into a stratum (only it asks the fold for the member lists), and
``st_sup_dist`` keeps the largest |f - g| of two.  ``st_fold`` hands the
classes of many elements to ``repnorm.fold_readings``, which reads each
one's singular verdict and its sup distances to the first few in one
walk.

The fold and ``st_evaluator`` key terms by homomorphism images wherever
no source prefix reaches (``_germ_keys``).  When every term defined at a
word has the same source prefix beta, the letters past beta are acted on
by every term alike: a y-letter's index moves by zeta_ch(g) and the
restriction becomes tau(g), a z-letter's index is multiplied by
pi_ch(g) and the restriction becomes 1.  The index cancels when two
images of the same letter are compared, so two such germs agree exactly
when their alphas and these images agree.  Each term's images are read
off once per fold or evaluator, and such keys are plain tuples of ints
and strings.  They read only the families and channels of the letters
past beta, so an evaluator sums its terms once per source prefix and
tail signature and then reads each germ's value by one lookup.  Where a
shorter source prefix acts on letters of a longer one, the terms are
keyed by ``germ_key``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Optional, Union

from .groups import FreeWord, GElt, G_ONE, KElt, W_ONE, _gelt, free_word, hom_pi, sphere
from .selfsim import (
    FinWord,
    Germ,
    Letter,
    STABILIZATION_DEPTH,
    S_ONE,
    SElt,
    Word,
    germ_key,
    omega,
    s_from_group,
    s_mul,
    s_proj,
)

# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

REGION_FULL = "full"
REGION_B = "B"  # words whose first letter is from a y-family


def region_member(region: str, w: Word) -> bool:
    if region == REGION_FULL:
        return True
    first = w.prefix(1)
    return len(first) > 0 and first[0].family == "y"


@dataclass(frozen=True)
class SteinElt:
    terms: tuple[tuple[SElt, Fraction], ...] = ()
    region: str = REGION_FULL


def st_make(
    terms: Iterable[tuple[SElt, Union[Fraction, int]]],
    region: str = REGION_FULL,
) -> SteinElt:
    """Merge structurally equal S-elements, drop zeros, sort."""
    if region not in (REGION_FULL, REGION_B):
        raise ValueError(f"unknown region {region!r}")
    acc: dict[SElt, Fraction] = {}
    for s, c in terms:
        if s.zero:
            continue
        acc[s] = acc.get(s, Fraction(0)) + Fraction(c)
    out = [(s, c) for s, c in acc.items() if c != 0]
    out.sort(key=lambda t: t[0].sort_key())
    # a region carries no information on the zero element
    return SteinElt(tuple(out), region if out else REGION_FULL)


def st_conv(f: SteinElt, g: SteinElt) -> SteinElt:
    """Convolution.  The left factor must be unrestricted: a right
    restriction passes through the product, f * (g chi_U) = (f g) chi_U,
    but a region on the left factor is not expressible as a region on the
    result."""
    if f.region != REGION_FULL and f.terms:
        raise ValueError("left factor of a convolution must be unrestricted")
    prods = []
    for s, c in f.terms:
        for t, d in g.terms:
            prods.append((s_mul(s, t), c * d))
    return st_make(prods, g.region)


def _key_image(s: SElt, ids: dict) -> tuple:
    """What the image keys of ``_germ_keys`` read of one element: an id of
    alpha from ``ids`` (equal ids for equal alphas), the parts h and f of
    g, zeta_1(g) and zeta_2(g), and the integer parts sigma_a(f),
    sigma_b(f) of tau(g), which are also tau(g)'s images zeta_i and pi_i.
    pi_i(g) is (h, f, zeta_i(g))."""
    g = s.g
    f = g.f.chars
    sa, sb = f.count("a") - f.count("A"), f.count("b") - f.count("B")
    return (ids.setdefault(s.alpha.letters, len(ids)), g.h.chars, f, g.n, g.m, sa, sb)


def _key_images(elts: list[SElt], ids: dict) -> list[tuple]:
    """``_key_image`` of each element, read once per fold or evaluator."""
    return [_key_image(s, ids) for s in elts]


def _germ_keys(
    elts: list[SElt], images: list[tuple], b: Optional[int], word: Word
) -> tuple[list, bool]:
    """Keys of ``elts``, all defined at ``word``, that are equal exactly
    where their ``germ_key``s are, and whether every restriction past a
    finite ``word`` is trivial.  ``images`` is ``_key_images`` of
    ``elts``, and ``b`` their common source prefix length, or None.

    With no common length the keys are ``germ_key``s.  Otherwise a key is
    alpha's id and the images that decide the letters past beta (see the
    module docstring): all of g with no letter past beta; zeta_ch(g) at a
    y-letter, then sigma_a and sigma_b of the restriction tau(g), or only
    the sigma of the next letter's channel when there is one; pi_ch(g) at
    a z-letter, after which every element copies the word.
    """
    if b is None:
        keys = [germ_key(s, word) for s in elts]
        return keys, all(k[2] == G_ONE for k in keys)
    tail = word.prefix(b + STABILIZATION_DEPTH).letters[b:]
    if not tail:
        keys = [im[:5] for im in images]
        return keys, all(key[1:] == ("", "", 0, 0) for key in keys)
    x = tail[0]
    zeta = 2 + x.channel
    if x.family == "z":
        return [(im[0], im[1], im[2], im[zeta]) for im in images], True
    if len(tail) == 1:
        keys = [(im[0], im[zeta], im[5], im[6]) for im in images]
        return keys, all(im[5:] == (0, 0) for im in images)
    sigma = 4 + tail[1].channel
    return [(im[0], im[zeta], im[sigma]) for im in images], True


def st_evaluator(f: SteinElt) -> Callable[[Germ], Fraction]:
    """Exact values of f at germs, with f's terms keyed once.

    The value at a germ [s, w] is the sum of the coefficients of the terms
    defined at w whose germ there is s's.  The terms are grouped by their
    source prefix beta, and their images (``_key_images``) are read once,
    here.  Where the terms defined at w, and s, share one beta, their keys
    read only the families and channels of the at most
    ``STABILIZATION_DEPTH`` letters past it (see ``_germ_keys``): the first
    such germ sums the terms into one key -> numerator table for that beta
    and that tail signature, and from then on a germ's value is one lookup
    of s's key.  Elsewhere a shorter beta acts on letters of a longer one,
    and the terms are keyed by ``germ_key`` at each germ.
    """
    terms = [(s, c) for s, c in f.terms if not s.zero]
    denom = lcm(*(c.denominator for _, c in terms))
    elts = [s for s, _ in terms]
    nums = [c.numerator * (denom // c.denominator) for _, c in terms]
    ids: dict = {}
    images = _key_images(elts, ids)
    by_beta: dict[tuple, list[int]] = {}
    for t, s in enumerate(elts):
        by_beta.setdefault(s.beta.letters, []).append(t)
    longest = max(map(len, by_beta), default=0)
    tables: dict = {}

    def value(g: Germ) -> Fraction:
        word = g.word
        if not region_member(f.region, word):
            return Fraction(0)
        # one prefix of the word, as long as the longest beta, decides each term
        pre = word.prefix(longest).letters
        betas = [beta for beta in by_beta if pre[: len(beta)] == beta]
        if not betas:
            return Fraction(0)
        b = len(g.s.beta.letters)
        if len(betas) > 1 or len(betas[0]) != b:
            target = germ_key(g.s, word)
            hits = (
                nums[t]
                for beta in betas
                for t in by_beta[beta]
                if germ_key(elts[t], word) == target
            )
            return Fraction(sum(hits), denom)
        tail = word.prefix(b + STABILIZATION_DEPTH).letters[b:]
        signature = (betas[0], tuple((x.family, x.channel) for x in tail))
        table = tables.get(signature)
        if table is None:
            table = tables[signature] = {}
            defined = by_beta[betas[0]]
            keys, _ = _germ_keys(
                [elts[t] for t in defined], [images[t] for t in defined], b, word
            )
            for t, key in zip(defined, keys):
                table[key] = table.get(key, 0) + nums[t]
        (key,), _ = _germ_keys([g.s], [_key_image(g.s, ids)], b, word)
        return Fraction(table.get(key, 0), denom)

    return value


def st_eval(f: SteinElt, g: Germ) -> Fraction:
    """Exact value at a germ: ``st_evaluator(f)`` built and read once."""
    return st_evaluator(f)(g)


# ---------------------------------------------------------------------------
# named elements
# ---------------------------------------------------------------------------


def h_elt(h: FreeWord) -> GElt:
    """Embed a word over c, d as a group element, unchecked."""
    return _gelt(h, W_ONE, 0, 0)


def st_bn(n: int) -> SteinElt:
    """Average of the indicators of the radius-n sphere of H."""
    sph = sphere(n)
    w = Fraction(1, len(sph))
    return st_make([(s_from_group(h_elt(h)), w) for h in sph])


def st_a() -> SteinElt:
    """(1 - a)(1 - b) as a combination of group-element indicators."""
    one, a, b = W_ONE, free_word("a"), free_word("b")
    return st_make(
        [
            (s_from_group(GElt(f=one)), Fraction(1)),
            (s_from_group(GElt(f=a)), Fraction(-1)),
            (s_from_group(GElt(f=b)), Fraction(-1)),
            (s_from_group(GElt(f=a * b)), Fraction(1)),
        ]
    )


def st_chiB() -> SteinElt:
    return st_make([(S_ONE, Fraction(1))], REGION_B)


def st_chi_cylinder(alpha: FinWord) -> SteinElt:
    """Indicator of the unit cylinder at alpha, as a projection term."""
    return st_make([(s_proj(alpha), Fraction(1))])


# ---------------------------------------------------------------------------
# support strata
# ---------------------------------------------------------------------------

GEN_FAMILIES = (("y", 1), ("y", 2), ("z", 1), ("z", 2))

PatEntry = tuple  # ('lit', Letter) or ('gen', family, channel)


@dataclass(frozen=True)
class SupportStratum:
    """A germ class constant for the function: all germs [m, w] with m in
    ``members`` and w running over the base-word class described by
    ``pattern``: the words of exact length len(pattern) when not
    ``interior``; when ``interior``, the whole cylinder of words extending
    the pattern, finite ones included.  An interior pattern is as long
    as its branch took to settle, which may be shorter than the
    stabilization length."""

    pattern: tuple[PatEntry, ...]
    rep_word: Word
    members: tuple[SElt, ...]
    value: Fraction
    interior: bool


def _fresh_letter(fam: str, ch: int, pos: int, ys: set[int], zs: set[KElt]) -> Letter:
    if fam == "y":
        return Letter("y", ch, max((abs(n) for n in ys), default=0) + 1 + pos)
    depth = max((len(k.h) for k in zs), default=0) + 1 + pos
    return Letter("z", ch, KElt(free_word("c" * depth), W_ONE, 0))


def _class_sums(elements: list, members: bool) -> tuple:
    """The word classes of elements, with integer sums per germ and element.

    Returns ``(D, classes)``: D is the lcm of the coefficients'
    denominators, and ``classes`` lazily yields ``(pattern, rep_word,
    interior, sums)`` per word class.  ``sums`` maps each germ key at
    ``rep_word`` to one numerator per element: the sum, times D, of the
    coefficients of that element's terms defined there inside its region
    with that key.  When ``members``, the list of those terms' positions,
    in the elements' terms taken in order, follows the numerators.
    ``_germ_keys`` keys the defined terms of each class, from images read
    off each term once per fold, and each region is tested once per class.

    A node at depth >= 1 is settled when no written source prefix is still
    alive below it and every restriction past the representative is
    trivial (a term keyed short of |beta| + 2 letters may still act).
    Past a settled node every term copies the letters and its germ key
    strips them again, so the keys, the partition and both
    regions' membership are constant on the whole cylinder: the node
    yields one ``interior`` class, with an infinite representative and
    the keys of the finite one, and the walk stops.  Every node at depth
    L = max |beta| + ``STABILIZATION_DEPTH`` is settled.
    """
    denom = lcm(*(c.denominator for f in elements for _, c in f.terms))
    elts, nums, owner = [], [], []
    for i, f in enumerate(elements):
        for s, c in f.terms:
            elts.append(s)
            nums.append(c.numerator * (denom // c.denominator))
            owner.append(i)
    if not elts:
        return 1, iter(())
    images = _key_images(elts, {})
    betas = [s.beta.letters for s in elts]
    regions = [f.region for f in elements]
    blank = [0] * len(elements)
    L = max(len(b) + STABILIZATION_DEPTH for b in betas)
    written = [x for s in elts for x in s.alpha + s.beta]
    ys = {x.index for x in written if x.family == "y"}
    zs = {x.index for x in written if x.family == "z"}
    tail = FinWord((_fresh_letter("y", 1, L, ys, zs),))

    # defined: the terms whose beta rep extends, in term order, and b the
    # length their betas share (None if they differ); alive: the terms
    # whose longer beta rep is still a prefix of
    def walk(pos, pattern, rep, defined, b, alive):
        rep_fin = FinWord(tuple(rep))
        keys, trivial = _germ_keys(
            [elts[t] for t in defined], [images[t] for t in defined], b, rep_fin
        )
        settled = pos > 0 and not alive and trivial
        word = omega(rep_fin, tail) if settled else rep_fin
        inside = [region_member(r, word) for r in regions]
        sums: dict = {}
        for t, key in zip(defined, keys):
            i = owner[t]
            if inside[i]:
                entry = sums.get(key)
                if entry is None:
                    entry = sums[key] = blank + [[]] if members else blank.copy()
                entry[i] += nums[t]
                if members:
                    entry[-1].append(t)
        yield pattern, word, settled, sums
        if settled:
            return
        for x in sorted({betas[t][pos] for t in alive}, key=Letter.sort_key):
            below = [t for t in alive if betas[t][pos] == x]
            ends = [t for t in below if len(betas[t]) == pos + 1]
            yield from walk(
                pos + 1,
                pattern + (("lit", x),),
                rep + [x],
                sorted(defined + ends) if ends else defined,
                (None if defined else pos + 1) if ends else b,
                [t for t in below if len(betas[t]) > pos + 1],
            )
        for fam, ch in GEN_FAMILIES:
            x = _fresh_letter(fam, ch, pos, ys, zs)
            gen = pattern + (("gen", fam, ch),)
            yield from walk(pos + 1, gen, rep + [x], defined, b, [])
        # generic letters match no written prefix, so nothing stays alive

    roots = [t for t, beta in enumerate(betas) if not beta]
    return denom, walk(0, (), [], roots, 0, [t for t, beta in enumerate(betas) if beta])


def st_support_strata(f: SteinElt) -> tuple[SupportStratum, ...]:
    """All nonzero germ-class strata of f, exact and exhaustive: each germ
    key of ``_class_sums([f], True)`` with a nonzero sum is a stratum,
    whose value is one exact ``Fraction``.  Members are in
    ``SElt.sort_key`` order: f's terms are ranked once, and each stratum
    orders its members by that rank."""
    elts = [s for s, _ in f.terms]
    rank = [0] * len(elts)
    for r, t in enumerate(sorted(range(len(elts)), key=lambda t: elts[t].sort_key())):
        rank[t] = r
    denom, classes = _class_sums([f], True)
    strata: list[SupportStratum] = []
    for pattern, rep, interior, sums in classes:
        for num, members in sums.values():
            if num:
                ms = tuple(elts[t] for t in sorted(members, key=rank.__getitem__))
                value = Fraction(num, denom)
                strata.append(SupportStratum(pattern, rep, ms, value, interior))
    return tuple(strata)


def st_sup_dist(f: SteinElt, g: SteinElt) -> Fraction:
    """Exact supremum of |f - g| over all germs: the largest difference of
    the two numerators of ``_class_sums([f, g], False)``, since the germ
    partition and both regions' membership (which reads only the first
    letter) are constant on each class.  The supremum becomes a
    ``Fraction`` once, at the end."""
    denom, classes = _class_sums([f, g], False)
    best = max(
        (abs(x - y) for *_, sums in classes for x, y in sums.values()), default=0
    )
    return Fraction(best, denom)


# ---------------------------------------------------------------------------
# singularity and the open witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpenWitness:
    """For every z-index k of the stated channel outside ``excluded`` and
    every word w, the germ of ``group_elt`` at z[k].w lies in the support
    with |value| = floor > 0."""

    group_elt: GElt
    channel: int
    excluded: tuple[KElt, ...]
    floor: Fraction


def st_open_witness(f: SteinElt) -> Optional[OpenWitness]:
    """Extract an open-support certificate from the group-element terms.

    Restrictions past a z-letter are trivial, so for a word z[k].w with k
    avoiding every written source prefix, the value of f at [h, z[k].w] is
    the sum of the coefficients of the group-element terms g with
    pi_ch(g) = pi_ch(h), independent of w and k.  Any coset with nonzero
    sum certifies an open subset of the support.
    """
    if f.region == REGION_B:
        return None
    group_terms = [
        (s.g, c) for s, c in f.terms if len(s.alpha) == 0 and len(s.beta) == 0
    ]
    if not group_terms:
        return None
    excluded: set[KElt] = set()
    for s, _ in f.terms:
        if len(s.beta) > 0 and s.beta[0].family == "z":
            excluded.add(s.beta[0].index)
    for ch in (1, 2):
        cosets: dict[KElt, list[tuple[GElt, Fraction]]] = {}
        for g, c in group_terms:
            cosets.setdefault(hom_pi(ch, g), []).append((g, c))
        for key in sorted(cosets, key=KElt.sort_key):
            total = sum((c for _, c in cosets[key]), Fraction(0))
            if total != 0:
                rep = min((g for g, _ in cosets[key]), key=GElt.sort_key)
                return OpenWitness(
                    rep,
                    ch,
                    tuple(sorted(excluded, key=KElt.sort_key)),
                    abs(total),
                )
    return None


@dataclass(frozen=True)
class SingularVerdict:
    singular: bool
    strata: tuple[SupportStratum, ...]
    interior_stratum: Optional[SupportStratum]
    witness: Optional[OpenWitness]


def st_is_singular(f: SteinElt) -> SingularVerdict:
    """Whether the support of f has empty interior.

    An exact stratum holds finite words of one length and contains no
    cylinder of base words, while every interior stratum is a whole
    cylinder, whatever its pattern length, so the verdict reads off the
    strata.
    """
    strata = st_support_strata(f)
    interior = next((s for s in strata if s.interior), None)
    witness = st_open_witness(f) if interior is not None else None
    return SingularVerdict(interior is None, strata, interior, witness)


def st_fold(elements: list[SteinElt]) -> tuple:
    """``(D, chunks)``: one chunk per class of ``_class_sums(elements,
    False)``, ``(interior, numerator vectors)``, a vector per germ key
    with one numerator per element over D.  ``repnorm.fold_readings``
    reads the chunks.

    The classes refine the walk of every subset E of the elements, so an
    element is singular exactly when it is zero on every interior class,
    and the sup of |f - g| over the classes is ``st_sup_dist(f, g)`` for
    any two of them.  Take any node of the shared walk:

    - E's alive terms and its defined terms are among the walk's, so the
      shared walk settles only where E's walk settles.
    - The shared walk branches on every letter that E's walk branches
      on.  A letter that only other elements write falls into one of E's
      generic classes, and the invariance of the module docstring holds
      on those.
    - So each class of E's walk is a union of shared classes, and each of
      them carries E's entries: the keys split E's terms as ``germ_key``
      does, and region membership reads only the first letter.
    - An interior shared class is a cylinder, so it lies in an interior
      class of E.  Below an interior class of E, every shared branch ends
      in interior classes by depth max |beta| + ``STABILIZATION_DEPTH``.

    The sup therefore runs over the same values, and an interior class
    with a nonzero entry of f exists in the shared walk exactly when one
    does in f's own.
    """
    denom, classes = _class_sums(elements, False)
    return denom, ((interior, list(sums.values())) for _, _, interior, sums in classes)
