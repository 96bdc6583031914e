"""A bundle of groups over a grid-with-limits unit space.

Units: grid points ``x[i,j]`` (isolated), one column limit ``y[i]`` per
column, isolated points ``z[k]``, and a final limit ``eps``.  The isotropy
is trivial over X, the order-two group over Y, and ``Z2 x H`` over Z and
eps, where H is the free group on c, d.  Arrows are written (bit, h, unit).

For a group element g = (bit, h) the global bisection U_g consists of the
unit arrows over X, the bit-arrows over Y, and the (bit, h)-arrows over Z
and eps.  Functions are finite rational combinations of indicators of
U_g restricted to compact open unit sets, together with a symbolic
restriction flag to the closed-open half B = X u Y; this keeps the
indicator of the noncompact half B exact.

Over one unit a function is a finite table of values on the fiber group.
One vector fold, ``_fiber_sums``, builds these tables for a list of
functions at given units: it puts every coefficient over the lcm of the
denominators once and sums one integer numerator per function per fiber
arrow.  Its readers take it at one unit per stratum of ``stratum_units``
(the strata are where every involved function has a constant table):
``bundle_sup_dist`` compares two functions, ``bundle_is_singular`` looks
for a nonzero isolated arrow of one, ``bundle_fold`` hands the tables of
many functions to ``repnorm.fold_readings``, which reads their verdicts
and sup distances in one pass, and ``repnorm.bundle_norm_bound`` sums the
numerators into walks, which the norm layer takes as they are, over D.
Evaluation, ``bstein_eval``, reads the fold at the unit of one arrow,
over only the terms that can land on it.
Everything here is exact: coefficients are fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Union

from .groups import FreeWord, H_GENS, W_ONE, _H_SET, sphere

# ---------------------------------------------------------------------------
# units and arrows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BUnit:
    kind: str  # 'x', 'y', 'z', 'eps'
    i: int = 0  # column for x/y, index for z
    j: int = 0  # row inside a column, x only

    def __post_init__(self) -> None:
        if self.kind not in ("x", "y", "z", "eps"):
            raise ValueError(f"unknown unit kind {self.kind!r}")
        if self.kind in ("y", "z", "eps") and self.j != 0:
            raise ValueError(f"{self.kind}-units carry no row index")
        if self.kind == "eps" and self.i != 0:
            raise ValueError("eps carries no indices")

    def __str__(self) -> str:
        if self.kind == "x":
            return f"x[{self.i},{self.j}]"
        if self.kind == "eps":
            return "eps"
        return f"{self.kind}[{self.i}]"


def ux(i: int, j: int) -> BUnit:
    return BUnit("x", i, j)


def uy(i: int) -> BUnit:
    return BUnit("y", i)


def uz(k: int) -> BUnit:
    return BUnit("z", k)


U_EPS = BUnit("eps")


@dataclass(frozen=True)
class BArrow:
    """Arrow (bit, h) in the fiber over ``unit``.

    Over x-units only the unit arrow exists; over y-units the fiber is the
    order-two group (h must be trivial); over z and eps the full Z2 x H.
    """

    bit: int
    h: FreeWord
    unit: BUnit

    def __post_init__(self) -> None:
        if self.bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        if not self.h.gens() <= _H_SET:
            raise ValueError(f"fiber word {self.h} not over {H_GENS}")
        if self.unit.kind == "x" and (self.bit or not self.h.is_identity()):
            raise ValueError("x-fibers are trivial")
        if self.unit.kind == "y" and not self.h.is_identity():
            raise ValueError("y-fibers have no free part")

    def __str__(self) -> str:
        return f"({self.bit},{self.h};{self.unit})"


def barrow(bit: int, h: FreeWord, unit: BUnit) -> BArrow:
    return BArrow(bit, h, unit)


# ---------------------------------------------------------------------------
# compact open unit sets
# ---------------------------------------------------------------------------

ColTrace = tuple[bool, frozenset]  # (has_y, js): js excluded if has_y else included


@dataclass(frozen=True)
class BUnitSet:
    """Compact open set of units in canonical form; build with buset().

    With eps in the set, zs lists the finitely many excluded z-indices and
    every column not listed in cols is entirely inside; without eps, zs
    lists the included z-indices and unlisted columns are disjoint from the
    set.  A column trace (True, js) means y[i] plus all x[i,j] except the
    finitely many listed; (False, js) means just the listed x[i,j].
    """

    eps: bool = False
    zs: frozenset = frozenset()
    cols: tuple[tuple[int, ColTrace], ...] = ()

    def col(self, i: int) -> ColTrace:
        for key, trace in self.cols:
            if key == i:
                return trace
        return (self.eps, frozenset())

    def is_empty(self) -> bool:
        return not self.eps and not self.zs and not self.cols

    def sort_key(self):
        return (
            self.eps,
            tuple(sorted(self.zs)),
            tuple((i, t[0], tuple(sorted(t[1]))) for i, t in self.cols),
        )

    def __str__(self) -> str:
        """The unit-set grammar of ``syntax``; parse_buset inverts it."""
        if self.is_empty():
            return "{}"
        patches = []
        if self.eps:
            removals = [f"z[{k}]" for k in sorted(self.zs)]
            addbacks = []
            for i, (has_y, js) in self.cols:
                if has_y:
                    removals.extend(f"x[{i},{j}]" for j in sorted(js))
                else:
                    removals.append(f"col[{i}]")
                    addbacks.extend(f"x[{i},{j}]" for j in sorted(js))
            body = "eps" if not removals else "eps;{" + ",".join(removals) + "}"
            patches.append(f"U({body})")
            patches.extend(addbacks)
        else:
            patches.extend(f"z[{k}]" for k in sorted(self.zs))
            for i, (has_y, js) in self.cols:
                if has_y:
                    rem = ";{" + ",".join(f"x[{i},{j}]" for j in sorted(js)) + "}" if js else ""
                    patches.append(f"U(y[{i}]{rem})")
                else:
                    patches.extend(f"x[{i},{j}]" for j in sorted(js))
        return " u ".join(patches)


def buset(
    eps: bool = False,
    zs: Iterable[int] = (),
    cols: Optional[dict] = None,
) -> BUnitSet:
    """Canonicalize: drop column traces equal to the default."""
    default = (eps, frozenset())
    items = []
    for i, (has_y, js) in sorted((cols or {}).items()):
        trace = (bool(has_y), frozenset(js))
        if trace != default:
            items.append((i, trace))
    return BUnitSet(eps, frozenset(zs), tuple(items))


EMPTY_SET = buset()
WHOLE_SET = buset(eps=True)


def buset_member(U: BUnitSet, u: BUnit) -> bool:
    if u.kind == "eps":
        return U.eps
    if u.kind == "z":
        return (u.i not in U.zs) if U.eps else (u.i in U.zs)
    has_y, js = U.col(u.i)
    if u.kind == "y":
        return has_y
    return (u.j not in js) if has_y else (u.j in js)


def _trace_intersect(t1: ColTrace, t2: ColTrace) -> ColTrace:
    (y1, s1), (y2, s2) = t1, t2
    if y1 and y2:
        return (True, s1 | s2)
    if y1:
        return (False, s2 - s1)
    if y2:
        return (False, s1 - s2)
    return (False, s1 & s2)


def _trace_union(t1: ColTrace, t2: ColTrace) -> ColTrace:
    """The complement of the intersection of the complements: within a
    column the complement of (y, s) is (not y, s)."""
    y, s = _trace_intersect((not t1[0], t1[1]), (not t2[0], t2[1]))
    return (not y, s)


def _merge(U: BUnitSet, V: BUnitSet, trace_op) -> BUnitSet:
    keys = {i for i, _ in U.cols} | {i for i, _ in V.cols}
    cols = {i: trace_op(U.col(i), V.col(i)) for i in keys}
    # the (eps, zs) pair obeys the same finite/cofinite logic as a column
    eps, zset = trace_op((U.eps, U.zs), (V.eps, V.zs))
    return buset(eps, zset, cols)


def buset_intersect(U: BUnitSet, V: BUnitSet) -> BUnitSet:
    return _merge(U, V, _trace_intersect)


def buset_union(U: BUnitSet, V: BUnitSet) -> BUnitSet:
    return _merge(U, V, _trace_union)


# ---------------------------------------------------------------------------
# functions
# ---------------------------------------------------------------------------

FLAG_FULL = "full"
FLAG_B = "B"  # X u Y

_FLAG_KINDS = {
    FLAG_FULL: ("x", "y", "z", "eps"),
    FLAG_B: ("x", "y"),
}

BTerm = tuple[int, FreeWord, Fraction, BUnitSet]  # (bit, h, coeff, region)


@dataclass(frozen=True)
class BSteinElt:
    terms: tuple[BTerm, ...] = ()
    flag: str = FLAG_FULL


def bstein(terms: Iterable[BTerm], flag: str = FLAG_FULL) -> BSteinElt:
    """Merge same-(bit, h, region) terms, drop zeros and empty regions.

    Coefficients (ints or fractions) are added as given, each key hashed
    once; each sum that survives becomes a Fraction only on output."""
    if flag not in _FLAG_KINDS:
        raise ValueError(f"unknown flag {flag!r}")
    slots: dict = {}
    sums: list = []
    for bit, h, coeff, region in terms:
        if not region.is_empty():
            i = slots.setdefault((bit, h, region), len(sums))
            if i < len(sums):
                sums[i] += coeff
            else:
                sums.append(coeff)
    out = [
        (bit, h, c if type(c) is Fraction else Fraction(c), region)
        for (bit, h, region), c in zip(slots, sums)
        if c != 0
    ]
    out.sort(key=lambda t: (t[0], t[1].sort_key(), t[3].sort_key()))
    # a flag carries no information on the zero element
    return BSteinElt(tuple(out), flag if out else FLAG_FULL)


B_ZERO = BSteinElt()


# which of a term's three arrows (over x, y, z/eps) a unit kind reads
_KEY_SLOT = {"x": 0, "y": 1, "z": 2, "eps": 2}


def _fiber_sums(elements: list, units: list) -> tuple:
    """The fiber tables of elements, as integer sums per arrow.

    Returns ``(D, tables)``: D is the lcm of the coefficients'
    denominators, and ``tables`` lazily yields, for each unit in turn, a
    list of pairs ((bit, h), numerators), one pair per arrow that some
    present term reaches.  The numerators hold one entry per element, the
    sum times D of that element's coefficients of the terms present over
    that unit at that arrow, and may be zero.  The pairs are listed, not
    keyed, so that no reader pays for hashing words it only scans.  A
    term of U_(bit, h) is present over u when its element's flag admits
    u's kind and its region holds u; it adds at the single arrow of
    U_(bit, h) over u, which is (0, W_ONE) over x, (bit, W_ONE) over y
    and (bit, h) over z and eps.
    """
    denom = lcm(*(t[2].denominator for f in elements for t in f.terms))
    # Arrows and regions are numbered once, so the per-unit sums hash small
    # integers; arrows are found by their letter strings, whose hashes are
    # cached.  The terms are grouped by element and region, so each group's
    # flag and region are tested once per unit, and a run of terms that
    # share one region object looks it up once.
    keys = [(0, W_ONE), (1, W_ONE)]
    arrows = {(0, ""): 0, (1, ""): 1}
    regions: dict[BUnitSet, int] = {}
    groups: dict[tuple[int, int], tuple] = {}
    for i, f in enumerate(elements):
        kinds = _FLAG_KINDS[f.flag]
        last = None
        for bit, h, c, region in f.terms:
            if region is not last:
                last = region
                r = regions.setdefault(region, len(regions))
                group = groups.get((i, r))
                if group is None:
                    group = groups[i, r] = (i, r, kinds, [])
            a = arrows.setdefault((bit, h.chars), len(keys))
            if a == len(keys):
                keys.append((bit, h))
            num = c.numerator * (denom // c.denominator)
            group[3].append((num, (0, bit, a)))
    blank = [0] * len(elements)

    def tables():
        for u in units:
            kind, slot = u.kind, _KEY_SLOT[u.kind]
            inside = [buset_member(r, u) for r in regions]
            acc: dict[int, list] = {}
            for i, r, kinds, terms in groups.values():
                if inside[r] and kind in kinds:
                    for num, at in terms:
                        a = at[slot]
                        entry = acc.get(a)
                        if entry is None:
                            entry = acc[a] = blank.copy()
                        entry[i] += num
            yield [(keys[a], entry) for a, entry in acc.items()]

    return denom, tables()


def bstein_eval(f: BSteinElt, arrow: BArrow) -> Fraction:
    """f at one arrow, read off the fold's table over the arrow's unit.

    Only the terms that can land on the arrow are folded: over x every
    term, over y those with the arrow's bit, over z and eps those with
    the arrow's (bit, h)."""
    kind, bit, h = arrow.unit.kind, arrow.bit, arrow.h
    if kind == "x":
        terms = f.terms
    elif kind == "y":
        terms = tuple(t for t in f.terms if t[0] == bit)
    else:
        terms = tuple(t for t in f.terms if t[0] == bit and t[1] == h)
    denom, tables = _fiber_sums([BSteinElt(terms, f.flag)], [arrow.unit])
    # every folded term lands on the arrow, so the table holds at most it
    return Fraction(sum(num for _, (num,) in next(tables)), denom)


def bstein_conv(f: BSteinElt, g: BSteinElt) -> BSteinElt:
    """Convolution; in a bundle arrows compose only over a shared unit,
    so a product is restricted to B when either factor is.  Each distinct
    pair of the factors' regions is intersected once."""
    flag = g.flag if f.flag == FLAG_FULL else f.flag
    f_regions: dict[BUnitSet, int] = {}
    g_regions: dict[BUnitSet, int] = {}
    f_at = [f_regions.setdefault(t[3], len(f_regions)) for t in f.terms]
    g_at = [g_regions.setdefault(t[3], len(g_regions)) for t in g.terms]
    meets = [[buset_intersect(U, V) for V in g_regions] for U in f_regions]
    prods = []
    for (b1, h1, c1, _), i in zip(f.terms, f_at):
        row = meets[i]
        for (b2, h2, c2, _), j in zip(g.terms, g_at):
            prods.append(((b1 + b2) % 2, h1 * h2, c1 * c2, row[j]))
    return bstein(prods, flag)


def bstein_star(f: BSteinElt) -> BSteinElt:
    return bstein(
        [(bit, h.inv(), c, region) for bit, h, c, region in f.terms], f.flag
    )


def bstein_scale(f: BSteinElt, c: Union[Fraction, int]) -> BSteinElt:
    c = Fraction(c)
    return bstein([(b, h, c * q, U) for b, h, q, U in f.terms], f.flag)


# ---------------------------------------------------------------------------
# the named elements
# ---------------------------------------------------------------------------


def bundle_chi(U: BUnitSet) -> BSteinElt:
    """Indicator of the unit arrows over a compact open unit set."""
    return bstein([(0, W_ONE, Fraction(1), U)])


def bundle_chiB() -> BSteinElt:
    """Indicator of the unit arrows over B = X u Y (symbolic restriction)."""
    return bstein([(0, W_ONE, Fraction(1), WHOLE_SET)], FLAG_B)


def bundle_a() -> BSteinElt:
    """chi of the bit-0 global bisection minus the bit-1 one."""
    return bstein(
        [
            (0, W_ONE, Fraction(1), WHOLE_SET),
            (1, W_ONE, Fraction(-1), WHOLE_SET),
        ]
    )


def bundle_bn(n: int) -> BSteinElt:
    """Average of the bisections of (0, h) over the radius-n sphere of H."""
    sph = sphere(n)
    w = Fraction(1, len(sph))
    return bstein([(0, h, w, WHOLE_SET) for h in sph])


# ---------------------------------------------------------------------------
# exact suprema and singularity
# ---------------------------------------------------------------------------


def _fresh(indices: Iterable[int]) -> int:
    return max((abs(i) for i in indices), default=0) + 1


def stratum_units(fs: tuple[BSteinElt, ...]) -> list[BUnit]:
    """Finitely many units meeting every stratum on which each f has a
    constant fiber: region membership only inspects the finitely many
    indices written in the terms' regions, so these indices plus one
    fresh index of each kind see every fiber any of the functions has.
    """
    zs: set[int] = set()
    col_keys: set[int] = set()
    col_js: dict[int, set[int]] = {}
    for f in fs:
        for _, _, _, region in f.terms:
            zs.update(region.zs)
            for i, (_, js) in region.cols:
                col_keys.add(i)
                col_js.setdefault(i, set()).update(js)
    zs.add(_fresh(zs))
    col_keys.add(_fresh(col_keys))
    units: list[BUnit] = [U_EPS]
    units.extend(uz(k) for k in sorted(zs))
    for i in sorted(col_keys):
        units.append(uy(i))
        js = col_js.get(i, set())
        js.add(_fresh(js))
        units.extend(ux(i, j) for j in sorted(js))
    return units


def bundle_sup_dist(f: BSteinElt, g: BSteinElt) -> Fraction:
    """Exact supremum of |f - g| over all arrows: both are constant on
    strata, so one unit per stratum and the keys of both fiber tables
    there see every value of f - g."""
    denom, tables = _fiber_sums([f, g], stratum_units((f, g)))
    best = max((abs(x - y) for t in tables for _, (x, y) in t), default=0)
    return Fraction(best, denom)


@dataclass(frozen=True)
class BundleVerdict:
    singular: bool
    witness: Optional[BArrow]  # a nonzero isolated arrow when nonsingular


# the unit kinds whose arrows are isolated
_ISOLATED = ("x", "z")


def bundle_is_singular(f: BSteinElt) -> BundleVerdict:
    """Whether supp(f) has empty interior.

    The isolated arrows are exactly those over x- and z-units, and every
    nonempty open set contains one, so f is singular iff its fiber table
    is zero at every x- and z-unit of ``stratum_units``.  The witness
    lies over the first such unit, in ``stratum_units`` order, with a
    nonzero entry, at its least such (bit, h) there.
    """
    units = [u for u in stratum_units((f,)) if u.kind in _ISOLATED]
    _, tables = _fiber_sums([f], units)
    for u, sums in zip(units, tables):
        nonzero = [k for k, (v,) in sums if v]
        if nonzero:
            bit, h = min(nonzero, key=lambda k: (k[0], k[1].sort_key()))
            return BundleVerdict(False, barrow(bit, h, u))
    return BundleVerdict(True, None)


def bundle_fold(elements: list[BSteinElt]) -> tuple:
    """``(D, chunks)``: one chunk per unit of ``stratum_units`` of all the
    elements, ``(u.kind in _ISOLATED, numerator vectors)``, a vector per
    arrow of ``_fiber_sums`` with one numerator per element over D.
    ``repnorm.fold_readings`` reads the chunks.

    Those units meet every stratum of each subset of the elements.  A
    function's table at a unit depends only on the unit's kind and on
    which of the function's regions hold it, so call two units alike for
    a set of functions when they have the same kind and lie in the same
    regions of those functions; the strata of the set are the classes of
    this relation.  Units alike for all the elements are alike for every
    subset, as a subset has fewer regions, so each stratum of a subset
    is a union of strata of all the elements, and ``stratum_units`` of all
    of them meets each of those.  Hence, for any two elements f and g:

    - the tables of f and g at these units are their tables on every
      stratum of the pair, so the largest |entry of f - entry of g| over
      them is ``bundle_sup_dist(f, g)``;
    - the x- and z-units among them meet every x- and z-stratum of f, so
      f has a nonzero entry at one of them exactly when
      ``bundle_is_singular`` finds a witness.
    """
    units = stratum_units(tuple(elements))
    denom, tables = _fiber_sums(elements, units)
    return denom, (
        (u.kind in _ISOLATED, [nums for _, nums in t]) for u, t in zip(units, tables)
    )
