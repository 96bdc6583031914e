"""Certified two-sided estimates for reduced operator norms.

The reduced norm of an algebra element is the supremum over base words w
of the operator norm of left convolution acting on l2 of the germs at w.
Everything here returns quantities with a stated side:

* a *lower* bound is ||A v|| / ||v|| for an explicitly computed vector v
  whose image under the operator is exact (no truncation error), so it is
  certified up to floating point rounding;
* an *upper* bound comes from a summable coefficient inequality, the
  length-layered l2 estimate sum_l (l+1) ||f_l||_2 for the free group.

Both models' norms are fiberwise: exact character values on finite
isotropy, and left-regular walks of the free factor elsewhere.
``_fiber_bound`` is the one place where those pieces become a two-sided
bound, on walks as the folds hand them over: letter strings mapped to
integer numerators over one denominator.  ``_walk_bound`` merges signed
walks of coefficients, so f - g is bounded as ``[(w_f, 1), (w_g, -1)]``
and never built; ``stein_H_norm_bound`` and ``bundle_norm_bound`` are
the one-call forms on elements.  ``rho_estimate`` takes a sphere index
n, builds the walk of the sphere average b_n itself and bounds it above
by Haagerup's inequality; every other walk goes through ``_fiber_bound``.

Truncations are to balls in the rank-two free group on c, d.  A column of
a truncated matrix whose image would leave the ball is flagged as a
boundary column and excluded from the certified iteration.

A ball operator is built on integer indices, never on words.  For each
radius one table per letter x gives the ball index of x * w for every
ball word w, or a sentinel when x * w leaves the ball; the tables are
made on first use and kept, with an identity row beside them.  They are
computed from the index layout of the ball, one block of ball indices
per sphere and first letter, and no word is built for them.  The
walk's letter strings become one matrix of letter codes, checked once, and
the images h * w of all columns are gathered through the tables one
letter position at a time, right to left, in one whole-array gather per
position.  Along the tree geodesic w, x_k w, ..., h w the word length
falls and then rises, so the gathers stay in the ball exactly when both
ends do, and a column is dropped at the first position where an image
leaves it.  Words that share a suffix share its gathers.  The entries
are sorted into (row, col) order, and the iteration runs on numpy
arrays of the interior entries: A v and A^T u are ``np.bincount`` sums
over them, in that order.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import mul, sub
from typing import Iterable, Mapping, Optional, Sequence, Union

# OpenBLAS's worker threads spin for about 0.1 s of CPU after numpy
# starts, and one thread is faster on the small SVDs done here; a value
# the caller set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .bundle import (
    BSteinElt, _fiber_sums, bundle_bn, bundle_chiB, bundle_fold, stratum_units
)
from .groups import H_GENS, sphere, sphere_size
from .steinberg import REGION_FULL, SteinElt, st_bn, st_chiB, st_fold


# ---------------------------------------------------------------------------
# sparse operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """A sparse rational matrix with flagged boundary columns.

    Entry k holds ``coeffs[coeff_index[k]]`` in row ``rows[k]``, column
    ``cols[k]``; entries are distinct cells in (row, col) order.  Boundary
    columns, an array of column indices, are those whose true image is
    not captured by the rows;
    certified lower bounds iterate on vectors supported away from them,
    and ``interior_arrays`` drops every entry of a boundary column.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    coeff_index: np.ndarray
    coeffs: tuple[Fraction, ...]
    boundary_cols: np.ndarray

    @property
    def entries(self) -> tuple[tuple[int, int, Fraction], ...]:
        """The exact entries ``(i, j, c)``, in (row, col) order."""
        values = map(self.coeffs.__getitem__, self.coeff_index.tolist())
        return tuple(zip(self.rows.tolist(), self.cols.tolist(), values))

    def interior_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and float values of the entries outside boundary
        columns, in entry order; each coefficient is converted once."""
        vals = np.array([float(c) for c in self.coeffs], dtype=float)
        inside = np.ones(self.shape[1], dtype=bool)
        inside[self.boundary_cols] = False
        keep = inside[self.cols]
        return self.rows[keep], self.cols[keep], vals[self.coeff_index[keep]]


# ---------------------------------------------------------------------------
# certified norm estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormEstimate:
    lower: float
    upper: Optional[float]
    iterations: int
    truncation_radius: Optional[int] = None
    # columns with an exact image; a lower bound of 0 with none certifies nothing
    interior_cols: Optional[int] = None


# power-iteration steps before an estimate stops short of its tolerance
MAX_ITER = 2000


def _spmv(out_idx, in_idx, vals, x, size: int) -> np.ndarray:
    """y[out_idx[k]] += vals[k] * x[in_idx[k]], summed in entry order.

    With (rows, cols) this is A x; with (cols, rows) it is A^T x."""
    return np.bincount(out_idx, vals * x[in_idx], size)


def _power_lower(shape, rows, cols, vals, tol: float):
    """Largest ||A v|| / ||v|| found over explicit vectors v, for the
    matrix A of the given shape with entries ``vals`` at ``(rows, cols)``.

    Small matrices certify the dense SVD's top right singular vector with
    one exact multiplication; larger ones iterate A^T A from a uniform
    start, where the Rayleigh quotients are nondecreasing, so the last
    value is the best certified one.  Either way the result is witnessed
    by a vector whose image is computed directly.
    """
    nrows, ncols = shape
    if len(vals) == 0 or ncols == 0:
        return 0.0, 0
    if max(shape) <= 600:
        dense = np.zeros(shape)
        np.add.at(dense, (rows, cols), vals)
        v = np.linalg.svd(dense)[2][0]
        return float(np.linalg.norm(dense @ v) / np.linalg.norm(v)), 1
    v = np.full(ncols, 1.0 / math.sqrt(ncols))
    sigma_prev = -1.0
    sigma = 0.0
    it = 0
    for it in range(1, MAX_ITER + 1):
        u = _spmv(rows, cols, vals, v, nrows)
        sigma = float(np.linalg.norm(u))
        if sigma == 0.0:
            return 0.0, it
        w = _spmv(cols, rows, vals, u, ncols)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            break
        v = w / norm_w
        if sigma - sigma_prev < tol:
            break
        sigma_prev = sigma
    return sigma, it


def opnorm_lower(op: SparseOperator, tol: float = 1e-9) -> NormEstimate:
    """Certified lower bound for the operator norm: power iteration on the
    matrix with boundary columns dropped, so every image is exact."""
    sigma, iters = _power_lower(op.shape, *op.interior_arrays(), tol)
    interior = op.shape[1] - len(op.boundary_cols)
    return NormEstimate(sigma, None, iters, None, interior)


# the letters in the ball's order C, D, c, d, whose ranks index the rows
# of the letter tables, then the identity row that pads short words
_LETTERS = frozenset("CDcd")
_PAD, _PAD_CHAR = 4, "."
_LETTER_CODES = bytes.maketrans(b"CDcd.", bytes(range(_PAD + 1)))


@functools.lru_cache(maxsize=None)
def _step_tables(radius: int) -> np.ndarray:
    """Left multiplication by each letter on the radius-``radius`` ball.

    ``step[r][i]`` is the index of x * ball(radius)[i] for the letter x of
    rank r in C, D, c, d, or the sentinel len(ball(radius)) when that word
    leaves the ball; the sentinel maps to itself, so a gather through
    several rows keeps it.  Row ``_PAD`` is the identity, which pads
    short words in ``h_ball_operator``.  Built once per radius, on first
    use, and read-only.

    The tables come from the index layout of the ball alone; no word is
    built.  ``ball`` sorts by length, then by ASCII, so the letters rank
    C, D, c, d and the inverse of rank r is r ^ 2.  Sphere k + 1 starts
    at index 2 * 3^k - 1 and holds one block of 3^k words per first
    letter, in rank order.  The words of sphere k that do not start with
    the inverse of x, taken in order, are the tails of block x of sphere
    k + 1, so x maps them onto that block and its inverse maps it back;
    all four letters are written at once, one sphere at a time.  Every
    other entry is a product that leaves the ball and keeps the sentinel.
    """
    size = 2 * 3**radius - 1
    steps = np.full((_PAD + 1, size + 1), size, dtype=np.intp)
    steps[_PAD] = np.arange(size + 1)
    flat = steps.reshape(-1)
    at = np.arange(4)[:, None] * (size + 1)  # where each letter's row starts
    inverse = at[[2, 3, 0, 1]]
    # the blocks of sphere k + 1 that a letter may precede: all but its inverse
    others = np.array([[j for j in range(4) if j != r ^ 2] for r in range(4)])
    tails = np.zeros((4, 1), dtype=np.intp)  # sphere 0, the empty word, per letter
    for k in range(radius):
        block = 3**k
        words = np.arange(2 * block - 1, 6 * block - 1).reshape(4, block)
        flat[at + tails] = words
        flat[inverse + words] = tails
        tails = words[others].reshape(4, 3 * block)
    steps.flags.writeable = False
    return steps


def h_ball_operator(
    walk: Mapping[str, int], denom: int, radius: int
) -> SparseOperator:
    """Left multiplication by sum_h (walk[h] / denom) h on l2 of the
    radius-``radius`` ball of the free group on c, d.

    ``walk`` maps reduced words, as their letter strings, to nonzero
    integer numerators over ``denom``.  Columns with some product landing
    outside the ball are flagged as boundary and carry no entries.
    Interior columns hold every product, one entry per word (distinct
    words give distinct rows).  Words over other letters raise
    ``ValueError``; the letters of all words are checked at once, before
    any table is read.

    Coefficients get one slot per distinct numerator, in order of first
    appearance, so each becomes a ``Fraction`` and a float only once.

    The words become a matrix of letter codes, one row per term,
    right-aligned and padded on the left with the identity row of
    ``_step_tables``.  The images h * w of the columns w are
    gathered through the tables one letter position at a time, right to
    left, in one flat gather per position.  The words w, x_k w, ..., h w
    form a geodesic of the Cayley tree, so their lengths fall and then
    rise: every intermediate word lies in the ball whenever w and h w
    do, and the gathers reach the sentinel exactly when h w leaves the
    ball.  So after each position the columns with a sentinel image are
    dropped; those left at the end are the interior, and their images
    are the rows.  The terms are sorted by their suffixes, so the terms
    that share the suffix from a position on form a run, and a position
    gathers once per run: at the last letter, through at most four
    single-letter tables over the whole ball, after which the columns
    are already narrowed.  Entries are put in (row, col) order with one
    sort of the distinct cells, the order of ``interior_arrays`` and of
    the bincount sums of the iteration.
    """
    words = list(walk)
    if not _LETTERS.issuperset("".join(words)):
        raise ValueError(f"coefficient words must be over {H_GENS}")
    steps = _step_tables(radius)
    size = steps.shape[1] - 1

    slot: dict[int, int] = {}
    per_term = [slot.setdefault(c, len(slot)) for c in walk.values()]
    slots = np.array(per_term, dtype=np.intp)
    terms, width = len(words), max(map(len, words), default=0)
    padded = "".join(map(str.rjust, words, repeat(width), repeat(_PAD_CHAR)))
    codes = padded.encode().translate(_LETTER_CODES)
    codes = np.fromiter(codes, np.intp, len(codes)).reshape(terms, width)

    # Sorted by suffix, the terms that share their letters from position p
    # on form a run.  Terms k and k + 1 differ last at position last[k],
    # so k + 1 opens a run at every p <= last[k].  Row p of ``opens`` marks
    # the first term of each run at p, and row ``width`` the one run of the
    # empty suffix.  Runs are numbered position by position: run[p * terms
    # + k] is term k's run at p, bounds[p] the first run at p, and each run
    # left of ``width`` extends run ``parents`` one position to its right.
    order = np.lexsort(codes.T) if width else np.arange(terms)
    codes = codes[order]
    pairs, at = np.nonzero(codes[1:] != codes[:-1])
    last = at[np.concatenate((pairs[1:], [terms])) != pairs]
    opens = np.ones((width + 1, terms), dtype=bool)
    opens[:, 1:] = last >= np.arange(width + 1)[:, None]
    at, firsts = np.nonzero(opens)
    key = at * terms + firsts
    lengths = np.concatenate((key[1:], [opens.size])) - key
    run = np.repeat(np.arange(len(key)), lengths)
    bounds = np.nonzero(firsts == 0)[0].tolist() + [len(key)]
    inner = slice(0, bounds[width])
    parents = run[key[inner] + terms]
    offsets = codes[firsts[inner], at[inner], None] * (size + 1)
    flat = steps.ravel()
    cols = np.arange(size)
    images = cols[None]  # one row per run, here the empty suffix's
    for p in range(width - 1, -1, -1):
        level = slice(bounds[p], bounds[p + 1])
        images = flat[images[parents[level] - bounds[p + 1]] + offsets[level]]
        inside = images.max(axis=0) < size
        cols = cols[inside]
        images = images.compress(inside, axis=1)

    rows = images[run[:terms]]
    cells = np.lexsort(((rows * size + cols).ravel(),))
    term, col = np.divmod(cells, len(cols))
    boundary = np.ones(size, dtype=bool)
    boundary[cols] = False
    return SparseOperator(
        (size, size),
        rows.ravel()[cells],
        cols[col],
        slots[order][term],
        tuple(Fraction(c, denom) for c in slot),
        np.flatnonzero(boundary),
    )


def haagerup_bound(n: int) -> float:
    """Upper bound (n+1)/sqrt(4 * 3^(n-1)) for the norm of the normalized
    radius-n sphere average in the reduced algebra of the rank-two free
    group: the layer has l2 norm 1/sqrt|S_n| and weight n+1."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("sphere radius must be a positive integer")
    return (n + 1) / (2.0 * 3.0 ** ((n - 1) / 2.0))


def _radial_sphere1_sigma(radius: int, tol: float):
    """sigma_max of the radius-``radius`` truncated normalized sphere-1
    walk, computed in radial coordinates.

    On e_l = the normalized sphere-l indicator the walk is tridiagonal:
    A e_0 = (1/2) e_1, A e_1 = (1/2) e_0 + (sqrt3/4) e_2, and for l >= 2
    A e_l = (sqrt3/4)(e_{l-1} + e_{l+1}).  Columns l <= radius-1 have
    exact images in the ball; the truncation is invariant under the
    letter symmetries, which act transitively on spheres, so a top
    singular vector can be averaged into a radial one and the radial
    block attains the full truncated sigma_max.
    """
    rows, cols = radius + 1, radius
    off = math.sqrt(3.0) / 4.0
    mat = np.zeros((rows, cols))
    for col in range(cols):
        mat[col + 1, col] = 0.5 if col == 0 else off
        if col >= 1:
            mat[col - 1, col] = 0.5 if col == 1 else off
    nz = np.nonzero(mat)
    return _power_lower(mat.shape, *nz, mat[nz], tol)


def rho_estimate(n: int, radius: int, tol: float = 1e-9) -> NormEstimate:
    """Certified estimates for the norm of the sphere average
    (1/|S_n|) sum_{k in S_n} lambda(k) on l2 of the free group on c, d.

    n must be a positive integer; anything else raises ``ValueError``.
    Other walks are bounded by ``_fiber_bound``.  The upper bound is
    ``haagerup_bound(n)``.  The lower bound iterates on the ball
    truncation with boundary columns removed; for S_1 this reduces
    exactly to a tridiagonal radial matrix.
    """
    upper = haagerup_bound(n)
    if radius < 1:
        raise ValueError("truncation radius must be positive")
    if n == 1:
        sigma, iters = _radial_sphere1_sigma(radius, tol)
        # the interior columns are the words of ball(radius - 1)
        interior = 2 * 3 ** (radius - 1) - 1
    else:
        walk = dict.fromkeys((h.chars for h in sphere(n)), 1)
        est = opnorm_lower(h_ball_operator(walk, sphere_size(n), radius), tol)
        sigma, iters, interior = est.lower, est.iterations, est.interior_cols
    return NormEstimate(sigma, upper, iters, radius, interior)


# ---------------------------------------------------------------------------
# norm bounds for combinations of fiber group terms
# ---------------------------------------------------------------------------


def _layered_upper(walk: Mapping[str, int], denom: int) -> float:
    """sum_l (l+1) ||f_l||_2, each layer's square norm summed exactly in
    integers and divided by denom^2 once.  Integer true division is
    correctly rounded, so each layer's float is that of its exact
    rational.  The layers are added with ``math.fsum``, so the bound does
    not depend on the order of the terms, and signed parts give the same
    float as their merged difference."""
    layers: dict[int, int] = {}
    for h, c in walk.items():
        layers[len(h)] = layers.get(len(h), 0) + c * c
    return math.fsum((l + 1) * math.sqrt(q / denom**2) for l, q in layers.items())


def _fiber_bound(
    exact: Iterable[Fraction], walks: list, denom: int, radius: int, tol: float
) -> NormEstimate:
    """Two-sided bound for a sup of fiber norms: ``exact`` holds norms
    known exactly (characters of finite isotropy), and each walk, a
    nonzero combination of free group terms with numerators over
    ``denom``, acts by the left regular representation, bounded below on
    its ball truncation and above by the layered l2 estimate.  The walks
    are pairwise distinct; each gets one estimate, ``iterations`` sums
    over them and ``interior_cols`` is their max (None without a walk)."""
    base = max((float(abs(v)) for v in exact), default=0.0)
    ests = [opnorm_lower(h_ball_operator(w, denom, radius), tol) for w in walks]
    return NormEstimate(
        max([base] + [e.lower for e in ests]),
        max([base] + [_layered_upper(w, denom) for w in walks]),
        sum(e.iterations for e in ests),
        radius,
        max((e.interior_cols for e in ests), default=None),
    )


def _stein_walk(f: SteinElt) -> dict[str, Fraction]:
    """The walk of f, a combination of fiber group terms (group elements
    of the free factor on c, d): its coefficient per letter string."""
    if f.region != REGION_FULL:
        raise ValueError("norm bound needs an unrestricted element")
    walk: dict[str, Fraction] = {}
    for s, c in f.terms:
        g = s.g
        if len(s.alpha) or len(s.beta) or not g.f.is_identity() or g.n or g.m:
            raise ValueError("terms must be fiber group elements over c, d")
        walk[g.h.chars] = walk.get(g.h.chars, 0) + c
    return walk


def _bundle_walk(f: BSteinElt) -> dict[str, Fraction]:
    """The walk of ``bundle_bn(n)``, read off its terms (bit, h, c, region)."""
    return {h.chars: c for _, h, c, _ in f.terms}


def _walk_bound(parts: Sequence[tuple], radius: int, tol: float) -> NormEstimate:
    """Two-sided bound for the reduced norm of a signed sum of walks,
    ``parts`` = [(walk, sign), ...].  Rooted in a y-family, all fiber group
    terms share one germ: exactly |sum of coefficients|.  Rooted in a
    z-family or at the empty word, the germs are the left translations of
    the free factor: one walk in the regular representation.  Coefficients
    are summed as integer numerators over their lcm, as the folds do."""
    denom = math.lcm(*(c.denominator for w, _ in parts for c in w.values()))
    sums: dict[str, int] = {}
    for w, sign in parts:
        for k, c in w.items():
            sums[k] = sums.get(k, 0) + sign * c.numerator * (denom // c.denominator)
    walk = {k: c for k, c in sums.items() if c}
    total = Fraction(sum(walk.values()), denom)
    return _fiber_bound([total], [walk] if walk else [], denom, radius, tol)


def stein_H_norm_bound(
    parts: Sequence[tuple[SteinElt, int]], radius: int, tol: float
) -> NormEstimate:
    """``_walk_bound`` of the walks of ``parts``, pairs ``(f, sign)``."""
    return _walk_bound([(_stein_walk(f), sign) for f, sign in parts], radius, tol)


def bundle_norm_bound(
    parts: Sequence[tuple[BSteinElt, int]], radius: int, tol: float
) -> NormEstimate:
    """Two-sided reduced-norm bound for the signed sum of ``parts``, pairs
    ``(f, sign)`` of bundle elements: the sup of the fiber operator norms
    over one unit per fiber stratum of all the parts.

    x-fibers are trivial and y-fibers abelian of order two, so both give
    exact character values v0 + v1 and v0 - v1 (an x-fiber holds only
    bit 0).  z- and eps-fibers carry the order-two group times the free
    factor; splitting along the two characters of the order-two part
    leaves one free group walk per character.  Both are summed on the
    signed sums of the fold's integer numerators, one per part, and equal
    walks (such as the eps unit's and a fresh z-unit's) are estimated
    once.
    """
    elements = tuple(f for f, _ in parts)
    signs = [sign for _, sign in parts]
    units = stratum_units(elements)
    denom, tables = _fiber_sums(elements, units)
    exact: list[Fraction] = []
    walks: dict[frozenset, dict[str, int]] = {}
    for u, table in zip(units, tables):
        if u.kind in ("x", "y"):
            v = [0, 0]
            for (bit, _), nums in table:
                v[bit] += sum(map(mul, signs, nums))
            exact += (Fraction(v[0] + v[1], denom), Fraction(v[0] - v[1], denom))
            continue
        # the walks of the characters bit -> 1 and bit -> (-1)^bit
        plus: dict[str, int] = {}
        minus: dict[str, int] = {}
        for (bit, h), nums in table:
            c = sum(map(mul, signs, nums))
            if not c:
                continue
            k = h.chars
            plus[k] = plus.get(k, 0) + c
            minus[k] = minus.get(k, 0) + (-c if bit else c)
        for walk in (plus, minus):
            walk = {k: c for k, c in walk.items() if c}
            if walk:
                walks.setdefault(frozenset(walk.items()), walk)
    return _fiber_bound(exact, list(walks.values()), denom, radius, tol)


# ---------------------------------------------------------------------------
# scattering profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CauchyRow:
    """One pair n < m: the exact sup distance of b_n and b_m, the norm
    bounds of b_n - b_m, and ``pi_triv``, the coefficient sum of that
    difference (its image under the trivial representation)."""

    n: int
    m: int
    sup_dist: Fraction
    upper: float
    lower: float
    pi_triv: Fraction


@dataclass(frozen=True)
class LimitRow:
    n: int
    sup_dist: Fraction


@dataclass(frozen=True)
class CauchyProfile:
    """The pair and limit rows, and ``elements``, the b_n the rows were
    computed from, by index, for callers that need them again."""

    example: str
    radius: int
    rows: tuple[CauchyRow, ...]
    limit_rows: tuple[LimitRow, ...]
    elements: Mapping[int, Union[SteinElt, BSteinElt]]


def fold_readings(fold, elements: list, refs: int) -> tuple:
    """What both models' facts rest on, read off one vector fold of
    ``elements``: ``st_fold`` or ``bundle_fold``, whose chunks refine
    those of each subset of the elements (their docstrings prove it).

    Returns ``(dists, singular)``.  ``dists[j][i]`` is the exact sup of
    |e_i - e_j| for each j < ``refs`` and every i; ``singular[i]`` says
    whether e_i is zero on every open chunk.  Pairs of elements past
    ``refs`` are not compared."""
    denom, chunks = fold(elements)
    size = len(elements)
    best = [[0] * size for _ in range(refs)]
    nonzero = [False] * size
    for is_open, chunk in chunks:
        if not chunk:
            continue
        columns = list(zip(*chunk))
        for j in range(refs):
            for i in range(j + 1, size):
                gaps = map(abs, map(sub, columns[i], columns[j]))
                best[j][i] = max(best[j][i], *gaps)
        if is_open:
            nonzero = [n or any(c) for n, c in zip(nonzero, columns)]
    dists = [
        [Fraction(best[min(i, j)][max(i, j)], denom) for i in range(size)]
        for j in range(refs)
    ]
    return dists, [not n for n in nonzero]


def cauchy_profile(
    indices: Sequence[int],
    example: str = "selfsim",
    radius: int = 6,
    tol: float = 1e-9,
) -> CauchyProfile:
    """Pairwise distances between the sphere averages b_n.

    For each pair n < m of indices one row records the exact pointwise
    sup distance, a certified two-sided bound for the reduced norm of
    b_n - b_m, and the coefficient sum of b_n - b_m.  No difference is
    built: each b_n is read once into its walk w_n, and in both models a
    row is ``_walk_bound`` of [(w_n, 1), (w_m, -1)] and the sum of w_n
    minus that of w_m.  The bundle read is exact: b_n holds bit 0 over
    ``WHOLE_SET``, so each z- and eps-fiber sees w_n under both characters
    and each x- and y-fiber its sum.  Limit rows record the sup distance
    to the indicator of the y-rooted half.  ``fold_readings`` reads every
    sup distance, pair and limit, off one vector fold of [chi_B, b_n for
    each index], whose classes or units refine those of each pair (the
    proofs are in ``st_fold`` and ``bundle_fold``), so it equals
    ``st_sup_dist`` or ``bundle_sup_dist`` of that pair.  Pointwise the
    b_n converge (sup distances vanish), and the norm rows tend to 0
    as well: the certified upper bound of a pair is haagerup_bound(n) +
    haagerup_bound(m), so the b_n are Cauchy in the reduced norm.
    """
    idx = sorted(set(indices))
    for n in idx:
        if not isinstance(n, int) or n < 1:
            raise ValueError("sphere indices must be positive integers")
    if example == "selfsim":
        build, chi, fold, read = st_bn, st_chiB, st_fold, _stein_walk
    elif example == "bundle":
        build, chi, fold, read = bundle_bn, bundle_chiB, bundle_fold, _bundle_walk
    else:
        raise ValueError(f"unknown example {example!r}")
    elts = {n: build(n) for n in idx}
    # position 0 of the fold is chi_B, position p the p-th index
    sups, _ = fold_readings(fold, [chi(), *elts.values()], len(idx) + 1)
    walks = {n: read(f) for n, f in elts.items()}
    totals = {n: sum(w.values()) for n, w in walks.items()}
    rows = []
    for i, n in enumerate(idx):
        for j, m in enumerate(idx[i + 1:], i + 1):
            est = _walk_bound([(walks[n], 1), (walks[m], -1)], radius, tol)
            sup, pi_triv = sups[i + 1][j + 1], totals[n] - totals[m]
            rows.append(CauchyRow(n, m, sup, est.upper, est.lower, pi_triv))
    limit_rows = tuple(LimitRow(n, sups[i + 1][0]) for i, n in enumerate(idx))
    return CauchyProfile(example, radius, tuple(rows), limit_rows, elts)
