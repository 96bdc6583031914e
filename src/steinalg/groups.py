"""Exact arithmetic in two rank-2 free groups and their products.

Two disjoint free groups are used throughout the package: ``H`` with
generators ``c, d`` and ``F`` with generators ``a, b``.  The ambient group
is ``G = H x F x Z x Z``; the quotient ``K = H x F x Z`` appears as the
target of the two projections that drop one integer coordinate.

Free-group elements are reduced words stored as strings, lowercase for a
generator and uppercase for its inverse.  Values are validated where they
enter: the public ``FreeWord``, ``GElt`` and ``KElt`` constructors,
:func:`free_word` and the ``syntax`` parsers.  So structural equality is
group equality, and products, inverses and homomorphic images of valid
values, the words of spheres and balls, and the CLI's seeded samples, all
valid by construction, are built unchecked (``_reduced``, ``_gelt``, ``_kelt``).
"""

from __future__ import annotations

from dataclasses import dataclass

H_GENS = ("c", "d")
F_GENS = ("a", "b")
_H_SET = frozenset(H_GENS)
_F_SET = frozenset(F_GENS)


def _reduce(chars: str) -> str:
    out: list[str] = []
    for ch in chars:
        # xX and Xx cancel; anything else is already reduced on the left
        if out and out[-1] != ch and out[-1].lower() == ch.lower():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


@dataclass(frozen=True)
class FreeWord:
    """A reduced word; build with :func:`free_word` or the operators."""

    chars: str = ""

    def __post_init__(self) -> None:
        if _reduce(self.chars) != self.chars:
            raise ValueError(f"word not reduced: {self.chars!r}")

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return free_mul(self, other)

    def inv(self) -> "FreeWord":
        return _reduced(self.chars[::-1].swapcase())

    def __len__(self) -> int:
        return len(self.chars)

    def is_identity(self) -> bool:
        return not self.chars

    def exp_sum(self, gen: str) -> int:
        return self.chars.count(gen) - self.chars.count(gen.upper())

    def gens(self) -> frozenset[str]:
        return frozenset(self.chars.lower())

    def sort_key(self):
        return (len(self.chars), self.chars)

    def __str__(self) -> str:
        return self.chars or "1"


W_ONE = FreeWord("")


def _reduced(chars: str) -> FreeWord:
    """FreeWord from ``chars`` known to be reduced, skipping the check."""
    word = object.__new__(FreeWord)
    object.__setattr__(word, "chars", chars)
    return word


def free_word(chars: str) -> FreeWord:
    """Reduce ``chars`` (lowercase gen, uppercase inverse) to a FreeWord."""
    return _reduced(_reduce(chars))


def free_mul(u: FreeWord, v: FreeWord) -> FreeWord:
    """Product of two reduced FreeWords.

    Both operands must be reduced ``FreeWord`` instances (which every
    public constructor guarantees), so only letters at the junction can
    cancel: the last letters of ``u`` against the first letters of ``v``.
    The result is built without re-running the reduction check.
    """
    a, b = u.chars, v.chars
    k, top = 0, min(len(a), len(b))
    while k < top and a[-1 - k] == b[k].swapcase():
        k += 1
    return _reduced(a[: len(a) - k] + b[k:])


def _check_parts(x) -> None:
    if not x.h.gens() <= _H_SET:
        raise ValueError(f"h-part {x.h} not over {H_GENS}")
    if not x.f.gens() <= _F_SET:
        raise ValueError(f"f-part {x.f} not over {F_GENS}")


@dataclass(frozen=True)
class GElt:
    """Element (h, f, n, m) of G = H x F x Z x Z."""

    h: FreeWord = W_ONE
    f: FreeWord = W_ONE
    n: int = 0
    m: int = 0

    __post_init__ = _check_parts

    def __mul__(self, other: "GElt") -> "GElt":
        return group_mul(self, other)

    def inv(self) -> "GElt":
        return group_inv(self)

    def is_identity(self) -> bool:
        return not (self.h.chars or self.f.chars or self.n or self.m)

    def sort_key(self):
        return (self.h.sort_key(), self.f.sort_key(), self.n, self.m)

    def __str__(self) -> str:
        return f"({self.h},{self.f},{self.n},{self.m})"


G_ONE = GElt()


def _gelt(h: FreeWord, f: FreeWord, n: int, m: int) -> GElt:
    """GElt from parts known to be over the right generators, unchecked."""
    g = object.__new__(GElt)
    object.__setattr__(g, "h", h)
    object.__setattr__(g, "f", f)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "m", m)
    return g


def group_mul(g1: GElt, g2: GElt) -> GElt:
    return _gelt(free_mul(g1.h, g2.h), free_mul(g1.f, g2.f), g1.n + g2.n, g1.m + g2.m)


def group_inv(g: GElt) -> GElt:
    return _gelt(g.h.inv(), g.f.inv(), -g.n, -g.m)


@dataclass(frozen=True)
class KElt:
    """Element (h, f, n) of K = H x F x Z."""

    h: FreeWord = W_ONE
    f: FreeWord = W_ONE
    n: int = 0

    __post_init__ = _check_parts

    def __mul__(self, other: "KElt") -> "KElt":
        return _kelt(self.h * other.h, self.f * other.f, self.n + other.n)

    def inv(self) -> "KElt":
        return _kelt(self.h.inv(), self.f.inv(), -self.n)

    def is_identity(self) -> bool:
        return not (self.h.chars or self.f.chars or self.n)

    def sort_key(self):
        return (self.h.sort_key(), self.f.sort_key(), self.n)

    def __str__(self) -> str:
        return f"({self.h},{self.f},{self.n})"


K_ONE = KElt()


def _kelt(h: FreeWord, f: FreeWord, n: int) -> KElt:
    """KElt from parts known to be over the right generators, unchecked."""
    k = object.__new__(KElt)
    object.__setattr__(k, "h", h)
    object.__setattr__(k, "f", f)
    object.__setattr__(k, "n", n)
    return k


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

def hom_tau(g: GElt) -> GElt:
    """tau(h, f, n, m) = (1, 1, sigma_a(f), sigma_b(f)).

    The integer coordinates of the image are the exponent sums of the
    F-part; everything else is forgotten.  tau(tau(g)) is always the
    identity.
    """
    return _gelt(W_ONE, W_ONE, g.f.exp_sum("a"), g.f.exp_sum("b"))


def hom_pi(i: int, g: GElt) -> KElt:
    """Projection G -> K keeping the i-th integer coordinate, i in {1, 2}."""
    if i == 1:
        return _kelt(g.h, g.f, g.n)
    if i == 2:
        return _kelt(g.h, g.f, g.m)
    raise ValueError(f"channel must be 1 or 2, got {i}")


def hom_zeta(i: int, g: GElt) -> int:
    """The i-th integer coordinate of g, i in {1, 2}."""
    if i == 1:
        return g.n
    if i == 2:
        return g.m
    raise ValueError(f"channel must be 1 or 2, got {i}")


# ---------------------------------------------------------------------------
# spheres and balls in a free group
# ---------------------------------------------------------------------------

def sphere_size(n: int) -> int:
    """The number of reduced words over c, d of length n >= 1: four
    choices for the first letter and three for each later one."""
    return 4 * 3 ** (n - 1)


def sphere(n: int) -> tuple[FreeWord, ...]:
    """All reduced words over c, d of length exactly n >= 1, sorted
    deterministically.

    Size is ``sphere_size(n)``.  n < 1 is rejected: the length-0 sphere is
    the identity and never what a sphere average means here.
    """
    if n < 1:
        raise ValueError(f"sphere radius must be >= 1, got {n}")
    words = [""]
    for _ in range(n):
        words = [w + s for w in words for s in "cCdD" if not w.endswith(s.swapcase())]
    # no letter follows its inverse, so every word is reduced as built
    return tuple(_reduced(w) for w in sorted(words))


def ball(n: int) -> tuple[FreeWord, ...]:
    """All reduced words over c, d of length <= n, sorted deterministically."""
    if n < 0:
        raise ValueError(f"ball radius must be >= 0, got {n}")
    out = [W_ONE]
    for k in range(1, n + 1):
        out.extend(sphere(k))
    return tuple(out)
