"""A self-similar inverse semigroup acting on a four-family alphabet.

The alphabet has letters ``y1[n], y2[n]`` indexed by integers and
``z1[k], z2[k]`` indexed by elements of K.  The group G acts on letters by

    g . yi[n] = yi[zeta_i(g) + n]     with restriction tau(g),
    g . zi[k] = zi[pi_i(g) * k]       with trivial restriction,

and extends to finite and eventually periodic infinite words by the
self-similarity rule g(xw) = g(x) (g|_x)(w).  Because tau kills the free
parts and tau(tau(g)) = 1, every restriction past ``STABILIZATION_DEPTH``
= 2 letters is trivial.  The action on omega words, the germ keys and the
word classes of ``steinberg`` read no deeper into a word than that.

S-elements are the partial transformations alpha g beta^* (prepend alpha,
act by g, require and strip the prefix beta) together with a zero.
Products, inverses and germs are all exact and structural.  Letters are
validated where they enter (``Letter``, :func:`yl`, :func:`zl` and the
``syntax`` parsers); the action's image letters and the CLI's seeded
samples are valid by construction and built unchecked (``_letter``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .groups import (
    GElt,
    G_ONE,
    KElt,
    K_ONE,
    W_ONE,
    _gelt,
    _kelt,
    free_mul,
    group_inv,
    group_mul,
    hom_pi,
    hom_tau,
    hom_zeta,
)

# ---------------------------------------------------------------------------
# letters and words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Letter:
    family: str  # 'y' or 'z'
    channel: int  # 1 or 2
    index: Union[int, KElt]

    def __post_init__(self) -> None:
        if self.family not in ("y", "z"):
            raise ValueError(f"unknown letter family {self.family!r}")
        if self.channel not in (1, 2):
            raise ValueError(f"channel must be 1 or 2, got {self.channel}")
        if self.family == "y" and not isinstance(self.index, int):
            raise ValueError("y-letters take integer indices")
        if self.family == "z" and not isinstance(self.index, KElt):
            raise ValueError("z-letters take K-element indices")

    def sort_key(self):
        if self.family == "y":
            idx = ((0, ""), (0, ""), self.index)
        else:
            idx = self.index.sort_key()
        return (self.family, self.channel, idx)

    def __str__(self) -> str:
        return f"{self.family}{self.channel}[{self.index}]"


def _letter(family: str, channel: int, index: Union[int, KElt]) -> Letter:
    """Letter from parts known to be valid, skipping the check."""
    x = object.__new__(Letter)
    object.__setattr__(x, "family", family)
    object.__setattr__(x, "channel", channel)
    object.__setattr__(x, "index", index)
    return x


def yl(channel: int, n: int) -> Letter:
    return Letter("y", channel, n)


def zl(channel: int, k: KElt = K_ONE) -> Letter:
    return Letter("z", channel, k)


@dataclass(frozen=True)
class FinWord:
    letters: tuple[Letter, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return FinWord(self.letters[i])
        return self.letters[i]

    def __iter__(self):
        return iter(self.letters)

    def __add__(self, other: "FinWord") -> "FinWord":
        return FinWord(self.letters + other.letters)

    def startswith(self, prefix: "FinWord") -> bool:
        return self.letters[: len(prefix)] == prefix.letters

    def prefix(self, n: int) -> "FinWord":
        return FinWord(self.letters[:n])

    def sort_key(self):
        return (len(self.letters), tuple(x.sort_key() for x in self.letters))

    def __str__(self) -> str:
        return ".".join(str(x) for x in self.letters) if self.letters else "1"


EPS = FinWord(())


def finword(*letters: Letter) -> FinWord:
    return FinWord(tuple(letters))


@dataclass(frozen=True)
class OmegaWord:
    """Eventually periodic right-infinite word; build with :func:`omega`.

    Canonical form: the period is primitive and the head does not end with
    the last period letter, so structural equality is equality of words.
    """

    head: FinWord
    period: FinWord

    def __post_init__(self) -> None:
        if not self.period.letters:
            raise ValueError("period must be nonempty")

    def prefix(self, n: int) -> FinWord:
        out = self.head.letters
        while len(out) < n:
            out += self.period.letters
        return FinWord(out[:n])

    def startswith(self, prefix: FinWord) -> bool:
        return self.prefix(len(prefix)) == prefix

    def __str__(self) -> str:
        tail = f"({self.period})^w"
        return f"{self.head}.{tail}" if self.head.letters else tail


Word = Union[FinWord, OmegaWord]


def omega(head: FinWord, period: FinWord) -> OmegaWord:
    p = period.letters
    if not p:
        raise ValueError("period must be nonempty")
    for d in range(1, len(p) + 1):
        if len(p) % d == 0 and p == p[:d] * (len(p) // d):
            p = p[:d]
            break
    h = head.letters
    while h and h[-1] == p[-1]:
        h = h[:-1]
        p = (p[-1],) + p[:-1]
    return OmegaWord(FinWord(h), FinWord(p))


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------

# restrictions of any group element past this many letters are trivial
STABILIZATION_DEPTH = 2


def act_letter(g: GElt, x: Letter) -> Letter:
    if x.family == "y":
        return _letter("y", x.channel, hom_zeta(x.channel, g) + x.index)
    return _letter("z", x.channel, hom_pi(x.channel, g) * x.index)


def _act_letters(g: GElt, letters: tuple) -> tuple[tuple, GElt]:
    """Images of ``letters`` under g and the restriction of g past them.

    The letter action in closed form.  A y-letter's index moves by
    zeta_ch(g) and the restriction becomes tau(g) = (1, 1, sigma_a(f),
    sigma_b(f)), read off the characters of the F-part; a z-letter's
    index is multiplied by pi_ch(g) and the restriction becomes trivial.
    Once the running element is the identity the remaining letters are
    copied, so at most ``STABILIZATION_DEPTH`` letters are acted on.
    """
    imgs = ()
    i = 0
    while i < len(letters) and (g.h.chars or g.f.chars or g.n or g.m):
        x = letters[i]
        shift = g.n if x.channel == 1 else g.m
        if x.family == "y":
            imgs += (_letter("y", x.channel, x.index + shift) if shift else x,)
            f = g.f.chars
            sa, sb = f.count("a") - f.count("A"), f.count("b") - f.count("B")
            g = _gelt(W_ONE, W_ONE, sa, sb) if sa or sb else G_ONE
        else:
            k = x.index
            img = _kelt(free_mul(g.h, k.h), free_mul(g.f, k.f), shift + k.n)
            imgs += (_letter("z", x.channel, img),)
            g = G_ONE
        i += 1
    return imgs + letters[i:], g


def act_word(g: GElt, w: FinWord) -> tuple[FinWord, GElt]:
    """Image of w under g together with the restriction of g past w."""
    imgs, r = _act_letters(g, w.letters)
    return FinWord(imgs), r


def act_omega(g: GElt, w: OmegaWord) -> OmegaWord:
    """Image of w under g.  Each period has a letter, so past the head and
    ``STABILIZATION_DEPTH`` periods the restriction is trivial and the
    period repeats unchanged."""
    img, _ = act_word(g, w.prefix(len(w.head) + STABILIZATION_DEPTH * len(w.period)))
    return omega(img, w.period)


# ---------------------------------------------------------------------------
# S-elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SElt:
    """alpha g beta^*, or the zero element."""

    alpha: FinWord = EPS
    g: GElt = G_ONE
    beta: FinWord = EPS
    zero: bool = False

    def __mul__(self, other: "SElt") -> "SElt":
        return s_mul(self, other)

    def inv(self) -> "SElt":
        return s_inv(self)

    def sort_key(self):
        return (
            self.zero,
            self.alpha.sort_key(),
            self.g.sort_key(),
            self.beta.sort_key(),
        )

    def __str__(self) -> str:
        if self.zero:
            return "0"
        parts = []
        if self.alpha.letters:
            parts.append(str(self.alpha))
        if not self.g.is_identity():
            parts.append(str(self.g))
        if self.beta.letters:
            b = str(self.beta)
            parts.append(f"({b})*" if len(self.beta) > 1 else f"{b}*")
        return " ^ ".join(parts) if parts else "1"


S_ZERO = SElt(zero=True)
S_ONE = SElt()


def s_from_group(g: GElt) -> SElt:
    return SElt(g=g)


def s_from_word(alpha: FinWord) -> SElt:
    return SElt(alpha=alpha)


def s_proj(alpha: FinWord) -> SElt:
    """The idempotent alpha alpha^* (range projection of alpha)."""
    return SElt(alpha=alpha, beta=alpha)


def s_mul(s: SElt, t: SElt) -> SElt:
    """Product of S-elements, on letter tuples.

    When t's alpha extends s's beta, s acts on the rest of it and its
    restriction there multiplies t.g; otherwise s's beta extends t's
    alpha, and the rest of it is pulled back through t.g.  A trivial
    factor skips the group product, and an empty image keeps the
    factor's word.
    """
    if s.zero or t.zero:
        return S_ZERO
    b1, a2 = s.beta.letters, t.alpha.letters
    k = len(b1)
    if len(a2) >= k:
        if k and a2[:k] != b1:
            return S_ZERO
        img, r = _act_letters(s.g, a2[k:])
        alpha = FinWord(s.alpha.letters + img) if img else s.alpha
        return SElt(alpha, _g_mul(r, t.g), t.beta)
    k = len(a2)
    if b1[:k] != a2:
        return S_ZERO
    gamma_pre, r_inv = _act_letters(group_inv(t.g), b1[k:])
    # t.g restricted at gamma_pre is r_inv^{-1} (cocycle identity)
    g = _g_mul(s.g, group_inv(r_inv))
    return SElt(s.alpha, g, FinWord(t.beta.letters + gamma_pre))


def _g_mul(g1: GElt, g2: GElt) -> GElt:
    """g1 g2, or the other factor when one is trivial."""
    if g1.is_identity():
        return g2
    if g2.is_identity():
        return g1
    return group_mul(g1, g2)


def s_inv(s: SElt) -> SElt:
    if s.zero:
        return S_ZERO
    return SElt(alpha=s.beta, g=group_inv(s.g), beta=s.alpha)


def s_defined_at(s: SElt, w: Word) -> bool:
    return not s.zero and w.startswith(s.beta)


def s_apply(s: SElt, w: Word) -> Word:
    """Apply the partial map to a word in its domain."""
    if s.zero:
        raise ValueError("zero element has empty domain")
    beta = s.beta.letters
    k = len(beta)
    if isinstance(w, FinWord):
        if w.letters[:k] != beta:
            raise ValueError(f"word does not extend the source prefix {s.beta}")
        img, _ = _act_letters(s.g, w.letters[k:])
        return FinWord(s.alpha.letters + img)
    h = w.head.letters
    p = w.period.letters
    while len(h) < k:
        h = h + p
    if h[:k] != beta:
        raise ValueError(f"word does not extend the source prefix {s.beta}")
    img = act_omega(s.g, OmegaWord(FinWord(h[k:]), w.period))
    return omega(FinWord(s.alpha.letters + img.head.letters), img.period)


# ---------------------------------------------------------------------------
# germs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Germ:
    """The germ of s at a word in its domain."""

    s: SElt
    word: Word

    def __post_init__(self) -> None:
        if not s_defined_at(self.s, self.word):
            raise ValueError(f"germ undefined: {self.s} at {self.word}")


def germ_key(s: SElt, w: Word):
    """Canonical invariant: two elements have equal keys at w iff their
    germs at w agree.

    Let src be the prefix of w of length |beta| + ``STABILIZATION_DEPTH``
    (all of w if shorter).  Past src the restriction is trivial unless w
    ends first, so near w the map s replaces src by alpha + g(src past
    beta) and keeps the rest of the word.  The key is the shift |alpha| -
    |beta|, that image with its trailing letters stripped while they equal
    the letters of w they replace, and the restriction past src.  The
    stripping makes the key independent of how far s was cut down around
    w, and the shift and the stripped image give back the whole image.

    Past beta the letters enter only through homomorphism images: g moves
    a y-letter's index by zeta_ch(g) and restricts to tau(g), and
    multiplies a z-letter's index by pi_ch(g) and restricts to 1, so the
    letter is unchanged, and stripped, exactly when zeta_ch(g) = 0 or
    pi_ch(g) = 1.  Elements that share beta act on the same letters there,
    and an index cancels when two images of one letter are compared: their
    keys agree exactly when their alphas and these images agree, whatever
    the letters' indices.  ``steinberg`` keys such elements by those
    images; this function is the key wherever a shorter source prefix acts
    on letters of a longer one, and the oracle for the image keys.
    """
    k = len(s.beta.letters)
    end = k + STABILIZATION_DEPTH
    src = w.letters[:end] if isinstance(w, FinWord) else w.prefix(end).letters
    if s.zero or src[:k] != s.beta.letters:
        raise ValueError(f"germ undefined: {s} at {w}")
    img, residual = _act_letters(s.g, src[k:])
    shift = len(s.alpha.letters) - k
    head = s.alpha.letters + img
    n, stop = len(head), max(shift, 0)
    while n > stop and head[n - 1] == src[n - 1 - shift]:
        n -= 1
    return shift, head[:n], residual


# ---------------------------------------------------------------------------
# fixed-point spectrum and effectiveness
# ---------------------------------------------------------------------------


def strongly_fixed_spectrum(g: GElt) -> frozenset[tuple[str, int]]:
    """The ``(family, channel)`` pairs whose letters g fixes with trivial
    restriction.  The action fixes a family strongly either entirely or
    nowhere, so the set says which.

    yi[n] is strongly fixed iff zeta_i(g) = 0 and tau(g) = 1 (one condition
    for every n at once); zi[k] iff pi_i(g) = 1, since pi_i(g) k = k forces
    pi_i(g) = 1 and z-restrictions are always trivial.
    """
    fixed = {("z", ch) for ch in (1, 2) if hom_pi(ch, g).is_identity()}
    if hom_tau(g) == G_ONE:
        fixed |= {("y", ch) for ch in (1, 2) if hom_zeta(ch, g) == 0}
    return frozenset(fixed)


@dataclass(frozen=True)
class EffectivenessWitness:
    letter: Letter
    image: Letter


def effectiveness_witness(g: GElt) -> EffectivenessWitness:
    """A concrete letter moved by g, from the lowest channel that sees g.

    pi_1(g) = pi_2(g) = 1 forces g = 1, so every nontrivial g moves the
    basepoint letter z_i[1] of some channel.
    """
    if g.is_identity():
        raise ValueError("the identity moves nothing")
    x = zl(2 if hom_pi(1, g).is_identity() else 1, K_ONE)
    return EffectivenessWitness(x, act_letter(g, x))
