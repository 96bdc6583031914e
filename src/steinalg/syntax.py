"""Text syntax for the CLI: parsing of algebra values.

Expression grammar over the self-similar semigroup (whitespace ignored):

    expr    := item (sep? item)*          products, left to right
    sep     := '^' | '*' | '.'
    item    := atom '*'*                  postfix stars invert
    atom    := letter | tuple | word | '1' | '0' | '(' expr ')'
    letter  := fam chan '[' index ']'     fam in {y, z, x}, chan in {1, 2}
    index   := int | ktuple               z-letters take K-element indices
    tuple   := '(' word ',' word ',' int ',' int ')'   group element
             | '(' int ',' int ')'                     shorthand (1,1,n,m)
    ktuple  := '(' word ',' word ',' int ')'           K-element
    word    := '1' | word chars, '*' optional separator, capitals invert

Every value prints back into this grammar: `y1[0] ^ (c,1,0,0) ^ y1[0]*`
multiplies out to the triple it denotes.  A star directly followed by
another atom is the infix product (`s* t` is s t); use a separator to
keep it postfix (`s* . t` is s^{-1} t).  The family letter x is accepted
as an alias for z (both channels), since its indices are K-elements.
A bare word is the group element it spells; the two free factors commute,
so `cda` means (cd, a, 0, 0).

Unit-set grammar for the group bundle:

    bexpr   := bterm ('u' bterm)*         union
    bterm   := bfactor ('&' bfactor)*     intersection
    bfactor := patch | '(' bexpr ')'
    patch   := '{}' | unit | 'U(' unit (';' '{' rem (',' rem)* '}')? ')'
    unit    := 'x[' i ',' j ']' | 'y[' i ']' | 'z[' k ']' | 'eps'
    rem     := 'z[' k ']' | 'x[' i ',' j ']' | 'col[' i ']'

A bare x- or z-unit is its singleton; y-units and eps are limits, so they
only occur closed up: U(y[3];{x[3,1]}) is the column at 3 without x[3,1],
U(eps) is the whole unit space, and removals take out isolated points or
whole columns (col[i]).  Unit sets print back into this grammar too:
str(parse_buset(text)) is the canonical form of text.
"""

from __future__ import annotations

from typing import Optional, Union

from .bundle import (
    BUnit,
    BUnitSet,
    EMPTY_SET,
    U_EPS,
    buset,
    buset_intersect,
    buset_union,
    ux,
    uy,
    uz,
)
from .groups import FreeWord, GElt, KElt, free_word
from .selfsim import FinWord, Letter, SElt, S_ONE, S_ZERO


class ParseError(ValueError):
    """Syntax error with the offending position."""

    def __init__(self, text: str, pos: int, message: str) -> None:
        self.text = text
        self.pos = pos
        super().__init__(f"{message} at position {pos}")

    def diagnostic(self) -> str:
        return f"{self.args[0]}\n  {self.text}\n  {' ' * self.pos}^"


class _Cursor:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: Optional[int] = None) -> ParseError:
        return ParseError(self.text, self.pos if pos is None else pos, message)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def at_end(self) -> bool:
        return self.peek() == ""


# ---------------------------------------------------------------------------
# scalar pieces: integers, free words, group tuples
# ---------------------------------------------------------------------------


def _parse_int(cur: _Cursor) -> int:
    start = cur.pos
    ch = cur.peek()
    if ch in "+-":
        cur.eat()
    digits = ""
    while cur.pos < len(cur.text) and cur.text[cur.pos].isdigit():
        digits += cur.text[cur.pos]
        cur.pos += 1
    if not digits:
        raise cur.error("expected an integer", start)
    return int(cur.text[start:cur.pos].replace(" ", ""))


_WORD_CHARS = set("abcdABCD")


def _parse_free(cur: _Cursor) -> FreeWord:
    start = cur.pos
    chars = ""
    while True:
        ch = cur.peek()
        if ch == "1" and not chars:
            cur.eat()
            return free_word("")
        if ch == "*" and chars:  # optional separator inside a word
            nxt = cur.text[cur.pos + 1: cur.pos + 2]
            if nxt not in _WORD_CHARS:
                break
            cur.eat()
            continue
        if ch in _WORD_CHARS:
            chars += cur.eat()
            continue
        break
    if not chars:
        raise cur.error("expected a word over a, b, c, d (or 1)", start)
    return free_word(chars)


def _parse_group_tuple(cur: _Cursor) -> Union[GElt, KElt]:
    """A parenthesized tuple: (h,f,n,m), the shorthand (n,m), or a
    K-element (h,f,n).  The cursor sits on '('.

    A bare 1 is the identity in word position and the integer elsewhere;
    the arity of the tuple decides which positions are which.
    """
    start = cur.pos
    cur.expect("(")
    comps = []
    while True:
        pos = cur.pos
        ch = cur.peek()
        if ch and (ch in "+-" or ch.isdigit()):
            comps.append(("int", _parse_int(cur), pos))
        else:
            comps.append(("word", _parse_free(cur), pos))
        if cur.peek() == ")":
            cur.eat()
            break
        cur.expect(",")
        if len(comps) >= 4:
            raise cur.error("tuples have at most 4 components", start)

    def as_int(comp):
        kind, val, pos = comp
        if kind != "int":
            raise cur.error("expected an integer component", pos)
        return val

    def as_word(comp):
        kind, val, pos = comp
        if kind == "word":
            return val
        if val == 1:
            return free_word("")
        raise cur.error("expected a word component", pos)

    try:
        if len(comps) == 2:
            return GElt(n=as_int(comps[0]), m=as_int(comps[1]))
        if len(comps) == 3:
            return KElt(as_word(comps[0]), as_word(comps[1]), as_int(comps[2]))
        if len(comps) == 4:
            return GElt(
                as_word(comps[0]),
                as_word(comps[1]),
                as_int(comps[2]),
                as_int(comps[3]),
            )
    except ParseError:
        raise
    except ValueError as exc:
        raise cur.error(str(exc))  # syntactically fine, bad alphabet
    raise cur.error("tuples have 2, 3 or 4 components", start)


# ---------------------------------------------------------------------------
# letters
# ---------------------------------------------------------------------------


def _parse_letter(cur: _Cursor) -> Letter:
    start = cur.pos
    fam = cur.eat()
    if fam not in "yzx":
        raise cur.error("expected a letter family y, z or x", start)
    ch = cur.eat()
    if ch not in "12":
        raise cur.error("letter channel must be 1 or 2", start)
    channel = int(ch)
    cur.expect("[")
    if fam == "y":
        index: Union[int, KElt] = _parse_int(cur)
        out = Letter("y", channel, index)
    else:
        # x is the alias spelling of the z-family
        if cur.peek() == "(":
            val = _parse_group_tuple(cur)
            if not isinstance(val, KElt):
                raise cur.error("z-letter indices are K-elements", start)
            out = Letter("z", channel, val)
        else:
            out = Letter("z", channel, KElt(n=_parse_int(cur)))
    cur.expect("]")
    return out


# ---------------------------------------------------------------------------
# S-element expressions
# ---------------------------------------------------------------------------


def _parse_s_atom(cur: _Cursor) -> SElt:
    ch = cur.peek()
    if ch == "":
        raise cur.error("expected an expression")
    if ch == "1":
        cur.eat()
        return S_ONE
    if ch == "0":
        cur.eat()
        return S_ZERO
    if ch in "yzx":
        return SElt(alpha=FinWord((_parse_letter(cur),)))
    if ch in _WORD_CHARS:
        # bare group word; the two free factors commute, so a mixed word
        # projects componentwise
        w = _parse_free(cur)
        hs = "".join(c for c in w.chars if c in "cdCD")
        fs = "".join(c for c in w.chars if c in "abAB")
        return SElt(g=GElt(free_word(hs), free_word(fs)))
    if ch == "(":
        save = cur.pos
        try:
            val = _parse_group_tuple(cur)
        except ParseError as tuple_err:
            cur.pos = save
            cur.eat()
            try:
                inner = _parse_s_expr(cur)
                cur.expect(")")
            except ParseError as expr_err:
                # report whichever reading got further
                raise tuple_err if tuple_err.pos >= expr_err.pos else expr_err
            return inner
        if isinstance(val, KElt):
            raise cur.error("a K-element is not an algebra element", save)
        return SElt(g=val)
    raise cur.error(f"unexpected {ch!r}")


_ATOM_START = "yzx01(abcdABCD"


def _parse_s_item(cur: _Cursor) -> SElt:
    out = _parse_s_atom(cur)
    while cur.peek() == "*":
        save = cur.pos
        cur.eat()
        nxt = cur.peek()
        if nxt and nxt in _ATOM_START:  # infix product, not an involution
            cur.pos = save
            break
        out = out.inv()
    return out


def _parse_s_expr(cur: _Cursor) -> SElt:
    out = _parse_s_item(cur)
    while True:
        ch = cur.peek()
        if ch and ch in "^*.":
            cur.eat()
            out = out * _parse_s_item(cur)
        elif ch and ch in _ATOM_START:
            out = out * _parse_s_item(cur)
        else:
            return out


def _parse_whole(text: str, parse):
    """``parse`` of all of ``text``.  The parsers recurse once per
    bracket, so a nesting deeper than Python's stack is a ``ParseError``
    at the cursor, like any other input the grammar does not take."""
    cur = _Cursor(text)
    try:
        out = parse(cur)
    except RecursionError:
        raise cur.error("expression nested too deeply") from None
    if not cur.at_end():
        raise cur.error("trailing input")
    return out


def parse_selt(text: str) -> SElt:
    return _parse_whole(text, _parse_s_expr)


# ---------------------------------------------------------------------------
# bundle units and set expressions
# ---------------------------------------------------------------------------


def _parse_bunit(cur: _Cursor) -> BUnit:
    start = cur.pos
    kind = ""
    while cur.peek().isalpha():
        kind += cur.eat()
    if kind == "eps":
        return U_EPS
    if kind not in ("x", "y", "z"):
        raise cur.error("expected a unit x[i,j], y[i], z[k] or eps", start)
    cur.expect("[")
    i = _parse_int(cur)
    if kind == "x":
        cur.expect(",")
        j = _parse_int(cur)
        cur.expect("]")
        return ux(i, j)
    cur.expect("]")
    return uy(i) if kind == "y" else uz(i)


def _patch_from_unit(u: BUnit, cur: _Cursor, start: int) -> BUnitSet:
    if u.kind == "x":
        return buset(cols={u.i: (False, {u.j})})
    if u.kind == "z":
        return buset(zs={u.i})
    raise cur.error("y and eps units are limits; close them up with U(...)", start)


def _parse_bpatch(cur: _Cursor) -> BUnitSet:
    start = cur.pos
    if cur.peek() == "{":
        cur.eat()
        cur.expect("}")
        return EMPTY_SET
    if cur.peek() == "U" and cur.text[cur.pos + 1: cur.pos + 2] == "(":
        cur.eat()
        cur.eat()
        anchor = _parse_bunit(cur)
        removals: list[tuple[str, tuple]] = []
        if cur.peek() == ";":
            cur.eat()
            cur.expect("{")
            while True:
                rstart = cur.pos
                kind = ""
                while cur.peek().isalpha():
                    kind += cur.eat()
                if kind not in ("z", "x", "col"):
                    raise cur.error("removals are z[k], x[i,j] or col[i]", rstart)
                cur.expect("[")
                a = _parse_int(cur)
                if kind == "x":
                    cur.expect(",")
                    removals.append(("x", (a, _parse_int(cur))))
                else:
                    removals.append((kind, (a,)))
                cur.expect("]")
                if cur.peek() != ",":
                    break
                cur.eat()
            cur.expect("}")
        cur.expect(")")
        return _closed_patch(anchor, removals, cur, start)
    return _patch_from_unit(_parse_bunit(cur), cur, start)


def _closed_patch(anchor: BUnit, removals, cur: _Cursor, start: int) -> BUnitSet:
    if anchor.kind in ("x", "z"):
        if removals:
            raise cur.error("isolated units take no removals", start)
        return _patch_from_unit(anchor, cur, start)
    if anchor.kind == "y":
        js = set()
        for kind, args in removals:
            if kind != "x" or args[0] != anchor.i:
                raise cur.error(
                    f"column removals must be x[{anchor.i},j]", start
                )
            js.add(args[1])
        return buset(cols={anchor.i: (True, js)})
    zs = set()
    cols: dict[int, tuple[bool, set]] = {}
    for kind, args in removals:
        if kind == "z":
            zs.add(args[0])
        elif kind == "col":
            if args[0] in cols:
                raise cur.error(
                    f"column {args[0]} removed and adjusted at once", start
                )
            cols[args[0]] = (False, set())
        else:
            i, j = args
            if i in cols and not cols[i][0]:
                raise cur.error(f"column {i} removed and adjusted at once", start)
            cols.setdefault(i, (True, set()))[1].add(j)
    return buset(eps=True, zs=zs, cols=cols)


def _parse_bfactor(cur: _Cursor) -> BUnitSet:
    if cur.peek() == "(":
        cur.eat()
        out = _parse_bexpr(cur)
        cur.expect(")")
        return out
    return _parse_bpatch(cur)


def _parse_bterm(cur: _Cursor) -> BUnitSet:
    out = _parse_bfactor(cur)
    while cur.peek() == "&":
        cur.eat()
        out = buset_intersect(out, _parse_bfactor(cur))
    return out


def _parse_bexpr(cur: _Cursor) -> BUnitSet:
    out = _parse_bterm(cur)
    while cur.peek() == "u":  # lowercase u is the union operator
        cur.eat()
        out = buset_union(out, _parse_bterm(cur))
    return out


def parse_buset(text: str) -> BUnitSet:
    return _parse_whole(text, _parse_bexpr)


