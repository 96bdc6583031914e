"""Batch verification, scattering tables, and expression evaluation.

Three subcommands.  ``verify`` runs the whole pipeline on one of the two
example groupoids and reports every check; ``scatter`` tabulates certified
walk-norm estimates over spheres; ``eval`` parses an expression in the
documented grammar and prints its normal form.  Reports are deterministic
given the same configuration (including the seed): keys are sorted and no
timestamps are emitted, so reruns are byte-identical.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or parse errors.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from fractions import Fraction
from typing import Optional

import click

from .bundle import (
    BSteinElt,
    B_ZERO,
    WHOLE_SET,
    barrow,
    bstein,
    bstein_conv,
    bstein_eval,
    bstein_scale,
    bstein_star,
    bundle_a,
    bundle_chi,
    bundle_chiB,
    bundle_fold,
    buset,
    buset_intersect,
    buset_union,
    ux,
    uy,
    uz,
    U_EPS,
)
from .groups import (
    F_GENS,
    FreeWord,
    GElt,
    H_GENS,
    KElt,
    K_ONE,
    W_ONE,
    _gelt,
    _kelt,
    free_word,
    hom_pi,
    hom_tau,
    sphere,
    sphere_size,
)
from .repnorm import CauchyProfile, cauchy_profile, fold_readings, rho_estimate
from .selfsim import (
    EPS,
    FinWord,
    Germ,
    S_ONE,
    _letter,
    effectiveness_witness,
    finword,
    germ_key,
    omega,
    s_apply,
    s_from_group,
    s_from_word,
    s_mul,
    strongly_fixed_spectrum,
    yl,
    zl,
)
from .steinberg import (
    REGION_B,
    SteinElt,
    h_elt,
    region_member,
    st_a,
    st_chiB,
    st_chi_cylinder,
    st_conv,
    st_evaluator,
    st_fold,
    st_open_witness,
    st_support_strata,
)
from .syntax import ParseError, parse_buset, parse_selt

SCHEMA_VERSION = 1
OUT_DIR_ENV = "STEINALG_OUT_DIR"


# ---------------------------------------------------------------------------
# seeded samplers
# ---------------------------------------------------------------------------


# Sampled values are valid by construction and built unchecked.  The draw
# contract: only ``choice``, ``randrange`` and ``random``, the same calls in
# the same order as sampling through the public constructors (no ``choices``,
# ``sample`` or private ``_randbelow``), so each seed draws the same values.
_H_ALPHABET = H_GENS + tuple(g.upper() for g in H_GENS)
_F_ALPHABET = F_GENS + tuple(g.upper() for g in F_GENS)


def _sample_free(rng: random.Random, alphabet: tuple[str, ...]) -> FreeWord:
    return free_word("".join([rng.choice(alphabet) for _ in range(rng.randrange(4))]))


def _sample_kelt(rng: random.Random) -> KElt:
    h, f = _sample_free(rng, _H_ALPHABET), _sample_free(rng, _F_ALPHABET)
    return _kelt(h, f, rng.randrange(-3, 4))


def _sample_gelt(rng: random.Random) -> GElt:
    h, f = _sample_free(rng, _H_ALPHABET), _sample_free(rng, _F_ALPHABET)
    return _gelt(h, f, rng.randrange(-3, 4), rng.randrange(-3, 4))


def _sample_letter(rng: random.Random):
    if rng.random() < 0.5:
        return _letter("y", rng.choice((1, 2)), rng.randrange(-5, 6))
    return _letter("z", rng.choice((1, 2)), _sample_kelt(rng))


def _sample_word(rng: random.Random):
    head = FinWord(tuple([_sample_letter(rng) for _ in range(rng.randrange(4))]))
    if rng.random() < 0.4:
        period = [_sample_letter(rng) for _ in range(rng.randrange(1, 3))]
        return omega(head, FinWord(tuple(period)))
    return head


def _sample_buset(rng: random.Random):
    U = buset()
    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(4)
        if kind == 0:
            U = buset_union(U, buset(zs={rng.randrange(1, 8)}))
        elif kind == 1:
            i = rng.randrange(1, 8)
            U = buset_union(U, buset(cols={i: (False, {rng.randrange(1, 8)})}))
        elif kind == 2:
            i = rng.randrange(1, 8)
            U = buset_union(U, buset(cols={i: (True, set())}))
        else:
            U = buset_union(U, buset(eps=True, zs={rng.randrange(1, 8)}))
    return U


# ---------------------------------------------------------------------------
# verify checks, self-similar example
# ---------------------------------------------------------------------------


def _check(checks: list, cid: str, ok: bool, detail: str) -> None:
    checks.append({"id": cid, "status": "pass" if ok else "fail", "detail": detail})


def _selfsim_identities(rng: random.Random, checks: list) -> None:
    a_g = GElt(f=free_word("a"))
    a, tau_a = s_from_group(a_g), s_from_group(hom_tau(a_g))
    # shifts[ch] moves the y-indices of channel ch, and of no other channel
    shifts = {1: s_from_group(GElt(n=1)), 2: s_from_group(GElt(m=1))}
    # ys[ch][i] is y_ch[i - 20], each built once; a shift's image is the next
    ys = {c: [s_from_word(finword(yl(c, n))) for n in range(-20, 22)] for c in (1, 2)}
    bad = ""
    for n in range(-20, 21):
        for ch in (1, 2):
            y = ys[ch][n + 20]
            if s_mul(S_ONE, y) != y or s_mul(y, S_ONE) != y:
                bad = bad or f"1y=y1 fails at y{ch}[{n}]"
            if s_mul(a, y) != s_mul(y, tau_a):
                bad = bad or f"ay=y(1,0) fails at y{ch}[{n}]"
            if s_mul(shifts[ch], y) != ys[ch][n + 21]:
                bad = bad or f"(1,0)y=y' fails at y{ch}[{n}]"
            if s_mul(shifts[3 - ch], y) != y:
                bad = bad or f"cross-channel shift moves y{ch}[{n}]"
    for _ in range(50):
        k = _sample_kelt(rng)
        g = _sample_gelt(rng)
        ch = rng.choice((1, 2))
        z = s_from_word(finword(zl(ch, k)))
        img = s_from_word(finword(zl(ch, hom_pi(ch, g) * k)))
        if s_mul(s_from_group(g), z) != img:
            bad = bad or f"g z[k] != z[pi(g)k] at ch {ch}, k {k}, g {g}"
    _check(
        checks,
        "semigroup-identities",
        not bad,
        bad or "1y=y1, ay=y(1,0), (1,0)y1[n]=y1[n+1] for n in [-20,20], "
        "both channels; 50 sampled g z[k] = z[pi(g)k]: all exact",
    )


def _selfsim_germ_law(rng: random.Random, checks: list) -> None:
    elems = [s_from_group(h_elt(h)) for h in sphere(1) + sphere(2)]
    words = [EPS] + [_sample_word(rng) for _ in range(20)]
    # the germ law compares germ keys, so each (element, word) key and each
    # word's membership in Y are computed once; each key becomes an int,
    # equal at one word exactly where the keys are
    ids: list = [{} for _ in words]
    keys = [
        [seen.setdefault(germ_key(s, w), len(seen)) for seen, w in zip(ids, words)]
        for s in elems
    ]
    in_b = [region_member(REGION_B, w) for w in words]
    bad = ""
    pairs = 0
    for i, (s1, k1) in enumerate(zip(elems, keys)):
        for s2, k2 in zip(elems[i + 1:], keys[i + 1:]):
            pairs += 1
            for w, key1, key2, member in zip(words, k1, k2, in_b):
                if (key1 == key2) != member:
                    bad = bad or f"germ law fails for {s1}, {s2} at {w}"
    _check(
        checks,
        "germ-collapse",
        not bad,
        bad
        or f"germ_eq(h1,h2,w) iff w starts in Y: {pairs} sphere(1)+sphere(2) "
        f"pairs x {len(words)} words",
    )


def _selfsim_support(achib: SteinElt, singular: bool, checks: list) -> None:
    strata = st_support_strata(achib)
    bad = "" if singular else "a*chiB not singular"
    if len(strata) != 8:
        bad = bad or f"support table has {len(strata)} strata, not 8"
    names = set()
    for s in strata:
        pattern, f = s.pattern, str(s.members[0].g.f)
        expect = Fraction(1) if f in ("1", "ab") else Fraction(-1)
        if s.interior or len(pattern) != 1 or pattern[0][:2] != ("gen", "y"):
            bad = bad or f"stratum of [{f}] on pattern {pattern}"
        elif s.value != expect:
            bad = bad or f"[{f},y{pattern[0][2]}] has value {s.value}, not {expect}"
        else:
            names.add((pattern[0][2], f))
    wanted = {(ch, f) for ch in (1, 2) for f in ("1", "a", "b", "ab")}
    for ch, f in sorted(wanted - names):
        bad = bad or f"no stratum [{f},y{ch}]"
    _check(
        checks,
        "support-table",
        not bad,
        bad or "a*chiB singular; support table = four-germ family "
        "[1,y],[a,y],[b,y],[ab,y] over both channels, values +1,-1,-1,+1",
    )


def _selfsim_values(
    achib_at, abn_at: dict, folded: dict, limit_rows: tuple, rng: random.Random,
    checks: list,
) -> None:
    bad = ""
    for ch in (1, 2):
        yw = finword(yl(ch, rng.randrange(-5, 6)))
        if achib_at(Germ(S_ONE, yw)) != 1:
            bad = bad or f"(a*chiB)[1, y{ch}] != 1"
        if achib_at(Germ(s_from_group(GElt(f=free_word("a"))), yw)) != -1:
            bad = bad or f"(a*chiB)[a, y{ch}] != -1"
    zw = finword(zl(1, K_ONE))
    if achib_at(Germ(S_ONE, zw)) != 0:
        bad = bad or "(a*chiB)[1, z] != 0"
    # sup|b_n - chiB| is read off the Cauchy profile's limit rows
    for row in limit_rows:
        n = row.n
        size = sphere_size(n)
        h = s_from_group(h_elt(rng.choice(sphere(n))))
        if abn_at[n](Germ(h, zw)) != Fraction(1, size):
            bad = bad or f"(a*b{n})[h, z] != 1/{size}"
        ah = s_mul(s_from_group(GElt(f=free_word("a"))), h)
        if abn_at[n](Germ(ah, zw)) != Fraction(-1, size):
            bad = bad or f"(a*b{n})[ah, z] != -1/{size}"
        if row.sup_dist != Fraction(1, size):
            bad = bad or f"sup|b{n} - chiB| != 1/{size}"
        _, dist = folded[n]
        if dist != Fraction(1, size):
            bad = bad or f"sup|a*b{n} - a*chiB| != 1/{size}"
    _check(
        checks,
        "value-table",
        not bad,
        bad or "a*chiB germ values +1/-1 on y, 0 on z; "
        "a*b_n = +-1/|H_n| on z; sup distances 1/|H_n|",
    )


def _selfsim_witness(
    achib: SteinElt, abn_at: dict, witnesses: dict, rng: random.Random, checks: list
) -> None:
    bad = ""
    if st_open_witness(achib) is not None:
        bad = "a*chiB yields an open witness"
    for n, w in witnesses.items():
        if w is None:
            bad = bad or f"no open witness for a*b{n}"
            continue
        for _ in range(10):
            k = _sample_kelt(rng)
            while k in w.excluded:
                k = _sample_kelt(rng)
            word = s_apply(s_from_word(finword(zl(w.channel, k))), _sample_word(rng))
            val = abn_at[n](Germ(s_from_group(w.group_elt), word))
            if abs(val) != w.floor or val == 0:
                bad = bad or f"witness value |{val}| != floor {w.floor} for a*b{n}"
    _check(
        checks,
        "open-witness",
        not bad,
        bad or "open witnesses for a*b_n validated at 10 sampled germs "
        "[h, z[k].w] each; none for a*chiB",
    )


def _selfsim_verdicts(
    a: SteinElt, folded: dict, witnesses: dict, rng: random.Random, checks: list
) -> None:
    bad = ""
    for n, w in witnesses.items():
        singular, _ = folded[n]
        if singular or w is None:
            bad = bad or f"a*b{n} not recognized as nonsingular with witness"
    # U ranges over neighborhoods of support points of a*chiB, which are
    # the single-letter y-cylinders; one fold gives every a*chi_U's verdict
    alphas = []
    while len(alphas) < 5:
        alpha = finword(yl(rng.choice((1, 2)), rng.randrange(-20, 21)))
        if alpha not in alphas:
            alphas.append(alpha)
    prods = [st_conv(a, st_chi_cylinder(alpha)) for alpha in alphas]
    _, singular = fold_readings(st_fold, prods, 0)
    for alpha, prod, ok in zip(alphas, prods, singular):
        if not ok or not prod.terms:
            bad = bad or f"a*chi_U not singular and nonzero at U = [{alpha}]"
    _check(
        checks,
        "singularity-verdicts",
        not bad,
        bad or "a*b_n nonsingular with open witness; a*chi_U singular and "
        "nonzero for 5 sampled compact open U inside B",
    )


def _selfsim_effectiveness(rng: random.Random, checks: list) -> None:
    bad = ""
    for _ in range(30):
        g = _sample_gelt(rng)
        while g.is_identity():
            g = _sample_gelt(rng)
        w = effectiveness_witness(g)
        if w.image == w.letter:
            bad = bad or f"witness letter not moved by {g}"
        if {("z", 1), ("z", 2)} <= strongly_fixed_spectrum(g):
            bad = bad or f"no non-cofinitely-fixed z-family for {g}"
    _check(
        checks,
        "effectiveness",
        not bad,
        bad or "30 sampled g != 1: effectiveness witness moves z[1], "
        "fixed-point spectrum reports a nowhere-fixed z-family",
    )


def _cauchy_section(profile: CauchyProfile, checks: list) -> dict:
    bad = ""
    for row in profile.rows:
        if row.lower > row.upper + 1e-12:
            bad = bad or f"lower > upper at pair ({row.n},{row.m})"
        if row.sup_dist != Fraction(1, sphere_size(min(row.n, row.m))):
            bad = bad or f"sup distance off at pair ({row.n},{row.m})"
    for row in profile.limit_rows:
        if row.sup_dist != Fraction(1, sphere_size(row.n)):
            bad = bad or f"limit sup distance off at n={row.n}"
    for row in profile.rows:
        if row.pi_triv != 0:
            bad = bad or f"pi_triv part of b{row.n}-b{row.m} nonzero"
    _check(
        checks,
        "cauchy-profile",
        not bad,
        bad or "pair rows have lower <= upper and exact sup distance "
        "1/|H_min|; limits 1/|H_n|; pi_triv part of every difference is 0",
    )
    return {
        "example": profile.example,
        "radius": profile.radius,
        "pairs": [
            {
                "n": r.n,
                "m": r.m,
                "sup_dist": str(r.sup_dist),
                "upper_bound": r.upper,
                "lower_bound": r.lower,
            }
            for r in profile.rows
        ],
        "limits": [{"n": r.n, "sup_dist": str(r.sup_dist)} for r in profile.limit_rows],
    }


# ---------------------------------------------------------------------------
# verify checks, bundle example
# ---------------------------------------------------------------------------


def _bundle_identities(rng: random.Random, checks: list) -> None:
    bad = ""
    A = bundle_a()
    if bstein_conv(A, A) != bstein_scale(A, 2):
        bad = "a*a != 2a"
    for _ in range(20):
        U, V = _sample_buset(rng), _sample_buset(rng)
        if bstein_conv(bundle_chi(U), bundle_chi(V)) != bundle_chi(buset_intersect(U, V)):
            bad = bad or f"chi_U * chi_V != chi_(U cap V) at {U}; {V}"
    # not self-adjoint, and cd is no palindrome: a star must invert and reverse
    f = bstein([(0, free_word("c"), 1, WHOLE_SET)])
    g = bstein([(1, free_word("cd"), 2, WHOLE_SET)])
    if bstein_star(bstein_conv(f, g)) != bstein_conv(bstein_star(g), bstein_star(f)):
        bad = bad or "(fg)* != g*f* at U_(0,c), 2U_(1,cd)"
    # word reversal is an antihomomorphism too; only a value pins the star
    if bstein_star(f) != bstein([(0, free_word("C"), 1, WHOLE_SET)]):
        bad = bad or "U_(0,c)* != U_(0,C)"
    _check(
        checks,
        "convolution-identities",
        not bad,
        bad or "a*a = 2a; chi_U * chi_V = chi_(U cap V) on 20 sampled "
        "compact open pairs; involution antihomomorphism",
    )


def _bundle_values(achib: BSteinElt, bn: dict, checks: list) -> None:
    x, y, z = ux(2, 3), uy(2), uz(5)
    bad = ""
    table = [
        (barrow(0, W_ONE, x), Fraction(0)),
        (barrow(0, W_ONE, y), Fraction(1)),
        (barrow(1, W_ONE, y), Fraction(-1)),
        (barrow(0, W_ONE, z), Fraction(0)),
        (barrow(1, W_ONE, z), Fraction(0)),
        (barrow(0, W_ONE, U_EPS), Fraction(0)),
    ]
    for arrow, want in table:
        if bstein_eval(achib, arrow) != want:
            bad = bad or f"(a*chiB)({arrow}) != {want}"
    for n, b in bn.items():
        size = sphere_size(n)
        h = sphere(n)[0]
        rows = [
            (barrow(0, W_ONE, x), Fraction(1)),
            (barrow(0, W_ONE, y), Fraction(1)),
            (barrow(1, W_ONE, y), Fraction(0)),
            (barrow(0, h, z), Fraction(1, size)),
            (barrow(0, h, U_EPS), Fraction(1, size)),
            (barrow(1, h, z), Fraction(0)),
        ]
        for arrow, want in rows:
            if bstein_eval(b, arrow) != want:
                bad = bad or f"b{n}({arrow}) != {want}"
    _check(
        checks,
        "value-table",
        not bad,
        bad or "a*chiB: 0 on x, +1/-1 on y, 0 on z and eps; "
        "b_n: 1 on B, 1/|H_n| on (0,h) over z and eps",
    )


def _bundle_rates(folded: dict, limit_rows: tuple, checks: list) -> None:
    bad = ""
    # sup|b_n - chiB| is read off the Cauchy profile's limit rows, and
    # sup|a*b_n - a*chiB| off the shared fold
    for row in limit_rows:
        n = row.n
        size = sphere_size(n)
        if row.sup_dist != Fraction(1, size):
            bad = bad or f"sup|b{n} - chiB| != 1/{size}"
        _, dist = folded[n]
        if dist != Fraction(1, size):
            bad = bad or f"sup|a*b{n} - a*chiB| != 1/{size}"
    _check(
        checks,
        "scattering-rate",
        not bad,
        bad or "sup|b_n - chiB| = sup|a*b_n - a*chiB| = 1/|H_n| exactly",
    )


def _bundle_verdicts(
    achib_singular: bool, folded: dict, rng: random.Random, checks: list
) -> None:
    bad = "" if achib_singular else "a*chiB not singular"
    # nonsingular means some isolated arrow holds a nonzero value: a witness
    for n, (singular, _) in folded.items():
        if singular:
            bad = bad or f"a*b{n} not nonsingular with isolated witness"
    sets = []
    for _ in range(5):
        i = rng.randrange(1, 8)
        sets.append(buset(cols={i: (rng.random() < 0.5, {rng.randrange(1, 8)})}))
    prods = [bstein_conv(bundle_a(), bundle_chi(U)) for U in sets]
    _, singular = fold_readings(bundle_fold, prods, 0)
    for U, prod, ok in zip(sets, prods, singular):
        if not ok or prod == B_ZERO:
            bad = bad or f"a*chi_U not singular and nonzero at U = {U}"
    _check(
        checks,
        "singularity-verdicts",
        not bad,
        bad or "a*chiB singular; a*b_n nonsingular with isolated arrow "
        "witness; a*chi_U singular and nonzero for 5 sampled U inside B",
    )


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _emit(text: str, out: Optional[str], default_name: str) -> None:
    path = out or os.environ.get(OUT_DIR_ENV)
    if not path:
        click.echo(text, nl=False)
        return
    # a trailing separator or the env var always means a directory
    as_dir = path is not out or path.endswith(os.sep)
    try:
        if as_dir and not os.path.isdir(path):
            os.makedirs(path, exist_ok=True)
        if os.path.isdir(path):
            path = os.path.join(path, default_name)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc}") from exc
    click.echo(f"wrote {path}", err=True)


def _report(payload: dict, checks: list, header: list, rows: list) -> None:
    """Add the sorted checks and their summary to ``payload``, render it
    in the configured format (CSV gives ``rows`` under ``header``), emit
    it, and exit with 1 if a check failed."""
    checks.sort(key=lambda c: c["id"])
    failed = sum(1 for c in checks if c["status"] == "fail")
    payload["checks"] = checks
    payload["summary"] = {
        "passed": len(checks) - failed,
        "failed": failed,
        "total": len(checks),
    }
    config = payload["config"]
    fmt = config["format"]
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "".join(",".join(map(str, row)) + "\r\n" for row in [header, *rows])
    _emit(text, config["out"], f"{payload['command']}_{config['example']}.{fmt}")
    sys.exit(1 if failed else 0)


def _config_echo(example, indices, radius, tol, seed, out, fmt) -> dict:
    return {
        "example": example,
        "indices": list(indices),
        "radius": radius,
        "tol": tol,
        "seed": seed,
        "out": out,
        "format": fmt,
    }


def _indices_cb(ctx, param, value):
    if value.strip() == "":
        return ()
    try:
        out = tuple(sorted({int(p) for p in value.split(",")}))
    except ValueError:
        raise click.BadParameter(f"not a comma list of integers: {value!r}")
    if any(n < 1 for n in out):
        raise click.BadParameter("indices must be positive")
    return out


def _radius_cb(ctx, param, value):
    if value < 1:
        raise click.BadParameter("radius must be at least 1")
    return value


def _tol_cb(ctx, param, value):
    if not (math.isfinite(value) and value > 0):
        raise click.BadParameter("tolerance must be a positive finite number")
    return value


_SHARED = [
    click.option(
        "--example",
        type=click.Choice(["selfsim", "bundle"]),
        default="selfsim",
        show_default=True,
        help="Which counterexample groupoid to run on.",
    ),
    click.option(
        "--indices",
        default="1,2",
        show_default=True,
        callback=_indices_cb,
        help="Comma list of scattering indices n (empty for identity suites only).",
    ),
    click.option(
        "--radius",
        default=6,
        show_default=True,
        callback=_radius_cb,
        help="Truncation radius for norm estimates.",
    ),
    click.option(
        "--tol",
        default=1e-6,
        show_default=True,
        callback=_tol_cb,
        help="Power-iteration tolerance.",
    ),
    click.option("--seed", default=0, show_default=True, help="Sampling seed."),
    click.option(
        "--out",
        default=None,
        help=f"Output file or directory (default: ${OUT_DIR_ENV} or stdout).",
    ),
    click.option(
        "--format",
        "fmt",
        type=click.Choice(["json", "csv"]),
        default="json",
        show_default=True,
        help="Report format.",
    ),
]


def _shared(fn):
    for opt in reversed(_SHARED):
        fn = opt(fn)
    return fn


def _show_help(ctx, param, value):
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), color=ctx.color)
        ctx.exit()


class _Command(click.Command):
    """Makes click's ``--help`` option without gettext, which imports ``locale``."""

    help_opt = None

    def get_help_option(self, ctx):
        names = self.get_help_option_names(ctx)
        if not names or not self.add_help_option:
            return None
        # one object per command: click orders eager callbacks by identity
        if self.help_opt is None:
            self.help_opt = click.Option(
                names, is_flag=True, expose_value=False, is_eager=True,
                callback=_show_help, help="Show this message and exit.")
        return self.help_opt


class _Group(_Command, click.Group):
    command_class = _Command


@click.group(cls=_Group)
def main() -> None:
    """Exact verification of two groupoid counterexamples."""


@main.command()
@_shared
def verify(example, indices, radius, tol, seed, out, fmt) -> None:
    """Run the full check pipeline and emit a report."""
    rng = random.Random(seed)
    checks: list = []
    profile = cauchy_profile(indices, example, radius, tol) if indices else None
    if example == "selfsim":
        _selfsim_identities(rng, checks)
        _selfsim_germ_law(rng, checks)
        a, chi, conv, fold = st_a(), st_chiB, st_conv, st_fold
    else:
        _bundle_identities(rng, checks)
        a, chi, conv, fold = bundle_a(), bundle_chiB, bstein_conv, bundle_fold
    if indices:
        # a*chiB and each a*b_n are built once, from the profile's b_n, and
        # one fold gives each one's verdict and sup distance to a*chiB
        achib = conv(a, chi())
        abn = {n: conv(a, b) for n, b in profile.elements.items()}
        (dists,), singular = fold_readings(fold, [achib, *abn.values()], 1)
        folded = {n: (singular[p], dists[p]) for p, n in enumerate(abn, 1)}
    if indices and example == "selfsim":
        # each a*b_n's witness and evaluator are made once
        witnesses = {n: st_open_witness(prod) for n, prod in abn.items()}
        abn_at = {n: st_evaluator(prod) for n, prod in abn.items()}
        _selfsim_support(achib, singular[0], checks)
        _selfsim_values(
            st_evaluator(achib), abn_at, folded, profile.limit_rows, rng, checks
        )
        _selfsim_witness(achib, abn_at, witnesses, rng, checks)
        _selfsim_verdicts(a, folded, witnesses, rng, checks)
        _selfsim_effectiveness(rng, checks)
    elif indices:
        _bundle_values(achib, profile.elements, checks)
        _bundle_rates(folded, profile.limit_rows, checks)
        _bundle_verdicts(singular[0], folded, rng, checks)
    cauchy = _cauchy_section(profile, checks) if indices else None
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "config": _config_echo(example, indices, radius, tol, seed, out, fmt),
        "cauchy": cauchy,
    }
    rows = []
    if cauchy is not None:
        for r in cauchy["pairs"]:
            rows.append(
                (r["n"], r["m"], r["sup_dist"],
                 f"{r['upper_bound']:.9f}", f"{r['lower_bound']:.9f}")
            )
        for r in cauchy["limits"]:
            rows.append((r["n"], "", r["sup_dist"], "", ""))
    _report(payload, checks, ["n", "m", "sup_dist", "upper_bound", "lower_bound"], rows)


@main.command()
@_shared
def scatter(example, indices, radius, tol, seed, out, fmt) -> None:
    """Tabulate certified sphere-average norm estimates.

    The walk norms belong to the free factor on c, d, which both examples
    share, and nothing is sampled: --example and --seed are only echoed
    into the report's config.
    """
    rows = []
    for n in indices:
        est = rho_estimate(n, radius=radius, tol=tol)
        rows.append(
            {
                "n": n,
                "sphere_size": sphere_size(n),
                "lower": est.lower,
                "upper": est.upper,
                "radius": est.truncation_radius,
                "iterations": est.iterations,
            }
        )
    checks: list = []
    pairs = zip(rows, rows[1:])
    flat = [(r["n"], s["n"]) for r, s in pairs if not r["upper"] > s["upper"]]
    above = [r["n"] for r in rows if not r["lower"] <= r["upper"] + 1e-12]
    _check(
        checks,
        "upper-strictly-decreasing",
        not flat,
        "upper bound at n={1} not below n={0}".format(*flat[0]) if flat
        else "analytic upper bounds strictly decrease along the index list",
    )
    _check(
        checks,
        "lower-below-upper",
        not above,
        f"lower bound above the upper at n={above[0]}" if above
        else "certified lower bounds stay below the analytic uppers",
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "scatter",
        "config": _config_echo(example, indices, radius, tol, seed, out, fmt),
        "rows": rows,
    }
    table = [
        (r["n"], r["sphere_size"], f"{r['lower']:.9f}", f"{r['upper']:.9f}")
        for r in rows
    ]
    _report(payload, checks, ["n", "sphere_size", "lower", "upper"], table)


@main.command("eval")
@click.argument("expression")
@click.option(
    "--example",
    type=click.Choice(["selfsim", "bundle"]),
    default="selfsim",
    show_default=True,
    help="selfsim parses semigroup expressions, bundle parses unit sets.",
)
def eval_cmd(expression, example) -> None:
    """Parse an expression and print its normal form."""
    try:
        if example == "selfsim":
            click.echo(str(parse_selt(expression)))
        else:
            click.echo(str(parse_buset(expression)))
    except ParseError as exc:
        click.echo(exc.diagnostic(), err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
