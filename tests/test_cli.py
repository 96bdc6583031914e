"""End-to-end tests for the command line interface."""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import steinalg
import test_acceptance

from steinalg import bundle, cli, repnorm, selfsim, steinberg
from steinalg.bundle import (
    barrow, bstein, bstein_conv, bundle_a, bundle_bn, bundle_chiB, buset, buset_union
)
from steinalg.cli import main
from steinalg.groups import FreeWord, GElt, free_word
from steinalg.repnorm import LimitRow
from steinalg.selfsim import finword, zl
from steinalg.steinberg import st_a, st_bn, st_chiB, st_conv


def run(*args, env=None):
    return CliRunner(env=env).invoke(main, args, catch_exceptions=False)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_selfsim_default_passes():
    res = run("verify")
    assert res.exit_code == 0
    report = json.loads(res.stdout)
    assert report["schema_version"] == 1
    assert report["command"] == "verify"
    assert report["summary"]["failed"] == 0
    assert report["summary"]["total"] == 8
    ids = [c["id"] for c in report["checks"]]
    assert ids == sorted(ids)
    assert "support-table" in ids
    statuses = {c["status"] for c in report["checks"]}
    assert statuses == {"pass"}


def test_verify_bundle_default_passes():
    res = run("verify", "--example", "bundle")
    assert res.exit_code == 0
    report = json.loads(res.stdout)
    assert report["summary"]["failed"] == 0
    ids = [c["id"] for c in report["checks"]]
    assert "convolution-identities" in ids
    assert "scattering-rate" in ids


def test_verify_empty_indices_runs_identity_suites_only():
    res = run("verify", "--indices", "")
    assert res.exit_code == 0
    report = json.loads(res.stdout)
    ids = [c["id"] for c in report["checks"]]
    assert ids == ["germ-collapse", "semigroup-identities"]
    assert report["cauchy"] is None


def test_verify_reports_are_byte_identical_per_seed():
    a = run("verify", "--seed", "5")
    b = run("verify", "--seed", "5")
    assert a.stdout == b.stdout
    c = run("verify", "--seed", "6")
    assert json.loads(c.stdout)["summary"]["failed"] == 0


# SHA-256 of whole reports: the refactor contract of schema_version 1
PINNED_REPORTS = {
    ("verify", "--indices", "1,2,3", "--seed", "0"):
        "77e4ea44c02794bdd208810cb243b646fedb1e27fe108b678a534a27efcf91af",
    ("verify", "--indices", "1,2,3", "--seed", "0", "--format", "csv"):
        "da251dd6781dfde8493bc920dbe47ba45f58f245aceab4740fd3217f3a46b07e",
    # depth-2 generic classes at n = 4 and a second witness-sampling seed
    ("verify", "--indices", "1,2,3,4", "--seed", "3"):
        "71a62855dc81a4f5e167e16ac2756fb53f0bd5010ecb2aa157bf97c6cddae29d",
    ("verify", "--example", "bundle", "--indices", "1,2,3", "--seed", "0"):
        "2576c92386ca84feabfbae0ccba0c9170c8ddb9c032a9aa9df81d15d49cf5fd9",
    ("scatter", "--indices", "1,2,3,4", "--radius", "6"):
        "78d6b4e4c87fa2ff07761581b067e6cadd5b736e7f6993c68562f3ede1c64331",
    # n = 3 at radius 2: a sphere wider than its ball, no interior column
    ("scatter", "--indices", "1,2,3", "--radius", "2"):
        "9b89ce7c59f9565200e8417533ec7595f7d5e4ca1f47c500d6571cca5ed1d18f",
    # the float bounds over more walks: spheres up to S_5 in a radius-8
    # ball, the bundle pairs up to b_6, and a radius-5 selfsim profile
    ("scatter", "--indices", "1,2,3,4,5", "--radius", "8"):
        "12c8367b881c925069a87f9a3abc6b79865ae43f7141482e23511b9ee110dc19",
    ("verify", "--example", "bundle", "--indices", "1,2,3,4,5,6"):
        "cea88a1719a5118335de83cb40e74f46e2dd1dc1505fe6ed15daf7464a1d3112",
    ("verify", "--indices", "1,3,5", "--radius", "5", "--seed", "2"):
        "9a6d0aa05b73978571ecc60652b0f5f24171642f4e86e4b625a1e33596c508e1",
    # pairs with m > radius, which certify nothing (every lower bound 0.0),
    # in both models, and the bundle at 1..8, where 13 of 28 pairs have m > 6
    ("verify", "--indices", "2,4,5", "--radius", "3", "--seed", "0"):
        "454e51299681c5b75b13a6084109ae24f8ab1190c8edac9b00417503f4b39c6b",
    ("verify", "--example", "bundle", "--indices", "2,4,5", "--radius", "3",
     "--seed", "0"):
        "9ddd91ff15c52c4fa01f5389b04a88bc713e8ca798556b5f54354ee9c4d5e4e8",
    ("verify", "--example", "bundle", "--indices", "1,2,3,4,5,6,7,8"):
        "4616b870c32d06d7e386c79009e0cf139585a6d935637d5ee13c447c538ffa44",
    # the selfsim-verify workload's indices, and a second bundle seed, which
    # draw other cylinders and unit sets for the a*chi_U verdicts
    ("verify", "--indices", "1,2", "--seed", "5"):
        "591a564cb741f6195ce0975f852f9d2474ff39aa9c325c4d573b8c08c343326f",
    ("verify", "--example", "bundle", "--indices", "1,2,3", "--seed", "5"):
        "add7f73c3817e1e05df56414a031bede3b2d517b5422242567815daecf350485",
}


def _report_digest(args, **env_vars) -> str:
    """SHA-256 of the report that ``args`` print in a fresh interpreter at
    one BLAS thread, with ``env_vars`` added to the environment."""
    env = {k: v for k, v in os.environ.items() if k != "STEINALG_OUT_DIR"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.update(env_vars)
    src = str(Path(steinalg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-m", "steinalg.cli", *args],
        env=env, capture_output=True, check=True,
    ).stdout
    return hashlib.sha256(out).hexdigest()


def test_report_bytes_are_pinned():
    """Each pinned report hashes to its digest, byte for byte.

    The reports run in a fresh interpreter at one BLAS thread.  The digests
    cover the norm-estimate floats (lower and upper bounds), not only the
    exact fractions and verdicts, so a numpy or BLAS change that moves a
    last digit fails this test; re-derive the digests then, until those
    floats are made deterministic (ROADMAP item 5).
    """
    got = {args: _report_digest(args) for args in PINNED_REPORTS}
    assert got == PINNED_REPORTS


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--indices", "1,2,3", "--seed", "0"),
        ("verify", "--example", "bundle", "--indices", "1,2,3", "--seed", "0"),
    ],
    ids=["selfsim", "bundle"],
)
def test_report_bytes_do_not_depend_on_the_hash_seed(args):
    # the pinned-report test inherits a random hash seed, so a report that
    # followed set or dict order of hashed words would fail it only now and
    # then; two fixed seeds make such a leak fail every time
    digests = {_report_digest(args, PYTHONHASHSEED=seed) for seed in ("0", "1")}
    assert digests == {PINNED_REPORTS[args]}


def test_samplers_draw_like_the_validating_references():
    """The CLI samplers build their values unchecked; the test samplers of
    the acceptance gate build the same values through the public
    constructors.  For every seed both return equal, equally hashed values
    and leave the generator in the same state, so every draw stays put and
    every sampled value is one the constructors accept."""
    for name in ("_sample_kelt", "_sample_gelt", "_sample_word"):
        fast, ref = getattr(cli, name), getattr(test_acceptance, name)
        for seed in range(200):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got, want = fast(rng), ref(ref_rng)
            assert got == want and hash(got) == hash(want), (name, seed)
            assert rng.getstate() == ref_rng.getstate(), (name, seed)


def test_verify_cauchy_section_contents():
    res = run("verify", "--indices", "1,2,3")
    report = json.loads(res.stdout)
    pairs = report["cauchy"]["pairs"]
    assert [(p["n"], p["m"]) for p in pairs] == [(1, 2), (1, 3), (2, 3)]
    assert pairs[0]["sup_dist"] == "1/4"
    assert pairs[2]["sup_dist"] == "1/12"
    limits = report["cauchy"]["limits"]
    assert [l["sup_dist"] for l in limits] == ["1/4", "1/12", "1/36"]
    for p in pairs:
        assert p["lower_bound"] <= p["upper_bound"] + 1e-12


def test_verify_bundle_cauchy_uses_bundle_elements(monkeypatch):
    # the trivial-character check of the bundle example reads bundle_bn:
    # neither cli nor cauchy_profile builds or subtracts a selfsim b_n
    def no_selfsim(*args):
        raise AssertionError("selfsim b_n used in the bundle example")

    # cli takes every b_n from the profile and has no st_bn to call, and
    # the profile passes b_n and b_m to the norm bound without a difference
    assert not hasattr(cli, "st_bn")
    assert not hasattr(repnorm, "st_sub")
    # positive control: the patch point is live on the selfsim path
    with monkeypatch.context() as m:
        m.setattr(repnorm, "st_bn", no_selfsim)
        with pytest.raises(AssertionError, match="selfsim b_n used"):
            run("verify", "--example", "selfsim", "--indices", "1,2")
    monkeypatch.setattr(repnorm, "st_bn", no_selfsim)
    res = run("verify", "--example", "bundle", "--indices", "1,2,3")
    assert res.exit_code == 0
    checks = json.loads(res.stdout)["checks"]
    check = next(c for c in checks if c["id"] == "cauchy-profile")
    assert check["status"] == "pass"
    assert check["detail"].endswith("pi_triv part of every difference is 0")


def test_verify_csv_emits_cauchy_table():
    res = run("verify", "--format", "csv")
    assert res.exit_code == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "n,m,sup_dist,upper_bound,lower_bound"
    assert lines[1].startswith("1,2,1/4,")
    # limit rows keep the n and sup_dist columns only
    assert lines[2].startswith("1,,1/4,")
    assert lines[3].startswith("2,,1/12,")


def _recording(monkeypatch, module, name, calls):
    """Patch ``module.name`` to add its arguments to ``calls``."""
    real = getattr(module, name)

    def recording(*args):
        calls.extend(args)
        return real(*args)

    monkeypatch.setattr(module, name, recording)


def test_verify_computes_each_limit_distance_once(monkeypatch):
    # the value table reads sup|b_n - chiB| off the Cauchy profile, which
    # reads every sup row off one shared fold and calls no pair function,
    # and cli reads sup|a*b_n - a*chiB| off the shared verdict fold
    for name in ("st_sup_dist", "bundle_sup_dist"):
        assert not hasattr(cli, name) and not hasattr(repnorm, name)
    dists, folds = [], []
    for module in (steinberg, bundle):
        name = "st_sup_dist" if module is steinberg else "bundle_sup_dist"
        _recording(monkeypatch, module, name, dists)
    for module, name in ((steinberg, "_class_sums"), (bundle, "_fiber_sums")):
        real = getattr(module, name)

        def fold(elements, arg, real=real):
            folds.append(elements)
            return real(elements, arg)

        monkeypatch.setattr(module, name, fold)
    for example, a, b, chi, conv in (
        ("selfsim", st_a(), st_bn, st_chiB(), st_conv),
        ("bundle", bundle_a(), bundle_bn, bundle_chiB(), bstein_conv),
    ):
        folds.clear()
        res = run("verify", "--example", example, "--indices", "1,2")
        assert res.exit_code == 0
        assert dists == []
        # one fold of chiB, b_1 and b_2, and one of a*chiB, a*b_1 and a*b_2
        profile = [chi, b(1), b(2)]
        products = [conv(a, f) for f in profile]
        assert [folds.count(profile), folds.count(products)] == [1, 1]


@pytest.mark.parametrize("example", ["selfsim", "bundle"])
def test_verify_reads_three_folds(monkeypatch, example):
    # the Cauchy profile reads the sups of chiB and b_1..b_3 pairwise,
    # verify reads a*chiB and every a*b_n against a*chiB only, and the
    # five sampled a*chi_U for their verdicts only
    refs = []
    real = repnorm.fold_readings

    def readings(fold, elements, k):
        refs.append(k)
        return real(fold, elements, k)

    for module in (cli, repnorm):
        monkeypatch.setattr(module, "fold_readings", readings)
    res = run("verify", "--example", example, "--indices", "1,2,3")
    assert res.exit_code == 0
    assert refs == [4, 1, 0]


def test_verify_builds_each_selfsim_product_once(monkeypatch):
    # a*chiB and each a*b_n are built once and shared by the checks
    real = cli.st_conv
    calls = []

    def counting(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(cli, "st_conv", counting)
    res = run("verify", "--indices", "1,2")
    assert res.exit_code == 0
    assert all(f == st_a() for f, _ in calls)
    rights = [g for _, g in calls]
    assert [rights.count(g) for g in (st_chiB(), st_bn(1), st_bn(2))] == [1, 1, 1]


def test_verify_folds_and_keys_each_selfsim_product_once(monkeypatch):
    # one shared fold reads every a*b_n's verdict and distance to a*chiB,
    # and one more every sampled a*chi_U's verdict; each product's witness
    # is extracted once, and each evaluated product has its terms keyed
    # once outside the folds.  No verdict comes from a one-call form.
    assert not hasattr(cli, "st_is_singular") and not hasattr(cli, "bundle_is_singular")
    achib = st_conv(st_a(), st_chiB())
    abn = [st_conv(st_a(), st_bn(n)) for n in (1, 2)]
    witnessed, verdicts, dists, keyed, units = [], [], [], [], []
    for module in (cli, steinberg):
        _recording(monkeypatch, module, "st_open_witness", witnessed)
    _recording(monkeypatch, steinberg, "st_is_singular", verdicts)
    _recording(monkeypatch, bundle, "bundle_is_singular", verdicts)
    _recording(monkeypatch, steinberg, "st_sup_dist", dists)
    _recording(monkeypatch, bundle, "stratum_units", units)
    in_fold, folds = [], []
    real_fold, real_images = steinberg._class_sums, steinberg._key_images

    def fold(elements, members):
        folds.append(elements)
        in_fold.append(True)
        try:
            return real_fold(elements, members)
        finally:
            in_fold.pop()

    def images(elts, ids):
        if not in_fold:
            keyed.append(elts)
        return real_images(elts, ids)

    monkeypatch.setattr(steinberg, "_class_sums", fold)
    monkeypatch.setattr(steinberg, "_key_images", images)
    res = run("verify", "--indices", "1,2")
    assert res.exit_code == 0
    # a*chiB, a*b_1 and a*b_2 have 4, 16 and 48 terms
    assert sorted(keyed, key=len) == [[s for s, _ in f.terms] for f in [achib, *abn]]
    assert sorted(witnessed, key=lambda f: len(f.terms)) == [achib, *abn]
    assert not any(f in abn for f in dists)
    # the profile's fold, the products', a*chiB's strata and the a*chi_U's
    assert len(folds) == 4
    # the profile's units, the products' and the a*chi_U's
    res = run("verify", "--example", "bundle", "--indices", "1,2,3")
    assert res.exit_code == 0
    assert len(units) == 3
    assert verdicts == []


def _double_floor(real):
    def doubled(f):
        w = real(f)
        return w and dataclasses.replace(w, floor=2 * w.floor)

    return doubled


def _no_interior(real):
    def exact_only(elements, members):
        denom, classes = real(elements, members)
        return denom, ((p, w, False, sums) for p, w, _, sums in classes)

    return exact_only


def _bit_blind_over_y(real):
    def blind(f, arrow):
        if arrow.unit.kind == "y":
            arrow = barrow(0, arrow.h, arrow.unit)
        return real(f, arrow)

    return blind


def _without_z(kinds):
    return tuple(k for k in kinds if k != "z")


def _key_without_restriction(real):
    return lambda s, w: real(s, w)[:2]


def _y_shift_reads_n(real):
    # acts letter by letter, as the real action does, but a y-letter of
    # either channel moves by n
    def acted(g, letters):
        imgs = ()
        for i, x in enumerate(letters):
            if g.is_identity():
                return imgs + letters[i:], g
            if x.family == "y":
                g = GElt(g.h, g.f, g.n, g.n)
            (img,), g = real(g, (x,))
            imgs += (img,)
        return imgs, g

    return acted


def _without_y2(families):
    return tuple(f for f in families if f != ("y", 2))


def _moves_nothing(real):
    return lambda g, x: x


def _nonzero_pi_triv(real):
    def profile(*args):
        prof = real(*args)
        first = dataclasses.replace(prof.rows[0], pi_triv=Fraction(1, 4))
        return dataclasses.replace(prof, rows=(first, *prof.rows[1:]))

    return profile


SELFSIM = ("verify", "--indices", "1,2")
BUNDLE = ("verify", "--example", "bundle", "--indices", "1,2")
SCATTER = ("scatter", "--indices", "1,2")

# ROADMAP item 11: each row patches a plausible defect into one check and
# asserts that the check fails while the unpatched run passes
CHECK_DEFECTS = [
    (SELFSIM, "germ-collapse", cli, "germ_key", _key_without_restriction,
     "germ law fails for (C,1,0,0), (D,1,0,0) at 1"),
    (SELFSIM, "semigroup-identities", selfsim, "_act_letters", _y_shift_reads_n,
     "(1,0)y=y' fails at y2[-20]"),
    (SELFSIM, "support-table", steinberg, "GEN_FAMILIES", _without_y2,
     "support table has 4 strata, not 8"),
    (SELFSIM, "open-witness", cli, "st_open_witness", _double_floor,
     "witness value |1/4| != floor 1/2 for a*b1"),
    (SELFSIM, "singularity-verdicts", steinberg, "_class_sums", _no_interior,
     "a*b1 not recognized as nonsingular with witness"),
    (SELFSIM, "effectiveness", selfsim, "act_letter", _moves_nothing,
     "witness letter not moved by (cD,abb,2,-1)"),
    (SELFSIM, "cauchy-profile", cli, "cauchy_profile", _nonzero_pi_triv,
     "pi_triv part of b1-b2 nonzero"),
    (BUNDLE, "value-table", cli, "bstein_eval", _bit_blind_over_y,
     "(a*chiB)((1,1;y[2])) != -1"),
    # the mutant of ROADMAP item 7: a verdict that skips the z-units
    (BUNDLE, "singularity-verdicts", bundle, "_ISOLATED", _without_z,
     "a*b1 not nonsingular with isolated witness"),
    (BUNDLE, "cauchy-profile", cli, "cauchy_profile", _nonzero_pi_triv,
     "pi_triv part of b1-b2 nonzero"),
]

# the checks that the tests named here make fail: each of them patches more
# than one attribute, fails two checks at once or runs other arguments
FAILED_ELSEWHERE = {
    (SELFSIM, "value-table"): "test_verify_value_table_fails_on_a_wrong_limit_distance",
    (BUNDLE, "scattering-rate"):
        "test_verify_scattering_rate_fails_on_a_wrong_limit_distance",
    (BUNDLE, "convolution-identities"):
        "test_verify_bundle_identities_catch_a_broken_star",
    (SCATTER, "upper-strictly-decreasing"):
        "test_scatter_fails_on_upper_bounds_that_do_not_decrease",
    (SCATTER, "lower-below-upper"):
        "test_scatter_fails_on_a_lower_bound_above_the_upper",
}


@pytest.mark.parametrize(
    "args, check, module, name, defect, detail",
    CHECK_DEFECTS,
    ids=[("bundle-" if row[0] == BUNDLE else "") + row[1] for row in CHECK_DEFECTS],
)
def test_verify_check_fails_on_its_defect(
    monkeypatch, args, check, module, name, defect, detail
):
    res = run(*args)
    assert res.exit_code == 0
    status = {c["id"]: c["status"] for c in json.loads(res.stdout)["checks"]}
    assert status[check] == "pass"
    monkeypatch.setattr(module, name, defect(getattr(module, name)))
    res = run(*args)
    assert res.exit_code == 1
    checks = {c["id"]: c for c in json.loads(res.stdout)["checks"]}
    assert checks[check]["status"] == "fail"
    assert checks[check]["detail"] == detail
    assert [c for c, v in checks.items() if v["status"] == "fail"] == [check]


def _z_cylinder(real):
    # the cylinder of a z-letter of alpha's channel: outside B, where a*chi_U
    # is open
    return lambda alpha: real(finword(zl(alpha[0].channel)))


def _with_z99(real):
    return lambda U: real(buset_union(U, buset(zs={99})))


@pytest.mark.parametrize(
    "args, name, defect, detail",
    [
        (SELFSIM, "st_chi_cylinder", _z_cylinder,
         "a*chi_U not singular and nonzero at U = [y2[-18]]"),
        (BUNDLE, "bundle_chi", _with_z99,
         "a*chi_U not singular and nonzero at U = U(y[6];{x[6,3]})"),
    ],
    ids=["selfsim", "bundle"],
)
def test_verify_verdicts_fail_on_a_nonsingular_chi_u(
    monkeypatch, args, name, defect, detail
):
    # the CHECK_DEFECTS rows of singularity-verdicts fail at a*b1; these
    # break only the a*chi_U verdicts, so each a*b_n's still passes
    test_verify_check_fails_on_its_defect(
        monkeypatch, args, "singularity-verdicts", cli, name, defect, detail
    )


def test_every_check_has_a_failing_control():
    # every check id that verify (both examples) and scatter emit is made
    # to fail by a row of CHECK_DEFECTS or by the test named for it
    rows = {(args, check) for args, check, *_ in CHECK_DEFECTS}
    assert len(rows) == len(CHECK_DEFECTS) and not rows & FAILED_ELSEWHERE.keys()
    assert all(callable(globals().get(name)) for name in FAILED_ELSEWHERE.values())
    emitted = {
        (args, c["id"])
        for args in (SELFSIM, BUNDLE, SCATTER)
        for c in json.loads(run(*args).stdout)["checks"]
    }
    assert emitted == rows | FAILED_ELSEWHERE.keys()


@pytest.mark.parametrize(
    "example, builder", [("selfsim", "st_bn"), ("bundle", "bundle_bn")]
)
def test_verify_builds_each_bn_once(monkeypatch, example, builder):
    # the Cauchy profile builds each b_n and verify takes them from it
    real = getattr(repnorm, builder)
    calls = []

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(repnorm, builder, counting)
    assert not hasattr(cli, builder)
    res = run("verify", "--example", example, "--indices", "1,2,3")
    assert res.exit_code == 0
    assert calls == [1, 2, 3]


def _doctor_profile(monkeypatch, edit):
    """Make ``verify`` see ``edit`` of the Cauchy profile it computes."""
    real = cli.cauchy_profile
    monkeypatch.setattr(cli, "cauchy_profile", lambda *args: edit(real(*args)))


def _double_limit_2(prof):
    rows = tuple(
        LimitRow(r.n, 2 * r.sup_dist) if r.n == 2 else r for r in prof.limit_rows
    )
    return dataclasses.replace(prof, limit_rows=rows)


def test_verify_value_table_fails_on_a_wrong_limit_distance(monkeypatch):
    _doctor_profile(monkeypatch, _double_limit_2)
    res = run("verify", "--indices", "1,2")
    assert res.exit_code == 1
    checks = {c["id"]: c for c in json.loads(res.stdout)["checks"]}
    assert checks["value-table"]["status"] == "fail"
    assert checks["value-table"]["detail"] == "sup|b2 - chiB| != 1/12"
    assert checks["cauchy-profile"]["status"] == "fail"


def test_verify_scattering_rate_fails_on_a_wrong_limit_distance(monkeypatch):
    _doctor_profile(monkeypatch, _double_limit_2)
    res = run("verify", "--example", "bundle", "--indices", "1,2")
    assert res.exit_code == 1
    checks = {c["id"]: c for c in json.loads(res.stdout)["checks"]}
    assert checks["scattering-rate"]["status"] == "fail"
    assert checks["scattering-rate"]["detail"] == "sup|b2 - chiB| != 1/12"
    assert checks["cauchy-profile"]["status"] == "fail"


def test_verify_builds_each_bundle_product_once(monkeypatch):
    # a*chiB and each a*b_n are built once and shared by the checks; the
    # identity suite's own products (a*a, chi_U * chi_V and a fixed pair
    # for the involution) are not counted
    real = cli.bstein_conv
    real_identities = cli._bundle_identities
    calls = []

    def counting(f, g):
        calls.append((f, g))
        return real(f, g)

    def identities(rng, checks):
        real_identities(rng, checks)
        calls.clear()

    monkeypatch.setattr(cli, "bstein_conv", counting)
    monkeypatch.setattr(cli, "_bundle_identities", identities)
    res = run("verify", "--example", "bundle", "--indices", "1,2")
    assert res.exit_code == 0
    assert all(f == bundle_a() for f, _ in calls)
    rights = [g for _, g in calls]
    wanted = (bundle_chiB(), bundle_bn(1), bundle_bn(2))
    assert [rights.count(g) for g in wanted] == [1, 1, 1]


def test_verify_bundle_merge_hashes_each_key_once(monkeypatch):
    # bstein merges (bit, h, region) keys with one dict operation per term:
    # each term's word and region are hashed at most once from bstein
    merge = bundle.bstein.__code__
    hashes = {FreeWord: 0, bundle.BUnitSet: 0}
    terms = []

    def counted(cls):
        real = cls.__hash__

        def __hash__(self):
            hashes[cls] += sys._getframe(1).f_code is merge
            return real(self)

        return __hash__

    real = bundle.bstein

    def counting(ts, *flag):
        ts = list(ts)
        terms.extend(ts)
        return real(ts, *flag)

    for cls in hashes:
        monkeypatch.setattr(cls, "__hash__", counted(cls))
    for module in (bundle, cli):
        monkeypatch.setattr(module, "bstein", counting)
    res = run("verify", "--example", "bundle", "--indices", "1,2,3")
    assert res.exit_code == 0
    merged = sum(1 for *_, region in terms if not region.is_empty())
    assert all(0 < count <= merged for count in hashes.values())


def _letters_inverted(f):
    # inverts every letter but keeps their order: cd -> CD, not DC
    terms = [(b, free_word(h.chars.swapcase()), c, U) for b, h, c, U in f.terms]
    return bstein(terms, f.flag)


def _reversed(f):
    # reverses every word but keeps its letters: cd -> dc, not DC; this is
    # an antihomomorphism, so only a single star value tells it apart
    terms = [(b, free_word(h.chars[::-1]), c, U) for b, h, c, U in f.terms]
    return bstein(terms, f.flag)


@pytest.mark.parametrize(
    "star, detail",
    [
        (lambda f: f, "(fg)* != g*f* at U_(0,c), 2U_(1,cd)"),
        (_letters_inverted, "(fg)* != g*f* at U_(0,c), 2U_(1,cd)"),
        (_reversed, "U_(0,c)* != U_(0,C)"),
    ],
    ids=["identity", "letters-inverted", "reversed"],
)
def test_verify_bundle_identities_catch_a_broken_star(monkeypatch, star, detail):
    monkeypatch.setattr(cli, "bstein_star", star)
    res = run("verify", "--example", "bundle", "--indices", "")
    assert res.exit_code == 1
    report = json.loads(res.stdout)
    check = next(c for c in report["checks"] if c["id"] == "convolution-identities")
    assert check["status"] == "fail"
    assert check["detail"] == detail


# ---------------------------------------------------------------------------
# scatter
# ---------------------------------------------------------------------------


def test_scatter_table_matches_closed_form_uppers():
    res = run("scatter", "--indices", "2,4,6")
    assert res.exit_code == 0
    report = json.loads(res.stdout)
    rows = report["rows"]
    assert [r["n"] for r in rows] == [2, 4, 6]
    assert [r["sphere_size"] for r in rows] == [12, 108, 972]
    assert abs(rows[0]["upper"] - 0.866025404) < 1e-8
    assert abs(rows[1]["upper"] - 0.481125224) < 1e-8
    assert abs(rows[2]["upper"] - 0.224525105) < 1e-8
    for r in rows:
        assert 0 <= r["lower"] <= r["upper"] + 1e-12


def test_scatter_csv_and_empty_index_list():
    res = run("scatter", "--indices", "2,4", "--format", "csv")
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "n,sphere_size,lower,upper"
    assert len(lines) == 3
    empty = run("scatter", "--indices", "")
    assert empty.exit_code == 0
    assert json.loads(empty.stdout)["rows"] == []


def test_scatter_sphere_one_has_four_elements():
    res = run("scatter", "--indices", "1", "--radius", "4")
    row = json.loads(res.stdout)["rows"][0]
    assert row["sphere_size"] == 4
    assert row["upper"] == 1.0


def test_scatter_fails_on_a_lower_bound_above_the_upper(monkeypatch):
    # an inconsistent certificate must reach the report, not be clamped away
    monkeypatch.setattr(repnorm, "_radial_sphere1_sigma", lambda *args: (1.25, 1))
    res = run("scatter", "--indices", "1")
    assert res.exit_code == 1
    report = json.loads(res.stdout)
    assert report["rows"][0]["lower"] == 1.25
    checks = {c["id"]: c for c in report["checks"]}
    assert checks["lower-below-upper"]["status"] == "fail"
    assert checks["lower-below-upper"]["detail"] == "lower bound above the upper at n=1"


def test_scatter_fails_on_upper_bounds_that_do_not_decrease(monkeypatch):
    # the same run passes with Haagerup's bounds and fails when they are flat
    res = run("scatter", "--indices", "1,2", "--radius", "3")
    assert res.exit_code == 0
    status = {c["id"]: c["status"] for c in json.loads(res.stdout)["checks"]}
    assert status["upper-strictly-decreasing"] == "pass"
    monkeypatch.setattr(repnorm, "haagerup_bound", lambda n: 1.0)
    res = run("scatter", "--indices", "1,2", "--radius", "3")
    assert res.exit_code == 1
    report = json.loads(res.stdout)
    assert [r["upper"] for r in report["rows"]] == [1.0, 1.0]
    checks = {c["id"]: c for c in report["checks"]}
    assert checks["upper-strictly-decreasing"]["status"] == "fail"
    assert checks["upper-strictly-decreasing"]["detail"] == (
        "upper bound at n=2 not below n=1"
    )
    assert checks["lower-below-upper"]["status"] == "pass"


def test_scatter_sorts_and_deduplicates_the_index_list():
    # the rows follow the index set, not the order it was typed in
    want = run("scatter", "--indices", "1,2", "--radius", "3")
    assert want.exit_code == 0
    for typed in ("2,1", "1,2,2"):
        res = run("scatter", "--indices", typed, "--radius", "3")
        assert res.exit_code == 0
        assert res.stdout == want.stdout


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_normal_forms():
    assert run("eval", "a * y1[0]").stdout.strip() == "y1[0] ^ (1,1,1,0)"
    assert run("eval", "x1[(1,1,0)]* . y1[0]").stdout.strip() == "0"
    assert run("eval", "1").stdout.strip() == "1"


def test_eval_bundle_unit_sets():
    res = run("eval", "U(y[3];{x[3,1]}) u z[9]", "--example", "bundle")
    assert res.stdout.strip() == "z[9] u U(y[3];{x[3,1]})"


def test_eval_parse_error_exits_2_with_position():
    res = run("eval", "y1[0] ^^")
    assert res.exit_code == 2
    assert "position 7" in res.stderr
    assert "^" in res.stderr.splitlines()[-1]


@pytest.mark.parametrize(
    "example, atom", [("selfsim", "1"), ("bundle", "z[1]")]
)
def test_eval_deep_nesting(example, atom):
    # a nesting deeper than the parser's stack is a parse error, exit 2;
    # a shallower one reads as the bare atom
    deep = run("eval", "(" * 2000 + atom + ")" * 2000, "--example", example)
    assert deep.exit_code == 2
    assert "expression nested too deeply at position" in deep.stderr
    assert "^" in deep.stderr.splitlines()[-1]
    shallow = run("eval", "(" * 300 + atom + ")" * 300, "--example", example)
    assert shallow.exit_code == 0
    assert shallow.stdout == run("eval", atom, "--example", example).stdout


# ---------------------------------------------------------------------------
# usage errors and output routing
# ---------------------------------------------------------------------------


def test_bad_flags_exit_2():
    assert run("verify", "--indices", "1,x").exit_code == 2
    assert run("verify", "--radius", "0").exit_code == 2
    assert run("verify", "--tol", "0").exit_code == 2
    assert run("verify", "--example", "nope").exit_code == 2


def test_non_finite_tol_exits_2():
    # a NaN or infinite tolerance would reach the report as a non-JSON token
    for command in ("verify", "scatter"):
        for value in ("nan", "inf"):
            res = run(command, "--indices", "1,2", "--tol", value)
            assert res.exit_code == 2
            assert "positive finite" in res.output


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    res = run("verify", "--indices", "", "--out", str(target))
    assert res.exit_code == 0
    report = json.loads(target.read_text())
    assert report["summary"]["failed"] == 0


def test_out_dir_and_env_var_default_name(tmp_path):
    res = run("verify", "--indices", "", "--out", str(tmp_path))
    assert res.exit_code == 0
    assert (tmp_path / "verify_selfsim.json").exists()
    envdir = tmp_path / "envout"
    res = run(
        "scatter", "--indices", "", env={"STEINALG_OUT_DIR": str(envdir)}
    )
    assert res.exit_code == 0
    assert (envdir / "scatter_selfsim.json").exists()


def test_out_trailing_sep_creates_dir_and_bad_path_is_usage_error(tmp_path):
    target = str(tmp_path / "fresh") + os.sep
    res = run("scatter", "--indices", "", "--out", target)
    assert res.exit_code == 0
    assert (tmp_path / "fresh" / "scatter_selfsim.json").exists()
    res = run("verify", "--indices", "", "--out", str(tmp_path / "a" / "b.json"))
    assert res.exit_code == 2
    assert "cannot write" in res.stderr
