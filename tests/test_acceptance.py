"""Acceptance gate: one printed line per criterion.

Every criterion recomputes what it needs from first principles (closed
forms on one side, exhaustive generation on the other) and prints
``ACCEPTANCE <k> <name>: PASS`` or ``FAIL`` before asserting, so a bare
run of this file reads as a checklist.
"""
import functools
import itertools
import time
from collections import Counter

from fpaths.counting import a_joint, a_marginal, a_total, f_refined
from fpaths.families import FAMILIES, TAGS
from fpaths.fpath_core import (
    fpath_decompose,
    fpath_stats,
    gen_fpaths,
    involution_phi_F,
)
from fpaths.inversion_seqs import dsum_I, dsum_J
from fpaths.verify_harness import PINNED_IMAGES, PINNED_Q, SEQUENCE

GEN: dict[tuple[str, int], tuple] = {}


def objects(tag: str, n: int):
    key = (tag, n)
    if key not in GEN:
        GEN[key] = FAMILIES[tag].generate(n)
    return GEN[key]


def _report(k: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {k} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {k} {name}: {detail}"


# ---------------------------------------------------------------- criteria


def test_criterion_1_equinumerosity():
    t0 = time.monotonic()
    ok = True
    detail = ""
    for n in range(7):
        for tag in TAGS:
            got = len(objects(tag, n))
            if got != SEQUENCE[n]:
                ok = False
                detail = f"{tag} n={n}: {got} != {SEQUENCE[n]}"
    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        ok, detail = False, f"took {elapsed:.1f}s"
    _report(1, "equinumerosity n<=6 within 60s", ok, detail)


def test_criterion_2_cli_tables():
    import contextlib
    import io

    from fpaths.cli import cmd_dispatch

    want = {
        "h": ["1", "1 1", "2 3 1", "5 9 6 1", "13 30 26 10 1",
              "36 100 110 60 15 1"],
        "l": ["1", "1 1", "1 4 1", "1 9 10 1", "1 16 42 20 1",
              "1 25 120 140 35 1"],
    }
    ok = True
    for which, rows in want.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cmd_dispatch(["table", "--which", which])
        if code != 0 or out.getvalue().splitlines() != rows:
            ok = False
    _report(2, "statistic triangles via the CLI", ok)


def test_criterion_3_round_trips():
    ok = True
    detail = ""
    for n in range(7):
        qs = objects("fpath", n)
        for tag in TAGS:
            fam = FAMILIES[tag]
            for obj in objects(tag, n):
                if fam.from_fpath(fam.to_fpath(obj)) != obj:
                    ok, detail = False, f"{tag} n={n}: psi*phi != id"
            for q in qs:
                if fam.to_fpath(fam.from_fpath(q)) != q:
                    ok, detail = False, f"{tag} n={n}: phi*psi != id"
    _report(3, "round trips in both directions n<=6", ok, detail)


def test_criterion_4_joint_distribution():
    ok = True
    detail = ""
    for n in range(7):
        for tag in TAGS:
            fam = FAMILIES[tag]
            found = Counter(tuple(fam.stats(o)) for o in objects(tag, n))
            closed = {}
            for h in range(n + 1):
                for l in range(n + 1):
                    for a1 in range(n + 1):
                        v = a_joint(n, h=a1, l=l, m=h)
                        if v:
                            closed[(h, l, a1)] = v
            if found != closed:
                ok, detail = False, f"{tag} n={n}"
    _report(4, "joint (h,l,a1) distribution matches the closed form", ok,
            detail)


def test_criterion_5_refined_counts():
    ok = True
    detail = ""
    for n in range(9):
        brute = Counter()
        for q in gen_fpaths(n):
            i = j = k = l = 0
            h = 0
            for a, b in q:
                h += b - a
                if (a, b) == (0, 1):
                    l += 1
                elif a == 1 and b == 1:
                    i += 1
                elif a == 1:
                    j += 1
                elif b == 1:
                    k += 1
            brute[(i, j, k, l, h)] += 1
        for i, j, k, l in itertools.product(range(n + 1), repeat=4):
            if i + j + k + l > n:
                continue
            for m in range(n + 1):
                want = brute.get((i, j, k, l, m), 0)
                got = f_refined(n, i, j, k, l, m)
                if got != want:
                    ok = False
                    detail = f"n={n} ({i},{j},{k},{l};{m}): {got} != {want}"
    _report(5, "refined step-class counts n<=8, zeros included", ok, detail)


def test_criterion_6_marginals():
    ok = True
    detail = ""
    rng = range(13)
    for n in rng:
        joint = {
            (h, l, m): a_joint(n, h=h, l=l, m=m)
            for h in range(n + 1)
            for l in range(n + 1)
            for m in range(n + 1)
        }

        def total(fix):
            return sum(
                v for (h, l, m), v in joint.items()
                if all(val is None or val == (h, l, m)[idx]
                       for idx, val in enumerate(fix))
            )

        for h in range(n + 1):
            for l in range(n + 1):
                if a_marginal(n, h=h, l=l) != total((h, l, None)):
                    ok, detail = False, f"hl n={n}"
            for m in range(n + 1):
                if a_marginal(n, h=h, m=m) != total((h, None, m)):
                    ok, detail = False, f"hm n={n}"
        for l in range(n + 1):
            for m in range(n + 1):
                if a_marginal(n, l=l, m=m) != total((None, l, m)):
                    ok, detail = False, f"lm n={n}"
        for h in range(n + 1):
            if a_marginal(n, h=h) != total((h, None, None)):
                ok, detail = False, f"h n={n}"
        for l in range(n + 1):
            if a_marginal(n, l=l) != total((None, l, None)):
                ok, detail = False, f"l n={n}"
        for m in range(n + 1):
            if a_marginal(n, m=m) != total((None, None, m)):
                ok, detail = False, f"m n={n}"
        if a_marginal(n) != total((None, None, None)) or \
                a_marginal(n) != a_total(n):
            ok, detail = False, f"total n={n}"
        # structural corners
        if a_marginal(n, l=0) != 1 or a_joint(n, h=0, l=n, m=n) != 1:
            ok, detail = False, f"corner n={n}"
        for m in range(n + 1):
            if a_marginal(n, l=n, m=m) != (1 if m == n else 0):
                ok, detail = False, f"corner lm n={n}"
    _report(6, "all seven marginal formulas n<=12", ok, detail)


def test_criterion_7_pinned_images():
    ok = True
    detail = ""
    for tag, text in PINNED_IMAGES.items():
        fam = FAMILIES[tag]
        obj = fam.parse(text)
        if fam.to_fpath(obj) != PINNED_Q:
            ok, detail = False, f"{tag}: phi mismatch"
        if fam.from_fpath(PINNED_Q) != obj:
            ok, detail = False, f"{tag}: psi mismatch"
        if fam.render(obj) != text:
            ok, detail = False, f"{tag}: render not bit-exact"
    _report(7, "pinned fifteen-step worked example in all six families",
            ok, detail)


def test_criterion_8_direct_sums():
    ok = True
    detail = ""
    for n in range(6):
        for q in objects("fpath", n):
            comps = fpath_decompose(q)
            for tag in TAGS:
                fam = FAMILIES[tag]
                folded = functools.reduce(
                    fam.direct_sum, [fam.from_fpath(r) for r in comps]
                )
                if folded != fam.from_fpath(q):
                    ok, detail = False, f"{tag} n={n}"
    chain_i = ((0,), (0,), (0, 0, 0, 3, 0, 0), (0,), (0, 0, 1, 3, 4, 3, 3))
    chain_j = ((0,), (0,), (0, 1, 1, 1, 0, 0), (0,), (0, 1, 0, 0, 4, 4, 5))
    pin_i = tuple(int(v) for v in PINNED_IMAGES["inv-i"].split(","))
    pin_j = tuple(int(v) for v in PINNED_IMAGES["inv-j"].split(","))
    if functools.reduce(dsum_I, chain_i) != pin_i or \
            FAMILIES["inv-i"].decompose(pin_i) != list(chain_i):
        ok, detail = False, "pinned chain I"
    if functools.reduce(dsum_J, chain_j) != pin_j or \
            FAMILIES["inv-j"].decompose(pin_j) != list(chain_j):
        ok, detail = False, "pinned chain J"
    _report(8, "direct sums transport along every bijection n<=5", ok,
            detail)


def test_criterion_9_involution():
    ok = True
    detail = ""
    for n in range(8):
        for q in gen_fpaths(n):
            st, bone = fpath_stats(q)
            image = involution_phi_F(q)
            ist, ibone = fpath_stats(image)
            if involution_phi_F(image) != q:
                ok, detail = False, f"not an involution at n={n}"
            if (ist.h, ist.l) != (st.h, st.l):
                ok, detail = False, f"h or l moved at n={n}"
            if ist.a1 != bone - st.l or ibone != st.a1 + st.l:
                ok, detail = False, f"a1/bone exchange failed at n={n}"
            if not st.h <= st.l <= bone:
                ok, detail = False, f"h<=l<=bone violated at n={n}"
    _report(9, "step involution swaps a1 and bone-l, fixing h and l", ok,
            detail)
