"""The family boundary and the harness under ``python -O``.

``-O`` strips ``assert`` statements, so nothing in the package may rely
on them.  :func:`sweep` feeds seeded random inputs to every family's
public entry points: small edits of rendered objects go through
``parse``, raw step tuples through ``from_fpath``, and raw entry tuples
(permutations with two entries swapped, tree codes with one pair
edited) through ``to_fpath`` and ``stats``.  Only ``FpathsError`` may escape, and
every accepted input must round-trip, keep its statistics and fold back
from its ``decompose``.  Its checks use ``if``/``raise``, since ``-O``
also strips pytest's assertion rewriting.  :func:`check_rows` tabulates
the stepped marginal rows against their closed forms, and checks that a
corrupted recurrence coefficient, or a corrupted ratio factor of a
stepped sum of several blocks, still raises ``InexactDivision``.
:func:`check_joint` compares the ``a_joint`` cube with the transfer DP
and checks that a non-integer argument still raises ``FormViolation``.
The tests run the sweep, the rows, the cube and ``fpaths verify`` in a
``python -O`` subprocess.  Run by hand:
``python -O tests/test_optimised.py [SEED|rows|joint]``.
"""
import os
import random
import subprocess
import sys
from functools import reduce
from math import comb

import fpaths
from fpaths import counting
from fpaths.errors import FormViolation, FpathsError, InexactDivision
from fpaths.families import FAMILIES, TAGS
from fpaths.fpath_core import fpath_stats
from oracles import joint_dp

#: Characters mixed into the text edits besides each family's own.
EXTRA = " -,.0123456789L()[]x"
#: Steps that build F-paths, and steps that break them.
GOOD_STEPS = ((0, 1), (1, 1), (1, 0), (2, 1), (1, -1), (3, -1))
BAD_STEPS = ((0, 0), (0, 2), (-1, 1), (1, 2), (0.5, 1), (1.0, 1), (1,),
             (0, 1, 2), ("a", 1), None)


class SweepFailure(Exception):
    """An input that escaped with a foreign error or did not round-trip."""


def _text_edit(rng, rendered, alphabet):
    text = rng.choice(rendered)
    at = rng.randint(0, len(text))
    cut = rng.randint(0, 2)
    put = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 2)))
    return text[:at] + put + text[at + cut:]


def _entry_edit(rng, objects):
    entries = list(rng.choice(objects))
    at = rng.randrange(len(entries))
    entries[at] = rng.choice((
        rng.randint(-1, len(entries) + 1),
        entries[at] + 0.0,
        entries[at] + 0.5,
    ))
    return tuple(entries)


def _swap_edit(rng, perms):
    """A permutation with one entry edited, or the direct sum of two
    generated avoiders with two entries swapped: about a third of those
    swaps leave no avoider, so they reach the membership scan's rejection."""
    if rng.random() < 0.5:
        return _entry_edit(rng, perms)
    entries = list(FAMILIES["perm"].direct_sum(rng.choice(perms),
                                               rng.choice(perms)))
    i, j = rng.randrange(len(entries)), rng.randrange(len(entries))
    entries[i], entries[j] = entries[j], entries[i]
    return tuple(entries)


def _pair_edit(rng, trees):
    """A tree code with one pair's weight or outdegree changed."""
    code = list(rng.choice(trees))
    at = rng.randrange(len(code))
    pair = list(code[at])
    i = rng.randrange(2)
    pair[i] = rng.choice((None, True, False, rng.randint(-1, 3),
                          (pair[i] or 0) + rng.choice((0.0, 0.5))))
    code[at] = tuple(pair)
    return tuple(code)


#: The raw-entry edit of each family whose objects are tuples.
ENTRY_EDITS = {"perm": _swap_edit, "inv-i": _entry_edit,
               "inv-j": _entry_edit, "tree": _pair_edit}


def _check_fold(fam, obj):
    if reduce(fam.direct_sum, fam.decompose(obj)) != obj:
        raise SweepFailure(f"{fam.tag}: {obj!r} does not fold back")


def _check_object(fam, obj, q):
    """``obj`` was accepted with image ``q``: it must come back from q,
    carry q's statistics and fold back from its summands."""
    if fam.from_fpath(q) != obj:
        raise SweepFailure(f"{fam.tag}: {obj!r} does not round-trip")
    if fam.stats(obj) != fpath_stats(q)[0]:
        raise SweepFailure(f"{fam.tag}: stats of {obj!r} differ from phi's")
    _check_fold(fam, obj)


def _check_text(fam, text):
    try:
        obj = fam.parse(text)
    except FpathsError:
        return
    _check_object(fam, obj, fam.to_fpath(obj))
    if fam.parse(fam.render(obj)) != obj:
        raise SweepFailure(f"{fam.tag}: render/parse changes {text!r}")


def _check_steps(fam, steps):
    try:
        obj = fam.from_fpath(steps)
    except FpathsError:
        return
    if fam.to_fpath(obj) != tuple(tuple(s) for s in steps):
        raise SweepFailure(f"{fam.tag}: steps {steps!r} do not round-trip")
    _check_fold(fam, obj)


def _check_entries(fam, entries):
    try:
        q = fam.to_fpath(entries)
    except FpathsError:
        try:
            fam.stats(entries)
        except FpathsError:
            return
        raise SweepFailure(
            f"{fam.tag}: stats accepts {entries!r}, to_fpath refuses it")
    _check_object(fam, entries, q)


def sweep(seed: int, per_family: int = 300) -> int:
    """Run the sweep; return the number of inputs checked."""
    rng = random.Random(seed)
    checked = 0
    for tag in TAGS:
        fam = FAMILIES[tag]
        objects = [o for n in range(4) for o in fam.generate(n)]
        rendered = [fam.render(o) for o in objects]
        alphabet = sorted(set("".join(rendered)) | set(EXTRA))
        cases = [(_check_text, _text_edit(rng, rendered, alphabet))
                 for _ in range(per_family)]
        for _ in range(per_family // 3):
            steps = [rng.choice(GOOD_STEPS) for _ in range(rng.randint(0, 6))]
            if rng.random() < 0.5:
                steps.insert(rng.randint(0, len(steps)), rng.choice(BAD_STEPS))
            cases.append((_check_steps, tuple(steps)))
        if tag in ENTRY_EDITS:
            cases += [(_check_entries, ENTRY_EDITS[tag](rng, objects))
                      for _ in range(per_family // 3)]
        for check, value in cases:
            try:
                check(fam, value)
            except SweepFailure:
                raise
            except Exception as exc:
                raise SweepFailure(
                    f"{tag} {check.__name__} {value!r}: {exc!r}") from exc
            checked += 1
    return checked


def check_rows(n: int = 60) -> int:
    """Check one stepped sum of several blocks against its ``math.comb``
    sum, and that it raises ``InexactDivision`` with one ratio factor off
    by one.  Then tabulate the h-, l- and m-rows at n in order against
    the closed forms, and again with the first recurrence coefficient off
    by one, which must raise ``InexactDivision``; return the row cells
    checked."""
    count, run = 2 * counting._BLOCK + 1, (400, 3, -1, 1)
    want = sum(comb(400 - i, 3 + i) for i in range(count))
    if counting._stepped_sum(count, run) != want:
        raise SweepFailure("a stepped sum of several blocks is wrong")
    real_factors = counting._ratio_factors

    def off_by_one(runs):
        num, ((c, e), *rest) = real_factors(runs)
        return num, [(c + 1, e), *rest]

    counting._ratio_factors = off_by_one
    try:
        counting._stepped_sum(count, run)
    except InexactDivision:
        pass
    else:
        raise SweepFailure("a stepped sum's division is unchecked")
    finally:
        counting._ratio_factors = real_factors
    for axis in "hlm":
        closed = getattr(counting, f"_a_{axis}")
        name = f"_{axis}_recurrence"
        real = getattr(counting, name)
        row = [counting.a_marginal(n, **{axis: v}) for v in range(n + 1)]
        if row != [closed(n, v) for v in range(n + 1)]:
            raise SweepFailure(f"the {axis}-row at n = {n} is wrong")
        setattr(counting, name,
                lambda n, v: (real(n, v)[0] + 1, *real(n, v)[1:]))
        try:
            for v in range(n + 1):
                counting.a_marginal(n, **{axis: v})
        except InexactDivision:
            pass
        else:
            raise SweepFailure(f"the {axis}-row step is unchecked")
        finally:
            setattr(counting, name, real)
    return 3 * (n + 1)


def check_joint(n: int = 20) -> int:
    """Compare every ``a_joint`` cell at n, borders -1 and n+1 included,
    with ``joint_dp``, then check that a float argument raises
    ``FormViolation``; return the cells checked."""
    *_, dist = joint_dp(n)
    cells = range(-1, n + 2)
    for h in cells:
        for l in cells:
            for m in cells:
                if counting.a_joint(n, h, l, m) != dist.get((m, l, h), 0):
                    raise SweepFailure(f"a_joint{(n, h, l, m)} is wrong")
    try:
        counting.a_joint(5, 1, 2, 1.0)
    except FormViolation:
        pass
    else:
        raise SweepFailure("a_joint accepts a float")
    return len(cells) ** 3


def _run_optimised(*argv):
    src = os.path.dirname(os.path.dirname(fpaths.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-O", *argv], capture_output=True,
                          text=True, env=env, check=False)


def test_sweep_survives_optimised_mode():
    proc = _run_optimised(__file__, "7")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("checked "), proc.stdout


def test_verify_passes_in_optimised_mode():
    proc = _run_optimised("-m", "fpaths.cli", "verify", "--max-n", "6")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "345 passed, 0 failed, 345 total"


def test_stepped_rows_in_optimised_mode():
    proc = _run_optimised(__file__, "rows")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rows 183\n", proc.stdout


def test_joint_cube_in_optimised_mode():
    proc = _run_optimised(__file__, "joint")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "joint 12167\n", proc.stdout


if __name__ == "__main__":
    arg = sys.argv[1] if len(sys.argv) > 1 else "0"
    if arg == "rows":
        print(f"rows {check_rows()}")
    elif arg == "joint":
        print(f"joint {check_joint()}")
    else:
        print(f"checked {sweep(int(arg))}")
