"""Text forms and a uniform registry for the seven object families.

Family tags (used by the CLI and the verification harness):

    fpath      F-paths            "0,1 3,-1"      ("-" when empty)
    schroder   Schröder words     "uhd"           ("-" when empty)
    bicolored  bicolored words    "uurbur"
    perm       permutations       "2 3 1"
    inv-i      (101,102)-avoiders "0,1,0"
    inv-j      (101,021)-avoiders "0,1,0"
    tree       weighted trees     "[(1 L L)]"

Every family is described by a :class:`FamilyInfo` with parse / render /
generate (at common index n) / to_fpath / from_fpath / stats /
direct_sum / phi / psi / stats_core.  ``generate`` yields canonical
order; objects of common index n biject with F-paths of length n.

Validation happens here, once: ``parse`` checks text and object, and
``to_fpath`` / ``stats`` check an object and ``from_fpath`` an F-path,
then run the trusted core ``phi`` / ``stats_core`` / ``psi``, which
assumes a valid argument.  Callers holding values already checked
(parsed or generated objects, phi's F-paths) call the cores directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import (
    bicolored_dyck,
    fpath_core,
    inversion_seqs,
    pattern_perms,
    schroder_paths,
    weighted_trees,
)
from .errors import FormViolation, ParseError
from .fpath_core import FPath, StatTriple
from .weighted_trees import WTree

TAGS = ("fpath", "schroder", "bicolored", "perm", "inv-i", "inv-j", "tree")


# ------------------------------------------------------------- text forms


def render_fpath(q) -> str:
    if not q:
        return "-"
    return " ".join(f"{a},{b}" for a, b in q)


def parse_fpath(text: str) -> FPath:
    text = text.strip()
    if text == "-":
        return ()
    steps = []
    offset = 0
    for token in text.split():
        pos = text.index(token, offset)
        parts = token.split(",")
        if len(parts) != 2:
            raise ParseError(pos, f"expected 'a,b', got {token!r}")
        try:
            steps.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(pos, f"non-integer step {token!r}") from None
        offset = pos + len(token)
    return fpath_core.validate_fpath(steps)


def _parse_word(text: str, validate) -> str:
    """Strip, read "-" as the empty word, and let ``validate`` check the
    letters (a ParseError at the first foreign one) and the path."""
    text = text.strip()
    return validate("" if text == "-" else text)


def render_word(w: str) -> str:
    return w if w else "-"


def render_perm(p) -> str:
    return " ".join(str(v) for v in p)


def parse_perm(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        vals = tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ParseError(0, f"non-integer entry in {text!r}") from None
    if not vals:
        raise ParseError(0, "empty permutation; the smallest has length 1")
    if sorted(vals) != list(range(1, len(vals) + 1)):
        raise ParseError(0, f"not a permutation of 1..{len(vals)}: {text!r}")
    return vals


def render_invseq(e) -> str:
    return ",".join(str(v) for v in e)


def _parse_invseq(text: str, family):
    text = text.strip()
    try:
        vals = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ParseError(0, f"non-integer entry in {text!r}") from None
    return inversion_seqs.validate_invseq(vals, family)


def render_wtree(t: WTree) -> str:
    def sub(v: WTree) -> str:
        if v.is_leaf():
            return "L"
        inner = " ".join(sub(c) for c in v.children)
        return f"({v.weight} {inner})"

    return "[" + " ".join(sub(c) for c in t.children) + "]"


def parse_wtree(text: str) -> WTree:
    """Parse ``[ subtree* ]`` with subtree = ``L`` | ``( weight subtree+ )``."""
    s = text.strip()
    pos = 0

    def error(msg):
        raise ParseError(pos, msg)

    def skip_ws():
        nonlocal pos
        while pos < len(s) and s[pos] == " ":
            pos += 1

    def subtree() -> WTree:
        nonlocal pos
        skip_ws()
        if pos >= len(s):
            error("unexpected end of input")
        if s[pos] == "L":
            pos += 1
            return weighted_trees.LEAF
        if s[pos] != "(":
            error(f"expected 'L' or '(', got {s[pos]!r}")
        pos += 1
        skip_ws()
        start = pos
        while pos < len(s) and s[pos] in "-0123456789":
            pos += 1
        if start == pos:
            error("expected a weight")
        try:
            weight = int(s[start:pos])
        except ValueError:
            raise ParseError(start, f"bad weight {s[start:pos]!r}") from None
        kids = []
        skip_ws()
        while pos < len(s) and s[pos] != ")":
            kids.append(subtree())
            skip_ws()
        if pos >= len(s):
            error("missing ')'")
        pos += 1
        if not kids:
            error("weighted vertex needs children")
        return WTree(weight, tuple(kids))

    if not s or s[0] != "[":
        error("expected '['")
    pos = 1
    kids = []
    skip_ws()
    while pos < len(s) and s[pos] != "]":
        kids.append(subtree())
        skip_ws()
    if pos >= len(s):
        error("missing ']'")
    pos += 1
    skip_ws()
    if pos != len(s):
        error("trailing characters")
    return weighted_trees.validate_wtree(WTree(None, tuple(kids)))


# --------------------------------------------------------------- registry


@dataclass(frozen=True)
class FamilyInfo:
    tag: str
    parse: Callable[[str], object]
    render: Callable[[object], str]
    generate: Callable[[int], tuple]        # common index n
    to_fpath: Callable[[object], FPath]     # validate, then phi
    from_fpath: Callable[[FPath], object]   # validate_fpath, then psi
    stats: Callable[[object], StatTriple]   # validate, then stats_core
    direct_sum: Callable[[object, object], object]
    phi: Callable[[object], FPath]          # trusted: members only
    psi: Callable[[FPath], object]          # trusted: F-paths only
    stats_core: Callable[[object], StatTriple]  # trusted: members only


def _family(tag, parse, render, generate, validate, phi, psi, stats,
            direct_sum) -> FamilyInfo:
    """An entry whose to_fpath / stats check with ``validate`` and
    from_fpath with ``validate_fpath``, then run the trusted ``phi`` /
    ``stats`` / ``psi``."""
    return FamilyInfo(
        tag, parse, render, generate,
        lambda obj: phi(validate(obj)),
        lambda q: psi(fpath_core.validate_fpath(q)),
        lambda obj: stats(validate(obj)),
        direct_sum, phi, psi, stats,
    )


def _size(n: int) -> int:
    """Object size n + 1 at common index n, which must not be negative."""
    if n < 0:
        raise FormViolation(f"n must be >= 0, got {n}")
    return n + 1


def _identity(q: FPath) -> FPath:
    return q


FAMILIES: dict[str, FamilyInfo] = {
    "fpath": _family(
        "fpath",
        parse_fpath,
        render_fpath,
        fpath_core.gen_fpaths,
        fpath_core.validate_fpath,
        _identity, _identity,
        lambda q: fpath_core.fpath_stats(q)[0], fpath_core.fpath_direct_sum,
    ),
    "schroder": _family(
        "schroder",
        lambda t: _parse_word(t, schroder_paths.validate_schroder),
        render_word,
        schroder_paths.gen_schroder,
        schroder_paths.validate_schroder,
        schroder_paths.phi_P, schroder_paths.psi_P,
        schroder_paths.schroder_stats, schroder_paths.schroder_direct_sum,
    ),
    "bicolored": _family(
        "bicolored",
        lambda t: _parse_word(t, bicolored_dyck.validate_bicolored),
        render_word,
        lambda n, **kw: bicolored_dyck.gen_bicolored(_size(n), **kw),
        bicolored_dyck.validate_bicolored,
        bicolored_dyck.phi_B, bicolored_dyck.psi_B,
        bicolored_dyck.bicolored_stats, bicolored_dyck.bicolored_direct_sum,
    ),
    "perm": _family(
        "perm",
        lambda t: pattern_perms.validate_avoider(parse_perm(t)),
        render_perm,
        lambda n, **kw: pattern_perms.gen_avoiders(_size(n), **kw),
        pattern_perms.validate_avoider,
        pattern_perms.phi_S, pattern_perms.psi_S,
        pattern_perms.perm_stats, pattern_perms.perm_direct_sum,
    ),
    "inv-i": _family(
        "inv-i",
        lambda t: _parse_invseq(t, inversion_seqs.FAMILY_I),
        render_invseq,
        lambda n, **kw: inversion_seqs.gen_invseq(
            _size(n), inversion_seqs.FAMILY_I, **kw),
        lambda e: inversion_seqs.validate_invseq(e, inversion_seqs.FAMILY_I),
        inversion_seqs.phi_I, inversion_seqs.psi_I,
        inversion_seqs.stats_I, inversion_seqs.dsum_I,
    ),
    "inv-j": _family(
        "inv-j",
        lambda t: _parse_invseq(t, inversion_seqs.FAMILY_J),
        render_invseq,
        lambda n, **kw: inversion_seqs.gen_invseq(
            _size(n), inversion_seqs.FAMILY_J, **kw),
        lambda e: inversion_seqs.validate_invseq(e, inversion_seqs.FAMILY_J),
        inversion_seqs.phi_J, inversion_seqs.psi_J,
        inversion_seqs.stats_J, inversion_seqs.dsum_J,
    ),
    "tree": _family(
        "tree",
        parse_wtree,
        render_wtree,
        lambda n, **kw: weighted_trees.gen_wtrees(_size(n), **kw),
        weighted_trees.validate_wtree,
        weighted_trees.phi_T, weighted_trees.psi_T,
        weighted_trees.wtree_stats, weighted_trees.wtree_direct_sum,
    ),
}


def parse_object(family: str, text: str):
    """Parse and fully validate one object of the given family."""
    if family not in FAMILIES:
        raise ParseError(0, f"unknown family {family!r}")
    return FAMILIES[family].parse(text)
