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
direct_sum / decompose / phi / psi / stats_core.  ``generate`` yields
canonical order; objects of common index n biject with F-paths of
length n.

Validation happens here, once: ``parse`` checks text and object in one
pass per family, ``generate`` checks n with
:func:`fpath_core.common_index` and then runs the family's trusted
generator, and ``to_fpath`` / ``stats`` check an object and
``from_fpath`` an F-path, then run the trusted core ``phi`` /
``stats_core`` / ``psi``.  These checking fields raise an
``FpathsError`` for any argument, of any type, that they refuse.
``render``, ``direct_sum`` and ``decompose`` trust their arguments like
the cores.  ``decompose`` undoes the ``direct_sum`` fold through the
hub: ``psi`` is a homomorphism, so the summands of an object are
``psi`` of the height-0 components of its F-path.  Callers holding
values already checked call the cores directly: ``fpaths map`` checks
each line once, at ``parse``, and then runs only ``phi``, ``psi`` and
``render``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Callable

from . import (
    bicolored_dyck,
    fpath_core,
    inversion_seqs,
    pattern_perms,
    schroder_paths,
    weighted_trees,
)
from .errors import FormViolation, ParseError, WeightOutOfRange
from .fpath_core import FPath, FStep, StatTriple, require_str
from .weighted_trees import WTree

TAGS = ("fpath", "schroder", "bicolored", "perm", "inv-i", "inv-j", "tree")


# ------------------------------------------------------------- text forms


def render_fpath(q) -> str:
    if not q:
        return "-"
    return " ".join(f"{a},{b}" for a, b in q)


def parse_fpath(text: str) -> FPath:
    text = require_str(text).strip()
    if text == "-":
        return ()
    return fpath_core.validate_fpath(_read_steps(text))


def _read_steps(text: str) -> list[FStep]:
    """The tokens of ``text`` as int pairs; a ParseError names the first
    bad one."""
    steps = []
    for at, token in enumerate(text.split()):
        parts = token.split(",")
        try:
            a, b = parts
            steps.append((int(a), int(b)))
        except ValueError:
            why = ("non-integer step" if len(parts) == 2
                   else "expected 'a,b', got")
            # splitting ``at`` times leaves the text from token ``at`` on
            pos = len(text) - len(text.split(None, at)[-1])
            raise ParseError(pos, f"{why} {token!r}") from None
    return steps


def _parse_word(text: str, validate) -> str:
    """Strip, read "-" as the empty word, and let ``validate`` check the
    letters (a ParseError at the first foreign one) and the path."""
    text = require_str(text).strip()
    return validate("" if text == "-" else text)


def render_word(w: str) -> str:
    return w if w else "-"


def render_perm(p) -> str:
    return " ".join(str(v) for v in p)


def parse_perm(text: str) -> tuple[int, ...]:
    text = require_str(text).strip()
    try:
        vals = tuple(map(int, text.split()))
    except ValueError:
        raise ParseError(0, f"non-integer entry in {text!r}") from None
    if not vals:
        raise ParseError(0, "empty permutation; the smallest has length 1")
    if sorted(vals) != list(range(1, len(vals) + 1)):
        raise ParseError(0, f"not a permutation of 1..{len(vals)}: {text!r}")
    return pattern_perms._check_avoider(vals)


def render_invseq(e) -> str:
    return ",".join(str(v) for v in e)


def _parse_invseq(text: str, family):
    text = require_str(text).strip()
    try:
        vals = tuple(map(int, text.split(",")))
    except ValueError:
        raise ParseError(0, f"non-integer entry in {text!r}") from None
    return inversion_seqs._check_invseq(vals, family)


def render_wtree(t: WTree) -> str:
    """Text form, written from the code in one pass over a stack of the
    children each open vertex still has to write, so depth is unbounded."""
    out = []
    left = [t[0][1]]
    for w, d in t[1:]:
        left[-1] -= 1
        if d:
            out.append(f" ({w}")
            left.append(d)
        else:
            out.append(" L")
            while left and not left[-1]:
                left.pop()
                out.append(")" if left else "]")
    return "[" + "".join(out)[1:]


#: One token of a tree's text, after the spaces before it: a '(' with the
#: spaces and the ASCII weight text after it, or any one character.
_TREE_TOKEN = re.compile(r" *(\( *[-0-9]*|.)", re.DOTALL)


def parse_wtree(text: str) -> WTree:
    """Parse ``[ subtree* ]`` with subtree = ``L`` | ``( weight subtree+ )``
    into the preorder code, checking the weights in the same pass; the
    first weight outside 1..outdegree in preorder is named once the text
    has parsed.  Depth is unbounded, and an error's offset is found by
    matching the tokens again."""
    s = require_str(text).strip()
    if s[:1] != "[":
        raise ParseError(0, "expected '['")
    tokens = _TREE_TOKEN.findall(s, 1)

    def at(k):
        return next(islice(_TREE_TOKEN.finditer(s, 1), k, None)).start(1)

    weights: list[int | None] = [None]
    degrees = [0]
    parents = []
    cur = 0                     # the vertex whose children come next
    bad = None
    for k, tok in enumerate(tokens):
        if tok == "L":
            weight = None
        elif tok == ")" and parents:
            d = degrees[cur]
            if not d:
                raise ParseError(at(k) + 1, "weighted vertex needs children")
            if not 1 <= weights[cur] <= d and (bad is None or cur < bad):
                bad = cur
            cur = parents.pop()
            continue
        elif tok[0] == "(":
            try:
                weight = int(tok[1:])
            except ValueError:
                digits = tok[1:].lstrip(" ")
                why = f"bad weight {digits!r}" if digits else "expected a weight"
                raise ParseError(at(k) + len(tok) - len(digits), why) from None
        elif tok == "]" and not parents:
            if k + 1 < len(tokens):
                raise ParseError(at(k + 1), "trailing characters")
            break
        else:
            raise ParseError(at(k), f"expected 'L' or '(', got {tok!r}")
        degrees[cur] += 1
        weights.append(weight)
        degrees.append(0)
        if weight is not None:
            parents.append(cur)
            cur = len(degrees) - 1
    else:  # the text ran out before the root closed
        raise ParseError(len(s), f"missing {')' if parents else ']'!r}")
    if not degrees[0]:
        raise FormViolation("tree must have at least one edge")
    if bad is not None:
        raise WeightOutOfRange(bad, weights[bad], degrees[bad])
    return tuple(zip(weights, degrees))


# --------------------------------------------------------------- registry


@dataclass(frozen=True)
class FamilyInfo:
    tag: str
    parse: Callable[[str], object]
    render: Callable[[object], str]         # trusted: members only
    generate: Callable[[int], tuple]        # common index n, checked
    to_fpath: Callable[[object], FPath]     # validate, then phi
    from_fpath: Callable[[FPath], object]   # validate_fpath, then psi
    stats: Callable[[object], StatTriple]   # validate, then stats_core
    direct_sum: Callable[[object, object], object]  # trusted: members only
    decompose: Callable[[object], list]     # trusted: members only
    phi: Callable[[object], FPath]          # trusted: members only
    psi: Callable[[FPath], object]          # trusted: F-paths only
    stats_core: Callable[[object], StatTriple]  # trusted: members only


def _family(tag, parse, render, generate, validate, phi, psi, stats,
            direct_sum) -> FamilyInfo:
    """An entry whose generate checks n with ``common_index``, to_fpath /
    stats check with ``validate`` and from_fpath with ``validate_fpath``,
    then run the trusted ``generate`` / ``phi`` / ``stats`` / ``psi``, and
    whose decompose maps the F-path's components back with ``psi``."""

    def decompose(obj):  # an object of height 0 is its one summand
        parts = fpath_core.fpath_decompose(phi(obj))
        return [obj] if len(parts) == 1 else [psi(c) for c in parts]

    return FamilyInfo(
        tag, parse, render,
        lambda n: generate(fpath_core.common_index(n)),
        lambda obj: phi(validate(obj)),
        lambda q: psi(fpath_core.validate_fpath(q)),
        lambda obj: stats(validate(obj)),
        direct_sum, decompose, phi, psi, stats,
    )


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
        lambda n: bicolored_dyck.gen_bicolored(n + 1),
        bicolored_dyck.validate_bicolored,
        bicolored_dyck.phi_B, bicolored_dyck.psi_B,
        bicolored_dyck.bicolored_stats, bicolored_dyck.bicolored_direct_sum,
    ),
    "perm": _family(
        "perm",
        parse_perm,
        render_perm,
        lambda n: pattern_perms.gen_avoiders(n + 1),
        pattern_perms.validate_avoider,
        pattern_perms.phi_S, pattern_perms.psi_S,
        pattern_perms.perm_stats, pattern_perms.perm_direct_sum,
    ),
    "inv-i": _family(
        "inv-i",
        lambda t: _parse_invseq(t, inversion_seqs.FAMILY_I),
        render_invseq,
        lambda n: inversion_seqs.gen_invseq(n + 1, inversion_seqs.FAMILY_I),
        lambda e: inversion_seqs.validate_invseq(e, inversion_seqs.FAMILY_I),
        inversion_seqs.phi_I, inversion_seqs.psi_I,
        inversion_seqs.stats_I, inversion_seqs.dsum_I,
    ),
    "inv-j": _family(
        "inv-j",
        lambda t: _parse_invseq(t, inversion_seqs.FAMILY_J),
        render_invseq,
        lambda n: inversion_seqs.gen_invseq(n + 1, inversion_seqs.FAMILY_J),
        lambda e: inversion_seqs.validate_invseq(e, inversion_seqs.FAMILY_J),
        inversion_seqs.phi_J, inversion_seqs.psi_J,
        inversion_seqs.stats_J, inversion_seqs.dsum_J,
    ),
    "tree": _family(
        "tree",
        parse_wtree,
        render_wtree,
        lambda n: weighted_trees.gen_wtrees(n + 1),
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
