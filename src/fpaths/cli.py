"""Command line front end.

    fpaths enumerate --family F --n N [--stats]
    fpaths map --from F --to G            (objects on stdin, one per line)
    fpaths stats --family F               (objects on stdin)
    fpaths count --n N [--h H] [--l L] [--m M] [--refined I,J,K,L,M]
    fpaths table --which {h,l}
    fpaths sequence --max-n N [--bfile]
    fpaths verify [--max-n N] [--json PATH]

``--n`` is the common index: F-paths of length n, Schröder words of
semilength n, and objects of size n+1 in the other five families.
``count`` uses the closed-form argument order (h = aone, l = north,
m = height).  Exit status: 0 success (or a reader closed the pipe), 1
verification failure, 2 usage errors and every ``FpathsError`` or
``OSError`` (a full disk too), printed as ``fpaths <command>: <error>``.
``counting`` and ``verify_harness`` are imported by the commands that
use them, so ``enumerate``, ``map`` and ``stats`` load neither.
"""
from __future__ import annotations

import argparse
import contextlib
import sys

from .errors import FormViolation, FpathsError, int_text
from .families import FAMILIES, TAGS
from .fpath_core import common_index


# ------------------------------------------------------------ subcommands


def _cmd_enumerate(args) -> int:
    fam = FAMILIES[args.family]
    for obj in fam.generate(args.n):
        line = fam.render(obj)
        if args.stats:
            st = fam.stats_core(obj)
            line += f"\t{st.h},{st.l},{st.a1}"
        print(line)
    return 0


def _each_line(command: str, convert) -> int:
    """Print ``convert(line)`` for each non-blank stdin line.  A line it
    rejects stops the run, named by its 1-based line number."""
    for lineno, line in enumerate(sys.stdin, 1):
        line = line.strip()
        if not line:
            continue
        try:
            out = convert(line)
        except FpathsError as exc:
            print(f"fpaths {command}: line {lineno}: {exc}", file=sys.stderr)
            return 2
        print(out)
    return 0


def _cmd_map(args) -> int:
    src = FAMILIES[args.src]
    dst = FAMILIES[args.dst]

    def mapped(line):
        return dst.render(dst.psi(src.phi(src.parse(line))))

    return _each_line("map", mapped)


def _cmd_stats(args) -> int:
    fam = FAMILIES[args.family]

    def triple(line):
        st = fam.stats_core(fam.parse(line))
        return f"{st.h},{st.l},{st.a1}"

    return _each_line("stats", triple)


def _cmd_count(args) -> int:
    from .counting import a_marginal, f_refined

    if args.refined is not None:
        if (args.h, args.l, args.m) != (None, None, None):
            raise FormViolation("--refined excludes --h/--l/--m")
        parts = args.refined.split(",")
        if len(parts) != 5:
            raise FormViolation("--refined wants five integers i,j,k,l,m")
        try:
            i, j, k, l, m = (int(p) for p in parts)
        except ValueError:
            raise FormViolation(
                f"bad --refined value {args.refined!r}") from None
        print(int_text(f_refined(args.n, i, j, k, l, m)))
    else:
        print(int_text(a_marginal(args.n, h=args.h, l=args.l, m=args.m)))
    return 0


def _cmd_table(args) -> int:
    from .counting import a_marginal

    for n in range(6):
        row = [a_marginal(n, **{args.which: v}) for v in range(n + 1)]
        print(" ".join(str(v) for v in row))
    return 0


def _cmd_sequence(args) -> int:
    from .counting import sequence

    values = sequence(args.max_n)
    if args.bfile:
        for n, v in enumerate(values):
            print(f"{n} {int_text(v)}")
    else:
        print(" ".join(map(int_text, values)))
    return 0


def _cmd_verify(args) -> int:
    from .verify_harness import run_all

    json_file = contextlib.nullcontext()
    if args.json_path is not None:
        # A bad --max-n is refused, and an unwritable path named, before
        # the file is opened and before any check runs.
        common_index(args.max_n)
        json_file = open(args.json_path, "w", encoding="utf-8")
    with json_file as fh:
        report = run_all(args.max_n)
        print(report.to_text())
        if fh:
            fh.write(report.to_json() + "\n")
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fpaths",
        description="Bijections, statistics and exact counts for F-paths "
        "and six equinumerous families.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all objects of a family")
    p.set_defaults(run=_cmd_enumerate)
    p.add_argument("--family", required=True, choices=TAGS)
    p.add_argument("--n", required=True, type=int, help="common index")
    p.add_argument("--stats", action="store_true",
                   help="append TAB h,l,a1 to each line")

    p = sub.add_parser("map", help="map stdin objects between families")
    p.set_defaults(run=_cmd_map)
    p.add_argument("--from", dest="src", required=True, choices=TAGS)
    p.add_argument("--to", dest="dst", required=True, choices=TAGS)

    p = sub.add_parser("stats", help="statistics of stdin objects")
    p.set_defaults(run=_cmd_stats)
    p.add_argument("--family", required=True, choices=TAGS)

    p = sub.add_parser("count", help="closed-form counts")
    p.set_defaults(run=_cmd_count)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--h", type=int, default=None, help="aone")
    p.add_argument("--l", type=int, default=None, help="north")
    p.add_argument("--m", type=int, default=None, help="height")
    p.add_argument("--refined", default=None, metavar="I,J,K,L,M",
                   help="step-class signature i,j,k,l and height m")

    p = sub.add_parser("table", help="triangle of a marginal, n = 0..5")
    p.set_defaults(run=_cmd_table)
    p.add_argument("--which", required=True, choices=("h", "l"))

    p = sub.add_parser("sequence", help="total counts a(0..max-n)")
    p.set_defaults(run=_cmd_sequence)
    p.add_argument("--max-n", dest="max_n", required=True, type=int)
    p.add_argument("--bfile", action="store_true",
                   help="print 'n a(n)' per line")

    p = sub.add_parser("verify", help="run the cross-verification harness")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--max-n", dest="max_n", type=int, default=6)
    p.add_argument("--json", dest="json_path", default=None,
                   help="also write the report as JSON to this file")
    return top


#: Built once per process: ``parse_args`` starts each call from a fresh
#: Namespace, so one parser serves every ``cmd_dispatch``.
_PARSER = _build_parser()


def cmd_dispatch(argv=None) -> int:
    """Parse ``argv`` and run one subcommand; returns the exit status."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.run(args)
    except BrokenPipeError:
        return 0
    except (FpathsError, OSError) as exc:
        print(f"fpaths {args.command}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cmd_dispatch())


if __name__ == "__main__":
    main()
