"""Command-line front end: enumeration, construction, certification, search.

All output is line-oriented key=value (plus canonical "poly ..." lines)
so results can be consumed by scripts.  Exit codes: 0 success/certified,
1 refuted/not-found, 2 inconclusive/limit, 3 usage error.
"""
from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import certify as certify_mod
from . import constants as constants_mod
from .construct import (
    DegreeSearchError,
    multipoint_monic,
    pair_polynomial,
    triple_polynomial,
)
from .farey import FareyPair, farey_intervals, farey_sequence, is_consecutive_pair
from .lattice import search_witness
from .numpoly import (
    IntPoly,
    Interval,
    format_poly,
    format_rational,
    parse_poly,
    parse_rational,
    parse_rational_pair,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

# Largest --degree that construct pair/triple accepts, and largest
# --max-degree that construct multi accepts.  Larger degrees are refused
# before any work: at degree 8000 on (1/3, 2/5) the output already exceeds
# Python's 4300-digit int-to-str limit.
MAX_CONSTRUCT_DEGREE = 4096
# Largest --order that farey accepts, refused before any work.  The output
# has about 0.3 order**2 lines: order 1000 takes 2.3 s and 71 MB, or 6.7 s
# and 91 MB with --pairs (Python 3.11, 2-core host), growing as order**2.
MAX_FAREY_ORDER = 1000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(f"{message}\n{self.format_usage()}")


@dataclass
class RunReport:
    command: str
    lines: list[str] = field(default_factory=list)
    exit_code: int = EXIT_OK

    def emit(self, line: str) -> None:
        self.lines.append(line)


@dataclass(frozen=True)
class TableEntry:
    pair: FareyPair
    poly: IntPoly


def bundled_table_path() -> Path:
    """Location of the packaged witness-table fixture."""
    return Path(resources.files("monicheb").joinpath("data/farey_table.txt"))


def _format_endpoint(a: int, b: int) -> str:
    """format_rational of a reduced a/b, b > 0, from its integers."""
    return str(a) if b == 1 else f"{a}/{b}"


def parse_table_file(path) -> list[TableEntry]:
    """Parse fixture records: an `interval <lo> <hi>` line followed by a
    `poly <c0> ... <cn>` line; `#` comments and blank lines are ignored.
    Each endpoint is read to its reduced integer pair, with no Fraction.
    """
    entries: list[TableEntry] = []
    pending: tuple[int, FareyPair] | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            try:
                if fields[0] == "interval":
                    if pending is not None:
                        raise ValueError("interval record missing its poly line")
                    if len(fields) != 3:
                        raise ValueError("interval line needs two endpoints")
                    a2, b2 = parse_rational_pair(fields[1])
                    a1, b1 = parse_rational_pair(fields[2])
                    pending = (lineno, FareyPair(a1, b1, a2, b2))
                elif fields[0] == "poly":
                    if pending is None:
                        raise ValueError("poly line without a preceding interval")
                    poly = parse_poly(line)
                    if not poly:
                        raise ValueError("table polynomial must be nonzero")
                    entries.append(TableEntry(pending[1], poly))
                    pending = None
                else:
                    raise ValueError(f"unrecognized record {fields[0]!r}")
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if pending is not None:
        raise ValueError(f"{path}:{pending[0]}: interval record missing its poly line")
    return entries


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process.  parse_args keeps no
    state between calls, and every parse gets a fresh Namespace, so one
    parser serves every run."""
    parser = _Parser(prog="monicheb")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_farey = sub.add_parser("farey", help="list a Farey sequence or its pairs")
    p_farey.add_argument("--order", type=int, required=True)
    p_farey.add_argument("--pairs", action="store_true")

    p_con = sub.add_parser("construct", help="build monic integer polynomials")
    con_sub = p_con.add_subparsers(dest="mode", required=True)

    p_pair = con_sub.add_parser("pair")
    p_pair.add_argument("lo")
    p_pair.add_argument("hi")
    p_pair.add_argument("--degree", type=int, required=True)
    p_pair.add_argument("--targets", default="1,1", help="A1,A2 (upper,lower numerators)")

    p_triple = con_sub.add_parser("triple")
    p_triple.add_argument("lo")
    p_triple.add_argument("hi")
    p_triple.add_argument("--degree", type=int, required=True)
    p_triple.add_argument("--targets", default="1,1,1", help="A1,A2,A3 (upper,lower,mediant)")
    p_triple.add_argument("--split", type=int, default=1)

    p_multi = con_sub.add_parser("multi")
    p_multi.add_argument("points", help="comma-separated rationals")
    p_multi.add_argument("--max-degree", type=int, required=True)

    p_cert = sub.add_parser("certify", help="decide a sup-norm bound rigorously")
    p_cert.add_argument("--poly", required=True, help="file with a 'poly c0 ... cn' line")
    p_cert.add_argument("--interval", nargs=2, required=True, metavar=("LO", "HI"))
    group = p_cert.add_mutually_exclusive_group(required=True)
    group.add_argument("--bound")
    group.add_argument("--conjecture", action="store_true")

    p_search = sub.add_parser("search", help="LLL witness search on a Farey interval")
    p_search.add_argument("--interval", nargs=2, required=True, metavar=("LO", "HI"))
    p_search.add_argument("--degree", type=int, required=True)
    p_search.add_argument("--radius", type=int, default=1)

    p_const = sub.add_parser("constant", help="catalog constants")
    cgroup = p_const.add_mutually_exclusive_group(required=True)
    cgroup.add_argument("--interval", nargs=2, metavar=("LO", "HI"))
    cgroup.add_argument("--point")
    cgroup.add_argument("--set", dest="point_set")

    p_table = sub.add_parser("verify-table", help="certify every fixture entry")
    p_table.add_argument("file", nargs="?", default=None)

    # Endpoint values such as -1/2 or -1/sqrt(2) start with a dash; widen
    # the negative-token heuristic so they parse as values, not options.
    anything_negative = re.compile(r"^-.+$")
    for p in (p_cert, p_search, p_const, p_pair, p_triple):
        p._negative_number_matcher = anything_negative

    return parser


def _load_poly(path: str) -> IntPoly:
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if line:
                return parse_poly(line)
    raise ValueError(f"no polynomial found in {path}")


def _witness_orientation(poly: IntPoly) -> IntPoly:
    """poly, negated when its leading coefficient is -1: the sup norm is
    sign-invariant and witnesses are monic.  The zero polynomial is refused."""
    if not poly:
        raise _UsageError("the zero polynomial is not a witness")
    return -poly if poly.coeffs[-1] == -1 else poly


def _cmd_farey(args, report: RunReport) -> None:
    if args.order > MAX_FAREY_ORDER:
        raise _UsageError(f"--order {args.order} is above the cap {MAX_FAREY_ORDER}")
    if args.pairs:
        for pair in farey_intervals(args.order):
            report.emit(
                f"pair={format_rational(pair.lo)},{format_rational(pair.hi)}"
            )
    else:
        fractions = farey_sequence(args.order)
        for q in fractions:
            report.emit(f"fraction={format_rational(q)}")
        report.emit(f"count={len(fractions)}")


def _cmd_construct(args, report: RunReport) -> None:
    if args.mode in ("pair", "triple") and args.degree > MAX_CONSTRUCT_DEGREE:
        raise _UsageError(
            f"--degree {args.degree} is above the cap {MAX_CONSTRUCT_DEGREE}"
        )
    if args.mode == "multi" and args.max_degree > MAX_CONSTRUCT_DEGREE:
        raise _UsageError(
            f"--max-degree {args.max_degree} is above the cap {MAX_CONSTRUCT_DEGREE}"
        )
    head: list[str] = []
    if args.mode == "pair":
        pair = FareyPair.from_endpoints(parse_rational(args.lo), parse_rational(args.hi))
        targets = [int(t) for t in args.targets.split(",")]
        if len(targets) != 2:
            raise _UsageError("--targets needs exactly two integers A1,A2")
        poly = pair_polynomial(pair, args.degree, targets[0], targets[1])
        points = [pair.hi, pair.lo]
    elif args.mode == "triple":
        pair = FareyPair.from_endpoints(parse_rational(args.lo), parse_rational(args.hi))
        targets = [int(t) for t in args.targets.split(",")]
        if len(targets) != 3:
            raise _UsageError("--targets needs exactly three integers A1,A2,A3")
        poly = triple_polynomial(
            pair, args.degree, targets[0], targets[1], targets[2], args.split
        )
        points = [pair.hi, pair.lo, Fraction(pair.a1 + pair.a2, pair.b1 + pair.b2)]
    else:
        points = [parse_rational(tok) for tok in args.points.split(",")]
        degree, poly = multipoint_monic(points, args.max_degree)
        head.append(f"degree={degree}")
    # Every line is formatted before any is emitted, so an integer over the
    # interpreter's int-to-str digit limit refuses the whole report.
    try:
        lines = head + [format_poly(poly)] + [
            f"value@{format_rational(p)}={format_rational(poly(p))}" for p in points
        ]
    except ValueError as exc:
        raise _UsageError(
            "output has an integer over the interpreter's limit of "
            f"{sys.get_int_max_str_digits()} digits for int-to-str conversion"
        ) from exc
    for line in lines:
        report.emit(line)


def _cmd_certify(args, report: RunReport) -> None:
    poly = _load_poly(args.poly)
    lo = parse_rational(args.interval[0])
    hi = parse_rational(args.interval[1])
    if args.conjecture:
        if not is_consecutive_pair(lo, hi):
            raise _UsageError(
                f"[{lo}, {hi}] is not a consecutive Farey pair; --conjecture needs one"
            )
        pair = FareyPair.from_endpoints(lo, hi)
        record = certify_mod.verify_witness(pair, _witness_orientation(poly))
        for line in record.render():
            report.emit(line)
        verdict = record.certificate.verdict
    else:
        bound = parse_rational(args.bound)
        cert = certify_mod.certify_sup_bound(poly, Interval(lo, hi), bound)
        for line in cert.render():
            report.emit(line)
        verdict = cert.verdict
    report.exit_code = {
        certify_mod.Verdict.CERTIFIED_AT_MOST: EXIT_OK,
        certify_mod.Verdict.REFUTED: EXIT_REFUTED,
        certify_mod.Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[verdict]


def _cmd_search(args, report: RunReport) -> None:
    lo = parse_rational(args.interval[0])
    hi = parse_rational(args.interval[1])
    pair = FareyPair.from_endpoints(lo, hi)
    found = search_witness(pair, args.degree, radius=args.radius)
    if found is None:
        report.emit("status=not-found")
        report.exit_code = EXIT_REFUTED
        return
    record = certify_mod.verify_witness(pair, found)
    report.emit(format_poly(found))
    for line in record.render():
        report.emit(line)


def _cmd_constant(args, report: RunReport) -> None:
    if args.interval is not None:
        result = constants_mod.interval_constant(args.interval[0], args.interval[1])
        if result is None:
            report.emit("value=unknown")
            report.exit_code = EXIT_INCONCLUSIVE
            return
        value, provenance = result
        report.emit(f"value={value}")
        report.emit(f"provenance={provenance}")
    elif args.point is not None:
        value = constants_mod.point_constant(parse_rational(args.point))
        report.emit(f"value={value}")
        report.emit("provenance=single rational point")
    else:
        points = [parse_rational(tok) for tok in args.point_set.split(",")]
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            value = constants_mod.finite_set_constant(points)
        report.emit(f"value={value}")
        report.emit("provenance=finite rational set")


def _cmd_verify_table(args, report: RunReport) -> None:
    path = args.file if args.file is not None else bundled_table_path()
    entries = parse_table_file(path)
    if not entries:
        # exit 0 would claim that every entry certified
        raise ValueError(f"{path}: no table entries")
    all_ok = True
    for entry in entries:
        pair = entry.pair
        record = certify_mod.verify_witness(pair, _witness_orientation(entry.poly))
        status = record.certificate.verdict.value
        if record.certificate.verdict is not certify_mod.Verdict.CERTIFIED_AT_MOST:
            all_ok = False
        report.emit(
            "entry={lo}..{hi} degree={deg} status={status}".format(
                lo=_format_endpoint(pair.a2, pair.b2),
                hi=_format_endpoint(pair.a1, pair.b1),
                deg=record.degree,
                status=status,
            )
        )
    report.emit(f"total={len(entries)}")
    report.exit_code = EXIT_OK if all_ok else EXIT_REFUTED


def run(argv: list[str]) -> RunReport:
    """Dispatch a command line; returns the full report without printing.

    Runs in one process share _build_parser's parser and nothing else, so
    a run reports what the same command line reports in a new process."""
    report = RunReport(command=" ".join(argv))
    try:
        args = _build_parser().parse_args(argv)
        if args.cmd == "farey":
            _cmd_farey(args, report)
        elif args.cmd == "construct":
            _cmd_construct(args, report)
        elif args.cmd == "certify":
            _cmd_certify(args, report)
        elif args.cmd == "search":
            _cmd_search(args, report)
        elif args.cmd == "constant":
            _cmd_constant(args, report)
        elif args.cmd == "verify-table":
            _cmd_verify_table(args, report)
    except _UsageError as exc:
        report.emit(f"error={exc}")
        report.exit_code = EXIT_USAGE
    except DegreeSearchError as exc:
        report.emit(f"error={exc}")
        report.emit(f"minimal_degree={exc.minimal}")
        report.exit_code = EXIT_INCONCLUSIVE
    except (ValueError, ZeroDivisionError, OSError) as exc:
        report.emit(f"error={exc}")
        report.exit_code = EXIT_USAGE
    return report


def main(argv: list[str] | None = None) -> int:
    report = run(sys.argv[1:] if argv is None else argv)
    try:
        print(f"command={report.command}")
        for line in report.lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: the rest of the output, and the flush
        # at interpreter exit, go to devnull, and the exit code stays
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
