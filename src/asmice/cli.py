"""Command-line front end.

Subcommands: count, xenum, bseq, verify, table.  All output is exact:
big integers, rationals as p/q, and polynomial coefficient lists.  Exit
status is 0 iff every requested check passed; invalid input exits 2 with
a one-line message.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction

from .asm import ENUM_BOUND, count_asms_brute
from .formulas import a2_formula, a3_formula, a_formula, b_chain
from .transfer import DEFAULT_BOUND, coeff_count, transfer_count


class RunReport:
    """Everything one invocation computed, for tests and programmatic use."""

    __slots__ = ("command", "inputs", "outputs", "checks", "wall_time")

    def __init__(self, command, inputs):
        self.command = command
        self.inputs = dict(inputs)
        self.outputs = []
        self.checks = []
        self.wall_time = 0.0

    def emit(self, line):
        self.outputs.append(str(line))

    def add_check(self, name, passed, details=""):
        self.checks.append((name, bool(passed), details))

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)

    @property
    def exit_code(self):
        return 0 if self.passed else 1


def _print_report(report, stream):
    for line in report.outputs:
        print(line, file=stream)
    for name, ok, details in report.checks:
        status = "pass" if ok else "FAIL"
        suffix = f": {details}" if details else ""
        print(f"[{status}] {name}{suffix}", file=stream)


# ---------- subcommands ----------

#: the digits of an int that CPython prints by default
PRINT_DIGITS = 4300

#: largest n each counting method accepts; A(194) has 4,276 digits, the
#: last A(n) under PRINT_DIGITS
COUNT_BOUNDS = {"brute": ENUM_BOUND, "transfer": DEFAULT_BOUND,
                "formula": 194}


def cmd_count(n, methods=("formula",)):
    report = RunReport("count", {"n": n, "method": ",".join(methods)})
    values = {}
    for m in methods:
        if m == "brute":
            values[m] = count_asms_brute(n)
        elif m == "transfer":
            values[m] = transfer_count(n)(1)
        elif m == "formula":
            values[m] = a_formula(n)
        else:
            raise ValueError(f"unknown counting method {m!r}")
    first = values[methods[0]]
    report.emit(first)
    if len(methods) > 1:
        agree = len(set(values.values())) == 1
        report.add_check("methods-agree", agree,
                         ", ".join(f"{m}={v}" for m, v in values.items()))
    return report


def cmd_xenum(n, at=None):
    report = RunReport("xenum", {"n": n, "at": at})
    poly = transfer_count(n)
    if at is None:
        report.emit(poly)
    else:
        report.emit(poly(Fraction(at)))
    return report


def cmd_bseq(max_n):
    report = RunReport("bseq", {"max_n": max_n})
    a_polys = [transfer_count(n) for n in range(1, max_n)]
    chain = b_chain(max_n, a_polys)
    for n in range(1, max_n + 1):
        report.emit(f"B({n};x) = {chain[n]}")
    for n in range(1, max_n):
        c = 1 if n % 2 else 2
        ok = a_polys[n - 1] == chain[n] * chain[n + 1] * c
        label = f"A({n};x) = {'2·' if c == 2 else ''}B({n};x)·B({n + 1};x)"
        report.add_check(label, ok)
    return report


def cmd_verify(suite, max_n=None, workers=1, seed=0):
    from .verify import run_suite
    report = RunReport("verify", {"suite": suite, "n": max_n,
                                  "workers": workers, "seed": seed})
    results = run_suite(suite, seed=seed, max_n=max_n, workers=workers)
    for r in results:
        report.add_check(r.name, r.passed, r.details)
    counts = sum(1 for r in results if r.passed)
    report.emit(f"{suite}: {counts}/{len(results)} checks passed, "
                f"seed {seed}")
    return report


def cmd_table(max_n, fmt="text"):
    report = RunReport("table", {"max_n": max_n, "format": fmt})
    rows = []
    for n in range(1, max_n + 1):
        poly = transfer_count(n)
        rows.append({"n": n, "a1": a_formula(n), "a2": a2_formula(n),
                     "a3": a3_formula(n), "poly": poly})
    if fmt == "json":
        for r in rows:
            report.emit(json.dumps(
                {"n": r["n"], "a1": str(r["a1"]), "a2": str(r["a2"]),
                 "a3": str(r["a3"]),
                 "poly": [str(c) for c in r["poly"].ascending()]},
                separators=(",", ":")))
    elif fmt == "csv":
        # every field is an integer or a ";"-joined list: none needs quoting
        report.emit("n,a1,a2,a3,poly")
        for r in rows:
            report.emit(",".join(
                [str(r["n"]), str(r["a1"]), str(r["a2"]), str(r["a3"]),
                 ";".join(str(c) for c in r["poly"].ascending())]))
    elif fmt == "text":
        header = f"{'n':>3} {'A(n;1)':>16} {'A(n;2)':>16} {'A(n;3)':>20}  A(n;x)"
        report.emit(header)
        for r in rows:
            report.emit(f"{r['n']:>3} {r['a1']:>16} {r['a2']:>16} "
                        f"{r['a3']:>20}  {r['poly']}")
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    return report


def _parse_rational(text):
    # Fraction builds 10**e for an exponent e, so the digits of its
    # numerator and denominator are bounded first by the text's length
    # plus |e|; six digits of e already pass the limit
    m = re.search(r"e[-+]?([\d_]+)\s*$", text, re.I)
    exponent = m[1].replace("_", "").lstrip("0")[:6] if m else ""
    if len(text) + int(exponent or 0) > PRINT_DIGITS:
        raise argparse.ArgumentTypeError(
            f"{text!r} may exceed the {PRINT_DIGITS}-digit print limit")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _size(limit=None, low=1):
    """argparse type: an integer n with low <= n <= limit."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if n < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {n}")
        if limit is not None and n > limit:
            raise argparse.ArgumentTypeError(
                f"must be at most {limit}, got {n}")
        return n
    return parse


def _verify_n(text):
    """argparse type of verify --n: 1 <= n <= verify.MAX_N."""
    from .verify import MAX_N
    return _size(MAX_N)(text)


class _Suites:
    """argparse choices of verify: the suite names and "all", read from
    verify only when the verify subcommand is parsed or its help shown."""

    def __iter__(self):
        from .verify import SUITE_NAMES
        return iter(SUITE_NAMES + ("all",))

    def __contains__(self, name):
        return name in tuple(self)


def _parse_methods(text):
    methods = tuple(m.strip() for m in text.split(",") if m.strip())
    unknown = [m for m in methods if m not in COUNT_BOUNDS]
    if unknown or not methods:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated subset of "
            f"{','.join(COUNT_BOUNDS)}, got {text!r}")
    if len(set(methods)) < len(methods):
        raise argparse.ArgumentTypeError(
            f"each method may appear once, got {text!r}")
    return methods


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reports bad input in one line, exit status 2,
    and reads a value such as -1/2 as a negative rational, not a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+/\d+$|^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$", re.I)

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="asmice",
        description="Exact alternating-sign-matrix counting and the "
                    "six-vertex identities behind it.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="A(n;1) by one or more methods")
    p.add_argument("--n", type=_size(), required=True,
                   help="the size: at most " + ", ".join(
                       f"{b} by {m}" for m, b in COUNT_BOUNDS.items()))
    p.add_argument("--method", type=_parse_methods, default=("formula",),
                   help="comma-separated subset of brute,transfer,formula")

    p = sub.add_parser("xenum", help="the x-enumeration polynomial A(n;x)")
    p.add_argument("--n", type=_size(DEFAULT_BOUND), required=True)
    p.add_argument("--at", type=_parse_rational, default=None,
                   help="evaluate at a rational x given as p/q or a decimal")

    # B(n+1;x) needs A(n;x) only, so the chain reaches one past the bound
    p = sub.add_parser("bseq", help="the B(n;x) factorization chain")
    p.add_argument("--max-n", type=_size(DEFAULT_BOUND + 1), required=True,
                   dest="max_n")

    p = sub.add_parser("verify", help="run a verification suite")
    # a metavar keeps argparse from listing the choices while it builds
    p.add_argument("suite", choices=_Suites(), metavar="suite",
                   help="one of %(choices)s")
    p.add_argument("--n", type=_verify_n, default=None,
                   help="largest size N, 5 by default: ybe ignores it; ik "
                        "and lemmas stop at 4; chain grows only its count "
                        "items (displayed stops at 6, grid match at 3, ean "
                        "at 4); cauchy and sdet grow to N (bivariate stops "
                        "at 3)")
    p.add_argument("--workers", type=_size(os.cpu_count() or 1), default=1,
                   help="process count, at most the CPU count")
    p.add_argument("--seed", type=_size(low=0), default=0,
                   help="seed of the suite's drawn parameters")

    p = sub.add_parser("table", help="n, A(n;1), A(n;2), A(n;3), A(n;x)")
    p.add_argument("--max-n", type=_size(DEFAULT_BOUND), required=True,
                   dest="max_n")
    p.add_argument("--format", choices=("text", "csv", "json"),
                   default="text", dest="fmt")
    return parser


def run(argv=None):
    """Parse argv and execute; returns the RunReport."""
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    if args.command == "count":
        # the only bound that depends on two arguments
        for m in args.method:
            if args.n > COUNT_BOUNDS[m]:
                parser.error(f"count: --n {args.n} exceeds the {m} bound "
                             f"{COUNT_BOUNDS[m]}")
        report = cmd_count(args.n, args.method)
    elif args.command == "xenum":
        # the value's numerator is at most A(n) max(|p|, q)^degree, and
        # its denominator q^degree
        if args.at is not None:
            digits = len(str(max(abs(args.at.numerator),
                                 args.at.denominator)))
            if ((coeff_count(args.n) - 1) * digits
                    + len(str(a_formula(args.n))) > PRINT_DIGITS):
                parser.error(f"xenum: --at has {digits} digits, so its "
                             f"value at n = {args.n} may exceed the "
                             f"{PRINT_DIGITS}-digit print limit")
        report = cmd_xenum(args.n, args.at)
    elif args.command == "bseq":
        report = cmd_bseq(args.max_n)
    elif args.command == "verify":
        report = cmd_verify(args.suite, args.n, args.workers, args.seed)
    else:
        report = cmd_table(args.max_n, args.fmt)
    report.wall_time = time.monotonic() - t0
    return report


def main(argv=None):
    report = run(argv)
    _print_report(report, sys.stdout)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
