"""Command-line front end.

Subcommands: count, xenum, bseq, verify, table.  All output is exact:
big integers, rationals as p/q, and polynomial coefficient lists.  Exit
status is 0 iff every requested check passed; invalid input exits 2 with
a one-line message.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction

from .asm import ENUM_BOUND, count_asms_brute
from .formulas import a2_formula, a3_formula, a_formula, b_chain
from .transfer import DEFAULT_BOUND, transfer_count
from .verify import SUITE_NAMES, run_suite


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

#: largest n each counting method accepts (None: no bound)
COUNT_BOUNDS = {"brute": ENUM_BOUND, "transfer": DEFAULT_BOUND,
                "formula": None}


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
        report.emit(_format_rational(poly(Fraction(at))))
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
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "a1", "a2", "a3", "poly"])
        for r in rows:
            writer.writerow([r["n"], r["a1"], r["a2"], r["a3"],
                             ";".join(str(c) for c in r["poly"].ascending())])
        for line in buf.getvalue().splitlines():
            report.emit(line)
    elif fmt == "text":
        header = f"{'n':>3} {'A(n;1)':>16} {'A(n;2)':>16} {'A(n;3)':>20}  A(n;x)"
        report.emit(header)
        for r in rows:
            report.emit(f"{r['n']:>3} {r['a1']:>16} {r['a2']:>16} "
                        f"{r['a3']:>20}  {r['poly']}")
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    return report


def _format_rational(v):
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v}"


def _parse_rational(text):
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
    """An ArgumentParser that reports bad input in one line, exit status 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="asmice",
        description="Exact alternating-sign-matrix counting and the "
                    "six-vertex identities behind it.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="A(n;1) by one or more methods")
    p.add_argument("--n", type=_size(), required=True)
    p.add_argument("--method", type=_parse_methods, default=("formula",),
                   help="comma-separated subset of brute,transfer,formula")

    p = sub.add_parser("xenum", help="the x-enumeration polynomial A(n;x)")
    p.add_argument("--n", type=_size(DEFAULT_BOUND), required=True)
    p.add_argument("--at", type=_parse_rational, default=None,
                   help="evaluate at a rational x given as p/q")

    # B(n+1;x) needs A(n;x) only, so the chain reaches one past the bound
    p = sub.add_parser("bseq", help="the B(n;x) factorization chain")
    p.add_argument("--max-n", type=_size(DEFAULT_BOUND + 1), required=True,
                   dest="max_n")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p.add_argument("--n", type=_size(), default=None,
                   help="size bound override for the suite")
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
            limit = COUNT_BOUNDS[m]
            if limit is not None and args.n > limit:
                parser.error(f"count: --n {args.n} exceeds the {m} bound "
                             f"{limit}")
        report = cmd_count(args.n, args.method)
    elif args.command == "xenum":
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
