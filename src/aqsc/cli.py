"""Command-line front end for tessellation code design.

Subcommands: params (one design), enumerate (all admissible designs on a
surface), tables (the shipped reference tables 1-5), figures (rate and
asymmetry series, 5 and 6 in the shipped numbering) and verify (internal
consistency suites).

Output is csv (default), json or markdown, chosen per command with
--format or globally with the AQSC_FORMAT environment variable.  Reals are
printed to four decimals in every format; json keeps full precision
alongside the display strings, plus provenance and footnotes that the
fixed csv schema has no room for.  Exit codes: 0 success, 1 usage error
or output that cannot be written, 2 inadmissible design; verify exits 2 +
the number of failed checks, capped at 120.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import catalog, checks, design, homology
from .design import (
    CodeParameters,
    asymmetry_curve,
    closed_form_family,
    code_parameters,
    enumerate_admissible,
    rate_comparison,
)
from .geometry import SchlafliSymbol, Surface

FORMATS = ("csv", "json", "markdown")
SCHEMA = ("p", "q", "n_f", "l_pq", "n", "k", "d_z", "d_x")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INADMISSIBLE = 2

# shipped table numbering -> non-orientable genus; the families table comes last
_TABLE_GENUS = {str(i): genus for i, genus in enumerate(sorted(catalog.TABLES), 1)}
_FAMILIES = str(len(_TABLE_GENUS) + 1)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here reserves 2 for
    # inadmissible designs
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(lo: int) -> Callable[[str], int]:
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    return convert


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _fmt_real(x: float) -> str:
    return f"{x:.4f}"


def _display(value: object) -> str:
    if isinstance(value, float):
        return _fmt_real(value)
    return str(value)


def emit(columns: Sequence[str], rows: Sequence[dict], fmt: str,
         json_columns: Optional[Sequence[str]] = None) -> None:
    """Write rows in the requested format.

    csv and markdown show exactly `columns`; json shows `json_columns`
    when given (extra bookkeeping fields) and adds a *_display string for
    every real so the 4-decimal table form survives the round trip.
    """
    out = sys.stdout
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_display(row[c]) for c in columns])
    elif fmt == "markdown":
        out.write("| " + " | ".join(columns) + " |\n")
        out.write("|" + "|".join(" --- " for _ in columns) + "|\n")
        for row in rows:
            out.write("| " + " | ".join(_display(row[c]) for c in columns) + " |\n")
    elif fmt == "json":
        cols = list(json_columns or columns)
        payload = []
        for row in rows:
            item = {}
            for c in cols:
                v = row[c]
                item[c] = str(v) if isinstance(v, Fraction) else v
                if isinstance(v, float):
                    item[c + "_display"] = _fmt_real(v)
            payload.append(item)
        out.write(json.dumps({"columns": cols, "rows": payload}, indent=2) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _resolve_format(chosen: Optional[str], fallback: str) -> str:
    if chosen:
        return chosen
    env = os.environ.get("AQSC_FORMAT")
    if not env:
        return fallback
    if env not in FORMATS:
        raise ValueError(f"AQSC_FORMAT must be one of {FORMATS}, got {env!r}")
    return env


def _schema_row(cp: CodeParameters, note: str = "") -> dict:
    return {
        "p": cp.sym.p, "q": cp.sym.q, "n_f": cp.n_f, "l_pq": cp.l_pq,
        "n": cp.n, "k": cp.k, "d_z": cp.d_z, "d_x": cp.d_x,
        "provenance": cp.distance_provenance, "note": note,
    }


# ---------------------------------------------------------------- commands

def _cmd_params(ns: argparse.Namespace) -> int:
    fmt = _resolve_format(ns.format, "csv")
    # an inadmissible pair raises NotAdmissible, which main() maps to exit 2
    cp = code_parameters(Surface(ns.genus, ns.orientable), SchlafliSymbol(ns.p, ns.q))
    emit(SCHEMA, [_schema_row(cp)], fmt,
         json_columns=SCHEMA + ("provenance",))
    return EXIT_OK


def _cmd_enumerate(ns: argparse.Namespace) -> int:
    fmt = _resolve_format(ns.format, "csv")
    p_max = ns.p_max if ns.p_max is not None else ns.max
    q_max = ns.q_max if ns.q_max is not None else ns.max
    surface = Surface(ns.genus, ns.orientable)
    # a non-hyperbolic surface yields [], an empty stream and not an error
    rows = enumerate_admissible(surface, p_max, q_max, ns.min_rate)
    emit(SCHEMA, [_schema_row(cp) for cp in rows], fmt,
         json_columns=SCHEMA + ("provenance",))
    bound = design.symbol_bound(surface)
    if min(p_max, q_max) < bound:
        # on stderr, so that stdout stays the list alone in every format; the
        # list goes out first, whole even if the note cannot be written
        sys.stdout.flush()
        print(f"note: p and q scanned up to {p_max} and {q_max}, below the bound {bound} "
              f"on admissible symbols; the list may be cut (--max {bound} lists all)",
              file=sys.stderr)
    return EXIT_OK


def _cmd_tables(ns: argparse.Namespace) -> int:
    fmt = _resolve_format(ns.format, "csv")
    if ns.which in (_FAMILIES, "families"):
        columns = ("p", "q", "n_f", "n", "k")
        rows = []
        for fr in catalog.FAMILY_ROWS:
            fam = closed_form_family(fr.sym)
            rows.append({"p": fr.p, "q": fr.q, "n_f": fam.n_f_form,
                         "n": fam.n_form, "k": "g"})
        emit(columns, rows, fmt)
        return EXIT_OK
    genus = _TABLE_GENUS[ns.which]
    table = catalog.TABLES[genus]
    rows = [_schema_row(catalog.computed_parameters(genus, r), note=r.note or "")
            for r in table.rows]
    emit(SCHEMA, rows, fmt, json_columns=SCHEMA + ("provenance", "note"))
    return EXIT_OK


def _cmd_figures(ns: argparse.Namespace) -> int:
    fmt = _resolve_format(ns.format, "csv")
    if ns.which in ("5", "rates"):
        genera = ns.genera or list(range(3, 30, 2))
        columns = ("p", "q", "genus", "rate_orientable", "rate_non_orientable", "ratio")
        rows = []
        for g in genera:
            for fr in catalog.FAMILY_ROWS:
                rc = rate_comparison(fr.sym, g)
                rows.append({"p": fr.p, "q": fr.q, "genus": g,
                             "rate_orientable": rc.orientable,
                             "rate_non_orientable": rc.non_orientable,
                             "ratio": rc.ratio})
        emit(columns, rows, fmt)
        return EXIT_OK
    genera = ns.genera or list(range(5, 32, 2))
    sym = SchlafliSymbol(ns.p, ns.q)
    pts = asymmetry_curve(sym, genera)
    columns = ("genus", "d_z", "d_x", "gap")
    emit(columns, [pt._asdict() for pt in pts], fmt)
    return EXIT_OK


# ------------------------------------------------------------------ verify

def _cmd_verify(ns: argparse.Namespace) -> int:
    fmt = _resolve_format(ns.format, "json")
    suites = checks.SUITES if ns.suite == "all" else (ns.suite,)
    # suites are looked up at call time, so a test can substitute one
    rows = [{"suite": s, "name": c.name, "ok": c.ok, "detail": c.detail}
            for s in suites for c in getattr(checks, s)()]
    failures = sum(1 for r in rows if not r["ok"])
    if fmt == "json":
        print(json.dumps({"suites": list(suites), "checks": rows,
                          "passed": len(rows) - failures, "failed": failures}, indent=2))
    else:
        emit(("suite", "name", "ok", "detail"), rows, fmt)
    if failures:
        return min(2 + failures, 120)
    return EXIT_OK


# ------------------------------------------------------------------- parser

def _add_orientability(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--orientable", dest="orientable", action="store_true")
    group.add_argument("--non-orientable", dest="orientable", action="store_false")


def build_parser() -> _Parser:
    parser = _Parser(prog="aqsc",
                     description="Design asymmetric surface codes from "
                                 "hyperbolic tessellations.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log skipped genera and other notices")
    sub = parser.add_subparsers(dest="command", required=True)
    formats = argparse.ArgumentParser(add_help=False)
    formats.add_argument("--format", choices=FORMATS)

    p = sub.add_parser("params", parents=[formats], help="parameters of one {p,q} design")
    p.add_argument("-p", type=_int_at_least(3), required=True)
    p.add_argument("-q", type=_int_at_least(3), required=True)
    p.add_argument("-g", "--genus", type=_int_at_least(1), required=True)
    _add_orientability(p)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("enumerate", parents=[formats], help="all admissible designs on a surface")
    p.add_argument("-g", "--genus", type=_int_at_least(1), required=True)
    _add_orientability(p)
    p.add_argument("--max", type=_int_at_least(3), default=40,
                   help="bound on both p and q (default 40)")
    p.add_argument("--p-max", type=_int_at_least(3), default=None,
                   help="override the p bound")
    p.add_argument("--q-max", type=_int_at_least(3), default=None,
                   help="override the q bound")
    p.add_argument("--min-rate", type=_fraction, default=None,
                   help="keep designs with k/n at least this (e.g. 1/20)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("tables", parents=[formats], help="emit a shipped reference table")
    p.add_argument("which", choices=(*_TABLE_GENUS, _FAMILIES, "families"),
                   help=f"1-{len(_TABLE_GENUS)}: genus {'/'.join(map(str, _TABLE_GENUS.values()))} "
                        f"designs; {_FAMILIES}: closed-form families")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("figures", parents=[formats], help="rate and asymmetry series data")
    p.add_argument("which", choices=("5", "6", "rates", "asymmetry"),
                   help="5/rates: family rates per odd genus; "
                        "6/asymmetry: d_z - d_x growth")
    p.add_argument("-p", type=_int_at_least(3), default=3,
                   help="tessellation for the asymmetry series (default 3)")
    p.add_argument("-q", type=_int_at_least(3), default=7,
                   help="tessellation for the asymmetry series (default 7)")
    p.add_argument("--genera", type=_int_at_least(1), nargs="+",
                   help="override the default odd-genus range")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("verify", parents=[formats], help="run internal consistency checks")
    p.add_argument("suite", nargs="?", choices=("all",) + checks.SUITES,
                   default="all")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help and usage errors by exiting; keep main()
        # callable as a plain function
        return int(exc.code or 0)
    logging.basicConfig(level=logging.INFO if ns.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return ns.func(ns)
    except (design.NotAdmissible, homology.NoLogicals) as exc:
        print(f"inadmissible: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except ValueError as exc:   # GeometryError, DesignError and HomologyError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_entry() -> None:
    """`main` as a script: output that cannot be written exits 1, with no
    traceback and, on a pipe whose reader has gone, in silence."""
    try:
        if sys.stdout is None:   # started with stdout closed
            raise OSError("stdout is closed")
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is not None:
            # the unwritten buffer goes to devnull, so the flush at exit
            # cannot fail again (the recipe in Python's signal docs)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            try:
                print(f"error: cannot write output: {exc}", file=sys.stderr)
            except OSError:   # stderr is the stream that failed
                pass
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    console_entry()
