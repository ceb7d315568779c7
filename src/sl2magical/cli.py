"""Command-line surface.

Four subcommands: orbit (sl2-data of one complex orbit), classify
(magical orbits of one real form), slodowy (parameter count vs expected
dimension), verify (the cross-check suite).  Output formats: an aligned
text table, csv with a header row, or a single json document.

Exit codes: 0 success, 1 verification mismatch, 2 argument or domain
error, 3 missing data, 4 internal error (a broken internal invariant).

main(argv) may be called repeatedly in one process.  Both parsers read
one argument table, COMMANDS, compiled once at import into one reader per
subcommand for a plain command: the subcommand, its positionals, then each
flag spelled in full as --flag value.  argparse is built only for help, an
error or any other spelling, on the first such call, and reused by every
later one.  The results are the same either way.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from itertools import chain, tee
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .crosscheck import run_all
from .dataset import evaluate_conditions, find_record, load_records
from .errors import DatasetSchemaError, DomainError, MissingDataError
from .families import FAMILIES
from .magical import MagicalStatus, classify_realform, magical_statuses, partition_witness
from .moduli import rigidity_report
from .orbits import (
    Partition,
    parse_digits,
    signed_data,
    weighted_dynkin_from_partition,
)
from .realforms import RealFormDescriptor, describe
from .rootsystems import CLASSICAL_RANK_CAP, LieType, WeightedDynkinDiagram
from .sl2data import closed_dims, multiplicities_formula

# ---------------------------------------------------------------- rendering


def _emit_grid(header: Sequence[str], body: List[Sequence[str]]) -> str:
    table = [list(header)] + [list(r) for r in body]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in table]
    return "\n".join(lines)


def _emit_csv(header: Sequence[str], body: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(body)
    return buf.getvalue().rstrip("\n")


def _print(text: str) -> None:
    sys.stdout.write(text + "\n")


def _print_record(fmt: str, doc: Dict, rows: Optional[List[Tuple[str, str]]] = None) -> None:
    """One record: the json document, or its (field, value) rows as csv or
    as an aligned table.  Without rows, each field of doc is one row, a
    dict value written as json, built for csv and table only."""
    if fmt == "json":
        _print(json.dumps(doc))
        return
    if rows is None:
        rows = [(k, json.dumps(v) if isinstance(v, dict) else str(v)) for k, v in doc.items()]
    if fmt == "csv":
        _print(_emit_csv(("field", "value"), rows))
    else:
        _print(_emit_grid(rows[0], rows[1:]))


def _wdd_orbit(labels: Sequence[int]) -> str:
    return "wdd " + " ".join(str(x) for x in labels)


# ---------------------------------------------------------------- commands


def cmd_orbit(args: argparse.Namespace) -> int:
    t = LieType.of(args.type, args.rank)
    p = Partition.parse(args.partition)
    wdd = weighted_dynkin_from_partition(t, p)
    n = multiplicities_formula(t, p)
    dim_c, dim_g0, dim_v_rho = closed_dims(t, p)
    doc = {
        "type": t.name,
        "partition": str(p),
        "wdd": list(wdd.labels),
        "n": {str(j): n[j] for j in sorted(n)},
        "dim_c": dim_c,
        "dim_g0": dim_g0,
        "dim_v_rho": dim_v_rho,
    }
    rows = [("type", doc["type"]), ("partition", doc["partition"]),
            ("wdd", " ".join(str(x) for x in doc["wdd"]))]
    rows += [(f"n_{j}", str(n.get(j, 0))) for j in range(max(n) + 1)]
    rows += [("dim_c", str(doc["dim_c"])), ("dim_g0", str(doc["dim_g0"])),
             ("dim_v_rho", str(doc["dim_v_rho"]))]
    _print_record(args.format, doc, rows)
    return 0


def _classify_row(orbit: str, status: MagicalStatus, sign_choices: int) -> Dict:
    w = status.witness
    return {
        "orbit": orbit,
        "verdict": str(status.verdict),
        "m_minus_h": w.m_minus_h,
        "g0_minus_2c": w.g0_minus_2c,
        "centralizer_compact": w.centralizer_compact,
        "even_triple": w.even_triple,
        "centralizer": str(status.centralizer),
        "sign_choices": sign_choices,
    }


def _classify_rows_exceptional(form: RealFormDescriptor) -> List[Dict]:
    records = [rec for rec in load_records() if rec.realform == form.family]
    if not records:
        raise MissingDataError(f"no curated records for {form.family}")
    statuses = [(rec, evaluate_conditions(rec)) for rec in records]
    return [_classify_row(_wdd_orbit(rec.wdd), status, 1)
            for rec, status in statuses if status.verdict.is_magical]


def cmd_classify(args: argparse.Namespace) -> int:
    form = describe(args.family, args.params)
    if form.is_exceptional:
        rows = _classify_rows_exceptional(form)
    else:
        rows = [_classify_row(str(row.label), row.status, row.data_count)
                for row in classify_realform(form.family, form.params)]
    if args.format == "json":
        _print(json.dumps({"realform": form.name, "rows": rows}))
        return 0
    header = ("orbit", "verdict", "m-h", "g0-2c", "compact", "parity",
              "centralizer", "signs")
    body = [(r["orbit"], r["verdict"], str(r["m_minus_h"]), str(r["g0_minus_2c"]),
             "yes" if r["centralizer_compact"] else "no",
             "even" if r["even_triple"] else "odd",
             r["centralizer"], str(r["sign_choices"])) for r in rows]
    if args.format == "csv":
        _print(_emit_csv(header, body))
    else:
        _print(f"{form.name}: {len(rows)} magical orbit(s)")
        if body:
            _print(_emit_grid(header, body))
    return 0


def cmd_slodowy(args: argparse.Namespace) -> int:
    family = args.family
    form = describe(family, args.params)
    if form.is_exceptional:
        if args.partition is not None:
            raise DomainError(f"{family} takes --wdd, not --partition")
        if args.wdd is None:
            raise DomainError(f"{family} needs --wdd to pick the orbit")
        try:
            labels = tuple(parse_digits(x.strip(" ")) for x in args.wdd.split(","))
        except ValueError:
            raise DomainError(f"{family}: cannot parse --wdd {args.wdd!r}") from None
        try:
            orbit = WeightedDynkinDiagram(form.ambient, labels).labels
        except DomainError as exc:
            raise DomainError(f"{family}: {exc}") from None
        record = find_record(family, orbit)
        if record is None:
            raise MissingDataError(f"no curated record for {family} orbit {orbit}")
        report = rigidity_report(args.genus, record)
        orbit_str = _wdd_orbit(orbit)
        signs = ""
    else:
        if args.wdd is not None:
            raise DomainError(f"{form.name} takes --partition, not --wdd")
        if args.partition is None:
            raise DomainError(f"{form.name} needs --partition")
        p = Partition.parse(args.partition)
        data = signed_data(family, form.params, p)
        chosen = next(data, None)
        if chosen is None:
            raise DomainError(f"{p} does not meet {form.name}")
        best = partition_witness(form, p)
        if best.verdict.is_magical:  # else no datum of p is magical: keep the first
            scan, statuses = tee(chain((chosen,), data))
            chosen = next((signed for signed, status in zip(scan, magical_statuses(best, statuses))
                           if status.verdict.is_magical), chosen)
        report = rigidity_report(args.genus, chosen)
        orbit_str = str(p)
        signs = str(chosen)
    doc = {
        "realform": form.name,
        "orbit": orbit_str,
        "genus": report.genus,
        "slodowy_param_dim": report.slodowy_param_dim,
        "expected_dim": report.expected_dim,
        "gap": report.gap,
        "milnor_wood": report.milnor_wood,
        "dim_c_cap_h": report.dim_c_cap_h,
        "a": {str(w): v for w, v in report.a},
    }
    if signs:
        doc["signs"] = signs
    _print_record(args.format, doc)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if not 1 <= args.max_rank <= CLASSICAL_RANK_CAP:
        raise DomainError(
            f"--max-rank must lie in 1..{CLASSICAL_RANK_CAP}, got {args.max_rank}")
    results = run_all(args.max_rank)
    failures = [r for r in results if not r.passed]
    if args.format == "json":
        _print(json.dumps({"checks": [
            {"name": r.name, "passed": r.passed, "cases": r.cases, "detail": r.detail}
            for r in results], "mismatches": len(failures)}))
        return 1 if failures else 0
    header = ("check", "status", "cases", "detail")
    body = [(r.name, "PASS" if r.passed else "FAIL", str(r.cases), r.detail)
            for r in results]
    if args.format == "csv":
        _print(_emit_csv(header, body))
    else:
        _print(_emit_grid(header, body))
        _print(f"{len(failures)} mismatches")
    return 1 if failures else 0


# ---------------------------------------------------------------- arguments


class Subcommand(NamedTuple):
    """One subcommand: its help line, its cmd_* function, and its
    positionals and flags, each a name with its argparse keywords."""

    help: str
    func: Callable[[argparse.Namespace], int]
    positionals: Tuple[Tuple[str, Dict], ...]
    flags: Tuple[Tuple[str, Dict], ...]


def _digits(token: str) -> int:
    """An integer argument: parse_digits, refused with what was expected.
    argparse prints an ArgumentTypeError's message as it is, where any
    other error would name the converter."""
    try:
        return parse_digits(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected ASCII digits, got {token!r}") from None


_PARAMS = ("params", {"type": _digits, "nargs": "*"})
_FORMAT = ("--format", {"choices": ("json", "csv", "table"), "default": "table"})

# Both parsers read this table.  It binds the cmd_* functions themselves, so
# a patched cmd_* would not be seen; patch the names they look up instead.
COMMANDS = {
    "orbit": Subcommand(
        "sl2-data of one complex nilpotent orbit", cmd_orbit,
        (("type", {"choices": ("A", "B", "C", "D")}), ("rank", {"type": _digits})),
        (("--partition", {"required": True, "help": "e.g. 2,2,1 or 2^2,1"}), _FORMAT)),
    "classify": Subcommand(
        "magical orbits of one real form", cmd_classify,
        (("family", {"help": ", ".join(FAMILIES) + ", or e.g. E6^-14"}), _PARAMS),
        (_FORMAT,)),
    "slodowy": Subcommand(
        "parameter count vs expected dimension", cmd_slodowy,
        (("family", {}), _PARAMS),
        (("--partition", {"help": "orbit partition (classical forms)"}),
         ("--wdd", {"help": "orbit diagram labels (exceptional forms)"}),
         ("--genus", {"type": _digits, "required": True}), _FORMAT)),
    "verify": Subcommand(
        "run the consistency suite", cmd_verify, (),
        (("--max-rank", {"type": _digits, "default": 6}), _FORMAT)),
}


# Built once per process, and only for a command _fast_args declines.
@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2magical",
        description="Extended magical sl2-triples: orbits, classification, "
                    "Slodowy dimension arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for arg, keywords in command.positionals + command.flags:
            p.add_argument(arg, **keywords)
        p.set_defaults(func=command.func)
    return parser


def _converter(keywords: Dict) -> Callable[[str], object]:
    """The value argparse stores for a token: where argparse errors, ValueError
    or ArgumentTypeError, or KeyError for a value outside the choices."""
    convert, choices = keywords.get("type", str), keywords.get("choices")
    if choices is None:
        return convert
    chosen = {choice: choice for choice in choices}
    return lambda token: chosen[convert(token)]


def _reader(name: str, command: Subcommand) -> Tuple:
    """A subcommand compiled for _fast_args: the values its namespace
    starts from (command, func and each optional flag's default), each
    positional's (dest, converter, whether it takes nargs="*"), each
    flag's (dest, converter) by its spelling, and the required flags."""
    flags = {flag: (flag.lstrip("-").replace("-", "_"), _converter(keywords))
             for flag, keywords in command.flags}
    start = {"command": name, "func": command.func}
    start.update((flags[flag][0], keywords.get("default"))
                 for flag, keywords in command.flags if not keywords.get("required"))
    return (start, [(arg, _converter(keywords), "nargs" in keywords)
                    for arg, keywords in command.positionals],
            flags, {flag for flag, keywords in command.flags if keywords.get("required")})


#: COMMANDS compiled once at import.
_READERS = {name: _reader(name, command) for name, command in COMMANDS.items()}


def _fast_args(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """argparse's namespace for a plain command: the subcommand, every
    positional, then each flag once, spelled in full as --flag value.  None
    for anything else, help and errors included, which argparse parses: no
    other token may start with "-", so a negative number goes there too."""
    if not argv or argv[0] not in _READERS:
        return None
    start, positionals, flags, required = _READERS[argv[0]]
    firsts = [token[:1] for token in argv]
    split = firsts.index("-") if "-" in firsts else len(argv)
    heads, tail = iter(argv[1:split]), argv[split:]
    given = dict(zip(tail[::2], tail[1::2]))
    # a flag without its value or given twice, a required flag left out, a value led by "-"
    if len(tail) != 2 * len(given) or not required <= given.keys() or "-" in firsts[split + 1::2]:
        return None
    args = argparse.Namespace()
    values = vars(args)
    values.update(start)
    try:
        for dest, convert, many in positionals:
            values[dest] = list(map(convert, heads)) if many else convert(next(heads))
        for flag, token in given.items():
            dest, convert = flags[flag]
            values[dest] = convert(token)
    except (StopIteration, KeyError, ValueError, argparse.ArgumentTypeError):
        return None  # a positional left out, an unknown flag or a value argparse refuses
    return args if next(heads, None) is None else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _fast_args(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MissingDataError, DatasetSchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
