"""Seeded command lists for the three benchmark workloads.

Everything here is computed from first principles (partitions, the su
signature test, the complex rank of each classical form), not from the
package, so that a change to the package's own enumerators cannot change
what the benchmark asks.  The seed only shuffles the command order and
picks the genus of each slodowy command; the set of commands is fixed.
"""

from __future__ import annotations

import contextlib
import io
import random
from typing import Iterator, List, NamedTuple, Tuple

RANK_CAP = 12  # largest complex rank the package accepts for classical types
SIZE_BOUND = 12  # size bound of the classify scan, in the package's size units
VERIFY_MAX_RANK = 10
GENUS_RANGE = (2, 9)

#: Exceptional tokens with a curated record in the shipped dataset.
RECORDED_TOKENS = ("E6^-14", "E6^-26", "E7^7", "E8^8")
#: Exceptional tokens without one.  They must exit 3 ("no data"); today they
#: print "0 magical orbit(s)" and exit 0, a known defect the benchmark counts
#: as failed commands instead of hiding.
NO_RECORD_TOKENS = ("E6^6", "E6^2", "E7^-5", "E7^-25", "E8^-24", "F4^4", "F4^-20", "G2^2")

E6_ODD_WDD = "1,0,0,0,0,1"


class Command(NamedTuple):
    argv: Tuple[str, ...]
    expect_exit: int


def run_cli(argv: Tuple[str, ...]) -> Tuple[int, str]:
    """Exit code and standard output of ``sl2magical.cli.main(argv)``.

    The package is imported here, at each call, so that a re-imported or
    traced ``cli.main`` is the one that runs.
    """
    from sl2magical import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejections
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def partitions(n: int, max_part: int = 0) -> Iterator[Tuple[int, ...]]:
    """Partitions of n as weakly decreasing tuples, descending order."""
    if n == 0:
        yield ()
        return
    for first in range(min(max_part or n, n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def meets_su(p: int, q: int, parts: Tuple[int, ...]) -> bool:
    """Whether some leading-sign choice gives signature (p, q).

    A row of length i starting with + has ceil(i/2) plus boxes, one
    starting with - has floor(i/2); each row length contributes any count
    between those two extremes over its rows.
    """
    reachable = {0}
    for i in sorted(set(parts)):
        r = parts.count(i)
        steps = {a * ((i + 1) // 2) + (r - a) * (i // 2) for a in range(r + 1)}
        reachable = {x + s for x in reachable for s in steps}
    return sum(parts) == p + q and p in reachable


def complex_rank(family: str, params: Tuple[int, ...]) -> int:
    if family in ("su", "so", "sp"):
        size = params[0] + params[1]
        return {"su": size - 1, "so": size // 2, "sp": size}[family]
    (n,) = params
    return {"sl": n - 1, "sustar": 2 * n - 1, "sostar": n, "spr": n}[family]


def classical_forms() -> List[Tuple[str, Tuple[int, ...]]]:
    """Classical forms of the classify scan: the documented size ranges at
    SIZE_BOUND, pairs with p <= q, complex rank at most RANK_CAP."""
    pairs = [(p, q) for q in range(1, SIZE_BOUND) for p in range(1, q + 1)
             if p + q <= SIZE_BOUND]
    forms = [("su", pq) for pq in pairs]
    forms += [("sl", (n,)) for n in range(2, SIZE_BOUND + 1)]
    forms += [("sustar", (m,)) for m in range(2, SIZE_BOUND + 1)]
    forms += [("so", pq) for pq in pairs if sum(pq) >= 5]
    forms += [("sostar", (m,)) for m in range(3, SIZE_BOUND + 1)]
    forms += [("spr", (n,)) for n in range(2, SIZE_BOUND + 1)]
    forms += [("sp", pq) for pq in pairs]
    return [(fam, params) for fam, params in forms if complex_rank(fam, params) <= RANK_CAP]


def classify_commands() -> List[Command]:
    out = [Command(("classify", fam, *map(str, params), "--format", "json"), 0)
           for fam, params in classical_forms()]
    out += [Command(("classify", tok, "--format", "json"), 0) for tok in RECORDED_TOKENS]
    out += [Command(("classify", tok, "--format", "json"), 3) for tok in NO_RECORD_TOKENS]
    return out


def _part_arg(parts: Tuple[int, ...]) -> str:
    return ",".join(map(str, parts))


def slodowy_targets() -> List[Tuple[str, ...]]:
    """argv heads (without genus/format) of the slodowy sweep."""
    out = []
    for n in range(2, RANK_CAP + 1):
        for q in range(1, n):
            p = n - q
            if p <= q:
                out += [("slodowy", "su", str(p), str(q), "--partition", _part_arg(parts))
                        for parts in partitions(n) if meets_su(p, q, parts)]
        out += [("slodowy", "sl", str(n), "--partition", _part_arg(parts))
                for parts in partitions(n)]
    out.append(("slodowy", "E6^-14", "--wdd", E6_ODD_WDD))
    return out


def generate(workload: str, seed: int) -> List[Command]:
    """The workload's command list for this seed."""
    rng = random.Random(seed)
    if workload == "verify":
        return [Command(("run_all", str(VERIFY_MAX_RANK)), 0)]
    if workload == "classify":
        cmds = classify_commands()
    elif workload == "slodowy":
        cmds = [Command(head + ("--genus", str(rng.randint(*GENUS_RANGE)), "--format", "json"), 0)
                for head in slodowy_targets()]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cmds)
    return cmds
