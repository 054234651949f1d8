"""Command-line front end.

Reads one network specification, evaluates ``go(...)`` queries against
it, and prints one tab-separated verdict line per query.  Exit status:

    0  every query evaluated
    1  the specification or a query did not parse / validate
    2  the specification, the ``--queries`` file or standard input could
       not be read (argparse errors too)
    3  a search gave up: a zone or time limit, or an inexact witness
    4  self-test found configurations disagreeing on a verdict
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .explorer import ExploreResult, SearchOptions, Verdict, explore
from .model import Network, Query, ValidationError
from .parser import ParseError, parse_query, parse_spec

OK, BAD_INPUT, NO_FILE, GAVE_UP, DIVERGED = 0, 1, 2, 3, 4


def _build_argparser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zonereach",
        description="Zone-based reachability checking for networks of timed automata.",
    )
    p.add_argument("spec", help="network specification file")
    p.add_argument("--backend", choices=("dbm", "formula"), default="dbm")
    p.add_argument("--order", choices=("dfs", "bfs"), default="dfs")
    p.add_argument("--subsume", choices=("equal", "include"), default="include",
                   help="visited-state pruning (default: include)")
    p.add_argument("--no-extrapolate", action="store_true",
                   help="no abstraction: prune only by exact zones "
                        "(termination not guaranteed)")
    p.add_argument("--stats", action="store_true", help="print a stats line per query")
    p.add_argument("--witness", action="store_true",
                   help="print the label sequence for reachable targets")
    p.add_argument("--max-zones", type=int, default=None, metavar="N",
                   help="give up after storing N zones")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="give up after S seconds per query")
    p.add_argument("--query", action="append", default=[], metavar="TEXT",
                   help="inline query; repeatable")
    p.add_argument("--queries", default=None, metavar="FILE",
                   help="file with one query per line")
    p.add_argument("--selftest", action="store_true",
                   help="run every query under both backends and both orders "
                        "and report agreement")
    return p


def _search_options(args) -> SearchOptions:
    if args.selftest and args.witness:
        raise ValueError("--selftest prints no witnesses; drop --witness")
    return SearchOptions(
        backend=args.backend,
        order=args.order,
        subsumption=args.subsume,
        extrapolate=not args.no_extrapolate,
        max_zones=args.max_zones,
        max_seconds=args.timeout,
    )


def _read(path: Optional[str]) -> Optional[str]:
    """The text of a UTF-8 file, or of standard input when ``path`` is
    None; None once the reason it cannot be read is printed."""
    try:
        if path is None:
            if sys.stdin is None:  # started with standard input closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            return sys.stdin.buffer.read().decode("utf-8")
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        reason = err.strerror
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    name = "<stdin>" if path is None else path
    print(f"zonereach: cannot read {name}: {reason}", file=sys.stderr)
    return None


def _print_diagnostics(prefix: str, err: Exception) -> None:
    if isinstance(err, (ParseError, ValidationError)):
        for d in err.diagnostics:
            print(f"{prefix}: {d}", file=sys.stderr)
    else:
        print(f"{prefix}: {err}", file=sys.stderr)


def _selftest(
    net: Network, queries: list[tuple[str, Query]], base: SearchOptions, stats: bool
) -> int:
    agreed = 0
    for text, query in queries:
        verdicts = {}
        for backend in ("dbm", "formula"):
            for order in ("dfs", "bfs"):
                options = replace(base, backend=backend, order=order)
                outcome = explore(net, query, options)
                verdicts[(backend, order)] = outcome.verdict
                if stats:
                    print(f"# stats: {backend}/{order} {outcome.stats}")
        if any(v is Verdict.INCONCLUSIVE for v in verdicts.values()):
            print(f"inconclusive: {text}", file=sys.stderr)
            return GAVE_UP
        if len(set(verdicts.values())) > 1:
            print(f"divergence: {text}", file=sys.stderr)
            for (backend, order), verdict in sorted(verdicts.items()):
                print(f"  {backend}/{order}: {verdict}", file=sys.stderr)
            return DIVERGED
        agreed += 1
    print(f"agree: {agreed}/{len(queries)}")
    return OK


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        options = _search_options(args)
    except ValueError as err:
        print(f"zonereach: {err}", file=sys.stderr)
        return BAD_INPUT

    text = _read(args.spec)
    if text is None:
        return NO_FILE
    try:
        net = parse_spec(text)
    except (ParseError, ValidationError) as err:
        _print_diagnostics(args.spec, err)
        return BAD_INPUT

    lines: list[str] = list(args.query)
    if args.queries is not None or not args.query:
        listed = _read(args.queries)
        if listed is None:
            return NO_FILE
        lines.extend(listed.splitlines())
    queries: list[tuple[str, Query]] = []
    failed = False
    for line in lines:
        line = line.split("//", 1)[0].strip()
        if not line:
            continue
        try:
            queries.append((line, parse_query(line, net)))
        except ParseError as err:
            _print_diagnostics(f"query {line!r}", err)
            failed = True
    if failed:
        return BAD_INPUT

    if args.selftest:
        return _selftest(net, queries, options, args.stats)

    status = OK
    for text, query in queries:
        outcome: ExploreResult = explore(net, query, options)
        if outcome.verdict is Verdict.INCONCLUSIVE:
            print(f"zonereach: {text}: {outcome.reason}", file=sys.stderr)
            status = GAVE_UP
        else:
            print(f"{text}\t{outcome.verdict}")
        if args.witness and outcome.verdict is Verdict.REACHABLE:
            steps = " ".join(label.name for label in outcome.witness)
            print(f"# witness: {steps}" if steps else "# witness: (empty)")
        if args.stats:
            print(f"# stats: {outcome.stats}")
    return status


if __name__ == "__main__":
    sys.exit(main())
