"""``python -m repro.analysis`` - lint and HB-check the repo.

Subcommands::

    lint [PATHS...] [--json] [--rules]
        Run the determinism/protocol/durability lint rules over Python
        sources (default: src/).  Each rule reports the sites it sees
        in one module; PERSIST002 resolves a class's methods over the
        class hierarchy of everything named.  Exit 1 on findings, 2 on
        a missing path or a source that cannot be parsed
        (``path:line: cannot parse: ...`` on stderr).

    check-trace FILES... [--json]
        Replay happens-before record streams (written by
        ``dump_hb_json`` or a benchmark's ``--check-hb``) through the
        vector-clock checker.  Exit 1 on races, 2 on a file that is
        missing or not an HB trace, or holds an ``hb_*`` record kind
        the checker does not know or a record with the wrong number of
        fields (one line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .._util import ReproError
from .engine import SourceError, lint_paths, render
from .hb import check_trace, load_hb_json
from .rules import rule_table


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.rules:
        rows = rule_table()
        if args.json:
            print(json.dumps({"rules": rows}, indent=1))
        else:
            for r in rows:
                print(f"{r['id']:10s} {r['title']}")
        return 0
    paths = args.paths or ["src"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    violations = lint_paths(paths)
    print(render(violations, as_json=args.json))
    return 1 if violations else 0


def _cmd_check_trace(args: argparse.Namespace) -> int:
    results = []
    total = 0
    for path in args.files:
        records = load_hb_json(path)
        try:
            races = check_trace(records)
        except ReproError as exc:  # an unknown or malformed hb_* record
            raise SourceError(path, 1, str(exc)) from exc
        total += len(races)
        results.append((path, races))
    if args.json:
        print(json.dumps({
            "files": [
                {
                    "path": path,
                    "races": [
                        {
                            "kind": r.kind,
                            "time": r.time,
                            "subject": r.subject,
                            "message": r.message,
                        }
                        for r in races
                    ],
                }
                for path, races in results
            ],
            "count": total,
        }, indent=1))
    else:
        for path, races in results:
            if not races:
                print(f"{path}: race-free")
                continue
            print(f"{path}: {len(races)} race(s)")
            for r in races:
                print("  " + r.format())
    return 1 if total else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_lint = sub.add_parser("lint", help="run the lint rules")
    p_lint.add_argument("paths", nargs="*", help="files/dirs (default: src)")
    p_lint.add_argument("--json", action="store_true")
    p_lint.add_argument(
        "--rules", action="store_true", help="list the shipped rules"
    )
    p_lint.set_defaults(fn=_cmd_lint)

    p_hb = sub.add_parser(
        "check-trace", help="happens-before check recorded HB traces"
    )
    p_hb.add_argument("files", nargs="+", help="HB trace JSON files")
    p_hb.add_argument("--json", action="store_true")
    p_hb.set_defaults(fn=_cmd_check_trace)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SourceError as exc:
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went away mid-print (e.g. piped into `head`): exit
        # quietly instead of dumping a traceback.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
