"""``python -m repro.analysis`` - lint and HB-check the repo.

Subcommands::

    lint [PATHS...] [--json | --sarif] [--rules] [--cache FILE]
        Run the determinism/DES/protocol/durability lint rules over
        Python sources (default: src/).  Everything named is linked
        into one program (a single file is a one-module program):
        call graph, fixed-point effect inference, then one rule per
        id reporting the direct sites and every call site that
        reaches one, with the chain.  ``--cache FILE`` keeps a
        content-hash incremental cache: unchanged modules are neither
        re-parsed nor re-checked.  Exit 1 on findings, 2 on a missing
        path or a source that cannot be parsed
        (``path:line: cannot parse: ...`` on stderr).

    effects NAME... [--json] [--dump FILE]
        Explain a function's inferred effect set: direct and
        transitive atoms with the call-propagation chain down to each
        direct site.  NAME matches a qualified name, a suffix, or a
        substring.  ``--dump FILE`` writes the whole effects database
        as JSON (the nightly artifact) - NAMEs become optional.

    check-trace FILES... [--json]
        Replay happens-before record streams (written by
        ``dump_hb_json`` or a benchmark's ``--check-hb``) through the
        vector-clock checker.  Exit 1 on races.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .engine import SourceError, render, render_sarif
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
    from .engine import lint_paths

    paths = args.paths or ["src"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    violations = lint_paths(paths, cache=args.cache)
    if args.sarif:
        print(render_sarif(violations))
    else:
        print(render(violations, as_json=args.json))
    return 1 if violations else 0


def _cmd_effects(args: argparse.Namespace) -> int:
    from .effects import effect_db
    from .engine import LintEngine

    mods = LintEngine(rules=[]).load_modules(args.paths or ["src"])
    if not mods:
        print("no modules found", file=sys.stderr)
        return 1
    db = effect_db(mods[0].program)
    if args.dump:
        with open(args.dump, "w") as fh:
            json.dump(db.to_dict(), fh, indent=1, sort_keys=True)
        print(f"effects database -> {args.dump}")
        if not args.names:
            return 0
    if not args.names:
        print("name one or more functions (or use --dump)", file=sys.stderr)
        return 1
    status = 0
    payload = []
    for name in args.names:
        matches = db.lookup(name)
        if not matches:
            if args.json:
                payload.append({"query": name, "matches": []})
            else:
                print(f"{name}: no matching function")
            status = 1
            continue
        for q in matches:
            if args.json:
                payload.append({
                    "query": name,
                    "function": q,
                    "effects": [
                        {
                            "atom": list(eff.atom),
                            "line": eff.line,
                            "direct": eff.direct,
                            "chain": list(eff.chain),
                        }
                        for _, eff in sorted(
                            db.of(q).items(),
                            key=lambda kv: (kv[0][0], str(kv[0][1:])),
                        )
                    ],
                })
            else:
                print(db.explain(q))
    if args.json:
        print(json.dumps({"results": payload}, indent=1))
    return status


def _cmd_check_trace(args: argparse.Namespace) -> int:
    results = []
    total = 0
    for path in args.files:
        races = check_trace(load_hb_json(path))
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
        "--sarif", action="store_true",
        help="emit SARIF 2.1.0 (GitHub code scanning)",
    )
    p_lint.add_argument(
        "--rules", action="store_true", help="list the shipped rules"
    )
    p_lint.add_argument(
        "--cache", metavar="FILE", default=None,
        help="content-hash incremental cache file",
    )
    p_lint.set_defaults(fn=_cmd_lint)

    p_eff = sub.add_parser(
        "effects", help="explain inferred effect sets"
    )
    p_eff.add_argument(
        "names", nargs="*",
        help="function names (qualified, suffix, or substring)",
    )
    p_eff.add_argument(
        "--paths", nargs="*", default=None,
        help="files/dirs to analyze (default: src)",
    )
    p_eff.add_argument("--json", action="store_true")
    p_eff.add_argument(
        "--dump", metavar="FILE", default=None,
        help="write the whole effects database as JSON",
    )
    p_eff.set_defaults(fn=_cmd_effects)

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
