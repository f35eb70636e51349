"""Command line front end: ``frobkit run session.json`` executes the commands
of a session file and writes one JSON record per command; ``frobkit verify``
runs the built-in property battery.  Reports are deterministic for a fixed
session and seed; timings go to the human summary on stderr only."""
from __future__ import annotations

import argparse
import json
import sys
import time

from .polyring import Limits
from .session import SessionError, load_session_file, run_session
from .verify import run_verify


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobkit",
        description="exact computations with Frobenius-semilinear operators")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute a session file")
    runp.add_argument("session", help="path to a session JSON file")
    runp.add_argument("--out", help="write JSON-lines reports to this path "
                      "instead of stdout")
    runp.add_argument("--spair-budget", type=int, default=Limits.spair,
                      help="Groebner S-pair budget")
    runp.add_argument("--chain-budget", type=int, default=Limits.chain,
                      help="image-chain level budget")
    runp.add_argument("--guard", type=int, default=Limits.guard,
                      help="point/solution enumeration guard")

    verp = sub.add_parser("verify", help="run the built-in property battery")
    verp.add_argument("--seed", type=int, default=0,
                      help="seed for the random instance sets")
    verp.add_argument("--quick", action="store_true",
                      help="run the fast subset only")
    verp.add_argument("--out", help="write JSON-lines reports to this path")
    return parser


def _emit(records: list[dict], out_path) -> None:
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    started = time.monotonic()
    try:
        data = load_session_file(args.session)
        limits = Limits(spair=args.spair_budget, chain=args.chain_budget,
                        guard=args.guard)
        reports = run_session(data, limits)
    except (OSError, SessionError) as exc:
        print(json.dumps({"status": "error", "error": str(exc)}))
        print(f"session rejected: {exc}", file=sys.stderr)
        return 2
    _emit(reports, args.out)
    failed = sum(1 for r in reports if r["status"] != "ok")
    elapsed = time.monotonic() - started
    print(f"{len(reports)} command(s), {failed} error(s), "
          f"{elapsed:.2f}s", file=sys.stderr)
    return 1 if failed else 0


def _cmd_verify(args) -> int:
    started = time.monotonic()
    results = run_verify(seed=args.seed, quick=args.quick)
    _emit(results, args.out)
    failed = [r["name"] for r in results if not r["ok"]]
    elapsed = time.monotonic() - started
    status = "all passed" if not failed else "FAILED: " + ", ".join(failed)
    print(f"{len(results)} check(s), {status}, {elapsed:.2f}s",
          file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
