"""Batch entry point: verify, lint, extract, formalize, export, corpus.

Exit codes: 0 when the verdict is Verified/Equivalent (or every corpus row
matches its expectation), 1 for DontKnow/NotEquivalent/Inconclusive (or a
corpus mismatch), 2 for unreadable, unparsable, or otherwise unusable
input.  Reports are JSON by default (``--pretty`` for humans).
"""

from __future__ import annotations

# A launch compiles and runs only what its command needs.  This module
# parses the arguments, building only the subparser of the command that
# argv names first.
# verify-msan, verify-equiv and lint run ``check.cmd_check``, which loads
# one vocabulary section of ``facts`` and one verifier; the other four
# commands are in ``commands``, imported only for them, and import the
# Datalog layer, the loop and the toy language themselves.

import argparse
import sys

from . import __version__
from .check import cmd_check
from .facts import EQUIV, MSAN

# The commands that ``check.cmd_check`` runs; each other one runs
# ``commands.cmd_<name>``.
_CHECKS = ("verify-msan", "verify-equiv", "lint")


def _add_pretty(p) -> None:
    p.add_argument("--pretty", action="store_true", help="human-readable output")
    p.add_argument("--json", dest="pretty", action="store_false",
                   help="JSON output (default)")


def _add_sections(p) -> None:
    p.add_argument("--code1")
    p.add_argument("--code2")
    p.add_argument("--correspondence")


def _verify_msan_arguments(p) -> None:
    p.add_argument("input", metavar="facts")
    _add_pretty(p)
    p.set_defaults(task=MSAN)


def _verify_equiv_arguments(p) -> None:
    p.add_argument("input", nargs="?", metavar="bundle", help="sectioned bundle file")
    _add_sections(p)
    _add_pretty(p)
    p.set_defaults(task=EQUIV)


def _lint_arguments(p) -> None:
    p.add_argument("--task", choices=(MSAN, EQUIV), required=True)
    p.add_argument("input", nargs="?")
    _add_sections(p)
    _add_pretty(p)


def _extract_arguments(p) -> None:
    p.add_argument("toy")
    p.add_argument("toy2", nargs="?")
    p.add_argument("--task", choices=(MSAN, EQUIV), required=True)
    p.add_argument("--uninit", help="comma-separated variables claimed uninitialized")
    p.add_argument("--var-map", help="comma-separated x=y variable pairs, one-to-one")
    p.add_argument("--file-name", default="main.cpp", help="file name used in facts")
    p.add_argument("-o", "--output")


def _formalize_arguments(p) -> None:
    p.add_argument("snippets", help="code snippets / explanation file")
    p.add_argument("--task", choices=(MSAN, EQUIV), required=True)
    p.add_argument("--source", choices=("mock", "http"), default="mock")
    p.add_argument("--iters", type=int)
    p.add_argument("--withhold", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ground-truth", help="fact file the mock source draws from")
    p.add_argument("--url", help="endpoint URL (default: $CLAIMCHECK_LLM_URL)")
    p.add_argument("--verify", action="store_true", help="verify the consolidated facts")
    p.add_argument("-o", "--output", help="write consolidated facts here")
    _add_pretty(p)


def _export_arguments(p) -> None:
    p.add_argument("input")
    p.add_argument("--task", choices=(MSAN, EQUIV, "datalog"), default="datalog")
    p.add_argument("-o", "--output", required=True)


def _corpus_arguments(p) -> None:
    p.add_argument("manifest")
    _add_pretty(p)


# Each command with its help line and the function that adds its arguments.
_COMMANDS = {
    "verify-msan": ("verify an uninitialized-value fact file", _verify_msan_arguments),
    "verify-equiv": ("verify a two-program fact bundle", _verify_equiv_arguments),
    "lint": ("run the well-formedness checks only", _lint_arguments),
    "extract": ("extract ground-truth facts from toy programs", _extract_arguments),
    "formalize": ("run the iterative fact-acquisition loop", _formalize_arguments),
    "export": ("write solver-dialect rules and fact files", _export_arguments),
    "corpus": ("verify a manifest of fixtures", _corpus_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command or, given one of them, of that command
    alone; the usage line names every command either way."""
    parser = argparse.ArgumentParser(
        prog="claimcheck",
        description="Check formalized code-reasoning claims against executable "
        "verification conditions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    if command in _COMMANDS:
        names, metavar = (command,), "{" + ",".join(_COMMANDS) + "}"
    else:
        names, metavar = _COMMANDS, None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A command named first is parsed by its own subparser alone.  Any other
    # argv builds every subparser: it may start with --help, which lists
    # every command.
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    if args.command in _CHECKS:
        return cmd_check(args)
    from . import commands

    return getattr(commands, "cmd_" + args.command)(args)


if __name__ == "__main__":
    sys.exit(main())
