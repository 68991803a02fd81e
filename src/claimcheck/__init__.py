"""claimcheck: deterministic verification of formalized code-reasoning claims.

The package turns predicate instances extracted from a code-reasoning
assistant's explanation into Datalog and checks them against an executable
verification condition.  Two conditions ship in the box: reachability of a
use site from an uninitialized-value site along claimed dataflow, and
structural equivalence of two programs over a dependence-graph abstraction.

Most callers need only the loaders and the two verifiers:

    from claimcheck import load_msan_facts, verify_msan
    from claimcheck import load_equiv_bundle_text, verify_equiv

Each submodule is imported on first access to one of its names (PEP 562),
so a caller pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> submodule that defines it
_LAZY = {
    "http_source": "loop",
    "lint_equiv": "facts",
    "lint_msan": "facts",
    "load_equiv_bundle": "facts",
    "load_equiv_bundle_text": "facts",
    "load_msan_facts": "facts",
    "mock_source": "loop",
    "run_loop": "loop",
    "verify_equiv": "equivalence",
    "verify_msan": "msan",
}

__all__ = ["__version__", *_LAZY]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
