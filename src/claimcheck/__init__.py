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

import gc
import sys
from functools import wraps
from importlib import import_module

__version__ = "0.1.0"


def _lazy_names(namespace: dict, table: dict[str, str]):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of the module whose
    globals are ``namespace``: each name in ``table`` is read from the
    module ``table[name]`` relative to that module's package, imported on
    first use.  Every module of the package with such a table uses this."""
    module, package = namespace["__name__"], namespace["__package__"]

    def __getattr__(name: str):
        if name not in table:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(import_module(f".{table[name]}", package), name)

    def __dir__() -> list[str]:
        return sorted({*namespace, *table})

    return __getattr__, __dir__


def _collector_paused(function):
    """``function`` with the cyclic garbage collector paused while it runs.

    The facts, steps and derivation nodes that the package builds in bulk
    are tuples that can never form a cycle, and CPython never untracks a
    tuple subclass, so each collection during a check would rescan them
    all.  A call that finds the collector enabled disables it and enables it
    again on return or raise; one that finds it disabled (a nested call, or
    a caller that disabled it) leaves it alone.  The switch is process-wide:
    another thread gets no collections during such a call."""

    @wraps(function)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return function(*args, **kwargs)
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            gc.enable()

    return paused


# SHA-256 from the interpreter's own module: ``hashlib`` loads OpenSSL, which
# costs a launch about 3.7 MB of memory and 4 ms, so it is only the fallback
# for an interpreter built without that module.  The version picks the one
# module to try, as a failed import costs a search of the whole path.
try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:
    from hashlib import sha256


# public name -> submodule that defines it
_LAZY = {
    "http_source": "loop",
    "lint_equiv": "facts.equiv",
    "lint_msan": "facts.msan",
    "load_equiv_bundle": "facts.equiv",
    "load_equiv_bundle_text": "facts.equiv",
    "load_msan_facts": "facts.msan",
    "mock_source": "loop",
    "run_loop": "loop",
    "verify_equiv": "equivalence",
    "verify_msan": "msan",
}

__all__ = ["__version__", *_LAZY]

__getattr__, __dir__ = _lazy_names(globals(), _LAZY)
