"""Exception types shared across the package."""

from __future__ import annotations


class ClaimcheckError(Exception):
    """Base class for all errors raised by this package."""


class DatalogSyntaxError(ClaimcheckError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class ArityMismatchError(ClaimcheckError):
    def __init__(self, predicate: str, expected: int, found: int):
        super().__init__(
            f"predicate {predicate!r} declared with arity {expected}, used with {found}"
        )
        self.predicate = predicate
        self.expected = expected
        self.found = found


class SortError(ClaimcheckError):
    """A term appears in a slot whose sort it cannot inhabit (e.g. a symbol in a comparison)."""


class RangeRestrictionError(ClaimcheckError):
    """A head, negated, or comparison variable does not occur in a positive body literal."""


class UnstratifiableNegationError(ClaimcheckError):
    def __init__(self, cycle: list[str]):
        super().__init__(
            "negation on a recursive cycle: " + " -> ".join(cycle + cycle[:1])
        )
        self.cycle = cycle


class UnknownRelationError(ClaimcheckError):
    def __init__(self, name: str):
        super().__init__(f"unknown relation {name!r}")
        self.name = name


class NotDerivableError(ClaimcheckError):
    def __init__(self, fact: str):
        super().__init__(f"fact is not derivable: {fact}")
        self.fact = fact


class UnknownPredicateError(ClaimcheckError):
    """Names each offending predicate once, in order of first appearance."""

    def __init__(self, names: list[str]):
        names = list(dict.fromkeys(names))
        super().__init__("predicate(s) outside the task vocabulary: " + ", ".join(names))
        self.names = names


class DanglingMapReferenceError(ClaimcheckError):
    """An entryMap/exitMap fact cites a line with no matching entry/exit fact."""


class ConflictingVarMapError(ClaimcheckError):
    def __init__(self, variable: str):
        super().__init__(f"varMap pairs variable {variable!r} inconsistently")
        self.variable = variable


class ToySyntaxError(ClaimcheckError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class UseBeforeDefError(ClaimcheckError):
    def __init__(self, line: int, variable: str):
        super().__init__(
            f"line {line}: variable {variable!r} is used before any definition "
            "and is not declared as an input"
        )
        self.line = line
        self.variable = variable


class MissingInputError(ClaimcheckError):
    def __init__(self, variable: str):
        super().__init__(f"no input value supplied for free variable {variable!r}")
        self.variable = variable
