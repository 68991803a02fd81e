"""Concrete execution with taint bits, and the brute-force oracles.

One interpreter, :func:`interpret`, serves both oracles: it computes every
variable's value, and with it a taint bit that says whether a value marked
as garbage flows into it.  :func:`oracle_equiv` compares the values and
:func:`taint_reaches_output` reads the taint of what is output.

Every operator and call is uninterpreted: applying ``op`` to argument
values yields ``mix(op, values)``, a fixed hash-based mixing function that
is deterministic across runs and platforms, reduced into the value domain
{0, 1, 2}.  The mix depends on argument order, so ``a + b`` and ``b + a``
are genuinely different computations, which keeps the positional operand
checking of the equivalence verifier semantically honest.  Guards treat
any nonzero value as true; a variable read before any executed assignment
reads as 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .. import sha256
from ..errors import MissingInputError
from .lang import (
    Def,
    ECall,
    Expr,
    ExprDef,
    FreeDecl,
    GuardClose,
    GuardOpen,
    Operand,
    Output,
    Return,
    ToyProgram,
)

VALUE_DOMAIN = (0, 1, 2)
ENUMERATION_LIMIT = 8  # free variables; 3**8 runs is the ceiling per pair


def mix(op: str, values: list[int]) -> int:
    """Uninterpreted application of ``op``, reduced into the value domain."""
    payload = op + "|" + ",".join(str(v) for v in values)
    digest = sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % len(VALUE_DOMAIN)


@dataclass
class ExecState:
    env: dict[str, int] = field(default_factory=dict)
    taint: dict[str, bool] = field(default_factory=dict)
    outputs: list[int] = field(default_factory=list)
    tainted_output: bool = False  # some output read a tainted value
    exit_line: int = 0
    exit_ordinal: int = -1  # index of the return taken; -1 = fell through


def first_def_sites(program: ToyProgram) -> dict[str, int]:
    """Line of the textually first declaration or definition per variable."""
    sites: dict[str, int] = {}
    for stmt in program.statements:
        if isinstance(stmt, (FreeDecl, Def, ExprDef)):
            sites.setdefault(stmt.var, stmt.line)
    return sites


def interpret(
    program: ToyProgram,
    inputs: dict[str, int],
    marked: frozenset[str] | set[str] = frozenset(),
) -> ExecState:
    """Concrete execution, with a taint bit per value.

    A free variable is tainted iff it is marked.  Any other definition is
    tainted when it is a marked variable's textually first declaration or
    definition (the claim is that its value there is garbage, whatever the
    code assigns); taint then propagates through copies and applications,
    and a constant is clean unless seeded.
    """
    for var in sorted(program.free_vars):
        if var not in inputs:
            raise MissingInputError(var)
    state = ExecState()
    env, taint = state.env, state.taint
    first_site = first_def_sites(program) if marked else {}  # read only to seed

    def value(operand: Operand) -> tuple[int, bool]:
        if isinstance(operand, int):
            return operand, False
        return env.get(operand, 0), taint.get(operand, False)

    def apply(op: str, args: list[tuple[int, bool]]) -> tuple[int, bool]:
        return mix(op, [v for v, _ in args]), any(t for _, t in args)

    def eval_expr(expr: Expr) -> tuple[int, bool]:
        if isinstance(expr, ECall):
            return apply(expr.op, [eval_expr(a) for a in expr.args])
        return value(expr)

    guards: list[bool] = []
    return_ordinal = -1
    for stmt in program.statements:
        if isinstance(stmt, Return):
            return_ordinal += 1
        live = all(guards)
        if isinstance(stmt, GuardOpen):
            taken = live and (bool(value(stmt.var)[0]) != stmt.negated)
            guards.append(taken)
            continue
        if isinstance(stmt, GuardClose):
            guards.pop()
            continue
        if not live:
            continue
        if isinstance(stmt, Output):
            v, t = value(stmt.var)
            state.outputs.append(v)
            state.tainted_output |= t
            continue
        if isinstance(stmt, Return):
            state.exit_line = stmt.line
            state.exit_ordinal = return_ordinal
            return state
        if isinstance(stmt, FreeDecl):
            env[stmt.var], taint[stmt.var] = inputs[stmt.var], stmt.var in marked
            continue
        if isinstance(stmt, ExprDef):
            v, t = eval_expr(stmt.expr)
        elif stmt.op is None:
            v, t = value(stmt.operands[0])
        else:
            v, t = apply(stmt.op, [value(o) for o in stmt.operands])
        env[stmt.var] = v
        taint[stmt.var] = t or (
            stmt.var in marked and stmt.line == first_site.get(stmt.var)
        )
    state.exit_line = program.line_count + 1
    return state


def _assignments(names: list[str]):
    """Every input assignment to ``names``, within the enumeration limit."""
    if len(names) > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration limited to {ENUMERATION_LIMIT} free variables")
    return (
        dict(zip(names, values))
        for values in itertools.product(VALUE_DOMAIN, repeat=len(names))
    )


def taint_reaches_output(
    program: ToyProgram, marked: frozenset[str] | set[str]
) -> bool:
    """True when some input assignment drives a marked value into an output."""
    return any(
        interpret(program, assignment, marked).tainted_output
        for assignment in _assignments(sorted(program.free_vars))
    )


def oracle_equiv(
    program1: ToyProgram,
    program2: ToyProgram,
    var_pairing: dict[str, str] | None = None,
) -> bool:
    """Exhaustive equivalence over the finite input domain.

    True iff for every assignment to the (paired) free variables both
    programs leave every paired defined variable with the same final value
    and terminate at corresponding exits.  ``var_pairing`` maps names of
    program 1 to names of program 2; unmapped names pair with themselves.
    """
    pairing = dict(var_pairing or {})
    free1 = sorted(program1.free_vars)
    image = {pairing.get(v, v) for v in free1}
    if image != set(program2.free_vars):
        raise ValueError("free variables of the two programs do not correspond")

    reverse = {v2: v1 for v1, v2 in pairing.items()}
    watched: set[tuple[str, str]] = set()
    for v in sorted(program1.defined_vars()):
        watched.add((v, pairing.get(v, v)))
    for w in sorted(program2.defined_vars()):
        watched.add((reverse.get(w, w), w))

    for assignment in _assignments(free1):
        state1 = interpret(program1, assignment)
        state2 = interpret(
            program2, {pairing.get(v, v): x for v, x in assignment.items()}
        )
        if state1.exit_ordinal != state2.exit_ordinal:
            return False
        for v1, v2 in watched:
            if state1.env.get(v1, 0) != state2.env.get(v2, 0):
                return False
    return True
