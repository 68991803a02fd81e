"""Seeded random generators for engine and verifier sweeps."""

from __future__ import annotations

import random
from dataclasses import dataclass

from claimcheck.datalog.ast import Atom, Comparison, Program, Rule, Var
from claimcheck.facts import MsanFactSet, SiteFact, FlowFact, MemoryErrorFact
from claimcheck.toy.lang import (
    BinaryDef,
    ConstDef,
    CopyDef,
    FreeDecl,
    GuardClose,
    GuardOpen,
    Output,
    Statement,
    ToyProgram,
    UnaryDef,
)

# ---------------------------------------------------------------------------
# Random positive Datalog programs (<=5 relations, <=8 rules, <=30 facts)
# ---------------------------------------------------------------------------

_SYMBOL_POOL = ["a", "b", "c", "d", "e"]


def random_positive_program(rng: random.Random) -> Program:
    n_rel = rng.randint(2, 5)
    relations = []
    declarations = {}
    for i in range(n_rel):
        arity = rng.randint(1, 3)
        sorts = tuple(rng.choice(("symbol", "number")) for _ in range(arity))
        name = f"r{i}"
        declarations[name] = sorts
        relations.append((name, sorts))

    def random_const(sort: str):
        return rng.choice(_SYMBOL_POOL) if sort == "symbol" else rng.randint(0, 6)

    facts = []
    for _ in range(rng.randint(0, 30)):
        name, sorts = rng.choice(relations)
        facts.append(Atom(name, tuple(random_const(s) for s in sorts)))

    rules = []
    for _ in range(rng.randint(1, 8)):
        body_atoms = []
        var_sorts: dict[str, str] = {}
        counter = 0
        for _ in range(rng.randint(1, 3)):
            name, sorts = rng.choice(relations)
            args = []
            for sort in sorts:
                if rng.random() < 0.7:
                    # reuse a compatible variable or invent one
                    compatible = [v for v, s in var_sorts.items() if s == sort]
                    if compatible and rng.random() < 0.5:
                        args.append(Var(rng.choice(compatible)))
                    else:
                        var = f"v{counter}"
                        counter += 1
                        var_sorts[var] = sort
                        args.append(Var(var))
                else:
                    args.append(random_const(sort))
            body_atoms.append(Atom(name, tuple(args)))
        body: list = list(body_atoms)
        number_vars = [v for v, s in var_sorts.items() if s == "number"]
        if number_vars and rng.random() < 0.3:
            body.append(
                Comparison(
                    rng.choice(("<", "<=", ">", ">=", "!=")),
                    Var(rng.choice(number_vars)),
                    rng.randint(0, 6),
                )
            )
        head_name, head_sorts = rng.choice(relations)
        head_args = []
        for sort in head_sorts:
            compatible = [v for v, s in var_sorts.items() if s == sort]
            if compatible and rng.random() < 0.8:
                head_args.append(Var(rng.choice(compatible)))
            else:
                head_args.append(random_const(sort))
        rules.append(Rule(Atom(head_name, tuple(head_args)), tuple(body)))
    return Program(declarations=declarations, rules=rules, facts=facts)


def random_fact_atoms(rng: random.Random, program: Program, count: int) -> list[Atom]:
    names = sorted(program.declarations)
    out = []
    for _ in range(count):
        name = rng.choice(names)
        sorts = program.declarations[name]
        args = tuple(
            rng.choice(_SYMBOL_POOL) if s == "symbol" else rng.randint(0, 6)
            for s in sorts
        )
        out.append(Atom(name, args))
    return out


# ---------------------------------------------------------------------------
# Random trace fact sets for the uninitialized-value verifier
# ---------------------------------------------------------------------------


def random_msan_facts(
    rng: random.Random, with_memory_error: bool | None = None, max_flows: int = 6
) -> MsanFactSet:
    files = ["a.cc", "b.cc"]
    variables = ["p", "q", "r", "s"]

    def site():
        return (rng.choice(variables), rng.choice(files), rng.randint(1, 9))

    sites = {site() for _ in range(rng.randint(2, 8))}
    sites = sorted(sites)
    flows = set()
    for _ in range(rng.randint(0, max_flows)):
        src, dst = rng.choice(sites), rng.choice(sites)
        flows.add(FlowFact(*src, *dst))
    uses = {SiteFact(*s) for s in rng.sample(sites, k=rng.randint(0, len(sites)))}
    uninit = {SiteFact(*s) for s in rng.sample(sites, k=rng.randint(0, min(2, len(sites))))}
    errors = set()
    if with_memory_error is None:
        with_memory_error = rng.random() < 0.5
    if with_memory_error and uses:
        chosen = rng.choice(sorted(uses))
        errors.add(MemoryErrorFact(chosen.var, "uninitialized", chosen.file, chosen.line))
    return MsanFactSet(
        uses=frozenset(uses),
        uninitialized=frozenset(uninit),
        flow=frozenset(flows),
        memory_error=frozenset(errors),
    )


def msan_reachability_oracle(fs: MsanFactSet) -> bool:
    """Set-based transitive closure; independent of the BFS in the verifier."""
    uses = {(f.var, f.file, f.line) for f in fs.uses}
    error_sites = {(f.file, f.line) for f in fs.memory_error}
    targets = {
        u for u in uses if not error_sites or (u[1], u[2]) in error_sites
    }
    reached = {(f.var, f.file, f.line) for f in fs.uninitialized}
    edges = {}
    for f in fs.flow:
        edges.setdefault((f.src_var, f.src_file, f.src_line), set()).add(
            (f.dst_var, f.dst_file, f.dst_line)
        )
    frontier = set(reached)
    while frontier:
        nxt = set()
        for node in frontier:
            for dst in edges.get(node, ()):
                if dst not in reached:
                    reached.add(dst)
                    nxt.add(dst)
        frontier = nxt
    return bool(reached & targets)


# ---------------------------------------------------------------------------
# Random toy programs and single mutations
# ---------------------------------------------------------------------------

_OPS_UNARY = ["inc", "hash3", "neg3"]
_OPS_BINARY = ["+", "*", "blend", "min3"]


def _renumber(statements: list[Statement]) -> list[Statement]:
    out = []
    for line, stmt in enumerate(statements, start=1):
        kwargs = {k: v for k, v in vars(stmt).items() if k != "line"}
        out.append(type(stmt)(line=line, **kwargs))
    return out


def rebuild(statements: list[Statement], free_vars) -> ToyProgram:
    renumbered = _renumber(statements)
    return ToyProgram(tuple(renumbered), frozenset(free_vars), len(renumbered))


def random_toy(
    rng: random.Random,
    n_free: int | None = None,
    n_defs: int | None = None,
    guards_on_free_only: bool = False,
) -> ToyProgram:
    """A normalized, loop-free, return-free program.

    With ``guards_on_free_only`` every guard tests a dedicated free
    variable that is never assigned, so every static path is realizable by
    some input assignment (which makes static reachability and dynamic
    enumeration agree).
    """
    n_free = rng.randint(1, 3) if n_free is None else n_free
    n_defs = rng.randint(3, 9) if n_defs is None else n_defs
    free = [f"in{i}" for i in range(n_free)]
    guard_pool = [f"g{i}" for i in range(2)] if guards_on_free_only else []
    statements: list[Statement] = [FreeDecl(0, v) for v in free + guard_pool]
    defined = list(free)
    counter = 0
    depth = 0
    for _ in range(n_defs):
        roll = rng.random()
        if depth and roll < 0.2:
            statements.append(GuardClose(0))
            depth -= 1
            continue
        if depth == 0 and roll < 0.18:
            if guards_on_free_only:
                gvar = rng.choice(guard_pool)
                negated = False
            else:
                gvar = rng.choice(defined)
                negated = rng.random() < 0.3
            statements.append(GuardOpen(0, gvar, negated))
            depth += 1
            continue
        var = f"x{counter}" if rng.random() < 0.6 or not defined else rng.choice(
            [v for v in defined if v not in free and v not in guard_pool] or [f"x{counter}"]
        )
        if var == f"x{counter}":
            counter += 1
        kind = rng.random()
        if kind < 0.25:
            statements.append(ConstDef(0, var, rng.choice((0, 1, 2))))
        elif kind < 0.45:
            statements.append(CopyDef(0, var, rng.choice(defined)))
        elif kind < 0.7:
            statements.append(
                UnaryDef(0, var, rng.choice(_OPS_UNARY), rng.choice(defined))
            )
        else:
            statements.append(
                BinaryDef(
                    0, var, rng.choice(_OPS_BINARY),
                    rng.choice(defined), rng.choice(defined),
                )
            )
        if var not in defined:
            defined.append(var)
        if rng.random() < 0.25:
            statements.append(Output(0, rng.choice(defined)))
    while depth:
        statements.append(GuardClose(0))
        depth -= 1
    statements.append(Output(0, rng.choice(defined)))
    return rebuild(statements, free + guard_pool)


@dataclass
class MutationResult:
    program: ToyProgram
    var_map: dict[str, str]
    kind: str
    expect_equivalent: bool


def mutate_toy(rng: random.Random, program: ToyProgram) -> MutationResult:
    """One structural mutation; renaming preserves semantics, the rest break
    either semantics or at least the dependence structure."""
    statements = list(program.statements)
    def flippable_guards() -> list[int]:
        # flipping a guard is only a visible mutation when the guard's body
        # defines something (the branch flag shows up in controldep facts)
        out = []
        open_index = None
        has_def = False
        for i, s in enumerate(statements):
            if isinstance(s, GuardOpen):
                open_index, has_def = i, False
            elif isinstance(s, GuardClose):
                if open_index is not None and has_def:
                    out.append(open_index)
                open_index = None
            elif open_index is not None and isinstance(
                s, (ConstDef, CopyDef, UnaryDef, BinaryDef)
            ):
                has_def = True
        return out

    kinds = ["rename"]
    if any(isinstance(s, (UnaryDef, BinaryDef)) for s in statements):
        kinds.append("operator_swap")
    if any(isinstance(s, BinaryDef) and s.left != s.right for s in statements):
        kinds.append("operand_swap")
    if flippable_guards():
        kinds.append("guard_flip")
    kinds.append("statement_insert")
    kind = rng.choice(kinds)

    if kind == "rename":
        renameable = sorted(program.defined_vars())
        chosen = [v for v in renameable if rng.random() < 0.6] or renameable[:1]
        mapping = {v: f"{v}_r" for v in chosen}

        def rn(name):
            return mapping.get(name, name) if isinstance(name, str) else name

        renamed: list[Statement] = []
        for s in statements:
            if isinstance(s, FreeDecl):
                renamed.append(FreeDecl(s.line, rn(s.var)))
            elif isinstance(s, ConstDef):
                renamed.append(ConstDef(s.line, rn(s.var), s.value))
            elif isinstance(s, CopyDef):
                renamed.append(CopyDef(s.line, rn(s.var), rn(s.src)))
            elif isinstance(s, UnaryDef):
                renamed.append(UnaryDef(s.line, rn(s.var), s.op, rn(s.operand)))
            elif isinstance(s, BinaryDef):
                renamed.append(
                    BinaryDef(s.line, rn(s.var), s.op, rn(s.left), rn(s.right))
                )
            elif isinstance(s, GuardOpen):
                renamed.append(GuardOpen(s.line, rn(s.var), s.negated))
            elif isinstance(s, Output):
                renamed.append(Output(s.line, rn(s.var)))
            else:
                renamed.append(s)
        free = [mapping.get(v, v) for v in program.free_vars]
        return MutationResult(
            rebuild(renamed, free), dict(mapping), "rename", True
        )

    if kind == "operator_swap":
        idx = rng.choice(
            [i for i, s in enumerate(statements) if isinstance(s, (UnaryDef, BinaryDef))]
        )
        s = statements[idx]
        if isinstance(s, UnaryDef):
            statements[idx] = UnaryDef(s.line, s.var, s.op + "_alt", s.operand)
        else:
            statements[idx] = BinaryDef(s.line, s.var, s.op + "_alt", s.left, s.right)
    elif kind == "operand_swap":
        idx = rng.choice(
            [
                i
                for i, s in enumerate(statements)
                if isinstance(s, BinaryDef) and s.left != s.right
            ]
        )
        s = statements[idx]
        statements[idx] = BinaryDef(s.line, s.var, s.op, s.right, s.left)
    elif kind == "guard_flip":
        idx = rng.choice(flippable_guards())
        s = statements[idx]
        statements[idx] = GuardOpen(s.line, s.var, not s.negated)
    else:  # statement_insert
        top_level = [0]
        depth = 0
        for i, s in enumerate(statements):
            if isinstance(s, GuardOpen):
                depth += 1
            elif isinstance(s, GuardClose):
                depth -= 1
            elif depth == 0:
                top_level.append(i + 1)
        position = rng.choice(top_level)
        statements.insert(position, ConstDef(0, "inserted_v", rng.choice((0, 1, 2))))

    return MutationResult(
        rebuild(statements, program.free_vars), {}, kind, False
    )
