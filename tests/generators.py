"""Seeded random generators, and fixed shapes, for engine and verifier sweeps."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from claimcheck.datalog.ast import Atom, Comparison, Program, Rule, Var
from claimcheck.facts import MsanFactSet, SiteFact, FlowFact, MemoryErrorFact, load_equiv_bundle
from claimcheck.toy.lang import (
    Def,
    FreeDecl,
    GuardClose,
    GuardOpen,
    Output,
    Statement,
    ToyProgram,
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


def many_sources_chain(n: int) -> MsanFactSet:
    """A 2n-step flow chain whose first n sites are uninitialized, the
    others declared (so every flow lands on a claimed site), and whose last
    site is used."""
    sites = [SiteFact(f"v{i}", "chain.c", i + 1) for i in range(2 * n + 1)]
    return MsanFactSet(
        uses=frozenset(sites[-1:]),
        uninitialized=frozenset(sites[:n]),
        declared=frozenset(sites[n:-1]),
        flow=frozenset(FlowFact(*a, *b) for a, b in zip(sites, sites[1:])),
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


def two_file_self_pair():
    """f0 in f0.c and f1 in f1.c, each with a parameter that flows out of
    its entry line 0 into a use at its exit line 1, paired with itself
    under identity maps."""
    side = "".join(
        f'entry("f{i}", "f{i}.c", 0).\nflow("p{i}", "f{i}.c", 0, "p{i}", "f{i}.c", 1).\n'
        f'use("p{i}", "f{i}.c", 1).\nexit("f{i}.c", 1).\n'
        for i in range(2)
    )
    maps = "".join(
        f'entryMap("f{i}", 0, "f{i}", 0).\nexitMap("f{i}.c", 1, "f{i}.c", 1).\n'
        for i in range(2)
    )
    return load_equiv_bundle(side, side, maps)


# ---------------------------------------------------------------------------
# Random toy programs and single mutations
# ---------------------------------------------------------------------------

_OPS_UNARY = ["inc", "hash3", "neg3"]
_OPS_BINARY = ["+", "*", "blend", "min3"]


def rebuild(statements: list[Statement], free_vars) -> ToyProgram:
    renumbered = [replace(s, line=line) for line, s in enumerate(statements, start=1)]
    return ToyProgram(tuple(renumbered), frozenset(free_vars), len(renumbered))


def random_toy(
    rng: random.Random,
    n_free: int | None = None,
    n_defs: int | None = None,
    guards_on_free_only: bool = False,
) -> ToyProgram:
    """A normalized, loop-free, return-free program.

    With ``guards_on_free_only`` every guard tests a free variable that is
    never assigned.  Guards are drawn from a pool of two such variables, so
    two guards may test the same one and a static path through one and not
    the other is not realizable: static reachability can still claim a
    path that no input assignment takes.
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
            op, operands = None, (rng.choice((0, 1, 2)),)
        elif kind < 0.45:
            op, operands = None, (rng.choice(defined),)
        else:
            arity = 1 if kind < 0.7 else 2
            op = rng.choice(_OPS_UNARY if arity == 1 else _OPS_BINARY)
            operands = tuple(rng.choice(defined) for _ in range(arity))
        statements.append(Def(0, var, op, operands))
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
            elif open_index is not None and isinstance(s, Def):
                has_def = True
        return out

    def applications() -> list[int]:
        return [i for i, s in enumerate(statements) if isinstance(s, Def) and s.op is not None]

    def swappable() -> list[int]:
        return [
            i for i, s in enumerate(statements)
            if isinstance(s, Def) and len(s.operands) == 2 and s.operands[0] != s.operands[1]
        ]

    kinds = ["rename"]
    if applications():
        kinds.append("operator_swap")
    if swappable():
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
            if isinstance(s, Def):
                s = replace(s, operands=tuple(rn(o) for o in s.operands))
            if isinstance(s, (FreeDecl, Def, GuardOpen, Output)):
                s = replace(s, var=rn(s.var))
            renamed.append(s)
        free = [mapping.get(v, v) for v in program.free_vars]
        return MutationResult(
            rebuild(renamed, free), dict(mapping), "rename", True
        )

    if kind == "operator_swap":
        idx = rng.choice(applications())
        statements[idx] = replace(statements[idx], op=statements[idx].op + "_alt")
    elif kind == "operand_swap":
        idx = rng.choice(swappable())
        statements[idx] = replace(statements[idx], operands=statements[idx].operands[::-1])
    elif kind == "guard_flip":
        idx = rng.choice(flippable_guards())
        statements[idx] = replace(statements[idx], negated=not statements[idx].negated)
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
        statements.insert(position, Def(0, "inserted_v", None, (rng.choice((0, 1, 2)),)))

    return MutationResult(
        rebuild(statements, program.free_vars), {}, kind, False
    )
