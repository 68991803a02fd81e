"""Ground-truth fact extraction from toy programs.

These extractors discharge, by construction, every obligation the fact
linters check, so the verifiers can run on their output without an
assistant in the loop.  Constants are modeled as variables defined at
line 0 that flow through their use sites; every definition carries a
control dependency on its innermost guard (or on the program entry).
"""

from __future__ import annotations

from ..facts import (
    BinaryFact,
    ControlDepFact,
    DEFAULT_FILE,
    EntryFact,
    EntryMapFact,
    EquivBundle,
    EquivSide,
    ExitFact,
    ExitMapFact,
    FlowFact,
    MemoryErrorFact,
    MsanFactSet,
    SiteFact,
    UnaryFact,
    VarMapFact,
)
from .interp import first_def_sites
from .lang import (
    Def,
    FreeDecl,
    GuardClose,
    GuardOpen,
    Operand,
    Output,
    Return,
    ToyProgram,
    _require_normalized,
)

ENTRY_LINE = 0
UNINIT_ERROR_KIND = "use-of-uninitialized-value"


def _exit_lines(program: ToyProgram) -> list[int]:
    """Return lines in order, plus the fall-through line when reachable."""
    lines = [s.line for s in program.statements if isinstance(s, Return)]
    depth = 0
    last_is_toplevel_return = False
    for stmt in program.statements:
        if isinstance(stmt, GuardOpen):
            depth += 1
        elif isinstance(stmt, GuardClose):
            depth -= 1
        else:
            last_is_toplevel_return = isinstance(stmt, Return) and depth == 0
    if not last_is_toplevel_return:
        lines.append(program.line_count + 1)
    return lines


class _SideExtractor:
    def __init__(self, file: str):
        self.file = file
        self.uses: set[SiteFact] = set()
        self.defs: set[SiteFact] = set()
        self.flows: set[FlowFact] = set()
        self.controldeps: set[ControlDepFact] = set()
        self.def_with_expr: set[SiteFact] = set()
        self.unary: set[UnaryFact] = set()
        self.binary: set[BinaryFact] = set()
        self.constants: set[str] = set()
        self.exits: set[ExitFact] = set()
        self.watch: set[SiteFact] = set()
        self.reaching: dict[str, set[int]] = {}
        self.guards: list[tuple[str, str, int]] = []

    def flow(self, var: str, src: int, dst_var: str, dst: int) -> None:
        self.flows.add(FlowFact(var, self.file, src, dst_var, self.file, dst))

    def use_var(self, name: str, line: int) -> None:
        self.uses.add(SiteFact(name, self.file, line))
        for d in self.reaching.get(name, ()):
            self.flow(name, d, name, line)

    def use_operand(self, operand: Operand, line: int) -> str:
        if isinstance(operand, int):
            lit = str(operand)
            self.defs.add(SiteFact(lit, self.file, ENTRY_LINE))
            self.constants.add(lit)
            self.uses.add(SiteFact(lit, self.file, line))
            self.flow(lit, ENTRY_LINE, lit, line)
            return lit
        self.use_var(operand, line)
        return operand

    def define(self, var: str, line: int) -> None:
        self.defs.add(SiteFact(var, self.file, line))
        if self.guards:
            gvar, branch, gline = self.guards[-1]
            self.controldeps.add(
                ControlDepFact(var, self.file, line, gvar, branch, self.file, gline)
            )
            self.reaching.setdefault(var, set()).add(line)
        else:
            self.controldeps.add(
                ControlDepFact(
                    var, self.file, line, "Entry:main", "true", self.file, ENTRY_LINE
                )
            )
            self.reaching[var] = {line}

    def exit_at(self, line: int) -> None:
        self.exits.add(ExitFact(self.file, line))
        for var in sorted(self.reaching):
            self.use_var(var, line)
            self.watch.add(SiteFact(var, self.file, line))

    def run(self, program: ToyProgram) -> EquivSide:
        for stmt in program.statements:
            if isinstance(stmt, FreeDecl):
                self.defs.add(SiteFact(stmt.var, self.file, ENTRY_LINE))
                self.reaching[stmt.var] = {ENTRY_LINE}
            elif isinstance(stmt, Def):
                names = [self.use_operand(o, stmt.line) for o in stmt.operands]
                if stmt.op is None:  # a copy: the value flows into the def
                    self.flow(names[0], stmt.line, stmt.var, stmt.line)
                else:
                    self.def_with_expr.add(SiteFact(stmt.var, self.file, stmt.line))
                    if len(names) == 1:
                        self.unary.add(UnaryFact(stmt.op, names[0], self.file, stmt.line))
                    else:
                        left, right = names
                        self.binary.add(
                            BinaryFact(stmt.op, left, right, self.file, stmt.line)
                        )
                self.define(stmt.var, stmt.line)
            elif isinstance(stmt, GuardOpen):
                self.use_var(stmt.var, stmt.line)
                branch = "false" if stmt.negated else "true"
                self.guards.append((stmt.var, branch, stmt.line))
            elif isinstance(stmt, GuardClose):
                self.guards.pop()
            elif isinstance(stmt, Output):
                self.use_var(stmt.var, stmt.line)
            elif isinstance(stmt, Return):
                self.exit_at(stmt.line)
        if _exit_lines(program)[-1] == program.line_count + 1:
            self.exit_at(program.line_count + 1)
        return EquivSide(
            uses=frozenset(self.uses),
            defs=frozenset(self.defs),
            flows=frozenset(self.flows),
            controldeps=frozenset(self.controldeps),
            def_with_expr=frozenset(self.def_with_expr),
            unary=frozenset(self.unary),
            binary=frozenset(self.binary),
            entries=frozenset({EntryFact("main", self.file, ENTRY_LINE)}),
            exits=frozenset(self.exits),
            constants=frozenset(self.constants),
            watch_vars=frozenset(self.watch),
        )


def extract_equiv_facts(
    program1: ToyProgram,
    program2: ToyProgram,
    var_map: dict[str, str] | None = None,
    file: str = DEFAULT_FILE,
) -> EquivBundle:
    """Dependence facts for both programs plus the correspondence.

    ``var_map`` pairs textually different but corresponding variables of
    program 1 and program 2; identically named variables pair implicitly.
    """
    _require_normalized(program1)
    _require_normalized(program2)
    side1 = _SideExtractor(file).run(program1)
    side2 = _SideExtractor(file).run(program2)

    var_maps = set()
    first1 = first_def_sites(program1)
    first2 = first_def_sites(program2)
    for x, y in sorted((var_map or {}).items()):
        var_maps.add(
            VarMapFact(x, file, first1.get(x, ENTRY_LINE), y, file, first2.get(y, ENTRY_LINE))
        )

    exit_maps = set()
    for line1, line2 in zip(_exit_lines(program1), _exit_lines(program2)):
        exit_maps.add(ExitMapFact(file, line1, file, line2))

    return EquivBundle(
        code1=side1,
        code2=side2,
        var_maps=frozenset(var_maps),
        entry_maps=frozenset({EntryMapFact("main", ENTRY_LINE, "main", ENTRY_LINE)}),
        exit_maps=frozenset(exit_maps),
    )


def extract_msan_facts(
    program: ToyProgram,
    uninit_vars: set[str] | frozenset[str],
    file: str = DEFAULT_FILE,
) -> MsanFactSet:
    """Trace-style facts: flows between definition sites, uses at outputs.

    The marked variables are claimed uninitialized at their first
    declaration or definition site; an output reachable by the claimed
    flows from a marked site additionally carries a memoryError fact.

    The walk is path-insensitive.  A definition replaces a variable's
    reaching definitions and taint within its guard block; at the block's
    close they are joined with those from before the block, the path that
    skips it.  A ``return`` ends its path: nothing up to its block's close
    emits a fact, and the close restores the state from before the block.
    Guards are not evaluated, so two guards on one variable still count the
    paths through one block and not the other.
    """
    _require_normalized(program)
    first_site = first_def_sites(program)
    unknown = set(uninit_vars) - set(first_site)
    if unknown:
        raise ValueError(f"marked variables are never defined: {sorted(unknown)}")

    declared: set[SiteFact] = set()
    uninitialized: set[SiteFact] = set()
    uses: set[SiteFact] = set()
    flows: set[FlowFact] = set()
    errors: set[MemoryErrorFact] = set()
    reaching: dict[str, set[int]] = {}
    tainted: dict[str, bool] = {}
    # per open guard, the reaching sets and taint bits at its opening
    saved: list[tuple[dict[str, set[int]], dict[str, bool]]] = []
    dead = 0  # after a return: the blocks open since, the returning one included

    def seed(var: str, line: int) -> bool:
        return var in uninit_vars and line == first_site[var]

    def update(var: str, line: int, taint: bool) -> None:
        declared.add(SiteFact(var, file, line))
        if seed(var, line):
            uninitialized.add(SiteFact(var, file, line))
            taint = True
        reaching[var] = {line}
        tainted[var] = taint

    def operand_edges(operand: Operand, var: str, line: int) -> bool:
        if isinstance(operand, int):
            return False
        for d in reaching.get(operand, ()):
            flows.add(FlowFact(operand, file, d, var, file, line))
        return tainted.get(operand, False)

    for stmt in program.statements:
        if dead:
            if isinstance(stmt, GuardOpen):
                dead += 1
            elif isinstance(stmt, GuardClose):
                dead -= 1
                if not dead:  # only the path that skipped the block goes on
                    reaching, tainted = saved.pop()
            continue
        if isinstance(stmt, GuardOpen):
            saved.append((dict(reaching), dict(tainted)))
            continue
        if isinstance(stmt, GuardClose):
            before, was_tainted = saved.pop()
            for var, lines in before.items():
                reaching[var] = reaching[var] | lines
                tainted[var] = tainted[var] or was_tainted[var]
            continue
        if isinstance(stmt, FreeDecl):
            update(stmt.var, stmt.line, False)
        elif isinstance(stmt, Def):
            taint = False
            for operand in stmt.operands:
                taint |= operand_edges(operand, stmt.var, stmt.line)
            update(stmt.var, stmt.line, taint)
        elif isinstance(stmt, Output):
            uses.add(SiteFact(stmt.var, file, stmt.line))
            for d in reaching.get(stmt.var, ()):
                flows.add(FlowFact(stmt.var, file, d, stmt.var, file, stmt.line))
            if tainted.get(stmt.var, False):
                errors.add(
                    MemoryErrorFact(stmt.var, UNINIT_ERROR_KIND, file, stmt.line)
                )
        elif isinstance(stmt, Return):
            dead = 1
    return MsanFactSet(
        uses=frozenset(uses),
        uninitialized=frozenset(uninitialized),
        declared=frozenset(declared),
        flow=frozenset(flows),
        memory_error=frozenset(errors),
    )
