"""Program validation and deterministic bottom-up evaluation.

Evaluation computes the minimal model stratum by stratum: within each
stratum the least fixpoint of the positive rules is reached semi-naively
(only joins touching tuples new in the previous round are re-run), and
negated atoms consult relations of strictly lower strata.

Validation, by :func:`check_program` or (for a rule set without facts)
:func:`prepare`, yields a :class:`RuleSet`: the rules, their completed
declarations and their strata.  The rule set generates its plans on its
first :func:`evaluate` and keeps them; evaluating a program that still holds
its rules and declarations checks only the program's facts, a segment (a run
of one relation's value tuples) at a time, and any other program is
validated again.  Facts load a segment at a time, one ``dict.fromkeys``
each.  Each stratum is generated into one Python function of the relations
that reads what it probes, holds its rules' constants and ordinals as
literals, runs its exit rules (no positive atom in the stratum) once, then
semi-naive rounds from all its tuples, deltas held as locals.  A join plan,
one per exit rule or per delta position, is nested loops whose atoms are
probed through hash indexes on their bound columns, with negated atoms as
single index probes, and inserts each new head tuple inline, or after its
loops if it reads its own head relation outside the delta and would see its
insertions.  The code of equal generated source is compiled once.

A tuple's derivation lives in its own slot of its relation's dict: the step
``(i, t0, t1, ...)`` that first derived it, its rule's ordinal ``i`` in
:attr:`RuleSet.rules` and one body tuple per positive atom, or ``None`` for
an input fact.  A step holds only values, so the garbage collector stops
tracking it.  That slot is the only record of it: :func:`explain` is the
one reader, and builds a proof from the slots only when asked.

Relations are kept in insertion order and no step iterates over a hashed
set, so verdicts and the derivation kept for each tuple (the first one
found) do not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import operator
import zlib
from itertools import repeat
from types import MappingProxyType
from typing import Callable, Container, Mapping, Optional, Sequence

from ..errors import (
    ArityMismatchError,
    NotDerivableError,
    RangeRestrictionError,
    SortError,
    UnknownRelationError,
    UnstratifiableNegationError,
)
from .ast import (
    Atom,
    Comparison,
    NegatedAtom,
    NUMBER,
    Program,
    Record,
    Rule,
    Segments,
    SYMBOL,
    Term,
    Var,
    Wildcard,
    print_atom,
    print_fact,
    print_rule,
)
from .values import compiled_make

_UNKNOWN = "?"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _sort_clash(
    context: str, predicate: str, index: int, current: str, sort: str,
    declared: Container[str],
) -> SortError:
    if predicate in declared:
        return SortError(
            f"{context}: argument {index + 1} of {predicate!r} is declared "
            f"{current}, found {sort}"
        )
    return SortError(
        f"{context}: argument {index + 1} of {predicate!r} is used both "
        f"as {current} and as {sort}"
    )


# the value types of a column that can raise nothing its first value does not
_UNIFORM = ({str}, {int})


def _check_facts(
    segments: Segments, slots: Mapping[str, Sequence[str]], declared: Container[str]
) -> None:
    """Check facts against ``slots`` (relation -> argument sorts so far) and
    settle the slots they touch; a relation no slot names yet gets one from
    its first fact.  Raises for a wrong arity, a clashing sort, or an
    argument that is not a constant, in that order of precedence.

    A segment whose facts share one arity and whose every column holds only
    ``str`` or only ``int`` values is checked as its first fact alone.
    """
    facts: list[tuple[str, Sequence]] = []
    for name, rows in segments:
        if len({*map(len, rows)}) == 1 and all(
            {*map(type, column)} in _UNIFORM for column in zip(*rows)
        ):
            facts.append((name, rows[0]))
        else:
            facts += zip(repeat(name), rows)
    for name, args in facts:
        sorts = slots.get(name)
        if sorts is None:
            slots[name] = [_UNKNOWN] * len(args)
        elif len(args) != len(sorts):
            raise ArityMismatchError(name, len(sorts), len(args))
    # A slot never changes once set, so one pass settles every slot facts touch.
    for name, args in facts:
        sorts = slots[name]
        for i, term in enumerate(args):
            if type(term) is str:
                sort = SYMBOL
            elif type(term) is int:
                sort = NUMBER
            else:
                continue
            if sorts[i] == _UNKNOWN:
                sorts[i] = sort
            elif sorts[i] != sort:
                raise _sort_clash(
                    f"fact {print_fact(name, args)}", name, i, sorts[i], sort, declared
                )
    for name, args in facts:
        for i, term in enumerate(args, 1):
            if isinstance(term, (Var, Wildcard)):
                raise RangeRestrictionError(
                    f"fact {name} contains a variable or wildcard"
                )
            if type(term) is not str and type(term) is not int:
                raise RangeRestrictionError(
                    f"fact {name}: argument {i} is {term!r}, "
                    "neither a symbol (str) nor a number (int)"
                )


def _infer_declarations(program: Program) -> dict[str, list[str]]:
    """Argument sorts of every relation, from the declarations, the facts
    and then the rules; a slot nothing settles stays ``_UNKNOWN``."""
    slots: dict[str, list[str]] = {
        name: list(sorts) for name, sorts in program.declarations.items()
    }
    declared = set(program.declarations)
    _check_facts(program.segments, slots, declared)
    atoms_of = [
        [rule.head] + [
            lit.atom if isinstance(lit, NegatedAtom) else lit
            for lit in rule.body
            if isinstance(lit, (Atom, NegatedAtom))
        ]
        for rule in program.rules
    ]
    for atoms in atoms_of:
        for atom in atoms:
            if atom.predicate not in slots:
                slots[atom.predicate] = [_UNKNOWN] * len(atom.args)
            expected = len(slots[atom.predicate])
            if len(atom.args) != expected:
                raise ArityMismatchError(atom.predicate, expected, len(atom.args))

    changed = True
    while changed:
        changed = False
        for rule, atoms in zip(program.rules, atoms_of):
            var_sorts: dict[str, str] = {}
            for cmp in rule.comparisons():
                for side in (cmp.left, cmp.right):
                    if isinstance(side, Var):
                        var_sorts[side.name] = NUMBER
            for atom in atoms:
                for i, term in enumerate(atom.args):
                    slot = slots[atom.predicate][i]
                    if isinstance(term, Var) and slot != _UNKNOWN:
                        if var_sorts.setdefault(term.name, slot) != slot:
                            raise SortError(
                                f"rule for {rule.head.predicate!r}: variable "
                                f"{term.name!r} is used both as "
                                f"{var_sorts[term.name]} and as {slot}"
                            )
            for atom in atoms:
                for i, term in enumerate(atom.args):
                    if type(term) is str:
                        sort = SYMBOL
                    elif type(term) is int:
                        sort = NUMBER
                    elif isinstance(term, Var) and term.name in var_sorts:
                        sort = var_sorts[term.name]
                    else:
                        continue
                    current = slots[atom.predicate][i]
                    if current == _UNKNOWN:
                        slots[atom.predicate][i] = sort
                        changed = True
                    elif current != sort:
                        raise _sort_clash(
                            f"rule for {rule.head.predicate!r}",
                            atom.predicate, i, current, sort, declared,
                        )
    return slots


def _check_rule(rule: Rule, slots: dict[str, list[str]]) -> None:
    atoms = [rule.head, *rule.positive_atoms(), *[neg.atom for neg in rule.negated_atoms()]]
    sides = [side for cmp in rule.comparisons() for side in (cmp.left, cmp.right)]
    for term in [term for atom in atoms for term in atom.args] + sides:
        if type(term) not in (str, int, Var, Wildcard):  # plans write constants as literals
            raise RangeRestrictionError(
                f"rule for {rule.head.predicate!r}: constant {term!r} is "
                "neither a symbol (str) nor a number (int)"
            )
    positive_vars: set[str] = set()
    for atom in rule.positive_atoms():
        for term in atom.args:
            if isinstance(term, Var):
                positive_vars.add(term.name)
    for term in rule.head.args:
        if isinstance(term, Wildcard):
            raise RangeRestrictionError(
                f"rule for {rule.head.predicate!r}: wildcard in rule head"
            )
        if isinstance(term, Var) and term.name not in positive_vars:
            raise RangeRestrictionError(
                f"rule for {rule.head.predicate!r}: head variable {term.name!r} "
                "does not occur in a positive body literal"
            )
    for neg in rule.negated_atoms():
        for term in neg.atom.args:
            if isinstance(term, Var) and term.name not in positive_vars:
                raise RangeRestrictionError(
                    f"rule for {rule.head.predicate!r}: negated variable "
                    f"{term.name!r} does not occur in a positive body literal"
                )
    for side in sides:
        if isinstance(side, Wildcard):
            raise RangeRestrictionError(
                f"rule for {rule.head.predicate!r}: wildcard in comparison"
            )
        if type(side) is str:
            raise SortError(
                f"rule for {rule.head.predicate!r}: comparison over symbol {side!r}"
            )
        if isinstance(side, Var) and side.name not in positive_vars:
            raise RangeRestrictionError(
                f"rule for {rule.head.predicate!r}: comparison variable "
                f"{side.name!r} does not occur in a positive body literal"
            )


def _strongly_connected_components(graph: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan's algorithm; returns SCCs in reverse topological order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    def visit(root: str) -> None:
        nonlocal counter
        work = [(root, iter(sorted(graph.get(root, ()))))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(sorted(scc))

    for node in sorted(graph):
        if node not in index:
            visit(node)
    return sccs


def stratify(program: Program) -> list[list[str]]:
    """Predicate strata in evaluation order, or raise on negation in a cycle."""
    graph: dict[str, set[str]] = {name: set() for name in program.declarations}
    negative_edges: set[tuple[str, str]] = set()
    for rule in program.rules:
        head = rule.head.predicate
        graph.setdefault(head, set())
        for lit in rule.body:
            if isinstance(lit, Atom):
                graph.setdefault(lit.predicate, set()).add(head)
            elif isinstance(lit, NegatedAtom):
                graph.setdefault(lit.atom.predicate, set()).add(head)
                negative_edges.add((lit.atom.predicate, head))
    sccs = _strongly_connected_components(graph)
    component: dict[str, int] = {}
    for i, scc in enumerate(sccs):
        for name in scc:
            component[name] = i
    for src, dst in negative_edges:
        if component[src] == component[dst]:
            raise UnstratifiableNegationError(sccs[component[src]])
    return list(reversed(sccs))


def _complete(program: Program, slots: dict[str, list[str]]) -> RuleSet:
    """Declare every relation with its inferred sorts (an unsettled argument
    is a symbol), check the rules, and set and return the rule set."""
    declarations = {
        name: tuple(SYMBOL if s == _UNKNOWN else s for s in sorts)
        for name, sorts in slots.items()
    }
    program.declarations = dict(declarations)
    for rule in program.rules:
        _check_rule(rule, slots)
    strata = tuple(map(tuple, stratify(program)))
    program.rule_set = RuleSet(tuple(program.rules), MappingProxyType(declarations), strata)
    return program.rule_set


def check_program(program: Program) -> RuleSet:
    """Validate and complete a program in place (auto-declaring predicates);
    returns the :class:`RuleSet` that evaluates it, also set as its ``rule_set``."""
    return _complete(program, _infer_declarations(program))


class RuleSet:
    """Rules, their declarations and their strata, as validated by
    :func:`check_program` or :func:`prepare`.

    ``declarations``, a read-only snapshot, cover every relation the rules
    name with all argument sorts settled, so a program the rule set admits
    only has its facts checked against them when it is evaluated.
    ``body_predicates[i]`` holds the predicates of ``rules[i]``'s positive
    atoms, the relations of the tuples a step of that rule cites.  Equality is identity.
    """

    __slots__ = ("rules", "declarations", "strata", "body_predicates", "_join_plans")

    def __init__(
        self, rules: tuple[Rule, ...], declarations: Mapping[str, tuple[str, ...]],
        strata: tuple[tuple[str, ...], ...],
    ) -> None:
        self.rules, self.declarations, self.strata = rules, declarations, strata
        self.body_predicates = tuple(tuple(a.predicate for a in r.positive_atoms()) for r in rules)
        self._join_plans: tuple[Callable[[dict], None], ...] | None = None

    def program(self, segments: Segments = ()) -> Program:
        """A new program of these rules and declarations, with these facts."""
        return Program(dict(self.declarations), list(self.rules), rule_set=self, segments=segments)

    def admits(self, program: Program) -> bool:
        """Whether ``program`` still holds exactly these rules and declarations,
        and its facts name only declared relations."""
        return (
            len(program.rules) == len(self.rules)
            and all(map(operator.is_, program.rules, self.rules))
            and program.declarations == self.declarations
            and all(name in self.declarations for name, rows in program.segments if rows)
        )

    @property
    def plans(self) -> tuple[Callable[[dict], None], ...]:
        """The generated function of each stratum that has rules, in
        evaluation order, made on first use: ``export`` needs the rules, not
        the plans.  Each takes the relations and inserts what it derives."""
        if self._join_plans is None:
            self._join_plans = _plans(self.rules, self.strata)
        return self._join_plans


def prepare(rules: Program) -> RuleSet:
    """Validate and stratify a rule set once, for evaluation over many fact sets.

    Raises what :func:`check_program` raises, and a :class:`SortError` when an
    argument's sort would be left to the facts to settle.
    """
    if rules.facts:
        raise ValueError("a rule set to prepare must not hold facts")
    program = Program(dict(rules.declarations), list(rules.rules))
    slots = _infer_declarations(program)
    for name, sorts in slots.items():
        if _UNKNOWN in sorts:
            raise SortError(
                f"argument {sorts.index(_UNKNOWN) + 1} of {name!r} has a sort "
                "that only facts would settle; declare it"
            )
    return _complete(program, slots)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# what a tuple's slot holds: None for an input fact, else the rule's ordinal
# in its rule set and one body tuple per positive atom, in body order
Step = Optional[tuple]


class Database(Record, Mapping):
    """Relation name -> frozen set of ground tuples, plus one derivation each.

    :func:`evaluate` keeps the step that first derived a tuple in the
    tuple's own slot of its relation: ``None`` for an input fact, else
    ``(i, t0, t1, ...)``, the ordinal of the rule in the :class:`RuleSet`
    evaluated and one body tuple per positive atom.  Only :func:`explain`
    reads the slots and the rule set; equality compares the relations alone.
    """

    __slots__ = ("relations", "_steps", "_rule_set")
    _fields = ("relations",)

    def __init__(self, steps: dict[str, dict[tuple, Step]], rule_set: RuleSet) -> None:
        """The model whose slots are ``steps``, derived by ``rule_set``."""
        self.relations = {name: frozenset(slots) for name, slots in steps.items()}
        self._steps, self._rule_set = steps, rule_set

    def __getitem__(self, name: str) -> frozenset:
        return self.relations[name]

    def __iter__(self):
        return iter(self.relations)

    def __len__(self) -> int:
        return len(self.relations)


def _match(atom: Atom, values: tuple) -> dict | None:
    """The binding of the atom's variables under which it is ``values``, if any."""
    binding: dict = {}
    for term, value in zip(atom.args, values):
        if isinstance(term, Var):
            if binding.setdefault(term.name, value) != value:
                return None
        elif not isinstance(term, Wildcard) and term != value:
            return None
    return binding


def _tuple_getter(positions: list[int]) -> Callable[[Sequence], tuple]:
    """``values -> tuple(values[p] for p in positions)``, always a tuple."""
    if len(positions) >= 2:
        return operator.itemgetter(*positions)
    if positions:
        (only,) = positions
        return lambda values: (values[only],)
    return lambda values: ()


class _Relation:
    """One relation during evaluation: tuples in insertion order, each with
    its slot (the step that first derived it), plus hash indexes from a tuple
    of bound columns to the tuples carrying those values."""

    __slots__ = ("tuples", "indexes")

    def __init__(self) -> None:
        self.tuples: dict[tuple, Step] = {}
        self.indexes: dict[tuple[int, ...], tuple[Callable, dict]] = {}

    def index(self, columns: tuple[int, ...]) -> dict[tuple, list[tuple]]:
        entry = self.indexes.get(columns)
        if entry is None:
            key_of = _tuple_getter(list(columns))
            index: dict[tuple, list[tuple]] = {}
            for values in self.tuples:
                index.setdefault(key_of(values), []).append(values)
            entry = self.indexes[columns] = (key_of, index)
        return entry[1]


_PYTHON_OP = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "=": "==", "!=": "!="}
# for loops per generated function: with the ``while`` of the rounds around
# them, within CPython's limit of 20 statically nested blocks
_LOOPS_PER_FUNCTION = 16


def _tuple_source(items: list[str]) -> str:
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _literal(constant: str | int) -> str:
    """A rule constant as Python source: a symbol's ``repr``, or a number in
    hex, to which no int-to-str digit limit applies (``repr(10**5000)`` raises)."""
    return repr(constant) if type(constant) is str else hex(constant)


def _plan(
    rule: Rule, ordinal: int, delta_position: int | None, stratum: Sequence[str],
    reads: dict[tuple[str, Optional[tuple[int, ...]]], str], helpers: list[list[str]],
) -> list[str]:
    """Generate the join plan of one rule, as lines of its stratum's function:
    nested ``for`` loops over index lookups, one per positive atom, inserting
    each new head tuple (buffered when the plan reads its head relation
    outside the delta).  An exit plan (``delta_position`` None) feeds no
    delta; a round plan reads the atom at ``delta_position`` from ``d<j>``
    and adds new tuples to the next round's ``n<j>`` too.

    The delta atom (if any) is scanned first; then, greedily, the atom with
    the most bound arguments (ties to the earlier body position) is probed
    through an index keyed by its bound columns.  Negated atoms (single index
    probes) and comparisons run as soon as their variables are bound.
    Variables become locals ``v0, v1, ...``, the tuple of each step ``t<n>``,
    and constants and the rule's ``ordinal`` literals.  A relation's tuples
    (``columns`` None) or its index on ``columns`` is the local
    ``reads[predicate, columns]``, named ``r<i>`` on first use.  Loops past
    ``_LOOPS_PER_FUNCTION`` continue in a function ``s<k>`` appended to
    ``helpers``.
    """
    atoms = rule.positive_atoms()
    names: dict[str, str] = {}  # rule variable -> local name

    def value(term: Term) -> str:
        return names[term.name] if isinstance(term, Var) else _literal(term)

    def key(terms) -> str:
        return _tuple_source([value(term) for term in terms])

    def read(predicate: str, columns: Optional[tuple[int, ...]]) -> str:
        return reads.setdefault((predicate, columns), f"r{len(reads)}")

    def fails(lit: Comparison | NegatedAtom) -> str:
        """A condition that holds when ``lit`` does not."""
        if isinstance(lit, Comparison):
            return f"not {value(lit.left)} {_PYTHON_OP[lit.op]} {value(lit.right)}"
        args = lit.atom.args
        columns = tuple(c for c, t in enumerate(args) if not isinstance(t, Wildcard))
        present = read(lit.atom.predicate, None if len(columns) == len(args) else columns)
        return f"{key(args[c] for c in columns)} in {present}"

    def ready_filters() -> list[str]:
        ready = [
            lit for lit in pending
            if all(
                t.name in names
                for t in (lit.atom.args if isinstance(lit, NegatedAtom) else (lit.left, lit.right))
                if isinstance(t, Var)
            )
        ]
        for lit in ready:
            pending.remove(lit)
        return [fails(lit) for lit in ready]

    def bound_args(atom: Atom) -> int:
        return sum(
            t.name in names if isinstance(t, Var) else not isinstance(t, Wildcard)
            for t in atom.args
        )

    head = rule.head.predicate
    buffered = any(a.predicate == head for i, a in enumerate(atoms) if i != delta_position)
    j = stratum.index(head)
    feeds = delta_position is not None  # an exit plan feeds no delta
    sink = [f"add = n{j}.append"] * feeds
    body = ["out = []; add = out.append"] if buffered else sink
    lines, depth, loops = body, 0, 0  # the function being written, its indentation

    def emit(line: str) -> None:
        lines.append("    " * depth + line)

    pending = [lit for lit in rule.body if not isinstance(lit, Atom)]
    conditions = ready_filters()
    if conditions:
        emit(f"if not ({' or '.join(conditions)}):")
        depth += 1
    steps: dict[int, str] = {}  # atom position -> local holding its tuple
    remaining = list(range(len(atoms)))
    while remaining:
        if delta_position in remaining:
            position = delta_position
        else:
            position = max(remaining, key=lambda i: (bound_args(atoms[i]), -i))
        remaining.remove(position)
        atom = atoms[position]
        if loops == _LOOPS_PER_FUNCTION:
            live = ", ".join(["add"] * feeds + [*steps.values(), *names.values()])
            emit(f"s{len(helpers)}({live})")
            lines = [f"def s{len(helpers)}({live}):"]
            helpers.append(lines)
            depth, loops = 1, 0
        row = f"t{len(steps)}"
        steps[position] = row
        columns: list[int] = []
        bound: list[Term] = []
        first_column: dict[str, int] = {}
        same: list[tuple[int, int]] = []
        for column, term in enumerate(atom.args):
            if isinstance(term, Wildcard):
                continue
            if isinstance(term, Var) and term.name not in names:
                if term.name in first_column:
                    same.append((column, first_column[term.name]))
                else:
                    first_column[term.name] = column
                continue
            columns.append(column)
            bound.append(term)
        if position == delta_position:
            candidates = f"d{stratum.index(atom.predicate)}"
        elif columns:
            candidates = f"{read(atom.predicate, tuple(columns))}.get({key(bound)}, ())"
        else:
            candidates = read(atom.predicate, None)
        emit(f"for {row} in {candidates}:")
        depth, loops = depth + 1, loops + 1
        if position == delta_position:
            # nothing is bound before the delta atom: its bound columns are constants
            for column, term in zip(columns, bound):
                emit(f"if {row}[{column}] != {value(term)}: continue")
        for column, earlier in same:
            emit(f"if {row}[{column}] != {row}[{earlier}]: continue")
        if first_column:
            targets = ["_"] * len(atom.args)
            for name, column in first_column.items():
                names[name] = targets[column] = f"v{len(names)}"
            emit(f"{_tuple_source(targets)} = {row}")
        for condition in ready_filters():
            emit(f"if {condition}: continue")
    # the step kept in the new tuple's slot: the rule's ordinal, then each atom's tuple
    step = _tuple_source([str(ordinal)] + [steps[p] for p in range(len(atoms))])
    if buffered:
        emit(f"add(({key(rule.head.args)}, {step}))")
        body += [*sink, "for h, step in out:"]
        lines, depth, step = body, 1, "step"
    else:
        emit(f"h = {key(rule.head.args)}")
    lines.extend("    " * depth + line for line in [
        f"if h not in seen{j}:",
        f"    seen{j}[h] = {step}",
        f"    for key_of, index in ix{j}: index.setdefault(key_of(h), []).append(h)",
        *["    add(h)"] * feeds,
    ])
    return body


def _plans(
    rules: Sequence[Rule], strata: Sequence[Sequence[str]]
) -> tuple[Callable[[dict], None], ...]:
    """One generated function ``make(relations)`` per stratum that has rules,
    in evaluation order.  It reads what it probes from ``relations`` (the
    tuples ``seen<j>`` and indexes ``ix<j>`` of the stratum's j-th predicate),
    runs each exit rule's plan once and then, while a delta ``d<j>`` (at first
    all of ``seen<j>``) is not empty, a round: the plans of each other rule
    per body atom of the stratum, each reading the last round's delta."""
    out = []
    for stratum in strata:
        members = [(k, r) for k, r in enumerate(rules) if r.head.predicate in stratum]
        if not members:
            continue
        reads = {(name, None): f"seen{j}" for j, name in enumerate(stratum)}
        helpers: list[list[str]] = []
        shared = (stratum, reads, helpers)
        deltas, news = ([f"{d}{j}" for j in range(len(stratum))] for d in "dn")
        run = [  # the exit rules' plans
            line for k, rule in members
            if all(atom.predicate not in stratum for atom in rule.positive_atoms())
            for line in _plan(rule, k, None, *shared)
        ]
        rounds = [
            line
            for k, rule in members
            for i, atom in enumerate(rule.positive_atoms())
            if atom.predicate in stratum
            for line in _plan(rule, k, i, *shared)
        ]
        if rounds:
            run.append("; ".join(f"{d} = list(seen{j})" for j, d in enumerate(deltas)))
            run.append(f"while {' or '.join(deltas)}:")
            run += ["    " + line for line in ["; ".join(f"{n} = []" for n in news), *rounds]]
            run.append(f"    {', '.join(deltas)} = {', '.join(news)}")
        preamble = [f"ix{j} = relations[{p!r}].indexes.values()" for j, p in enumerate(stratum)]
        preamble += [
            f"{local} = relations[{p!r}]." + ("tuples" if columns is None else f"index({columns})")
            for (p, columns), local in reads.items()
        ]
        source = "\n".join(
            ["def make(relations):"]
            + ["    " + line for lines in (preamble, *helpers, run) for line in lines]
            + [""]
        )
        # the file name differs with the text, so profilers keep strata apart
        out.append(compiled_make(source, f"<stratum {zlib.crc32(source.encode()):08x}>"))
    return tuple(out)


def evaluate(program: Program) -> Database:
    """Minimal model of a valid program; total on stratifiable inputs.

    A program whose :class:`RuleSet` still admits it has only its facts
    checked; any other program goes through :func:`check_program`.
    """
    rule_set = program.rule_set
    if rule_set is not None and rule_set.admits(program):
        # the declarations name every relation and settle every sort: only read
        _check_facts(program.segments, rule_set.declarations, rule_set.declarations)
    else:
        rule_set = check_program(program)
    relations = {name: _Relation() for name in program.declarations}
    for name, rows in program.segments:  # ground facts: their arguments are their tuples
        if rows:  # an empty segment declares nothing
            relations[name].tuples.update(dict.fromkeys(rows))
    for run in rule_set.plans:
        run(relations)
    return Database({name: rel.tuples for name, rel in relations.items()}, rule_set)


# ---------------------------------------------------------------------------
# Queries and provenance
# ---------------------------------------------------------------------------


def query(db: Database, pattern: Atom) -> list[dict]:
    """All substitutions of pattern variables matching a tuple.

    Results are ordered lexicographically by the matched tuple (columns of
    one relation are sort-homogeneous, so tuples compare directly).
    """
    if pattern.predicate not in db.relations:
        raise UnknownRelationError(pattern.predicate)
    relation = db.relations[pattern.predicate]
    arities = {len(values) for values in relation}
    if arities and len(pattern.args) not in arities:
        raise ArityMismatchError(pattern.predicate, arities.pop(), len(pattern.args))
    results = []
    for values in sorted(relation):
        binding = _match(pattern, values)
        if binding is not None:
            results.append(binding)
    return results


class Derivation:
    """One derivation: leaves are input facts, inner nodes rule firings.

    Nodes built by :func:`explain` are shared between every occurrence of
    the same fact, so a derivation is a DAG whose unfolding is the proof tree.
    Equality and hashing are by identity, and the repr shows one level, so
    none of them recurse through a long proof.
    """

    __slots__ = ("fact", "rule", "children")

    def __init__(
        self, fact: Atom, rule: Rule | None, children: tuple[Derivation, ...] = ()
    ) -> None:
        self.fact = fact
        self.rule = rule
        self.children = children

    def __repr__(self) -> str:
        rule = None if self.rule is None else print_rule(self.rule)
        return f"Derivation({print_atom(self.fact)!r}, rule={rule!r}, children={len(self.children)})"

    def leaves(self) -> list[Atom]:
        """Input facts at the leaves of the unfolded tree, left to right."""
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if node.rule is None:
                out.append(node.fact)
            else:
                stack.extend(reversed(node.children))
        return out


def explain(db: Database, fact: Atom) -> Derivation:
    """One derivation of a ground fact; raises NotDerivableError otherwise.

    Built top-down in one pass with an explicit stack, one node per distinct
    fact, so neither proof depth nor repeated sub-proofs are limited by
    recursion.  A fact's node is made, and its slot read, the first time the
    fact is seen; a derived fact's step is then stacked once, and gives the
    node its rule and children when it comes off the stack.  The slots are
    the only record of a derivation, so this is where a proof is built, on
    request; a step's rule and the relations of its body tuples are read
    from the rule set.
    """
    name, values = fact.predicate, fact.value_tuple()
    if name not in db.relations or values not in db.relations[name]:
        raise NotDerivableError(print_atom(fact))
    steps, rules, body = db._steps, db._rule_set.rules, db._rule_set.body_predicates
    root = Derivation(fact, None)
    step = steps[name][values]
    if step is None:
        return root
    built = {(name, values): root}
    stack = [(root, step)]
    while stack:
        node, step = stack.pop()
        children = []
        for key in zip(body[step[0]], step[1:]):
            child = built.get(key)
            if child is None:
                child = built[key] = Derivation(Atom(*key), None)
                below = steps[key[0]][key[1]]
                if below is not None:  # stacked once: the fact is in ``built`` now
                    stack.append((child, below))
            children.append(child)
        node.rule, node.children = rules[step[0]], tuple(children)
    return root
