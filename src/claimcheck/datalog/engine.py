"""Program validation and deterministic bottom-up evaluation.

Evaluation computes the minimal model stratum by stratum: within each
stratum the least fixpoint of the positive rules is reached semi-naively
(only joins touching tuples new in the previous round are re-run), and
negated atoms consult relations of strictly lower strata.

Each rule is compiled once per delta position into a join plan whose atoms
are probed through hash indexes on their bound columns; negated atoms are
single index probes.  Plans and indexes live for one :func:`evaluate` call.
A rule set evaluated over many fact sets is validated and stratified once
per process by :func:`prepare`; evaluating a program built from the
resulting :class:`RuleSet` then checks only its facts.

Relations are kept in insertion order and no step iterates over a hashed
set, so verdicts and provenance (the first derivation found for each tuple)
do not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Container, Mapping, NamedTuple, Optional, Sequence

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
    Rule,
    SYMBOL,
    Term,
    Var,
    Wildcard,
    print_atom,
    print_rule,
)

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


def _check_facts(
    facts: Sequence[Atom], slots: dict[str, list[str]], declared: Container[str]
) -> None:
    """Check facts against ``slots`` (relation -> argument sorts so far) and
    settle the slots they touch; a relation no slot names yet gets one from
    its first fact.  Raises for a wrong arity, a clashing sort, or an
    argument that is not a constant, in that order of precedence.
    """
    for fact in facts:
        sorts = slots.get(fact.predicate)
        if sorts is None:
            slots[fact.predicate] = [_UNKNOWN] * len(fact.args)
        elif len(fact.args) != len(sorts):
            raise ArityMismatchError(fact.predicate, len(sorts), len(fact.args))
    # A slot never changes once set, so one pass settles every slot facts touch.
    for fact in facts:
        sorts = slots[fact.predicate]
        for i, term in enumerate(fact.args):
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
                    f"fact {print_atom(fact)}", fact.predicate, i, sorts[i], sort, declared
                )
    for fact in facts:
        for i, term in enumerate(fact.args, 1):
            if isinstance(term, (Var, Wildcard)):
                raise RangeRestrictionError(
                    f"fact {fact.predicate} contains a variable or wildcard"
                )
            if type(term) is not str and type(term) is not int:
                raise RangeRestrictionError(
                    f"fact {fact.predicate}: argument {i} is {term!r}, "
                    "neither a symbol (str) nor a number (int)"
                )


def _infer_declarations(program: Program) -> dict[str, list[str]]:
    """Argument sorts of every relation, from the declarations, the facts
    and then the rules; a slot nothing settles stays ``_UNKNOWN``."""
    slots: dict[str, list[str]] = {
        name: list(sorts) for name, sorts in program.declarations.items()
    }
    declared = set(program.declarations)
    _check_facts(program.facts, slots, declared)
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
    for cmp in rule.comparisons():
        for side in (cmp.left, cmp.right):
            if isinstance(side, Wildcard):
                raise RangeRestrictionError(
                    f"rule for {rule.head.predicate!r}: wildcard in comparison"
                )
            if type(side) is str:
                raise SortError(
                    f"rule for {rule.head.predicate!r}: comparison over symbol "
                    f"{side!r}"
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


def _complete(program: Program, slots: dict[str, list[str]]) -> list[list[str]]:
    """Declare every relation with its inferred sorts (an unsettled argument
    is a symbol), check the rules, and return the strata."""
    program.declarations = {
        name: tuple(SYMBOL if s == _UNKNOWN else s for s in sorts)
        for name, sorts in slots.items()
    }
    for rule in program.rules:
        _check_rule(rule, slots)
    return stratify(program)


def check_program(program: Program) -> list[list[str]]:
    """Validate and complete a program in place (auto-declaring predicates);
    returns its strata, as :func:`stratify` does."""
    return _complete(program, _infer_declarations(program))


_TYPE_OF_SORT = {SYMBOL: str, NUMBER: int}


@dataclass(frozen=True, eq=False)
class RuleSet:
    """A facts-free program validated and stratified once, by :func:`prepare`.

    ``declarations`` cover every relation the rules name, with all argument
    sorts settled, so a program built by :meth:`program` only has its facts
    checked against them when it is evaluated.
    """

    rules: tuple[Rule, ...]
    declarations: Mapping[str, tuple[str, ...]]
    strata: tuple[tuple[str, ...], ...]
    # relation -> type of each argument of a valid fact: str or int
    fact_types: Mapping[str, tuple[type, ...]]

    def program(self) -> Program:
        """A new program of these rules and declarations, without facts."""
        return Program(dict(self.declarations), list(self.rules), rule_set=self)

    def admits(self, program: Program) -> bool:
        """Whether ``program`` still holds exactly these rules and declarations."""
        return (
            len(program.rules) == len(self.rules)
            and all(map(operator.is_, program.rules, self.rules))
            and program.declarations == self.declarations
        )


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
    strata = _complete(program, slots)
    return RuleSet(
        rules=tuple(program.rules),
        declarations=MappingProxyType(program.declarations),
        strata=tuple(map(tuple, strata)),
        fact_types=MappingProxyType({
            name: tuple(_TYPE_OF_SORT[sort] for sort in sorts)
            for name, sorts in program.declarations.items()
        }),
    )


def _check_prepared_facts(program: Program, rule_set: RuleSet) -> None:
    """The fact checks of :func:`check_program`, for a program that
    ``rule_set`` admits: its rules are valid and its sorts are fixed."""
    types_of = rule_set.fact_types.get
    for fact in program.facts:
        if types_of(fact.predicate) != tuple(map(type, fact.args)):
            break
    else:
        return  # each fact is a constant tuple of its relation's declared sorts
    slots = {name: list(sorts) for name, sorts in rule_set.declarations.items()}
    _check_facts(program.facts, slots, rule_set.declarations)
    # valid after all: some fact names a relation no rule does, declared here
    # as check_program would declare it
    program.declarations = {name: tuple(sorts) for name, sorts in slots.items()}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

Provenance = Optional[tuple[Rule, tuple[tuple[str, tuple], ...]]]


@dataclass
class Database(Mapping):
    """Relation name -> frozen set of ground tuples, plus one derivation each."""

    relations: dict[str, frozenset]
    provenance: dict[tuple[str, tuple], Provenance] = field(default_factory=dict)

    def __getitem__(self, name: str) -> frozenset:
        return self.relations[name]

    def __iter__(self):
        return iter(self.relations)

    def __len__(self) -> int:
        return len(self.relations)


def _match(atom: Atom, values: tuple, binding: dict) -> dict | None:
    new_binding = None
    for term, value in zip(atom.args, values):
        if isinstance(term, Var):
            current = (new_binding or binding).get(term.name, _UNKNOWN)
            if current is _UNKNOWN:
                if new_binding is None:
                    new_binding = dict(binding)
                new_binding[term.name] = value
            elif current != value:
                return None
        elif isinstance(term, Wildcard):
            continue
        elif term != value:
            return None
    return binding if new_binding is None else new_binding


_CMP = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "!=": operator.ne,
}


def _tuple_getter(positions: list[int]) -> Callable[[Sequence], tuple]:
    """``values -> tuple(values[p] for p in positions)``, always a tuple."""
    if len(positions) >= 2:
        return operator.itemgetter(*positions)
    if positions:
        (only,) = positions
        return lambda values: (values[only],)
    return lambda values: ()


class _Relation:
    """One relation during evaluation: tuples in insertion order, plus hash
    indexes from a tuple of bound columns to the tuples carrying those values.
    """

    __slots__ = ("tuples", "indexes")

    def __init__(self) -> None:
        self.tuples: dict[tuple, None] = {}
        self.indexes: dict[tuple[int, ...], tuple[Callable, dict]] = {}

    def add(self, values: tuple) -> bool:
        if values in self.tuples:
            return False
        self.tuples[values] = None
        for key_of, index in self.indexes.values():
            index.setdefault(key_of(values), []).append(values)
        return True

    def index(self, columns: tuple[int, ...]) -> dict[tuple, list[tuple]]:
        entry = self.indexes.get(columns)
        if entry is None:
            key_of = _tuple_getter(list(columns))
            index: dict[tuple, list[tuple]] = {}
            for values in self.tuples:
                index.setdefault(key_of(values), []).append(values)
            entry = self.indexes[columns] = (key_of, index)
        return entry[1]


Derived = list[tuple[tuple, tuple[tuple[str, tuple], ...]]]


class _Step(NamedTuple):
    """One positive atom of a join plan, in plan order."""

    position: int  # among the rule's positive atoms: its slot in the support
    predicate: str
    columns: list[int]  # columns bound before this step: the index key
    key_slots: list[int]  # environment slots holding the key's values
    same: list[tuple[int, int]]  # (column, earlier column) sharing a new variable
    assign: list[tuple[int, int]]  # (column, slot) binding a new variable
    filters: list[Callable[[list], bool]]  # checks decidable once this step binds


def _compile(
    rule: Rule, delta_position: int | None, relations: dict[str, _Relation]
) -> Callable[[list], Derived]:
    """A join plan for one rule, as a function from the delta to the derived
    (head tuple, support) pairs in enumeration order.

    The delta atom (if any) is scanned first; then, greedily, the atom with
    the most bound arguments (ties to the earlier body position) is probed
    through an index keyed by its bound columns.  Variables and constants
    live in slots of one environment list, so keys, comparisons and the head
    are read out of it with item getters.
    Negated atoms and comparisons run as soon as their variables are bound.
    """
    atoms = rule.positive_atoms()
    env: list = []
    slots: dict[str, int] = {}

    def slot_of(term: Term) -> int:
        if isinstance(term, Var):
            return slots[term.name]
        env.append(term)
        return len(env) - 1

    def bound_args(atom: Atom) -> int:
        return sum(
            t.name in slots if isinstance(t, Var) else not isinstance(t, Wildcard)
            for t in atom.args
        )

    def variables(lit) -> set[str]:
        terms = lit.atom.args if isinstance(lit, NegatedAtom) else (lit.left, lit.right)
        return {t.name for t in terms if isinstance(t, Var)}

    def ready_filters() -> list[Callable[[list], bool]]:
        ready = [lit for lit in pending if variables(lit).issubset(slots)]
        for lit in ready:
            pending.remove(lit)
        return [_compile_filter(lit, slot_of, relations) for lit in ready]

    pending = [lit for lit in rule.body if not isinstance(lit, Atom)]
    prefilters = ready_filters()
    remaining = list(range(len(atoms)))
    steps = []
    while remaining:
        if delta_position in remaining:
            position = delta_position
        else:
            position = max(remaining, key=lambda i: (bound_args(atoms[i]), -i))
        remaining.remove(position)
        atom = atoms[position]
        columns: list[int] = []
        key_slots: list[int] = []
        first_column: dict[str, int] = {}
        same: list[tuple[int, int]] = []
        for column, term in enumerate(atom.args):
            if isinstance(term, Wildcard):
                continue
            if isinstance(term, Var) and term.name not in slots:
                if term.name in first_column:
                    same.append((column, first_column[term.name]))
                else:
                    first_column[term.name] = column
                continue
            columns.append(column)
            key_slots.append(slot_of(term))
        assign = []
        for name, column in first_column.items():
            slots[name] = len(env)
            env.append(None)
            assign.append((column, slots[name]))
        steps.append(
            _Step(position, atom.predicate, columns, key_slots, same, assign, ready_filters())
        )

    support: list = [None] * len(atoms)
    out: Derived = []
    head_of = _tuple_getter([slot_of(t) for t in rule.head.args])
    delta_box: list = [()]

    def emit() -> None:
        out.append((head_of(env), tuple(support)))

    run_next = emit
    for number in reversed(range(len(steps))):
        from_delta = number == 0 and delta_position is not None
        run_next = _compile_step(
            steps[number], from_delta, relations, env, support, delta_box, run_next
        )

    def run(delta: list) -> Derived:
        nonlocal out
        out = []
        if all(check(env) for check in prefilters):
            delta_box[0] = delta
            run_next()
        return out

    return run


def _compile_filter(
    lit: Comparison | NegatedAtom,
    slot_of: Callable[[Term], int],
    relations: dict[str, _Relation],
) -> Callable[[list], bool]:
    if isinstance(lit, Comparison):
        holds, left, right = _CMP[lit.op], slot_of(lit.left), slot_of(lit.right)
        return lambda env: holds(env[left], env[right])
    atom = lit.atom
    columns = [c for c, t in enumerate(atom.args) if not isinstance(t, Wildcard)]
    key_of = _tuple_getter([slot_of(atom.args[c]) for c in columns])
    if len(columns) == len(atom.args):
        present = relations[atom.predicate].tuples
    else:
        present = relations[atom.predicate].index(tuple(columns))
    return lambda env: key_of(env) not in present


def _compile_step(
    step: _Step,
    from_delta: bool,
    relations: dict[str, _Relation],
    env: list,
    support: list,
    delta_box: list,
    run_next: Callable[[], None],
) -> Callable[[], None]:
    """The loop over one step's candidate tuples, calling ``run_next`` for
    each that matches; ``delta_box[0]`` holds the delta of the current run."""
    position, predicate, columns, key_slots, same, assign, filters = step
    relation = relations[predicate]
    key_of = _tuple_getter(key_slots)
    if from_delta:
        # nothing is bound before the delta atom: its bound columns are constants
        column_values = _tuple_getter(columns)

        def candidates():
            if not columns:
                return delta_box[0]
            key = key_of(env)
            return [v for v in delta_box[0] if column_values(v) == key]

    elif columns:
        index = relation.index(tuple(columns))

        def candidates():
            return index.get(key_of(env), ())

    else:
        tuples = relation.tuples

        def candidates():
            return tuples

    def step_fn() -> None:
        for values in candidates():
            if same and any(values[a] != values[b] for a, b in same):
                continue
            for column, slot in assign:
                env[slot] = values[column]
            if filters and not all(check(env) for check in filters):
                continue
            support[position] = (predicate, values)
            run_next()

    return step_fn


def evaluate(program: Program) -> Database:
    """Minimal model of a valid program; total on stratifiable inputs.

    A program built from a prepared :class:`RuleSet`, whose rules and
    declarations are still the rule set's, has only its facts checked; any
    other program goes through :func:`check_program`.
    """
    rule_set = program.rule_set
    if rule_set is not None and rule_set.admits(program):
        _check_prepared_facts(program, rule_set)
        strata = rule_set.strata
    else:
        strata = check_program(program)
    relations = {name: _Relation() for name in program.declarations}
    provenance: dict[tuple[str, tuple], Provenance] = {}
    for fact in program.facts:  # ground, so its arguments are its tuple
        if relations[fact.predicate].add(fact.args):
            provenance[(fact.predicate, fact.args)] = None

    def insert(rule: Rule, derived: Derived, delta: dict[str, list]) -> None:
        name = rule.head.predicate
        relation, new = relations[name], delta[name]
        for values, support in derived:
            if relation.add(values):
                new.append(values)
                provenance[(name, values)] = (rule, support)

    for stratum in strata:
        rules = [r for r in program.rules if r.head.predicate in stratum]
        if not rules:
            continue
        delta: dict[str, list] = {name: [] for name in stratum}
        for rule in rules:
            insert(rule, _compile(rule, None, relations)([]), delta)
        plans = [
            (rule, atom.predicate, _compile(rule, i, relations))
            for rule in rules
            for i, atom in enumerate(rule.positive_atoms())
            if atom.predicate in delta
        ]
        while any(delta.values()):
            new_delta: dict[str, list] = {name: [] for name in stratum}
            for rule, predicate, plan in plans:
                if delta[predicate]:
                    insert(rule, plan(delta[predicate]), new_delta)
            delta = new_delta

    return Database(
        relations={name: frozenset(rel.tuples) for name, rel in relations.items()},
        provenance=provenance,
    )


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
        binding = _match(pattern, values, {})
        if binding is not None:
            results.append(dict(binding))
    return results


@dataclass(frozen=True, eq=False)
class Derivation:
    """One derivation: leaves are input facts, inner nodes rule firings.

    Nodes built by :func:`explain` are shared between every occurrence of
    the same fact, so a derivation is a DAG whose unfolding is the proof tree.
    Equality and hashing are by identity, and the repr shows one level, so
    none of them recurse through a long proof.
    """

    fact: Atom
    rule: Rule | None
    children: tuple["Derivation", ...] = ()

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

    Built bottom-up with an explicit stack, one node per distinct fact, so
    neither proof depth nor repeated sub-proofs are limited by recursion.
    """
    root = (fact.predicate, fact.value_tuple())
    if fact.predicate not in db.relations or root[1] not in db.relations[fact.predicate]:
        raise NotDerivableError(print_atom(fact))
    built: dict[tuple[str, tuple], Derivation] = {}
    stack = [root]
    while stack:
        key = stack[-1]
        if key in built:
            stack.pop()
            continue
        step = db.provenance.get(key)
        if step is not None:
            pending = [child for child in step[1] if child not in built]
            if pending:
                # provenance only cites tuples derived earlier, so this ends
                stack.extend(reversed(pending))
                continue
        atom = fact if key == root else Atom(*key)
        if step is None:
            built[key] = Derivation(atom, None)
        else:
            rule, support = step
            built[key] = Derivation(atom, rule, tuple(built[child] for child in support))
        stack.pop()
    return built[root]
