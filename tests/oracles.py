"""Independent reference implementations used to check the package.

Nothing here reuses the evaluator: stratification is recomputed by
level-number relaxation instead of SCCs, and the fixpoint is a naive
full-recompute over cartesian products of the body relations.  The
tokenizer oracle matches one token (whitespace included) at a time and
tracks line and column as it goes; the msan witness oracle enumerates
every chain instead of searching.  The reference loaders read fact text
through the full parser and the checks on atoms, never the typed fact scan.
The reference fact check takes every fact on its own, never a segment at
a time.
"""

from __future__ import annotations

import itertools
import re

from claimcheck.datalog.ast import (
    NUMBER,
    SYMBOL,
    Atom,
    Comparison,
    NegatedAtom,
    Program,
    Var,
    Wildcard,
    print_atom,
)
from claimcheck.datalog.parser import parse_facts
from claimcheck.errors import (
    ArityMismatchError,
    ClaimcheckError,
    DatalogSyntaxError,
    RangeRestrictionError,
    SortError,
)
from claimcheck.facts import equiv_bundle_from_atoms, msan_facts_from_atoms

_CMP = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def _order(row: tuple) -> list:
    """A total order on tuples of symbols and numbers, a number before a
    symbol; no value is written as text, so no int-to-str limit applies."""
    return [(type(v) is str, v) for v in row]


def _match(atom: Atom, values: tuple, binding: dict) -> dict | None:
    binding = dict(binding)
    for term, value in zip(atom.args, values):
        if isinstance(term, Var):
            if term.name in binding and binding[term.name] != value:
                return None
            binding[term.name] = value
        elif isinstance(term, Wildcard):
            continue
        elif term != value:
            return None
    return binding


def _term_value(term, binding):
    if isinstance(term, Var):
        return binding[term.name]
    return term


def _levels(program: Program) -> dict[str, int]:
    """Stratum levels by relaxation; raises if negation sits on a cycle."""
    predicates = set(program.declarations)
    for rule in program.rules:
        predicates.add(rule.head.predicate)
        for lit in rule.body:
            if isinstance(lit, Atom):
                predicates.add(lit.predicate)
            elif isinstance(lit, NegatedAtom):
                predicates.add(lit.atom.predicate)
    level = {p: 0 for p in predicates}
    for _ in range(len(predicates) + 1):
        changed = False
        for rule in program.rules:
            head = rule.head.predicate
            for lit in rule.body:
                if isinstance(lit, Atom):
                    required = level[lit.predicate]
                elif isinstance(lit, NegatedAtom):
                    required = level[lit.atom.predicate] + 1
                else:
                    continue
                if level[head] < required:
                    level[head] = required
                    changed = True
        if not changed:
            return level
    raise ValueError("program is not stratifiable")


def naive_evaluate(program: Program) -> dict[str, frozenset]:
    """Full-recompute fixpoint, stratum by stratum."""
    levels = _levels(program)
    state: dict[str, set] = {p: set() for p in levels}
    for name in program.declarations:
        state.setdefault(name, set())
    for fact in program.facts:
        state.setdefault(fact.predicate, set()).add(fact.value_tuple())

    for current in sorted(set(levels.values())):
        rules = [r for r in program.rules if levels[r.head.predicate] == current]
        changed = True
        while changed:
            changed = False
            for rule in rules:
                positives = rule.positive_atoms()
                pools = [sorted(state[a.predicate], key=_order) for a in positives]
                for combo in itertools.product(*pools):
                    binding: dict | None = {}
                    for atom, values in zip(positives, combo):
                        binding = _match(atom, values, binding)
                        if binding is None:
                            break
                    if binding is None:
                        continue
                    ok = True
                    for lit in rule.body:
                        if isinstance(lit, Comparison):
                            if not _CMP[lit.op](
                                _term_value(lit.left, binding),
                                _term_value(lit.right, binding),
                            ):
                                ok = False
                                break
                        elif isinstance(lit, NegatedAtom):
                            rel = state[lit.atom.predicate]
                            if any(
                                _match(lit.atom, v, binding) is not None for v in rel
                            ):
                                ok = False
                                break
                    if not ok:
                        continue
                    head = tuple(_term_value(t, binding) for t in rule.head.args)
                    if head not in state[rule.head.predicate]:
                        state[rule.head.predicate].add(head)
                        changed = True
    return {name: frozenset(values) for name, values in state.items()}


def reference_fact_error(program: Program) -> tuple[type, str] | None:
    """The class and message of the error the program's facts raise against
    its declarations, checked one fact at a time, or None: wrong arities
    first, then clashing sorts, then arguments that are not constants."""
    slots = {name: list(sorts) for name, sorts in program.declarations.items()}
    facts = program.facts
    try:
        for fact in facts:
            sorts = slots.setdefault(fact.predicate, ["?"] * len(fact.args))
            if len(fact.args) != len(sorts):
                raise ArityMismatchError(fact.predicate, len(sorts), len(fact.args))
        for fact in facts:
            sorts = slots[fact.predicate]
            for i, term in enumerate(fact.args):
                sort = {str: SYMBOL, int: NUMBER}.get(type(term))
                if sort is None:
                    continue
                if sorts[i] == "?":
                    sorts[i] = sort
                elif sorts[i] != sort:
                    how = (
                        f"is declared {sorts[i]}, found {sort}"
                        if fact.predicate in program.declarations
                        else f"is used both as {sorts[i]} and as {sort}"
                    )
                    raise SortError(
                        f"fact {print_atom(fact)}: argument {i + 1} of "
                        f"{fact.predicate!r} {how}"
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
    except ClaimcheckError as exc:
        return type(exc), str(exc)
    return None


def brute_force_query(relation: frozenset, pattern: Atom) -> list[dict]:
    """Linear scan over all tuples of one relation."""
    out = []
    for values in sorted(relation):
        binding = _match(pattern, values, {})
        if binding is not None:
            out.append(binding)
    return out


def _replays_step(node, input_facts: set[tuple], db) -> bool:
    """One node alone: a leaf must be an input fact, an inner node must
    re-fire its rule on its children's facts."""
    key = (node.fact.predicate, node.fact.value_tuple())
    if node.rule is None:
        return key in input_facts
    rule = node.rule
    positives = rule.positive_atoms()
    if len(positives) != len(node.children):
        return False
    binding: dict | None = {}
    for atom, child in zip(positives, node.children):
        if atom.predicate != child.fact.predicate:
            return False
        binding = _match(atom, child.fact.value_tuple(), binding)
        if binding is None:
            return False
    for lit in rule.body:
        if isinstance(lit, Comparison):
            if not _CMP[lit.op](
                _term_value(lit.left, binding), _term_value(lit.right, binding)
            ):
                return False
        elif isinstance(lit, NegatedAtom):
            rel = db.relations.get(lit.atom.predicate, frozenset())
            if any(_match(lit.atom, v, binding) is not None for v in rel):
                return False
    head = tuple(_term_value(t, binding) for t in rule.head.args)
    return head == node.fact.value_tuple()


def replay_derivation(root, input_facts: set[tuple], db) -> bool:
    """Re-derive the tree's root: every node must replay on its own and all
    its children must replay.  Post-order with an explicit stack, so depth
    is not bounded by the recursion limit; a sub-proof shared by several
    parents is checked once (memoised by node identity)."""
    replayed: dict[int, bool] = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in replayed:
            stack.pop()
            continue
        pending = [child for child in node.children if id(child) not in replayed]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        replayed[id(node)] = all(
            replayed[id(child)] for child in node.children
        ) and _replays_step(node, input_facts, db)
    return replayed[id(root)]


_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<decl>\.decl\b)
  | (?P<string>"(?:\\.|[^"\\])*")
  | (?P<number>-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|!=|:-|<|>|=|!|\(|\)|,|\.|:)
""",
    re.VERBOSE,
)


def reference_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """``(kind, text, line, column)`` per token, ending with ``eof``."""
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(source):
        m = _REFERENCE_TOKEN_RE.match(source, pos)
        if m is None:
            raise DatalogSyntaxError(
                line, pos - line_start + 1, f"unexpected character {source[pos]!r}"
            )
        kind = m.lastgroup or ""
        text = m.group()
        if kind not in ("ws", "comment"):
            tokens.append((kind, text, line, pos - line_start + 1))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rindex("\n") + 1
        pos = m.end()
    tokens.append(("eof", "", line, pos - line_start + 1))
    return tokens


def msan_witness_oracle(fs, pick=min):
    """Shortest qualifying msan chain by enumeration.

    Every chain is extended by every flow, level by level, with no record
    of visited sites; among the qualifying chains of the first level that
    has any, ``pick`` chooses by the (file, line, var) keys along the
    chain.  A qualifying chain ends at a claimed use and, when the set
    claims memory errors, at a claimed error site.
    """
    uses = {(f.var, f.file, f.line) for f in fs.uses}
    error_sites = {(f.file, f.line) for f in fs.memory_error}
    targets = {u for u in uses if not error_sites or (u[1], u[2]) in error_sites}
    flows = [
        ((f.src_var, f.src_file, f.src_line), (f.dst_var, f.dst_file, f.dst_line))
        for f in fs.flow
    ]
    chains = [((f.var, f.file, f.line),) for f in fs.uninitialized]
    sites = {chain[0] for chain in chains} | {site for flow in flows for site in flow}
    # a shortest chain visits no site twice, so it has at most len(sites) sites
    for _ in range(len(sites)):
        found = [chain for chain in chains if chain[-1] in targets]
        if found:
            return pick(
                found, key=lambda chain: tuple((f, l, v) for v, f, l in chain)
            )
        chains = [chain + (dst,) for chain in chains for src, dst in flows if src == chain[-1]]
    return None


def reference_load_msan_facts(source: str):
    """``load_msan_facts`` as the full parser and the checks on atoms read it."""
    return msan_facts_from_atoms(parse_facts(source))


def reference_load_equiv_bundle(code1: str, code2: str, correspondence: str):
    """``load_equiv_bundle`` as the full parser and the checks on atoms read it."""
    return equiv_bundle_from_atoms(
        parse_facts(code1), parse_facts(code2), parse_facts(correspondence)
    )


def load_outcome(load, *texts):
    """What ``load(*texts)`` returns, or the type and message of the
    ClaimcheckError it raises."""
    try:
        return load(*texts)
    except ClaimcheckError as exc:
        return type(exc).__name__, str(exc)
