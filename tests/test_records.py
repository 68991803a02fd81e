"""Value semantics of the records: Datalog terms and atoms, fact containers,
lint reports and mismatches.

Equality and hashing take the class into account, so a term never equals a
constant or a tuple; each ``repr`` is the one the records have always shown;
``len()`` of a fact container counts its facts.
"""

import pytest

from claimcheck.datalog.ast import (
    WILDCARD,
    Atom,
    Comparison,
    NegatedAtom,
    Program,
    Rule,
    Var,
    Wildcard,
)
from claimcheck.datalog.parser import parse_program
from claimcheck.equivalence import Mismatch
from claimcheck.facts import (
    EquivBundle,
    EquivSide,
    ExitFact,
    FlowFact,
    LintIssue,
    LintReport,
    MsanFactSet,
    SiteFact,
)
from claimcheck.msan import msan_program, verify_msan


def test_terms_and_atoms_never_equal_constants_or_tuples():
    assert Var("x") != "x" and "x" != Var("x")
    assert Atom("p", ()) != ("p", ())
    assert ("p", ()) != Atom("p", ())
    assert Atom("p", ("x",)) != Atom("p", (Var("x"),))
    a = Atom("p", ("x",))
    assert NegatedAtom(a) != a and a != NegatedAtom(a)
    assert len({Var("x"), "x"}) == 2
    assert len({Atom("p", ()), ("p", ())}) == 2


def test_equal_terms_and_atoms_hash_alike():
    assert Wildcard() == WILDCARD and hash(Wildcard()) == hash(WILDCARD)
    assert Var("x") == Var("x") and hash(Var("x")) == hash(Var("x"))
    assert Atom("p") == Atom("p", ())
    assert len({Atom("p", ("x", 1)), Atom("p", ("x", 1))}) == 1
    rule = Rule(Atom("p", (Var("x"),)), (Atom("q", (Var("x"),)),))
    assert rule == Rule(Atom("p", (Var("x"),)), (Atom("q", (Var("x"),)),))
    assert hash(rule) == hash(Rule(Atom("p", (Var("x"),)), (Atom("q", (Var("x"),)),)))


def test_datalog_reprs():
    assert repr(Atom("p", ("x", 1))) == "Atom(predicate='p', args=('x', 1))"
    rule = Rule(
        Atom("p", (Var("x"),)),
        (
            Atom("q", (Var("x"), WILDCARD)),
            NegatedAtom(Atom("r", (Var("x"),))),
            Comparison("<", Var("x"), 3),
        ),
    )
    assert repr(rule) == (
        "Rule(head=Atom(predicate='p', args=(Var(name='x'),)), "
        "body=(Atom(predicate='q', args=(Var(name='x'), Wildcard())), "
        "NegatedAtom(atom=Atom(predicate='r', args=(Var(name='x'),))), "
        "Comparison(op='<', left=Var(name='x'), right=3)))"
    )
    assert repr(parse_program("p(1). q(x) :- p(x).")) == (
        "Program(declarations={'p': ('number',), 'q': ('number',)}, "
        "rules=[Rule(head=Atom(predicate='q', args=(Var(name='x'),)), "
        "body=(Atom(predicate='p', args=(Var(name='x'),)),))], "
        "facts=[Atom(predicate='p', args=(1,))])"
    )


def test_a_number_past_the_digit_limit_reprs_in_full():
    huge = 10**5000
    digits = "1" + "0" * 5000
    assert repr(Atom("p", (huge,))) == f"Atom(predicate='p', args=({digits},))"
    assert repr(Comparison("<", Var("x"), -huge)) == (
        f"Comparison(op='<', left=Var(name='x'), right=-{digits})"
    )
    # the error names the atom that is not ground
    with pytest.raises(ValueError, match=f"^atom Atom\\(predicate='p', args=\\({digits}, Var"):
        Atom("p", (huge, Var("x"))).value_tuple()
    assert repr(Atom("p", ())) == "Atom(predicate='p', args=())"
    assert repr(Atom("q", (True, "s", 2))) == "Atom(predicate='q', args=(True, 's', 2))"


def test_program_equality_and_repr_leave_out_the_rule_set():
    prepared = msan_program(MsanFactSet())
    plain = Program(dict(prepared.declarations), list(prepared.rules))
    assert prepared.rule_set is not None and plain.rule_set is None
    assert prepared == plain
    assert repr(prepared) == repr(plain)


def test_lint_and_mismatch_reprs():
    mismatch = Mismatch("missing_use", "a.cc", 3, "x", "d", side1=('use("x", "a.cc", 3)',))
    assert repr(mismatch) == (
        "Mismatch(kind='missing_use', file='a.cc', line=3, subject='x', detail='d', "
        "side1=('use(\"x\", \"a.cc\", 3)',), side2=())"
    )
    assert repr(LintIssue("c", "m", "f")) == "LintIssue(code='c', message='m', fact='f')"


def test_empty_container_repr():
    assert repr(MsanFactSet()) == (
        "MsanFactSet(uninitialized=frozenset(), declared=frozenset(), "
        "allocated=frozenset(), has_initializer=frozenset(), "
        "has_member_initializer=frozenset(), uses=frozenset(), flow=frozenset(), "
        "memory_error=frozenset())"
    )


def test_len_and_bool_of_containers_count_facts():
    assert len(MsanFactSet()) == 0 and not MsanFactSet()
    assert len(EquivSide()) == 0 and not EquivSide()
    fs = MsanFactSet(
        uses=frozenset({SiteFact("p", "a.cc", 2)}),
        flow=frozenset({FlowFact("p", "a.cc", 1, "p", "a.cc", 2)}),
        uninitialized=frozenset({SiteFact("p", "a.cc", 1)}),
    )
    assert len(fs) == 3 and fs
    side = EquivSide(exits=frozenset({ExitFact("main.cpp", 9)}), constants=frozenset({"0"}))
    assert len(side) == 2 and side


def test_containers_compare_and_hash_by_value():
    def build():
        return MsanFactSet(uses=frozenset({SiteFact("p", "a.cc", 2)}))

    assert build() == build() and hash(build()) == hash(build())
    assert build() != MsanFactSet()
    side = EquivSide(exits=frozenset({ExitFact("main.cpp", 9)}))
    same = EquivSide(exits=frozenset({ExitFact("main.cpp", 9)}))
    assert side == same and hash(side) == hash(same)
    bundle, twin = EquivBundle(side, EquivSide()), EquivBundle(same, EquivSide())
    assert bundle == twin and hash(bundle) == hash(twin)
    assert bundle != bundle.swapped()
    assert len({bundle, twin}) == 1


def test_lint_reports_do_not_share_their_lists():
    first, second = LintReport(), LintReport()
    first.errors.append(LintIssue("c", "m", "f"))
    first.warnings.append(LintIssue("w", "m", "f"))
    assert second.errors == [] and second.warnings == []
    assert first != second
    verdicts = verify_msan(MsanFactSet()), verify_msan(MsanFactSet())
    assert verdicts[0].lint is not verdicts[1].lint


def test_replace_derives_a_changed_container():
    fs = MsanFactSet(uses=frozenset({SiteFact("p", "a.cc", 2)}))
    changed = fs._replace(uninitialized=frozenset({SiteFact("p", "a.cc", 1)}))
    assert changed.uses == fs.uses and len(changed) == 2 and len(fs) == 1
    bundle = EquivBundle(EquivSide(), EquivSide(exits=frozenset({ExitFact("main.cpp", 9)})))
    assert bundle._replace(code1=bundle.code2) == EquivBundle(bundle.code2, bundle.code2)
    assert len(bundle) == 1 and len(bundle._replace(code1=bundle.code2)) == 2
    with pytest.raises(TypeError):
        fs._replace(flows=frozenset())
    with pytest.raises(TypeError):
        EquivSide(flow=frozenset())
