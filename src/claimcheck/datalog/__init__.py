"""In-process Datalog: values, parser, evaluator, and external export.

Each public name loads its submodule on first access (PEP 562), so a
caller that only parses facts never imports the evaluator or the export.
"""

from .. import _lazy_names

# public name -> submodule that defines it
_LAZY = {
    "Atom": "ast",
    "Comparison": "ast",
    "NegatedAtom": "ast",
    "NUMBER": "ast",
    "Program": "ast",
    "Rule": "ast",
    "SYMBOL": "ast",
    "Term": "ast",
    "Var": "ast",
    "WILDCARD": "ast",
    "Wildcard": "ast",
    "print_atom": "ast",
    "print_program": "ast",
    "print_rule": "ast",
    "Database": "engine",
    "Derivation": "engine",
    "RuleSet": "engine",
    "check_program": "engine",
    "evaluate": "engine",
    "explain": "engine",
    "prepare": "engine",
    "query": "engine",
    "stratify": "engine",
    "export_external": "export",
    "import_external": "export",
    "parse_fact_lines": "parser",
    "parse_facts": "parser",
    "parse_program": "parser",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = _lazy_names(globals(), _LAZY)
