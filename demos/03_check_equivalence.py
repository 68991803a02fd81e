"""Check two near-identical programs for structural equivalence.

Two seven-line programs differ only in a guarded call: d = foo(a) versus
d = bar(a).  Function symbols are uninterpreted, so differently named
calls are never assumed equal; the checker pairs every variable and site
across the programs, diffs the dependence structure, and reports the one
place they disagree.

Run:  python demos/03_check_equivalence.py
"""

from pathlib import Path

from claimcheck.equivalence import build_pairing, diff_structure, verify_equiv
from claimcheck.facts import load_equiv_bundle_text
from claimcheck.toy import extract_equiv_facts, oracle_equiv, parse_toy

ROOT = Path(__file__).resolve().parent.parent
BUNDLE = ROOT / "fixtures" / "equiv" / "guarded_call_renamed_fn.bundle"

bundle = load_equiv_bundle_text(BUNDLE.read_text())
print(f"code1: {len(bundle.code1)} facts, code2: {len(bundle.code2)} facts")

# The pairing holds one oriented half per side; code1's half maps code1's
# names and sites to their images in code2.
pairing = build_pairing(bundle)
mismatches = diff_structure(bundle, pairing)
print(f"paired variables: {sorted(pairing.code1.var_map.items())}")
print("paired definition sites:")
for var, (file, line), image, (image_file, image_line) in pairing.code1.def_site_pairs:
    print(f"  {var} at {file}:{line} -> {image} at {image_file}:{image_line}")
print("unpaired definitions:", sum(m.kind == "unpaired_def" for m in mismatches))

for mismatch in mismatches:
    print("\nmismatch:", mismatch.kind, "at", f"{mismatch.file}:{mismatch.line}")
    print("  code1:", ", ".join(mismatch.side1))
    print("  code2:", ", ".join(mismatch.side2))

verdict = verify_equiv(bundle)
print("\nverdict:", verdict.outcome)

# The same pair as toy programs: the brute-force interpreter agrees that
# some input distinguishes foo from bar.
a = parse_toy((ROOT / "fixtures" / "toy" / "guarded_call_a.toy").read_text())
b = parse_toy((ROOT / "fixtures" / "toy" / "guarded_call_b.toy").read_text())
print("extracted-facts verdict:", verify_equiv(extract_equiv_facts(a, b)).outcome)

free_a = parse_toy("int a;\nint b;\nbool c = a == b;\nint d = 2;\nif (c) {\n  d = foo(a);\n}\n")
free_b = parse_toy("int a;\nint b;\nbool c = a == b;\nint d = 2;\nif (c) {\n  d = bar(a);\n}\n")
print("exhaustive-interpreter oracle over all inputs:",
      "equivalent" if oracle_equiv(free_a, free_b) else "not equivalent")
