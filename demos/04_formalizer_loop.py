"""Recover a complete fact set from an unreliable source by iterating.

Assistants that translate prose into predicate instances rarely emit every
fact in one shot.  The loop re-asks, unions everything it has seen, and
stops once a re-ask contributes nothing new (or after five calls).  Here a
mock source simulates the flakiness by randomly withholding 40% of the
ground truth per call.

Run:  python demos/04_formalizer_loop.py
"""

from pathlib import Path

from claimcheck.equivalence import verify_equiv
from claimcheck.loop import EQUIV, mock_source, run_loop

BUNDLE = Path(__file__).resolve().parent.parent / "fixtures" / "equiv" / "guarded_call_renamed_fn.bundle"
ground_truth = BUNDLE.read_text()
total = 78

print("single call (no iteration):")
bundle, log = run_loop(mock_source(ground_truth, 0.4, seed=7), EQUIV, "", max_iters=1)
print(f"  recovered {len(bundle)}/{total} facts")

print("\nup to five calls, union of everything seen:")
bundle, log = run_loop(mock_source(ground_truth, 0.4, seed=7), EQUIV, "", max_iters=5)
for record in log.records:
    print(f"  iteration {record.index}: parsed {record.parsed_facts}, "
          f"new {record.new_facts}")
print(f"  recovered {len(bundle)}/{total} facts")

print(f"\nverdict on the consolidated bundle: {verify_equiv(bundle).outcome}")
print("(with all 78 facts present the verdict is NotEquivalent: the two")
print(" programs call differently named functions on line 6)")
