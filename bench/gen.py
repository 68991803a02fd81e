"""Seeded input generators for the benchmark.

Every input is built here from ``random.Random(seed)`` alone, so edits to the
test suite cannot shift the benchmark's inputs.  Sizes are fixed by the
caller.  The shape of an input (statement kinds, guards, dataflow, decoy
attachment) comes from a ``shape`` generator keyed by size and slot, so it is
the same under every seed and a seed does not change how much work a check
is.  The seed picks names, files, line numbers, fact order and the
statement a rename or mutation touches.  Each generator returns the input
text together with its known answer, which is fixed by construction and
never computed by the verifier under test.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

USE_ERROR_KIND = "use-of-uninitialized-value"
_STEMS = ("buf", "len", "idx", "acc", "tmp", "cnt", "off", "val", "ptr", "res", "sum", "key")
_UNARY_OPS = ("inc", "neg3", "hash3")
_BINARY_OPS = ("+", "*", "-", "blend", "min3")


def _word(rng: random.Random, k: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(k))


def _q(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def fact_lines(text: str) -> int:
    """Input size: the number of fact lines (``name(...)``) in a document."""
    return sum(
        1
        for line in text.splitlines()
        if line.strip()[:1].isalpha() and line.rstrip().endswith(").") and ":-" not in line
    )


# ---------------------------------------------------------------------------
# msan flow chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainCase:
    text: str
    chain: tuple[tuple[str, str, int], ...]  # n0..nL, the only qualifying chain


def msan_chain(
    rng: random.Random, shape: random.Random, steps: int, verified: bool, decoys: bool = True
) -> ChainCase:
    """A simple flow path n0 -> ... -> nL plus dead-end decoy branches.

    ``uninitialized`` holds at n0 and the only ``memoryError`` site is nL, so
    the sole qualifying chain is the main path, of ``steps + 1`` sites.  For
    a DontKnow case the last flow is left out: nL becomes unreachable and
    the verifier must explore every reachable site before giving up.
    Decoy count and lengths depend only on ``steps``; ``decoys=False``
    leaves the bare path.
    """
    files = [f"src/{_word(rng, 5)}/{_word(rng, 6)}.cc" for _ in range(6)]
    next_line = {f: rng.randint(1, 40) for f in files}
    used_names: set[str] = set()

    def site() -> tuple[str, str, int]:
        while True:
            name = f"{rng.choice(_STEMS)}_{_word(rng, 3)}"
            if name not in used_names:
                used_names.add(name)
                break
        file = rng.choice(files)
        line = next_line[file]
        next_line[file] += rng.randint(1, 7)
        return (name, file, line)

    def site_fact(pred: str, s) -> str:
        return f"{pred}({_q(s[0])}, {_q(s[1])}, {s[2]})."

    def flow(a, b) -> str:
        return f"flow({_q(a[0])}, {_q(a[1])}, {a[2]}, {_q(b[0])}, {_q(b[1])}, {b[2]})."

    chain = [site() for _ in range(steps + 1)]
    lines = [site_fact("uninitialized", chain[0]), site_fact("allocated", chain[0])]
    for i in range(1, steps + 1):
        if verified or i < steps:
            lines.append(flow(chain[i - 1], chain[i]))
        lines.append(site_fact("uses", chain[i]))
    end = chain[-1]
    lines.append(f"memoryError({_q(end[0])}, {_q(USE_ERROR_KIND)}, {_q(end[1])}, {end[2]}).")
    for k in range(max(1, steps // 4) if decoys else 0):
        src = chain[shape.randrange(steps)]
        for _ in range(1 + k % 4):
            dst = site()
            lines.append(flow(src, dst))
            lines.append(site_fact("uses", dst))
            src = dst
    rng.shuffle(lines)
    return ChainCase("\n".join(lines) + "\n", tuple(chain))


# ---------------------------------------------------------------------------
# Toy program pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToyPair:
    source1: str
    source2: str
    var_map: dict


def _toy_statements(rng: random.Random, shape: random.Random, n: int) -> list[list]:
    """A loop-free, already-normalized program of exactly ``n`` lines.

    ``shape`` makes every structural choice; ``rng`` only picks names.
    """
    stmts: list[list] = []
    counter = 0
    free = []
    for _ in range(3):
        counter += 1
        name = f"{rng.choice(_STEMS)}{counter}"
        free.append(name)
        stmts.append(["free", name])
    defined = list(free)
    assigned: list[str] = []
    depth = 0
    block = 0

    def operand():
        if shape.random() < 0.15:
            return shape.randint(0, 2)
        return shape.choice(defined)

    while len(stmts) < n:
        remaining = n - len(stmts)
        if depth and (remaining <= depth or (block and shape.random() < 0.2)):
            stmts.append(["end"])
            depth -= 1
            block = 0
            continue
        r = shape.random()
        if depth < 2 and remaining > depth + 3 and r < 0.08:
            stmts.append(["if", shape.choice(defined), shape.random() < 0.3])
            depth += 1
            block = 0
            continue
        block += 1
        if r < 0.13:
            stmts.append(["output", shape.choice(defined)])
            continue
        if assigned and shape.random() < 0.3:
            var, decl = shape.choice(assigned), False
        else:
            counter += 1
            var, decl = f"{rng.choice(_STEMS)}{counter}", True
        kind = shape.random()
        if kind < 0.5:
            stmts.append(["binary", var, shape.choice(_BINARY_OPS), operand(), operand(), decl])
        elif kind < 0.75:
            stmts.append(["unary", var, shape.choice(_UNARY_OPS), operand(), decl])
        elif kind < 0.9:
            stmts.append(["copy", var, shape.choice(defined), decl])
        else:
            stmts.append(["const", var, shape.randint(0, 2), decl])
        if decl:
            defined.append(var)
            assigned.append(var)
    return stmts


def _render_toy(stmts: list[list], names: dict) -> str:
    def nm(x):
        return names.get(x, x) if isinstance(x, str) else str(x)

    out = []
    depth = 0
    for s in stmts:
        tag = s[0]
        if tag == "end":
            depth -= 1
        pad = "  " * depth
        if tag == "free":
            out.append(f"{pad}int {nm(s[1])};")
        elif tag == "if":
            out.append(f"{pad}if ({'!' if s[2] else ''}{nm(s[1])}) {{")
            depth += 1
        elif tag == "end":
            out.append(f"{pad}}}")
        elif tag == "output":
            out.append(f"{pad}output({nm(s[1])});")
        else:
            lhs = ("int " if s[-1] else "") + nm(s[1])
            if tag == "binary":
                op, a, b = s[2], nm(s[3]), nm(s[4])
                rhs = f"{op}({a}, {b})" if op[0].isalpha() else f"{a} {op} {b}"
            elif tag == "unary":
                rhs = f"{s[2]}({nm(s[3])})"
            else:
                rhs = nm(s[2])
            out.append(f"{pad}{lhs} = {rhs};")
    return "\n".join(out) + "\n"


def toy_pair(rng: random.Random, shape: random.Random, n: int, kind: str) -> ToyPair:
    """Program 1 and a counterpart of ``kind``.

    * ``self``: the same program; Equivalent.
    * ``rename``: one assigned variable renamed in program 2 and paired by
      ``var_map``; Equivalent.
    * ``mutate``: one operator changed, one operand pair swapped, or one
      guard negated in program 2.  The caller keeps it only if the
      brute-force oracle tells the two apart; then NotEquivalent.
    * ``onesided``: a self-pair whose bundle later loses program 2's watch
      variables; a failed sufficiency obligation, so Inconclusive.
    """
    stmts = _toy_statements(rng, shape, n)
    source1 = _render_toy(stmts, {})
    if kind in ("self", "onesided"):
        return ToyPair(source1, source1, {})
    if kind == "rename":
        var = rng.choice([s[1] for s in stmts if s[0] in ("binary", "unary", "copy", "const")])
        new = f"{var}_r{_word(rng, 2)}"
        return ToyPair(source1, _render_toy(stmts, {var: new}), {var: new})
    if kind != "mutate":
        raise ValueError(f"unknown pair kind {kind!r}")
    mutated = [list(s) for s in stmts]
    choices = [i for i, s in enumerate(mutated) if s[0] in ("binary", "unary", "if")]
    i = rng.choice(choices)
    s = mutated[i]
    if s[0] == "if":
        s[2] = not s[2]
    elif s[0] == "binary" and s[3] != s[4] and rng.random() < 0.5:
        s[3], s[4] = s[4], s[3]
    else:
        pool = _BINARY_OPS if s[0] == "binary" else _UNARY_OPS
        s[2] = rng.choice([op for op in pool if op != s[2]])
    return ToyPair(source1, _render_toy(mutated, {}), {})


def shuffle_sections(rng: random.Random, bundle_text: str, drop_code2_watch: bool = False) -> str:
    """Shuffle fact lines within each ``=== section ===`` of a bundle."""
    out: list[str] = []
    body: list[str] = []
    section = ""

    def flush():
        rng.shuffle(body)
        out.extend(body)
        body.clear()

    for line in bundle_text.splitlines():
        if line.startswith("==="):
            flush()
            out.append(line)
            section = line
            continue
        if drop_code2_watch and "code2" in section and line.startswith("watchVar("):
            continue
        body.append(line)
    flush()
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Transitive closure
# ---------------------------------------------------------------------------


def tc_chain(rng: random.Random, n: int) -> str:
    """A chain of ``n`` edges over n + 1 fresh symbols; |path| = n(n+1)/2."""
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < n + 1:
        w = _word(rng, 6)
        if w not in seen:
            seen.add(w)
            names.append(w)
    edges = [f"edge({_q(names[i])}, {_q(names[i + 1])})." for i in range(n)]
    rng.shuffle(edges)
    return (
        ".decl edge(x: symbol, y: symbol)\n"
        ".decl path(x: symbol, y: symbol)\n"
        "path(x, y) :- edge(x, y).\n"
        "path(x, z) :- path(x, y), edge(y, z).\n"
        + "\n".join(edges)
        + "\n"
    )
