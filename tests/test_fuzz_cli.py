"""Every command exits 0, 1 or 2 on byte-mutated fixtures; no input makes an
exception escape ``main``."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from claimcheck.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
_TEXTS = {
    path.name: path.read_bytes()
    for path in sorted([*FIXTURES.glob("msan/*.facts"), *FIXTURES.glob("equiv/*.bundle")])
}
_COMMANDS = {
    "msan": (("verify-msan",), ("lint", "--task", "msan"), ("export", "--task", "msan")),
    "equiv": (("verify-equiv",), ("lint", "--task", "equiv"), ("export", "--task", "equiv")),
}
# Each fixture with each command of its task.
_CASES = [
    (name, command)
    for name in _TEXTS
    for command in _COMMANDS["msan" if name.endswith(".facts") else "equiv"]
]
# Any byte, with the bytes of the fact syntax more often.
_byte = st.one_of(st.integers(0, 255), st.sampled_from(b'()",.\\/=-_ \n0123456789'))
_edit = st.tuples(st.sampled_from(("set", "insert", "delete")), st.integers(0, 1 << 16), _byte)


def _mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for op, position, byte in edits:
        at = position % (len(out) + 1)
        if op == "insert":
            out.insert(at, byte)
        elif at < len(out):
            if op == "set":
                out[at] = byte
            else:
                del out[at]
    return bytes(out)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_CASES), st.lists(_edit, min_size=1, max_size=4))
def test_cli_exits_with_a_documented_code_on_mutated_fixtures(case, edits):
    name, command = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(_mutate(_TEXTS[name], edits))
        argv = [*command, str(path)]
        if command[0] == "export":
            argv += ["-o", str(Path(tmp) / "out")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)
