"""The package hashes with the interpreter's own SHA-256 where it can, and
no digest it produces differs from ``hashlib``'s: not the report's
``inputs[].sha256`` and not the toy interpreter's ``mix``."""

import hashlib
import json
import random
import re
import sys
from pathlib import Path

import pytest

from claimcheck import sha256
from claimcheck.cli import main
from claimcheck.toy.interp import mix

FIXTURES = Path("fixtures")


@pytest.mark.parametrize("size", [0, 55, 56, 63, 64, 65, 4096, 2 * 1024 * 1024])
def test_sha256_equals_hashlib(size):
    # 55/56 and 63/64/65 straddle the one- and two-block padding of the
    # last 64-byte block
    data = random.Random(size).randbytes(size)
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    assert sha256(data).digest() == hashlib.sha256(data).digest()


def test_sha256_is_the_interpreters_own_where_it_has_one():
    module = pytest.importorskip("_sha2" if sys.version_info >= (3, 12) else "_sha256")
    assert sha256 is module.sha256


# mix of a Random(2323) sweep of 500 operators and value lists, as the toy
# interpreter computed them when it hashed with hashlib
_MIX_SWEEP = (
    "1220100112220122221122112121121212200000201201102211120010110112001202011020211222011111011200022111"
    "1101212101212010221010011001211100102220221000112120220122021220102201222000100120020111201101111001"
    "2010102211102200100000120122002020012010010001121010021022222002000010012121202221220100012112212020"
    "1012211010102202220002000021110220111221020010000010202201112020210021201000022212012210112012101022"
    "2002201022001112110112120102220201220000210110202211201011121002210110101002221100101222200002200110"
)


def test_mix_values_are_pinned():
    rng = random.Random(2323)
    ops = ["+", "-", "*", "/", "%", "<", "==", "!", "neg", "f", "g", "foo", "*_alt", "café"]
    swept = "".join(
        str(mix(rng.choice(ops), [rng.randrange(3) for _ in range(rng.randrange(5))]))
        for _ in range(500)
    )
    assert swept == _MIX_SWEEP
    assert (mix("+", [1, 2]), mix("+", [2, 1]), mix("f", [])) == (2, 0, 2)


def _inputs(capsys, *argv) -> list[dict]:
    main(list(argv))
    return json.loads(capsys.readouterr().out)["inputs"]


def _hashlib_inputs(*paths) -> list[dict]:
    return [
        {"path": str(p), "sha256": hashlib.sha256(Path(p).read_bytes()).hexdigest()}
        for p in paths
    ]


_CORPUS = json.loads((FIXTURES / "corpus.json").read_text(encoding="utf-8"))["fixtures"]


@pytest.mark.parametrize("entry", _CORPUS, ids=[entry["name"] for entry in _CORPUS])
def test_report_input_digests_equal_hashlib(capsys, entry):
    path = str(FIXTURES / entry["path"])
    assert _inputs(capsys, "verify-" + entry["task"], path) == _hashlib_inputs(path)


def test_sectioned_report_input_digests_equal_hashlib(capsys, tmp_path):
    text = (FIXTURES / "equiv" / "guarded_call_renamed_fn.bundle").read_text(encoding="utf-8")
    paths = []
    for name, section in zip(("code1", "code2", "correspondence"),
                             re.split(r"=== \w+ ===\n", text)[1:]):
        paths.append(tmp_path / name)
        paths[-1].write_text(section, encoding="utf-8")
    argv = ["--code1", str(paths[0]), "--code2", str(paths[1]), "--correspondence", str(paths[2])]
    assert _inputs(capsys, "verify-equiv", *argv) == _hashlib_inputs(*paths)
