"""Toy imperative language: parser, normalizer, interpreter, extractors."""

from .extract import extract_equiv_facts, extract_msan_facts
from .interp import (
    ExecState,
    interpret,
    mix,
    oracle_equiv,
    taint_reaches_output,
    VALUE_DOMAIN,
)
from .lang import ToyProgram, normalize, parse_toy, render_toy

__all__ = [
    "ExecState",
    "ToyProgram",
    "VALUE_DOMAIN",
    "extract_equiv_facts",
    "extract_msan_facts",
    "interpret",
    "mix",
    "normalize",
    "oracle_equiv",
    "parse_toy",
    "render_toy",
    "taint_reaches_output",
]
