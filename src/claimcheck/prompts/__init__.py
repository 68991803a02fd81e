"""Versioned prompt templates for the fact-source backends.

Templates are plain text with ``{slot}`` markers substituted verbatim via
string replacement (never ``str.format``, since the prompt bodies contain
literal braces).
"""

from __future__ import annotations

from pathlib import Path

TEMPLATES = ("msan_trace_v1", "msan_formalize_v1", "equiv_formalize_v1")  # each in <id>.txt


def load_template(template_id: str) -> str:
    if template_id not in TEMPLATES:
        raise KeyError(f"unknown template {template_id!r}; known: {sorted(TEMPLATES)}")
    return Path(__file__).with_name(f"{template_id}.txt").read_text(encoding="utf-8")


def render_template(template_id: str, **slots: str) -> str:
    text = load_template(template_id)
    for name, value in slots.items():
        text = text.replace("{" + name + "}", value)
    return text
