"""Shared report envelope for the CLI: exact values or certified bounds.

All numeric invariants are exact integers or rationals rendered as "p/q";
no floating point appears anywhere.  A report claims "exact" only when
every underlying search closed.  An ``InvariantReport`` is a named tuple.
"""

from __future__ import annotations

import json
from enum import Enum
from fractions import Fraction
from typing import Any, Dict, List, NamedTuple

SCHEMA = "factorum/1"


class Certification(str, Enum):
    EXACT = "exact"
    LOWER_BOUND = "lower-bound"


def certification(exact: bool) -> Certification:
    """EXACT when every underlying search closed, LOWER_BOUND otherwise."""
    return Certification.EXACT if exact else Certification.LOWER_BOUND


def render_value(value: Any) -> Any:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [render_value(v) for v in value]
    if isinstance(value, (dict,)):
        return {str(k): render_value(v) for k, v in sorted(value.items())}
    if isinstance(value, (set, frozenset)):
        return [render_value(v) for v in sorted(value)]
    return value


class InvariantReport(NamedTuple):
    invariant: str
    value: Any
    certification: Certification
    # the defaults are shared empty containers: a report is never mutated
    budget: Dict[str, int] = {}
    witnesses: List[Any] = []
    warnings: List[str] = []

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "invariant": self.invariant,
            "value": render_value(self.value),
            "certification": self.certification.value,
            "budget": dict(sorted(self.budget.items())),
            "witnesses": render_value(self.witnesses),
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def to_table(self) -> str:
        value = render_value(self.value)
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        lines = [f"{self.invariant}: {value} [{self.certification.value}]"]
        for w in self.witnesses:
            lines.append("  witness: "
                         + json.dumps(render_value(w), sort_keys=True))
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines)
