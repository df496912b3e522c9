"""Machine-readable run reports for the command-line front end.

JSON schema: {"command", "params", "results", "checks": [{"name", "status",
"residual"}], "wall_ms"}, with canonical (sorted) key order and fixed float
formatting at 12 significant digits (scientific notation below 1e-3), so that
parsing an emitted report and re-serializing it is byte-identical.  JSON has
no number for infinity or NaN (k = inf is the classical limit), so those are
written as the strings "inf", "-inf" and "nan".  A check that names its
failing item carries a "detail" string; a check without one has no such key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = ["CheckResult", "RunReport", "format_number", "canonical_json"]

STATUS_EXACT = "exact-pass"
STATUS_PASS = "pass"
STATUS_FAIL = "fail"


def format_number(x) -> str:
    """12 significant digits; scientific notation for small magnitudes."""
    x = float(x)
    if x != 0.0 and abs(x) < 1e-3:
        return format(x, ".11e")
    return format(x, ".12g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting, one line."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ", ".join(f"{json.dumps(k)}: {canonical_json(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return format_number(obj) if math.isfinite(obj) else json.dumps(format_number(obj))
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


@dataclass
class CheckResult:
    name: str
    status: str          # exact-pass | pass | fail
    residual: float
    detail: str = ""     # the failing item, when the check can name it

    @classmethod
    def from_residual(cls, name: str, residual: float, tol: float) -> "CheckResult":
        residual = float(residual)
        return cls(name, STATUS_PASS if residual <= tol else STATUS_FAIL, residual)


@dataclass
class RunReport:
    command: str
    params: dict
    checks: list[CheckResult] = field(default_factory=list)
    results: dict = field(default_factory=dict)
    wall_ms: float = 0.0

    def add(self, check: CheckResult) -> None:
        if any(c.name == check.name for c in self.checks):
            raise ValueError(f"check {check.name!r} registered twice")
        self.checks.append(check)

    @property
    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == STATUS_FAIL]

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "results": self.results,
            "checks": [
                {"name": c.name, "status": c.status, "residual": float(c.residual),
                 **({"detail": c.detail} if c.detail else {})}
                for c in self.checks
            ],
            "wall_ms": float(self.wall_ms),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict()) + "\n"

    def to_csv(self) -> str:
        lines = ["name,status,residual"]
        for c in self.checks:
            lines.append(f"{c.name},{c.status},{format_number(c.residual)}")
        for key in sorted(self.results):
            value = self.results[key]
            if isinstance(value, (int, float)):
                lines.append(f"{key},result,{format_number(value)}")
            else:
                lines.append(f"{key},result,{value}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"# {self.command}"]
        for key in sorted(self.params):
            lines.append(f"  {key} = {self.params[key]}")
        for key in sorted(self.results):
            value = self.results[key]
            shown = format_number(value) if isinstance(value, (int, float)) else value
            lines.append(f"  {key}: {shown}")
        for c in self.checks:
            detail = f"  ({c.detail})" if c.detail else ""
            lines.append(f"  [{c.status:>10}] {c.name}  residual={format_number(c.residual)}{detail}")
        lines.append(f"  wall time: {self.wall_ms:.1f} ms")
        return "\n".join(lines) + "\n"
