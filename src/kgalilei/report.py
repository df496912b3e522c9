"""Machine-readable run reports for the command-line front end.

JSON schema: {"command", "params", "results", "checks": [{"name", "status",
"residual"}], "wall_ms"}, with canonical (sorted) key order and fixed float
formatting at 12 significant digits (scientific notation where the rounded
value is below 1e-3, and -0 written as 0), so that parsing an emitted report
and re-serializing it is byte-identical.  JSON has no number for infinity or
NaN (k = inf is the classical limit), so those are written as the strings
"inf", "-inf" and "nan".

Every check is made by ``RunReport.check``.  A failing check carries a
"detail" string that names its first failing item (exact checks) or its worst
item (float checks) with that item's residual, or the item on which an engine
raised ``CheckFailure``, with its message; a passing check has no such key.

A ``CheckFailure`` fails a check (exit 1); a ``DomainError``, the base of
each layer's domain error, is an input outside the documented domain (exit 2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = ["CheckFailure", "DomainError", "CheckResult", "RunReport", "format_number",
           "canonical_json"]

STATUS_EXACT = "exact-pass"
STATUS_PASS = "pass"
STATUS_FAIL = "fail"


def format_number(x) -> str:
    """12 significant digits; scientific notation where the rounded value is
    below 1e-3 in magnitude, and -0 written as 0."""
    x = float(x) + 0.0
    text = format(x, ".12g")
    if x and abs(float(text)) < 1e-3:
        return format(x, ".11e")
    return text


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


class CheckFailure(RuntimeError):
    """An engine's verdict that the item it computes fails, with a residual.
    ``check`` names the check it fails, where that is not the running one."""

    check: str | None = None

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class DomainError(ValueError):
    """An input outside the documented domain: a usage error, not a verdict."""


def _worse(value, worst) -> bool:
    """Whether ``value`` is worse than ``worst``: larger, or a NaN where ``worst`` is none."""
    return value > worst or (value != value and worst == worst)


def _named(item, text: str) -> str:
    """``text`` after the item's name (a tuple's parts joined by commas), if it has one."""
    name = ", ".join(map(str, item)) if isinstance(item, tuple) else str(item)
    return f"{name}: {text}" if name else text


@dataclass
class CheckResult:
    name: str
    status: str          # exact-pass | pass | fail
    residual: float
    detail: str = ""     # the failing item, when the check can name it


@dataclass
class RunReport:
    command: str
    params: dict
    checks: list[CheckResult] = field(default_factory=list)
    results: dict = field(default_factory=dict)
    wall_ms: float = 0.0

    def check(self, name: str, items, residual, tol=None, size=None) -> CheckResult:
        """Check ``items`` in order, calling ``residual(item)`` once per item.

        Exact (``tol`` None): an item fails unless its residual ``is_zero``; the
        check's residual is the count of failing items, or the largest ``size``
        of their residuals.  Float: the check's residual is the worst item's
        value, NaN being the worst, and it passes iff that is <= ``tol`` (no
        items pass with 0.0).  A ``CheckFailure`` raised on an item ends the
        check as failed with its residual.  The result is appended and returned.
        """
        named, worst, item = None, 0.0, ()
        try:
            for item in items:
                value = residual(item)
                if tol is None:
                    if not value.is_zero:
                        named = named or (item, value)   # the first failing item
                        measured = worst + 1 if size is None else size(value)
                        if _worse(measured, worst):
                            worst = measured
                elif named is None or _worse(value, worst):
                    named, worst = (item, value), value
                item = ()   # an error while the next item is drawn names none
        except CheckFailure as exc:
            result = CheckResult(exc.check or name, STATUS_FAIL, float(exc.residual),
                                 _named(item, str(exc)))
        else:
            if named is None or (tol is not None and worst <= tol):
                result = CheckResult(name, STATUS_EXACT if tol is None else STATUS_PASS,
                                     float(worst))
            else:
                text = repr(named[1]) if tol is None else format_number(worst)
                result = CheckResult(name, STATUS_FAIL, float(worst), _named(named[0], text))
        if any(c.name == result.name for c in self.checks):
            raise ValueError(f"check {result.name!r} registered twice")
        self.checks.append(result)
        return result

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
