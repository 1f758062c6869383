"""Structured verdicts emitted by every checker."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ReportItem:
    name: str
    status: str  # "pass" | "fail" | "info"
    residual: float | None = None
    coefficient: str | None = None
    detail: str | None = None

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "status": self.status}
        if self.residual is not None:
            d["residual"] = self.residual
        if self.coefficient is not None:
            d["coefficient"] = self.coefficient
        if self.detail is not None:
            d["detail"] = self.detail
        return d


@dataclass
class VerificationReport:
    """Machine-readable outcome of a check.

    `verdict` is the checker's headline ("pass"/"fail" for residual checks,
    RIGID/VANISHING/NON-RIGID/INDETERMINATE for rigidity); `ok` is the
    boolean the exit code hangs on.  A failing report always carries the
    first failing item.
    """

    verdict: str
    ok: bool
    items: list[ReportItem] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_items(cls, items: list[ReportItem], meta: dict) -> "VerificationReport":
        """A residual check's report: "pass" exactly when every item passed."""
        ok = all(item.status == "pass" for item in items)
        return cls(verdict="pass" if ok else "fail", ok=ok, items=items, meta=meta)

    @property
    def first_failure(self) -> ReportItem | None:
        for item in self.items:
            if item.status == "fail":
                return item
        return None

    def to_dict(self, command: str | None = None) -> dict:
        d: dict = {}
        if command is not None:
            d["command"] = command
        d["verdict"] = self.verdict
        d["items"] = [item.to_dict() for item in self.items]
        d["meta"] = dict(self.meta)
        return d

    def summary(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        for item in self.items:
            bits = [f"  [{item.status}] {item.name}"]
            if item.residual is not None:
                bits.append(f"residual={item.residual:.3e}")
            if item.coefficient is not None:
                bits.append(f"coefficient={item.coefficient}")
            if item.detail is not None:
                bits.append(item.detail)
            lines.append(" ".join(bits))
        return "\n".join(lines)
