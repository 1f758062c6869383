"""Structured verdicts emitted by every checker."""

from __future__ import annotations

from .record import Record


class ReportItem(Record):
    __slots__ = ("name", "status", "residual", "coefficient", "detail")

    def __init__(
        self,
        name: str,
        status: str,  # "pass" | "fail" | "info"
        residual: float | None = None,
        coefficient: str | None = None,
        detail: str | None = None,
    ):
        self.name = name
        self.status = status
        self.residual = residual
        self.coefficient = coefficient
        self.detail = detail

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "status": self.status}
        if self.residual is not None:
            d["residual"] = self.residual
        if self.coefficient is not None:
            d["coefficient"] = self.coefficient
        if self.detail is not None:
            d["detail"] = self.detail
        return d


class VerificationReport(Record):
    """Machine-readable outcome of a check.

    `verdict` is the checker's headline ("pass"/"fail" for residual checks,
    RIGID/VANISHING/NON-RIGID/INDETERMINATE for rigidity); `ok` is the
    boolean the exit code hangs on.  A failing report always carries the
    first failing item.
    """

    __slots__ = ("verdict", "ok", "items", "meta")

    def __init__(
        self,
        verdict: str,
        ok: bool,
        items: list[ReportItem] | None = None,
        meta: dict | None = None,
    ):
        self.verdict = verdict
        self.ok = ok
        self.items = [] if items is None else items
        self.meta = {} if meta is None else meta

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
