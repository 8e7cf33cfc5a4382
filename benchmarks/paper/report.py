"""The reproduction's numbers as a Markdown report.

The paper benches print their figures to stdout and record their
seeded numbers in ``benchmarks/paper_claims.json``; this module renders
that file as a self-contained Markdown report -- one section per bench,
a table of its scalar claims and a sparkline per series -- so the
gated numbers can be read, archived or cited without running a bench::

    PYTHONPATH=src python -m benchmarks.paper.report > claims.md
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from benchmarks.paper.claims import load

__all__ = ["ExperimentReport", "ReportSection", "ascii_series", "claims_report"]


def ascii_series(
    values: Sequence[float], width: int = 32, height_chars: str = " .:-=+*#%@"
) -> str:
    """One-line ASCII sparkline of a numeric series."""
    if not values:
        raise ValueError("cannot sparkline an empty series")
    lows = min(values)
    span = max(values) - lows
    if span <= 0.0:
        return height_chars[-1] * min(len(values), width)
    # Resample to the target width.
    n = len(values)
    picks = [
        values[min(n - 1, round(i * (n - 1) / max(width - 1, 1)))]
        for i in range(min(width, n))
    ]
    levels = len(height_chars) - 1
    return "".join(
        height_chars[1 + round((value - lows) / span * (levels - 1))]
        for value in picks
    )


@dataclass
class ReportSection:
    """One experiment's worth of report content."""

    title: str
    lines: list[str] = field(default_factory=list)

    def add_text(self, text: str) -> None:
        """Append a paragraph."""
        self.lines.append(text)
        self.lines.append("")

    def add_table(
        self, headers: Sequence[str], rows: Sequence[Sequence[object]]
    ) -> None:
        """Append a Markdown table."""
        if not headers:
            raise ValueError("a table needs headers")
        widths = [len(str(h)) for h in headers]
        rendered_rows = []
        for row in rows:
            if len(row) != len(headers):
                raise ValueError("row width does not match headers")
            cells = [
                f"{cell:.4g}" if isinstance(cell, float) else str(cell)
                for cell in row
            ]
            widths = [max(w, len(c)) for w, c in zip(widths, cells)]
            rendered_rows.append(cells)
        header_line = "| " + " | ".join(
            str(h).ljust(w) for h, w in zip(headers, widths)
        ) + " |"
        divider = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
        self.lines.append(header_line)
        self.lines.append(divider)
        for cells in rendered_rows:
            self.lines.append(
                "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
            )
        self.lines.append("")

    def add_series(self, label: str, values: Sequence[float]) -> None:
        """Append a labelled sparkline with endpoints."""
        spark = ascii_series(values)
        self.lines.append(
            f"- {label}: `{spark}`  ({values[0]:.4g} → {values[-1]:.4g})"
        )

    def add_verdict(self, passed: bool, claim: str) -> None:
        """Append a ✅/❌ verdict line."""
        marker = "✅" if passed else "❌"
        self.lines.append(f"**{marker} {claim}**")
        self.lines.append("")


class ExperimentReport:
    """A whole report: titled sections rendered to Markdown."""

    def __init__(self, title: str) -> None:
        if not title:
            raise ValueError("report needs a title")
        self.title = title
        self._sections: list[ReportSection] = []

    def section(self, title: str) -> ReportSection:
        """Open (and register) a new section."""
        section = ReportSection(title=title)
        self._sections.append(section)
        return section

    @property
    def sections(self) -> tuple[ReportSection, ...]:
        return tuple(self._sections)

    def render(self) -> str:
        """The full Markdown document."""
        parts = [f"# {self.title}", ""]
        for section in self._sections:
            if parts[-1]:
                parts.append("")
            parts.append(f"## {section.title}")
            parts.append("")
            parts.extend(section.lines)
        return "\n".join(parts).rstrip() + "\n"

    def write(self, path: str | Path) -> Path:
        """Render to a file; returns the path."""
        path = Path(path)
        path.write_text(self.render())
        return path


def claims_report(claims: Mapping[str, Mapping[str, object]]) -> ExperimentReport:
    """One section per bench: its scalar claims, then its series."""
    report = ExperimentReport("CluDistream reproduction: the gated claims")
    for bench, entry in claims.items():
        section = report.section(f"`{bench}`")
        scalars = [
            (key, value) for key, value in entry.items() if not isinstance(value, list)
        ]
        if scalars:
            section.add_table(("claim", "value"), scalars)
        for key, values in entry.items():
            if isinstance(values, list):
                section.add_series(key, [float(value) for value in values])
    return report


if __name__ == "__main__":
    print(claims_report(load()).render(), end="")
