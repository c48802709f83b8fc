"""The common report protocol of the application models.

Every ``repro.apps`` entry point returns a report object satisfying
:class:`AppReport`: ``format()`` renders the human-readable text the CLI
prints, ``to_dict()`` returns a JSON-serializable record with a uniform
shape — ``{"application", "headline", "per_benchmark"}`` — which is what
``repro apps --json`` emits.  The uniform shape lets downstream tooling
consume any application's result without per-application parsing.
"""

from __future__ import annotations

from typing import Dict, Protocol, runtime_checkable


@runtime_checkable
class AppReport(Protocol):
    """What every application model's report exposes."""

    def format(self) -> str:
        """Human-readable multi-line report (what the CLI prints)."""
        ...

    def to_dict(self) -> Dict:
        """JSON-serializable record: application, headline, per_benchmark."""
        ...
