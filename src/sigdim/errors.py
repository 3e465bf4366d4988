"""Error types shared across the pipeline."""

from __future__ import annotations

import copyreg
from typing import Any


def _reduce(exc: Exception) -> tuple:
    """Pickle an error as its formatted args plus attributes, not through ``__init__``.

    The default would call ``__init__`` with the formatted message alone, which
    these signatures reject; an error raised in a fuzz worker must reach the
    parent process as itself.
    """
    return copyreg.__newobj__, (type(exc), *exc.args), exc.__dict__


class GraphInputError(ValueError):
    """Rejected graph input.  ``kind`` is a stable machine-readable tag."""

    def __init__(self, kind: str, message: str, line: int | None = None):
        self.kind = kind
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")

    __reduce__ = _reduce


class PipelineError(RuntimeError):
    """A construction-stage guarantee failed on a concrete input.

    The embedding procedure is an "almost" construction: every stage asserts
    the guarantees it relies on, and a violation is reported with enough
    structure to reproduce it instead of being papered over.  ``stage`` names
    the failing stage (factor, picker, schedule, embedder); ``details`` holds
    the offending step/block/vertex and any values needed to replay the check.
    """

    def __init__(self, stage: str, message: str, **details: Any):
        self.stage = stage
        self.details = details
        super().__init__(f"[{stage}] {message}")

    __reduce__ = _reduce

    def to_json(self) -> dict[str, Any]:
        return {
            "stage": self.stage,
            "message": str(self),
            "details": {k: _plain(v) for k, v in self.details.items()},
        }


def _plain(value: Any) -> Any:
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_plain(v) for v in items]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value
