"""Pieces shared by the workloads: questions, answers and failures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from gen import Discourse

# Digests of CLI output are recorded for this seed.
DEFAULT_SEED = 1


@dataclass
class Question:
    """One discourse and what the benchmark asks about it."""

    index: int
    stratum: str
    discourse: Optional[Discourse]
    text: str = ""
    fmt: str = "gnf"
    extra: dict = field(default_factory=dict)


@dataclass
class Answer:
    """What one question produced: timings, counts and failures."""

    first_s: float = 0.0
    followup_s: Optional[float] = None
    counts: dict = field(default_factory=dict)
    # (kind, message); kind "wrong" is a wrong answer, "crash" a failed operation.
    failures: list = field(default_factory=list)
    calls: list = field(default_factory=list)  # desk-cli: (subcommand, seconds, peak RSS in MB)

    def wrong(self, message: str) -> None:
        self.failures.append(("wrong", message))

    def crash(self, message: str) -> None:
        self.failures.append(("crash", message))

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.wrong(message)


class UniqueGraphs:
    """Rejects a graph the process has already been given.

    ``kernels.py`` memoises enumeration on the graph's value, so a graph
    asked about twice in one process would be answered from the cache.
    """

    def __init__(self):
        self.seen: set = set()

    def fresh(self, discourse: Discourse) -> bool:
        key = discourse.key()
        if key in self.seen:
            return False
        self.seen.add(key)
        return True
