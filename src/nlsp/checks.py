"""Check records: every battery gate as data, judged in one place.

Every battery states each inequality it certifies as a :class:`Check`
in :mod:`nlsp.suites`; :class:`~nlsp.suites.SuiteResult` reads
``failures`` and ``passed`` off its checks through :class:`Judged`, the
one place where either is decided.  Every failure line takes one form::

    name: what observed exceeds|is below bound; why (worst: <stream> trial <i>)

A NaN reading fails its check whatever the bound; ``±inf`` compares as an
ordinary number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Senses of a check: the reading must not exceed (``MAX``) or fall below
#: (``MIN``) the bound.
MAX, MIN = "max", "min"


@dataclass(frozen=True, eq=False)
class Check:
    """One inequality a battery certifies.  ``observed`` is one value or
    one score per trial of ``stream``, whose worst trial a failure names."""

    name: str
    observed: object
    bound: float
    sense: str
    what: str
    why: str
    stream: str | None = None


def worst_trial(sense: str, scores) -> int:
    """Index of the first score farthest on the failing side of a check of
    this sense; a NaN score is the worst of all."""
    return int((np.argmax if sense == MAX else np.argmin)(scores))


def reading(observed, sense: str = MAX) -> float:
    """The value a check compares with its bound: ``observed`` itself, or
    the score of its worst trial.  Ties go to the first trial, as with
    Python's ``max``, but a NaN score is never dropped."""
    scores = np.ravel(np.asarray(observed, float))
    return float(scores[worst_trial(sense, scores)])


class Judged:
    """``failures`` and ``passed`` of a record that holds its ``checks``."""

    @property
    def failures(self) -> list[str]:
        """The failure line of every check that does not hold, in order."""
        lines = []
        for check in self.checks:
            value = reading(check.observed, check.sense)
            # A NaN reading compares False either way, so it fails.
            if (value <= check.bound if check.sense == MAX
                    else value >= check.bound):
                continue
            note = ("" if check.stream is None else f" (worst: {check.stream} "
                    f"trial {worst_trial(check.sense, check.observed)})")
            verb = "exceeds" if check.sense == MAX else "is below"
            lines.append(f"{check.name}: {check.what} {value!r} {verb} "
                         f"{check.bound!r}; {check.why}{note}")
        return lines

    @property
    def passed(self) -> bool:
        return not self.failures
