"""Stall / deadlock watchdog.

The simulators already *detect deadlock* (no mover while every pending
message is released).  One more pathology slips through: a **stall**,
where nothing moves for many consecutive steps while the run waits on
far-future releases (a mis-built schedule, a starved phase).

The watchdog observes the step stream, records timestamped alerts, and
annotates ``result.extra["watchdog"]`` so a finished run explains
itself.  Like every probe it only observes: it never stops or steers a
run.
"""

from __future__ import annotations

import numpy as np

from .probe import Probe, RunMeta

__all__ = ["STALL_STEPS", "Watchdog"]

#: Consecutive steps without a mover that make one stall alert.
STALL_STEPS = 200


class Watchdog(Probe):
    """Annotate runs that stall (:data:`STALL_STEPS` quiet steps) or
    deadlock."""

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self.alerts: list[dict] = []
        self.delivered = 0
        self._no_mover_run = 0
        self._last_progress: int | None = None
        self._steps_seen = 0
        self._stall_alerted = False

    # ------------------------------------------------------------------
    def on_run_start(self, meta: RunMeta) -> None:
        self._reset()

    def on_complete(self, t: int, messages: np.ndarray) -> None:
        self.delivered += int(messages.size)

    def on_step(self, t: int, movers: np.ndarray, k: np.ndarray) -> None:
        self._steps_seen += 1
        if movers.size:
            self._no_mover_run = 0
            self._last_progress = t
            self._stall_alerted = False
        else:
            self._no_mover_run += 1
            if self._no_mover_run >= STALL_STEPS and not self._stall_alerted:
                self.alerts.append(
                    {
                        "type": "stall",
                        "step": t,
                        "stalled_steps": self._no_mover_run,
                        "detail": (
                            f"no message moved for {self._no_mover_run} "
                            "consecutive steps"
                        ),
                    }
                )
                self._stall_alerted = True

    def on_deadlock(self, t: int, pending: np.ndarray) -> None:
        self.alerts.append(
            {
                "type": "deadlock",
                "step": t,
                "pending": pending.tolist(),
                "detail": f"deadlocked with {pending.size} undelivered messages",
            }
        )

    def on_run_end(self, result) -> None:
        result.extra["watchdog"] = {
            "tripped": bool(self.alerts),
            "alerts": list(self.alerts),
            "delivered": self.delivered,
            "last_progress_step": self._last_progress,
            "steps_observed": self._steps_seen,
        }

    # ------------------------------------------------------------------
    @property
    def tripped(self) -> bool:
        return bool(self.alerts)

