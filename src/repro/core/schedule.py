"""Wormhole routing schedules (the object Theorem 2.1.6 constructs).

A schedule assigns each message a *release time*; the router injects a
message as soon as possible after its release.  Theorem 2.1.6's schedules
have a special structure: messages are partitioned into color classes of
multiplex size at most ``B``, and class ``i`` is released at
``(i - 1)(L + D - 1)`` — within a class no worm is ever blocked (at most
``B`` same-class worms share any edge, one per virtual channel), so every
class finishes before the next is released.  A schedule runs as the
release times of an ordinary wormhole trial
(:meth:`~repro.core.scheduler.ScheduleBuild.apply`), and the
expectation table's ``schedule`` row holds that trial to the guarantee
(:mod:`repro.fuzz.expectations`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network.graph import NetworkError
from ..sim.kernels import exact_count

__all__ = ["ColorClassSchedule"]


@dataclass(frozen=True)
class ColorClassSchedule:
    """A release schedule derived from a message coloring.

    Attributes
    ----------
    colors:
        Dense color id per message (``0 .. num_classes - 1``).
    message_length:
        The ``L`` the schedule was built for.
    dilation:
        The path set's ``D``.
    phase_length:
        Flit steps between consecutive class releases; the canonical
        value is the unobstructed completion time ``L + D - 1``.
    """

    colors: np.ndarray
    message_length: int
    dilation: int
    phase_length: int

    def __post_init__(self) -> None:
        colors = np.asarray(self.colors)
        if colors.size and colors.min() < 0:
            raise NetworkError("colors must be nonnegative")
        if self.phase_length < 1:
            raise NetworkError("phase length must be >= 1")

    @classmethod
    def from_colors(
        cls, colors: np.ndarray, message_length: int, D: int
    ) -> "ColorClassSchedule":
        """Canonical schedule: one class every ``L + D - 1`` steps."""
        L = exact_count(message_length, "message_length", 1)
        D = exact_count(D, "D")
        return cls(
            colors=np.asarray(colors, dtype=np.int64),
            message_length=L,
            dilation=D,
            phase_length=L + D - 1 if D > 0 else L,
        )

    @property
    def num_classes(self) -> int:
        return int(self.colors.max()) + 1 if self.colors.size else 0

    @property
    def length_bound(self) -> int:
        """Guaranteed completion time: ``num_classes * phase_length``."""
        return self.num_classes * self.phase_length

    def release_times(self) -> np.ndarray:
        """Per-message release flit steps (class ``i`` at ``i * phase``)."""
        return self.colors * self.phase_length
