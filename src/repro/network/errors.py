"""The library's one error type, in a module that imports nothing.

Every structurally invalid input — a network, a path set, a trial spec,
a workload parameter — raises :class:`NetworkError`, and the CLI and the
serving tiers translate exactly this type into a one-line message or a
structured ``error`` reply.  It lives apart from
:mod:`repro.network.graph` (which re-exports it) so that a process that
only parses and forwards trials can catch it without loading NumPy.
"""

__all__ = ["NetworkError"]


class NetworkError(ValueError):
    """Raised for structurally invalid network operations."""
