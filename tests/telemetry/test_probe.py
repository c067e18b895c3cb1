"""Unit tests for the Probe protocol and the ProbeSet dispatcher."""

import numpy as np
import pytest

from repro.telemetry import Probe, ProbeSet


class StepCounter(Probe):
    def __init__(self):
        super().__init__()
        self.steps = 0

    def on_step(self, t, movers, k):
        self.steps += 1


class GrantCounter(Probe):
    def __init__(self):
        super().__init__()
        self.grants = 0

    def on_grant(self, t, messages, edges):
        self.grants += int(messages.size)


class TestCoerce:
    def test_none_is_none(self):
        assert ProbeSet.coerce(None) is None

    def test_empty_iterable_is_none(self):
        assert ProbeSet.coerce([]) is None
        assert ProbeSet.coerce(()) is None

    def test_empty_probeset_is_none(self):
        assert ProbeSet.coerce(ProbeSet()) is None

    def test_single_probe(self):
        p = StepCounter()
        ps = ProbeSet.coerce(p)
        assert isinstance(ps, ProbeSet)
        assert list(ps) == [p]

    def test_iterable_of_probes(self):
        a, b = StepCounter(), GrantCounter()
        ps = ProbeSet.coerce([a, b])
        assert list(ps) == [a, b]
        assert len(ps) == 2 and bool(ps)

    def test_coerce_probeset_copies(self):
        original = ProbeSet([StepCounter()])
        ps = ProbeSet.coerce(original)
        ps.add(GrantCounter())
        assert len(original) == 1 and len(ps) == 2

    def test_non_probe_rejected(self):
        with pytest.raises(TypeError):
            ProbeSet.coerce([object()])


class TestDispatch:
    def test_events_reach_only_overriders(self):
        stepper, granter = StepCounter(), GrantCounter()
        ps = ProbeSet([stepper, granter])
        m = np.array([0, 1])
        e = np.array([2, 3])
        ps.on_step(1, m, m)
        ps.on_grant(1, m, e)
        ps.on_grant(2, m[:1], e[:1])
        assert stepper.steps == 1
        assert granter.grants == 3

    def test_dispatch_lists_skip_non_overriders(self):
        stepper = StepCounter()
        ps = ProbeSet([stepper])
        assert ps._dispatch["on_step"] == [stepper]
        assert ps._dispatch["on_grant"] == []

    def test_add_rebinds(self):
        ps = ProbeSet()
        g = GrantCounter()
        ps.add(g)
        ps.on_grant(1, np.array([0]), np.array([0]))
        assert g.grants == 1

    def test_find(self):
        stepper, granter = StepCounter(), GrantCounter()
        ps = ProbeSet([stepper, granter])
        assert ps.find(GrantCounter) is granter
        assert ps.find(StepCounter) is stepper
        assert ProbeSet([stepper]).find(GrantCounter) is None


class TestAbort:
    def test_no_abort_by_default(self):
        ps = ProbeSet([StepCounter()])
        assert not ps.aborted and ps.abort_reason is None

    def test_request_abort_surfaces(self):
        p = StepCounter()
        ps = ProbeSet([p, GrantCounter()])
        p.request_abort("too slow")
        assert ps.aborted
        assert ps.abort_reason == "too slow"
