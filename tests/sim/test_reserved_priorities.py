"""Reserved random priorities are exact (DESIGN decision 23).

At ``T > 1`` a round does not draw its contenders' priorities: it
*reserves* their stream positions (:meth:`_RandomBlock.reserve`), and the
grant gathers only the values it compares — the contenders of
over-subscribed slots, often none.  Exactness rests on three facts: the
reservation advances the same cursors a full draw would, a read gathers
the same buffer cells the draw would have served, and only a reservation
refills, so the cells a read finds are untouched until the next one.

The first test holds ``reserve`` + any read pattern against the full
draw it replaced (kept here as the oracle) and against each trial's
plain ``Generator.random`` stream; the second runs a mixed-``B`` wormhole
batch in which some rounds read every reserved value, some a few, and
some none, and holds every row to its single run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_cases import _line
from repro.sim import kernels
from repro.sim.batch import run_wormhole_batch


class _DrawBlock(kernels._RandomBlock):
    """The full draw ``reserve`` replaced: every requested value is
    materialised at once, in sorted-``rows`` order."""

    def draw(self, rows, counts):
        cur = self.cur
        for tr in np.flatnonzero(cur + counts > self.block):
            rem = self.block - cur[tr]
            if rem:
                self.buf[tr, :rem] = self.buf[tr, cur[tr] :]
            self.buf[tr, rem:] = self.rngs[tr].random(self.block - rem)
            cur[tr] = 0
        starts = np.zeros(self.T + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        within = np.arange(rows.size) - starts[rows]
        vals = self.buf[rows, cur[rows] + within]
        cur += counts
        return vals


def _reads(draw, n):
    """An index array over ``n`` reserved values: none, some, all,
    unordered or repeated."""
    kind = draw(st.sampled_from(["none", "some", "all", "unordered", "repeated"]))
    if kind == "none" or n == 0:
        return np.zeros(0, dtype=np.int64)
    if kind == "all":
        return np.arange(n)
    if kind == "some":
        return np.flatnonzero(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    picks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n,
                          unique=kind == "unordered"))
    return np.asarray(picks, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reserve_then_any_reads_serves_what_the_draw_served(data):
    T = data.draw(st.integers(1, 4), label="T")
    block = data.draw(st.integers(1, 6), label="block")
    seeds = [data.draw(st.integers(0, 2**16)) for _ in range(T)]
    reserved = kernels._RandomBlock(
        [np.random.default_rng(s) for s in seeds], block
    )
    drawn = _DrawBlock([np.random.default_rng(s) for s in seeds], block)
    reserved.buf[:] = drawn.buf[:] = -1.0  # cells never filled compare too
    # Each trial's plain stream, and how much of it has been served.
    streams = [np.random.default_rng(s).random(64 * block) for s in seeds]
    served = np.zeros(T, dtype=np.int64)
    for _ in range(data.draw(st.integers(1, 12), label="rounds")):
        # Zero-count trials and counts up to a whole block (a refill).
        counts = np.asarray(
            data.draw(st.lists(st.integers(0, block), min_size=T, max_size=T)),
            dtype=np.int64,
        )
        rows = np.repeat(np.arange(T), counts)
        view = reserved.reserve(rows, counts)
        want = drawn.draw(rows, counts)
        idx = _reads(data.draw, rows.size)
        assert np.array_equal(view[idx], want[idx])
        # ... which is the trial's own stream, contender by contender.
        starts = np.cumsum(counts) - counts
        plain = [
            streams[tr][served[tr] + j - starts[tr]]
            for j, tr in enumerate(rows)
        ]
        assert np.array_equal(want, np.asarray(plain, dtype=np.float64))
        served += counts
        assert np.array_equal(reserved.cur, drawn.cur)
        assert np.array_equal(reserved.buf, drawn.buf)
        for a, b in zip(reserved.rngs, drawn.rngs):
            assert a.bit_generator.state == b.bit_generator.state


def test_rounds_that_read_no_priority_leave_every_row_its_single_run(monkeypatch):
    """A mixed-``B`` random-priority batch with staggered releases: most
    combined rounds have no over-subscribed slot in any trial and read no
    reserved value, others read a few or all — every row still equals
    the trial run alone."""
    reserves, reads = [], []
    block = kernels._RandomBlock
    reserve, getitem = block.reserve, block.__getitem__

    def counting_reserve(self, rows, counts):
        reserves.append(rows.size)
        return reserve(self, rows, counts)

    def counting_getitem(self, idx):
        reads.append((len(reserves), idx.size))
        return getitem(self, idx)

    monkeypatch.setattr(block, "reserve", counting_reserve)
    monkeypatch.setattr(block, "__getitem__", counting_getitem)
    net, edges = _line(4)[:2]
    paths = [edges[:2]] * 3 + [edges, edges[1:], edges[:3], edges[2:]] * 2
    L = np.array([5, 5, 5, 3, 2, 4, 1, 3, 2, 4, 6])
    release = np.array([0, 0, 1, 2, 4, 4, 7, 9, 9, 12, 15])
    Bs, seeds = [1, 2, 4, 8, 2], [31, 32, 33, 34, 35]
    kw = dict(priority="random", release_times=release)
    batch = run_wormhole_batch(
        net, paths, L, seeds=seeds, num_virtual_channels=Bs, **kw
    )
    read_rounds = {r for r, _ in reads}
    assert read_rounds and len(read_rounds) < len(reserves), "no empty round"
    assert any(n < reserves[r - 1] for r, n in reads), "no partial read"
    for row, B, seed in zip(batch, Bs, seeds):
        (alone,) = run_wormhole_batch(
            net, paths, L, seeds=[seed], num_virtual_channels=B, **kw
        )
        assert row.completion_times.tolist() == alone.completion_times.tolist()
        assert row.blocked_steps.tolist() == alone.blocked_steps.tolist()
        assert (row.steps_executed, row.deadlocked, row.hit_step_cap) == (
            alone.steps_executed, alone.deadlocked, alone.hit_step_cap
        )
