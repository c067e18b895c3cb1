"""Integration tests spanning the full pipeline: topology -> paths ->
scheduler -> flit-level simulation, plus the paper's headline comparisons."""

import numpy as np
import pytest

from repro import (
    Butterfly,
    ButterflyRouter,
    bounds,
    build_hard_instance,
    hard_instance_lower_bound,
    lll_schedule,
    naive_coloring_schedule,
    random_q_relation,
    simulate,
)
from repro.network.random_networks import layered_network, random_walk_paths
from repro.routing.paths import paths_from_node_walks
from repro.sim.spec import Workload


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    net = layered_network(width=12, depth=10, out_degree=3, rng=rng)
    walks = random_walk_paths(net, 12, 10, 150, rng)
    paths = paths_from_node_walks(net, walks)
    return net, paths


class TestSchedulerPipeline:
    def test_lll_schedule_end_to_end(self, workload, run_schedule):
        """Build the Theorem 2.1.6 schedule, execute it on the exact flit
        model, verify zero blocking and the length bound."""
        net, paths = workload
        L = 12
        for B in (1, 2, 4):
            build = lll_schedule(
                paths, message_length=L, B=B,
                rng=np.random.default_rng(B), mode="direct",
            )
            res = run_schedule(net, paths, build, B)
            assert res.all_delivered
            assert res.total_blocked_steps == 0
            assert res.makespan <= build.length_bound

    def test_schedule_beats_greedy_blocking(self, workload, run_schedule):
        """The schedule's guarantee costs makespan but eliminates
        blocking entirely versus greedy injection."""
        net, paths = workload
        L = 12
        greedy = simulate((net, paths), B=2, message_length=L)
        build = lll_schedule(paths, L, B=2, mode="direct")
        scheduled = run_schedule(net, paths, build, 2)
        assert greedy.total_blocked_steps > 0
        assert scheduled.total_blocked_steps == 0

    def test_lll_beats_naive_at_scale(self, workload):
        """At B >= 2 the LLL schedule's bound undercuts footnote 5's."""
        net, paths = workload
        L = 12
        naive = naive_coloring_schedule(paths, L)
        for B in (2, 4):
            build = lll_schedule(
                paths, L, B=B, rng=np.random.default_rng(0), mode="direct"
            )
            assert build.length_bound < naive.length_bound


class TestSuperlinearSpeedup:
    def test_hard_instance_speedup_exceeds_b(self, run_schedule):
        """Section 1.4's headline on the Theorem 2.2.1 instance: going
        from B = 1 to B = 2 speeds the *schedule bound* up by more than
        2x (the measured factor B D^(1-1/B) shape)."""
        inst = build_hard_instance(C=8, D=15, B=1)
        L = inst.recommended_length()
        lengths = {}
        for B in (1, 2):
            build = lll_schedule(
                inst.paths, L, B=B, rng=np.random.default_rng(1), mode="direct"
            )
            res = run_schedule(inst.network, inst.paths, build, B)
            assert res.all_delivered
            lengths[B] = res.makespan
        assert lengths[1] / lengths[2] > 2.0

    def test_measured_time_between_bounds(self):
        """Greedy routing of the hard instance sits between the Omega
        bound and a constant times the upper-bound formula."""
        for B in (1, 2):
            inst = build_hard_instance(C=3 * (B + 1), D=15, B=B)
            L = inst.recommended_length()
            res = simulate((inst.network, inst.paths), B=B, message_length=L)
            assert res.all_delivered
            lb = hard_instance_lower_bound(inst, L)
            ub = bounds.general_upper_bound(L, inst.congestion, inst.dilation, B)
            assert lb <= res.makespan <= 10 * ub


class TestRouterComparison:
    def test_three_router_ordering_unobstructed(self):
        """Single worm: wormhole == cut-through < store-and-forward."""
        from repro.network.random_networks import chain_bundle

        net, walks = chain_bundle(1, 8, 1)
        paths = paths_from_node_walks(net, walks)
        L = 16
        wh, ct, sf = (
            simulate((net, paths), model=model, B=B, message_length=L).makespan
            for model, B in (("wormhole", 1), ("cut_through", 4), ("store_forward", 1))
        )
        assert wh == ct == L + 8 - 1
        assert sf == L * 8

    def test_store_forward_wins_when_c_dominates(self):
        """Section 1.3.2: with C >> D and B = 1, store-and-forward's
        L(C+D) beats wormhole's LCD behaviour on the hard instance."""
        inst = build_hard_instance(C=8, D=7, B=1)
        L = inst.recommended_length(3.0)
        wh = simulate((inst.network, inst.paths), message_length=L)
        sf = simulate(
            (inst.network, inst.paths), model="store_forward", message_length=L,
        )
        assert sf.all_delivered and wh.all_delivered
        assert sf.makespan < wh.makespan


class TestSection2MeetsSection3:
    def test_offline_scheduler_on_butterfly_workloads(self, run_schedule):
        """Bridge the paper's two halves: apply the Theorem 2.1.6
        offline scheduler to a butterfly q-relation's two-pass paths and
        compare with the specialized Section 3.1 algorithm.

        Both must deliver; the offline schedule is block-free by
        construction, while the randomized algorithm needs no global
        knowledge — the paper's offline/online trade in one test.
        """
        from repro import ButterflyRouter

        n, q, L, B = 32, 4, 8, 2
        inst = random_q_relation(n, q, np.random.default_rng(0))
        bf = Butterfly(n, passes=2)
        rng = np.random.default_rng(1)
        mids = rng.integers(0, n, inst.num_messages)
        edges = bf.two_pass_path_edges_batch(inst.sources, mids, inst.dests)
        paths = [list(r) for r in edges]

        build = lll_schedule(paths, L, B=B, rng=np.random.default_rng(2), mode="direct")
        offline = run_schedule(bf, paths, build, B)
        assert offline.all_delivered
        assert offline.total_blocked_steps == 0

        online = ButterflyRouter(n, B=B, message_length=L, seed=3).route(inst)
        assert online.all_delivered
        # Same order of magnitude; neither should be absurdly off.
        ratio = offline.makespan / online.total_flit_steps
        assert 0.05 < ratio < 20


class TestButterflyPipeline:
    def test_router_vs_bound_shape(self):
        """Measured butterfly routing time stays within a constant of the
        Theorem 3.1.1 formula across n."""
        ratios = []
        for n in (16, 64, 256):
            q = max(1, int(np.log2(n)) // 2)
            inst = random_q_relation(n, q, np.random.default_rng(n))
            router = ButterflyRouter(n, B=1, message_length=8, seed=0)
            out = router.route(inst)
            assert out.all_delivered
            ratios.append(
                out.total_flit_steps / bounds.butterfly_upper_bound(8, q, n, 1)
            )
        assert max(ratios) / min(ratios) < 12

    def test_pipelined_subrounds_never_interfere(self):
        """Section 3.1's pipelining claim, mechanically: launching one
        subround's survivors every L+1 flit steps, worms of different
        subrounds never contend.

        (The +1 over the paper's L accounts for the head-of-edge buffer
        being vacated one step after the last flit crosses — the same
        conservative synchronous reading validated against Waksman
        pipelining in the Benes tests.)
        """
        from repro import arbitrate_levels

        n, B, L = 16, 2, 5
        bf = Butterfly(n, passes=2)
        rng = np.random.default_rng(9)
        num_colors = 4
        all_paths, releases = [], []
        for c in range(num_colors):
            src = rng.integers(0, n, 20)
            mid = rng.integers(0, n, 20)
            dst = rng.integers(0, n, 20)
            edges = bf.two_pass_path_edges_batch(src, mid, dst)
            alive = arbitrate_levels(edges, B, rng)
            for row in edges[alive]:
                all_paths.append(list(row))
                releases.append(c * (L + 1))
        res = simulate(
            Workload(
                net=bf,
                paths=all_paths,
                release_times=np.asarray(releases, dtype=np.int64),
            ),
            B=B, message_length=L,
        )
        assert res.all_delivered
        assert res.total_blocked_steps == 0
        expected = (num_colors - 1) * (L + 1) + L + 2 * bf.log_n - 1
        assert res.makespan == expected

    def test_cross_validation_against_flit_simulator(self):
        """A full subround's survivors, replayed through the generic
        flit-level simulator, are delivered with zero blocking in exactly
        L + 2 log n - 1 steps."""
        n, B, L = 32, 2, 6
        bf = Butterfly(n, passes=2)
        rng = np.random.default_rng(3)
        src = rng.integers(0, n, 40)
        mid = rng.integers(0, n, 40)
        dst = rng.integers(0, n, 40)
        edges = bf.two_pass_path_edges_batch(src, mid, dst)
        from repro import arbitrate_levels

        alive = arbitrate_levels(edges, B, rng)
        assert alive.any()
        res = simulate((bf, [list(r) for r in edges[alive]]), B=B, message_length=L)
        assert res.all_delivered
        assert res.total_blocked_steps == 0
        assert res.makespan == L + 2 * bf.log_n - 1
