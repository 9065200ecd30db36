"""Second-wave edge-case tests across the stack."""

import pytest

from repro.analysis import compare_sweeps, run_sweep
from repro.core import (Directive, Genome, Jet, OP_ACQUIRE_ROLE,
                        OP_REQUEST_STATE, Ship, Shuttle, encode_ship,
                        transcribe)
from repro.functions import (CachingRole, FusionRole, RoleCatalog,
                             TranscodingRole, default_catalog)
from repro.routing import StaticRouter, WLIAdaptiveRouter
from repro.substrates.nodeos import CredentialAuthority
from repro.substrates.phys import (Datagram, NetworkFabric, line_topology,
                                   star_topology)
from repro.substrates.sim import (InterruptError, Resource, Signal,
                                  Simulator, Timeout, spawn)


def two_ship_net(**kw):
    sim = Simulator(seed=61)
    topo = line_topology(2)
    fabric = NetworkFabric(sim, topo)
    router = StaticRouter(topo)
    authority = CredentialAuthority()
    ships = {n: Ship(sim, fabric, n, router=router, authority=authority,
                     **kw) for n in topo.nodes}
    cred = authority.issue("op")
    for s in ships.values():
        s.nodeos.security.grant("op", "*")
    return sim, ships, cred


class TestProcessEdgeCases:
    def test_interrupt_while_waiting_on_signal(self):
        sim = Simulator()
        sig = Signal()
        caught = []

        def waiter():
            try:
                yield sig
            except InterruptError as exc:
                caught.append(exc.cause)

        proc = spawn(sim, waiter())
        sim.call_in(1.0, proc.interrupt, "now")
        sim.run()
        assert caught == ["now"]
        assert sig.waiting == 0   # unregistered on interrupt

    def test_cancel_queued_resource_grant(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def holder():
            yield res.request()
            order.append("holder")
            yield Timeout(5.0)
            res.release()

        def victim():
            grant = res.request()
            sim.call_in(1.0, grant.cancel)
            try:
                yield grant
                order.append("victim")  # pragma: no cover
            except Exception:
                pass

        def third():
            yield res.request()
            order.append("third")
            res.release()

        spawn(sim, holder())
        spawn(sim, victim())
        spawn(sim, third())
        sim.run(until=20.0)
        # The cancelled victim never runs; third gets the grant.
        assert order == ["holder", "third"]

    def test_process_result_before_done_raises(self):
        sim = Simulator()

        def proc():
            yield Timeout(5.0)

        p = spawn(sim, proc())
        from repro.substrates.sim import SimulationError
        with pytest.raises(SimulationError):
            p.result

    def test_interrupt_after_done_is_noop(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)

        p = spawn(sim, proc())
        sim.run()
        p.interrupt("late")   # must not raise
        sim.run()
        assert p.done


class TestGenomeRoundtrip:
    def test_encode_transcribe_roundtrip_structure(self):
        sim, ships, cred = two_ship_net()
        donor = ships[0]
        donor.acquire_role(FusionRole(), modal=True)
        donor.acquire_role(CachingRole())
        donor.assign_role(FusionRole.role_id)
        donor.record_fact("flow", "f1")
        genome = encode_ship(donor, sim.now)
        assert genome.modal_roles == ["fn.fusion", "fn.nextstep"]
        assert genome.auxiliary_roles == ["fn.caching"]
        assert genome.active_role == FusionRole.role_id
        assert "flow" in genome.payload["fact_classes"]
        report = transcribe(genome, ships[1], default_catalog())
        assert sorted(report.roles_acquired) == ["fn.caching", "fn.fusion"]
        assert report.activated == FusionRole.role_id
        assert ships[1].active_role_id == FusionRole.role_id

    def test_transcribe_reports_unavailable_roles(self):
        sim, ships, cred = two_ship_net()
        genome = Genome(0, "agent", {
            "modal_roles": ["fn.ghost"], "auxiliary_roles": [],
            "active_role": None})
        report = transcribe(genome, ships[1], RoleCatalog())
        assert report.roles_unavailable == ["fn.ghost"]
        assert not report.any_change

    def test_transcribe_idempotent(self):
        sim, ships, cred = two_ship_net()
        donor = ships[0]
        donor.acquire_role(CachingRole())
        genome = encode_ship(donor, sim.now)
        catalog = default_catalog()
        transcribe(genome, ships[1], catalog)
        report = transcribe(genome, ships[1], catalog)
        assert report.roles_acquired == []
        assert CachingRole.role_id in report.roles_already_present

    def test_genome_size_tracks_payload(self):
        small = Genome(0, "agent", {"modal_roles": []})
        big = Genome(0, "agent", {"modal_roles": [f"r{i}" for i in
                                                  range(50)]})
        assert big.size_bytes > small.size_bytes


class TestShuttleHelpers:
    def test_carried_helpers(self):
        sim, ships, cred = two_ship_net()
        donor = ships[0]
        donor.acquire_role(CachingRole())
        donor.record_fact("content-request", "k")
        shuttle = donor.make_role_shuttle(CachingRole.role_id, 1,
                                          credential=cred)
        assert [m.code_id for m in shuttle.carried_code()] == \
            [CachingRole.role_id]
        assert len(shuttle.carried_quanta()) == 1
        assert shuttle.carried_genomes() == []

    def test_directive_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            Directive("teleport")

    def test_request_state_via_shuttle(self):
        sim, ships, cred = two_ship_net()
        got = []
        ships[0].on_deliver(lambda p, f: got.append(p))
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_REQUEST_STATE, reply_to=0)], credential=cred)
        ships[0].send_toward(shuttle)
        sim.run()
        assert len(got) == 1
        assert got[0].payload["state"]["ship"] == 1

    def test_shuttle_clone_preserves_cargo(self):
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_ACQUIRE_ROLE, role_id="fn.caching",
                      module=CachingRole.code_module())],
            interface=("x/1",), target_class="server")
        twin = shuttle.clone()
        assert twin.directives == shuttle.directives
        assert twin.interface == ("x/1",)
        assert twin.target_class == "server"
        assert twin.packet_id != shuttle.packet_id

    def test_jet_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Jet(0, 1, replicate_budget=-1)


class TestAdaptiveRouterEdgeCases:
    def test_buffer_overflow_drops(self):
        sim = Simulator(seed=62)
        topo = line_topology(3)
        topo.set_link_state(1, 2, False)
        fabric = NetworkFabric(sim, topo)
        router = WLIAdaptiveRouter(sim, proactive=False, max_buffered=2)
        authority = CredentialAuthority()
        ship = Ship(sim, fabric, 0, router=router, authority=authority)
        Ship(sim, fabric, 1,
             router=WLIAdaptiveRouter(sim, proactive=False),
             authority=authority)
        for _ in range(4):
            ship.send_toward(Datagram(0, 2, created_at=sim.now))
        assert router.buffered_total == 2
        assert ship.packets_dropped == 2

    def test_split_horizon_in_hello_vectors(self):
        sim = Simulator(seed=63)
        topo = line_topology(3)
        fabric = NetworkFabric(sim, topo)
        authority = CredentialAuthority()
        routers = {}
        received = {}
        for node in topo.nodes:
            router = WLIAdaptiveRouter(sim, hello_interval=2.0)
            ship = Ship(sim, fabric, node, router=router,
                        authority=authority)
            routers[node] = router
        # Snoop hellos arriving at node 2 from node 1.
        original = routers[2]._on_hello

        def snoop(ship, packet, from_node):
            if from_node == 1:
                received.setdefault("vectors", []).append(
                    dict(packet.payload["vector"]))
            original(ship, packet, from_node)

        routers[2]._on_hello = snoop
        sim.run(until=30.0)
        # Node 1 routes to 0 via 0 (not via 2) so it advertises 0
        # normally; its route to 2's side is via 2 so any such entry
        # must be poisoned toward 2.
        assert received["vectors"]
        for vector in received["vectors"]:
            if 2 in vector:
                assert vector[2] >= WLIAdaptiveRouter.INFINITY

    def test_poisoned_route_dropped(self):
        sim = Simulator(seed=64)
        topo = line_topology(2)
        fabric = NetworkFabric(sim, topo)
        router = WLIAdaptiveRouter(sim, proactive=False)
        ship = Ship(sim, fabric, 0, router=router,
                    authority=CredentialAuthority())
        router.learn_route("x", 1, 2.0)
        assert "x" in router.routes
        poison = Datagram(1, 0, payload={
            "kind": "route-adv",
            "vector": {"x": WLIAdaptiveRouter.INFINITY}, "origin": 1})
        router._on_hello(ship, poison, 1)
        assert "x" not in router.routes

        # A 20-entry vector from neighbour 2 to node 1: the receiver's
        # own id is skipped, a poisoned entry (cost + 1 >= INFINITY)
        # drops only a route through the sender, everything else is
        # learned by the usual rules.
        sim = Simulator(seed=64)
        topo = line_topology(3)
        fabric = NetworkFabric(sim, topo)
        router = WLIAdaptiveRouter(sim, proactive=False)
        ship = Ship(sim, fabric, 1, router=router,
                    authority=CredentialAuthority())
        inf = WLIAdaptiveRouter.INFINITY
        router.learn_route("x", 2, 3.0)     # via the sender: poisoned
        router.learn_route("z", 2, 3.0)     # via the sender: poisoned
        router.learn_route("y", 0, 3.0)     # via another hop: kept
        router.learn_route("b", 0, 5.0)     # worse than the offer
        router.learn_route("c", 0, 1.0)     # better than the offer
        vector = {1: 0.0, "x": inf, "y": inf, "z": inf - 1.0,
                  "w": inf - 2.0, "b": 1.0, "c": 3.0}
        vector.update((f"d{i}", float(i)) for i in range(13))
        assert len(vector) >= 16
        router._on_hello(ship, Datagram(2, 1, payload={
            "kind": "route-adv", "vector": vector, "origin": 2}), 2)
        expected = {"y": (0, 3.0), "c": (0, 1.0), "b": (2, 2.0),
                    "w": (2, inf - 1.0)}
        expected.update((f"d{i}", (2, i + 1.0)) for i in range(13))
        assert {dst: (r.next_hop, r.cost)
                for dst, r in router.routes.items()} == expected


class TestSweepResult:
    def make(self):
        return run_sweep("demo", lambda seed: {"metric": float(seed * 2),
                                               "constant": 5.0},
                         seeds=[1, 2, 3])

    def test_aggregates(self):
        sweep = self.make()
        assert sweep.mean("metric") == pytest.approx(4.0)
        assert sweep.min("metric") == 2.0
        assert sweep.max("metric") == 6.0
        assert sweep.std("constant") == 0.0
        assert sweep.metrics() == ["constant", "metric"]

    def test_all_seeds_satisfy(self):
        sweep = self.make()
        assert sweep.all_seeds_satisfy(lambda m: m["metric"] > 0)
        assert not sweep.all_seeds_satisfy(lambda m: m["metric"] > 3)

    def test_compare_sweeps(self):
        a, b = self.make(), self.make()
        b.name = "other"
        rows = compare_sweeps("metric", a, b)
        assert [r[0] for r in rows] == ["demo", "other"]
        assert rows[0][1] == pytest.approx(4.0)

    def test_summary_format(self):
        assert "±" in self.make().summary("metric")


class TestBroadcastJet:
    def test_jet_to_broadcast_wanders_star(self):
        sim = Simulator(seed=65)
        topo = star_topology(4)
        fabric = NetworkFabric(sim, topo)
        router = StaticRouter(topo)
        authority = CredentialAuthority()
        ships = {n: Ship(sim, fabric, n, router=router,
                         authority=authority) for n in topo.nodes}
        cred = authority.issue("op")
        for s in ships.values():
            s.nodeos.security.grant("op", "*")
        jet = Jet(1, 0, directives=[
            Directive(OP_ACQUIRE_ROLE, role_id=TranscodingRole.role_id,
                      module=TranscodingRole.code_module())],
            credential=cred, replicate_budget=8, max_fanout=4)
        ships[1].send_toward(jet)
        sim.run()
        holders = [n for n, s in ships.items()
                   if s.has_role(TranscodingRole.role_id)]
        assert 0 in holders          # the hub
        assert len(holders) >= 3     # and most leaves


class TestSweepConfidenceInterval:
    def test_ci95_brackets_mean(self):
        sweep = run_sweep("x", lambda seed: {"m": float(seed)},
                          seeds=[1, 2, 3, 4, 5])
        lo, hi = sweep.ci95("m")
        assert lo < sweep.mean("m") < hi

    def test_ci95_degenerate_cases(self):
        one = run_sweep("x", lambda seed: {"m": 7.0}, seeds=[1])
        assert one.ci95("m") == (7.0, 7.0)
        const = run_sweep("x", lambda seed: {"m": 7.0}, seeds=[1, 2, 3])
        assert const.ci95("m") == (7.0, 7.0)


class TestDijkstraCrossValidation:
    def test_matches_networkx_on_random_graphs(self):
        import random as _random

        import networkx as nx

        from repro.substrates.phys import random_topology

        for seed in range(5):
            topo = random_topology(15, avg_degree=3.0,
                                   rng=_random.Random(seed))
            g = nx.Graph()
            for link in topo.links:
                g.add_edge(link.a, link.b, weight=link.latency)
            for src in topo.nodes:
                dist, _ = topo.shortest_paths(src)
                nx_dist = nx.single_source_dijkstra_path_length(
                    g, src, weight="weight")
                assert set(dist) == set(nx_dist)
                for node in dist:
                    assert abs(dist[node] - nx_dist[node]) < 1e-9


class TestWaitAllFailurePropagation:
    def test_wait_all_raises_child_exception_in_parent(self):
        from repro.substrates.sim import wait_all
        sim = Simulator()

        def ok():
            yield Timeout(1.0)
            return "fine"

        def bad():
            yield Timeout(2.0)
            raise ValueError("child failed")

        procs = [spawn(sim, ok()), spawn(sim, bad())]
        caught = []

        def parent():
            try:
                yield wait_all(sim, procs)
            except ValueError as exc:
                caught.append(str(exc))

        spawn(sim, parent())
        sim.run()
        assert caught == ["child failed"]


class TestShuttleStructureContents:
    def test_structure_extracts_kq_knowledge_classes(self):
        from repro.core import (Directive, OP_DEPLOY_QUANTUM, Shuttle)
        from repro.core.knowledge import KnowledgeQuantum
        kq = KnowledgeQuantum("fn.caching", [
            {"fact_class": "content-request", "value": 1},
            {"fact_class": "flow", "value": 2}])
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_DEPLOY_QUANTUM, quantum=kq)])
        structure = shuttle.structure()
        assert "fn.caching" in structure["functions"]
        assert set(structure["knowledge"]) == {"content-request", "flow"}

    def test_structure_extracts_genome_functions(self):
        from repro.core import (Directive, Genome, OP_TRANSCRIBE_GENOME,
                                Shuttle)
        genome = Genome(0, "agent", {
            "modal_roles": ["fn.fusion"], "auxiliary_roles": [],
            "hardware": {"functions": ["fn.transcoding"]}})
        shuttle = Shuttle(0, 1, directives=[
            Directive(OP_TRANSCRIBE_GENOME, genome=genome)])
        structure = shuttle.structure()
        assert "fn.fusion" in structure["functions"]
        assert "fn.transcoding" in structure["hardware"]


class TestSnapshotSerializable:
    def test_snapshot_is_json_serializable(self):
        import json

        from repro.core import WanderingNetwork
        from repro.routing import QosDemand
        from repro.substrates.phys import ring_topology

        wn = WanderingNetwork(ring_topology(4))
        wn.deploy_role(CachingRole, at=1, activate=True)
        wn.overlays.spawn(QosDemand(), overlay_id="ov")
        wn.run(until=20.0)
        text = json.dumps(wn.snapshot(), default=str, sort_keys=True)
        assert "fn.caching" in text
        assert "ov" in text
