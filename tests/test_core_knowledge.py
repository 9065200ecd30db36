"""Unit tests for facts, knowledge bases, net functions and quanta (PMP)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knowledge import (DEFAULT_DECAY_RATE, MAX_WEIGHT, Fact,
                                  KnowledgeBase, KnowledgeQuantum,
                                  NetFunction)


class TestFact:
    def test_validation(self):
        with pytest.raises(ValueError):
            Fact("c", 1, weight=0.0)
        with pytest.raises(ValueError):
            Fact("c", 1, threshold=-1.0)

    def test_weight_decays_exponentially(self):
        fact = Fact("c", "v", created_at=0.0, weight=1.0)
        w0 = fact.weight(0.0)
        w100 = fact.weight(100.0)
        assert w0 == pytest.approx(1.0)
        assert w100 == pytest.approx(math.exp(-DEFAULT_DECAY_RATE * 100))

    def test_touch_boosts_weight(self):
        fact = Fact("c", "v", created_at=0.0, weight=1.0)
        fact.touch(10.0)
        assert fact.weight(10.0) > 1.0
        assert fact.accesses == 1

    def test_alive_threshold(self):
        fact = Fact("c", "v", created_at=0.0, weight=1.0, threshold=0.5)
        assert fact.alive(0.0)
        assert not fact.alive(1000.0)

    def test_expiry_time_consistent_with_alive(self):
        fact = Fact("c", "v", created_at=0.0, weight=2.0, threshold=0.5)
        t = fact.expiry_time()
        assert fact.alive(t - 1.0)
        assert not fact.alive(t + 1.0)

    def test_zero_threshold_never_expires(self):
        fact = Fact("c", "v", threshold=0.0)
        assert fact.expiry_time() == float("inf")
        assert fact.alive(1e9)

    def test_snapshot(self):
        fact = Fact("link", ("a", "b"), created_at=0.0, source="n1")
        snap = fact.snapshot(0.0)
        assert snap["fact_class"] == "link"
        assert snap["value"] == ("a", "b")
        assert snap["source"] == "n1"


class TestKnowledgeBase:
    def test_record_and_find(self):
        kb = KnowledgeBase()
        fact = kb.record(Fact("c", "v", created_at=0.0), now=0.0)
        assert kb.find("c", "v") is fact
        assert len(kb) == 1

    def test_duplicate_value_touches_existing(self):
        kb = KnowledgeBase()
        first = kb.record(Fact("c", "v", created_at=0.0), now=0.0)
        second = kb.record(Fact("c", "v", created_at=5.0), now=5.0)
        assert second is first
        assert len(kb) == 1
        assert first.accesses == 1

    def test_capacity_displaces_weakest(self):
        kb = KnowledgeBase(capacity=2)
        weak = kb.record(Fact("c", "weak", created_at=0.0, weight=0.3),
                         now=0.0)
        strong = kb.record(Fact("c", "strong", created_at=0.0, weight=5.0),
                           now=0.0)
        kb.record(Fact("c", "new", created_at=0.0, weight=1.0), now=0.0)
        assert kb.find("c", "weak") is None
        assert kb.find("c", "strong") is strong
        assert kb.evictions == 1

    def test_sweep_evicts_below_threshold(self):
        kb = KnowledgeBase()
        kb.record(Fact("c", "old", created_at=0.0, weight=1.0,
                       threshold=0.5), now=0.0)
        kb.record(Fact("c", "fresh", created_at=100.0, weight=1.0,
                       threshold=0.5), now=100.0)
        dead = kb.sweep(now=100.0)
        assert [f.value for f in dead] == ["old"]
        assert len(kb) == 1

        # A large store whose thresholds sit within a few ulp of the
        # decayed weights: exactly the facts Fact.alive rejects are
        # evicted, in store order.
        kb = KnowledgeBase()
        now = 100.0
        facts = []
        for i in range(96):
            weight = 0.5 + i / 64
            created = float(i % 5 * 10)
            threshold = weight * math.exp(-DEFAULT_DECAY_RATE
                                          * (now - created))
            for _ in range(abs(i % 7 - 3)):
                threshold = math.nextafter(
                    threshold, math.inf if i % 7 > 3 else 0.0)
            if i % 11 == 0:
                threshold = 2.0 * MAX_WEIGHT
            facts.append(kb.record(Fact(f"c{i % 4}", i, created_at=created,
                                        weight=weight, threshold=threshold),
                                   now=created))
        expected = [f for f in facts if not f.alive(now)]
        assert [f.value for f in expected] == \
            [i for i in range(96) if i % 7 > 3 or i % 11 == 0]
        assert kb.sweep(now) == expected
        assert len(kb) == len(facts) - len(expected)

    def test_class_weight_sums_members(self):
        kb = KnowledgeBase()
        kb.record(Fact("c", 1, created_at=0.0, weight=1.0), now=0.0)
        kb.record(Fact("c", 2, created_at=0.0, weight=2.0), now=0.0)
        kb.record(Fact("other", 3, created_at=0.0, weight=9.0), now=0.0)
        assert kb.class_weight("c", 0.0) == pytest.approx(3.0)

    def test_touch_class(self):
        kb = KnowledgeBase()
        kb.record(Fact("c", 1, created_at=0.0), now=0.0)
        kb.record(Fact("c", 2, created_at=0.0), now=0.0)
        touched = kb.touch_class("c", now=10.0)
        assert touched == 2
        assert all(f.accesses == 1 for f in kb.facts_of_class("c"))

    def test_classes_listing(self):
        kb = KnowledgeBase()
        kb.record(Fact("a", 1), now=0.0)
        kb.record(Fact("b", 1), now=0.0)
        assert sorted(kb.classes()) == ["a", "b"]

    def test_class_removed_when_empty(self):
        kb = KnowledgeBase()
        fact = kb.record(Fact("a", 1, created_at=0.0, threshold=0.5),
                         now=0.0)
        kb.sweep(now=1000.0)
        assert kb.classes() == []

    def test_class_order_survives_removal(self):
        kb = KnowledgeBase(capacity=4)
        for value, weight in ((1, 5.0), (2, 0.5), (3, 5.0)):
            kb.record(Fact("a", value, created_at=0.0, weight=weight), 0.0)
        kb.record(Fact("b", 1, created_at=0.0, weight=5.0), 0.0)
        kb.record(Fact("a", 4, created_at=0.0, weight=5.0), 0.0)
        assert [f.value for f in kb.facts_of_class("a")] == [1, 3, 4]
        assert kb.classes() == ["a", "b"]
        kb.record(Fact("c", 1, created_at=0.0, weight=0.1), 0.0)
        assert kb.classes() == ["a", "b", "c"]

    def test_find_compares_unhashable_values_by_equality(self):
        kb = KnowledgeBase()
        fact = kb.record(Fact("c", ["x", {"k": 1}], created_at=0.0), 0.0)
        assert kb.find("c", ["x", {"k": 1}]) is fact
        assert kb.find("c", ["x"]) is None
        assert kb.record(Fact("c", ["x", {"k": 1}]), 1.0) is fact


def reference_victim(kb, now):
    """The weakest fact by a full scan: the eviction oracle."""
    return min(kb.all_facts(),
               key=lambda f: (f.weight(now, kb.decay_rate), f.fact_id))


def record_checked(kb, fact, now):
    """``kb.record`` asserting any eviction removed the reference victim."""
    expected = reference_victim(kb, now) if len(kb) >= kb.capacity else None
    before = {f.fact_id for f in kb.all_facts()}
    evictions = kb.evictions
    kb.record(fact, now)
    removed = before - {f.fact_id for f in kb.all_facts()}
    if kb.evictions > evictions:
        assert removed == {expected.fact_id}
    else:
        assert not removed


class TestEvictionIndex:
    def test_evicts_in_weight_then_id_order(self):
        kb = KnowledgeBase(capacity=3, decay_rate=0.1)
        old = kb.record(Fact("c", "old", created_at=0.0, weight=2.0), 0.0)
        tie_a = kb.record(Fact("c", "a", created_at=5.0, weight=1.0), 5.0)
        tie_b = kb.record(Fact("c", "b", created_at=5.0, weight=1.0), 5.0)
        # At t=5 "old" decays to 2·e^-0.5 ≈ 1.21, above the tied pair.
        kb.record(Fact("c", "n1", created_at=5.0, weight=3.0), 5.0)
        assert tie_a.fact_id not in kb
        kb.record(Fact("c", "n2", created_at=5.0, weight=3.0), 5.0)
        assert tie_b.fact_id not in kb
        kb.record(Fact("c", "n3", created_at=20.0, weight=3.0), 20.0)
        assert old.fact_id not in kb

    def test_rounding_near_tie_resolves_like_the_scan(self):
        kb = KnowledgeBase(capacity=2, decay_rate=0.1)
        old = kb.record(Fact("c", "old", created_at=0.0), 0.0)
        same = old.weight(1.0, kb.decay_rate)
        # Equal weights at t=1, but the newer fact's key rounds lower.
        assert math.log(same) + 0.1 * 1.0 < 0.0
        kb.record(Fact("c", "new", created_at=1.0, weight=same), 1.0)
        record_checked(kb, Fact("c", "x", created_at=1.0, weight=5.0), 1.0)
        assert old.fact_id not in kb

    def test_touch_moves_fact_up_the_ranking(self):
        kb = KnowledgeBase(capacity=2)
        first = kb.record(Fact("c", 1, created_at=0.0), 0.0)
        second = kb.record(Fact("c", 2, created_at=0.0), 0.0)
        kb.record(Fact("c", 3, created_at=0.0), 0.0)  # builds, evicts 1
        assert first.fact_id not in kb
        kb.touch_class("c", 1.0)
        kb.record(Fact("c", 2, created_at=2.0), 2.0)  # touch 2 again
        kb.record(Fact("c", 4, created_at=2.0), 2.0)
        assert second.fact_id in kb and len(kb) == 2

    def test_now_before_a_weight_time_is_exact(self):
        kb = KnowledgeBase(capacity=2)
        kb.record(Fact("c", "future", created_at=100.0, weight=1.0), 0.0)
        early = kb.record(Fact("c", "early", created_at=0.0, weight=1.5),
                          0.0)
        # At now=0 the future fact has not decayed: 1.0 < 1.5.
        record_checked(kb, Fact("c", "x", created_at=0.0, weight=9.0), 0.0)
        assert early.fact_id in kb

    @pytest.mark.parametrize("weight", [float("inf"), 2.0])
    def test_unrankable_weight_falls_back_to_scan(self, weight):
        kb = KnowledgeBase(capacity=3)
        kb.record(Fact("a", 1, created_at=0.0, weight=weight), 0.0)
        kb.record(Fact("b", 1, created_at=0.0), 0.0)
        kb.record(Fact("c", 1, created_at=0.0), 0.0)
        record_checked(kb, Fact("d", 1, created_at=1.0), 1.0)
        assert kb.find("b", 1) is None
        # A negative boost drives a weight below zero: no key.
        kb.touch_class("c", 2.0, boost=-5.0)
        record_checked(kb, Fact("d", 2, created_at=2.0), 2.0)
        assert kb.find("c", 1) is None

    def test_subnormal_weights_tie_like_the_scan(self):
        kb = KnowledgeBase(capacity=3, decay_rate=0.5)
        for value, weight in (("a", 2.0), ("b", 1.0), ("c", 1.5)):
            kb.record(Fact("c", value, created_at=0.0, weight=weight), 0.0)
        # All three decay to 0.0: the lowest id goes, not the lowest key.
        record_checked(kb, Fact("c", "d", created_at=1e4), 1e4)
        assert kb.find("c", "a") is None

    def test_index_memory_stays_bounded(self):
        capacity = 64
        kb = KnowledgeBase(capacity=capacity)
        now = 0.0
        for i in range(100_000):
            now += 1e-3
            value = i % (capacity // 2) if i % 5 else 10_000 + i
            kb.record(Fact(f"c{i % 3}", value, created_at=now), now)
        held = sum(len(ids) for ids in kb._groups.values())
        assert kb.evictions > 0
        assert held == kb._entries
        assert len(kb._ranks) <= held <= 5 * capacity + 64

    @given(
        capacity=st.integers(min_value=1, max_value=40),
        rate=st.floats(min_value=1e-6, max_value=0.5),
        ops=st.lists(st.tuples(
            st.sampled_from(["record"] * 6 + ["touch", "sweep"]),
            st.one_of(st.sampled_from([0.0, 0.0, 1e-12, 1e-9, -1e-9]),
                      st.floats(min_value=-5.0, max_value=50.0)),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=60),
            st.one_of(
                st.sampled_from([1.0, 1.0 + 1e-15, 1.0 - 1e-15, 0.5,
                                 MAX_WEIGHT, MAX_WEIGHT + 1e-9, 12.0,
                                 1e3, 1e-3, None]),
                st.floats(min_value=1e-3, max_value=20.0)),
            st.sampled_from([0.0, 0.0, 0.0, -2.0, 3.0])),
            min_size=1, max_size=150))
    @settings(max_examples=150, deadline=None)
    def test_victim_matches_reference_scan(self, capacity, rate, ops):
        kb = KnowledgeBase(capacity=capacity, decay_rate=rate)
        now = 0.0
        for op, step, cls, value, weight, lag in ops:
            now += step
            if op == "touch":
                kb.touch_class(f"c{cls}", now, boost=weight or 1.0)
            elif op == "sweep":
                kb.sweep(now)
            else:
                facts = kb.all_facts()
                if weight is None and facts:
                    # Near tie: the decayed weight of a stored fact,
                    # recorded at ``now`` under a different (w, t).
                    weight = facts[value % len(facts)].weight(now, rate)
                if not weight or weight <= 0.0:
                    weight = 1.0
                record_checked(kb, Fact(f"c{cls}", value,
                                        created_at=now + lag,
                                        weight=weight), now)


class TestNetFunction:
    def test_alive_while_supporting_class_alive(self):
        kb = KnowledgeBase()
        fn = NetFunction("fn.x", ["demand"], min_support_weight=0.5)
        assert not fn.alive(kb, 0.0)
        kb.record(Fact("demand", "k", created_at=0.0, weight=2.0), now=0.0)
        assert fn.alive(kb, 0.0)
        assert not fn.alive(kb, 1000.0)  # decayed away

    def test_unconditioned_function_always_alive(self):
        kb = KnowledgeBase()
        fn = NetFunction("fn.std", [])
        assert fn.alive(kb, 1e9)

    def test_any_supporting_class_suffices(self):
        kb = KnowledgeBase()
        fn = NetFunction("fn.x", ["a", "b"], min_support_weight=0.5)
        kb.record(Fact("b", 1, created_at=0.0, weight=1.0), now=0.0)
        assert fn.alive(kb, 0.0)


class TestKnowledgeQuantum:
    def test_make_quantum_packages_strongest_facts(self):
        kb = KnowledgeBase()
        for i in range(20):
            kb.record(Fact("demand", i, created_at=0.0,
                           weight=float(i + 1)), now=0.0)
        fn = NetFunction("fn.x", ["demand"])
        kq = kb.make_quantum(fn, now=0.0, origin="s1", max_facts=5)
        assert kq.function_id == "fn.x"
        assert len(kq.fact_snapshots) == 5
        values = [s["value"] for s in kq.fact_snapshots]
        assert values == [19, 18, 17, 16, 15]

    def test_quantum_size_scales_with_facts(self):
        small = KnowledgeQuantum("f", [{"fact_class": "c", "value": 1}])
        big = KnowledgeQuantum("f", [{"fact_class": "c", "value": i}
                                     for i in range(10)])
        assert big.size_bytes > small.size_bytes

    def test_absorb_quantum_records_facts(self):
        kb_src = KnowledgeBase()
        for i in range(3):
            kb_src.record(Fact("demand", i, created_at=0.0), now=0.0)
        fn = NetFunction("fn.x", ["demand"])
        kq = kb_src.make_quantum(fn, now=0.0)
        kb_dst = KnowledgeBase()
        absorbed = kb_dst.absorb_quantum(kq, now=5.0)
        assert absorbed == 3
        assert len(kb_dst) == 3
        assert kb_dst.class_weight("demand", 5.0) > 0

    def test_absorb_caps_imported_weight(self):
        kq = KnowledgeQuantum("f", [{"fact_class": "c", "value": 1,
                                     "weight": 1000.0}])
        kb = KnowledgeBase()
        kb.absorb_quantum(kq, now=0.0)
        assert kb.find("c", 1).weight(0.0) <= 4.0

    def test_aged_increments_generation(self):
        kq = KnowledgeQuantum("f", [])
        assert kq.aged().generation == 1
        assert kq.aged().aged().generation == 2
