"""The bounded map every cache is built on (:mod:`repro.utils.lru`).

Eviction order is load-bearing: the node warmth cache decides cold vs
warm I/O charges, so Table 2/3's baseline columns depend on it.  The
model test drives random operation sequences against a plain list of
``(key, value)`` pairs, least recently used first.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.lru import LruMap


def test_lru_map_caps_and_evicts_in_access_order():
    lru = LruMap(capacity=3)
    for key in range(5):
        lru.set(key, key)
    assert len(lru) == 3
    assert lru.evictions == 2
    assert list(lru.keys()) == [2, 3, 4]
    lru.get(2)  # touch: 2 becomes most-recent
    lru.set(99, 99)
    assert list(lru.keys()) == [4, 2, 99]


KEYS = st.integers(0, 5)
OPS = st.one_of(
    st.tuples(st.just("get"), KEYS),
    st.tuples(st.just("peek"), KEYS),
    st.tuples(st.just("set"), KEYS, st.integers(0, 99)),
    st.tuples(st.just("pop"), KEYS),
    st.tuples(st.just("clear")),
)


def _find(model, key):
    for index, (k, _) in enumerate(model):
        if k == key:
            return index
    return None


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 4), ops=st.lists(OPS, max_size=40))
def test_lru_map_matches_a_list_model(capacity, ops):
    lru = LruMap(capacity)
    model = []
    evictions = high_water = 0
    for op in ops:
        name, key = op[0], op[1] if len(op) > 1 else None
        index = _find(model, key)
        if name == "get":
            expected = None
            if index is not None:
                expected = model[index][1]
                model.append(model.pop(index))
            assert lru.get(key) == expected
        elif name == "peek":
            expected = model[index][1] if index is not None else None
            assert lru.peek(key) == expected
        elif name == "set":
            victim = None
            if index is not None:
                model.pop(index)
            model.append((key, op[2]))
            if len(model) > capacity:
                victim = model.pop(0)
                evictions += 1
            high_water = max(high_water, len(model))
            assert lru.set(key, op[2]) == victim
        elif name == "pop":
            expected = model.pop(index)[1] if index is not None else None
            assert lru.pop(key) == expected
        else:
            model.clear()
            lru.clear()
        assert list(lru.items()) == model
        assert list(lru.keys()) == [k for k, _ in model]
        assert len(lru) == len(model)
        assert all(k in lru for k, _ in model)
        assert (lru.evictions, lru.high_water) == (evictions, high_water)
