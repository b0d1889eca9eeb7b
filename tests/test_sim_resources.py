"""Unit tests for the Store primitive."""

import pytest

from repro.sim import Environment, Store


@pytest.fixture
def env():
    return Environment()


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        store.put("item")
        got = store.get()
        assert got.triggered and got.value == "item"

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        got = store.get()
        assert not got.triggered
        store.put(99)
        assert got.value == 99

    def test_fifo_ordering(self, env):
        store = Store(env)
        for value in range(5):
            store.put(value)
        values = [store.get().value for _ in range(5)]
        assert values == [0, 1, 2, 3, 4]

    def test_bounded_put_blocks(self, env):
        store = Store(env, capacity=1)
        first = store.put("a")
        second = store.put("b")
        assert first.triggered and not second.triggered
        store.get()
        assert second.triggered

    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_len_reflects_buffered_items(self, env):
        store = Store(env, capacity=10)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        store.get()
        assert len(store) == 1

    def test_producer_consumer_pipeline(self, env):
        store = Store(env, capacity=2)
        consumed = []

        def producer():
            for value in range(6):
                yield store.put(value)
                yield env.timeout(1)

        def consumer():
            for _ in range(6):
                item = yield store.get()
                consumed.append((env.now, item))
                yield env.timeout(3)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert [item for _, item in consumed] == list(range(6))
        # Consumer is the bottleneck: last item arrives around 5*3.
        assert consumed[-1][0] >= 15
