"""FIFO queues and RNG streams."""

import pytest

from repro.sim import FifoQueue


class TestFifoQueue:
    def test_fifo_order(self):
        q = FifoQueue()
        for i in range(3):
            q.push(i)
        assert [q.pop() for _ in range(3)] == [0, 1, 2]

    def test_bounded_queue_drops_tail(self):
        q = FifoQueue(capacity=2)
        assert q.push("a")
        assert q.push("b")
        assert not q.push("c")
        assert q.dropped == 1
        assert len(q) == 2

    def test_peek_does_not_remove(self):
        q = FifoQueue()
        q.push("x")
        assert q.peek() == "x"
        assert len(q) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            FifoQueue().pop()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FifoQueue(capacity=0)

    def test_clear(self):
        q = FifoQueue()
        q.push(1)
        q.clear()
        assert len(q) == 0


class TestRngStreams:
    def test_same_name_same_stream(self):
        from repro.sim import RngStreams
        rng = RngStreams(seed=1)
        assert rng.stream("x") is rng.stream("x")

    def test_streams_reproducible_across_instances(self):
        from repro.sim import RngStreams
        a = RngStreams(seed=7).stream("gen").random()
        b = RngStreams(seed=7).stream("gen").random()
        assert a == b

    def test_different_names_decorrelated(self):
        from repro.sim import RngStreams
        rng = RngStreams(seed=7)
        xs = [rng.stream("a").random() for _ in range(4)]
        ys = [rng.stream("b").random() for _ in range(4)]
        assert xs != ys

    def test_different_seeds_differ(self):
        from repro.sim import RngStreams
        assert (RngStreams(0).stream("s").random()
                != RngStreams(1).stream("s").random())

    def test_fork_is_independent(self):
        from repro.sim import RngStreams
        base = RngStreams(seed=3)
        fork = base.fork("rep1")
        assert base.stream("s").random() != fork.stream("s").random()
        # Forks are themselves reproducible.
        again = RngStreams(seed=3).fork("rep1")
        assert fork.seed == again.seed
