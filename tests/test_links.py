"""Cross-transport semantics suite for the comm layer.

Every guarantee the solver stack leans on -- per-channel FIFO order,
probe/pending consistency, rank-ordered reduction determinism, value
isolation, barrier and abort propagation, batched collectives, counter
accounting -- asserted against *both* transports through one fixture.
A transport that passes this file is substitutable under the whole
application; the bitwise application-level parity tests in
``test_fused.py`` / ``test_golden_invariants.py`` then close the loop.
"""

import os
import pickle

import numpy as np
import pytest

from repro.monitor import Counters
from repro.parallel import (
    ReduceOp,
    WorldAborted,
    WorldAbortedError,
    available_transports,
    get_transport,
    run_spmd,
)
from repro.parallel.links import (
    DEFAULT_TRANSPORT,
    TRANSPORT_ENV,
    MPTransport,
    ThreadedTransport,
    TransportUnavailableError,
)
from repro.parallel.links.shmem import ShmRing

TIMEOUT = 20.0

TRANSPORTS = ("threads", "mp")


@pytest.fixture(params=TRANSPORTS)
def transport(request):
    return request.param


def spmd(size, fn, transport, **kw):
    kw.setdefault("timeout", TIMEOUT)
    return run_spmd(size, fn, transport=transport, **kw)


# ---------------------------------------------------------------------------
# Registry and selection.
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_both_transports_available_here(self):
        assert set(TRANSPORTS) <= set(available_transports())

    def test_default_is_threads(self, monkeypatch):
        monkeypatch.delenv(TRANSPORT_ENV, raising=False)
        assert DEFAULT_TRANSPORT == "threads"
        assert isinstance(get_transport(None), ThreadedTransport)

    def test_explicit_name_resolves(self):
        assert isinstance(get_transport("mp"), MPTransport)
        assert get_transport("threads").name == "threads"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(TRANSPORT_ENV, "mp")
        assert isinstance(get_transport(None), MPTransport)
        assert isinstance(get_transport("threads"), ThreadedTransport)

    def test_unknown_name_rejected(self):
        with pytest.raises(TransportUnavailableError, match="unknown transport"):
            get_transport("smoke-signals")

    def test_abort_alias_unified(self):
        # The historic launcher-side error and the substrate error are
        # one class; both import paths keep working.
        assert WorldAborted is WorldAbortedError
        err = WorldAbortedError(rank=3, cause=ValueError("x"))
        assert err.rank == 3 and "rank 3" in str(err)
        assert WorldAbortedError("plain").rank is None


# ---------------------------------------------------------------------------
# Point-to-point ordering and consistency.
# ---------------------------------------------------------------------------
class TestOrdering:
    def test_fifo_per_source_tag_channel(self, transport):
        def prog(comm):
            if comm.rank == 0:
                for i in range(20):
                    comm.send(i, dest=1, tag=i % 2)
                return None
            evens = [comm.recv(source=0, tag=0) for _ in range(10)]
            odds = [comm.recv(source=0, tag=1) for _ in range(10)]
            return evens, odds

        evens, odds = spmd(2, prog, transport)[1]
        assert evens == list(range(0, 20, 2))
        assert odds == list(range(1, 20, 2))

    def test_interleaved_sources_keep_per_source_order(self, transport):
        def prog2(comm):
            if comm.rank < 2:
                for i in range(8):
                    comm.send((comm.rank, i), dest=2, tag=5)
                return None
            a = [comm.recv(source=0, tag=5)[1] for _ in range(8)]
            b = [comm.recv(source=1, tag=5)[1] for _ in range(8)]
            return a, b

        a, b = spmd(3, prog2, transport)[2]
        assert a == list(range(8)) and b == list(range(8))

    def test_value_isolation_after_send(self, transport):
        def prog(comm):
            if comm.rank == 0:
                data = np.arange(6.0)
                comm.send(data, dest=1, tag=1)
                data[:] = -99.0  # mutate after send
                comm.send({"v": [data]}, dest=1, tag=2)
                return None
            first = comm.recv(source=0, tag=1)
            second = comm.recv(source=0, tag=2)
            return first, second

        first, second = spmd(2, prog, transport)[1]
        np.testing.assert_array_equal(first, np.arange(6.0))
        np.testing.assert_array_equal(second["v"][0], np.full(6, -99.0))

    def test_self_send(self, transport):
        def prog(comm):
            comm.send(np.full(4, float(comm.rank)), dest=comm.rank, tag=9)
            return float(comm.recv(source=comm.rank, tag=9).sum())

        assert spmd(2, prog, transport) == [0.0, 4.0]


class TestProbePending:
    def test_probe_and_pending_track_mailbox(self, transport):
        def prog(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                comm.barrier()
                return None
            comm.barrier()  # both messages are now in flight or queued
            # Drain-and-check: probe must see exactly the queued tags.
            got1 = comm.recv(source=0, tag=1)
            state = (
                comm.world.probe(comm.rank, 0, 1),
                comm.world.probe(comm.rank, 0, 2),
                comm.world.pending_messages(comm.rank),
            )
            got2 = comm.recv(source=0, tag=2)
            empty = comm.world.pending_messages(comm.rank)
            return got1, state, got2, empty

        got1, state, got2, empty = spmd(2, prog, transport)[1]
        assert (got1, got2) == ("a", "b")
        assert state == (False, True, 1)
        assert empty == 0

    def test_irecv_poll_consistency(self, transport):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=3)  # handshake: peer is ready
                comm.send(42, dest=1, tag=4)
                return None
            req = comm.irecv(source=0, tag=4)
            assert not req.test()  # nothing sent yet
            comm.send("ready", dest=0, tag=3)
            return req.wait()

        assert spmd(2, prog, transport)[1] == 42


# ---------------------------------------------------------------------------
# Reductions: deterministic, batched, cross-transport identical.
# ---------------------------------------------------------------------------
class TestReductions:
    def test_rank_ordered_sum_is_bitwise_deterministic(self, transport):
        vals = [0.1, 0.2, 0.3, 0.4]
        want = ((vals[0] + vals[1]) + vals[2]) + vals[3]

        def prog(comm):
            return comm.allreduce(vals[comm.rank])

        for _ in range(3):
            for r in spmd(4, prog, transport):
                assert r == want  # bitwise, every rank, every run

    def test_transports_produce_identical_reduction_bits(self):
        rng = np.random.default_rng(77)
        vals = rng.standard_normal(4)

        def prog(comm):
            return comm.allreduce(float(vals[comm.rank]))

        per_transport = {t: spmd(4, prog, t) for t in TRANSPORTS}
        assert per_transport["threads"] == per_transport["mp"]

    def test_allreduce_batch_single_round_matches_singles(self, transport):
        def prog(comm):
            x = float(comm.rank + 1) * 0.37
            singles = [
                comm.allreduce(x, op=ReduceOp.SUM),
                comm.allreduce(x, op=ReduceOp.MAX),
            ]
            before = comm.counters.reductions
            batch = comm.allreduce_batch([x, x], ops=[ReduceOp.SUM, ReduceOp.MAX])
            rounds = comm.counters.reductions - before
            return singles, batch, rounds

        for singles, batch, rounds in spmd(3, prog, transport):
            assert batch == singles  # bitwise
            assert rounds == 1

    def test_array_reductions_match_across_transports(self):
        def prog(comm):
            local = np.linspace(0.0, 1.0, 16) * (comm.rank + 1)
            return comm.allreduce(local)

        a = spmd(4, prog, "threads")
        b = spmd(4, prog, "mp")
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


# ---------------------------------------------------------------------------
# Barriers and abort propagation.
# ---------------------------------------------------------------------------
class TestAbort:
    def test_raising_rank_aborts_blocked_peers(self, transport):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("physics blew up")
            comm.recv(source=1, tag=0)  # would deadlock without abort

        with pytest.raises(WorldAbortedError) as exc:
            spmd(3, prog, transport)
        assert exc.value.rank == 1
        assert isinstance(exc.value.cause, ValueError)
        assert "physics blew up" in str(exc.value.cause)

    def test_abort_wakes_barrier_waiters(self, transport):
        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("dies before the barrier")
            try:
                comm.barrier()
            except WorldAbortedError:
                return "aborted-in-barrier"
            return "passed"

        with pytest.raises(WorldAbortedError) as exc:
            spmd(4, prog, transport)
        assert exc.value.rank == 0
        assert isinstance(exc.value.cause, RuntimeError)

    def test_primary_failure_beats_secondary_aborts(self, transport):
        # Peers that die *because of* the abort must not mask the cause.
        def prog(comm):
            if comm.rank == 2:
                raise KeyError("the real bug")
            comm.recv(source=2, tag=1)

        with pytest.raises(WorldAbortedError) as exc:
            spmd(4, prog, transport)
        assert exc.value.rank == 2
        assert isinstance(exc.value.cause, KeyError)

    def test_deadlock_timeout_propagates(self, transport):
        def prog(comm):
            if comm.rank == 1:
                comm.recv(source=0, tag=9)  # never sent

        with pytest.raises(WorldAbortedError) as exc:
            spmd(2, prog, transport, timeout=0.5)
        assert isinstance(exc.value.cause, TimeoutError)


# ---------------------------------------------------------------------------
# Counters cross the transport boundary faithfully.
# ---------------------------------------------------------------------------
class TestCounters:
    def test_counter_parity_across_transports(self):
        def prog(comm):
            comm.send(np.zeros(10), dest=(comm.rank + 1) % comm.size, tag=1)
            comm.recv(source=(comm.rank - 1) % comm.size, tag=1)
            comm.allreduce(1.0)
            comm.allreduce_batch([1.0, 2.0])

        snaps = {}
        for t in TRANSPORTS:
            counters = [Counters() for _ in range(3)]
            spmd(3, prog, t, counters=counters)
            snaps[t] = [c.snapshot() for c in counters]
        assert snaps["threads"] == snaps["mp"]
        assert snaps["mp"][0]["messages_sent"] > 0
        assert snaps["mp"][0]["reductions"] == 2


# ---------------------------------------------------------------------------
# MP-transport specifics: rings, pickling edges, child death.
# ---------------------------------------------------------------------------
class TestMPSpecifics:
    def test_messages_larger_than_ring_are_chunked(self):
        small = MPTransport(ring_bytes=4096)

        def prog(comm):
            payload = np.arange(8192, dtype=np.float64) + comm.rank  # 64 KiB
            comm.send(payload, dest=(comm.rank + 1) % comm.size, tag=2)
            got = comm.recv(source=(comm.rank - 1) % comm.size, tag=2)
            return float(got[-1])

        out = run_spmd(3, prog, timeout=TIMEOUT, transport=small)
        assert out == [8193.0, 8191.0, 8192.0]

    def test_unpicklable_result_is_a_rank_failure(self):
        def prog(comm):
            if comm.rank == 0:
                return lambda: None  # cannot cross the pipe
            return comm.rank

        with pytest.raises(WorldAbortedError) as exc:
            spmd(2, prog, "mp")
        assert exc.value.rank == 0
        assert "unpicklable" in str(exc.value.cause)

    def test_killed_child_reported_not_hung(self):
        def prog(comm):
            if comm.rank == 1:
                os._exit(13)  # dies without reporting
            comm.barrier()

        with pytest.raises(WorldAbortedError) as exc:
            spmd(2, prog, "mp", timeout=5.0)
        assert exc.value.rank == 1
        assert "exitcode" in str(exc.value.cause) or "without" in str(
            exc.value.cause
        )

    def test_serial_mp_runs_inline(self):
        def prog(comm):
            assert comm.size == 1
            return os.getpid()

        assert spmd(1, prog, "mp") == [os.getpid()]

    def test_ranks_are_separate_processes(self):
        def prog(comm):
            return os.getpid()

        pids = spmd(3, prog, "mp")
        assert len(set(pids)) == 3
        assert os.getpid() not in pids

    def test_ring_frames_roundtrip(self):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        ring = ShmRing(1024, ctx)
        try:
            frames = [b"x" * n for n in (0, 1, 100)]
            for frame in frames:
                ring.write(frame, None, lambda: False)
            assert ring.try_read() == frames[0]
            assert ring.try_read() == frames[1]
            assert ring.try_read() == frames[2]
            assert ring.try_read() is None
            blob = pickle.dumps(np.arange(10))
            ring.write(blob, None, lambda: False)
            assert pickle.loads(ring.try_read()).tolist() == list(range(10))
        finally:
            ring.close()
            ring.unlink()
