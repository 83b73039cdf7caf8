"""Unit tests for the message-passing substrate (MPI stand-in)."""

import numpy as np
import pytest

from repro.grid import Field, TileDecomposition
from repro.monitor import Counters
from repro.parallel import (
    BoundaryCondition,
    CartComm,
    Communicator,
    HaloExchanger,
    ReduceOp,
    World,
    WorldAborted,
    run_spmd,
)
from repro.parallel.comm import serial_communicator

TIMEOUT = 10.0


class TestPointToPoint:
    def test_send_recv(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send({"a": 7}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        results = run_spmd(2, prog, timeout=TIMEOUT)
        assert results[1] == {"a": 7}

    def test_array_payloads_are_value_copies(self):
        def prog(comm):
            if comm.rank == 0:
                data = np.arange(4.0)
                comm.send(data, dest=1)
                data[:] = -1.0  # mutate after send; receiver must not see it
                return None
            return comm.recv(source=0)

        results = run_spmd(2, prog, timeout=TIMEOUT)
        np.testing.assert_array_equal(results[1], [0, 1, 2, 3])

    def test_tag_matching(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("late", dest=1, tag=2)
                comm.send("early", dest=1, tag=1)
                return None
            first = comm.recv(source=0, tag=1)
            second = comm.recv(source=0, tag=2)
            return (first, second)

        results = run_spmd(2, prog, timeout=TIMEOUT)
        assert results[1] == ("early", "late")

    def test_fifo_per_channel(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=0)
                return None
            return [comm.recv(source=0, tag=0) for _ in range(5)]

        assert run_spmd(2, prog, timeout=TIMEOUT)[1] == [0, 1, 2, 3, 4]

    def test_isend_irecv(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.isend(np.full(3, 2.0), dest=1)
                req.wait()
                return None
            req = comm.irecv(source=0)
            data = req.wait()
            assert req.test()
            return float(data.sum())

        assert run_spmd(2, prog, timeout=TIMEOUT)[1] == pytest.approx(6.0)

    def test_sendrecv_ring(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            return comm.sendrecv(comm.rank, dest=right, source=left)

        results = run_spmd(3, prog, timeout=TIMEOUT)
        assert results == [2, 0, 1]

    def test_recv_timeout_detects_deadlock(self):
        def prog(comm):
            if comm.rank == 1:
                comm.recv(source=0, tag=9)  # never sent

        with pytest.raises(WorldAborted) as exc:
            run_spmd(2, prog, timeout=0.2)
        assert isinstance(exc.value.cause, TimeoutError)


class TestCollectives:
    def test_bcast(self):
        def prog(comm):
            data = {"k": [1, 2.5]} if comm.rank == 0 else None
            return comm.bcast(data, root=0)

        for r in run_spmd(4, prog, timeout=TIMEOUT):
            assert r == {"k": [1, 2.5]}

    def test_gather_and_allgather(self):
        def prog(comm):
            g = comm.gather(comm.rank**2, root=0)
            ag = comm.allgather(comm.rank + 1)
            return (g, ag)

        results = run_spmd(3, prog, timeout=TIMEOUT)
        assert results[0][0] == [0, 1, 4]
        assert results[1][0] is None
        assert all(r[1] == [1, 2, 3] for r in results)

    def test_scatter(self):
        def prog(comm):
            data = [10 * (i + 1) for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(data, root=0)

        assert run_spmd(3, prog, timeout=TIMEOUT) == [10, 20, 30]

    def test_scatter_wrong_length_rejected(self):
        def prog(comm):
            data = [1] if comm.rank == 0 else None
            return comm.scatter(data, root=0)

        with pytest.raises(WorldAborted):
            run_spmd(2, prog, timeout=1.0)

    @pytest.mark.parametrize(
        "op,expect", [(ReduceOp.SUM, 6), (ReduceOp.MAX, 3), (ReduceOp.MIN, 0),
                      (ReduceOp.PROD, 0)]
    )
    def test_reduce_ops(self, op, expect):
        def prog(comm):
            return comm.reduce(comm.rank, op=op, root=0)

        assert run_spmd(4, prog, timeout=TIMEOUT)[0] == expect

    def test_allreduce_arrays(self):
        def prog(comm):
            return comm.allreduce(np.full(3, float(comm.rank + 1)))

        for r in run_spmd(3, prog, timeout=TIMEOUT):
            np.testing.assert_array_equal(r, [6.0, 6.0, 6.0])

    def test_allreduce_deterministic_order(self):
        # Rank-ordered combination: floating-point sum must be exactly
        # the left-to-right sum over ranks, every run.
        vals = [0.1, 0.2, 0.3, 0.4]
        want = ((vals[0] + vals[1]) + vals[2]) + vals[3]

        def prog(comm):
            return comm.allreduce(vals[comm.rank])

        for _ in range(3):
            for r in run_spmd(4, prog, timeout=TIMEOUT):
                assert r == want  # bitwise

    def test_barrier(self):
        import time

        def prog(comm):
            if comm.rank == 0:
                time.sleep(0.2)
            before = time.monotonic()
            comm.barrier()
            return before, time.monotonic()

        # No rank leaves the barrier before the last one has entered it.
        # The monotonic clock is system-wide, so this holds for process
        # ranks as well as thread ranks.
        stamps = run_spmd(4, prog, timeout=TIMEOUT)
        last_in = max(before for before, _after in stamps)
        assert all(after >= last_in for _before, after in stamps)

    def test_reduction_counter(self):
        counters = [Counters() for _ in range(2)]

        def prog(comm):
            comm.allreduce(1.0)
            comm.allreduce(2.0)

        run_spmd(2, prog, timeout=TIMEOUT, counters=counters)
        assert counters[0].reductions == 2


class TestWorldAndErrors:
    def test_rank_exception_propagates(self):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("physics blew up")
            comm.recv(source=1)  # would deadlock without abort

        with pytest.raises(WorldAborted) as exc:
            run_spmd(2, prog, timeout=TIMEOUT)
        assert exc.value.rank == 1
        assert isinstance(exc.value.cause, ValueError)

    @pytest.mark.parametrize("transport", ["threads", "mp"])
    def test_abort_error_is_unified_across_transports(self, transport):
        # WorldAborted and WorldAbortedError are one class; a raising
        # rank aborts its peers and surfaces the same typed error with
        # the same rank/cause payload under either transport.
        from repro.parallel import WorldAbortedError

        assert WorldAborted is WorldAbortedError

        def prog(comm):
            if comm.rank == 0:
                raise OSError("rank 0 lost its disk")
            comm.barrier()  # peers must be woken, not deadlock

        with pytest.raises(WorldAbortedError) as exc:
            run_spmd(3, prog, timeout=TIMEOUT, transport=transport)
        assert exc.value.rank == 0
        assert isinstance(exc.value.cause, OSError)
        assert "rank 0" in str(exc.value)

    def test_world_validation(self):
        with pytest.raises(ValueError):
            World(0)
        w = World(2)
        with pytest.raises(ValueError):
            Communicator(w, 5)
        with pytest.raises(ValueError):
            w.deliver(0, 9, 0, "x")

    def test_serial_fast_path(self):
        def prog(comm):
            assert comm.size == 1
            assert comm.allreduce(5.0) == 5.0
            assert comm.bcast("x") == "x"
            assert comm.gather(1) == [1]
            comm.barrier()
            return comm.rank

        assert run_spmd(1, prog, timeout=TIMEOUT) == [0]

    def test_serial_communicator_helper(self):
        comm = serial_communicator()
        assert comm.allreduce(3.0) == 3.0

    def test_run_spmd_validation(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda c: None)
        with pytest.raises(ValueError):
            run_spmd(2, lambda c: None, counters=[Counters()])

    def test_message_accounting(self):
        counters = [Counters() for _ in range(2)]

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(10), dest=1)

        run_spmd(2, prog, timeout=TIMEOUT, counters=counters)
        assert counters[0].messages_sent == 1
        assert counters[0].bytes_sent == 80
        assert counters[1].messages_sent == 0


class TestCartComm:
    def test_topology(self):
        def prog(comm):
            cart = CartComm.create(comm, nx1=8, nx2=6, nprx1=2, nprx2=2)
            return (cart.coords, cart.neighbors, cart.tile.shape)

        results = run_spmd(4, prog, timeout=TIMEOUT)
        coords = [r[0] for r in results]
        assert coords == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert results[0][1]["east"] == 1
        assert results[0][1]["north"] == 2
        assert results[0][1]["west"] is None
        assert results[0][2] == (4, 3)

    def test_shift(self):
        def prog(comm):
            cart = CartComm.create(comm, nx1=8, nx2=8, nprx1=4, nprx2=1)
            return cart.shift(0, 1)

        results = run_spmd(4, prog, timeout=TIMEOUT)
        assert results[0] == (None, 1)
        assert results[1] == (0, 2)
        assert results[3] == (2, None)

    def test_size_mismatch_rejected(self):
        def prog(comm):
            CartComm.create(comm, nx1=8, nx2=8, nprx1=3, nprx2=1)

        with pytest.raises(WorldAborted):
            run_spmd(2, prog, timeout=1.0)


class TestHaloExchange:
    @pytest.mark.parametrize("nprx1,nprx2", [(2, 1), (1, 2), (2, 2), (4, 1)])
    def test_ghosts_match_neighbor_interiors(self, nprx1, nprx2):
        nx1, nx2 = 8, 8
        nranks = nprx1 * nprx2
        global_f = np.arange(nx1 * nx2, dtype=float).reshape(nx1, nx2)

        def prog(comm):
            cart = CartComm.create(comm, nx1, nx2, nprx1, nprx2)
            tile = cart.tile
            f = Field(1, tile.shape, nghost=1)
            f.interior = global_f[tile.slice1, tile.slice2][None]
            HaloExchanger(cart, BoundaryCondition.DIRICHLET0).exchange(f)
            return (tile, f.data.copy())

        results = run_spmd(nranks, prog, timeout=TIMEOUT)
        pad = np.zeros((nx1 + 2, nx2 + 2))
        pad[1:-1, 1:-1] = global_f
        for tile, data in results:
            lo1, hi1 = tile.i1
            lo2, hi2 = tile.i2
            want = pad[lo1 : hi1 + 2, lo2 : hi2 + 2]
            got = data[0]
            # Corner ghosts are not exchanged (the 5-point stencil never
            # reads them); compare interior + the four face strips.
            np.testing.assert_array_equal(got[1:-1, 1:-1], want[1:-1, 1:-1])
            np.testing.assert_array_equal(got[0, 1:-1], want[0, 1:-1])
            np.testing.assert_array_equal(got[-1, 1:-1], want[-1, 1:-1])
            np.testing.assert_array_equal(got[1:-1, 0], want[1:-1, 0])
            np.testing.assert_array_equal(got[1:-1, -1], want[1:-1, -1])

    def test_reflect_bc_on_physical_faces(self):
        def prog(comm):
            cart = CartComm.create(comm, 4, 4, 2, 1)
            f = Field(1, cart.tile.shape, nghost=1)
            f.interior = np.full((1, 2, 4), float(comm.rank + 1))
            HaloExchanger(cart, BoundaryCondition.REFLECT).exchange(f)
            return f.data.copy()

        results = run_spmd(2, prog, timeout=TIMEOUT)
        # rank 0: west face is physical -> reflected own value; east ghost
        # comes from rank 1.
        np.testing.assert_array_equal(results[0][0, 0, 1:-1], [1.0] * 4)
        np.testing.assert_array_equal(results[0][0, -1, 1:-1], [2.0] * 4)
        np.testing.assert_array_equal(results[1][0, 0, 1:-1], [1.0] * 4)
        np.testing.assert_array_equal(results[1][0, -1, 1:-1], [2.0] * 4)

    def test_per_side_bc(self):
        def prog(comm):
            cart = CartComm.create(comm, 4, 4, 1, 1)
            f = Field(1, (4, 4), nghost=1)
            f.interior = np.ones((1, 4, 4))
            bc = {
                "west": BoundaryCondition.REFLECT,
                "east": BoundaryCondition.DIRICHLET0,
                "south": BoundaryCondition.REFLECT,
                "north": BoundaryCondition.DIRICHLET0,
            }
            HaloExchanger(cart, bc).exchange(f)
            return f.data.copy()

        data = run_spmd(1, prog, timeout=TIMEOUT)[0]
        assert data[0, 0, 1:-1].sum() == pytest.approx(4.0)   # reflected
        assert data[0, -1, 1:-1].sum() == 0.0                 # zeroed

    def test_halo_counter_incremented(self):
        counters = [Counters() for _ in range(2)]

        def prog(comm):
            cart = CartComm.create(comm, 4, 4, 2, 1)
            f = Field(1, cart.tile.shape, nghost=1)
            HaloExchanger(cart).exchange(f)

        run_spmd(2, prog, timeout=TIMEOUT, counters=counters)
        assert counters[0].halo_exchanges == 1
        assert counters[0].messages_sent >= 1
