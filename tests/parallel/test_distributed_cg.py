"""The distributed CG solver vs its single-domain reference."""

import numpy as np
import pytest

from repro.parallel import DistributedStencilCG
from repro.workloads.miniapps import _StencilCG


class _SingleCG(_StencilCG):
    name = "reference"


def reference_matvec(v, diag_weight, offdiag_weight):
    """The stencil as 26 ``np.roll`` neighbour copies, summed in order."""
    acc = np.zeros_like(v)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                acc += np.roll(np.roll(np.roll(v, dx, 0), dy, 1), dz, 2)
    return diag_weight * v - offdiag_weight * acc / 26.0


class TestDecomposition:
    def test_ranks_must_divide_grid(self):
        with pytest.raises(ValueError):
            DistributedStencilCG(grid=10, ranks=3)

    def test_split_assemble_round_trip(self):
        d = DistributedStencilCG(grid=12, ranks=4, seed=1)
        full = np.arange(12**3, dtype=float).reshape(12, 12, 12)
        assert np.array_equal(d.assemble(d._split(full)), full)

    def test_rhs_matches_single_domain(self):
        s = _SingleCG(grid=12, seed=7)
        d = DistributedStencilCG(grid=12, ranks=3, seed=7)
        assert np.array_equal(s.b, d.assemble(d.b))


class TestMatvec:
    @pytest.mark.parametrize("ranks", [1, 2, 3, 6])
    def test_bitwise_identical_to_global(self, ranks, rng):
        d = DistributedStencilCG(grid=12, ranks=ranks, seed=0)
        full = rng.standard_normal((12, 12, 12))
        dist = d.assemble(d.matvec(d._split(full)))
        assert np.array_equal(dist, d._matvec_global(full))

    @pytest.mark.parametrize("ranks", [1, 2, 3, 6])
    def test_bitwise_identical_to_roll_reference(self, ranks, rng):
        d = DistributedStencilCG(grid=12, ranks=ranks, seed=0, diag_weight=27.5)
        full = rng.standard_normal((12, 12, 12))
        want = reference_matvec(full, d.diag_weight, d.offdiag_weight)
        assert np.array_equal(d.assemble(d.matvec(d._split(full))), want)
        assert np.array_equal(d._matvec_global(full), want)

    def test_exchange_traffic_per_matvec(self):
        d = DistributedStencilCG(grid=12, ranks=4, seed=0)
        before = d.comm.bytes_sent
        d.matvec(d.x)
        per_rank_plane = 12 * 12 * 8
        assert d.comm.bytes_sent - before == 4 * 2 * per_rank_plane


class TestCGTrajectory:
    def test_matches_single_domain_before_convergence(self):
        s = _SingleCG(grid=12, seed=4)
        d = DistributedStencilCG(grid=12, ranks=3, seed=4)
        for _ in range(5):
            s.step()
            d.step()
            assert np.allclose(s.x, d.assemble(d.x), rtol=1e-9, atol=1e-12)
        assert s.residual_norm() == pytest.approx(d.residual_norm(), abs=1e-12)

    def test_residual_decreases(self):
        d = DistributedStencilCG(grid=12, ranks=4, seed=2)
        r0 = d.residual_norm()
        d.run(4)
        assert d.residual_norm() < r0

    def test_rank_count_does_not_change_answer(self):
        a = DistributedStencilCG(grid=12, ranks=2, seed=3)
        b = DistributedStencilCG(grid=12, ranks=6, seed=3)
        a.run(5)
        b.run(5)
        assert np.allclose(a.assemble(a.x), b.assemble(b.x), rtol=1e-9)

    def test_converged_solver_holds(self):
        d = DistributedStencilCG(grid=6, ranks=2, seed=1)
        d.run(50)  # far past convergence
        x_before = d.assemble(d.x).copy()
        d.step()
        assert np.array_equal(d.assemble(d.x), x_before)

    def test_smooth_rhs_mode(self):
        d = DistributedStencilCG(grid=12, ranks=3, seed=1, smooth_rhs=True)
        d.run(3)
        assert d.residual_norm() < 1.0


class TestCheckpointState:
    def test_rank_state_shapes(self):
        d = DistributedStencilCG(grid=12, ranks=4, seed=0)
        state = d.rank_state(2)
        assert set(state) == {"x", "r", "p", "b"}
        assert state["x"].shape == (3, 12, 12)

    def test_rank_validation(self):
        d = DistributedStencilCG(grid=12, ranks=4, seed=0)
        with pytest.raises(ValueError):
            d.rank_state(4)

    def test_payload_round_trip_resumes_identically(self):
        d = DistributedStencilCG(grid=12, ranks=3, seed=5)
        d.run(2)
        payloads = d.checkpoint_payloads()
        d.run(3)
        final = d.assemble(d.x).copy()

        fresh = DistributedStencilCG(grid=12, ranks=3, seed=5)
        fresh.restore_payloads(payloads)
        fresh.run(3)
        assert np.allclose(fresh.assemble(fresh.x), final, rtol=1e-12, atol=1e-15)

    def test_restore_validates_rank_set(self):
        d = DistributedStencilCG(grid=12, ranks=3, seed=0)
        with pytest.raises(ValueError):
            d.restore_payloads({0: b""})
