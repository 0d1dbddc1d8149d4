"""A distributed conjugate-gradient solver (the HPCCG proxy, parallelized).

Slab-decomposes the 27-point-stencil CG of
:class:`repro.workloads.miniapps._StencilCG` across ``ranks`` along the
grid's first axis: each rank owns a contiguous block of planes, the
axis-0 stencil neighbours come from a periodic halo exchange
(:meth:`Communicator.exchange_halos`), and the CG dot products are
``allreduce_sum`` collectives — the real communication structure of HPCCG.

The distributed matrix-vector product is *bitwise identical* to the
single-domain one (each element accumulates its 26 neighbour terms in the
same order); the dot products sum in rank order, so full CG trajectories
agree to floating-point reduction-order tolerance — both properties are
tested.

Per-rank checkpoint state is exactly the rank's slabs of ``x, r, p, b``,
which plugs straight into the multilevel C/R runtime (one context file per
rank, as BLCR produces).
"""

from __future__ import annotations

import numpy as np

from ..workloads.base import deserialize_state, field_dot, serialize_state
from ..workloads.miniapps import _neighbour_sum
from .comm import Communicator

__all__ = ["DistributedStencilCG"]


class DistributedStencilCG:
    """27-point-stencil CG over a slab-decomposed periodic grid.

    Parameters
    ----------
    grid:
        Global grid edge length; the domain is ``grid**3``.
    ranks:
        Number of slabs; must divide ``grid``.
    seed:
        RHS initialization seed (matches ``HPCCGProxy(grid, seed)`` when
        ``smooth_rhs`` agrees).
    diag_weight, offdiag_weight, smooth_rhs:
        Operator/RHS knobs, as in the single-domain proxy.
    """

    def __init__(
        self,
        grid: int = 24,
        ranks: int = 4,
        seed: int = 0,
        diag_weight: float = 26.5,
        offdiag_weight: float = 1.0,
        smooth_rhs: bool = False,
    ):
        if grid % ranks != 0:
            raise ValueError(f"ranks ({ranks}) must divide grid ({grid})")
        if grid // ranks < 1:
            raise ValueError("each rank needs at least one plane")
        self.grid = grid
        self.ranks = ranks
        self.planes = grid // ranks
        self.diag_weight = diag_weight
        self.offdiag_weight = offdiag_weight
        self.comm = Communicator(ranks)
        self.iterations = 0

        rng = np.random.default_rng(seed)
        shape = (grid, grid, grid)
        if smooth_rhs:
            ones = np.ones(shape)
            b_global = self._matvec_global(ones) + 1e-4 * rng.standard_normal(shape)
        else:
            b_global = rng.standard_normal(shape)
        self.b = self._split(b_global)
        self.x = self._split(np.zeros(shape))
        self.r = [slab.copy() for slab in self.b]  # r = b - A·0
        self.p = [slab.copy() for slab in self.r]
        self._rho = self._dot(self.r, self.r)

    # -- decomposition helpers -------------------------------------------------------

    def _split(self, full: np.ndarray) -> list[np.ndarray]:
        return [
            full[r * self.planes : (r + 1) * self.planes].copy()
            for r in range(self.ranks)
        ]

    def assemble(self, slabs: list[np.ndarray]) -> np.ndarray:
        """Concatenate per-rank slabs back into the global field."""
        return np.concatenate(slabs, axis=0)

    # -- operator ---------------------------------------------------------------------

    def _matvec_global(self, v: np.ndarray) -> np.ndarray:
        """Reference single-domain operator (used only for RHS setup)."""
        acc = _neighbour_sum(np.pad(v, 1, mode="wrap"))
        return self.diag_weight * v - self.offdiag_weight * acc / 26.0

    def matvec(self, slabs: list[np.ndarray]) -> list[np.ndarray]:
        """Distributed operator application with one halo exchange.

        Axis-0 neighbour planes come from the exchange; axes 1 and 2 wrap
        within the rank.  The neighbour sum is the global operator's, term
        for term, so results are bitwise identical.
        """
        lower, upper = self.comm.exchange_halos(slabs)
        out: list[np.ndarray] = []
        for r in range(self.ranks):
            local = slabs[r]
            ext = np.concatenate(
                (lower[r][None, ...], local, upper[r][None, ...]), axis=0
            )
            acc = _neighbour_sum(np.pad(ext, ((0, 0), (1, 1), (1, 1)), mode="wrap"))
            out.append(self.diag_weight * local - self.offdiag_weight * acc / 26.0)
        return out

    # -- collectives --------------------------------------------------------------------

    def _dot(self, a: list[np.ndarray], b: list[np.ndarray]) -> float:
        """Distributed dot product: the proxies' :func:`field_dot` per
        rank, then allreduce."""
        locals_ = [field_dot(a[r], b[r]) for r in range(self.ranks)]
        return self.comm.allreduce_sum(locals_)

    # -- CG ---------------------------------------------------------------------------------

    def step(self) -> None:
        """One distributed CG iteration."""
        if self._rho < 1e-24:
            return  # converged; hold state (the proxy apps perturb instead)
        ap = self.matvec(self.p)
        pap = self._dot(self.p, ap)
        alpha = self._rho / pap
        for r in range(self.ranks):
            self.x[r] += alpha * self.p[r]
            self.r[r] -= alpha * ap[r]
        rho_new = self._dot(self.r, self.r)
        beta = rho_new / self._rho
        for r in range(self.ranks):
            self.p[r] = self.r[r] + beta * self.p[r]
        self._rho = rho_new
        self.iterations += 1

    def run(self, steps: int) -> None:
        """Advance ``steps`` CG iterations."""
        for _ in range(steps):
            self.step()

    def residual_norm(self) -> float:
        """Global residual 2-norm."""
        return float(np.sqrt(self._rho))

    # -- checkpoint integration -------------------------------------------------------------

    def rank_state(self, rank: int) -> dict[str, np.ndarray]:
        """One rank's checkpointable state (its slabs; halos are derived)."""
        if not 0 <= rank < self.ranks:
            raise ValueError(f"rank {rank} out of range")
        return {
            "x": self.x[rank],
            "r": self.r[rank],
            "p": self.p[rank],
            "b": self.b[rank],
        }

    def checkpoint_payloads(self) -> dict[int, bytes]:
        """Per-rank serialized context payloads (coordinated checkpoint)."""
        return {
            r: serialize_state(self.rank_state(r)) for r in range(self.ranks)
        }

    def restore_payloads(self, payloads: dict[int, bytes]) -> None:
        """Restore all ranks from recovered context payloads."""
        if set(payloads) != set(range(self.ranks)):
            raise ValueError(
                f"need payloads for ranks 0..{self.ranks - 1}, got {sorted(payloads)}"
            )
        for r, blob in payloads.items():
            state = deserialize_state(blob)
            for name in ("x", "r", "p", "b"):
                slab = getattr(self, name)[r]
                if state[name].shape != slab.shape:
                    raise ValueError(
                        f"rank {r}: {name} shape {state[name].shape} != {slab.shape}"
                    )
                slab[...] = state[name]
        self._rho = self._dot(self.r, self.r)
