"""Mantevo mini-app proxy kernels (Section 5.1.1 workloads).

Seven miniature-but-real numerical kernels stand in for the Mantevo
mini-apps whose BLCR checkpoints the paper compresses.  Each proxy
implements the same numerical method family as its namesake:

========== ==========================================================
CoMD       Lennard-Jones molecular dynamics (velocity Verlet)
HPCCG      conjugate gradient on a 27-point 3-D Poisson stencil
miniFE     CG on a variable-coefficient FE-style diffusion operator
miniMD     Lennard-Jones MD at a different density, with atom types
miniSMAC2D 2-D incompressible flow, SMAC-style staggered grid
miniAero   2-D finite-volume compressible Euler (Rusanov fluxes)
pHPCCG     HPCCG variant (scaled operator / right-hand side)
========== ==========================================================

State arrays are the checkpoint payload; sizes are set so a "rank" is a
few hundred kB to a few MB and a 16-rank run gives study-scale data.  All
kernels are vectorized numpy; a step costs milliseconds.
"""

from __future__ import annotations

import numpy as np

from .base import MiniApp, field_dot

__all__ = [
    "CoMDProxy",
    "HPCCGProxy",
    "PHPCCGProxy",
    "MiniFEProxy",
    "MiniMDProxy",
    "MiniSMAC2DProxy",
    "MiniAeroProxy",
    "APP_REGISTRY",
    "make_app",
]


class _LennardJonesMD(MiniApp):
    """Shared velocity-Verlet Lennard-Jones kernel (CoMD/miniMD base).

    All-pairs force evaluation with a cutoff and a minimum-distance clamp
    for numerical robustness, on a periodic cube.  O(n^2) vectorized —
    fine for proxy sizes (thousands of atoms).
    """

    density = 0.8
    temperature = 0.7
    dt = 0.004
    cutoff = 2.5

    def __init__(self, n_atoms: int = 1024, seed: int = 0, precision_bits: float = 52.0):
        super().__init__(seed, precision_bits)
        self.n = int(n_atoms)
        self.box = (self.n / self.density) ** (1.0 / 3.0)
        # Initialize on a jittered simple-cubic lattice to avoid overlaps.
        side = int(np.ceil(self.n ** (1.0 / 3.0)))
        grid = np.stack(
            np.meshgrid(*([np.arange(side)] * 3), indexing="ij"), axis=-1
        ).reshape(-1, 3)[: self.n]
        spacing = self.box / side
        self.pos = (grid + 0.5) * spacing + self.rng.normal(0, 0.05 * spacing, (self.n, 3))
        self.vel = self.rng.normal(0, np.sqrt(self.temperature), (self.n, 3))
        self.vel -= self.vel.mean(axis=0)  # zero net momentum
        self.force = np.zeros((self.n, 3))
        self._compute_forces()

    def _compute_forces(self) -> None:
        delta = self.pos[:, None, :] - self.pos[None, :, :]
        delta -= self.box * np.round(delta / self.box)  # minimum image
        r2 = np.einsum("ijk,ijk->ij", delta, delta)
        np.fill_diagonal(r2, np.inf)
        r2 = np.maximum(r2, 0.64)  # clamp to 0.8 sigma: soft core
        within = r2 < self.cutoff**2
        inv2 = np.where(within, 1.0 / r2, 0.0)
        inv6 = inv2**3
        # dU/dr / r for LJ: 24 eps (2 (s/r)^12 - (s/r)^6) / r^2
        coeff = 24.0 * (2.0 * inv6 * inv6 - inv6) * inv2
        self.force[...] = np.einsum("ij,ijk->ik", coeff, delta)

    def step(self) -> None:
        """One velocity-Verlet timestep."""
        self.vel += 0.5 * self.dt * self.force
        self.pos += self.dt * self.vel
        self.pos %= self.box
        self._compute_forces()
        self.vel += 0.5 * self.dt * self.force

    def kinetic_energy(self) -> float:
        """Total kinetic energy (diagnostic used by the examples)."""
        return float(0.5 * np.einsum("ij,ij->", self.vel, self.vel))

    def potential_energy(self) -> float:
        """Total (clamped, truncated) Lennard-Jones potential energy.

        Uses the same soft-core clamp and cutoff as the force kernel, so
        kinetic + potential is conserved by the Verlet integrator up to
        the clamp/truncation discontinuities (tested with a small dt).
        """
        delta = self.pos[:, None, :] - self.pos[None, :, :]
        delta -= self.box * np.round(delta / self.box)
        r2 = np.einsum("ijk,ijk->ij", delta, delta)
        np.fill_diagonal(r2, np.inf)
        r2 = np.maximum(r2, 0.64)
        within = r2 < self.cutoff**2
        inv6 = np.where(within, (1.0 / r2) ** 3, 0.0)
        pair = 4.0 * (inv6 * inv6 - inv6)
        return float(pair.sum() / 2.0)  # each pair counted twice

    def total_energy(self) -> float:
        """Kinetic + potential energy (conservation diagnostic)."""
        return self.kinetic_energy() + self.potential_energy()

    def _raw_state(self) -> dict[str, np.ndarray]:
        return {"positions": self.pos, "velocities": self.vel, "forces": self.force}


class CoMDProxy(_LennardJonesMD):
    """CoMD proxy: LJ molecular dynamics at moderate density."""

    name = "CoMD"


class MiniMDProxy(_LennardJonesMD):
    """miniMD proxy: denser, hotter LJ system plus per-atom type array."""

    name = "miniMD"
    density = 1.0
    temperature = 1.44

    def __init__(self, n_atoms: int = 1024, seed: int = 0, precision_bits: float = 52.0):
        super().__init__(n_atoms, seed, precision_bits)
        self.types = self.rng.integers(0, 4, self.n, dtype=np.int32)

    def _raw_state(self) -> dict[str, np.ndarray]:
        state = super()._raw_state()
        state["types"] = self.types
        return state


def _neighbour_sum(vp: np.ndarray) -> np.ndarray:
    """Sum of the 26 neighbours of every interior cell of ``vp``.

    ``vp`` is a 3-D field with a one-cell border on each axis (a periodic
    wrap, or a halo plane).  The terms are added in the order of
    ``np.roll(np.roll(np.roll(v, dx, 0), dy, 1), dz, 2)`` over ``dx, dy,
    dz`` in ``(-1, 0, 1)``, so every sum that is not NaN is bit-identical
    to that roll loop's, with no copy per term: each term is one contiguous
    slice of the flattened ``vp``, shifted by the term's offset.  The
    result is a view of the interior; the other slots of its buffer hold
    sums across the border that nobody reads.
    """
    n0, n1, n2 = vp.shape
    g0, g1, g2 = n0 - 2, n1 - 2, n2 - 2
    flat = vp.reshape(-1)
    acc = np.zeros(g0 * n1 * n2, dtype=vp.dtype)
    # Interior cell (i, j, k) is acc[i*n1*n2 + j*n2 + k]; stop after the last.
    used = acc[: (g0 - 1) * n1 * n2 + (g1 - 1) * n2 + g2]
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                # np.roll(v, d, axis)[i] == v[i - d] == vp[1 + i - d].
                start = (1 - dx) * n1 * n2 + (1 - dy) * n2 + (1 - dz)
                used += flat[start : start + used.size]
    return acc.reshape(g0, n1, n2)[:, :g1, :g2]


class _StencilCG(MiniApp):
    """Conjugate gradient on a 27-point periodic stencil (HPCCG family).

    The operator is ``A = diag_weight*I - offdiag_weight*S27`` where
    ``S27`` sums the 26 neighbours; diagonal dominance keeps it SPD.  One
    :meth:`step` is one CG iteration; state is the classic 4-vector CG
    working set plus the right-hand side.
    """

    diag_weight = 26.5
    offdiag_weight = 1.0
    rhs_scale = 1.0
    #: HPCCG manufactures its RHS so the exact solution is all-ones
    #: (``b = A @ 1``), making real HPCCG checkpoints highly redundant;
    #: miniFE uses a rough source term instead.
    smooth_rhs = False

    def __init__(self, grid: int = 28, seed: int = 0, precision_bits: float = 52.0):
        super().__init__(seed, precision_bits)
        self.grid = int(grid)
        shape = (self.grid,) * 3
        if self.smooth_rhs:
            ones = np.ones(shape)
            self.b = self.rhs_scale * (
                self._matvec(ones) + 1e-4 * self.rng.standard_normal(shape)
            )
        else:
            self.b = self.rhs_scale * self.rng.standard_normal(shape)
        self.x = np.zeros(shape)
        self.r = self.b - self._matvec(self.x)
        self.p = self.r.copy()
        self._rs = field_dot(self.r, self.r)

    def _matvec(self, v: np.ndarray) -> np.ndarray:
        acc = _neighbour_sum(np.pad(v, 1, mode="wrap"))
        return self.diag_weight * v - self.offdiag_weight * acc / 26.0

    def step(self) -> None:
        """One CG iteration (restarts automatically on convergence)."""
        if self._rs < 1e-24:
            # Converged: perturb the RHS to keep the kernel busy, as a
            # long-running solve sequence would.
            self.b += 0.01 * self.rng.standard_normal(self.b.shape)
            self.r = self.b - self._matvec(self.x)
            self.p = self.r.copy()
            self._rs = field_dot(self.r, self.r)
        ap = self._matvec(self.p)
        alpha = self._rs / field_dot(self.p, ap)
        self.x += alpha * self.p
        self.r -= alpha * ap
        rs_new = field_dot(self.r, self.r)
        self.p = self.r + (rs_new / self._rs) * self.p
        self._rs = rs_new

    def residual_norm(self) -> float:
        """Current residual 2-norm (diagnostic)."""
        return float(np.sqrt(self._rs))

    def _raw_state(self) -> dict[str, np.ndarray]:
        return {"x": self.x, "r": self.r, "p": self.p, "b": self.b}

    def restore(self, state: dict[str, np.ndarray]) -> None:
        super().restore(state)
        self._rs = field_dot(self.r, self.r)


class HPCCGProxy(_StencilCG):
    """HPCCG proxy: CG on the 27-point Poisson-like stencil."""

    name = "HPCCG"
    smooth_rhs = True


class PHPCCGProxy(_StencilCG):
    """pHPCCG proxy: the HPCCG variant with a rescaled operator."""

    name = "pHPCCG"
    diag_weight = 27.5
    rhs_scale = 100.0
    smooth_rhs = True


class MiniFEProxy(_StencilCG):
    """miniFE proxy: CG on a variable-coefficient diffusion operator.

    A smooth spatially-varying coefficient field multiplies the stencil,
    mimicking an assembled finite-element operator; the field itself is
    part of the checkpoint (as miniFE's mesh/matrix data is).
    """

    name = "miniFE"

    def __init__(self, grid: int = 26, seed: int = 0, precision_bits: float = 52.0):
        # Coefficient field must exist before the base computes r = b - Ax.
        g = int(grid)
        axis = np.linspace(0.0, 2.0 * np.pi, g, endpoint=False)
        xx, yy, zz = np.meshgrid(axis, axis, axis, indexing="ij")
        self.coeff = 1.0 + 0.5 * np.sin(xx) * np.cos(yy) * np.sin(zz)
        super().__init__(grid=g, seed=seed, precision_bits=precision_bits)

    def _matvec(self, v: np.ndarray) -> np.ndarray:
        return self.coeff * super()._matvec(v)

    def _raw_state(self) -> dict[str, np.ndarray]:
        state = super()._raw_state()
        state["coeff"] = self.coeff
        return state


class MiniSMAC2DProxy(MiniApp):
    """miniSMAC2D proxy: 2-D incompressible lid-driven cavity flow.

    Explicit advection-diffusion for (u, v) plus Jacobi pressure
    relaxation on a collocated grid — the simplified-MAC (SMAC) update
    pattern.  Turbulent-ish fine structure develops, which is why the
    paper measures this app's checkpoints as the least compressible.
    """

    name = "miniSMAC2D"
    reynolds = 400.0
    dt = 0.002

    def __init__(self, grid: int = 192, seed: int = 0, precision_bits: float = 52.0):
        super().__init__(seed, precision_bits)
        self.grid = int(grid)
        shape = (self.grid, self.grid)
        self.u = 0.01 * self.rng.standard_normal(shape)
        self.v = 0.01 * self.rng.standard_normal(shape)
        self.pressure = np.zeros(shape)
        self.h = 1.0 / self.grid

    def _lap(self, f: np.ndarray) -> np.ndarray:
        return (
            np.roll(f, 1, 0) + np.roll(f, -1, 0) + np.roll(f, 1, 1) + np.roll(f, -1, 1) - 4 * f
        ) / self.h**2

    def _ddx(self, f: np.ndarray) -> np.ndarray:
        return (np.roll(f, -1, 0) - np.roll(f, 1, 0)) / (2 * self.h)

    def _ddy(self, f: np.ndarray) -> np.ndarray:
        return (np.roll(f, -1, 1) - np.roll(f, 1, 1)) / (2 * self.h)

    def step(self) -> None:
        """One SMAC-style fractional step: predict, project, correct."""
        nu = 1.0 / self.reynolds
        u, v, dt = self.u, self.v, self.dt
        # Predictor: advection + diffusion.
        u_star = u + dt * (-u * self._ddx(u) - v * self._ddy(u) + nu * self._lap(u))
        v_star = v + dt * (-u * self._ddx(v) - v * self._ddy(v) + nu * self._lap(v))
        # Lid forcing along the top rows.
        u_star[:, -2:] += dt * 5.0 * (1.0 - u_star[:, -2:])
        # Pressure: a few Jacobi sweeps on the Poisson equation.
        div = (self._ddx(u_star) + self._ddy(v_star)) / dt
        p = self.pressure
        for _ in range(8):
            p = (
                np.roll(p, 1, 0) + np.roll(p, -1, 0) + np.roll(p, 1, 1) + np.roll(p, -1, 1)
                - self.h**2 * div
            ) / 4.0
        self.pressure = p
        # Corrector.
        self.u = u_star - dt * self._ddx(p)
        self.v = v_star - dt * self._ddy(p)

    def max_divergence(self) -> float:
        """Max |div(u)| after projection (diagnostic)."""
        return float(np.abs(self._ddx(self.u) + self._ddy(self.v)).max())

    def _raw_state(self) -> dict[str, np.ndarray]:
        return {"u": self.u, "v": self.v, "pressure": self.pressure}

    def restore(self, state: dict[str, np.ndarray]) -> None:
        # u/v/pressure are rebound by step(); assign rather than copy-into.
        for name in ("u", "v", "pressure"):
            setattr(self, name, state[name].copy())


class MiniAeroProxy(MiniApp):
    """miniAero proxy: 2-D compressible Euler with Rusanov fluxes.

    Evolves (rho, rho*u, rho*v, E) from a diagonal Sod-style shock-tube
    initial condition on a periodic grid — discontinuities plus smooth
    rarefactions give the mixed-compressibility state typical of
    aerodynamics checkpoints.
    """

    name = "miniAero"
    gamma = 1.4
    cfl = 0.4

    def __init__(self, grid: int = 160, seed: int = 0, precision_bits: float = 52.0):
        super().__init__(seed, precision_bits)
        self.grid = int(grid)
        shape = (self.grid, self.grid)
        xx, yy = np.meshgrid(
            np.linspace(0, 1, self.grid, endpoint=False),
            np.linspace(0, 1, self.grid, endpoint=False),
            indexing="ij",
        )
        left = (xx + yy) < 1.0
        rho = np.where(left, 1.0, 0.125)
        pres = np.where(left, 1.0, 0.1)
        rho += 0.01 * self.rng.standard_normal(shape)
        self.rho = rho
        self.mx = np.zeros(shape)
        self.my = np.zeros(shape)
        self.energy = pres / (self.gamma - 1.0)
        self.h = 1.0 / self.grid

    def _pressure(self) -> np.ndarray:
        kinetic = 0.5 * (self.mx**2 + self.my**2) / self.rho
        return np.maximum((self.gamma - 1.0) * (self.energy - kinetic), 1e-8)

    def step(self) -> None:
        """One Rusanov (local Lax-Friedrichs) finite-volume update."""
        rho, mx, my, en = self.rho, self.mx, self.my, self.energy
        p = self._pressure()
        u, v = mx / rho, my / rho
        c = np.sqrt(self.gamma * p / rho)
        smax = float((np.abs(u) + c).max() + (np.abs(v) + c).max()) + 1e-12
        dt = self.cfl * self.h / smax

        def flux_x(q, f):
            fl = 0.5 * (f + np.roll(f, -1, 0)) - 0.5 * smax * (np.roll(q, -1, 0) - q)
            return (fl - np.roll(fl, 1, 0)) / self.h

        def flux_y(q, f):
            fl = 0.5 * (f + np.roll(f, -1, 1)) - 0.5 * smax * (np.roll(q, -1, 1) - q)
            return (fl - np.roll(fl, 1, 1)) / self.h

        d_rho = flux_x(rho, mx) + flux_y(rho, my)
        d_mx = flux_x(mx, mx * u + p) + flux_y(mx, mx * v)
        d_my = flux_x(my, my * u) + flux_y(my, my * v + p)
        d_en = flux_x(en, (en + p) * u) + flux_y(en, (en + p) * v)
        self.rho = np.maximum(rho - dt * d_rho, 1e-8)
        self.mx = mx - dt * d_mx
        self.my = my - dt * d_my
        self.energy = np.maximum(en - dt * d_en, 1e-8)

    def total_mass(self) -> float:
        """Conserved total mass (diagnostic; constant up to flux rounding)."""
        return float(self.rho.sum() * self.h**2)

    def _raw_state(self) -> dict[str, np.ndarray]:
        return {"rho": self.rho, "mx": self.mx, "my": self.my, "energy": self.energy}

    def restore(self, state: dict[str, np.ndarray]) -> None:
        for name in ("rho", "mx", "my", "energy"):
            setattr(self, name, state[name].copy())


#: name -> proxy class, in the paper's Table 2 row order.
APP_REGISTRY: dict[str, type[MiniApp]] = {
    "CoMD": CoMDProxy,
    "HPCCG": HPCCGProxy,
    "miniFE": MiniFEProxy,
    "miniMD": MiniMDProxy,
    "miniSMAC2D": MiniSMAC2DProxy,
    "miniAero": MiniAeroProxy,
    "pHPCCG": PHPCCGProxy,
}


def make_app(name: str, seed: int = 0, precision_bits: float = 52.0, **kwargs: object) -> MiniApp:
    """Instantiate a registered proxy by its paper name."""
    try:
        cls = APP_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown mini-app {name!r}; one of {sorted(APP_REGISTRY)}") from None
    return cls(seed=seed, precision_bits=precision_bits, **kwargs)  # type: ignore[call-arg]
