"""The seven mini-app proxy kernels: physics sanity, restore fidelity."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.workloads import calibrated_app
from repro.workloads.base import deserialize_state, serialize_state
from repro.workloads.miniapps import (
    APP_REGISTRY,
    CoMDProxy,
    HPCCGProxy,
    MiniAeroProxy,
    MiniFEProxy,
    MiniSMAC2DProxy,
    PHPCCGProxy,
    _StencilCG,
    make_app,
)

SMALL_KW = {
    "CoMD": {"n_atoms": 125},
    "miniMD": {"n_atoms": 125},
    "HPCCG": {"grid": 10},
    "pHPCCG": {"grid": 10},
    "miniFE": {"grid": 10},
    "miniSMAC2D": {"grid": 32},
    "miniAero": {"grid": 32},
}


def small(name, seed=0, **kw):
    return make_app(name, seed=seed, **{**SMALL_KW[name], **kw})


class TestRegistry:
    def test_covers_paper_apps(self):
        assert set(APP_REGISTRY) == {
            "CoMD",
            "HPCCG",
            "miniFE",
            "miniMD",
            "miniSMAC2D",
            "miniAero",
            "pHPCCG",
        }

    def test_unknown_app(self):
        with pytest.raises(KeyError):
            make_app("LAMMPS")

    @pytest.mark.parametrize("name", sorted(APP_REGISTRY))
    def test_name_attribute_matches_key(self, name):
        assert small(name).name == name


class TestStepping:
    @pytest.mark.parametrize("name", sorted(APP_REGISTRY))
    def test_steps_change_state_and_stay_finite(self, name):
        app = small(name)
        before = {k: v.copy() for k, v in app.state().items()}
        app.run(3)
        after = app.state()
        assert any(
            not np.array_equal(before[k], after[k]) for k in before
        ), f"{name} state did not evolve"
        for k, v in after.items():
            if np.issubdtype(v.dtype, np.floating):
                assert np.isfinite(v).all(), f"{name}.{k} went non-finite"

    @pytest.mark.parametrize("name", sorted(APP_REGISTRY))
    def test_deterministic_given_seed(self, name):
        a, b = small(name, seed=3), small(name, seed=3)
        a.run(3)
        b.run(3)
        for k, v in a.state().items():
            assert np.array_equal(v, b.state()[k])

    @pytest.mark.parametrize("name", sorted(APP_REGISTRY))
    def test_different_seeds_differ(self, name):
        a, b = small(name, seed=1), small(name, seed=2)
        assert any(
            not np.array_equal(a.state()[k], b.state()[k]) for k in a.state()
        )


class TestRestore:
    @pytest.mark.parametrize("name", sorted(APP_REGISTRY))
    def test_restore_resumes_identically(self, name):
        """Checkpoint, keep running, restore, re-run: trajectories match."""
        app = small(name, seed=5)
        app.run(2)
        snapshot = deserialize_state(app.checkpoint_bytes())
        app.run(3)
        after_direct = {k: v.copy() for k, v in app._raw_state().items()}

        # RNG state is part of what a real checkpoint captures; proxies
        # only draw randomness at init (and CG restart perturbations), so
        # restoring arrays suffices for these step counts.
        app.restore(snapshot)
        app.run(3)
        after_restored = app._raw_state()
        for k in after_direct:
            assert np.allclose(
                after_direct[k], after_restored[k], equal_nan=True
            ), f"{name}.{k} diverged after restore"

    def test_restore_rejects_unknown_array(self):
        app = small("CoMD")
        with pytest.raises(KeyError):
            app.restore({"bogus": np.zeros(3)})

    def test_restore_rejects_shape_mismatch(self):
        app = small("CoMD")
        with pytest.raises(ValueError):
            app.restore({"positions": np.zeros((1, 3))})


class TestPhysics:
    def test_md_momentum_near_zero(self):
        app = CoMDProxy(n_atoms=125, seed=0)
        app.run(5)
        momentum = app.vel.sum(axis=0)
        assert np.abs(momentum).max() < 1e-8 * app.n

    def test_md_positions_stay_in_box(self):
        app = CoMDProxy(n_atoms=125, seed=0)
        app.run(10)
        assert (app.pos >= 0).all() and (app.pos < app.box).all()

    def test_cg_residual_decreases(self):
        app = HPCCGProxy(grid=10, seed=0)
        r0 = app.residual_norm()
        app.run(10)
        assert app.residual_norm() < r0

    def test_smac_divergence_bounded(self):
        app = MiniSMAC2DProxy(grid=32, seed=0)
        app.run(10)
        assert app.max_divergence() < 50.0  # Jacobi projection is approximate

    def test_aero_mass_conserved(self):
        app = MiniAeroProxy(grid=32, seed=0)
        m0 = app.total_mass()
        app.run(20)
        assert app.total_mass() == pytest.approx(m0, rel=1e-6)

    def test_aero_density_positive(self):
        app = MiniAeroProxy(grid=32, seed=0)
        app.run(20)
        assert (app.rho > 0).all()

    def test_minimd_has_types(self):
        app = small("miniMD")
        assert app.state()["types"].dtype == np.int32

    def test_md_energy_conserved_with_small_dt(self):
        app = CoMDProxy(n_atoms=125, seed=2)
        app.dt = 0.0005  # small step: Verlet drift negligible
        e0 = app.total_energy()
        app.run(40)
        drift = abs(app.total_energy() - e0) / max(abs(e0), 1.0)
        assert drift < 0.01

    def test_md_potential_negative_in_bound_state(self):
        app = CoMDProxy(n_atoms=125, seed=2)
        app.run(5)
        assert app.potential_energy() < 0.0


class TestPrecisionKnob:
    def test_lower_precision_more_compressible(self):
        import zlib

        full = small("miniSMAC2D", precision_bits=52.0)
        coarse = small("miniSMAC2D", precision_bits=4.0)
        full.run(3)
        coarse.run(3)
        f_full = len(zlib.compress(full.checkpoint_bytes(), 1))
        f_coarse = len(zlib.compress(coarse.checkpoint_bytes(), 1))
        assert f_coarse < f_full

    def test_checkpoint_size_independent_of_precision(self):
        a = small("HPCCG", precision_bits=52.0)
        b = small("HPCCG", precision_bits=2.0)
        assert len(a.checkpoint_bytes()) == len(b.checkpoint_bytes())


def reference_quantize(a, keep_bits):
    """The original per-call mask construction of ``quantize_mantissa``."""
    k = int(keep_bits)
    frac = keep_bits - k
    bits = a.ravel().view(np.uint64).copy()
    mask_lo = np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(52 - k)
    if frac > 0 and k < 52:
        mask_hi = np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(52 - (k + 1))
        extra = (np.arange(bits.size) * 2654435761 % 2**32) < frac * 2**32
        bits[extra] &= mask_hi
        bits[~extra] &= mask_lo
    else:
        bits &= mask_lo
    return bits.view(np.float64).reshape(a.shape)


def reference_layout(state):
    """The original ``serialize_state``: ``tobytes`` per array, one join."""
    parts = [b"RPST", struct.pack("<I", len(state))]
    for name, arr in state.items():
        arr = np.ascontiguousarray(arr)
        name_b = name.encode("utf-8")
        dtype_b = arr.dtype.str.encode("ascii")
        raw = arr.tobytes()
        parts += [
            struct.pack("<H", len(name_b)), name_b,
            struct.pack("<H", len(dtype_b)), dtype_b,
            struct.pack("<B", arr.ndim), struct.pack(f"<{arr.ndim}q", *arr.shape),
            struct.pack("<Q", len(raw)), raw,
        ]
    return b"".join(parts)


class TestCheckpointLayout:
    """Checkpoint bytes keep the original filter and layout, bit for bit."""

    @pytest.mark.parametrize("precision", [52.0, 11.3, 6.0])
    @pytest.mark.parametrize("name", sorted(APP_REGISTRY))
    def test_checkpoint_bytes_match_reference(self, name, precision):
        app = small(name, precision_bits=precision)
        app.run(3)
        state = {
            k: reference_quantize(v, precision)
            if v.dtype == np.float64 and precision < 52.0 else v
            for k, v in app._raw_state().items()
        }
        assert app.checkpoint_bytes() == reference_layout(state)

    def test_serialize_state_edge_arrays(self, rng):
        base = rng.standard_normal((6, 5))
        state = {
            "big_endian": base.astype(">f8"),
            "big_endian_int": np.arange(7, dtype=">i4"),
            "zero_d": np.array(2.5),
            "empty": np.zeros((0, 3)),
            "strided": base[::2, ::2],
            "transposed": base.T,
            "flags": np.array([True, False]),
        }
        blob = serialize_state(state)
        assert blob == reference_layout(state)
        back = deserialize_state(blob)
        assert list(back) == list(state)
        for k, v in state.items():
            assert back[k].dtype == v.dtype
            assert np.array_equal(back[k].reshape(-1), v.reshape(-1))


def reference_matvec(v, diag_weight, offdiag_weight=1.0):
    """The original ``_StencilCG._matvec``: 26 ``np.roll`` neighbour copies."""
    acc = np.zeros_like(v)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                acc += np.roll(np.roll(np.roll(v, dx, 0), dy, 1), dz, 2)
    return diag_weight * v - offdiag_weight * acc / 26.0


#: Finite doubles plus the values whose bits a reordered or copied sum
#: could change: signed zeros, NaN, infinities and subnormals.
STENCIL_VALUES = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from(
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.5e-320, 2.2250738585072e-308]
    ),
)


#: Every 3-D shape up to 9 per axis; 1- and 2-wide axes wrap onto themselves.
STENCIL_SHAPES = hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=9)


def stencil_fields(shape=STENCIL_SHAPES):
    return hnp.arrays(np.float64, shape, elements=STENCIL_VALUES)


def assert_same_bits(got, want):
    """Bit-equal ``uint64`` views, except that a NaN matches any NaN.

    Which operand's sign and payload ``a + b`` keeps when both are NaN
    differs between numpy's SIMD body and its scalar tail:
    ``np.full(19, nan) + np.full(19, -nan)`` keeps the first sign in 16
    lanes and the second in 3.  So the roll loop itself gives such a sum
    a sign that depends on the array's size, not on the stencil.
    """
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got.view(np.uint64)[~nan], want.view(np.uint64)[~nan])


class TestStencilMatchesRollReference:
    """The padded-view stencil gives the roll loop's bits on any field."""

    @given(v=stencil_fields(), proxy=st.sampled_from([HPCCGProxy, PHPCCGProxy]))
    @example(v=np.random.default_rng(1).standard_normal((1, 1, 1)), proxy=HPCCGProxy)
    @example(v=np.random.default_rng(2).standard_normal((2, 2, 2)), proxy=HPCCGProxy)
    @example(v=np.random.default_rng(3).standard_normal((1, 2, 9)), proxy=PHPCCGProxy)
    @example(v=np.random.default_rng(4).standard_normal((9, 1, 2)), proxy=PHPCCGProxy)
    @example(v=np.random.default_rng(5).standard_normal((9, 8, 7)), proxy=HPCCGProxy)
    @settings(max_examples=150, deadline=None)
    def test_matvec_bits(self, v, proxy):
        app = proxy(grid=2)
        with np.errstate(all="ignore"):
            got = app._matvec(v)
            want = reference_matvec(v, proxy.diag_weight)
        assert_same_bits(got, want)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_minife_coeff_product_bits(self, data):
        v = data.draw(stencil_fields())
        coeff = data.draw(stencil_fields(v.shape))
        app = MiniFEProxy(grid=2)
        app.coeff = coeff
        with np.errstate(all="ignore"):
            got = app._matvec(v)
            want = coeff * reference_matvec(v, MiniFEProxy.diag_weight)
        assert_same_bits(got, want)


def cg_trajectory(name, steps=10):
    """``(sha256 of checkpoint_bytes(), _rs)`` after each CG step."""
    app = calibrated_app(name, seed=5)
    out = []
    for _ in range(steps):
        app.step()
        out.append((hashlib.sha256(app.checkpoint_bytes()).hexdigest(), app._rs))
    return out


@pytest.mark.parametrize("name", ["HPCCG", "pHPCCG", "miniFE"])
def test_cg_trajectory_matches_roll_reference(name, monkeypatch):
    # Calibrated precision, default grid: the checkpoints the paper's
    # tables and the C/R runtime see are the roll loop's, step for step.
    got = cg_trajectory(name)
    with monkeypatch.context() as m:
        m.setattr(
            _StencilCG,
            "_matvec",
            lambda self, v: reference_matvec(v, self.diag_weight, self.offdiag_weight),
        )
        want = cg_trajectory(name)
    assert got == want


#: Runs HPCCG and miniFE at their default grids (large enough for
#: OpenBLAS to split a dot product across threads) and prints each
#: step's ``_rs`` in hex, then a digest of the final checkpoint bytes.
_CG_TRAJECTORY = """
import hashlib
from repro.workloads.miniapps import make_app
for name in ("HPCCG", "miniFE"):
    app = make_app(name, seed=3)
    for _ in range(20):
        app.run(1)
        print(name, float(app._rs).hex())
    print(name, hashlib.sha256(app.checkpoint_bytes()).hexdigest())
"""


def test_cg_trajectory_does_not_depend_on_blas_threads():
    # The CG inner products sum on the calling thread: the residual
    # sequence and the checkpoint bytes cannot change with the size of
    # a BLAS thread pool.
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _CG_TRAJECTORY],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
            check=True, capture_output=True, text=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert len(outputs[0].splitlines()) == 42
    assert outputs[0] == outputs[1]
