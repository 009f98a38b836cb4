"""The GEMM-shaped Gibbs and SLD kernels against the formulas they replace.

The exponents of a block are one (P, n) @ (n, m^2) product, and
`gibbs_batch` forms rho as (U p) @ U^dagger and every a_k = tr(A_k rho) in
one (P, m^2) @ (m^2, n) product.  `_daleckii_krein` rotates all n
observables at all P points through one (n m, m) @ (m, P m) product and one
(n m, m) @ (m, m) product per point, and centres each rotated observable by
its p-weighted diagonal.  The reference below keeps the element-wise forms
(einsum exponent, einsum rho, einsum trace, broadcast U^dagger A U centred
by the batch's a) and is swapped into `geometry` in place of the spectral
core to give the metric, the quadratic-form gradient and the Kubo-Mori
Hessian along the old contractions, so the two routes differ only in how
they sum.  The geodesic step's own contractions keep their einsum forms
here too: `reference_form` is swapped in for the finisher `geometry._form`,
and the midpoint terms and the Sobolev direction are recomputed with
theirs.
"""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from thermogeom import geometry, gibbs, linalg, processes
from thermogeom.contact import legendrian_residual
from thermogeom.errors import ParameterRangeError, ThermoGeomError, ValidationError
from thermogeom.geometry import (
    _equilibrium_tangent,
    _phi,
    _quadratic_form_derivatives,
    injectivity_diagnostic,
    metric_grid,
    metric_tensor,
    state_derivatives,
)
from thermogeom.gibbs import (
    FamilyBatch,
    ObservableSet,
    _spectra,
    gibbs_batch,
    gibbs_point,
)
from thermogeom.linalg import _BLOCK_BYTES, HermitianOperator, _in_blocks
from thermogeom.processes import (
    GeodesicProblem,
    boundary_entropy_limit,
    discrete_path_energy,
    entropy_production,
    geodesic_between,
    straight_path,
    third_law_scan,
    thermo_length,
)

RTOL = 1e-13
DIMS = (2, 3, 4, 8, 16)
COUNTS = (1, 3, 8)
BATCHES = (1, 7, 256)


def reference_gibbs_batch(obs, lams):
    lams = np.asarray(lams, dtype=float)
    w, u = np.linalg.eigh(-np.einsum("pk,kij->pij", lams, obs._stack))
    shift = w[:, -1:]
    e = np.exp(w - shift)
    z_tilde = e.sum(axis=1)
    p = e / z_tilde[:, None]
    log_z = shift[:, 0] + np.log(z_tilde)
    rho = np.einsum("pik,pk,pjk->pij", u, p, u.conj())
    rho = (rho + rho.conj().swapaxes(1, 2)) / 2
    a = np.einsum("kij,pji->pk", obs._stack, rho).real
    logp = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return FamilyBatch(lams, log_z, w, p, u, a, -(p * logp).sum(axis=1))


def reference_daleckii_krein(obs, batch):
    x, p, u = batch.x, batch.p, batch.U
    f1 = np.maximum(p[:, :, None], p[:, None, :]) * _phi(np.abs(x[:, :, None] - x[:, None, :]))
    a_tilde = u.conj().swapaxes(1, 2)[:, None] @ obs._stack @ u[:, None]
    diag = np.arange(obs.dim)
    a_tilde[:, :, diag, diag] -= batch.a[:, :, None]
    return a_tilde, f1


def reference_metric_from_frame(a_tilde, weight):
    f = -a_tilde * weight[:, None]
    f = f.reshape(*f.shape[:2], -1)
    g = (f @ f.conj().swapaxes(1, 2)).real
    return (g + g.swapaxes(1, 2)) / 2


def reference_form(spectra, a_tilde, f1, v):
    """`geometry._form` with v . At and N as the einsums they replace."""
    p = spectra.p
    denom = p[:, :, None] + p[:, None, :]
    a_v = np.einsum("pi,piab->pab", v, a_tilde)
    sld = -2.0 * a_v * f1 / denom
    f2 = geometry._second_divided_differences(spectra, f1)
    n_ac = np.einsum("pab,pbc,pabc->pac", sld, a_v, f2)
    w = 4.0 * n_ac.swapaxes(1, 2) + f1 * (sld @ sld).swapaxes(1, 2)
    c = np.einsum("piab,pab->pi", a_tilde, w).real
    return geometry._metric_from_frame(a_tilde, f1 * np.sqrt(2.0 / denom)), c


def reference_midpoint_terms(obs, samples, dt):
    """`processes._midpoint_terms` with the segment energies dl . g dl as an einsum."""
    mids = 0.5 * (samples[:-1] + samples[1:])
    deltas = samples[1:] - samples[:-1]
    g, c = _quadratic_form_derivatives(obs, mids, deltas)
    gv = np.einsum("kij,kj->ki", g, deltas)
    energies = np.einsum("ki,ki->k", deltas, gv) / dt
    return energies, (2.0 * (gv[:-1] - gv[1:]) + 0.5 * (c[:-1] + c[1:])) / dt, g


def reference_sobolev_direction(g, grad, dt):
    """`processes._sobolev_direction` with sum_s g_s^+ F_s as an einsum."""
    g_inv = processes._pinv_symmetric(g)
    f = np.concatenate((np.zeros_like(grad[:1]), np.cumsum(0.5 * dt * grad, axis=0)))
    c = processes._pinv_symmetric(g_inv.sum(axis=0)) @ np.einsum("sij,sj->i", g_inv, f)
    return np.cumsum(np.einsum("sij,sj->si", g_inv[:-1], c - f[:-1]), axis=0)


def family(m, n, seed):
    """n seeded non-commuting observables of unit spectral norm on C^m."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(n):
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        a = a + a.conj().T
        mats.append(HermitianOperator(a / np.abs(np.linalg.eigvalsh(a)).max()))
    return ObservableSet(mats)


def real_family(m, n, seed):
    """n seeded non-commuting real symmetric observables of unit spectral norm: a real set."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(n):
        a = rng.normal(size=(m, m))
        a = a + a.T
        mats.append(HermitianOperator(a / np.abs(np.linalg.eigvalsh(a)).max()))
    return ObservableSet(mats)


def complex_twin(obs):
    """obs with its stack held complex, so that every kernel runs in complex arithmetic."""
    twin = ObservableSet(list(obs.observables), list(obs.names))
    object.__setattr__(twin, "_stack", linalg._freeze(obs._stack, complex))
    return twin


def block(n, size, seed):
    """size points whose exponent spectra spread by at most 4."""
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(size, n))
    return d * (rng.uniform(0.25, 2.0, size) / np.abs(d).sum(axis=1))[:, None]


def assert_close(actual, expected, rtol):
    scale = np.abs(expected).max()
    assert np.abs(actual - expected).max() <= rtol * scale


def eigh_stacks(monkeypatch):
    """The shapes of the stacks every later np.linalg.eigh call decomposes."""
    stacks = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        stacks.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return stacks


@pytest.fixture
def reference(monkeypatch):
    """Run a callable with the element-wise contractions swapped into geometry."""

    def run(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "_spectra", reference_gibbs_batch)
            patch.setattr(geometry, "_daleckii_krein", reference_daleckii_krein)
            patch.setattr(geometry, "_metric_from_frame", reference_metric_from_frame)
            return fn(*args)

    return run


@pytest.mark.parametrize("size", BATCHES)
@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("m", DIMS)
def test_gemm_kernels_match_the_element_wise_formulas(m, n, size, reference):
    obs = family(m, n, seed=1000 * m + n)
    lams = block(n, size, seed=size)
    new, ref = gibbs_batch(obs, lams), reference_gibbs_batch(obs, lams)
    for field in ("log_Z", "p", "a", "S"):
        assert_close(getattr(new, field), getattr(ref, field), RTOL)
    assert_close(metric_grid(obs, lams), reference(metric_grid, obs, lams), RTOL)
    v = np.random.default_rng(size).normal(size=(size, n))
    new_g, new_c = _quadratic_form_derivatives(obs, lams, v)
    ref_g, ref_c = reference(_quadratic_form_derivatives, obs, lams, v)
    assert_close(new_g, ref_g, RTOL)
    assert_close(new_c, ref_c, RTOL)
    for new, ref in zip(_equilibrium_tangent(obs, lams), reference(_equilibrium_tangent, obs, lams)):
        assert_close(new, ref, RTOL)


@pytest.mark.parametrize("kind", ["complex", "real"])
@pytest.mark.parametrize("m, n", [(2, 1), (2, 3), (4, 3), (8, 8)])
def test_geodesic_contractions_match_the_einsum_forms(m, n, kind, monkeypatch):
    # a path of as many midpoints as two blocks of the form derivatives hold
    obs = (family if kind == "complex" else real_family)(m, n, seed=10 * m + n)
    rows = _BLOCK_BYTES // max(obs._stack.itemsize * n * m * m, 8 * m**3)
    samples = block(n, rows + 2, seed=m + n)
    dt = 1.0 / (rows + 1)
    mids, deltas = 0.5 * (samples[:-1] + samples[1:]), samples[1:] - samples[:-1]
    stacks = eigh_stacks(monkeypatch)
    new_form = _quadratic_form_derivatives(obs, mids, deltas)
    assert [shape[0] for shape in stacks] == [rows, 1]
    new_terms = processes._midpoint_terms(obs, samples, dt)
    with monkeypatch.context() as patch:
        patch.setattr(geometry, "_form", reference_form)
        ref_form = _quadratic_form_derivatives(obs, mids, deltas)
        ref_terms = reference_midpoint_terms(obs, samples, dt)
    for got, expected in zip((*new_form, *new_terms), (*ref_form, *ref_terms), strict=True):
        assert got.shape == expected.shape
        assert_close(got, expected, RTOL)
    direction = processes._sobolev_direction(new_terms[2], new_terms[1], dt)
    expected = reference_sobolev_direction(ref_terms[2], ref_terms[1], dt)
    assert_close(direction, expected, RTOL)


@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("m", DIMS)
def test_single_point_is_the_batch_of_one(m, n):
    obs = family(m, n, seed=1000 * m + n)
    lams = block(n, 7, seed=m + n)
    grid = metric_grid(obs, lams)
    for row, lam in enumerate(lams):
        assert_close(metric_tensor(obs, lam).g, grid[row], 1e-14)


# each metric-path call with the number of points it decomposes
METRIC_PATH = {
    "metric_grid": (lambda obs, lams: metric_grid(obs, lams), 5),
    "quadratic_form_derivatives": (
        lambda obs, lams: _quadratic_form_derivatives(obs, lams, np.ones_like(lams)),
        5,
    ),
    "state_derivatives": (lambda obs, lams: state_derivatives(obs, lams[0]), 1),
    "equilibrium_tangent": (lambda obs, lams: _equilibrium_tangent(obs, lams), 5),
    "injectivity_diagnostic": (lambda obs, lams: injectivity_diagnostic(obs, lams[0]), 1),
}


@pytest.mark.parametrize("name", sorted(METRIC_PATH))
def test_the_metric_path_reads_only_the_spectra(name, monkeypatch):
    # one stacked eigh per call, and no rho or expectation product
    call, size = METRIC_PATH[name]
    obs = family(4, 3, seed=11)
    lams = block(3, 5, seed=11)

    def refused(*args, **kwargs):
        raise AssertionError("the metric path called gibbs_batch")

    stacks = eigh_stacks(monkeypatch)
    for module in (gibbs, geometry):
        monkeypatch.setattr(module, "gibbs_batch", refused, raising=False)
    call(obs, lams)
    assert stacks == [(size, 4, 4)]


@pytest.mark.parametrize("m", (2, 3, 8, 16))
def test_the_centring_value_is_the_expectation(m):
    # At_k = U^dagger A_k U - a_k: every diagonal entry of the rotation minus
    # that of At is the p-weighted diagonal, which must be tr(A_k rho)
    obs = family(m, 3, seed=m)
    lams = block(3, 7, seed=m)
    spectra = _spectra(obs, lams)
    a_tilde, _ = geometry._daleckii_krein(obs, spectra)
    u = spectra.U
    rotated = u.conj().swapaxes(1, 2)[:, None] @ obs._stack @ u[:, None]
    diag = np.arange(m)
    centring = (rotated - a_tilde)[:, :, diag, diag]
    expected = gibbs_batch(obs, lams).a
    for b in diag:
        assert_close(centring[..., b], expected, 1e-14)


def test_in_blocks_splits_rows_by_the_byte_budget():
    seen = []

    def kernel(lams, v):
        seen.append(len(lams))
        return lams.sum(axis=1), (lams * v)[:, :, None]

    lams = np.arange(30.0).reshape(10, 3)
    v = -lams
    # 10 rows at 1/4 of the budget each: blocks of 4, 4 and 2 rows
    total, product = _in_blocks(kernel, _BLOCK_BYTES // 4, lams, v)
    assert seen == [4, 4, 2]
    assert np.array_equal(total, lams.sum(axis=1))
    assert np.array_equal(product, (lams * v)[:, :, None])
    # a row past the budget is a block of its own
    seen.clear()
    total, _ = _in_blocks(kernel, 2 * _BLOCK_BYTES, lams, v)
    assert seen == [1] * 10 and np.array_equal(total, lams.sum(axis=1))
    # rows that fit in one block are the kernel's own call, with no copy
    result = (lams, v)
    assert _in_blocks(lambda *args: result, _BLOCK_BYTES // 10, lams, v) is result


# each batched layer as a call on (obs, lams), and the fields of its result
LAYERS = {
    "metric_grid": lambda obs, lams: (metric_grid(obs, lams),),
    "quadratic_form_derivatives": lambda obs, lams: _quadratic_form_derivatives(
        obs, lams, np.random.default_rng(3).normal(size=lams.shape)
    ),
    "gibbs_batch": lambda obs, lams: gibbs_batch(obs, lams)[1:],
    "equilibrium_tangent": lambda obs, lams: _equilibrium_tangent(obs, lams),
}


@pytest.mark.parametrize("name", sorted(LAYERS))
@pytest.mark.parametrize("m, n, size", [(16, 4, 256), (4, 3, 2000)])
def test_blocks_agree_with_the_one_block_evaluation(m, n, size, name, monkeypatch):
    obs = family(m, n, seed=m + n)
    lams = block(n, size, seed=size)
    stacks = eigh_stacks(monkeypatch)
    blocked = LAYERS[name](obs, lams)
    assert len(stacks) > 1 and sum(shape[0] for shape in stacks) == size
    stacks.clear()
    monkeypatch.setattr(linalg, "_BLOCK_BYTES", 1 << 40)
    whole = LAYERS[name](obs, lams)
    assert stacks == [(size, m, m)]
    for got, expected in zip(blocked, whole, strict=True):
        assert got.shape == expected.shape
        assert_close(got, expected, 1e-15)


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_the_guard_reads_every_block_before_the_first_runs(name, monkeypatch):
    # two rows past the guard in different blocks: the message names the
    # worse one, as for an unsplit call, and nothing is decomposed
    obs = family(4, 3, seed=5)
    lams = block(3, 2000, seed=5)
    lams[10, 0], lams[1900, 2] = 1500.0, -2500.0
    stacks = eigh_stacks(monkeypatch)
    with pytest.raises(ParameterRangeError) as raised:
        LAYERS[name](obs, lams)
    assert str(raised.value) == "|lambda| = 2500 exceeds the overflow guard 1000"
    assert stacks == []


# the tracemalloc peak of each layer, in block budgets past its result (the
# (P, n, n) metric or Hessian and the (P, n) gradient or dS/dlam), at most;
# measured at 3.4, 4.8 and 3.4
PEAK_BUDGETS = {"metric_grid": 4, "quadratic_form_derivatives": 6, "equilibrium_tangent": 4}


@pytest.mark.parametrize("name", sorted(PEAK_BUDGETS))
@pytest.mark.parametrize(
    "m, n, size", [(4, 3, 2000), (8, 8, 256), (16, 4, 256), (16, 4, 4096), (16, 32, 512)]
)
def test_peak_memory_is_bounded_by_the_block_budget(m, n, size, name):
    # whatever P: before the blocks the peak of metric_grid was about three
    # complex (P, n, m, m) arrays, about 190 MB at (16, 4, 4096)
    obs = family(m, n, seed=7)
    lams = block(n, size, seed=7)
    peak = traced_peak(LAYERS[name], obs, lams)
    assert peak <= PEAK_BUDGETS[name] * _BLOCK_BYTES + size * (n + 1) * n * 8


def traced_peak(call, *args):
    """The tracemalloc peak of call(*args) past what was held before it, after one warm-up call."""
    call(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# the rows of one block of a real (16, 4) set and of its complex twin: the
# rotated observables bound the metric's and the tangent's blocks, so a real
# block holds twice the rows; f2, real for both, bounds the quadratic form's
REAL_BLOCK_ROWS = {"metric_grid": (32, 16), "quadratic_form_derivatives": (8, 8), "equilibrium_tangent": (32, 16)}


@pytest.mark.parametrize("name", sorted(PEAK_BUDGETS))
def test_a_real_block_holds_more_rows_within_the_block_budget(name, monkeypatch):
    m, n, size = 16, 4, 4096
    obs = real_family(m, n, seed=7)
    lams = block(n, size, seed=7)
    peak = traced_peak(LAYERS[name], obs, lams)
    assert peak <= PEAK_BUDGETS[name] * _BLOCK_BYTES + size * (n + 1) * n * 8
    rows, stacks = [], eigh_stacks(monkeypatch)
    for each in (obs, complex_twin(obs)):
        stacks.clear()
        LAYERS[name](each, lams)
        assert sum(shape[0] for shape in stacks) == size
        rows.append(stacks[0][0])
    assert tuple(rows) == REAL_BLOCK_ROWS[name]


def test_a_set_with_no_imaginary_part_is_stored_real():
    sz, sx = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    tiny = np.array([[0.0, 1.0 - 1e-300j], [1.0 + 1e-300j, 0.0]])
    real, held = (ObservableSet([HermitianOperator(a) for a in ops]) for ops in ((sz, sx), (sz, tiny)))
    assert real._stack.dtype == np.float64
    assert ObservableSet([HermitianOperator(sz), HermitianOperator(sy)])._stack.dtype == np.complex128
    assert held._stack.dtype == np.complex128
    # the public dtypes stay complex; only the batch's eigenvectors follow the set
    lam = [0.3, -0.7]
    point = gibbs_point(real, lam)
    assert point.rho.matrix.dtype == point.rho.eigenvectors.dtype == np.complex128
    assert all(d.matrix.dtype == np.complex128 for d in state_derivatives(real, lam))
    assert all(op.matrix.dtype == np.complex128 for op in real.observables)
    assert gibbs_batch(real, [lam]).U.dtype == np.float64
    assert gibbs_batch(held, [lam]).U.dtype == np.complex128


@pytest.mark.parametrize("m, n", [(2, 2), (4, 3), (8, 8), (16, 4)])
def test_a_real_set_agrees_with_its_complex_twin(m, n):
    obs = real_family(m, n, seed=100 * m + n)
    twin = complex_twin(obs)
    # enough points for two blocks of the layer with the most rows per block
    size = _BLOCK_BYTES // (8 * m * m) + 1
    lams = block(n, size, seed=m)
    v = np.random.default_rng(m).normal(size=lams.shape)
    lam, d = lams[0], np.full(n, n**-0.5)
    layers = {
        "gibbs_batch": lambda o: [getattr(gibbs_batch(o, lams), f) for f in ("log_Z", "p", "a", "S")],
        "metric_grid": lambda o: [metric_grid(o, lams)],
        "quadratic_form_derivatives": lambda o: _quadratic_form_derivatives(o, lams, v),
        "equilibrium_tangent": lambda o: _equilibrium_tangent(o, lams),
        "injectivity_diagnostic": lambda o: injectivity_diagnostic(o, lam),
        "state_derivatives": lambda o: [np.array([a.matrix for a in state_derivatives(o, lam)])],
        "third_law_scan": lambda o: [third_law_scan(o, d, [1.0, 2.0]).lengths],
    }
    for name, call in layers.items():
        for got, expected in zip(call(obs), call(twin), strict=True):
            assert np.shape(got) == np.shape(expected), name
            assert_close(got, expected, 1e-13)


def test_in_blocks_names_the_first_row_that_is_not_finite():
    def kernel(lams):
        return lams.sum(axis=1), np.exp(lams[:, 1:] * 1e3)

    lams = np.zeros((10, 2))
    lams[[6, 8], 1] = 1.0
    # rows 6 and 8 overflow the second field, in the second and third blocks
    with pytest.raises(ParameterRangeError, match=r"overflows at lambda = \[0\.0, 1\.0\]$"):
        _in_blocks(kernel, _BLOCK_BYTES // 4, lams)
    # an exact limit, exp(-inf) = 0, is no failure
    total, e = _in_blocks(kernel, _BLOCK_BYTES // 4, -1e306 * lams)
    assert np.array_equal(total, -1e306 * lams.sum(axis=1)) and not e[[6, 8]].any()


def _path(end):
    return straight_path(np.zeros_like(end), end, steps=8)


def _unit(end):
    return np.full(end.size, end.size**-0.5)


def _gibbs_point_fields(obs, end):
    point = gibbs_point(obs, 0 * end)
    return point.log_Z, point.rho.matrix, point.a, point.S


def _geodesic_fields(obs, end):
    path, report, _ = geodesic_between(obs, GeodesicProblem(0 * end, end, interior_points=7))
    return path.samples, report.segment_energies


# every Gibbs-family layer as a call on (obs, end): at lam = 0 or along the
# segment from 0 to end, |end_i| = min(1, 1 / s), so every state on it is
# mixed and the variance s^2 of s sz leaves the double range past s = 1.3e154
SCALED_LAYERS = {
    "gibbs_batch": lambda obs, end: gibbs_batch(obs, np.outer([0.0, 0.5, 1.0], end))[1:],
    "gibbs_point": _gibbs_point_fields,
    "metric_grid": lambda obs, end: metric_grid(obs, np.outer([0.0, 1.0], end)),
    "metric_tensor": lambda obs, end: metric_tensor(obs, 0 * end).g,
    "state_derivatives": lambda obs, end: [d.matrix for d in state_derivatives(obs, end)],
    "injectivity_diagnostic": lambda obs, end: injectivity_diagnostic(obs, 0 * end)[0],
    "legendrian_residual": lambda obs, end: legendrian_residual(obs, np.outer([0.0, 1.0], end)),
    "thermo_length": lambda obs, end: thermo_length(obs, _path(end)).segment_lengths,
    "entropy_production": lambda obs, end: entropy_production(obs, _path(end))[0],
    "discrete_path_energy": lambda obs, end: discrete_path_energy(obs, _path(end).samples, 1.0),
    "geodesic_between": _geodesic_fields,
    "third_law_scan": lambda obs, end: third_law_scan(obs, _unit(end), [1.0, 2.0]).lengths,
    "boundary_entropy_limit": lambda obs, end: boundary_entropy_limit(
        obs, _unit(end), [0.0, 1.0, 400.0]
    ).entropies,
}
SCALES = (1e-300, 1e-150, 1.0, 1e150, 1e200, 1e300)
# the layers whose numbers at s = 1e300 are no doubles, by the variance at lam = 0
NAMED_AT_1E300 = (
    "metric_grid",
    "metric_tensor",
    "injectivity_diagnostic",
    "legendrian_residual",
    "third_law_scan",
)


# the partner of s sz: none and sx run in real arithmetic, sy in complex
PARTNERS = {
    "s-sz": [],
    "s-sz-sx": [np.array([[0.0, 1.0], [1.0, 0.0]])],
    "s-sz-sy": [np.array([[0.0, -1j], [1j, 0.0]])],
}


def _scaled_family(scale, partner):
    return ObservableSet([HermitianOperator(a) for a in [scale * np.diag([1.0, -1.0]), *partner]])


@pytest.mark.parametrize("partner", PARTNERS.values(), ids=PARTNERS)
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", sorted(SCALED_LAYERS))
def test_every_layer_is_finite_or_names_its_failure(name, scale, partner):
    obs = _scaled_family(scale, partner)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = SCALED_LAYERS[name](obs, np.full(obs.n, min(1.0, 1 / scale)))
        except ThermoGeomError as exc:
            assert not isinstance(exc, ValidationError), exc
            assert scale != 1.0, exc
            if scale == 1e300 and name in NAMED_AT_1E300:
                assert re.search(r"lambda = \[", str(exc)), exc
            return
    assert not (scale == 1e300 and name in NAMED_AT_1E300)
    for field in result if isinstance(result, (tuple, list)) else (result,):
        assert np.isfinite(field).all()


# the three GEMM layers of s sz at lam = 0, each s^2 there
SQUARED_LAYERS = {
    "metric_grid": lambda obs, lams: metric_grid(obs, lams)[0, 0, 0],
    "injectivity_diagnostic": lambda obs, lams: injectivity_diagnostic(obs, lams[0])[0][0, 0],
    "equilibrium_tangent": lambda obs, lams: _equilibrium_tangent(obs, lams)[1][0, 0, 0],
}


@pytest.mark.parametrize("scale", (1e154, 1.3e154))
@pytest.mark.parametrize("name", sorted(SQUARED_LAYERS))
def test_a_metric_just_inside_the_double_range_is_returned(name, scale):
    # s^2 is a finite double up to s = 1.34e154; a symmetrization that summed
    # before halving overflowed past s = 9.5e153, and so did the first law
    obs, lams = _scaled_family(scale, []), np.zeros((1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = SQUARED_LAYERS[name](obs, lams)
        assert legendrian_residual(obs, lams) == 0.0
    assert abs(value - scale**2) <= 1e-15 * scale**2
