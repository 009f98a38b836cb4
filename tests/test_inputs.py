"""Bad input to every library entry point that takes a number, a vector, a count or a block.

Each table maps "entry point.argument" to a call that puts a value in that
argument, with every other argument valid.  Each kind of input has one
list of bad values, and every one of them must raise `ValidationError`:
numbers are finite, a bool is not a number, vectors have their length and
blocks of points their shape and number of rows (`thermogeom.inputs`).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from thermogeom import (
    ConnectionSpec,
    DensityOperator,
    GeodesicProblem,
    HermitianOperator,
    MetricTensor,
    MMetricSpec,
    MuExtension,
    ObservableSet,
    ParamPath,
    TangentVector,
    ThermoPoint,
    boundary_entropy_limit,
    contact_volume_coefficient,
    discrete_path_energy,
    entropy_production,
    equilibrium_point,
    expectation_consistency,
    fiber_membership,
    flatness_check,
    gauge_translate,
    gibbs_point,
    injectivity_diagnostic,
    legendrian_residual,
    metric_grid,
    metric_tensor,
    rectangle_loop,
    segment_speed_profile,
    state_derivatives,
    straight_path,
    third_law_scan,
)
from thermogeom.connection import curvature, holonomy_via_curvature
from thermogeom.contact import fiber_path_length, wedge_top_coefficient
from thermogeom.errors import ValidationError
from thermogeom.exprlang import parse
from thermogeom.gibbs import gibbs_batch
from thermogeom.inputs import MAX_COUNT, number, points, vector

QUBIT = ObservableSet([HermitianOperator(np.diag([1.0, -1.0]))])
PAULI_ZX = ObservableSet([HermitianOperator(np.diag([1.0, -1.0])), HermitianOperator([[0.0, 1.0], [1.0, 0.0]])])
SPEC = ConnectionSpec.parsed("1", ["0", "l1"], 2)
SPEC_1 = ConnectionSpec.parsed("1", ["0"], 1)
MU = MuExtension.zero(1)
POINT = ThermoPoint(0.0, [0.0], [0.0])
PATH = straight_path([0.0], [1.0], steps=8)
M_SPEC_1 = MMetricSpec.parsed("1", ["1"], ["0"], 1)
M_SPEC_2 = MMetricSpec.parsed("1", ["1", "1"], ["0", "0"], 2)
# eta and d eta of the n = 1 contact form at lam = 0
ALPHA_1 = np.array([1.0, 0.0, 0.0])
BETA_1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])

NUMBERS = {
    "ThermoPoint.S": lambda x: ThermoPoint(x, [0.0], [0.0]),
    "TangentVector.dS": lambda x: TangentVector(x, [0.0], [0.0]),
    "gauge_translate.dS": lambda x: gauge_translate(POINT, x, [0.0]),
}

# argument -> (its number of components, a call with that argument)
VECTORS = {
    "straight_path.lam_a": (1, lambda v: straight_path(v, [1.0])),
    "straight_path.lam_b": (1, lambda v: straight_path([0.0], v)),
    "GeodesicProblem.start": (1, lambda v: GeodesicProblem(v, [1.0])),
    "GeodesicProblem.end": (1, lambda v: GeodesicProblem([0.0], v)),
    "third_law_scan.direction": (1, lambda v: third_law_scan(QUBIT, v, [1.0], steps=8)),
    "boundary_entropy_limit.direction": (1, lambda v: boundary_entropy_limit(QUBIT, v, [1.0])),
    "rectangle_loop.lo": (2, lambda v: rectangle_loop(v, [1.0, 1.0])),
    "rectangle_loop.hi": (2, lambda v: rectangle_loop([0.0, 0.0], v)),
    "rectangle_loop.base": (3, lambda v: rectangle_loop([0.0, 0.0], [1.0, 1.0], n=3, base=v)),
    "holonomy_via_curvature.lo": (2, lambda v: holonomy_via_curvature(SPEC, v, [1.0, 1.0], grid=(4, 4))),
    "holonomy_via_curvature.hi": (2, lambda v: holonomy_via_curvature(SPEC, [0.0, 0.0], v, grid=(4, 4))),
    "holonomy_via_curvature.base": (
        2, lambda v: holonomy_via_curvature(SPEC, [0.0, 0.0], [1.0, 1.0], grid=(4, 4), base=v)
    ),
    "curvature.lam": (2, lambda v: curvature(SPEC, v, 0, 1)),
    "wedge_top_coefficient.one_form": (3, lambda v: wedge_top_coefficient(v, BETA_1, 1)),
    "ConnectionSpec.gamma.lam": (2, SPEC.gamma),
    "MMetricSpec.evaluate.lam": (2, lambda v: M_SPEC_2.evaluate(v)),
    "ThermoPoint.a": (1, lambda v: ThermoPoint(0.0, v, [0.0])),
    "ThermoPoint.lam": (1, lambda v: ThermoPoint(0.0, [0.0], v)),
    "TangentVector.da": (1, lambda v: TangentVector(0.0, v, [0.0])),
    "TangentVector.dlam": (1, lambda v: TangentVector(0.0, [0.0], v)),
    "fiber_membership.c": (1, lambda v: fiber_membership(QUBIT, MU, POINT, v)),
    "gauge_translate.da": (1, lambda v: gauge_translate(POINT, 0.0, v)),
    "equilibrium_point.c": (1, lambda v: equilibrium_point(QUBIT, v)),
    "gibbs_point.lam": (1, lambda v: gibbs_point(QUBIT, v)),
    "metric_tensor.lam": (1, lambda v: metric_tensor(QUBIT, v)),
    "expectation_consistency.lam": (1, lambda v: expectation_consistency(QUBIT, v)),
    "injectivity_diagnostic.lam": (1, lambda v: injectivity_diagnostic(QUBIT, v)),
    # an empty lam comes with the 0 x 0 metric of its size
    "MetricTensor.lam": (1, lambda v: MetricTensor(v, np.zeros((0, 0)) if v == [] else [[1.0]])),
}

POSITIVES = {
    "ParamPath.duration": lambda x: ParamPath(x, np.zeros((9, 1))),
    "straight_path.duration": lambda x: straight_path([0.0], [1.0], steps=8, duration=x),
    "entropy_production.kappa": lambda x: entropy_production(QUBIT, PATH, x),
    "GeodesicProblem.duration": lambda x: GeodesicProblem([0.0], [1.0], duration=x),
    "GeodesicProblem.tolerance": lambda x: GeodesicProblem([0.0], [1.0], tolerance=x),
    "discrete_path_energy.duration": lambda x: discrete_path_energy(QUBIT, PATH.samples, x),
    "segment_speed_profile.duration": lambda x: segment_speed_profile(QUBIT, PATH.samples, x),
    "flatness_check.tol": lambda x: flatness_check(SPEC, [[0.0, 0.0]], x),
    "fiber_membership.tol": lambda x: fiber_membership(QUBIT, MU, POINT, [0.0], x),
}

# argument -> (a valid count, a call with that argument)
COUNTS = {
    "straight_path.steps": (8, lambda c: straight_path([0.0], [1.0], steps=c)),
    "GeodesicProblem.interior_points": (8, lambda c: GeodesicProblem([0.0], [1.0], interior_points=c)),
    "GeodesicProblem.max_iters": (8, lambda c: GeodesicProblem([0.0], [1.0], max_iters=c)),
    "third_law_scan.steps": (8, lambda c: third_law_scan(QUBIT, [1.0], [1.0], steps=c)),
    "rectangle_loop.steps": (8, lambda c: rectangle_loop([0.0, 0.0], [1.0, 1.0], steps=c)),
    "rectangle_loop.k": (0, lambda c: rectangle_loop([0.0, 0.0], [1.0, 1.0], c, 1, n=2)),
    "holonomy_via_curvature.l": (
        1, lambda c: holonomy_via_curvature(SPEC, [0, 0], [1, 1], 0, c, grid=(4, 4))
    ),
    "curvature.k": (0, lambda c: curvature(SPEC, [0.0, 0.0], c, 1)),
    "holonomy_via_curvature.grid[0]": (
        4, lambda c: holonomy_via_curvature(SPEC, [0, 0], [1, 1], grid=(c, 4))
    ),
    "ConnectionSpec.n": (1, lambda c: ConnectionSpec(c, SPEC_1.program)),
    "ConnectionSpec.parsed.n": (1, lambda c: ConnectionSpec.parsed("1", ["0"], c)),
    "MMetricSpec.n": (1, lambda c: MMetricSpec(c, M_SPEC_1.program)),
    "MMetricSpec.parsed.n": (1, lambda c: MMetricSpec.parsed("1", ["1"], ["0"], c)),
    "MuExtension.n": (1, lambda c: MuExtension(c, MU.program)),
    "MuExtension.zero.n": (1, MuExtension.zero),
    "contact_volume_coefficient.n": (1, contact_volume_coefficient),
    "wedge_top_coefficient.n": (1, lambda c: wedge_top_coefficient(ALPHA_1, BETA_1, c)),
}

# argument -> (width or None for any, fewest rows, a rank it refuses, a call with that argument)
BLOCKS = {
    "gibbs_batch.lams": (1, 0, 1, lambda b: gibbs_batch(QUBIT, b)),
    "metric_grid.lams": (1, 0, 1, lambda b: metric_grid(QUBIT, b)),
    "ParamPath.samples": (None, 9, 1, lambda b: ParamPath(1.0, b)),
    "discrete_path_energy.samples": (1, 2, 1, lambda b: discrete_path_energy(QUBIT, b, 1.0)),
    "segment_speed_profile.samples": (1, 2, 1, lambda b: segment_speed_profile(QUBIT, b, 1.0)),
    "curvature.lam": (2, 0, 3, lambda b: curvature(SPEC, b, 0, 1)),
    "ConnectionSpec.gamma.lam": (2, 0, 0, SPEC.gamma),
    "flatness_check.grid_points": (2, 1, 1, lambda b: flatness_check(SPEC, b)),
    "legendrian_residual.lambda_grid": (1, 1, 1, lambda b: legendrian_residual(QUBIT, b)),
    "MetricTensor.g": (1, 1, 1, lambda b: MetricTensor([0.0], b)),
    "wedge_top_coefficient.two_form": (3, 3, 1, lambda b: wedge_top_coefficient(ALPHA_1, b, 1)),
}

# argument -> (its number of expressions, a call with that list of expression texts)
EXPRESSION_LISTS = {
    "ConnectionSpec.parsed.h": (2, lambda t: ConnectionSpec.parsed("1", t, 2)),
    "MMetricSpec.parsed.g_a": (2, lambda t: MMetricSpec.parsed("1", t, ["0", "0"], 2)),
    "MMetricSpec.parsed.h": (2, lambda t: MMetricSpec.parsed("1", ["1", "1"], t, 2)),
    "MuExtension.validated.texts": (1, lambda t: MuExtension.validated(t, QUBIT)),
}


def _bad_vectors(n):
    yield "nan", [math.nan] + [0.0] * (n - 1)
    yield "inf", [0.0] * (n - 1) + [math.inf]
    yield "-inf", [-math.inf] + [0.0] * (n - 1)
    yield "bool", [True] + [False] * (n - 1)
    if n > 1:
        # numpy would read the list as floats
        yield "mixed bool", [0.5] * (n - 1) + [True]
    yield "length", [1.0] + [0.0] * n
    yield "empty", []
    # the valid vector of `test_the_valid_calls_pass`, in a shape that is not flat
    valid = [1.0] + [0.0] * (n - 1)
    yield "nested", [valid]
    yield "ragged", [valid, valid + [0.0]]
    if n == 1:
        yield "scalar", 1.0
    # numpy holds an int past the 64-bit range as an object: read as a float,
    # it is infinite here, and an object entry that is no real number is refused
    yield "int past the float range", [-(10**400)] + [0.0] * (n - 1)
    yield "None", [None] + [0.0] * (n - 1)
    yield "str among big ints", [2**70] * (n - 1) + ["1"]
    yield "bool among big ints", [2**70] * (n - 1) + [True]


def _valid_block(n, floor):
    return np.zeros((max(floor, 1), n or 1))


def _bad_blocks(n, floor, rank):
    good = _valid_block(n, floor)
    for case, value in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)):
        block = good.copy()
        block[-1, -1] = value
        yield case, block
    yield "bool", good.astype(bool)
    if good.size > 1:
        rows = good.tolist()
        rows[-1][-1] = True
        yield "mixed bool", rows
    yield "string", good.astype(str)
    if n is not None:
        yield "width", np.zeros((good.shape[0], n + 1))
    yield f"rank {rank}", np.zeros((1,) * (rank - 1) + good.shape[1:] if rank else ())
    if floor:
        yield "rows", good[1:]
    yield "ragged", good.tolist() + [[0.0] * (good.shape[1] + 1)]
    rows = good.tolist()
    rows[-1][-1] = 10**400
    yield "int past the float range", rows
    rows = good.tolist()
    rows[-1][-1] = None
    yield "None", rows


BAD_NUMBERS = [math.nan, math.inf, -math.inf, True, "1.0", None]
BAD_POSITIVES = [math.nan, math.inf, -math.inf, True, 0.0, -1.0, "1.0", None]
BAD_COUNTS = [math.nan, math.inf, True, 2.5, -1, MAX_COUNT + 1, "4", None]
BAD_EXPRESSIONS = [1, 0, None, b"l1", ["l1"]]
BAD_MATRICES = {"bool": [[True]], "ragged": [[1.0, 0.0], [0.0]], "string": [["1"]], "object": [[1.0, None]]}


# these take a batch of points too, shape (..., n), so a nested list is one
TAKES_BATCHES = {"curvature.lam", "ConnectionSpec.gamma.lam"}


@pytest.mark.parametrize(
    "arg, case",
    [
        (arg, case)
        for arg, (n, _) in VECTORS.items()
        for case, _ in _bad_vectors(n)
        if not (case == "nested" and arg in TAKES_BATCHES)
    ],
)
def test_bad_vector_is_rejected(arg, case):
    n, call = VECTORS[arg]
    value = dict(_bad_vectors(n))[case]
    with pytest.raises(ValidationError):
        call(value)


@pytest.mark.parametrize("arg", sorted(NUMBERS))
@pytest.mark.parametrize("value", BAD_NUMBERS, ids=repr)
def test_bad_number_is_rejected(arg, value):
    with pytest.raises(ValidationError):
        NUMBERS[arg](value)


@pytest.mark.parametrize("arg", sorted(POSITIVES))
@pytest.mark.parametrize("value", BAD_POSITIVES, ids=repr)
def test_bad_positive_number_is_rejected(arg, value):
    with pytest.raises(ValidationError):
        POSITIVES[arg](value)


@pytest.mark.parametrize("arg", sorted(COUNTS))
@pytest.mark.parametrize("value", BAD_COUNTS, ids=repr)
def test_bad_count_is_rejected(arg, value):
    with pytest.raises(ValidationError):
        COUNTS[arg][1](value)


@pytest.mark.parametrize(
    "arg, case",
    [(arg, case) for arg, (n, floor, rank, _) in BLOCKS.items() for case, _ in _bad_blocks(n, floor, rank)],
)
def test_bad_block_is_rejected(arg, case):
    n, floor, rank, call = BLOCKS[arg]
    value = dict(_bad_blocks(n, floor, rank))[case]
    with pytest.raises(ValidationError):
        call(value)


@pytest.mark.parametrize("text", BAD_EXPRESSIONS, ids=repr)
def test_non_string_expression_is_rejected(text):
    with pytest.raises(ValidationError, match="must be a string"):
        parse(text, 1)


@pytest.mark.parametrize("arg", sorted(EXPRESSION_LISTS))
def test_bare_string_is_not_a_list_of_expressions(arg):
    # one character per expression, so iterating the string would pass
    n, call = EXPRESSION_LISTS[arg]
    with pytest.raises(ValidationError, match="list of expression strings"):
        call("0" * n)


@pytest.mark.parametrize("case", sorted(BAD_MATRICES))
@pytest.mark.parametrize("cls", [HermitianOperator, DensityOperator], ids=lambda c: c.__name__)
def test_bad_matrix_is_rejected(cls, case):
    with pytest.raises(ValidationError, match="matrix"):
        cls(BAD_MATRICES[case])


# argument -> (a call with an invalid text in it, the slot the error must name)
EXPRESSION_SLOTS = {
    "ConnectionSpec.parsed.g_S": (lambda: ConnectionSpec.parsed(1, ["0"], 1), "g_S"),
    "ConnectionSpec.parsed.h": (lambda: ConnectionSpec.parsed("1", [0], 1), "h1"),
    "MMetricSpec.parsed.g_a": (lambda: MMetricSpec.parsed("1", ["1", "l3"], ["0", "0"], 2), "g_a2"),
    "MMetricSpec.parsed.h": (lambda: MMetricSpec.parsed("1", ["1"], [None], 1), "h1"),
    "MuExtension.validated.texts": (lambda: MuExtension.validated([1], QUBIT), "f1"),
    "MuExtension.validated.t": (lambda: MuExtension.validated(["t"], QUBIT), "f1"),
}


@pytest.mark.parametrize("arg", sorted(EXPRESSION_SLOTS))
def test_bad_expression_names_its_slot(arg):
    call, slot = EXPRESSION_SLOTS[arg]
    with pytest.raises(ValidationError, match=f"^{slot}: "):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: ObservableSet(5),
        lambda: ObservableSet(QUBIT.observables[0]),
        lambda: ObservableSet(list(QUBIT.observables), names=5),
    ],
    ids=["observables", "one operator", "names"],
)
def test_observable_set_needs_lists(call):
    with pytest.raises(ValidationError, match="must be a list"):
        call()


@pytest.mark.parametrize(
    "call",
    [gibbs_point, metric_tensor, state_derivatives, expectation_consistency, injectivity_diagnostic],
    ids=lambda f: f.__name__,
)
def test_single_point_call_refuses_a_bool_among_numbers(call):
    call(PAULI_ZX, [0.5, 1.0])
    with pytest.raises(ValidationError, match="bool"):
        call(PAULI_ZX, [0.5, True])


def test_fiber_path_points_must_be_thermo_points():
    spec = MMetricSpec.parsed("1", ["1"], ["0"], 1)
    with pytest.raises(ValidationError, match="ThermoPoint"):
        fiber_path_length(spec, [1.0, 2.0])
    with pytest.raises(ValidationError, match="ThermoPoint"):
        fiber_path_length(spec, [POINT, (0.5, [0.0], [0.0])])
    with pytest.raises(ValidationError, match="ThermoPoint"):
        fiber_path_length(spec, 5)


def test_observable_set_checks_the_type_first():
    with pytest.raises(ValidationError, match="not a HermitianOperator"):
        ObservableSet([np.eye(2)])


def test_two_form_must_be_exactly_antisymmetric():
    beta = BETA_1.copy()
    beta[2, 1] += 1e-15
    with pytest.raises(ValidationError, match="antisymmetric"):
        wedge_top_coefficient(ALPHA_1, beta, 1)


def test_number_takes_any_real_but_bool():
    assert [number(x, "x") for x in (np.int64(3), np.float32(0.5), Fraction(1, 4))] == [3.0, 0.5, 0.25]


def test_large_int_reads_as_float_everywhere():
    big = 2**70  # past the 64-bit range, so numpy holds it as an object
    assert number(big, "x") == float(big)
    assert vector([big, 0.5], 2, "x").tolist() == [float(big), 0.5]
    assert points([[big], [1]], 1, "x").tolist() == [[float(big)], [1.0]]


def test_empty_block_of_the_wrong_width_is_rejected():
    with pytest.raises(ValidationError, match="shape"):
        metric_grid(QUBIT, np.zeros((0, 5)))


@pytest.mark.parametrize("grid", [(4, 4, 4), (4,), 4, None, (2**10, 2**10 + 1)])
def test_bad_count_list_is_rejected(grid):
    with pytest.raises(ValidationError, match="grid"):
        holonomy_via_curvature(SPEC, [0.0, 0.0], [1.0, 1.0], grid=grid)


def test_the_valid_calls_pass():
    """Each table's call accepts a valid value, so a rejection above is the bad one's."""
    for call in NUMBERS.values():
        call(0.5)
    for n, call in VECTORS.values():
        call([1.0] + [0.0] * (n - 1))
    for call in POSITIVES.values():
        call(0.5)
    for valid, call in COUNTS.values():
        call(valid)
    for n, floor, _, call in BLOCKS.values():
        call(_valid_block(n, floor))
    for n, call in EXPRESSION_LISTS.values():
        call(["0"] * n)
    for matrix in ([[1]], [[0.5, 0.5j], [-0.5j, 0.5]]):
        HermitianOperator(matrix)
        DensityOperator(matrix)
