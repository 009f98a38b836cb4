import json
import math

import numpy as np
import pytest

from thermogeom.errors import ValidationError
from thermogeom.inputs import MAX_COUNT, count, number
from thermogeom.serialization import (
    atomic_write_text,
    complex_matrix_from_json,
    connection_spec_from_json,
    format_float,
    load_json_file,
    path_from_json,
)


class TestMatrixCodec:
    def test_round_trip(self):
        # JSON text in, the matrix it spells out: [re, im] pairs, row-major
        doc = json.loads("[[[1, 0], [2, 3.0]], [[2.0, -3], [-1.0, 0.0]]]")
        m = np.array([[1.0, 2.0 + 3.0j], [2.0 - 3.0j, -1.0]])
        assert np.array_equal(complex_matrix_from_json(doc), m)

    def test_entries_must_be_pairs(self):
        with pytest.raises(ValidationError):
            complex_matrix_from_json([[1.0, 0.0], [0.0, 1.0]])

    def test_rows_must_be_square(self):
        with pytest.raises(ValidationError):
            complex_matrix_from_json([[[1, 0]], [[0, 0], [1, 0]]])

    def test_rows_are_checked_before_the_matrix_is_allocated(self):
        # a 2^20 x 2^20 complex matrix would take 16 TiB
        with pytest.raises(ValidationError, match=f"row 0 must have {2**20} entries"):
            complex_matrix_from_json([[]] * 2**20)

    def test_dim_check(self):
        doc = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        with pytest.raises(ValidationError):
            complex_matrix_from_json(doc, expect_dim=3)


class TestPathCodec:
    def test_explicit_samples(self):
        samples = np.linspace(0, 1, 9)[:, None]
        path = path_from_json({"duration": 2.0, "samples": samples.tolist()}, 1)
        assert path.duration == 2.0
        assert np.allclose(path.samples, samples)

    def test_expression_defined(self):
        path = path_from_json(
            {"duration": 1.0, "steps": 16, "lambda_exprs": ["t^2", "1-t"]}, 2
        )
        ts = np.linspace(0, 1, 17)
        assert np.allclose(path.samples[:, 0], ts**2)
        assert np.allclose(path.samples[:, 1], 1 - ts)

    def test_sample_rows_are_capped_before_conversion(self):
        rows = [["x"]] * (MAX_COUNT + 2)
        with pytest.raises(ValidationError, match=f"at most {MAX_COUNT + 1} rows"):
            path_from_json({"duration": 1.0, "samples": rows}, 1)

    def test_expressions_may_only_use_time(self):
        with pytest.raises(ValidationError):
            path_from_json({"duration": 1.0, "steps": 16, "lambda_exprs": ["l1"]}, 1)

    def test_needs_samples_or_exprs(self):
        with pytest.raises(ValidationError):
            path_from_json({"duration": 1.0}, 1)

    def test_round_trip(self):
        # JSON text in, the path it spells out
        rows = ", ".join(f"[{k / 8}, {1 - k / 8}]" for k in range(9))
        path = path_from_json(json.loads(f'{{"duration": 1.5, "samples": [{rows}]}}'), 2)
        assert path.duration == 1.5
        assert np.array_equal(path.samples, np.stack([np.arange(9) / 8, 1 - np.arange(9) / 8], -1))


class TestSpecCodecs:
    def test_connection_spec(self):
        spec = connection_spec_from_json({"g_S": "1+l1^2", "h": ["0", "l1"]}, 2)
        assert spec.gamma([1.0, 0.0])[1] == pytest.approx(0.5)

    @pytest.mark.parametrize("key", ["fd_step", "hh"])
    def test_unknown_key_is_named(self, key):
        with pytest.raises(ValidationError, match=key):
            connection_spec_from_json({"g_S": "1", "h": ["0", "l1"], key: 1e-5}, 2)

    def test_missing_fields(self):
        with pytest.raises(ValidationError):
            connection_spec_from_json({"h": ["0"]}, 1)
        with pytest.raises(ValidationError):
            connection_spec_from_json({"g_S": "1"}, 1)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "artifact.csv"
        atomic_write_text(target, "first\n")
        atomic_write_text(target, "second\n")
        assert target.read_text() == "second\n"
        leftovers = [p for p in tmp_path.iterdir() if p != target]
        assert leftovers == []  # no temp files linger

    def test_creates_parent_dirs(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "artifact.json"
        atomic_write_text(target, "{}\n")
        assert target.read_text() == "{}\n"


class TestFloatFormat:
    def test_seventeen_significant_digits(self):
        assert format_float(1 / 3) == "0.33333333333333331"
        assert format_float(2.0) == "2"
        assert float(format_float(0.1)) == 0.1


class TestScalarChecks:
    @pytest.mark.parametrize("value", [True, "1", None, [1.0], math.nan, -math.inf, 10**400])
    def test_number_rejects(self, value):
        with pytest.raises(ValidationError):
            number(value, "x")

    def test_number_accepts_ints_and_floats(self):
        assert number(3, "x") == 3.0 and number(-2.5, "x") == -2.5

    @pytest.mark.parametrize("value", [True, 1.0, "2", None, 1, MAX_COUNT + 1])
    def test_count_rejects(self, value):
        with pytest.raises(ValidationError):
            count(value, "x", floor=2)

    def test_count_accepts_the_bounds(self):
        assert count(2, "x", floor=2) == 2 and count(MAX_COUNT, "x") == MAX_COUNT

    def test_oversized_json_int_is_a_validation_error(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text("9" * 5000)
        with pytest.raises(ValidationError):
            load_json_file(path)
