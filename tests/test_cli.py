import copy
import functools
import inspect
import json
import math
import operator
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermogeom import cli, connection
from thermogeom.cli import CONFIG_KEYS, main
from thermogeom.inputs import MAX_CELLS, MAX_COUNT

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(p.stem[len("run_"):] for p in CONFIG_DIR.glob("run_*.json"))


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def qubit_observables():
    return {
        "dim": 2,
        "observables": [
            {"name": "sz", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}
        ],
    }


def run(argv):
    return main([str(a) for a in argv])


class TestGibbsCommand:
    def test_reports_ln2_at_zero(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"observables": qubit_observables(), "gibbs": {"lambda": [0.0]}},
        )
        out = tmp_path / "out.json"
        assert run(["gibbs", "--config", cfg, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["S"] == pytest.approx(math.log(2), rel=1e-12)
        assert doc["Z"] == pytest.approx(2.0, rel=1e-12)

    def test_closed_form_row(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"observables": qubit_observables(), "gibbs": {"lambda": [1.0]}},
        )
        out = tmp_path / "out.json"
        assert run(["gibbs", "--config", cfg, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["Z"] == pytest.approx(2 * math.cosh(1.0), rel=1e-12)
        assert doc["a"][0] == pytest.approx(-math.tanh(1.0), rel=1e-12)

    def test_non_commuting_populations(self, tmp_path):
        # {sz, sx} at lambda = (9, 12): the exponent has eigenvalues -15 and 15
        sx = {"name": "sx", "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}
        obs = qubit_observables()
        obs["observables"].append(sx)
        cfg = write_config(tmp_path, "cfg.json", {"observables": obs, "gibbs": {"lambda": [9.0, 12.0]}})
        out = tmp_path / "out.json"
        assert run(["gibbs", "--config", cfg, "--out", out]) == 0
        p = json.loads(out.read_text())["rho_eigenvalues"]
        assert p[1] == pytest.approx(1.0 / (1.0 + math.exp(30.0)), rel=1e-14, abs=0.0)
        assert p[0] == pytest.approx(1.0 / (1.0 + math.exp(-30.0)), rel=1e-14, abs=0.0)

    def test_malformed_matrix_is_config_error(self, tmp_path):
        bad = qubit_observables()
        bad["observables"][0]["matrix"] = [[1.0, 0.0], [0.0, -1.0]]  # not [re,im]
        cfg = write_config(
            tmp_path, "cfg.json", {"observables": bad, "gibbs": {"lambda": [0.0]}}
        )
        assert run(["gibbs", "--config", cfg]) == 2

    def test_missing_config_file(self, tmp_path):
        assert run(["gibbs", "--config", tmp_path / "absent.json"]) == 2


class TestMetricCommand:
    def test_reproduces_sech_squared_column(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "observables": qubit_observables(),
                "metric": {"grid": {"start": [-2.0], "stop": [2.0], "num": [21]}},
            },
        )
        out = tmp_path / "metric.csv"
        assert run(["metric", "--config", cfg, "--out", out, "--format", "csv"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "l1,g_1_1"
        assert len(lines) == 22
        for line in lines[1:]:
            lam, g = map(float, line.split(","))
            assert g == pytest.approx(1.0 / math.cosh(lam) ** 2, abs=1e-8)

    def test_rows_in_lexicographic_order(self, tmp_path):
        two = {
            "dim": 4,
            "observables": [
                {
                    "name": "z1",
                    "matrix": [
                        [[1, 0], [0, 0], [0, 0], [0, 0]],
                        [[0, 0], [1, 0], [0, 0], [0, 0]],
                        [[0, 0], [0, 0], [-1, 0], [0, 0]],
                        [[0, 0], [0, 0], [0, 0], [-1, 0]],
                    ],
                },
                {
                    "name": "z2",
                    "matrix": [
                        [[1, 0], [0, 0], [0, 0], [0, 0]],
                        [[0, 0], [-1, 0], [0, 0], [0, 0]],
                        [[0, 0], [0, 0], [1, 0], [0, 0]],
                        [[0, 0], [0, 0], [0, 0], [-1, 0]],
                    ],
                },
            ],
        }
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "observables": two,
                "metric": {"grid": {"start": [0.0, 0.0], "stop": [1.0, 1.0], "num": [2, 2]}},
            },
        )
        out = tmp_path / "metric.csv"
        assert run(["metric", "--config", cfg, "--out", out, "--format", "csv"]) == 0
        rows = [line.split(",")[:2] for line in out.read_text().strip().splitlines()[1:]]
        assert [[float(a), float(b)] for a, b in rows] == [
            [0.0, 0.0],
            [0.0, 1.0],
            [1.0, 0.0],
            [1.0, 1.0],
        ]

    def test_empty_grid_yields_header_only(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "observables": qubit_observables(),
                "metric": {"grid": {"start": [0.0], "stop": [1.0], "num": [0]}},
            },
        )
        out = tmp_path / "metric.csv"
        assert run(["metric", "--config", cfg, "--out", out, "--format", "csv"]) == 0
        assert out.read_text() == "l1,g_1_1\n"

    def test_boundary_proximate_lambda_is_numeric_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "observables": qubit_observables(),
                "metric": {"grid": {"start": [18.0], "stop": [18.0], "num": [1]}},
            },
        )
        assert run(["metric", "--config", cfg, "--out", tmp_path / "x.csv"]) == 3

    def test_library_domain_error_names_the_subcommand(self, tmp_path, capsys):
        # the SLD floor is the library's own NumericalDomainError, not a numpy flag
        grid = {"start": [30.0], "stop": [31.0], "num": [2]}
        cfg = write_config(tmp_path, "cfg.json", {"observables": qubit_observables(), "metric": {"grid": grid}})
        assert run(["metric", "--config", cfg, "--validate"]) == 0
        assert run(["metric", "--config", cfg, "--out", tmp_path / "x.json"]) == 3
        assert "numerical domain error: metric: eigenvalue sum" in capsys.readouterr().err


class TestLengthCommand:
    def test_qubit_unit_path_oracle(self, tmp_path):
        out = tmp_path / "len.json"
        code = run(
            ["length", "--config", CONFIG_DIR / "run_length.json", "--out", out]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["length"] == pytest.approx(0.8658, abs=1e-4)
        assert doc["length"] == pytest.approx(2 * math.atan(math.tanh(0.5)), abs=1e-4)


class TestContactCheckCommand:
    def test_qubit_residual(self, tmp_path):
        out = tmp_path / "contact.json"
        code = run(
            ["contact-check", "--config", CONFIG_DIR / "run_contact_check.json", "--out", out]
        )
        assert code == 0
        assert json.loads(out.read_text())["max_residual"] <= 1e-14


class TestHolonomyCommand:
    def test_lift_and_curvature_agree(self, tmp_path):
        out = tmp_path / "hol.json"
        code = run(
            ["holonomy", "--config", CONFIG_DIR / "run_holonomy.json", "--out", out]
        )
        assert code == 0
        results = {r["method"]: r for r in json.loads(out.read_text())["results"]}
        assert results["lift"]["dS"] == pytest.approx(-1.0, abs=1e-6)
        curvature_dS = results["curvature-integral"]["dS"]
        assert curvature_dS == pytest.approx(-1.0, rel=1e-14)
        assert curvature_dS == pytest.approx(results["lift"]["dS"], abs=1e-12)
        assert all(set(r) == {"dS", "method"} for r in results.values())

    def test_csv_has_one_dS_column(self, tmp_path):
        out = tmp_path / "hol.csv"
        config = CONFIG_DIR / "run_holonomy.json"
        assert run(["holonomy", "--config", config, "--out", out, "--format", "csv"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,dS"
        assert [line.split(",")[0] for line in lines[1:]] == ["lift", "curvature-integral"]

    def test_single_method_emits_bare_result_object(self, tmp_path):
        cfg_doc = json.loads((CONFIG_DIR / "run_holonomy.json").read_text())
        cfg_doc["observables"] = json.loads(
            (CONFIG_DIR / "observables_two_qubit.json").read_text()
        )
        cfg_doc["holonomy"]["method"] = "lift"
        cfg = write_config(tmp_path, "cfg.json", cfg_doc)
        out = tmp_path / "hol.json"
        assert run(["holonomy", "--config", cfg, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"dS", "method"}
        assert doc["method"] == "lift"
        assert doc["dS"] == pytest.approx(-1.0, abs=1e-6)


class TestGeodesicCommand:
    def test_non_convergence_exit_code_with_artifact(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "observables": qubit_observables(),
                "geodesic": {
                    "start": [0.0],
                    "end": [1.0],
                    "interior_points": 7,
                    "max_iters": 1,
                    "tolerance": 1e-14,
                },
            },
        )
        out = tmp_path / "geo.json"
        assert run(["geodesic", "--config", cfg, "--out", out]) == 4
        doc = json.loads(out.read_text())
        assert doc["convergence"]["converged"] is False
        assert len(doc["samples"]) == 9

    def test_convergence_on_the_last_allowed_step_exits_0(self, tmp_path):
        # the one allowed step of this sz, sx solve reaches max |grad E| = 3.2e-5
        sx = {"name": "sx", "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}
        obs = qubit_observables()
        obs["observables"].append(sx)
        section = {"start": [0.16, 0.0], "end": [-0.11027, 0.24096], "interior_points": 15,
                   "max_iters": 1, "tolerance": 3e-4}
        cfg = write_config(tmp_path, "cfg.json", {"observables": obs, "geodesic": section})
        out = tmp_path / "geo.json"
        assert run(["geodesic", "--config", cfg, "--out", out]) == 0
        convergence = json.loads(out.read_text())["convergence"]
        assert convergence["converged"] is True
        assert convergence["iterations"] == 1
        assert convergence["grad_norm"] < 3e-4

    def test_converged_run(self, tmp_path):
        out = tmp_path / "geo.json"
        code = run(
            ["geodesic", "--config", CONFIG_DIR / "run_geodesic.json", "--out", out]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["convergence"]["converged"] is True
        assert doc["convergence"]["energy_final"] <= doc["convergence"]["energy_initial"]


class TestValidateMode:
    @pytest.mark.parametrize(
        "command,config",
        [
            ("gibbs", "run_gibbs.json"),
            ("metric", "run_metric.json"),
            ("length", "run_length.json"),
            ("entropy-production", "run_entropy_production.json"),
            ("geodesic", "run_geodesic.json"),
            ("third-law", "run_third_law.json"),
            ("boundary-entropy", "run_boundary_entropy.json"),
            ("contact-check", "run_contact_check.json"),
            ("holonomy", "run_holonomy.json"),
            ("curvature-map", "run_curvature_map.json"),
            ("flatness", "run_flatness.json"),
        ],
    )
    def test_shipped_configs_validate(self, command, config, tmp_path):
        out = tmp_path / "artifact"
        assert run([command, "--config", CONFIG_DIR / config, "--validate", "--out", out]) == 0
        assert not out.exists()  # validate mode computes nothing

    def test_validation_catches_missing_section(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"observables": qubit_observables()})
        assert run(["gibbs", "--config", cfg, "--validate"]) == 2

    def test_validation_catches_bad_expression(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "observables": qubit_observables(),
                "connection": {"g_S": "1", "h": ["l7"]},
                "flatness": {"grid": {"start": [0.0], "stop": [1.0], "num": [3]}},
            },
        )
        assert run(["flatness", "--config", cfg, "--validate"]) == 2


class TestDeterminism:
    @pytest.mark.parametrize("config", SHIPPED)
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_two_runs_byte_identical(self, fmt, config, tmp_path):
        first = tmp_path / f"a.{fmt}"
        second = tmp_path / f"b.{fmt}"
        for out in (first, second):
            code = run(
                [
                    config.replace("_", "-"),
                    "--config",
                    CONFIG_DIR / f"run_{config}.json",
                    "--out",
                    out,
                    "--format",
                    fmt,
                ]
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()


class TestEntropyProductionCommand:
    def test_rates_and_total(self, tmp_path):
        out = tmp_path / "ep.json"
        code = run(
            [
                "entropy-production",
                "--config",
                CONFIG_DIR / "run_entropy_production.json",
                "--out",
                out,
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["total"] > 0
        assert len(doc["rates"]) == 129
        assert all(r >= 0 for r in doc["rates"])


class TestThirdLawCommand:
    def test_monotone_table(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run(
            [
                "third-law",
                "--config",
                CONFIG_DIR / "run_third_law.json",
                "--out",
                out,
                "--format",
                "csv",
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        lengths = [float(line.split(",")[1]) for line in lines[1:]]
        assert lengths == sorted(lengths)
        assert lines[1].split(",")[2] == ""  # first row has no increment


class TestBoundaryEntropyCommand:
    def test_qutrit_limit(self, tmp_path):
        out = tmp_path / "be.json"
        code = run(
            [
                "boundary-entropy",
                "--config",
                CONFIG_DIR / "run_boundary_entropy.json",
                "--out",
                out,
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["ground_degeneracy"] == 2
        assert doc["S"][0] == pytest.approx(math.log(3), rel=1e-12)
        assert abs(doc["gap_to_ln_k"][-1]) < 1e-6


class TestStdoutFallback(object):
    def test_writes_to_stdout_without_out(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"observables": qubit_observables(), "gibbs": {"lambda": [0.0]}},
        )
        assert run(["gibbs", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["S"] == pytest.approx(math.log(2), rel=1e-12)


@pytest.mark.parametrize("where", ["an existing directory", "under a regular file"])
def test_unwritable_out_exits_2_and_leaves_nothing(where, tmp_path, capsys):
    if where == "an existing directory":
        out = tmp_path / "taken"
        out.mkdir()
    else:
        (tmp_path / "file").write_text("kept")
        out = tmp_path / "file" / "x.json"
    before = sorted(tmp_path.rglob("*"))
    assert run(["gibbs", "--config", CONFIG_DIR / "run_gibbs.json", "--out", out]) == 2
    assert f"config error: cannot write {out}: " in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before
    assert where == "an existing directory" or (tmp_path / "file").read_text() == "kept"


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"observables": qubit_observables(), "gibbs": {"lambda": [0.0]}},
        )
        proc = subprocess.run(
            [sys.executable, "-m", "thermogeom", "gibbs", "--config", str(cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["Z"] == pytest.approx(2.0)


def shipped_config(config):
    """A shipped run config whose observables path no longer depends on its folder."""
    doc = json.loads((CONFIG_DIR / f"run_{config}.json").read_text())
    doc["observables"] = str(CONFIG_DIR / doc["observables"])
    return doc


def _open_loop(sec):
    sec["loop"] = {"duration": 1.0, "samples": [[0.0625 * k, 0.0] for k in range(17)]}


def _no_rectangle(sec):
    sec.pop("rectangle")
    sec["method"] = "curvature-integral"


# (config, edit of its section) pairs that neither --validate nor the run may accept
INVALID_EDITS = {
    "rectangle_steps_8": ("holonomy", lambda s: s["rectangle"].update(steps=8)),
    "third_law_steps_4": ("third_law", lambda s: s.update(steps=4)),
    "third_law_lambda_decreasing": ("third_law", lambda s: s.update(Lambda=[8.0, 4.0, 2.0])),
    "third_law_direction_not_unit": ("third_law", lambda s: s.update(direction=[2.0])),
    "third_law_lambda_negative": ("third_law", lambda s: s.update(Lambda=[-1.0, 0.0, 2.0])),
    "boundary_lambda_decreasing": ("boundary_entropy", lambda s: s.update(Lambda=[16.0, 0.0])),
    "boundary_lambda_negative": ("boundary_entropy", lambda s: s.update(Lambda=[-1.0, 0.0, 2.0])),
    "boundary_lambda_over_cap": ("boundary_entropy", lambda s: s.update(Lambda=list(range(MAX_COUNT + 1)))),
    "curvature_method_without_rectangle": ("holonomy", _no_rectangle),
    "holonomy_method_unknown": ("holonomy", lambda s: s.update(method="guess")),
    "open_loop": ("holonomy", _open_loop),
    "pairs_same_index": ("curvature_map", lambda s: s.update(pairs=[[1, 1]])),
    "flatness_tol_negative": ("flatness", lambda s: s.update(tol=-1)),
    "section_kappa_negative": ("entropy_production", lambda s: s.update(kappa=-1)),
    "contact_grid_empty": ("contact_check", lambda s: s["grid"].update(num=[0])),
    "flatness_grid_empty": ("flatness", lambda s: s["grid"].update(num=[0, 5])),
    # the grid's step overflows, so its points are not finite
    "grid_span_overflows": ("metric", lambda s: s["grid"].update(start=[-1.7e308], stop=[1.7e308])),
    "lambda_exprs_not_a_string": ("length", lambda s: s["path"].update(lambda_exprs=[1])),
    "samples_not_numeric": ("length", lambda s: s.update(path={"duration": 1.0, "samples": [["a"]] * 9})),
    "samples_ragged": (
        "length", lambda s: s.update(path={"duration": 1.0, "samples": [[0.0]] * 8 + [[0.0, 1.0]]})
    ),
    "third_law_lambda_string": ("third_law", lambda s: s.update(Lambda=["a"])),
    "pairs_not_a_list": ("curvature_map", lambda s: s.update(pairs=3)),
    "lambda_bool": ("gibbs", lambda s: s.update({"lambda": [True]})),
    "grid_over_cap": ("curvature_map", lambda s: s["grid"].update(num=[2048, 1024])),
    # interior_points + 1 segments would be path steps past the cap
    "interior_points_at_cap": ("geodesic", lambda s: s.update(interior_points=MAX_COUNT)),
    "gibbs_lambda_nested": ("gibbs", lambda s: s.update({"lambda": [[0.5]]})),
    # an absent key takes its default; null is a bad value like any other
    "geodesic_tolerance_null": ("geodesic", lambda s: s.update(tolerance=None)),
    "entropy_kappa_null": ("entropy_production", lambda s: s.update(kappa=None)),
    # expressions past the parser's nesting bound, or with a literal past the
    # float range; a dict is merged into the config's connection
    "g_S_deep_parentheses": ("holonomy", {"g_S": "(" * 3000 + "1" + ")" * 3000}),
    "h2_many_minuses": ("holonomy", {"h": ["0", "-" * 5000 + "l1"]}),
    "h2_long_sum": ("holonomy", {"h": ["0", "+".join(["l1"] * 1000)]}),
    "h2_literal_past_float_range": ("holonomy", {"h": ["0", "l1*1e400"]}),
}


# (config, edit of its section) pairs that --validate and the run both accept
VALID_EDITS = {
    # the Legendrian residual is closed-form, so its grid may reach the guard
    "contact_grid_stop_near_guard": ("contact_check", lambda s: s["grid"].update(stop=[999.99999])),
    "contact_grid_start_near_guard": ("contact_check", lambda s: s["grid"].update(start=[-999.99999])),
}


@pytest.mark.parametrize("name", sorted(VALID_EDITS))
def test_valid_edit_exits_0_under_validate_and_run(name, tmp_path):
    config, edit = VALID_EDITS[name]
    doc = shipped_config(config)
    edit(doc[config])
    cfg = write_config(tmp_path, "cfg.json", doc)
    out = tmp_path / "artifact"
    command = config.replace("_", "-")
    assert run([command, "--config", cfg, "--validate"]) == 0
    assert run([command, "--config", cfg, "--out", out]) == 0
    assert json.loads(out.read_text())["max_residual"] <= 1e-12


# (config, key path, value): a key the config format does not have, which
# both --validate and the run must reject by name rather than ignore
UNKNOWN_KEYS = {
    "kappa_bool": ("gibbs", ("kappa",), True),
    "fd": ("contact_check", ("fd",), {"step": 1e-5, "order": 4}),
    "top_level_kappa": ("entropy_production", ("kappa",), 1.0),
    "connection_fd_step": ("holonomy", ("connection", "fd_step"), 1e-5),
    "misspelled_section": ("metric", ("metrics",), {"grid": {"start": [0], "stop": [1], "num": [3]}}),
    "section_key": ("geodesic", ("geodesic", "tolerence"), 1e-3),
    "holonomy_method_key": ("holonomy", ("holonomy", "methd"), "lift"),
    "grid_key": ("metric", ("metric", "grid", "step"), 0.1),
    "path_key": ("length", ("length", "path", "stepz"), 64),
}


@pytest.mark.parametrize("name", sorted(INVALID_EDITS) + sorted(UNKNOWN_KEYS))
def test_invalid_edit_exits_2_under_validate_and_run(name, tmp_path, capsys):
    if name in UNKNOWN_KEYS:
        config, (*parents, key), value = UNKNOWN_KEYS[name]
        doc = shipped_config(config)
        functools.reduce(operator.getitem, parents, doc)[key] = value
    else:
        config, edit = INVALID_EDITS[name]
        doc = shipped_config(config)
        if isinstance(edit, dict):
            doc["connection"].update(edit)
        else:
            edit(doc[config])
    cfg = write_config(tmp_path, "cfg.json", doc)
    out = tmp_path / "artifact"
    command = config.replace("_", "-")
    assert run([command, "--config", cfg, "--validate", "--out", out]) == 2
    assert run([command, "--config", cfg, "--out", out]) == 2
    assert not out.exists()
    if name in UNKNOWN_KEYS:
        assert capsys.readouterr().err.count(repr(key)) == 2


# (config, key path below its section) -> the library parameter whose default
# the key takes when it is absent, and a value that is not that default
LIBRARY_DEFAULTS = {
    ("entropy_production", ("kappa",)): (cli.entropy_production, "kappa", 2.0),
    ("third_law", ("steps",)): (cli.third_law_scan, "steps", 512),
    ("holonomy", ("rectangle", "steps")): (connection.rectangle_loop, "steps", 128),
    ("holonomy", ("rectangle", "grid")): (connection.holonomy_via_curvature, "grid", [32, 32]),
    ("flatness", ("tol",)): (connection.flatness_check, "tol", 1e-6),
}


@pytest.mark.parametrize(
    "config, keys",
    sorted(LIBRARY_DEFAULTS),
    ids=[".".join((c, *k)) for c, k in sorted(LIBRARY_DEFAULTS)],
)
def test_absent_key_takes_the_library_default(config, keys, tmp_path):
    fn, name, other = LIBRARY_DEFAULTS[config, keys]
    default = inspect.signature(fn).parameters[name].default
    artifacts = []
    for value in (None, list(default) if isinstance(default, tuple) else default, other):
        doc = shipped_config(config)
        if config == "holonomy":
            # a curved connection, so the holonomy depends on the loop's steps and the grid
            doc["connection"]["h"] = ["0", "exp(l1)"]
        *parents, key = keys
        holder = functools.reduce(operator.getitem, parents, doc[config])
        holder.pop(key, None)
        if value is not None:
            holder[key] = value
        cfg = write_config(tmp_path, "cfg.json", doc)
        out = tmp_path / f"{len(artifacts)}.out"
        assert run([config.replace("_", "-"), "--config", cfg, "--out", out]) == 0
        artifacts.append(out.read_bytes())
    absent, at_default, at_other = artifacts
    assert absent == at_default != at_other


@pytest.mark.parametrize(
    "command, section",
    [
        ("gibbs", {"lambda": [450.0]}),
        ("metric", {"grid": {"start": [400.0], "stop": [500.0], "num": [5]}}),
        ("length", {"path": {"duration": 1.0, "steps": 8, "lambda_exprs": ["400+100*t"]}}),
    ],
    ids=["gibbs", "metric", "length"],
)
def test_overflowing_exponent_exits_3(command, section, tmp_path):
    # |lambda| is within the guard, but lambda * 1e306 overflows
    huge = qubit_observables()
    huge["observables"][0]["matrix"] = [[[1e306, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e306, 0.0]]]
    cfg = write_config(tmp_path, "cfg.json", {"observables": huge, command: section})
    out = tmp_path / "artifact"
    assert run([command, "--config", cfg, "--out", out]) == 3
    assert not out.exists()


def test_observable_near_the_float_limit_validates_and_exits_3(tmp_path, capsys):
    # sz * 1e308 is a valid observable; at lambda = 1, log_Z = 1e308 and p = (0, 1)
    # are exact, but Z = e^(1e308) is no double, so the artifact refuses it
    huge = qubit_observables()
    huge["observables"][0]["matrix"] = [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e308, 0.0]]]
    cfg = write_config(tmp_path, "cfg.json", {"observables": huge, "gibbs": {"lambda": [1.0]}})
    out = tmp_path / "artifact"
    assert run(["gibbs", "--config", cfg, "--validate"]) == 0
    assert run(["gibbs", "--config", cfg, "--out", out]) == 3
    assert not out.exists()
    assert "numerical domain error: gibbs: the artifact would hold a NaN" in capsys.readouterr().err


@pytest.mark.parametrize(
    "diagonal",
    [[1e308, 1e308], [1.7e308, -1.7e308, -1.7e308], [2.2e-309, 0.0, 0.0]],
    ids=["identity", "traceless", "subnormal"],
)
def test_observable_at_the_float_limit_never_exits_1(diagonal, tmp_path):
    # building the set once overflowed in its rank test and raised a traceback
    matrix = [[[d if i == j else 0.0, 0.0] for j in range(len(diagonal))] for i, d in enumerate(diagonal)]
    obs = {"dim": len(diagonal), "observables": [{"name": "big", "matrix": matrix}]}
    cfg = write_config(tmp_path, "cfg.json", {"observables": obs, "gibbs": {"lambda": [1.0]}})
    assert run(["gibbs", "--config", cfg, "--validate"]) in (0, 2)
    assert run(["gibbs", "--config", cfg, "--out", tmp_path / "artifact"]) in (0, 2, 3)


def test_overflowing_field_exits_3(tmp_path, capsys):
    # every operand is finite, but the product overflows on the rectangle
    doc = shipped_config("holonomy")
    doc["connection"]["h"] = ["0", "l1*1e308*10"]
    cfg = write_config(tmp_path, "cfg.json", doc)
    out = tmp_path / "artifact"
    assert run(["holonomy", "--config", cfg, "--validate"]) == 0
    assert run(["holonomy", "--config", cfg, "--out", out]) == 3
    assert not out.exists()
    assert "overflow in 'l1*1e+308*10.0'" in capsys.readouterr().err


def test_curvature_at_a_kink_exits_3(tmp_path, capsys):
    # |l1| has no derivative at l1 = 0, which the shipped flatness grid contains
    doc = shipped_config("flatness")
    doc["connection"]["h"] = ["0", "abs(l1)"]
    cfg = write_config(tmp_path, "cfg.json", doc)
    out = tmp_path / "artifact"
    assert run(["flatness", "--config", cfg, "--validate"]) == 0
    assert run(["flatness", "--config", cfg, "--out", out]) == 3
    assert not out.exists()
    assert "division by zero in 'l1/abs(l1)' (operand 0.0 at l1=0.0, l2=-1.0)" in capsys.readouterr().err


def _holonomy_quotient_overflow():
    # g_S is above its floor and h is finite, but h / g_S overflows
    doc = shipped_config("holonomy")
    doc["connection"]["g_S"] = "1e-11"
    doc["connection"]["h"] = ["0", "1e300*l1"]
    return doc


def _metric_scaled_qubit():
    # the exponent stays tiny, but the metric of sz * 1e200 overflows
    obs = qubit_observables()
    obs["observables"][0]["matrix"] = [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e200, 0.0]]]
    grid = {"start": [-1e-201], "stop": [1e-201], "num": [5]}
    return {"observables": obs, "metric": {"grid": grid}}


def _gibbs_saturated_z():
    # ln Z = 800 is exact, but Z = e^800 is past the float range
    return {"observables": qubit_observables(), "gibbs": {"lambda": [800.0]}}


@pytest.mark.parametrize(
    "command, config, message",
    [
        # the quotient is a node of the spec's program: the evaluator names it and the point
        (
            "holonomy",
            _holonomy_quotient_overflow,
            "holonomy: overflow in '1e+300*l1/1e-11' (operand 1.5625e+298 at l1=0.015625, l2=0.0)",
        ),
        ("metric", _metric_scaled_qubit, "metric: the computation overflows at lambda = [-1e-201]"),
        # the library's Z saturates to inf by design; the artifact refuses it
        ("gibbs", _gibbs_saturated_z, "gibbs: the artifact would hold a NaN or an infinity"),
    ],
    ids=["holonomy-quotient", "metric-scaled-qubit", "gibbs-saturated-z"],
)
def test_non_finite_result_exits_3(command, config, message, tmp_path, capsys):
    # each run once wrote NaN or Infinity into an artifact and exited 0
    cfg = write_config(tmp_path, "cfg.json", config())
    out = tmp_path / "artifact"
    assert run([command, "--config", cfg, "--validate"]) == 0
    for fmt in ("json", "csv"):
        assert run([command, "--config", cfg, "--format", fmt, "--out", out]) == 3
        assert not out.exists()
    assert f"numerical domain error: {message}" in capsys.readouterr().err


def _random_observables(m, n, seed):
    rng = np.random.default_rng(seed)
    observables = []
    for k in range(n):
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        a = (a + a.conj().T) / 2
        matrix = [[[z.real, z.imag] for z in row] for row in a]
        observables.append({"name": f"A{k + 1}", "matrix": matrix})
    return {"dim": m, "observables": observables}


def _metric_of_32_observables_at_m16():
    # 2^16 points x 560 columns; the unsplit (P, n, m, m) block alone was 8 GiB
    grid = {"start": [-0.05] * 32, "stop": [0.05] * 32, "num": [2] * 16 + [1] * 16}
    doc = {"observables": _random_observables(16, 32, seed=32), "metric": {"grid": grid}}
    return doc, 65536 * 560


def _curvature_map_of_repeated_planes():
    doc = shipped_config("curvature_map")
    doc["curvature_map"] = {
        "grid": {"start": [0.0, 0.0], "stop": [1.0, 1.0], "num": [1024, 1024]},
        "pairs": [[1, 2]] * 3,
    }
    return doc, 1024 * 1024 * 5


@pytest.mark.parametrize(
    "command, config",
    [("metric", _metric_of_32_observables_at_m16), ("curvature-map", _curvature_map_of_repeated_planes)],
)
def test_artifact_past_the_cell_cap_exits_2(command, config, tmp_path, capsys):
    doc, cells = config()
    assert cells > MAX_CELLS
    cfg = write_config(tmp_path, "cfg.json", doc)
    out = tmp_path / "artifact"
    assert run([command, "--config", cfg, "--validate"]) == 2
    assert run([command, "--config", cfg, "--format", "csv", "--out", out]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.count(f"= {cells} cells, more than {MAX_CELLS}") == 2


def test_lambda_list_is_capped_before_its_entries_are_read(tmp_path, capsys):
    doc = shipped_config("third_law")
    doc["third_law"]["Lambda"] = ["x"] * (MAX_COUNT + 1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run(["third-law", "--config", cfg, "--validate"]) == 2
    assert f"more than {MAX_COUNT}" in capsys.readouterr().err


def test_matrix_rows_are_checked_before_it_is_allocated(tmp_path, capsys):
    # dim 2^20 with empty rows is a 4 MB file; the matrix would be 16 TiB
    obs = {"dim": MAX_COUNT, "observables": [{"name": "big", "matrix": [[]] * MAX_COUNT}]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"observables": obs, "gibbs": {"lambda": [0.0]}}))
    out = tmp_path / "artifact"
    assert run(["gibbs", "--config", cfg, "--validate", "--out", out]) == 2
    assert run(["gibbs", "--config", cfg, "--out", out]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.count(f"matrix row 0 must have {MAX_COUNT} entries") == 2


def test_calls_in_one_process_behave_as_fresh_ones(tmp_path, capsys):
    # a run, a usage error, --validate, a run of another subcommand and --help,
    # back to back on the one parser `main` builds, against each on a fresh one
    gibbs = write_config(tmp_path, "gibbs.json", shipped_config("gibbs"))
    metric = write_config(tmp_path, "metric.json", shipped_config("metric"))
    calls = [
        ["gibbs", "--config", gibbs, "--out", tmp_path / "gibbs.json.out"],
        ["metric", "--config", metric, "--format", "xml"],
        ["metric", "--config", metric, "--validate"],
        ["metric", "--config", metric, "--format", "csv"],
        ["metric", "--help"],
    ]

    def outcome(argv):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        out, err = capsys.readouterr()
        return code, out, err, (tmp_path / "gibbs.json.out").read_bytes()

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    cli._parser.cache_clear()
    assert [outcome(argv) for argv in calls] == fresh
    assert cli._parser.cache_info().misses == 1
    assert [f[0] for f in fresh] == [0, ("exit", 2), 0, 0, ("exit", 0)]
    assert "invalid choice: 'xml'" in fresh[1][2]
    assert fresh[2][2] == "metric: config OK\n" and fresh[3][1].startswith("l1,g_1_1\n")


def test_readme_schema_sketch_lists_exactly_the_config_keys(tmp_path):
    readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    sketch = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    assert set(re.findall(r'^  "(\w+)":', sketch, flags=re.M)) == CONFIG_KEYS
    # every key below the top level is one the parse accepts: each section of
    # the sketch, with the sketch's connection, validates on its shipped observables
    doc = json.loads(re.sub(r"//.*", "", sketch))
    for section in CONFIG_KEYS - {"observables", "connection"}:
        cfg = shipped_config(section)
        cfg[section] = doc[section]
        if "connection" in cfg:
            cfg["connection"] = doc["connection"]
        path = write_config(tmp_path, f"{section}.json", cfg)
        assert run([section.replace("_", "-"), "--config", path, "--validate"]) == 0, section


_DELETE = object()
# |x| from 1e-3 to 1e300 at a log-uniform exponent, either sign
_MAGNITUDES = st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]),
    st.floats(-3.0, 300.0),
)
_JSON_VALUES = st.one_of(
    st.integers(-3, 20),
    st.floats(-1e3, 1e3),
    _MAGNITUDES,
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.lists(st.integers(-2, 3), max_size=3), max_size=3),
    st.just({}),
    st.just(MAX_COUNT + 1),
)
# the cells of a CSV artifact that are not numbers
_CSV_WORDS = {"", "true", "false", "lift", "curvature-integral"}


def _sites(doc, prefix=()):
    """Paths to every key and list element, containers included."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _sites(value, prefix + (key,))


def _mutation(data, old):
    """A replacement for old, or _DELETE; a string may instead get a constant spliced in."""
    values = [st.just(_DELETE), _JSON_VALUES]
    if isinstance(old, str):
        # an expression keeps its text and gains a constant of any magnitude
        values.append(st.builds(
            lambda op, c: f"({old}){op}({c!r})", st.sampled_from("+-*/^"), _MAGNITUDES
        ))
    return data.draw(st.one_of(*values), label="value")


def _refuse_constant(name):
    raise AssertionError(f"the artifact holds {name}")


def _check_artifact(text, fmt):
    """Parse an artifact strictly: no NaN or Infinity in JSON, every CSV number finite."""
    if fmt == "json":
        json.loads(text, parse_constant=_refuse_constant)
        return
    header, *rows = text.splitlines()
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(header.split(","))
        assert all(c in _CSV_WORDS or math.isfinite(float(c)) for c in cells), row


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("config", SHIPPED)
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_mutated_config_keeps_the_exit_contract(config, data, fuzz_dir):
    doc = shipped_config(config)
    # inline observables: each matrix entry is a mutation site
    doc["observables"] = json.loads(Path(doc["observables"]).read_text())
    *parents, last = data.draw(st.sampled_from(list(_sites(doc))), label="site")
    holder = functools.reduce(operator.getitem, parents, doc)
    value = _mutation(data, holder[last])
    if value is _DELETE:
        del holder[last]
    else:
        holder[last] = value
        if parents[-3:-2] == ["matrix"] and isinstance(value, float):
            # keep the matrix Hermitian: conj(value) goes to the mirrored entry
            matrix, (i, j) = functools.reduce(operator.getitem, parents[:-2], doc), parents[-2:]
            matrix[j][i][last] = value if last == 0 else -value
    fmt = data.draw(st.sampled_from(["json", "csv"]), label="format")
    cfg = write_config(fuzz_dir, f"{config}.json", doc)
    out = fuzz_dir / f"{config}.out"
    out.unlink(missing_ok=True)
    command = config.replace("_", "-")
    validate = run([command, "--config", cfg, "--validate"])
    ran = run([command, "--config", cfg, "--format", fmt, "--out", out])
    assert validate in (0, 2, 3) and ran in (0, 2, 3, 4)
    assert (validate == 2) == (ran == 2)
    assert out.exists() == (ran in (0, 4))
    if out.exists():
        _check_artifact(out.read_text(), fmt)
