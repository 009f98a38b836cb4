import copy
import functools
import json
import math
import operator
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from thermogeom import cli
from thermogeom.cli import CONFIG_KEYS, main
from thermogeom.inputs import MAX_COUNT

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
        assert json.loads(out.read_text())["max_residual"] < 1e-8


class TestHolonomyCommand:
    def test_lift_and_curvature_agree(self, tmp_path):
        out = tmp_path / "hol.json"
        code = run(
            ["holonomy", "--config", CONFIG_DIR / "run_holonomy.json", "--out", out]
        )
        assert code == 0
        results = {r["method"]: r for r in json.loads(out.read_text())["results"]}
        assert results["lift"]["dS"] == pytest.approx(-1.0, abs=1e-6)
        assert results["curvature-integral"]["dS"] == pytest.approx(-1.0, abs=1e-6)
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
}


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
        edit(doc[config])
    cfg = write_config(tmp_path, "cfg.json", doc)
    out = tmp_path / "artifact"
    command = config.replace("_", "-")
    assert run([command, "--config", cfg, "--validate", "--out", out]) == 2
    assert run([command, "--config", cfg, "--out", out]) == 2
    assert not out.exists()
    if name in UNKNOWN_KEYS:
        assert capsys.readouterr().err.count(repr(key)) == 2


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
_JSON_VALUES = st.one_of(
    st.integers(-3, 20),
    st.floats(-1e3, 1e3),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.lists(st.integers(-2, 3), max_size=3), max_size=3),
    st.just({}),
    st.just(MAX_COUNT + 1),
)


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


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("config", SHIPPED)
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_mutated_config_keeps_the_exit_contract(config, data, fuzz_dir):
    doc = shipped_config(config)
    *parents, last = data.draw(st.sampled_from(list(_sites(doc))), label="site")
    value = data.draw(st.one_of(st.just(_DELETE), _JSON_VALUES), label="value")
    holder = functools.reduce(operator.getitem, parents, doc)
    if value is _DELETE:
        del holder[last]
    else:
        holder[last] = value
    cfg = write_config(fuzz_dir, f"{config}.json", doc)
    out = fuzz_dir / f"{config}.out"
    out.unlink(missing_ok=True)
    command = config.replace("_", "-")
    validate = run([command, "--config", cfg, "--validate"])
    ran = run([command, "--config", cfg, "--out", out])
    assert validate in (0, 2, 3) and ran in (0, 2, 3, 4)
    assert (validate == 2) == (ran == 2)
    assert out.exists() == (ran in (0, 4))
