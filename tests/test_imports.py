"""What `import thermogeom` and each subcommand load, and the public names it keeps.

The package resolves its names on first use, so these checks run in fresh
interpreters: the test process has long since imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thermogeom

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(p.stem[len("run_"):] for p in CONFIG_DIR.glob("run_*.json"))
STACK = ("exprlang", "contact", "connection")

# the subset of STACK each shipped config loads through `--validate`
LOADS = {
    "metric": set(),
    "gibbs": set(),
    "geodesic": set(),
    "third_law": set(),
    "boundary_entropy": set(),
    # their paths are lambda_exprs
    "length": {"exprlang"},
    "entropy_production": {"exprlang"},
    "contact_check": {"exprlang", "contact"},
    # their configs hold a connection
    "holonomy": {"exprlang", "contact", "connection"},
    "curvature_map": {"exprlang", "contact", "connection"},
    "flatness": {"exprlang", "contact", "connection"},
}

# the public names of the package, by home module
EXPORTS = {
    "errors": [
        "DegenerateMetricError", "ExprArityError", "ExprDomainError", "ExprNameError",
        "ExprSyntaxError", "NearSingularError", "NumericalConsistencyError",
        "NumericalDomainError", "ParameterRangeError", "SignatureError", "ThermoGeomError",
        "ValidationError",
    ],
    "linalg": ["DensityOperator", "HermitianOperator"],
    "gibbs": ["GibbsPoint", "ObservableSet", "expectation_consistency", "gibbs_point"],
    "geometry": [
        "MetricTensor", "bw_distance", "fidelity", "injectivity_diagnostic", "metric_grid",
        "metric_tensor", "state_derivatives",
    ],
    "processes": [
        "BoundaryEntropyScan", "ConvergenceRecord", "GeodesicProblem", "LengthReport",
        "ParamPath", "ThirdLawScan", "boundary_entropy_limit", "discrete_path_energy",
        "entropy_production", "geodesic_between", "segment_speed_profile", "straight_path",
        "thermo_length", "third_law_scan",
    ],
    "contact": [
        "MMetricSpec", "MuExtension", "TangentVector", "ThermoPoint",
        "contact_volume_coefficient", "equilibrium_point", "eta_eval", "fiber_membership",
        "fiber_path_length", "gM_quadratic", "gauge_translate", "legendrian_residual",
        "state_function",
    ],
    "connection": [
        "ConnectionSpec", "FlatnessReport", "HolonomyResult", "Loop", "curvature",
        "flatness_check", "holonomy_via_curvature", "holonomy_via_lift", "horizontal_lift",
        "rectangle_loop",
    ],
}
PUBLIC = sorted(name for names in EXPORTS.values() for name in names)


def fresh(code: str):
    """The JSON that code prints on its last line, run in a fresh interpreter."""
    src = str(Path(thermogeom.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = (
    "print(json.dumps(sorted(m for m in {stack} if 'thermogeom.' + m in sys.modules)))"
).format(stack=STACK)


@pytest.mark.parametrize("config", SHIPPED)
def test_a_subcommand_loads_only_the_stack_its_config_reads(config):
    cfg = CONFIG_DIR / f"run_{config}.json"
    command = config.replace("_", "-")
    code = (
        "import json, sys\n"
        "import thermogeom.cli as cli\n"
        f"assert cli.main([{command!r}, '--config', {str(cfg)!r}, '--validate']) == 0\n"
        + LOADED
    )
    assert set(fresh(code)) == LOADS[config]


def test_every_shipped_config_is_in_the_table():
    assert sorted(LOADS) == SHIPPED


def test_reading_an_observable_set_loads_no_stack_module():
    code = (
        "import json, sys\n"
        "import thermogeom.serialization as ser\n"
        "obs = ser.observable_set_from_json(ser.load_json_file("
        f"{str(CONFIG_DIR / 'observables_two_qubit.json')!r}))\n"
        "assert obs.n == 2\n"
        + LOADED
    )
    assert fresh(code) == []


def test_import_loads_no_submodule_and_submodules_resolve_on_first_use():
    code = (
        "import json, sys\n"
        "import thermogeom\n"
        "before = sorted(m for m in sys.modules if m.startswith('thermogeom.'))\n"
        "resolved = all(getattr(thermogeom, m) is sys.modules['thermogeom.' + m]\n"
        "               for m in ('geometry', 'exprlang'))\n"
        "print(json.dumps([before, resolved]))"
    )
    assert fresh(code) == [[], True]


class TestPublicSurface:
    def test_all_holds_the_public_names(self):
        assert len(PUBLIC) == 62
        assert sorted(thermogeom.__all__) == PUBLIC
        assert thermogeom.__version__ == "0.1.0"

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_each_name_is_its_home_module_object(self, module):
        home = getattr(thermogeom, module)
        assert home.__name__ == f"thermogeom.{module}"
        for name in EXPORTS[module]:
            assert getattr(thermogeom, name) is getattr(home, name)

    def test_dir_lists_every_name(self):
        listed = set(dir(thermogeom))
        assert set(PUBLIC) <= listed
        assert {"geometry", "exprlang", "connection", "__version__"} <= listed

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from thermogeom import *", namespace)
        assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC

    def test_an_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            thermogeom.no_such_name
