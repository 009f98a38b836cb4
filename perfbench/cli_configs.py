"""cli-configs: in-process `cli.main` on the shipped configs and seeded edits.

The only workload through `cli` and `serialization` (parse, render,
atomic write).  Each rotation runs all 11 shipped run configs x {json,
csv} with --out, the same configs under --validate, and every edit in
MUTATIONS with seeded values, both under --validate and as a run.  So
parse-only and rejected runs sit beside full ones.

Every edit keeps grids and paths within 4x their shipped size, because the
CLI does not cap sizes before it allocates.  Each edit states the exit
code the documented contract gives it (0, 2, 3 or 4) and, for exit 0,
an analytic oracle for the artifact.  Edits that expose known defects
(validate/run mismatches, raw tracebacks) are listed in KNOWN_DEFECTS and
run by defects.py, not here: an op of a benchmark workload must not fail
on the parent commit.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import shutil
from pathlib import Path
from typing import Callable

import numpy as np

from common import Op, close, gd, stream

SHIPPED = (
    "boundary_entropy", "contact_check", "curvature_map", "entropy_production", "flatness",
    "geodesic", "gibbs", "holonomy", "length", "metric", "third_law",
)
FORMATS = ("json", "csv")


def _command(config: str) -> str:
    return config.replace("_", "-")


# ---- artifact oracles ---------------------------------------------------------
# each takes the parsed JSON artifact and returns None or a failure reason


def _gibbs_oracle(lam: float):
    def check(doc) -> str | None:
        z, a = 2.0 * math.cosh(lam), -math.tanh(lam)
        s = math.log(z) + lam * a
        ok = close(doc["Z"], z, 1e-12, 0) and close(doc["a"][0], a, 1e-12, 1e-15) and close(doc["S"], s, 1e-12, 1e-15)
        return None if ok else f"gibbs at {lam}: Z={doc['Z']!r} a={doc['a']!r} S={doc['S']!r}"
    return check


def _metric_oracle(doc) -> str | None:
    for lam, g in doc["rows"]:
        if not close(g, 1.0 / math.cosh(lam) ** 2, 0.0, 1e-8):
            return f"g({lam}) = {g!r}, sech^2 = {1.0 / math.cosh(lam) ** 2!r}"
    return None


def _length_oracle(end: float, rtol: float):
    def check(doc) -> str | None:
        return None if close(doc["length"], gd(end), rtol, 0.0) else f"length {doc['length']!r}, gd = {gd(end)!r}"
    return check


def _entropy_oracle(kappa: float):
    def check(doc) -> str | None:
        expect = kappa * math.tanh(1.0)
        return None if close(doc["total"], expect, 1e-3, 0.0) else f"total {doc['total']!r}, oracle {expect!r}"
    return check


def _geodesic_oracle(end: float):
    def check(doc) -> str | None:
        conv = doc["convergence"]
        if not conv["converged"] or conv["energy_final"] > conv["energy_initial"]:
            return f"geodesic convergence record {conv}"
        return _length_oracle(end, 2e-3)(doc)
    return check


def _third_law_oracle(doc) -> str | None:
    for lam, length in zip(doc["Lambda"], doc["length"]):
        if not close(length, gd(lam), 0.0, 1e-3):
            return f"length to {lam} is {length!r}, gd = {gd(lam)!r}"
    return None


def _boundary_oracle(doc) -> str | None:
    # qutrit P0 along +1: populations (e^-L, 1, 1) / Z, ground degeneracy 2
    if doc["ground_degeneracy"] != 2:
        return f"ground degeneracy {doc['ground_degeneracy']}"
    for lam, s in zip(doc["Lambda"], doc["S"]):
        p = np.array([math.exp(-lam), 1.0, 1.0])
        p /= p.sum()
        p = p[p > 0]
        if not close(s, float(-(p * np.log(p)).sum()), 1e-12, 1e-15):
            return f"S({lam}) = {s!r}"
    return None


def _contact_oracle(doc) -> str | None:
    return None if abs(doc["max_residual"]) <= 1e-7 else f"Legendrian residual {doc['max_residual']!r}"


def _holonomy_oracle(area: float):
    # h = (0, l1), g_S = 1: R_12 = 1, so both methods give -area
    def check(doc) -> str | None:
        for res in doc["results"]:
            if not close(res["dS"], -area, 1e-6, 1e-12):
                return f"{res['method']} holonomy {res['dS']!r}, expected {-area!r}"
        return None
    return check


def _curvature_map_oracle(doc) -> str | None:
    # h = (0, l1 l2), g_S = 1: R_12 = l2
    for l1, l2, r in doc["rows"]:
        if not close(r, l2, 0.0, 1e-8):
            return f"R_12({l1}, {l2}) = {r!r}"
    return None


def _flatness_oracle(doc) -> str | None:
    ok = doc["flat"] and doc["max_abs_curvature"] <= doc["tol"]
    return None if ok else f"exact spec reported {doc}"


SHIPPED_ORACLES = {
    "boundary_entropy": _boundary_oracle,
    "contact_check": _contact_oracle,
    "curvature_map": _curvature_map_oracle,
    "entropy_production": _entropy_oracle(1.0),
    "flatness": _flatness_oracle,
    "geodesic": _geodesic_oracle(1.0),
    "gibbs": _gibbs_oracle(0.5),
    "holonomy": _holonomy_oracle(1.0),
    "length": _length_oracle(1.0, 1e-5),
    "metric": _metric_oracle,
    "third_law": _third_law_oracle,
}


# ---- edits --------------------------------------------------------------------
# each takes (rng, config) and edits the config in place; it returns the run's
# exit code under the documented contract and, for exit 0, the artifact oracle


def _edit_gibbs_lambda(rng, cfg):
    lam = round(float(rng.uniform(-3.0, 3.0)), 6)
    cfg["gibbs"]["lambda"] = [lam]
    return 0, _gibbs_oracle(lam)


def _edit_metric_grid(rng, cfg):
    cfg["metric"]["grid"] = {"start": [float(rng.uniform(-4, -1))], "stop": [float(rng.uniform(1, 4))],
                             "num": [int(rng.integers(2, 4 * 41 + 1))]}
    return 0, _metric_oracle


def _edit_metric_boundary(rng, cfg):
    # the documented boundary contract: p_i + p_j < 1e-14 near qubit lambda 17.3 -> exit 3
    cfg["metric"]["grid"] = {"start": [float(rng.uniform(0, 2))], "stop": [float(rng.uniform(18.5, 25))],
                             "num": [int(rng.integers(8, 41))]}
    return 3, None


def _edit_length_steps(rng, cfg):
    end = float(rng.uniform(0.5, 2.0))
    cfg["length"]["path"].update(steps=int(rng.integers(64, 4 * 512 + 1)), duration=end)
    return 0, _length_oracle(end, 1e-4)


def _edit_entropy_kappa(rng, cfg):
    kappa = float(rng.uniform(0.1, 5.0))
    cfg["entropy_production"]["kappa"] = kappa
    cfg["entropy_production"]["path"]["steps"] = int(rng.integers(32, 4 * 128 + 1))
    return 0, _entropy_oracle(kappa)


def _edit_third_law_lambda(rng, cfg):
    lams = sorted({round(float(x), 3) for x in rng.uniform(0.5, 12.0, int(rng.integers(2, 6)))})
    cfg["third_law"].update(Lambda=lams, steps=int(rng.integers(256, 4 * 512 + 1)))
    return 0, _third_law_oracle


def _edit_boundary_lambda(rng, cfg):
    lams = sorted({round(float(x), 3) for x in rng.uniform(0.0, 40.0, int(rng.integers(2, 7)))})
    cfg["boundary_entropy"]["Lambda"] = lams
    return 0, _boundary_oracle


def _edit_contact_grid(rng, cfg):
    cfg["contact_check"]["grid"] = {"start": [float(rng.uniform(-3, -1))], "stop": [float(rng.uniform(1, 3))],
                                    "num": [int(rng.integers(2, 4 * 41 + 1))]}
    return 0, _contact_oracle


def _edit_holonomy_grid(rng, cfg):
    hi = [round(float(x), 3) for x in rng.uniform(0.5, 1.5, 2)]
    g = int(rng.choice([8, 16, 32]))
    cfg["holonomy"]["rectangle"].update(hi=hi, grid=[g, g], steps=4 * int(rng.integers(16, 257)))
    return 0, _holonomy_oracle(hi[0] * hi[1])


def _edit_geodesic_end(rng, cfg):
    end = float(rng.uniform(0.5, 1.5))
    cfg["geodesic"].update(end=[end], interior_points=int(rng.integers(11, 16)))
    return 0, _geodesic_oracle(end)


def _edit_geodesic_budget(rng, cfg):
    cfg["geodesic"]["max_iters"] = 1
    return 4, None


def _edit_curvature_map_grid(rng, cfg):
    k = int(rng.integers(2, 11))
    cfg["curvature_map"]["grid"]["num"] = [k, k]
    return 0, _curvature_map_oracle


def _edit_flatness_grid(rng, cfg):
    k = int(rng.integers(2, 11))
    cfg["flatness"]["grid"]["num"] = [k, k]
    return 0, _flatness_oracle


def _rejected(edit: Callable[[np.random.Generator, dict], None]):
    def apply(rng, cfg):
        edit(rng, cfg)
        return 2, None
    return apply


MUTATIONS = (
    ("gibbs", "gibbs_lambda", _edit_gibbs_lambda),
    ("metric", "metric_grid", _edit_metric_grid),
    ("metric", "metric_boundary", _edit_metric_boundary),
    ("length", "length_steps", _edit_length_steps),
    ("entropy_production", "entropy_kappa", _edit_entropy_kappa),
    ("third_law", "third_law_lambda", _edit_third_law_lambda),
    ("boundary_entropy", "boundary_lambda", _edit_boundary_lambda),
    ("contact_check", "contact_grid", _edit_contact_grid),
    ("holonomy", "holonomy_grid", _edit_holonomy_grid),
    ("geodesic", "geodesic_end", _edit_geodesic_end),
    ("geodesic", "geodesic_budget", _edit_geodesic_budget),
    ("curvature_map", "curvature_map_grid", _edit_curvature_map_grid),
    ("flatness", "flatness_grid", _edit_flatness_grid),
    ("gibbs", "fd_order", _rejected(lambda rng, c: c.update(fd={"order": 3}))),
    ("gibbs", "kappa_negative", _rejected(lambda rng, c: c.update(kappa=-float(rng.uniform(0.1, 2.0))))),
    ("gibbs", "lambda_length", _rejected(lambda rng, c: c["gibbs"].update(**{"lambda": [0.1, 0.2]}))),
    ("holonomy", "expr_syntax", _rejected(lambda rng, c: c["connection"].update(h=["0", "l1*"]))),
    ("holonomy", "expr_variable", _rejected(lambda rng, c: c["connection"].update(h=["0", "t"]))),
    ("holonomy", "holonomy_method", _rejected(lambda rng, c: c["holonomy"].update(method="spiral"))),
    ("metric", "missing_section", _rejected(lambda rng, c: c.pop("metric"))),
    ("metric", "missing_observables", _rejected(lambda rng, c: c.update(observables="absent.json"))),
    ("metric", "grid_num_negative", _rejected(lambda rng, c: c["metric"]["grid"].update(num=[-3]))),
    ("geodesic", "start_length", _rejected(lambda rng, c: c["geodesic"].update(start=[0.0, 1.0]))),
)

# Invalid edits on which the CLI breaks its contract (both --validate and the
# run should exit 2) at the time of writing.  (config, name, edit, defect class)
KNOWN_DEFECTS = (
    ("holonomy", "rectangle_steps_8", lambda c: c["holonomy"]["rectangle"].update(steps=8),
     "validate/run mismatch"),
    ("third_law", "third_law_steps_4", lambda c: c["third_law"].update(steps=4), "validate/run mismatch"),
    ("third_law", "decreasing_lambda", lambda c: c["third_law"].update(Lambda=[8.0, 4.0, 2.0]),
     "validate/run mismatch"),
    ("third_law", "direction_not_unit", lambda c: c["third_law"].update(direction=[2.0]),
     "validate/run mismatch"),
    ("length", "samples_not_numeric",
     lambda c: c["length"].update(path={"duration": 1.0, "samples": [["a"]] * 9}), "raw traceback"),
    ("length", "samples_ragged",
     lambda c: c["length"].update(path={"duration": 1.0, "samples": [[0.0]] * 8 + [[0.0, 1.0]]}),
     "raw traceback"),
    ("gibbs", "lambda_bool", lambda c: c["gibbs"].update(**{"lambda": [True]}), "bool taken as a number"),
)


# ---- the workload -------------------------------------------------------------


def invoke(cli, argv: list[str]):
    """cli.main in process; an escaping exception is reported, not raised."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except (Exception, SystemExit) as exc:  # a traceback the user would see
            return f"traceback: {type(exc).__name__}: {exc}"


def read_artifact(path: Path, fmt: str):
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("CSV artifact needs a header and rows of equal width")
    return rows


class CliConfigs:
    nominal_rotation_s = 1.5

    def __init__(self, seed: int, root: Path, tmp: Path) -> None:
        self.seed = seed
        self.cfg_dir = tmp / "configs"
        self.out_dir = tmp / "out"
        shutil.copytree(root / "configs", self.cfg_dir)
        self.out_dir.mkdir(parents=True)
        self.base = {c: json.loads((self.cfg_dir / f"run_{c}.json").read_text()) for c in SHIPPED}
        self.first_bytes: dict[str, bytes] = {}
        self.cli = None

    def setup_spec(self) -> dict:
        return {"configs": [str(self.cfg_dir / f"run_{c}.json") for c in SHIPPED]}

    def build(self, tg, objects: dict) -> None:
        import thermogeom.cli as cli

        self.cli = cli

    def rotation(self, r: int) -> list[Op]:
        ops: list[Op] = []
        for config in SHIPPED:
            path = self.cfg_dir / f"run_{config}.json"
            for fmt in FORMATS:
                out = self.out_dir / f"{config}.{fmt}"
                ops.append(self._run_op(f"run.{config}.{fmt}", config, path, fmt, out, 0,
                                        SHIPPED_ORACLES[config], repeatable=True))
            ops.append(self._validate_op(f"validate.{config}", config, path, 0))
        for i, (config, name, edit) in enumerate(MUTATIONS):
            cfg = copy.deepcopy(self.base[config])
            code, oracle = edit(stream(self.seed, 9, r, i), cfg)
            path = self.cfg_dir / f"mut-{r}-{i}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            ops.append(self._validate_op(f"validate.edit.{name}", config, path, 2 if code == 2 else 0))
            out = self.out_dir / f"mut-{r}-{i}.json"
            out.unlink(missing_ok=True)  # a rejected run must leave no artifact
            ops.append(self._run_op(f"run.edit.{name}", config, path, "json", out, code, oracle))
        return ops

    def _validate_op(self, kind: str, config: str, path: Path, expect: int) -> Op:
        argv = [_command(config), "--config", str(path), "--validate"]
        cli = self.cli
        return Op(kind, lambda: invoke(cli, argv),
                  lambda code: None if code == expect else f"exit {code!r}, expected {expect}",
                  (path.read_text(encoding="utf-8"),))

    def _run_op(self, kind, config, path, fmt, out: Path, expect: int, oracle, repeatable=False) -> Op:
        argv = [_command(config), "--config", str(path), "--format", fmt, "--out", str(out)]
        cli = self.cli

        def check(code) -> str | None:
            if code != expect:
                return f"exit {code!r}, expected {expect}"
            if expect in (2, 3):
                return f"artifact written on exit {expect}" if out.exists() else None
            data = out.read_bytes()
            if repeatable:
                first = self.first_bytes.setdefault(str(out), data)
                if data != first:
                    return "artifact bytes differ from the first run of this config"
            doc = read_artifact(out, fmt)
            if expect == 4:
                return None if not doc["convergence"]["converged"] else "exit 4 but converged"
            return oracle(doc) if fmt == "json" else None

        return Op(kind, lambda: invoke(cli, argv), check, (path.read_text(encoding="utf-8"), fmt))
