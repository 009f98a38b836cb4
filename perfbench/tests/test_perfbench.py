"""The benchmark's own tests: seeded inputs, correctness gate, tracing, names.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import exprgen
import run
import tracer
from common import PAULI_FAMILIES, qubit_metric, reference_metric, stream
from objects import build_objects

import thermogeom as tg
import thermogeom.cli as cli

SCRATCH = run.ROOT / ".perfbench_tmp" / "tests"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture
def scratch():
    path = SCRATCH / str(len(list(SCRATCH.glob("*"))) if SCRATCH.exists() else 0)
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def build(name, seed, tmp):
    workload = run.workload_class(name)(seed, run.ROOT, tmp)
    workload.build(tg, build_objects(workload.setup_spec()))
    return workload


def _feed(h, value):
    if isinstance(value, np.ndarray):
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        for item in value:
            _feed(h, item)
    elif isinstance(value, dict):
        h.update(json.dumps(value, sort_keys=True).encode())
    else:
        h.update(repr(value).encode())


def fingerprint(name, seed, tmp) -> str:
    workload = build(name, seed, tmp)
    h = hashlib.sha256()
    spec = workload.setup_spec()
    spec["configs"] = [p.rsplit("/", 1)[-1] for p in spec.get("configs", [])]
    h.update(json.dumps(spec, sort_keys=True).encode())
    for r in (0, 1):
        for op in workload.rotation(r):
            h.update(op.kind.encode())
            _feed(h, op.inputs)
    return h.hexdigest()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_fixes_inputs(name, scratch):
    first = fingerprint(name, 11, scratch / "a")
    assert fingerprint(name, 11, scratch / "b") == first
    assert fingerprint(name, 12, scratch / "c") != first


def test_scaled_metric_counts_as_failure(scratch, monkeypatch):
    workload = build("metric-sweep", 3, scratch)
    ops = [op for op in workload.rotation(0) if op.kind.startswith("metric_grid") and op.kind.endswith(".P16")]
    honest = run.Tally()
    honest.run(ops, 0)
    assert honest.failures == []
    original = tg.geometry.metric_grid
    monkeypatch.setattr(tg.geometry, "metric_grid", lambda *a, **k: 1.01 * original(*a, **k))
    corrupted = run.Tally()
    corrupted.run(ops, 0)
    assert len(corrupted.failures) == len(ops)


def test_changed_artifact_counts_as_failure(scratch, monkeypatch):
    workload = build("cli-configs", 3, scratch)
    ops = [op for op in workload.rotation(0) if op.kind == "run.metric.json"]
    tally = run.Tally()
    tally.run(ops, 0)
    original = cli._render_json
    monkeypatch.setattr(cli, "_render_json", lambda payload: original(payload) + " ")
    tally.run(ops, 0)
    assert tally.attempted == 2 and len(tally.failures) == 1
    assert "differ" in tally.failures[0]


def test_host_slowdown_cancels_from_scaled_latencies():
    tally = run.Tally()
    tally.kinds = ["a", "b"] * 20
    base = [0.01, 0.03] * 20
    # the host runs 1.5x slower for the second half of the run
    speed = [1.0] * 20 + [1.5] * 20
    tally.latencies = [t * s for t, s in zip(base, speed)]
    tally.reference = [run.REFERENCE_KERNEL_S * s for s in speed]
    assert tally.typical(tally.host_slowdowns()) == pytest.approx(base)
    assert tally.typical() != pytest.approx(base)


def _bindings() -> dict:
    """Every object the tracer may replace, keyed by where it is bound."""
    state = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "thermogeom" or mod_name.startswith("thermogeom.")):
            for attr, value in vars(mod).items():
                if callable(value):
                    state[(mod_name, attr)] = value
    state[("numpy.linalg", "eigh")] = np.linalg.eigh
    state[("numpy.linalg", "eigvalsh")] = np.linalg.eigvalsh
    state[("ConnectionSpec", "gamma")] = tg.connection.ConnectionSpec.__dict__["gamma"]
    state[("MuExtension", "validated")] = tg.contact.MuExtension.__dict__["validated"]
    for command, handler in cli._HANDLERS.items():
        state[("_HANDLERS", command)] = handler
    return state


def test_untimed_run_installs_no_wrappers(monkeypatch):
    before = _bindings()

    def refuse(self, package):
        raise AssertionError("an untraced run installed the tracer")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    doc = run.run("connection-fields", 1, 0.1, trace=False)
    assert doc["correct"]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_run_reports_every_layer_metric_and_restores_bindings():
    before = _bindings()
    doc = run.run("connection-fields", 1, 0.1, trace=True)
    assert doc["correct"]
    assert set(doc["metrics"]) == {name for name, _ in run.PER_LAYER}
    assert doc["metrics"]["connection.curvature.calls"]["value"] > 0
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_metric_names_and_benchmark_file():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {(m["name"], m["unit"]) for m in bench["end_to_end"]} == set(run.END_TO_END)
    assert {(m["name"], m["unit"]) for m in bench["per_layer"]} == set(run.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    for name, _ in (*run.END_TO_END, *run.PER_LAYER):
        assert NAME.fullmatch(name), name


def test_without_sources_exits_nonzero_and_prints_no_result(scratch):
    shutil.copytree(run.HERE, scratch / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "metric-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_field_calculus_matches_the_program_and_finite_differences():
    for i in range(6):
        rng = stream(5, i)
        n = 2 + i % 2
        tree = exprgen.field(rng, n)
        lam = rng.uniform(-0.9, 0.9, n)
        parsed = tg.exprlang.parse(exprgen.render(tree), n)
        env = {f"l{k + 1}": float(lam[k]) for k in range(n)}
        value = float(exprgen.evaluate(tree, lam[:, None])[0])
        assert tg.exprlang.eval_expr(parsed, env) == pytest.approx(value, rel=1e-13, abs=1e-13)
        for k in range(n):
            step = np.zeros(n)
            step[k] = 1e-6
            fd = (exprgen.evaluate(tree, (lam + step)[:, None])[0]
                  - exprgen.evaluate(tree, (lam - step)[:, None])[0]) / 2e-6
            exact = float(exprgen.evaluate(exprgen.diff(tree, k), lam[:, None])[0])
            assert exact == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_metric_oracles_agree():
    rng = stream(9)
    for key, mats in PAULI_FAMILIES.items():
        stack = np.stack(mats)
        for _ in range(5):
            lam = rng.uniform(-2.0, 2.0, stack.shape[0])
            np.testing.assert_allclose(reference_metric(stack, lam), qubit_metric(lam), rtol=1e-10, atol=1e-12)
