"""thermogeom benchmark: one seeded workload, closed loop, one client.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload metric-sweep --seed 1 --seconds 26 --trace 0

Each workload is a fixed rotation of ops whose inputs come only from the
seed.  Whole rotations run back to back until --seconds have passed; every
op's output is checked.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics from a
separate traced pass (see tracer.py).  BLAS is pinned to one thread.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere in this process or its children
PINNED_BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = PINNED_BLAS_THREADS

import argparse
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

# fresh interpreters per set-up sample; a timed run takes this many before
# and as many after its ops, so the median spans the run's drift in host speed
SETUP_REPEATS = 8
# share of --seconds each phase of a traced run is sized for
TRACE_PHASE_SHARE = 0.4
# the reference host speed: the one at which reference_kernel() takes this
# long (about its median on a 2-vCPU Intel Xeon VM at 2.0 GHz with Python
# 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31); timed figures are scaled to it
REFERENCE_KERNEL_S = 2.7e-3
# ops on each side of an op whose reference-kernel times give the host speed it met
HOST_WINDOW = 3
_REFERENCE_BATCH = np.random.default_rng(0).normal(size=(24, 8, 8, 2)).view(complex)[..., 0]
_REFERENCE_BATCH = _REFERENCE_BATCH + _REFERENCE_BATCH.conj().transpose(0, 2, 1)

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

LABELS = ("m2n1", "m4n3", "m8n8", "m16n4")
PER_LAYER = (
    ("linalg.eigh.calls", "count"),
    ("linalg.eigh.matrices", "count"),
    ("linalg.eigh.matrices_per_metric_point", "ratio"),
    *((f"linalg.eigh.matrices_per_metric_point.{x}", "ratio") for x in LABELS),
    ("linalg.eigh.self_s", "s"),
    ("gibbs.gibbs_batch.calls", "count"),
    ("gibbs.gibbs_batch.points", "count"),
    ("gibbs.gibbs_batch.self_s", "s"),
    *((f"gibbs.gibbs_batch.us_per_point.{x}", "us") for x in LABELS),
    ("geometry.metric_grid.calls", "count"),
    ("geometry.metric_grid.points", "count"),
    ("geometry.metric_grid.points_per_call", "ratio"),
    ("geometry.metric_grid.self_s", "s"),
    ("geometry.metric_grid.bytes_computed", "B"),
    *((f"geometry.metric_grid.us_per_point.{x}", "us") for x in LABELS),
    ("geometry.metric_tensor.calls", "count"),
    ("geometry.metric_tensor.self_s", "s"),
    ("processes.quadrature.self_s", "s"),
    ("processes.geodesic.iterations", "count"),
    ("processes.geodesic.energy_evals", "count"),
    ("processes.geodesic.points_per_iteration", "ratio"),
    ("processes.geodesic.converged_frac", "ratio"),
    ("processes.geodesic.self_s", "s"),
    ("contact.legendrian_residual.self_s", "s"),
    ("contact.contact_volume_coefficient.self_s", "s"),
    ("contact.mu_validated.self_s", "s"),
    ("connection.curvature.calls", "count"),
    ("connection.curvature.self_s", "s"),
    ("connection.gamma.calls", "count"),
    ("connection.gamma.self_s", "s"),
    ("connection.horizontal_lift.self_s", "s"),
    ("connection.holonomy_via_curvature.self_s", "s"),
    ("connection.flatness_check.self_s", "s"),
    ("exprlang.eval_expr.calls", "count"),
    ("exprlang.eval_expr.self_s", "s"),
    ("exprlang.evals_per_curvature", "ratio"),
    ("exprlang.parse.calls", "count"),
    ("exprlang.parse.self_s", "s"),
    ("serialization.load_json_file.self_s", "s"),
    ("serialization.path_from_json.self_s", "s"),
    ("serialization.atomic_write_text.calls", "count"),
    ("serialization.atomic_write_text.bytes", "B"),
    ("serialization.atomic_write_text.self_s", "s"),
    ("cli.load_run_config.self_s", "s"),
    ("cli.handler.self_s", "s"),
    ("cli.main.self_s", "s"),
    *((f"cli.exit.{x}", "count") for x in ("0", "2", "3", "4", "traceback")),
    ("trace.overhead_frac", "ratio"),
)


def workload_class(name: str):
    if name == "metric-sweep":
        from metric_sweep import MetricSweep
        return MetricSweep
    if name == "geodesic-solve":
        from geodesic_solve import GeodesicSolve
        return GeodesicSolve
    if name == "connection-fields":
        from connection_fields import ConnectionFields
        return ConnectionFields
    if name == "cli-configs":
        from cli_configs import CliConfigs
        return CliConfigs
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("metric-sweep", "geodesic-solve", "connection-fields", "cli-configs")


# ---- environment --------------------------------------------------------------


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(PINNED_BLAS_THREADS),
        "seed": seed,
    }


# ---- measurement --------------------------------------------------------------


def _expression_tree(rng: random.Random, depth: int) -> tuple:
    if depth == 0:
        return ("x", rng.random())
    return (rng.choice("+*"), _expression_tree(rng, depth - 1), _expression_tree(rng, depth - 1))


def _walk(node: tuple, env: dict) -> float:
    if node[0] == "x":
        return node[1] * env["l1"]
    a, b = _walk(node[1], env), _walk(node[2], env)
    return a + b if node[0] == "+" else 0.5 * a * b


_REFERENCE_TREES = [_expression_tree(random.Random(i), 10) for i in range(5)]


def reference_kernel() -> float:
    """Fixed benchmark-side work that no change to the program can alter.

    A batched complex eigendecomposition with an einsum, and a walk over
    10 000 nodes of Python expression trees: the two kinds of work the
    workloads' ops do, in about equal time.  Timed after each op of a timed
    run, it measures how fast the host runs at that moment.  Of the kernels
    tried (each half alone, an interpreter loop with small eigh calls, a
    strided sum over 32 MB), this one tracked the ops' slowdowns best.
    """
    _, u = np.linalg.eigh(_REFERENCE_BATCH)
    acc = float(np.einsum("pai,pab,pbj->pij", u.conj(), _REFERENCE_BATCH, u)[0, 0, 0].real)
    env = {"l1": 0.7}
    return acc + sum(_walk(tree, env) for tree in _REFERENCE_TREES)


class Tally:
    """Per-op latencies and the correctness verdicts of one phase."""

    def __init__(self) -> None:
        self.kinds: list[str] = []
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: list[float] = []

    def run(self, ops, op_base: int, tracer=None, calibrate: bool = False) -> None:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = op_base + i
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                result = op.call()
                error = None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            self.attempted += 1
            self.kinds.append(op.kind)
            self.latencies.append(dt)
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:  # a check that cannot read the output fails the op
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                self.failures.append(f"{op.kind}: {error}")
            if calibrate:
                reference_kernel()  # refills the caches the op evicted, so only the host shows
                t0 = time.perf_counter()
                reference_kernel()
                self.reference.append(time.perf_counter() - t0)

    def by_kind(self, latencies: list[float] | None = None) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for kind, dt in zip(self.kinds, self.latencies if latencies is None else latencies):
            out.setdefault(kind, []).append(dt)
        return out

    def typical(self, slowdowns: list[float] | None = None) -> list[float]:
        """Each op's latency replaced by the median latency of its kind in the run.

        With `slowdowns`, each latency is first divided by the host slowdown
        its op met.  The host's speed drifts by 10-20 % over seconds; a
        kind's median over the whole run is robust to such bursts, and the
        op mix is unchanged.
        """
        lat = self.latencies if slowdowns is None else [dt / s for dt, s in zip(self.latencies, slowdowns)]
        medians = {kind: statistics.median(v) for kind, v in self.by_kind(lat).items()}
        return [medians[kind] for kind in self.kinds]

    def host_slowdowns(self) -> list[float]:
        """Per op, the host slowdown it met: the median reference-kernel time
        of the ops within HOST_WINDOW of it, over REFERENCE_KERNEL_S.

        The host's speed drifts by 20-60 % over seconds to minutes (other
        tenants on the same cores; no steal time shows, and CPU time drifts
        with wall time), which no statistic over the ops alone can see.
        """
        ref = self.reference
        return [statistics.median(ref[max(0, i - HOST_WINDOW): i + HOST_WINDOW + 1]) / REFERENCE_KERNEL_S
                for i in range(len(ref))]


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def end_to_end(setup_s: float, lat: list[float]) -> dict:
    return {
        "setup_s": setup_s,
        "op_ms_p50": 1e3 * percentile(lat, 50),
        "op_ms_p90": 1e3 * percentile(lat, 90),
        "ops_per_s": len(lat) / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_setup(spec: dict, tmp: Path) -> list[float]:
    spec_path = tmp / "setup_spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(spec_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_timed(workload, seconds: float) -> Tally:
    """Whole rotations until the next one would end past `seconds`."""
    tally = Tally()
    start = time.perf_counter()
    r = 0
    while True:
        tally.run(workload.rotation(r), len(tally.latencies), calibrate=True)
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / r > seconds:
            return tally


def layer_metrics(tr, overhead_frac: float) -> dict:
    from tracer import SPAN_CURV, SPAN_EIGH, SPAN_EVAL, SPAN_GEO, SPAN_GIBBS, SPAN_GRID

    c, calls, self_s = tr.counts, tr.calls, tr.self_s

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    solves = c["processes.geodesic.solves"]
    out = {
        "linalg.eigh.calls": calls[SPAN_EIGH],
        "linalg.eigh.matrices": c["linalg.eigh.matrices"],
        "linalg.eigh.matrices_per_metric_point": ratio(
            c["linalg.eigh.matrices_in_metric_grid"], c["geometry.metric_grid.points"]),
        "linalg.eigh.self_s": self_s[SPAN_EIGH],
        "gibbs.gibbs_batch.calls": calls[SPAN_GIBBS],
        "gibbs.gibbs_batch.points": c["gibbs.gibbs_batch.points"],
        "gibbs.gibbs_batch.self_s": self_s[SPAN_GIBBS],
        "geometry.metric_grid.calls": calls[SPAN_GRID],
        "geometry.metric_grid.points": c["geometry.metric_grid.points"],
        "geometry.metric_grid.points_per_call": ratio(c["geometry.metric_grid.points"], calls[SPAN_GRID]),
        "geometry.metric_grid.self_s": self_s[SPAN_GRID],
        "geometry.metric_grid.bytes_computed": c["geometry.metric_grid.bytes_computed"],
        "processes.geodesic.iterations": ratio(c["processes.geodesic.iterations"], solves),
        "processes.geodesic.energy_evals": ratio(c["processes.geodesic.metric_calls"], solves),
        "processes.geodesic.points_per_iteration": ratio(
            c["processes.geodesic.metric_points"], c["processes.geodesic.iterations"]),
        "processes.geodesic.converged_frac": ratio(c["processes.geodesic.converged"], solves),
        "processes.geodesic.self_s": self_s[SPAN_GEO],
        "connection.curvature.calls": calls[SPAN_CURV],
        "connection.gamma.calls": calls["connection.gamma"],
        "exprlang.eval_expr.calls": calls[SPAN_EVAL],
        "exprlang.evals_per_curvature": ratio(c["exprlang.evals_in_curvature"], calls[SPAN_CURV]),
        "exprlang.parse.calls": calls["exprlang.parse"],
        "serialization.atomic_write_text.calls": calls["serialization.atomic_write_text"],
        "serialization.atomic_write_text.bytes": c["serialization.atomic_write_text.bytes"],
        "trace.overhead_frac": overhead_frac,
    }
    for x in LABELS:
        out[f"linalg.eigh.matrices_per_metric_point.{x}"] = ratio(
            c[f"linalg.eigh.matrices_in_metric_grid.{x}"], c[f"geometry.metric_grid.points.{x}"])
        for key in (SPAN_GIBBS, SPAN_GRID):
            out[f"{key}.us_per_point.{x}"] = 1e6 * ratio(c[f"{key}.incl_s.{x}"], c[f"{key}.points.{x}"])
    for code in ("0", "2", "3", "4", "traceback"):
        out[f"cli.exit.{code}"] = c[f"cli.exit.{code}"]
    for name, unit in PER_LAYER:
        if name not in out:
            # every remaining name is <span>.self_s
            out[name] = self_s[name[: -len(".self_s")]]
    return out


# ---- entry --------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result document (also written to disk)."""
    if not (SRC / "thermogeom" / "__init__.py").is_file():
        raise FileNotFoundError(f"no thermogeom sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tmp = TMP_DIR / f"{workload_name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload = workload_class(workload_name)(seed, ROOT, tmp)
        spec = workload.setup_spec()
        setup_times = measure_setup(spec, tmp)

        import thermogeom as tg
        from objects import build_objects

        workload.build(tg, build_objects(spec))
        Tally().run(workload.rotation(0), 0)  # warm-up, not measured

        if not trace:
            tally = run_timed(workload, seconds)
            setup_times += measure_setup(spec, tmp)
            slowdowns = tally.host_slowdowns()
            slowdown = statistics.median(slowdowns)
            wall = end_to_end(statistics.median(setup_times), tally.typical())
            # set-up stays wall time: fresh interpreters starting up do not slow
            # with the reference kernel, and scaling them doubled their spread
            metrics = end_to_end(wall["setup_s"], tally.typical(slowdowns))
            units = dict(END_TO_END)
            tallies = [tally]
        else:
            from tracer import Tracer

            rotations = max(1, round(seconds * TRACE_PHASE_SHARE / workload.nominal_rotation_s))
            plain = Tally()
            for r in range(rotations):
                plain.run(workload.rotation(r), len(plain.latencies))
            tracer = Tracer()
            traced = Tally()
            tracer.install(tg)
            try:
                for r in range(rotations):
                    traced.run(workload.rotation(r), len(traced.latencies), tracer)
            finally:
                tracer.uninstall()
            overhead = percentile(traced.typical(), 50) / percentile(plain.typical(), 50) - 1.0
            metrics = layer_metrics(tracer, overhead)
            units = dict(PER_LAYER)
            tallies = [plain, traced]
            wall, slowdown = {}, None
            tracer.dump(OUT_DIR / f"trace_{workload_name}_seed{seed}.json")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass

    attempted = sum(t.attempted for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    return {
        "workload": workload_name,
        "trace": int(trace),
        "seconds": seconds,
        "op_samples": sum(len(t.latencies) for t in tallies),
        "latency_s_by_kind": tallies[-1].by_kind(),
        "setup_samples_s": setup_times,
        "host_slowdown": slowdown,
        "wall_metrics": wall,
        "environment": environment(seed),
        "failures": failures,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ModuleNotFoundError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(doc, indent=1), encoding="utf-8")
    print(f"# environment: {json.dumps(doc['environment'])}")
    print(f"# {args.workload}: {doc['op_samples']} ops timed, "
          f"fail_frac {doc['failed'] / doc['attempted']:.4g} ({doc['failed']}/{doc['attempted']})")
    for reason in doc["failures"][:20]:
        print(f"# failed: {reason}")
    if doc["host_slowdown"] is not None:
        print(f"# host slowdown {doc['host_slowdown']:.4g} (median over the ops; reference kernel "
              f"{REFERENCE_KERNEL_S * 1e3:g} ms); wall-clock figures: "
              + ", ".join(f"{k} {v:.6g}" for k, v in doc["wall_metrics"].items()))
    for name, m in doc["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    line = {k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
