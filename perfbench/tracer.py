"""Outside-in layer tracing: spans around the program's public functions.

The tracer replaces each traced function at every module binding that
holds it (`from .gibbs import gibbs_batch` copies the name into each
importing module), plus the CLI handler table and numpy's eigh/eigvalsh.
`uninstall` puts every original back.  Nothing is replaced unless
`install` runs, and an untraced run never calls it.

Spans record (name, start, end, parent span, op id) and stay in memory
until `dump`.  A span's self time is its duration minus that of its child
spans; counts are taken at the same boundaries, so ratios such as eigh
matrices per metric point are measured where the work happens.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

from common import size_label

# spans kept for the trace file; counts and self times cover every call
MAX_KEPT_SPANS = 100_000

SPAN_EIGH = "linalg.eigh"
SPAN_GIBBS = "gibbs.gibbs_batch"
SPAN_GRID = "geometry.metric_grid"
SPAN_TENSOR = "geometry.metric_tensor"
SPAN_QUAD = "processes.quadrature"
SPAN_GEO = "processes.geodesic"
SPAN_CURV = "connection.curvature"
SPAN_EVAL = "exprlang.eval_expr"
SPAN_MAIN = "cli.main"


def _points(lams) -> int:
    return int(np.atleast_2d(np.asarray(lams, dtype=float)).shape[0])


def _family_label(args) -> str:
    obs = args[0]
    return size_label(obs.dim, obs.n)


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.dropped = 0
        self.stack: list[list] = []  # [name, t0, child_s, span index, label]
        self.depth: dict[str, int] = defaultdict(int)  # open frames per span name
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[Any, str, Any]] = []

    # ---- span bookkeeping --------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, nid: int, name: str, label: str | None) -> list:
        parent = self.stack[-1][3] if self.stack else -1
        idx = len(self.spans)
        if idx < MAX_KEPT_SPANS:
            self.spans.append([nid, 0.0, 0.0, parent, self.op])
        else:
            idx = -1
            self.dropped += 1
        self.depth[name] += 1
        frame = [name, 0.0, 0.0, idx, label]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> float:
        t1 = time.perf_counter()
        self.stack.pop()
        name, t0, child_s, idx, _ = frame
        dur = t1 - t0
        self.depth[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += dur - child_s
        if self.stack:
            self.stack[-1][2] += dur
        if idx >= 0:
            self.spans[idx][1] = t0
            self.spans[idx][2] = t1
        return dur

    def innermost(self, name: str) -> list | None:
        """Innermost open frame with this span name, or None."""
        for frame in reversed(self.stack):
            if frame[0] == name:
                return frame
        return None

    def _wrap(self, name: str, fn: Callable, label=None, after=None) -> Callable:
        tracer = self
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter(nid, name, label(args) if label else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame)
                if after:
                    after(args, kwargs, None, frame, 0.0)
                raise
            dur = tracer._exit(frame)
            if after:
                after(args, kwargs, result, frame, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_eval(self, fn: Callable) -> Callable:
        """eval_expr recurses through its module binding: trace outermost calls only."""
        tracer = self
        nid = self._name_id(SPAN_EVAL)
        depth = self.depth

        def traced(*args, **kwargs):
            if not tracer.enabled or depth[SPAN_EVAL]:
                return fn(*args, **kwargs)
            frame = tracer._enter(nid, SPAN_EVAL, None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
                if depth[SPAN_CURV]:
                    tracer.counts["exprlang.evals_in_curvature"] += 1

        traced.__wrapped__ = fn
        return traced

    # ---- per-layer counters ------------------------------------------------

    def _after_eigh(self, args, kwargs, result, frame, dur) -> None:
        a = np.asarray(args[0])
        matrices = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
        self.counts["linalg.eigh.matrices"] += matrices
        grid = self.innermost(SPAN_GRID)
        if grid is not None:
            self.counts["linalg.eigh.matrices_in_metric_grid"] += matrices
            self.counts[f"linalg.eigh.matrices_in_metric_grid.{grid[4]}"] += matrices

    def _after_gibbs(self, args, kwargs, result, frame, dur) -> None:
        p = _points(args[1])
        self.counts["gibbs.gibbs_batch.points"] += p
        self.counts[f"gibbs.gibbs_batch.points.{frame[4]}"] += p
        self.counts[f"gibbs.gibbs_batch.incl_s.{frame[4]}"] += dur

    def _after_grid(self, args, kwargs, result, frame, dur) -> None:
        obs, lams = args[0], args[1]
        p = _points(lams)
        scheme = args[2] if len(args) > 2 else kwargs.get("scheme")
        taps = 2 if scheme is not None and scheme.order == 2 else 4
        m, n = obs.dim, obs.n
        # complex arrays metric_grid materialises: rho and U for the centres and
        # every stencil point, then drho, d_tilde and l_tilde (16 bytes a cell)
        self.counts["geometry.metric_grid.bytes_computed"] += 16 * m * m * p * (2 * (1 + n * taps) + 3 * n)
        self.counts["geometry.metric_grid.points"] += p
        self.counts[f"geometry.metric_grid.points.{frame[4]}"] += p
        self.counts[f"geometry.metric_grid.incl_s.{frame[4]}"] += dur
        if self.depth[SPAN_GEO]:
            self.counts["processes.geodesic.metric_calls"] += 1
            self.counts["processes.geodesic.metric_points"] += p

    def _after_geodesic(self, args, kwargs, result, frame, dur) -> None:
        if result is None:
            return
        record = result[2]
        self.counts["processes.geodesic.solves"] += 1
        self.counts["processes.geodesic.iterations"] += record.iterations
        self.counts["processes.geodesic.converged"] += bool(record.converged)

    def _after_write(self, args, kwargs, result, frame, dur) -> None:
        self.counts["serialization.atomic_write_text.bytes"] += len(args[1].encode("utf-8"))

    def _after_main(self, args, kwargs, result, frame, dur) -> None:
        code = "traceback" if result is None else str(result)
        self.counts[f"cli.exit.{code}"] += 1

    # ---- install / uninstall -----------------------------------------------

    def _replace_everywhere(self, original: Callable, traced: Callable) -> None:
        """Rebind every `thermogeom.*` module attribute that holds `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "thermogeom" or mod_name.startswith("thermogeom.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, traced)

    def _replace_attr(self, owner: Any, attr: str, traced: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, traced)

    def install(self, tg) -> None:
        import thermogeom.cli as cli

        self._replace_attr(np.linalg, "eigh", self._wrap(SPAN_EIGH, np.linalg.eigh, after=self._after_eigh))
        self._replace_attr(np.linalg, "eigvalsh", self._wrap(SPAN_EIGH, np.linalg.eigvalsh, after=self._after_eigh))
        functions = [
            (tg.gibbs.gibbs_batch, SPAN_GIBBS, _family_label, self._after_gibbs),
            (tg.geometry.metric_grid, SPAN_GRID, _family_label, self._after_grid),
            (tg.geometry.metric_tensor, SPAN_TENSOR, None, None),
            (tg.processes.thermo_length, SPAN_QUAD, None, None),
            (tg.processes.entropy_production, SPAN_QUAD, None, None),
            (tg.processes.geodesic_between, SPAN_GEO, None, self._after_geodesic),
            (tg.contact.legendrian_residual, "contact.legendrian_residual", None, None),
            (tg.contact.contact_volume_coefficient, "contact.contact_volume_coefficient", None, None),
            (tg.connection.curvature, SPAN_CURV, None, None),
            (tg.connection.horizontal_lift, "connection.horizontal_lift", None, None),
            (tg.connection.holonomy_via_curvature, "connection.holonomy_via_curvature", None, None),
            (tg.connection.flatness_check, "connection.flatness_check", None, None),
            (tg.exprlang.parse, "exprlang.parse", None, None),
            (cli.ser.load_json_file, "serialization.load_json_file", None, None),
            (cli.ser.path_from_json, "serialization.path_from_json", None, None),
            (cli.ser.atomic_write_text, "serialization.atomic_write_text", None, self._after_write),
            (cli.load_run_config, "cli.load_run_config", None, None),
            (cli.main, SPAN_MAIN, None, self._after_main),
        ]
        for fn, name, label, after in functions:
            self._replace_everywhere(fn, self._wrap(name, fn, label, after))
        self._replace_everywhere(tg.exprlang.eval_expr, self._wrap_eval(tg.exprlang.eval_expr))
        gamma = tg.connection.ConnectionSpec.__dict__["gamma"]
        self._replace_attr(tg.connection.ConnectionSpec, "gamma", self._wrap("connection.gamma", gamma))
        validated = tg.contact.MuExtension.__dict__["validated"]
        self._replace_attr(
            tg.contact.MuExtension, "validated",
            classmethod(self._wrap("contact.mu_validated", validated.__func__)),
        )
        for command, handler in list(cli._HANDLERS.items()):
            self._patches.append((cli._HANDLERS, command, handler))
            cli._HANDLERS[command] = self._wrap("cli.handler", handler)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ---- results -----------------------------------------------------------

    def dump(self, path: Path) -> None:
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "names": self.names,
            "spans": self.spans,
            "dropped_spans": self.dropped,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
