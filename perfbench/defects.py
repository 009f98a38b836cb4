"""Reproduces the CLI contract defects that the cli-configs workload leaves out.

Usage (from the root of a checkout): python3 perfbench/defects.py

Each edit in cli_configs.KNOWN_DEFECTS makes its shipped config invalid; it
is run in process under --validate and as a full run.  The contract says
both exit 2: validate accepts exactly what the run accepts, and no
traceback escapes.  One line per edit says whether the defect still
reproduces; the last line is a JSON summary.  The exit status is 0 either way: this is a report, not a
gate, so a fix shows as "fixed" rather than as a benchmark failure.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def reproduces(validate, run) -> bool:
    """Every listed edit makes an invalid config: fixed means both exit 2."""
    return not (validate == 2 and run == 2)


def main() -> int:
    src = ROOT / "src"
    if not (src / "thermogeom" / "__init__.py").is_file():
        print(f"defects: no thermogeom sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from cli_configs import KNOWN_DEFECTS, invoke
    import thermogeom.cli as cli

    tmp = ROOT / ".perfbench_tmp" / f"defects-{os.getpid()}"
    shutil.copytree(ROOT / "configs", tmp)
    summary = {}
    try:
        for config, name, edit, defect in KNOWN_DEFECTS:
            cfg = copy.deepcopy(json.loads((tmp / f"run_{config}.json").read_text()))
            edit(cfg)
            path = tmp / f"defect-{name}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            command = config.replace("_", "-")
            validate = invoke(cli, [command, "--config", str(path), "--validate"])
            run = invoke(cli, [command, "--config", str(path), "--out", str(tmp / f"{name}.out")])
            state = "reproduces" if reproduces(validate, run) else "fixed"
            summary[name] = state
            print(f"{name:20s} {state:10s} ({defect}) validate={validate!r} run={run!r}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
