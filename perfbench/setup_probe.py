"""Times a fresh-interpreter `import thermogeom` plus building a workload's objects.

Usage: python3 setup_probe.py <src-dir> <spec.json>
Prints the elapsed seconds as its only output line.  The spec is read
before the clock starts, so the benchmark's input generation is excluded.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    src, spec_path = sys.argv[1], sys.argv[2]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, src)
    from objects import build_objects

    t0 = time.perf_counter()
    build_objects(spec)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
