"""Builds the program objects a workload needs from its JSON set-up spec.

Shared by the in-process run and by `setup_probe.py`, which times it in a
fresh interpreter.  Imports nothing at module level so that the probe's
clock covers every import the program needs.

Spec keys (all optional):
  families:    {name: [matrix, ...]}  matrices as nested [re, im] pairs
  connections: {name: {"g_S": str, "h": [str, ...], "n": int}}
  configs:     [path, ...]            run configs for the CLI
"""


def build_objects(spec: dict) -> dict:
    import thermogeom as tg

    objects = {"families": {}, "connections": {}, "configs": {}}
    if spec.get("families"):
        import thermogeom.serialization as ser

        for name, mats in spec["families"].items():
            ops = [tg.HermitianOperator(ser.complex_matrix_from_json(m)) for m in mats]
            objects["families"][name] = tg.ObservableSet(ops)
    for name, c in spec.get("connections", {}).items():
        objects["connections"][name] = tg.ConnectionSpec.parsed(c["g_S"], c["h"], c["n"])
    if spec.get("configs"):
        import thermogeom.cli as cli

        for path in spec["configs"]:
            objects["configs"][path] = cli.load_run_config(path)
    return objects
