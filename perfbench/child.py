"""One benchmark child process: import mvnsdde, parse configs, run a workload.

Started by ``run.py`` with one JSON argument::

    {"root": ..., "workload": ..., "seed": ..., "outdir": ..., "result": ...,
     "trace": false, "setup_only": false}

It stamps CLOCK_MONOTONIC just before the workload's first call (``ready_ns``,
so ``run.py`` can take set-up time from spawn), runs every config of the
workload through ``cli.dispatch`` exactly as the command line would, and
writes a JSON result file.  With ``trace`` it installs the tracer of
``spans.py`` first and adds its dump to the result.  With ``setup_only`` it
stops at ``ready_ns``: a set-up probe that imports and parses, and runs
nothing.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = spec["root"]
    t0 = _now()
    sys.path.insert(0, os.path.join(root, "src"))
    import mvnsdde.cli as cli

    import_ns = _now() - t0

    from workloads import WORKLOADS, work_units

    runs = WORKLOADS[spec["workload"]].runs
    cfgs = []
    for run in runs:
        overrides = dict(run.overrides, outdir=os.path.join(spec["outdir"], run.name))
        cfg = cli.parse(os.path.join(root, "configs", run.config), overrides)
        cfgs.append(dataclasses.replace(cfg, seed=(cfg.seed + spec["seed"]) % 2**64))

    if spec["setup_only"]:
        result = {"ready_ns": _now(), "import_s": import_ns * 1e-9, "work_units": 0}
        with open(spec["result"], "w") as fh:
            json.dump(result, fh)
        return 0

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(cli)

    ready_ns = _now()
    for cfg in cfgs:
        status = cli.dispatch(cfg)
        if status != 0:
            print(f"dispatch of {cfg.subcommand} returned {status}", file=sys.stderr)
            return status
    result = {
        "ready_ns": ready_ns,
        "import_s": import_ns * 1e-9,
        "work_units": work_units(spec["workload"], cfgs),
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
