"""Pin the sha256 of every file each workload emits, per seed, in digests.json.

    python3 perfbench/pin.py

Run this only at a commit whose outputs are the accepted reference: the
benchmark counts any later difference from these digests as a failure. The
pins hold for the python and numpy versions recorded with them (tiny
matmuls may round differently under another BLAS build).
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = [*range(20), 42]


def main() -> int:
    run.import_program()
    import workloads

    env = run.environment()
    pins = {"environment": env, "workloads": {}}
    for name in workloads.SPECS:
        pins["workloads"][name] = {}
        for seed in SEEDS:
            prepared = workloads.prepare(name, seed, run.WORK_ROOT / "pin")
            check = run.OutputCheck(prepared, None)
            sample = run.run_cli(prepared.workdir, prepared.cli_args("out"))
            if not check(sample, prepared.workdir / "out", f"{name} seed {seed}"):
                print("\n".join(check.failures), file=sys.stderr)
                return 1
            pins["workloads"][name][str(seed)] = check.reference
            print(f"pinned {name} seed {seed}", flush=True)
    run.DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
