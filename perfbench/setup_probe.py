"""Set-up probe: interpreter start, the CLI's imports, ingest and prepare.

The benchmark times this whole process from outside to get `setup_s`, the
part of every quantrl invocation that precedes training or evaluation.

    python3 perfbench/setup_probe.py CONFIG_JSON
"""

import json
import sys
from pathlib import Path

import quantrl.cli  # noqa: F401  (the imports every quantrl invocation pays for)
from quantrl.experiment import config_from_dict, load_bars, prepare_data


def main(config_path: str) -> int:
    cfg = config_from_dict(json.loads(Path(config_path).read_text(encoding="utf-8")))
    prepare_data(cfg, load_bars(cfg))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
