"""Set-up work of one workload, in a fresh interpreter.

Imports the ``nlsp`` CLI, builds and validates every config the
workload's invocations use, and prints ``time.monotonic()``.  ``run.py``
subtracts the monotonic time at which it spawned this process; that
difference is the ``setup_s`` metric.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nlsp.cli import main  # noqa: E402,F401  (the entry point users load)
from nlsp.config import build_config  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def probe(workload: str, seed: int, workdir: Path) -> None:
    for inv in WORKLOADS[workload](seed):
        argv = inv.prepare(workdir, workdir / inv.label)
        path = argv[argv.index("--config") + 1] if "--config" in argv else None
        cfg = build_config(path, seed=None if path else seed)
        cfg.target_space()
        cfg.base_space()


if __name__ == "__main__":
    probe(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(repr(time.monotonic()))
