"""Workload definitions: the CLI invocations each workload runs.

A workload is a list of ``nlsp`` invocations.  Its inputs are a pure
function of the seed: the seed goes on the command line, or into the
generated JSON config files for the workloads that need a config.  The
reasons for each workload are in ``perfbench/README.md``.

This module imports nothing from ``nlsp``, so the set-up probe can time the
package import itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

#: SPD target and 256-atom base shared by both ``wide_spd`` batteries: few
#: calls with many atoms each, the opposite of ``certify_all``'s 3-8 atoms.
WIDE_SPD_TARGET = {"kind": "spd", "matrix_dim": 3}
WIDE_SPD_BASE = {"count": 256, "weight_law": "linear"}
#: Curvature trials on the 256-atom SPD base; sized so that one pass of
#: ``wide_spd`` (geodesic + curvature) takes about ten seconds on a 2-core
#: Xeon virtual machine.
WIDE_SPD_CURVATURE_TRIALS = 25
#: Atom count of the ``p = 1`` moving-indicator counterexample.
JUMP_COUNTEREXAMPLE_ATOMS = 128


@dataclass(frozen=True)
class Invocation:
    """One ``nlsp`` command line; ``--out DIR`` is appended when it runs."""

    label: str
    argv: tuple[str, ...]
    config: dict | None = None

    def prepare(self, workdir: Path, outdir: Path) -> list[str]:
        """Write this invocation's config (if any) and return its argv."""
        argv = list(self.argv)
        if self.config is not None:
            path = workdir / f"{self.label}.json"
            path.write_text(json.dumps(self.config, sort_keys=True, indent=2)
                            + "\n", encoding="utf-8")
            argv += ["--config", str(path)]
        return argv + ["--out", str(outdir)]


def certify_all(seed: int) -> list[Invocation]:
    return [Invocation("all", ("all", "--seed", str(seed)))]


def wide_spd(seed: int) -> list[Invocation]:
    common = {"seed": seed, "target": WIDE_SPD_TARGET, "base": WIDE_SPD_BASE}
    return [
        Invocation("geodesic", ("geodesic",),
                   {**common, "p": 2.0, "grid": 17, "trials": 1}),
        Invocation("curvature", ("curvature",),
                   {**common, "trials": WIDE_SPD_CURVATURE_TRIALS}),
    ]


def jump_curves(seed: int) -> list[Invocation]:
    return [
        Invocation("skorokhod", ("skorokhod", "--seed", str(seed))),
        Invocation("counterexample",
                   ("transport", "--counterexample-p1",
                    "--n", str(JUMP_COUNTEREXAMPLE_ATOMS),
                    "--seed", str(seed))),
    ]


WORKLOADS = {
    "certify_all": certify_all,
    "wide_spd": wide_spd,
    "jump_curves": jump_curves,
}


def self_check(seed: int) -> list[tuple[Invocation, int]]:
    """Battery runs that must fail, with the exit code each must give.

    The benchmark counts a battery run as failed on exit code 1 or 2; these
    two runs prove that the counter can fail.  The first is a tiny geodesic
    battery held to an impossible tolerance (exit 1), the second a config
    with a key the program rejects (exit 2).
    """
    return [
        (Invocation("impossible_tolerance",
                    ("geodesic", "--tolerance", "geodesic_residual=1e-300"),
                    {"seed": seed, "p": 2.0, "grid": 5, "trials": 1}), 1),
        (Invocation("invalid_config", ("geodesic",),
                    {"seed": seed, "threads": 2}), 2),
    ]
