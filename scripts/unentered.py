"""Report the functions of ``src/nlsp`` that no CLI run enters.

A call tracer starts before ``nlsp`` is imported; then these runs go
in-process through the click entry point, each into a fresh directory:

* ``nlsp all --seed 7``;
* the two ``wide_spd`` configs: geodesic and curvature on SPD(3) over a
  256-atom linear-weight base;
* ``nlsp transport --counterexample-p1 --n 128 --seed 7``;
* a config with an unknown key, which must exit 2.

The script prints every function (nested ones included, unless their
enclosing function is itself unentered) that no run entered, as
``file:line``, its length in lines and its qualified name, then the total.
It exits 1 if such a function has no entry in :data:`ALLOWED`, if an entry
names a function that the report does not list (a run enters it, or it no
longer exists), or if a run gives an unexpected exit code.

    python scripts/unentered.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "nlsp"

#: Why a function may stay although no run enters it.
BENCHMARK = "named by a per_layer metric of BENCHMARK.json"
HELPER = "called by a function that BENCHMARK.json names"
PERFBENCH = "called by perfbench/setup_probe.py"
INPUT_CHECK = "refuses library input that no CLI run passes"
ABSTRACT = "abstract: every concrete target overrides it"
API = "constructor or plain accessor of a library object"
DESCRIPTION = "the description make_target rebuilds a target from"
BIJECTION = "inverse of a section: the Fubini identification is a bijection"
SAMPLED = "read by variations of a sampled curve, which no CLI run passes"

#: ``file:qualified name`` of each function no run enters -> its reason.
ALLOWED: dict[str, str] = {
    "config.py:ExperimentConfig.target_space": PERFBENCH,
    "config.py:ExperimentConfig.base_space": PERFBENCH,
    "curves.py:SampledCurve.__post_init__": BENCHMARK,
    "curves.py:SampledCurve.__len__": API,
    "curves.py:SampledCurve.interval": SAMPLED,
    "curves.py:SampledCurve.times_array": HELPER,
    "curves.py:SampledCurve.segment_lengths": SAMPLED,
    "curves.py:_require_multinode": HELPER,
    "curves.py:metric_derivative": BENCHMARK,
    "curves.py:energy": BENCHMARK,
    "curves.py:skorokhod_distance": BENCHMARK,
    "errors.py:GeodesicError.__init__": INPUT_CHECK,
    "geometry.py:LpGeodesic.sweep": HELPER,
    "geometry.py:lp_geodesic": BENCHMARK,
    "geometry.py:_sweep_of": HELPER,
    "geometry.py:constant_speed_residual": BENCHMARK,
    "geometry.py:mapping_comparison_residual": BENCHMARK,
    "mappings.py:uniform_space": API,
    "mappings.py:MappingFamily.base_mapping": API,
    "mappings.py:MappingFamily.random_mapping": API,
    "mappings.py:constant_family": API,
    "mappings.py:MetricMapping.__post_init__": BENCHMARK,
    "mappings.py:MetricMapping.base_space": API,
    "mappings.py:MetricMapping.target": API,
    "mappings.py:_require_same_family": HELPER,
    "mappings.py:atom_distances": BENCHMARK,
    "mappings.py:d_p": BENCHMARK,
    "mappings.py:LpSpace.__repr__": API,
    "mappings.py:uniform_grid": API,
    "mappings.py:ProductGridMapping.value": API,
    "mappings.py:constant_in_time": API,
    "mappings.py:_require_same_product": HELPER,
    "mappings.py:product_lp_norm": BENCHMARK,
    "sections.py:sec_time_inverse": BIJECTION,
    "sections.py:sec_atom_inverse": BIJECTION,
    "sections.py:_require_shared": HELPER,
    "sections.py:d_pp": BENCHMARK,
    "sections.py:D_pp": BENCHMARK,
    "speed.py:SpeedField.curve": API,
    "speed.py:compute_speed": BENCHMARK,
    "speed.py:_require_speed_field": HELPER,
    "speed.py:tangent_norms": BENCHMARK,
    "speed.py:bundle_norm": BENCHMARK,
    "speed.py:bundle_norms": HELPER,
    "speed.py:speed_identity_residual": BENCHMARK,
    "suites.py:_finite_p_above_one": INPUT_CHECK,
    "suites.py:_refining_grids": INPUT_CHECK,
    "targets.py:_malformed_entry": INPUT_CHECK,
    "targets.py:TargetSpace.as_point": BENCHMARK,
    "targets.py:TargetSpace.distance": BENCHMARK,
    "targets.py:TargetSpace.geodesic_point": BENCHMARK,
    "targets.py:TargetSpace.distances": ABSTRACT,
    "targets.py:TargetSpace.geodesic_points": ABSTRACT,
    "targets.py:TargetSpace._no_chart": INPUT_CHECK,
    "targets.py:TargetSpace.log_maps": INPUT_CHECK,
    "targets.py:TargetSpace.exp_maps": INPUT_CHECK,
    "targets.py:TargetSpace.tangent_norms": INPUT_CHECK,
    "targets.py:TargetSpace._as_tangent": HELPER,
    "targets.py:TargetSpace.log_map": BENCHMARK,
    "targets.py:TargetSpace.exp_map": BENCHMARK,
    "targets.py:TargetSpace.tangent_norm": BENCHMARK,
    "targets.py:TargetSpace.random_point": BENCHMARK,
    "targets.py:TargetSpace.to_config": ABSTRACT,
    "targets.py:TargetSpace.__repr__": API,
    "targets.py:Euclidean.to_config": DESCRIPTION,
    "targets.py:Sphere.to_config": DESCRIPTION,
    "targets.py:Spd.to_config": DESCRIPTION,
    "targets.py:MetricTree.to_config": DESCRIPTION,
    "transport.py:_require_lp_curve": HELPER,
    "transport.py:decompose_ac": BENCHMARK,
    "transport.py:derivative_identity_residual": BENCHMARK,
    "transport.py:variation_identity_residual": BENCHMARK,
}

#: The SPD(3) target and 256-atom base of the ``wide_spd`` configs.
_WIDE_SPD = {"seed": 7, "target": {"kind": "spd", "matrix_dim": 3},
             "base": {"count": 256, "weight_law": "linear"}}

#: ``(label, argv, config or None, expected exit code)`` of each run.
RUNS = (
    ("all", ["all", "--seed", "7"], None, 0),
    ("wide_spd_geodesic", ["geodesic"],
     {**_WIDE_SPD, "p": 2.0, "grid": 17, "trials": 1}, 0),
    ("wide_spd_curvature", ["curvature"], {**_WIDE_SPD, "trials": 25}, 0),
    ("counterexample",
     ["transport", "--counterexample-p1", "--n", "128", "--seed", "7"],
     None, 0),
    ("refused", ["geodesic"], {"seed": 7, "no_such_key": 1}, 2),
)


def definitions() -> dict[tuple[str, int], tuple[str, int, str | None]]:
    """``(file, first line) -> (qualified name, length, enclosing key)`` of
    every function in the package.  The first line is the code object's:
    that of the first decorator, if any."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        def visit(node, prefix, outer):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    key = (path.name, first)
                    found[key] = (prefix + child.name,
                                  child.end_lineno - first + 1, outer)
                    visit(child, f"{prefix}{child.name}.", key)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", outer)
                else:
                    visit(child, prefix, outer)

        visit(ast.parse(path.read_text(encoding="utf-8")), "", None)
    return found


def traced_runs() -> tuple[set[tuple[str, int]], list[str]]:
    """Run every invocation of :data:`RUNS` under a call tracer; return the
    ``(file, first line)`` of every package function entered and a list of
    wrong exit codes."""
    entered: set[tuple[str, int]] = set()
    prefix = str(PACKAGE) + "/"

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename[len(prefix):], code.co_firstlineno))

    sys.settrace(tracer)
    threading.settrace(tracer)
    wrong = []
    try:
        sys.path.insert(0, str(SRC))
        from nlsp.cli import main

        with tempfile.TemporaryDirectory() as tmp:
            for label, argv, config, expected in RUNS:
                argv = argv + ["--out", f"{tmp}/{label}"]
                if config is not None:
                    path = Path(tmp, f"{label}.json")
                    path.write_text(json.dumps(config), encoding="utf-8")
                    argv += ["--config", str(path)]
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    try:
                        main.main(args=argv, prog_name="nlsp")
                        code = 0
                    except SystemExit as exc:
                        code = 0 if exc.code is None else exc.code
                if code != expected:
                    wrong.append(f"nlsp {' '.join(argv)} exited {code}, "
                                 f"expected {expected}")
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return entered, wrong


def main() -> int:
    found = definitions()
    entered, faults = traced_runs()
    unentered = {key for key in found if key not in entered}
    report = sorted(key for key in unentered if found[key][2] not in unentered)
    names = {f"{file}:{found[file, line][0]}": (file, line)
             for file, line in found}
    total = 0
    for file, line in report:
        qualname, length, _ = found[file, line]
        name = f"{file}:{qualname}"
        total += length
        reason = ALLOWED.get(name)
        print(f"src/nlsp/{file}:{line}  {length:4d}  {qualname}"
              + (f"  ({reason})" if reason else "  (NOT ALLOWED)"))
        if reason is None:
            faults.append(f"{name} is entered by no run and not in ALLOWED")
    print(f"{len(report)} functions, {total} lines never entered")
    for name in sorted(ALLOWED):
        if name not in names:
            faults.append(f"ALLOWED names {name}, which does not exist")
        elif names[name] not in report:
            faults.append(f"ALLOWED names {name}, which the report does not list")
    for fault in faults:
        print(f"error: {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
