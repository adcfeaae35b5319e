"""Benchmark of the ``nlsp`` CLI: three workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload certify_all --seed 7 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload drives the real ``nlsp`` entry point in this
process, single-threaded, and gates every battery run: it fails on an
exception, on exit code 1 or 2, on ``passed: false`` in ``summary.json``,
or when its artifacts differ byte-wise from the first run of the same
source tree.  A self-check then forces two failures and verifies that both
are counted.

``--trace 0`` repeats the workload for ``--seconds`` seconds and reports
``wall_s`` (mean pass), ``setup_s`` (median of fresh interpreters that
import ``nlsp`` and build the configs) and ``peak_rss_mb``.  ``--trace 1``
runs one untraced pass, then one traced pass, and reports per-layer call
counts and self times (see ``tracer.py``).  ``--workload all`` runs every
workload, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else,
including the environment, per-pass figures and artifact digests, goes to
the lines before it and to ``.perfbench/last-<workload>-trace<n>.json``.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import LAYERS, Tracer
from workloads import WORKLOADS, Invocation, self_check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
#: Metric names and units: BENCHMARK.json is their single definition.
SPEC = ROOT / "BENCHMARK.json"

#: Fresh interpreters timed before and again after the passes of a run,
#: for ``setup_s``; the median of all of them is reported.  Splitting them
#: samples the machine's speed at two times at least a pass apart.
SETUP_PROBES = 4


class BenchError(Exception):
    """The benchmark cannot run here (for example, no ``src/nlsp``)."""


# ---------------------------------------------------------------------------
# Running and gating one battery
# ---------------------------------------------------------------------------


def invoke(argv: list[str]) -> tuple[int | str, str]:
    """Run ``nlsp ARGV`` in this process; return (exit code, stderr)."""
    from nlsp.cli import main

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main.main(args=argv, prog_name="nlsp")
    except SystemExit as exc:
        code = exc.code
        return (0 if code is None else code), err.getvalue()
    except Exception:  # a crash fails the battery run; keep going
        return "exception", err.getvalue() + traceback.format_exc()
    return 0, err.getvalue()


def digest_dir(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.is_file()}


def gate(code, outdir: Path, reference: dict | None) -> tuple[str | None, dict]:
    """Return (reason the battery run failed or None, artifact digests)."""
    if code != 0:
        return f"exit code {code}", {}
    try:
        summary = json.loads((outdir / "summary.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        return f"unreadable summary.json: {exc}", {}
    if summary.get("passed") is not True:
        return "summary.json says passed: false", {}
    digests = digest_dir(outdir)
    if reference is not None and digests != reference:
        changed = sorted(set(digests) ^ set(reference)
                         | {k for k in digests.keys() & reference.keys()
                            if digests[k] != reference[k]})
        return ("artifacts differ from the first run of this source tree: "
                + ", ".join(changed)), digests
    return None, digests


class Runner:
    """Runs passes of one workload and keeps the byte-identity reference."""

    def __init__(self, workload: str, seed: int, rundir: Path):
        self.invocations: list[Invocation] = WORKLOADS[workload](seed)
        self.rundir = rundir
        key = input_digest(self.invocations)[:16]
        self.ref_path = WORK / "reference" / f"{workload}-{seed}-{key}.json"
        self.reference = (json.loads(self.ref_path.read_text("utf-8"))
                          if self.ref_path.is_file() else None)
        self.passes: list[dict] = []

    def run_pass(self, call=invoke) -> dict:
        """One pass over the workload's invocations, gated."""
        passdir = self.rundir / f"pass{len(self.passes)}"
        passdir.mkdir(parents=True)
        record = {"wall_s": 0.0, "cpu_s": 0.0, "runs": {}}
        for inv in self.invocations:
            outdir = passdir / inv.label
            argv = inv.prepare(passdir, outdir)
            gc.collect()
            t0, c0 = time.perf_counter(), time.process_time()
            code, stderr = call(argv)
            wall = time.perf_counter() - t0
            record["wall_s"] += wall
            record["cpu_s"] += time.process_time() - c0
            ref = None if self.reference is None else self.reference[inv.label]
            reason, digests = gate(code, outdir, ref)
            if reason is not None:
                print(f"FAILED {inv.label}: {reason}\n{stderr}",
                      file=sys.stderr)
            record["runs"][inv.label] = {"wall_s": wall, "failure": reason,
                                         "digests": digests}
        shutil.rmtree(passdir)
        if self.reference is None and not any(
                r["failure"] for r in record["runs"].values()):
            self.reference = {k: r["digests"]
                              for k, r in record["runs"].items()}
            write_json(self.ref_path, self.reference)
        self.passes.append(record)
        return record

    def counts(self) -> tuple[int, int]:
        runs = [r for p in self.passes for r in p["runs"].values()]
        return len(runs), sum(r["failure"] is not None for r in runs)


def artifact_digest(record: dict) -> str:
    """SHA-256 of one pass's summary.json and CSVs, all invocations."""
    digests = {k: r["digests"] for k, r in record["runs"].items()}
    return hashlib.sha256(json.dumps(digests, sort_keys=True)
                          .encode()).hexdigest()


def run_self_check(seed: int, rundir: Path) -> list[str]:
    """Force the self-check failures; return one problem per miss."""
    problems = []
    forced = self_check(seed)
    for inv, expected in forced:
        outdir = rundir / "selfcheck" / inv.label
        outdir.parent.mkdir(parents=True, exist_ok=True)
        code, _ = invoke(inv.prepare(outdir.parent, outdir))
        reason, _ = gate(code, outdir, None)
        if reason is None or code != expected:
            problems.append(f"self-check {inv.label}: exit code {code} "
                            f"(expected {expected}), counted as "
                            f"{'failed' if reason else 'passed'}")
    print(f"self-check: {len(forced) - len(problems)} of {len(forced)} "
          "forced failures counted as failed")
    return problems


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------


def input_digest(invocations: list[Invocation]) -> str:
    """SHA-256 of the package sources and the workload's command lines."""
    h = hashlib.sha256()
    for path in sorted((SRC / "nlsp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(json.dumps([[i.label, i.argv, i.config] for i in invocations],
                        sort_keys=True).encode())
    return h.hexdigest()


def measure_setup(workload: str, seed: int, rundir: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter to nlsp imported and the
    workload's configs built, as the probe's own clock reports it."""
    times = []
    for _ in range(SETUP_PROBES):
        probedir = tempfile.mkdtemp(prefix="setup", dir=rundir)
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                               workload, str(seed), probedir],
                              stdout=subprocess.PIPE, text=True, check=True,
                              timeout=60)
        times.append(float(proc.stdout) - t0)
    return times


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
        "threads_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)


def select(values: dict, section: str) -> dict:
    """The metrics BENCHMARK.json lists under ``section``, with units."""
    spec = json.loads(SPEC.read_text("utf-8"))[section]
    unknown = [m["name"] for m in spec if m["name"] not in values]
    if unknown:
        raise BenchError(f"BENCHMARK.json names unknown metrics {unknown}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def untraced(runner: Runner, workload: str, seed: int, seconds: float,
             rundir: Path, record: dict) -> dict:
    setup = measure_setup(workload, seed, rundir)
    start = time.perf_counter()
    while True:
        p = runner.run_pass()
        elapsed = time.perf_counter() - start
        # Stop before a pass that would run past the measuring window.
        if elapsed + p["wall_s"] > seconds:
            break
    setup += measure_setup(workload, seed, rundir)
    attempted, failed = runner.counts()
    values = {
        # The mean, not the median: the machine's speed drifts over tens of
        # seconds, so the whole window averages it better than one pass.
        "wall_s": statistics.mean(p["wall_s"] for p in runner.passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    record.update(setup_s=setup, passes=runner.passes)
    metrics = select(values, "end_to_end")
    print(f"workload {workload}, seed {seed}: {len(runner.passes)} pass(es),"
          f" {attempted} battery runs")
    for name, m in metrics.items():
        print(f"  {name:<12} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_share':<12} {failed / attempted:.6g} "
          f"({failed}/{attempted} battery runs)")
    print(f"  {'cpu_s':<12} "
          f"{statistics.mean(p['cpu_s'] for p in runner.passes):.6g} s "
          "(diagnostic, not gated)")
    print(f"  artifacts    sha256 {artifact_digest(runner.passes[0])} "
          "(recorded, not gated)")
    return metrics


def traced(runner: Runner, workload: str, seed: int, record: dict,
           problems: list[str]) -> dict:
    plain = runner.run_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced_pass = runner.run_pass(tracer.span("cli.main", invoke))
    finally:
        tracer.uninstall()
    values = tracer.metrics(traced_pass["wall_s"])
    values["trace.overhead_s"] = traced_pass["wall_s"] - plain["wall_s"]
    record.update(passes=runner.passes, trace=values)
    if artifact_digest(traced_pass) != artifact_digest(plain):
        problems.append("traced artifacts differ from the untraced ones")
    if values["trace.unattributed_s"] < 0.0:
        problems.append("layer self times exceed the traced wall time")
    print(f"workload {workload}, seed {seed}: traced pass "
          f"{traced_pass['wall_s']:.6g} s, untraced "
          f"{plain['wall_s']:.6g} s")
    for layer in LAYERS:
        print(f"  {layer + '.self_s':<28} {values[layer + '.self_s']:.6g} s")
    print(f"  {'trace.unattributed_s':<28} "
          f"{values['trace.unattributed_s']:.6g} s (sum = traced wall)")
    print(f"  artifacts sha256 {artifact_digest(traced_pass)} traced, "
          f"{artifact_digest(plain)} untraced")
    return select(values, "per_layer")


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    if not (SRC / "nlsp" / "cli.py").is_file():
        raise BenchError(f"no nlsp sources under {SRC}; run from the root "
                         "of a source checkout")
    sys.path.insert(0, str(SRC))
    import nlsp

    if Path(nlsp.__file__).resolve().parent != SRC / "nlsp":
        raise BenchError(f"imported nlsp from {nlsp.__file__}, not {SRC}")
    rundir = WORK / f"run-{workload}-{seed}-{os.getpid()}"
    rundir.mkdir(parents=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment()}
    env = record["environment"]
    print(f"environment: nproc {env['nproc']}, {env['cpu']}, Python "
          f"{env['python']}, numpy {env['numpy']}, click {env['click']}")
    problems: list[str] = []
    try:
        runner = Runner(workload, seed, rundir)
        if trace:
            metrics = traced(runner, workload, seed, record, problems)
        else:
            metrics = untraced(runner, workload, seed, seconds, rundir,
                               record)
        problems += run_self_check(seed, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    attempted, failed = runner.counts()
    record.update(problems=problems, metrics=metrics)
    write_json(WORK / f"last-{workload}-trace{trace}.json", record)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return {"correct": failed == 0 and not problems,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload, each in a fresh process of its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{workload}.{k}": v
                                 for k, v in result["metrics"].items()})
    return total


def single_threaded() -> None:
    """One BLAS/OpenMP thread and no nlsp worker pool, for this process and
    its children; must run before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("NLSP_THREADS", None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    single_threaded()
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
