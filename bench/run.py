"""Pipeline benchmark for pauliblocks.

Run from the root of a checkout (the directory holding `src/pauliblocks`):

    python3 bench/run.py --workload group_many_terms --seed 1 --seconds 25 --trace 0

`--trace 0` runs the workload's CLI command (`python -m pauliblocks ...`)
in fresh processes for `--seconds` seconds and reports the end-to-end
metrics; `--trace 1` runs the traced in-process mirror of the same command
(bench/traced.py) and reports the per-layer metrics. `--workload all` runs
every workload in turn. Every output is checked against bench/oracle.py
outside the timed region. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A fuller record, with the
machine and code-size context and every sample, goes to
.bench_work/results/. See bench/NOTES.md for what each metric and
workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import oracle

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK_ROOT = ROOT / ".bench_work"
PY = sys.executable

MIN_REPS = 3  # timed runs per measurement, even past --seconds
SETUP_REPS = 7  # fresh interpreters timed for setup_s
IMPORTTIME_REPS = 3
# No new call starts after this many seconds, and none may outlive the
# next limit, so a run ends well inside the three minutes it is allowed.
LAST_START_S = 120.0
LAST_END_S = 170.0
CALL_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    n: int = 0
    terms: int = 0
    k: int = 1
    sizes: tuple[int, ...] = ()
    seeds: int = 0
    w: float = 2.0


FULL = (
    # First fit at large T; loading is about a tenth of the time.
    Workload("group_many_terms", "group", n=80, terms=5000, k=1),
    # Forty groupings of one Hamiltonian: per-Hamiltonian precompute pays.
    Workload("sweep_all_k", "sweep", n=40, terms=2000),
    # Synthesis and tableau verification; grouping is negligible.
    Workload("diag_dense", "diag", n=128, k=128),
    # Thousands of tiny groupings behind a process pool.
    Workload("kstar_small", "kstar", sizes=(16, 32, 48, 64), seeds=30),
)
# The same four shapes, small enough for the self-tests.
SMOKE = (
    Workload("group_many_terms", "group", n=12, terms=60, k=1),
    Workload("sweep_all_k", "sweep", n=8, terms=40),
    Workload("diag_dense", "diag", n=8, k=8),
    Workload("kstar_small", "kstar", sizes=(4, 6), seeds=3),
)
SIZES = {"full": FULL, "smoke": SMOKE}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "cli.emit_s": "s",
    "cli.output_bytes": "bytes",
    "hamiltonians.load_s": "s",
    "hamiltonians.terms": "count",
    "hamiltonians.terms_per_s": "1/s",
    "grouping.first_fit_s": "s",
    "grouping.calls": "count",
    "grouping.groups": "count",
    "grouping.first_fit_us_per_call": "us",
    "grouping.score_s": "s",
    "paulis.pair_tests": "count",
    "paulis.pair_tests_per_s": "1/s",
    "clifford.synth_s": "s",
    "clifford.gates": "count",
    "clifford.depth": "count",
    "clifford.members": "count",
    "clifford.tableau_s": "s",
    "clifford.symplectic_s": "s",
    "clifford.verify_s": "s",
    "clifford.split_s": "s",
    "clifford.gate_applications": "computed_count",
    "analysis.sweep_s": "s",
    "analysis.scaling_s": "s",
    "analysis.serial_s": "s",
    "analysis.cells": "count",
    "trace.overhead_s": "s",
}


# ------------------------------------------------------------------ inputs


@dataclass
class Prepared:
    """A workload made concrete for one seed: CLI arguments and the check."""

    wl: Workload
    seed: int
    argv: list[str]
    input_path: str | None
    check: Callable[[str], None]


def prepare(wl: Workload, seed: int, work: Path) -> Prepared:
    """Write the seeded input and compute the reference its output must match."""
    rng = inputs.workload_rng(wl.name, seed)
    if wl.command == "kstar":
        rows = oracle.kstar_rows(wl.sizes, wl.w, seed, wl.seeds)
        argv = ["kstar", "random", "--sizes", ",".join(map(str, wl.sizes)),
                "--w", str(wl.w), "--seed", str(seed), "--seeds", str(wl.seeds)]
        return Prepared(wl, seed, argv, None, lambda text: oracle.check_kstar(text, rows))

    dense = wl.command == "diag"
    if dense:
        terms = inputs.dense_commuting(rng, wl.n)
    else:
        terms = inputs.sparse_hamiltonian(rng, wl.n, wl.terms)
    path = work / f"{wl.name}.txt"
    path.write_text(inputs.term_file_text(wl.n, terms, dense), encoding="utf-8")
    order = oracle.sorted_order([c for c, _, _ in terms])
    n, k = wl.n, wl.k
    if wl.command == "group":
        expected = len(oracle.first_fit(terms, n, k, order))
        argv = ["group", str(path), "--k", str(k)]
        check = lambda text: oracle.check_group(text, terms, n, k, expected)  # noqa: E731
    elif wl.command == "sweep":
        rows = oracle.sweep_rows(terms, n, range(1, n + 1))
        argv = ["sweep", str(path), "--jobs", "1"]
        check = lambda text: oracle.check_sweep(text, rows)  # noqa: E731
    elif wl.command == "diag":
        group0 = oracle.first_fit(terms, n, k, order)[0]
        members = [terms[i][1:] for i in group0]
        argv = ["diag", str(path), "--k", str(k), "--group-index", "0"]
        check = lambda text: oracle.check_diag(text, members, n, k)  # noqa: E731
    else:
        raise ValueError(f"unknown command {wl.command!r}")
    return Prepared(wl, seed, argv, str(path), check)


# ------------------------------------------------------------------- calls


@dataclass
class Call:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    error: str | None


class Session:
    """Runs child processes, checks them, and counts attempts and failures."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self._verdicts: dict[bytes, str | None] = {}

    def call(self, cmd, tag: str, check: Callable[[str], None] | None = None) -> Call:
        """Run cmd to completion and time it with os.wait4, whose rusage
        covers the process and every child it reaped."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        timeout = max(1.0, min(CALL_TIMEOUT_S, LAST_END_S - self.elapsed()))
        timed_out = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT,
                start_new_session=True,
            )

            def kill():
                timed_out.set()
                _kill_group(proc.pid)

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # pool workers left behind by a crash
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        error = None
        if timed_out.is_set():
            error = f"timed out after {timeout:.0f} s"
        elif proc.returncode != 0:
            error = f"exit code {proc.returncode}"
        elif "Traceback" in stderr:
            error = "traceback on stderr"
        elif check is not None:
            error = self._checked(check, stdout)
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{tag}: {error}: {stderr.strip()[-300:]}")
        return Call(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    stdout, stderr, error)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def keep_going(self, done: int, deadline: float) -> bool:
        """Another timed run? Until the deadline, and at least MIN_REPS."""
        if self.elapsed() > LAST_START_S:
            return False
        return done < MIN_REPS or time.perf_counter() < deadline

    def _checked(self, check, stdout: str) -> str | None:
        key = hashlib.sha256(stdout.encode()).digest()
        if key not in self._verdicts:
            try:
                check(stdout)
                self._verdicts[key] = None
            except oracle.CheckFailed as exc:
                self._verdicts[key] = f"check failed: {exc}"
        return self._verdicts[key]


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except OSError:
        pass


def cli_cmd(prep: Prepared) -> list[str]:
    return [PY, "-m", "pauliblocks", *prep.argv]


# ---------------------------------------------------------------- end to end


SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import pauliblocks
if len(sys.argv) > 1:
    pauliblocks.load_hamiltonian(sys.argv[1])
print(repr(time.perf_counter() - t0))
"""


def end_to_end(s: Session, prep: Prepared, seconds: float) -> tuple[dict, dict]:
    cli = cli_cmd(prep)
    setup_cmd = [PY, "-c", SETUP_CODE] + ([prep.input_path] if prep.input_path else [])
    setup = []
    for _ in range(SETUP_REPS):
        c = s.call(setup_cmd, "setup")
        if c.error is None:
            setup.append(float(c.stdout))
    runs: list[Call] = []
    deadline = time.perf_counter() + seconds
    while s.keep_going(len(runs), deadline):
        runs.append(s.call(cli, "cli", prep.check))
    if not runs:
        s.failures.append("no timed CLI run completed")
    samples = {
        "wall_s": [c.wall_s for c in runs],
        "cpu_s": [c.cpu_s for c in runs],
        "peak_rss_mb": [c.peak_rss_mb for c in runs],
        "setup_s": setup,
    }
    metrics = {name: _median(v) for name, v in samples.items()}
    return metrics, samples


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


# ----------------------------------------------------------------- per layer


def _import_numpy_s(s: Session) -> float:
    """Cumulative import time of numpy under `python -X importtime`."""
    found = []
    for _ in range(IMPORTTIME_REPS):
        c = s.call([PY, "-X", "importtime", "-c", "import pauliblocks.cli"], "importtime")
        total = 0.0
        for line in c.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*numpy\s*$", line)
            if m:
                total = int(m.group(1)) / 1e6
        found.append(total)
    return _median(found)


def _self_times(spans) -> list[tuple[str, float, dict]]:
    """(name, self time, counts) per span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, counts in spans:
        if parent is not None:
            child[parent] += end - start
    return [(sp[0], sp[2] - sp[1] - child[i], sp[4]) for i, sp in enumerate(spans)]


def layer_metrics(span_lists, wl: Workload) -> dict:
    """Per-layer metrics from the pipeline's and the probe's spans."""
    recs = [rec for spans in span_lists for rec in _self_times(spans)]

    def total(*names):
        return sum(t for name, t, _ in recs if name in names)

    def count(key, *names):
        return sum(c.get(key, 0) for name, _, c in recs if name in names)

    def per(a, b):
        return a / b if b else 0.0

    load_names = ("hamiltonians.load_hamiltonian", "hamiltonians.random_hamiltonian")
    grouping = "grouping.sorted_insertion"
    calls = sum(1 for name, _, _ in recs if name == grouping)
    gates = count("gates", "clifford.diagonalize_group")
    members = count("members", "clifford.diagonalize_group")
    pair_s = total("paulis.k_commutes")
    m = {
        "cli.import_s": total("cli.import"),
        "cli.emit_s": total("cli.emit"),
        "cli.output_bytes": count("bytes", "cli.emit"),
        "hamiltonians.load_s": total(*load_names),
        "hamiltonians.terms": count("terms", *load_names),
        "grouping.first_fit_s": total(grouping),
        "grouping.calls": calls,
        "grouping.groups": count("groups", grouping),
        "grouping.score_s": total("grouping.r_hat"),
        "paulis.pair_tests": count("pairs", "paulis.k_commutes"),
        "clifford.synth_s": total("clifford.diagonalize_group"),
        "clifford.gates": gates,
        "clifford.depth": count("depth", "clifford.split"),
        "clifford.members": members,
        "clifford.tableau_s": total("clifford.Tableau.from_circuit"),
        "clifford.symplectic_s": total("clifford.is_symplectic"),
        "clifford.verify_s": total("clifford.verify"),
        "clifford.split_s": total("clifford.split"),
        # Computed, not counted: from_circuit replays every gate on 2n
        # generators and conjugate() replays it once per member.
        "clifford.gate_applications": gates * (2 * wl.n + members),
        "analysis.sweep_s": sum(
            t for name, t, c in recs if name == "analysis.k_sweep" and c.get("jobs") == 1
        ),
        "analysis.serial_s": sum(t for _, t, c in recs if c.get("entry") == "serial"),
        "analysis.scaling_s": sum(
            t for _, t, c in recs if c.get("entry") == "default_jobs"
        ),
        "analysis.cells": sum(
            c.get("cells", 0) for _, _, c in recs if c.get("entry") == "serial"
        ),
    }
    m["hamiltonians.terms_per_s"] = per(m["hamiltonians.terms"], m["hamiltonians.load_s"])
    m["grouping.first_fit_us_per_call"] = per(m["grouping.first_fit_s"] * 1e6, calls)
    m["paulis.pair_tests_per_s"] = per(m["paulis.pair_tests"], pair_s)
    return m


def traced_spec(prep: Prepared) -> str:
    wl = prep.wl
    return json.dumps({
        "command": wl.command, "input": prep.input_path, "k": wl.k,
        "sizes": list(wl.sizes), "seeds": wl.seeds, "seed": prep.seed, "w": wl.w,
    })


def per_layer(s: Session, prep: Prepared, seconds: float) -> tuple[dict, dict]:
    cli = cli_cmd(prep)
    traced = str(BENCH_DIR / "traced.py")
    spec = traced_spec(prep)
    spans_path = str(s.work / "spans.json")
    numpy_s = _import_numpy_s(s)

    probe = s.call([PY, traced, "probe", spec, spans_path], "probe")
    probe_spans = _read_spans(spans_path) if probe.error is None else []

    untraced, traced_walls, per_run = [], [], []
    deadline = time.perf_counter() + seconds
    while s.keep_going(len(traced_walls), deadline):
        untraced.append(s.call(cli, "cli", prep.check).wall_s)
        c = s.call([PY, traced, "pipeline", spec, spans_path], "traced pipeline", prep.check)
        traced_walls.append(c.wall_s)
        if c.error is None:
            per_run.append(layer_metrics([_read_spans(spans_path), probe_spans], prep.wl))
    if not per_run:
        s.failures.append("no traced pipeline run completed")
    metrics = {
        name: _median([m[name] for m in per_run]) for name in PER_LAYER_UNITS
        if name not in ("cli.import_numpy_s", "trace.overhead_s")
    }
    metrics["cli.import_numpy_s"] = numpy_s
    metrics["trace.overhead_s"] = _median(traced_walls) - _median(untraced)
    samples = {"untraced_wall_s": untraced, "traced_wall_s": traced_walls}
    return metrics, samples


def _read_spans(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------------ context


def _output_of(cmd) -> str:
    """Stdout of a bookkeeping command, or "" if it fails; not a counted call."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                              capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:
        return ""
    return proc.stdout if proc.returncode == 0 else ""


def context_record() -> dict:
    """Machine and code-size record, cached per content of src/ and tests/."""
    files = sorted((ROOT / "src" / "pauliblocks").rglob("*.py"))
    tests = sorted((ROOT / "tests").rglob("*.py")) if (ROOT / "tests").is_dir() else []
    digest = hashlib.sha256()
    for f in files + tests:
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    cache = WORK_ROOT / f"context-{digest.hexdigest()[:16]}.json"
    if cache.exists():
        return json.loads(cache.read_text(encoding="utf-8"))
    numpy_version, public = (_output_of([PY, "-c", (
        "import types, numpy, pauliblocks; print(numpy.__version__); "
        "print(sum(1 for k, v in vars(pauliblocks).items() "
        "if not k.startswith('_') and not isinstance(v, types.ModuleType)))"
    )]).split() + [None, None])[:2]
    collected = _output_of([PY, "-m", "pytest", "--collect-only", "-q", "-p",
                            "no:cacheprovider", "tests"]) if tests else ""
    m = re.search(r"(\d+) tests? collected", collected)
    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files),
        "public_names": int(public) if public else None,
        "tests": int(m.group(1)) if m else None,
    }
    tmp = cache.with_suffix(".tmp")
    tmp.write_text(json.dumps(record), encoding="utf-8")
    tmp.replace(cache)
    return record


# --------------------------------------------------------------------- main


def run_one(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    s = Session(work)
    context = context_record()
    prep = prepare(wl, seed, work)
    if trace:
        metrics, samples = per_layer(s, prep, seconds)
        units = PER_LAYER_UNITS
    else:
        metrics, samples = end_to_end(s, prep, seconds)
        units = END_TO_END_UNITS
    result = {
        "correct": not s.failures,
        "attempted": s.attempted,
        "failed": len(s.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = dict(result, workload=wl.name, seed=seed, seconds=seconds, trace=int(trace),
                  context=context, samples=samples, failures=s.failures,
                  cli=["python", "-m", "pauliblocks", *prep.argv])
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return result


def summary_lines(name: str, result: dict) -> list[str]:
    lines = [f"{name}: fail_ratio {result['failed']}/{result['attempted']} = "
             f"{result['failed'] / result['attempted']:.4g} (failed / attempted)"]
    for metric, v in result["metrics"].items():
        lines.append(f"  {metric:34s} {v['value']:.6g} {v['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [wl.name for wl in FULL]
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="'smoke' shrinks every workload for the self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pauliblocks" / "__init__.py").is_file():
        print(f"error: no src/pauliblocks under {ROOT}; run from a pauliblocks checkout",
              file=sys.stderr)
        return 2
    chosen = [wl for wl in SIZES[args.size] if args.workload in (wl.name, "all")]
    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        results = {wl.name: run_one(wl, args.seed, args.seconds, bool(args.trace), work)
                   for wl in chosen}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, result in results.items():
        print("\n".join(summary_lines(name, result)))
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": v for name, r in results.items()
                        for metric, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
