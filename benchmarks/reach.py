"""REACH: which parts of ``src/repro`` do the real drivers run?

Runs every driver in its own interpreter with a function-level recorder
installed, then prints

1. the ``src/repro`` modules that no driver imports, and
2. the functions and methods that no driver calls,

each with its line count. A module or function that only its own unit
tests reach is a candidate for deletion.

The drivers:

* every EXPERIMENTS.md artifact through the CLI, at smoke scale with
  ``--jobs 1``. Forked workers exit through ``os._exit``, which skips
  the recorder's ``atexit`` dump, so a simulation only counts when it
  runs in the parent process;
* one ``fig2 --jobs 2`` run, so that the parallel dispatch loop of
  ``repro.parallel.run_many`` is reached in the parent (its workers'
  calls go unrecorded, as above);
* the ``perfbench/inputs.py`` specs of the ``fig2_grid``, ``large_smp``
  and ``open_churn`` workloads, imported read-only;
* ``benchmarks/service_smoke.py``, which drives ``repro serve`` over HTTP.

The recorder is stdlib only: ``sys.setprofile`` plus
``threading.setprofile`` collect the code object of every Python call.
It keys on the code object itself, which the set keeps alive; keying on
``id(code)`` would misattribute calls once a freed code object's id is
reused. Each interpreter loads the recorder from a generated
``sitecustomize`` module, so the ``repro serve`` process that
``service_smoke.py`` starts is recorded too.

The exit status is 1 when a driver fails, or when a module that no
driver imports is missing from :data:`KEEP_MODULES`; CI runs this so that
a new dead module cannot land silently. Run from the repo root::

    PYTHONPATH=src python benchmarks/reach.py
"""

from __future__ import annotations

import ast
import atexit
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Modules that no driver imports but that stay, each with its reason.
KEEP_MODULES = {
    "workloads/synth.py": "input generator of the property tests",
}

_PERFBENCH = """
import sys
sys.path.insert(0, {root!r})
from perfbench import inputs
from repro.experiments.base import run_simulation
for cell in inputs.fig2_cells():
    run_simulation(inputs.fig2_spec(cell, work_scale=0.05))
run_simulation(inputs.large_spec(inputs.LARGE_POOL[0]))
run_simulation(inputs.churn_spec(inputs.CHURN_POOL[0]))
"""


def drivers(scratch: str) -> list[tuple[str, list[str]]]:
    """(name, argv) of every driver; ``scratch`` takes their files."""
    cli = [sys.executable, "-m", "repro"]
    dyn = [*cli, "dynamic", "--scale", "0.05", "--num-jobs", "8", "--replications", "1"]
    trace = os.path.join(scratch, "arrivals.csv")
    Path(trace).write_text("arrival_us\n0\n150000\n400000\n900000\n")
    return [
        ("all + csv", [*cli, "all", "--scale", "0.02", "--jobs", "1",
                       "--csv", os.path.join(scratch, "csv")]),
        ("validate", [*cli, "validate", "--scale", "0.02", "--jobs", "1"]),
        ("fig2 audit+profile", [*cli, "fig2", "--set", "A", "--apps", "CG",
                                "--scale", "0.05", "--jobs", "1", "--audit", "--profile"]),
        ("fig2 parallel", [*cli, "fig2", "--set", "A", "--apps", "CG",
                           "--scale", "0.02", "--jobs", "2"]),
        ("dynamic poisson", [*dyn, "--rate", "1.0", "--policy", "latest_quantum",
                             "--jobs", "1"]),
        ("dynamic mmpp", [*dyn, "--rates", "0.5,2.0", "--arrival", "mmpp",
                          "--quantiles", "--jobs", "1"]),
        ("dynamic trace", [*dyn, "--arrival", "trace", "--trace-file", trace, "--jobs", "1"]),
        ("dynamic streamed", [*dyn, "--rate", "2.0", "--no-records", "--quantiles",
                              "--audit", "--jobs", "1"]),
        ("dynamic shaped", [*dyn, "--rate", "1.0", "--jobs", "1",
                            "--shape", "diurnal:period_s=60,amplitude=0.5",
                            "--shape", "flash:at_s=1,duration_s=1,magnitude=4",
                            "--mix", "zipfian:exponent=1.2"]),
        ("faults", [*cli, "faults", "--scale", "0.05", "--intensities", "0,1",
                    "--replications", "1", "--jobs", "1"]),
        ("perfbench inputs", [sys.executable, "-c", _PERFBENCH.format(root=str(ROOT))]),
        ("service smoke", [sys.executable, str(ROOT / "benchmarks" / "service_smoke.py")]),
    ]


# --------------------------------------------------------------- recording


def record(out_dir: str) -> None:
    """Record this interpreter's calls; dump them to ``out_dir`` at exit."""
    seen: set = set()
    src = str(SRC)

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def dump() -> None:
        sys.setprofile(None)
        calls = sorted(
            {(c.co_filename, c.co_qualname, c.co_firstlineno)
             for c in seen if c.co_filename.startswith(src)}
        )
        modules = sorted(
            {f for m in list(sys.modules.values())
             if (f := getattr(m, "__file__", None)) and f.startswith(src)}
        )
        path = os.path.join(out_dir, f"{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"calls": calls, "modules": modules}, fh)

    atexit.register(dump)
    threading.setprofile(profile)
    sys.setprofile(profile)


def run_drivers(out_dir: str, scratch: str) -> list[str]:
    """Run every driver under the recorder; returns the failed names."""
    boot = os.path.join(scratch, "boot")
    os.makedirs(boot)
    Path(boot, "sitecustomize.py").write_text(
        "import importlib.util\n"
        f"_spec = importlib.util.spec_from_file_location('_reach', {__file__!r})\n"
        "_reach = importlib.util.module_from_spec(_spec)\n"
        "_spec.loader.exec_module(_reach)\n"
        f"_reach.record({out_dir!r})\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([boot, str(ROOT / "src"), env.get("PYTHONPATH", "")])
    failed = []
    for name, argv in drivers(scratch):
        print(f"[reach] {name}", file=sys.stderr, flush=True)
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            failed.append(name)
            print(proc.stderr[-3000:], file=sys.stderr)
    return failed


# --------------------------------------------------------------- reporting


def definitions(path: Path) -> list[tuple[str, int, int]]:
    """(qualname, first line, line count) of every def in ``path``.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    out = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out.append((prefix + child.name, first, child.end_lineno - first + 1))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return out


def report(out_dir: str) -> list[str]:
    """Print the reach tables; returns the dead modules not on the keep-list."""
    called: set[tuple[str, str, int]] = set()
    imported: set[str] = set()
    dumps = list(Path(out_dir).glob("*.json"))
    for dump in dumps:
        data = json.loads(dump.read_text())
        called.update((f, q, n) for f, q, n in data["calls"])
        imported.update(data["modules"])

    files = sorted(SRC.rglob("*.py"))
    total = sum(len(p.read_text().splitlines()) for p in files)
    dead_modules = [p for p in files if str(p) not in imported]
    dead_lines = sum(len(p.read_text().splitlines()) for p in dead_modules)
    print(f"src/repro: {len(files)} modules, {total} lines; "
          f"{len(dumps)} recorded processes\n")
    print(f"Modules no driver imports ({len(dead_modules)}, {dead_lines} lines):")
    unexempt = []
    for p in dead_modules:
        rel = p.relative_to(SRC).as_posix()
        reason = KEEP_MODULES.get(rel)
        if reason is None:
            unexempt.append(rel)
        keep = f"  [keep: {reason}]" if reason else ""
        print(f"  {rel:40s} {len(p.read_text().splitlines()):5d}{keep}")

    rows = []
    for p in files:
        if p in dead_modules:
            continue
        reported_until = 0
        for qual, first, n in sorted(definitions(p), key=lambda d: d[1]):
            if first <= reported_until or (str(p), qual, first) in called:
                continue
            rows.append((p.relative_to(SRC).as_posix(), first, qual, n))
            reported_until = first + n - 1
    print(f"\nFunctions no driver calls ({len(rows)}, "
          f"{sum(r[3] for r in rows)} lines; nested defs fold into their parent):")
    for rel, first, qual, n in rows:
        print(f"  {rel}:{first:<5d} {qual:56s} {n:4d}")
    return unexempt


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as scratch:
        out_dir = os.path.join(scratch, "calls")
        os.makedirs(out_dir)
        failed = run_drivers(out_dir, scratch)
        unexempt = report(out_dir)
    if failed:
        print(f"\nREACH: drivers failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    if unexempt:
        print(f"\nREACH: modules no driver imports and no keep-list entry: "
              f"{', '.join(unexempt)}", file=sys.stderr)
        return 1
    print("\nREACH: every module is imported by a driver or on the keep-list")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
