"""The benchmark's contract with ``src/``: every name it wraps or reads exists.

``perfbench/spans.py`` wraps each function of its ``TARGETS`` table,
``perfbench/worker.py`` stamps every run with values it reads from
``repro``, and ``perfbench/inputs.py`` builds the workload specs from the
public configuration API. Deleting or renaming one of those names would
crash the benchmark run; this test makes the deletion fail here instead.

The probe runs in a subprocess: ``spans.install`` rebinds the wrapped
functions in every loaded module, which must not leak into other tests.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import inputs, spans, worker

spans.install(spans.Recorder())
stamp = worker._env_stamp()
assert stamp["usable_cpus"] >= 1, stamp
for cell in inputs.fig2_cells():
    inputs.fig2_spec(cell, work_scale=0.05)
inputs.large_spec(inputs.LARGE_POOL[0])
inputs.churn_spec(inputs.CHURN_POOL[0])
pool = inputs.service_pools(1, inputs.app_names())[0]
inputs.service_body(pool[0], client=0)
print("contract ok")
"""


def test_benchmark_hooks_install_and_inputs_build():
    probe = _PROBE.format(bench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.strip().endswith("contract ok"), proc.stdout
