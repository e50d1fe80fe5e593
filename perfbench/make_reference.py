"""Regenerate ``perfbench/reference.json`` from the current program.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py

Records, for every Figure 2 cell, the mean target turnaround the
``fig2_grid`` check compares against, and for every input in the
``large_smp`` and ``open_churn`` pools the values
``worker.check_reference`` compares against. Regenerate only when a
change is meant to alter simulated results, and say so. It prints how far
the Figure 2 table strays from the committed ``results/csv`` files.

Those files were written before the machine model started caching the
absolute transition horizon. That moved every turnaround by a few ulps,
and in A/LU CB/latest-quantum it flipped a near-tie scheduling decision
(25 context switches before, 17 after), so that cell now reads
4531091.438 us against 4531373.210 us in ``fig2a.csv`` (-6.2e-5 rel);
the other 98 cells agree within 1e-6.
"""

from __future__ import annotations

import json
import os

import inputs
from repro.experiments.base import run_simulation
from worker import REL_TOL, fig2_csv, reference_record


def main() -> None:
    out = {"fig2_grid": {}, "large_smp": {}, "open_churn": {}}
    for cell in inputs.fig2_cells():
        out["fig2_grid"]["/".join(cell)] = run_simulation(
            inputs.fig2_spec(cell)).mean_target_turnaround_us()
    for seed in inputs.LARGE_POOL:
        out["large_smp"][str(seed)] = reference_record(
            "large_smp", run_simulation(inputs.large_spec(seed)))
    for seed in inputs.CHURN_POOL:
        out["open_churn"][str(seed)] = reference_record(
            "open_churn", run_simulation(inputs.churn_spec(seed)))
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    csv_table = fig2_csv()
    for cell in inputs.fig2_cells():
        got, want = out["fig2_grid"]["/".join(cell)], csv_table[cell]
        if abs(got - want) > REL_TOL * abs(want):
            print(f"{'/'.join(cell)}: {got!r} vs results/csv {want!r} "
                  f"({got / want - 1:+.2e} rel)")


if __name__ == "__main__":
    main()
