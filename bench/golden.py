"""Regenerate ``golden.json``: the checked values of the first operations of
each workload for the default seed, as this version of the library
computes them.

    python3 bench/golden.py

Only values the mathematics determines are stored: exact tau_max and the
Doeblin and baseline bounds of a query (with its exit code), LP optimal
values, and c_xy, c_y and tau_max of a simultaneous or four-way build.
Witnesses and coupling-dependent penalties are left out, because a valid
change may pick a different optimal vertex or coupling. Regenerate only
when a change to the benchmark's inputs is intended.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

# Rounds of each workload's input mix to store: for query and lp more than
# one 30-second run performs on the commit that defined the benchmark, for
# simul about half of them, which keeps this file small.
ROUNDS = {"query": 60, "lp": 36, "simul": 200}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    lb = run.import_library()
    workdir = run.OUT / "work-golden"
    workdir.mkdir(parents=True, exist_ok=True)
    golden = {}
    try:
        for name, wl_class in workloads.WORKLOADS.items():
            wl = wl_class(lb, run.GOLDEN_SEED, workdir)
            values = []
            for i in range(ROUNDS[name] * len(wl_class.STRATA)):
                op = wl.make(i)
                problems, checked = wl.check(op, wl.run(op))
                if problems:
                    print(f"{name} op {i}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                values.append(checked)
            golden[name] = values
            print(f"{name}: {len(values)} operations")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = ",\n".join(
        f'"{name}": [\n' + ",\n".join(json.dumps(v) for v in values) + "\n]"
        for name, values in golden.items()
    )
    run.GOLDEN.write_text("{\n" + lines + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
