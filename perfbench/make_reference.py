"""Write the reference answers the benchmark checks every solve against.

    python3 perfbench/make_reference.py

Solves every (problem, m, p) the workloads and their m=10 smoke-test
sizes can draw, and keeps n_omega, n_gamma, cond, l2_error and the
floor flag of each. Run it only when the program's answers are meant to
change, and say so where the change is recorded.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ssem  # noqa: E402
import workloads  # noqa: E402
from run import environment  # noqa: E402


def solves():
    for problem in workloads.SWEEP_PROBLEMS:
        yield from ((problem, m) for m in workloads.SWEEP_GRIDS)
    for problem, m in (workloads.BALL, workloads.HEAT):
        yield from ((problem, workloads.TINY_M), (problem, m))


def main() -> int:
    answers = {}
    for problem, m in solves():
        for p in workloads.P_CHOICES:
            _, row = ssem.solve_problem(problem, m, ssem.SmootherSpec(p=p))
            label = workloads.p_label(p)
            answers[workloads.reference_key(problem, m, label)] = {
                "n_omega": row.n_omega, "n_gamma": row.n_gamma,
                "cond": row.cond, "l2_error": row.l2_error,
                "floored": bool(row.floored),
            }
            print(problem, m, label, row.l2_error, row.cond, flush=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump({"environment": environment(), "solves": answers}, fh,
                  indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
