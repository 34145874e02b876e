"""Regenerate reference.json, the eval check at the default seed.

For each eval workload it records, for k = 1..64, the success rate,
ego and social scores and total policy steps of the first k episodes
that a pass at the default seed runs.  Run it only when a change is
meant to alter episode outcomes:

    python3 perfbench/make_reference.py
"""

import json

import run  # pins BLAS and imports socnavsim from the checkout
from socnavsim import evaluation

import workloads

EPISODES = 64


def main() -> None:
    table = {}
    for name, factory in workloads.WORKLOADS.items():
        w = factory(name, run.ROOT, workloads.DEFAULT_SEED, 30.0)
        if not isinstance(w, workloads.EvalWorkload):
            continue
        logs = [
            evaluation.run_episode(w.policy, w.config, w.suite, *seeds)
            for seeds in w.seeds[:EPISODES]
        ]
        table[name] = [workloads.reference_summary(logs[: k + 1]) for k in range(len(logs))]
        print(name, table[name][-1])
    with open(workloads.REFERENCE_PATH, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
