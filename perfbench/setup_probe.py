"""Set-up time in a fresh interpreter: ``import ptdimer`` plus resolving the
workload's configs, up to the first engine call.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
Prints the seconds taken and the speed scale of reference.py measured
right after, in the same process.
"""

import sys
import time

import workloads


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    import ptdimer  # noqa: F401  (the import is what is being timed)

    for scenario in workloads.scenarios(workload, seed):
        workloads.resolve(workload, scenario)
    seconds = time.perf_counter() - start
    import reference

    print(seconds, reference.NOMINAL_S / reference.sample(4))


if __name__ == "__main__":
    main()
