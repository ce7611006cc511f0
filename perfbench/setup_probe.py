"""Set-up time of one workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <requests>

Prints the seconds from interpreter start-up to having imported bellsim
(from the checkout's ``src``) and built the inputs of the first
``requests`` requests.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def main(argv) -> int:
    workload, seed, requests = argv[0], int(argv[1]), int(argv[2])
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    import bellsim  # noqa: F401
    from workloads import WORKLOADS

    source = WORKLOADS[workload](seed, os.path.join(here, "work"))
    for index in range(requests):
        source.inputs(index)
    print(time.perf_counter() - START)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
