"""Run one benchmark workload; see harness.py.

    python3 roundbench/run.py --workload NAME --seed N --seconds S --trace 0|1
"""
import sys

from harness import main

if __name__ == "__main__":
    sys.exit(main())
