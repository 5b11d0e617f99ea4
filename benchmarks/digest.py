"""Print the SHA-256 of each simulate workload's results CSV for a seed.

    python3 benchmarks/digest.py --seed 1

Run from the root of a checkout.  The CSVs are regenerated with the same
configs the benchmark uses, so two commits whose results are byte-identical
print the same digests.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    run._load_program()
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        workdir = run._workdir(name)
        try:
            workload.setup(args.seed, workdir)
            for key, simulate in workload.simulations().items():
                digest = hashlib.sha256(simulate().encode()).hexdigest()
                print(f"{name} {key} seed={args.seed} sha256={digest}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
