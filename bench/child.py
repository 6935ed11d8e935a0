"""One round of a workload, or one set-up, in a fresh interpreter started by run.py.

    python3 -S bench/child.py --workload orbits --seed 1 --mode plain

`--mode setup` stops after the set-up, `plain`
makes an untraced round for the end-to-end metrics, and a traced run
alternates `reference` (untraced) and `traced` rounds.

The set-up (import orbitlab, then build and write the workload's input
files) is timed from the first line of this file, so every module that
importing orbitlab loads counts, standard library included.  run.py starts
the interpreter with `-S`, so that no site-packages `.pth` file has loaded
any of them before.  The child's own tooling lives in `rounds.py` and is
imported only after the set-up is timed.
"""

import sys
import time

START = time.perf_counter()

import os  # noqa: E402  (orbitlab needs it as well)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def set_up():
    """Import orbitlab, parse the arguments, write the workload's input files."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from orbitlab import cli

    import argparse  # already loaded by orbitlab

    import workloads  # bench/ is the script's directory, so it is on sys.path

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "plain", "reference", "traced"))
    args = parser.parse_args()
    workload = workloads.build(args.workload, args.seed)
    for rel, text in workload.files.items():
        path = os.path.join(ROOT, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(text)
    return cli, args, workload


def main():
    cli, args, workload = set_up()
    setup = time.perf_counter() - START
    import rounds

    return rounds.main(cli, args, workload, setup)


if __name__ == "__main__":
    sys.exit(main())
