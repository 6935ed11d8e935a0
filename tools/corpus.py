"""Byte-identity corpus: a fixed list of CLI runs, one hash each.

Writes its input files to a temporary directory and runs each invocation of
`python3 -m orbitlab.cli` there, against the `src` of the checkout this file
sits in.  For each run it prints the sha256 of (exit code, stdout, stderr)
with the exit code and the command, then one hash over all the runs.  Two trees print the same
lines exactly when every run gave the same bytes and exit code.

The runs: `sap` on all six ages (caps 1-4 for `pair`, 1-5 for the reducts),
`amalgamate --age pair`, strong and `--weak`, on generated embedding files,
small `restrict-check` runs, one small run of every subcommand, and the
spellings that only argparse reads: `--help` of the program and of each
subcommand, `--version` and usage errors (help at 80 columns).  Stdlib only,
no options; from the repository root:

    python3 tools/corpus.py

It takes about 18 s on a 2-vCPU host, most of it `sap --kind pair --cap 4`.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import tempfile
from itertools import permutations
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
FILES = {
    "s4.grp": "N=4\n(1 2)\n(1 2 3 4)\n",
    "a4.grp": "N=4\n[2,3,1,4]\n(2 3 4)\n",
    "c4.grp": "N=4\n(1 2 3 4)\n",
    "c.chain": "FI 0 2 : [] : x1^2 - 3/2*x2\n--\nFI 0 2 : [] : x1*x2\n--\nFI 0 1 : [] : 2*x1^3\n",
}
REDUCTS = ("set", "linear", "betweenness", "cyclic", "separation")
# coordinates (first 0, second 1) each binary relation of the pair age compares
PAIR_RELATIONS = {"eq_ff": (0, 0), "eq_fs": (0, 1), "eq_sf": (1, 0), "eq_ss": (1, 1)}


def pair_text(points: dict) -> str:
    """The structure file of the pair-age structure `{label: (first, second)}`."""
    labels = list(points)
    diag = " ".join(f"({x})" for x in labels if points[x][0] == points[x][1])
    lines = [f"universe = {' '.join(labels)}", f"diag/1: {diag}"]
    for name, (i, j) in PAIR_RELATIONS.items():
        body = " ".join(
            f"({x},{y})" for x, y in permutations(labels, 2) if points[x][i] == points[y][j]
        )
        lines.append(f"{name}/2: {body}")
    return "".join(line.rstrip() + "\n" for line in lines)


def embedding_text(sigma: dict, gamma: dict) -> str:
    """The embedding file of sigma into gamma, each label to itself."""
    mapping = "".join(f"{x} -> {x}\n" for x in sigma)
    return f"[source]\n{pair_text(sigma)}[target]\n{pair_text(gamma)}[map]\n{mapping}"


def diagrams():
    """`(sigma, gamma1, gamma2)` pair-age diagrams: the mirror-point failure,
    a map that is no embedding, and seeded random ones over four values."""
    point = {"s": (0, 1)}
    yield point, {**point, "x": (1, 0)}, {**point, "y": (1, 0)}
    yield {"s": (0, 0)}, point, {"s": (0, 0), "y": (1, 1)}
    rng = random.Random(1)

    def grow(points, prefix, count):  # points added up to count, pairs distinct
        points = dict(points)
        while len(points) < count:
            pair = (rng.randrange(4), rng.randrange(4))
            if pair not in points.values():
                points[f"{prefix}{len(points)}"] = pair
        return points

    for _ in range(6):
        sigma = grow({}, "s", rng.randint(0, 2))
        yield sigma, *(grow(sigma, side, len(sigma) + rng.randint(1, 2)) for side in "xy")


def invocations(tmp: Path):
    """The argument lists of the corpus, writing the embedding files they read."""
    for age in REDUCTS:
        for cap in range(1, 6):
            yield ["sap", "--kind", age, "--cap", str(cap)]
    for cap in range(1, 5):
        yield ["sap", "--kind", "pair", "--cap", str(cap)]
    for d, (sigma, gamma1, gamma2) in enumerate(diagrams()):
        files = []
        for side, gamma in (("1", gamma1), ("2", gamma2)):
            files.append(f"d{d}-{side}.emb")
            (tmp / files[-1]).write_text(embedding_text(sigma, gamma))
        strong = ["amalgamate", "--embedding1", files[0], "--embedding2", files[1], "--age", "pair"]
        yield strong
        yield strong + ["--weak"]
    for kind in ("fi", "oi", "bi", "ci", "si"):
        for n, s in ((2, 3), (3, 4)):
            yield ["restrict-check", "--kind", kind, "--n", str(n), "--s", str(s)]
    yield ["restrict-check", "--kind", "fi", "--n", "3", "--s", "2"]
    for name, text in FILES.items():
        (tmp / name).write_text(text)
    plain = [  # one run of each subcommand, in the parser's order
        ["homset", "--kind", "si", "--m", "2", "--n", "4"],
        ["factorize", "--morphism", "BI 3->5 : [4,1,3]"],
        ["growth", "--group", "a4.grp", "--max-n", "3", "--format", "tsv"],
        ["same-orbits", "--group", "s4.grp", "--subgroup", "a4.grp", "--n", "3"],
        ["dense", "--group", "s4.grp", "--subgroup", "c4.grp", "--t", "2"],
        ["fullness-witness", "--group", "s4.grp", "--subgroup", "a4.grp", "--k-subgroup", "c4.grp"],
        ["amalgamate", "--age", "pair", "--embedding2", "d0-1.emb", "--embedding1", "d0-2.emb"],
        ["sap", "--cap", "3", "--kind", "cyclic"],
        ["orbitcat", "--group", "c4.grp", "--cap", "2"],
        ["noeth-chain", "--kind", "fi", "--chain", "c.chain", "--width", "3", "--degree", "3",
         "--field", "fp:3", "--order", "lex"],
        ["restrict-check", "--s", "3", "--n", "2", "--kind", "oi"],
    ]
    yield from plain
    yield ["--help"]
    for name, *_ in plain:
        yield [name, "--help"]
    homset = ["homset", "--kind", "fi"]
    yield ["--version"]
    yield homset + ["--m=2", "--n", "3"]  # flag=value
    yield homset + ["--m", "2", "--n", "-1"]  # a value that starts with -
    yield ["sap", "--kind", "set", "--ca", "2"]  # abbreviation
    yield homset + ["--m", "2", "--m", "1", "--n", "3"]  # repeated flag
    yield homset + ["--m", "2"]  # missing flag
    yield ["homset", "--kind", "xi", "--m", "2", "--n", "3"]  # bad choice
    yield homset + ["--m", "two", "--n", "3"]  # bad int
    yield ["amalgamate", "--embedding1", "d0-1.emb", "--embedding2", "d0-2.emb", "--age", "pair",
           "--weak", "x"]  # a value after a store_true flag
    yield ["bogus"]  # unknown subcommand
    yield []


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        # relative file names, so the reports' echoed arguments match across runs
        for argv in invocations(Path(tmp)):
            run = subprocess.run(
                [sys.executable, "-m", "orbitlab.cli", *argv], cwd=tmp, env=env, capture_output=True
            )
            digest = hashlib.sha256(b"%d\0%s\0%s" % (run.returncode, run.stdout, run.stderr))
            line = f"{digest.hexdigest()}  exit {run.returncode}  {' '.join(argv)}"
            total.update(line.encode() + b"\n")
            print(line, flush=True)
    print(f"{total.hexdigest()}  combined")
    return 0


if __name__ == "__main__":
    sys.exit(main())
