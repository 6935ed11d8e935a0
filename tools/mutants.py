"""Mutation sweep over one Python source file, with the stdlib `ast` only.

Four kinds of mutant, one per site:
  cmp    a comparison flipped: < and <=, > and >=, == and !=, is and is not,
         in and not in swap
  add    + to - (also += to -=)
  and    `and` to `or`
  int+1  an integer constant plus one

The tree is copied once to a temporary directory.  The test command first
runs there on the unmutated file, written back through `ast.unparse`; the
sweep stops with an error unless that run passes, so a command that fails
for another reason (a misspelt test path, an import error) never reads as
a kill.  Then each mutant is written over the file (`ast.unparse` of the
mutated module) and the command runs again, with the copy as its working
directory.  A mutant is killed when the command exits nonzero or outruns
TIMEOUT seconds.
Bytecode is neither read nor written in the copy, so a mutant never runs
stale code.  The sweep prints one row per survivor and a summary line.

Run from the repository root; the command follows `--` and sees the copy's
files by relative paths:

    PYTHONPATH=src python3 tools/mutants.py src/orbitlab/categories.py \\
        --sample 0 -- python3 -m pytest -q -x -p no:cacheprovider \\
        tests/test_categories.py tests/test_acceptance.py

`--ids 3,17` runs only those sites; a site's id is its position in source
order, as the survivor table prints it.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FLIP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
TIMEOUT = 600.0
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_*")


def _sites_of(node):
    """(kind, operand index) for each mutation of one node."""
    if isinstance(node, ast.Compare):
        return [("cmp", i) for i, op in enumerate(node.ops) if type(op) in FLIP]
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Add):
        return [("add", None)]
    if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
        return [("and", None)]
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return [("int+1", None)]
    return []


SYMBOL = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
}


def _mutate(node, kind, operand) -> str:
    """Apply one mutation in place; return it as `old -> new`."""
    if kind == "cmp":
        old = type(node.ops[operand])
        node.ops[operand] = FLIP[old]()
        return f"{SYMBOL[old]} -> {SYMBOL[FLIP[old]]}"
    if kind == "add":
        node.op = ast.Sub()
        return "+ -> -"
    if kind == "and":
        node.op = ast.Or()
        return "and -> or"
    node.value += 1
    return f"{node.value - 1} -> {node.value}"


def sites(source: str) -> list[tuple]:
    """Every mutation site as (kind, walk index, operand, line, col, site
    text, change), in source order."""
    out = []
    for index, node in enumerate(ast.walk(ast.parse(source))):
        for kind, operand in _sites_of(node):
            text = ast.unparse(node)
            change = _mutate(copy.deepcopy(node), kind, operand)
            out.append((kind, index, operand, node.lineno, node.col_offset, text, change))
    out.sort(key=lambda s: (s[3], s[4], s[1], -1 if s[2] is None else s[2]))
    return out


def mutant_source(source: str, site) -> str:
    tree = ast.parse(source)
    kind, index, operand = site[:3]
    _mutate(list(ast.walk(tree))[index], kind, operand)
    return ast.unparse(tree) + "\n"


def _short(text, width=48):
    text = " ".join(text.split())
    return text if len(text) <= width else text[: width - 3] + "..."


def _exit_code(command, root, env):
    """The command's exit code in the copy, or None if it outruns TIMEOUT."""
    try:
        return subprocess.run(command, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def run(file: Path, chosen, command) -> list[tuple]:
    """Run the command once per chosen (id, site); return the survivors.
    Raises SystemExit if the command fails on the unmutated file."""
    source = file.read_text()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp) / "tree"
        shutil.copytree(Path.cwd(), root, ignore=IGNORE)
        target = root / file.resolve().relative_to(Path.cwd().resolve())
        target.write_text(ast.unparse(ast.parse(source)) + "\n")
        code = _exit_code(command, root, env)
        if code != 0:
            failure = "a timeout" if code is None else f"exit {code}"
            sys.exit(f"the test command fails on the unmutated file ({failure}); "
                     "no mutant can be judged")
        for n, (ident, site) in enumerate(chosen, 1):
            target.write_text(mutant_source(source, site))
            start = time.monotonic()
            code = _exit_code(command, root, env)
            verdict = "SURVIVED" if code == 0 else "killed (timeout)" if code is None else "killed"
            print(f"[{n}/{len(chosen)}] #{ident} line {site[3]} {site[0]}: {verdict} "
                  f"in {time.monotonic() - start:.1f} s", file=sys.stderr, flush=True)
            if verdict == "SURVIVED":
                survivors.append((ident, site))
    return survivors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], usage="%(prog)s FILE [options] -- COMMAND ..."
    )
    parser.add_argument("file", type=Path)
    parser.add_argument("--sample", type=int, default=0, help="sites to draw (0: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ids", help="comma-separated site ids to run instead of a sample")
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args, command = parser.parse_args(argv[:split]), argv[split + 1:]

    if not command:
        parser.error("a test command after -- is required")
    numbered = list(enumerate(sites(args.file.read_text())))
    if args.ids:
        wanted = {int(i) for i in args.ids.split(",")}
        chosen = [pair for pair in numbered if pair[0] in wanted]
    elif args.sample and args.sample < len(numbered):
        chosen = sorted(random.Random(args.seed).sample(numbered, args.sample))
    else:
        chosen = numbered

    survivors = run(args.file, chosen, command)
    print(f"{'id':>4}  {'line':>4}  {'kind':6s} {'site':48s}  change")
    for ident, s in survivors:
        print(f"{ident:4d}  {s[3]:4d}  {s[0]:6s} {_short(s[5]):48s}  {s[6]}")
    print(f"{len(chosen)} mutants of {len(numbered)} sites: {len(chosen) - len(survivors)} killed, "
          f"{len(survivors)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
