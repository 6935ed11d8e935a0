"""Command-line front end.

Every subcommand emits one JSON report (`growth --format tsv` a TSV table)
that echoes the full configuration and the tool version, so identical
invocations produce byte-identical output.  Exit codes: 0 success, 1 the
checked property fails (a witness is printed), 2 malformed input, 3 a
resource cap was hit.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import __version__
from .actions import (
    growth_profile,
    is_t_dense,
    lemma_equivalence_check,
    parse_group_file,
    restriction_fullness_witness,
)
from .categories import (
    CategoryKind,
    factorize,
    format_morphism,
    hom_set,
    morphism_template,
    parse_morphism,
)
from .errors import FalsificationError, MalformedInputError, ResourceCapError
from .modlab import (
    chain_experiment,
    parse_chain_file,
    restriction_decomposition_check,
)
from .orbitcat import phi_iso_report
from .polynomials import CoefficientField, MonomialOrder
from .structures import (
    age_for,
    age_has_sap,
    format_structure,
    parse_embedding_file,
    solve_amalgamation,
    AmalgamationProblem,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_MALFORMED = 2
EXIT_CAP = 3


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}")


def _config(args) -> dict:
    skip = {"func"}
    out = {}
    for k, v in sorted(vars(args).items()):
        if k in skip:
            continue
        out[k.replace("_", "-")] = v
    return out


def _emit(args, payload: dict) -> None:
    report = {"tool": "orbitlab", "version": __version__, "config": _config(args)}
    report.update(payload)
    print(json.dumps(report, indent=2, default=str))


def _kind(args) -> CategoryKind:
    return CategoryKind.from_string(args.kind)


# -- subcommands ---------------------------------------------------------------


def cmd_homset(args) -> int:
    kind = _kind(args)
    images = hom_set(kind, args.m, args.n)
    template = morphism_template(kind, args.m, args.n)  # the one `format_morphism` uses
    _emit(args, {"count": len(images), "morphisms": [template % image for image in images]})
    return EXIT_OK


def cmd_factorize(args) -> int:
    f = parse_morphism(args.morphism)
    eps_prime, g = factorize(f)
    _emit(
        args,
        {
            "input": format_morphism(f),
            "eps_prime": format_morphism(eps_prime),
            "g": format_morphism(g),
        },
    )
    return EXIT_OK


def cmd_growth(args) -> int:
    action = parse_group_file(_read(args.group))
    profile = growth_profile(action, args.max_n)
    if args.format == "tsv":
        print(f"# orbitlab {__version__}")
        print("# config: " + json.dumps(_config(args), default=str))
        print("n\tf\tF\tF_star")
        for i in range(profile.max_n):
            print(f"{i + 1}\t{profile.f[i]}\t{profile.F[i]}\t{profile.F_star[i]}")
    else:
        _emit(
            args,
            {
                "group_order": action.order(),
                "f": list(profile.f),
                "F": list(profile.F),
                "F_star": list(profile.F_star),
            },
        )
    return EXIT_OK


def cmd_same_orbits(args) -> int:
    G = parse_group_file(_read(args.group))
    H = parse_group_file(_read(args.subgroup))
    report = lemma_equivalence_check(G, H, args.n)
    _emit(
        args,
        {
            "conditions": {
                "all_tuples": report.cond1,
                "injective_tuples": report.cond2,
                "all_tuples_all_levels": report.cond3,
                "injective_tuples_all_levels": report.cond4,
            },
            "consistent": report.consistent,
            "witness": report.witness,
        },
    )
    return EXIT_OK if report.consistent else EXIT_VIOLATION


def cmd_dense(args) -> int:
    G = parse_group_file(_read(args.group))
    H = parse_group_file(_read(args.subgroup))
    _emit(args, {"dense": is_t_dense(H, G, args.t)})
    return EXIT_OK


def cmd_fullness_witness(args) -> int:
    G = parse_group_file(_read(args.group))
    H = parse_group_file(_read(args.subgroup))
    K = parse_group_file(_read(args.k_subgroup))
    witness = restriction_fullness_witness(G, H, K)
    if witness is None:
        _emit(args, {"full": True, "witness": None})
        return EXIT_OK
    _emit(
        args,
        {
            "full": False,
            "witness": {
                "g": list(witness.g),
                "coset_index": witness.coset_index,
                "f_at_g_coset": str(witness.lhs),
                "f_at_coset": str(witness.rhs),
            },
        },
    )
    return EXIT_VIOLATION


def cmd_amalgamate(args) -> int:
    e1 = parse_embedding_file(_read(args.embedding1))
    e2 = parse_embedding_file(_read(args.embedding2))
    problem = AmalgamationProblem.checked(e1, e2, age_for(args.age))
    amalgam = solve_amalgamation(problem, strong=not args.weak)
    if amalgam is None:
        _emit(args, {"amalgam": "NONE"})
        return EXIT_OK
    _emit(
        args,
        {
            "amalgam": format_structure(amalgam.delta),
            "g1_images": [str(x) for x in amalgam.g1.images],
            "g2_images": [str(x) for x in amalgam.g2.images],
        },
    )
    return EXIT_OK


def cmd_sap(args) -> int:
    report = age_has_sap(args.age, args.cap)
    payload = {"sap": report.holds}
    if not report.holds:
        c = report.certificate
        payload["certificate"] = {
            "sigma": format_structure(c.sigma),
            "gamma1": format_structure(c.gamma1),
            "gamma2": format_structure(c.gamma2),
            "f1_images": [str(x) for x in c.f1.images],
            "f2_images": [str(x) for x in c.f2.images],
        }
    _emit(args, payload)
    return EXIT_OK if report.holds else EXIT_VIOLATION


def cmd_orbitcat(args) -> int:
    action = parse_group_file(_read(args.group))
    report = phi_iso_report(action, args.cap)
    _emit(
        args,
        {
            "objects": [list(s) for s in report.objects],
            "hom_counts": [list(row) for row in report.hom_counts],
            "isomorphism": report.passed,
            "object_collisions": [list(map(list, c)) for c in report.object_collisions],
            "hom_mismatches": [
                {
                    "gamma": list(g),
                    "sigma": list(s),
                    "embeddings": e,
                    "orbit_morphisms": h,
                }
                for g, s, e, h in report.hom_mismatches
            ],
            # always empty: the report's canonical structure has arity at
            # least |gamma|, so every embedding is the restriction of a
            # group element; the key keeps the report's shape
            "missing_extensions": [],
            "fixed_point_violations": [list(v) for v in report.fixed_point_violations],
            "consistent_with_fixed_points": report.consistent_with_fixed_points,
        },
    )
    return EXIT_OK if report.passed else EXIT_VIOLATION


def cmd_noeth_chain(args) -> int:
    field = CoefficientField.from_string(args.field)
    kind = _kind(args)
    chain = parse_chain_file(_read(args.chain), kind, field)
    report = chain_experiment(
        kind, chain, args.width, args.degree, MonomialOrder(args.order)
    )
    _emit(
        args,
        {
            "results": report.to_json_obj(),
            "all_stabilized": report.all_stabilized,
            "width_uniform_index": report.width_uniform_index,
        },
    )
    return EXIT_OK if report.all_stabilized else EXIT_VIOLATION


def cmd_restrict_check(args) -> int:
    report = restriction_decomposition_check(_kind(args), args.n, args.s)
    _emit(
        args,
        {
            "ok": report.ok,
            "class_count": len(report.classes),
            "classes": [
                {"g": list(g), "members": [list(i) for i in members]}
                for g, members in report.classes
            ],
            "failures": list(report.failures),
        },
    )
    return EXIT_OK if report.ok else EXIT_VIOLATION


# -- parser ---------------------------------------------------------------------


REQUIRED = {"required": True}
INT = {"type": int, "required": True}
KIND = ("--kind", {**REQUIRED, "choices": ("fi", "oi", "bi", "ci", "si")})
GROUP, SUBGROUP = ("--group", REQUIRED), ("--subgroup", REQUIRED)
AGES = ("set", "linear", "betweenness", "cyclic", "separation", "pair")

# name -> (handler, help, then (flag, add_argument options) per argument)
SUBCOMMANDS = {
    "homset": (cmd_homset, "enumerate a hom-set", KIND, ("--m", INT), ("--n", INT)),
    "factorize": (
        cmd_factorize,
        "factor a morphism as eps' after g",
        ("--morphism", {**REQUIRED, "help": "e.g. 'CI 3->4 : [2,3,1]'"}),
    ),
    "growth": (
        cmd_growth,
        "orbit growth profile of a group file",
        GROUP,
        ("--max-n", INT),
        ("--format", {"choices": ("json", "tsv"), "default": "json"}),
    ),
    "same-orbits": (cmd_same_orbits, "lemma conditions for two groups", GROUP, SUBGROUP, ("--n", INT)),
    "dense": (cmd_dense, "t-density of a subgroup", GROUP, SUBGROUP, ("--t", INT)),
    "fullness-witness": (
        cmd_fullness_witness,
        "restriction fullness probe",
        GROUP,
        ("--subgroup", {**REQUIRED, "help": "the subgroup H being restricted to"}),
        ("--k-subgroup", {**REQUIRED, "help": "the subgroup K of the coset module"}),
    ),
    "amalgamate": (
        cmd_amalgamate,
        "amalgamate two embedding files",
        ("--embedding1", REQUIRED),
        ("--embedding2", REQUIRED),
        ("--age", {**REQUIRED, "choices": AGES}),
        ("--weak", {"action": "store_true", "help": "allow non-pushout universes"}),
    ),
    "sap": (
        cmd_sap,
        "strong amalgamation property check",
        ("--kind", {**REQUIRED, "dest": "age", "choices": AGES}),
        ("--cap", INT),
    ),
    "orbitcat": (cmd_orbitcat, "orbit-category comparison report", GROUP, ("--cap", INT)),
    "noeth-chain": (
        cmd_noeth_chain,
        "ascending chain stabilization experiment",
        KIND,
        ("--chain", {**REQUIRED, "help": "chain file of element lines"}),
        ("--width", {**INT, "help": "max width W"}),
        ("--degree", {**INT, "help": "degree cap D"}),
        ("--field", {"default": "q", "help": "q or fp:P"}),
        ("--order", {"choices": ("lex", "grevlex"), "default": "grevlex"}),
    ),
    "restrict-check": (
        cmd_restrict_check, "restriction decomposition check", KIND, ("--n", INT), ("--s", INT)
    ),
}


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, which adds its arguments when it first parses,
    so that a run builds only those of the subcommand it invokes."""

    arguments = ()

    def parse_known_args(self, args=None, namespace=None):
        for flag, options in self.arguments:
            self.add_argument(flag, **options)
        self.arguments = ()
        return super().parse_known_args(args, namespace)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared:
    callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="orbitlab", description="finite orbit/category experiments"
    )
    parser.add_argument("--version", action="version", version=f"orbitlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Subcommand)
    for name, (handler, help, *arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.arguments = arguments
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:  # the console entry: a closed stdout ends it quietly, as it does `cat`
        import signal

        if hasattr(signal, "SIGPIPE"):
            signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except FalsificationError as exc:
        print(f"FALSIFICATION: {exc}", file=sys.stderr)
        code = EXIT_VIOLATION
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_MALFORMED
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        code = EXIT_CAP
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
