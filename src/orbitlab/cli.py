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
from pathlib import Path

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
        return Path(path).read_text()
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
    morphisms = hom_set(_kind(args), args.m, args.n)
    _emit(args, {"count": len(morphisms), "morphisms": [format_morphism(f) for f in morphisms]})
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared:
    callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="orbitlab", description="finite orbit/category experiments"
    )
    parser.add_argument("--version", action="version", version=f"orbitlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("homset", help="enumerate a hom-set")
    p.add_argument("--kind", required=True, choices=("fi", "oi", "bi", "ci", "si"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_homset)

    p = sub.add_parser("factorize", help="factor a morphism as eps' after g")
    p.add_argument("--morphism", required=True, help="e.g. 'CI 3->4 : [2,3,1]'")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("growth", help="orbit growth profile of a group file")
    p.add_argument("--group", required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("same-orbits", help="lemma conditions for two groups")
    p.add_argument("--group", required=True)
    p.add_argument("--subgroup", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_same_orbits)

    p = sub.add_parser("dense", help="t-density of a subgroup")
    p.add_argument("--group", required=True)
    p.add_argument("--subgroup", required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=cmd_dense)

    p = sub.add_parser("fullness-witness", help="restriction fullness probe")
    p.add_argument("--group", required=True)
    p.add_argument("--subgroup", required=True, help="the subgroup H being restricted to")
    p.add_argument("--k-subgroup", required=True, help="the subgroup K of the coset module")
    p.set_defaults(func=cmd_fullness_witness)

    p = sub.add_parser("amalgamate", help="amalgamate two embedding files")
    p.add_argument("--embedding1", required=True)
    p.add_argument("--embedding2", required=True)
    p.add_argument(
        "--age",
        required=True,
        choices=("set", "linear", "betweenness", "cyclic", "separation", "pair"),
    )
    p.add_argument("--weak", action="store_true", help="allow non-pushout universes")
    p.set_defaults(func=cmd_amalgamate)

    p = sub.add_parser("sap", help="strong amalgamation property check")
    p.add_argument(
        "--kind",
        dest="age",
        required=True,
        choices=("set", "linear", "betweenness", "cyclic", "separation", "pair"),
    )
    p.add_argument("--cap", type=int, required=True)
    p.set_defaults(func=cmd_sap)

    p = sub.add_parser("orbitcat", help="orbit-category comparison report")
    p.add_argument("--group", required=True)
    p.add_argument("--cap", type=int, required=True)
    p.set_defaults(func=cmd_orbitcat)

    p = sub.add_parser("noeth-chain", help="ascending chain stabilization experiment")
    p.add_argument("--kind", required=True, choices=("fi", "oi", "bi", "ci", "si"))
    p.add_argument("--chain", required=True, help="chain file of element lines")
    p.add_argument("--width", type=int, required=True, help="max width W")
    p.add_argument("--degree", type=int, required=True, help="degree cap D")
    p.add_argument("--field", default="q", help="q or fp:P")
    p.add_argument("--order", choices=("lex", "grevlex"), default="grevlex")
    p.set_defaults(func=cmd_noeth_chain)

    p = sub.add_parser("restrict-check", help="restriction decomposition check")
    p.add_argument("--kind", required=True, choices=("fi", "oi", "bi", "ci", "si"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_restrict_check)

    return parser


def main(argv=None) -> int:
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
