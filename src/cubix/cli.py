"""Command-line front end.

Three commands: ``betti`` prints one Betti table, ``verify`` runs a named
check suite, ``module-info`` dumps a module's matrices and characters.
Output is deterministic: fixed orderings, no timestamps, no floats.

``betti --mode`` picks the construction (see ``cubical.py``); all four
print the same table.  ``isotypic``, the default of every family, splits
the module into the irreducibles of S_N and sums their quotient Betti
numbers (``cubical.operator_complex``); a builtin family's module is never
built.  ``quotient`` builds only the surjective-word quotient and reads the
full complex's dimensions off a trace: of the identity, where ``--family
full`` takes the trivial module over the trivial group, and of the Dynkin
element for ``--family harrison`` (see ``harrison.py``), on each V_lambda
in isotypic mode.  ``orbit`` builds every degree of the full orbit complex
(``full_complex`` for ``--family full``), and ``naive`` the averaged
product space; the quotient is the oracle of the isotypic route, and both
of these are oracles of the quotient.  Naive mode is not defined for
``full`` and ``harrison``.

``verify`` checks the paper's statements (cor2-cor5, ass, harrison,
induction) and the engine side of every direct realization on the
quotient too, which is valid because H(Q) = H(C).  Orbit and naive mode
remain the object under test in ``prop1`` (``full_complex``), in the
``modes`` checks of ``oracles`` (orbit, naive and quotient compared) and in
``structural`` (d^2 = 0 on word, orbit and naive complexes); see
``suites.py``.

Every route counts its size before it builds a matrix (``cubical.py``),
and ``--cap`` sets the one cap on that count for every family and mode; a
cap below 0 is bad input.

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 resource cap
(a size count above ``--cap``, or a ``MemoryError``),
4 internal error (a broken invariant such as a subspace escape, a
coinvariant relation with a nonzero class, D b != m b on the basis of
im D in a built degree, d^2 != 0 on the quotient or its Harrison space, a
trace count that is not a dimension or disagrees with the quotient, a
multiplicity that is not a non-negative integer, irreducibles whose
dimensions do not sum to the module's or to its trace counts, a V_lambda
that fails the Coxeter check, a derived rank out of bounds, an impossible
Betti row or a failed rank or count check, or a KeyError, which no bad
input raises).
"""

import argparse
import json
import sys

from .cubical import (
    DEFAULT_CAP,
    DimensionCapExceeded,
    cubical_complex,
    full_complex,
)
from .harrison import harrison_complex
from .linalg import InvariantError
from .modules import (
    FAMILY_KINDS,
    builtin,
    builtin_character,
    class_function,
    load_module,
    serialize_module,
    sgn_coinvariants_dim,
)
from .perm import cycle_classes, symmetric_group, trivial_group
from .suites import SUITE_NAMES, run_suite

BETTI_FAMILIES = ("full", "ass", "lie", "tr", "sder", "harrison", "custom")
MODULE_FAMILIES = tuple(FAMILY_KINDS)


def _load_custom(path: str):
    if not path:
        raise ValueError("--custom requires a module file path")
    return load_module(path)


def _resolve_module(family: str, n, custom_path, build=True):
    """(module, slot count) for one family token; a builtin family without
    ``build`` gives its ``modules.ModuleCharacter``, and no module is built."""
    if custom_path and family not in ("custom", "harrison"):
        raise ValueError(f"--custom conflicts with --family {family}, which reads no module file")
    if family == "custom" or custom_path:
        module = _load_custom(custom_path)
        if n is not None and n != module.N:
            raise ValueError(
                f"--n {n} conflicts with the module's slot count {module.N}"
            )
        return module, module.N
    if n is None:
        raise ValueError(f"--n is required for family {family}")
    if n < 1:
        raise ValueError("--n must be at least 1")
    kind = {"full": "trivial", "harrison": "regular"}.get(family) or FAMILY_KINDS[family]
    module = (builtin if build else builtin_character)(kind, n)
    return module, module.N


def _render_table(table, family: str, slots: int, fmt: str) -> str:
    data = {**table.as_dict(), "family": family, "n": slots}
    rows = data["rows"]
    if fmt == "json":
        return json.dumps(data, indent=2)
    if fmt == "csv":
        lines = ["m,dim,rank_d,betti"]
        lines += [f"{r['m']},{r['dim']},{r['rank_d']},{r['betti']}" for r in rows]
        return "\n".join(lines)
    widths = {k: max(len(k), *(len(str(r[k])) for r in rows)) for k in rows[0]}
    head = "  ".join(k.rjust(widths[k]) for k in ("m", "dim", "rank_d", "betti"))
    lines = [head]
    for r in rows:
        lines.append(
            "  ".join(str(r[k]).rjust(widths[k]) for k in ("m", "dim", "rank_d", "betti"))
        )
    lines.append(f"cohomology: {table.graded_symbol()}")
    return "\n".join(lines)


def cmd_betti(args) -> int:
    if args.cap < 0:
        raise ValueError("--cap must be at least 0")
    # before any module is read or built
    if args.mmax is not None and args.mmax < 2:
        raise ValueError("--mmax must be at least 2")
    family = args.family
    mode = args.mode or "isotypic"
    if mode == "naive" and family in ("full", "harrison"):
        raise ValueError(f"mode {mode} is not defined for family {family}")
    module, slots = _resolve_module(family, args.n, args.custom, build=mode != "isotypic")
    m_max = args.mmax if args.mmax is not None else slots + 2
    # the word complex is the trivial module over the trivial group
    group = trivial_group(slots) if family == "full" else symmetric_group(slots)
    if family == "full" and mode == "orbit":
        table = full_complex(slots, m_max, args.cap).betti_table()
    else:
        build = harrison_complex if family == "harrison" else cubical_complex
        table = build(module, group, m_max, mode, args.cap).betti_table()
    n_out = args.n if args.n is not None else slots
    print(_render_table(table, args.family, n_out, args.format))
    return 0


def cmd_verify(args) -> int:
    if args.nmax < 1:
        raise ValueError("--nmax must be at least 1")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    checks = run_suite(args.suite, nmax=args.nmax, jobs=args.jobs)
    if not checks:
        raise ValueError(f"--suite {args.suite} holds no check at --nmax {args.nmax}")
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} [{c.suite}] {c.name}: {c.detail}")
    failed = sum(1 for c in checks if not c.passed)
    print(
        json.dumps(
            {
                "suite": args.suite,
                "nmax": args.nmax,
                "checks": len(checks),
                "failed": failed,
            }
        )
    )
    return 0 if failed == 0 else 1


def cmd_module_info(args) -> int:
    if args.custom:
        if args.family is not None or args.n is not None:
            raise ValueError("--custom conflicts with --family and --n: the file fixes the module")
        module = _load_custom(args.custom)
    else:
        if args.family is None or args.n is None:
            raise ValueError("module-info needs --family with --n, or --custom")
        module, _ = _resolve_module(args.family, args.n, None)
    group = symmetric_group(module.N)
    # the traced characters, each checked against the value the counts read
    # (a builtin kind's closed form)
    chi = class_function(module, group)
    chars = []
    for rep, _ in cycle_classes(group):
        label, traced = "+".join(map(str, rep.cycle_type())), module.character(rep)
        if traced != chi[rep]:
            raise InvariantError(
                f"{module.name}: the character traces to {traced} on cycle class {label}, "
                f"its closed form is {chi[rep]}"
            )
        chars.append((label, str(traced)))
    sgn_dim = sgn_coinvariants_dim(module, group)
    generators = serialize_module(module)["generators"]
    if args.format == "json":
        payload = {
            "name": module.name,
            "slots": module.N,
            "dim": module.dim,
            "basis": list(module.basis_labels),
            "generators": generators,
            "characters": {label: value for label, value in chars},
            "sgn_coinvariants": sgn_dim,
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"name: {module.name}")
    print(f"slots: {module.N}")
    print(f"dim: {module.dim}")
    print("basis: " + ", ".join(module.basis_labels))
    for i, rows in enumerate(generators, start=1):
        print(f"s{i}: [" + ", ".join("[" + ", ".join(r) + "]" for r in rows) + "]")
    print("characters: " + ", ".join(f"{label}: {v}" for label, v in chars))
    print(f"sgn-coinvariants: {sgn_dim}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubix",
        description="Exact cohomology of word complexes under permutation actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_betti = sub.add_parser("betti", help="print one Betti table")
    p_betti.add_argument("--family", required=True, choices=BETTI_FAMILIES)
    p_betti.add_argument("--custom", help="custom module JSON path")
    p_betti.add_argument("--n", type=int)
    p_betti.add_argument("--mmax", type=int)
    p_betti.add_argument("--mode", choices=("isotypic", "quotient", "orbit", "naive"))
    p_betti.add_argument("--format", choices=("json", "csv", "table"), default="table")
    p_betti.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p_betti.set_defaults(func=cmd_betti)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "--suite", required=True, choices=SUITE_NAMES + ("all",)
    )
    p_verify.add_argument("--nmax", type=int, default=4)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.set_defaults(func=cmd_verify)

    p_info = sub.add_parser("module-info", help="describe one module")
    p_info.add_argument("--family", choices=MODULE_FAMILIES)
    p_info.add_argument("--custom", help="custom module JSON path")
    p_info.add_argument("--n", type=int)
    p_info.add_argument("--format", choices=("json", "table"), default="table")
    p_info.set_defaults(func=cmd_module_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DimensionCapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("resource cap: the computation ran out of memory", file=sys.stderr)
        return 3
    except (InvariantError, KeyError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
