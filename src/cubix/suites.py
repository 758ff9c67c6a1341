"""Named verification suites over the whole catalog of complexes.

Each suite is a fixed list of checks.  A check's spec holds a module-level
function and plain arguments, so it pickles for worker processes, and the
function builds its modules where it runs.  Results come back in definition
order no matter how they were scheduled, which keeps output byte-identical
across worker counts.

Every check of a statement of the paper (cor2, cor3, cor4, cor5, ass,
harrison and induction) and the engine side of every direct realization
reads its Betti table off the surjective-word quotient Q, the route each
irreducible of ``betti``'s isotypic default runs through.  That is valid
because H(Q) = H(C), proved in the ``cubical.py`` docstring.  Where a
route is itself under test, the other constructions remain the object:
prop1 checks ``full_complex``, the
``modes`` checks of the oracles suite compare the orbit, naive and quotient
complexes, and the structural suite checks d.d = 0 on word, orbit and naive
complexes.
"""

from .cubical import (
    Record,
    cubical_complex,
    differential,
    full_complex,
    position_matrix,
)
from .harrison import (
    check_idempotent,
    harrison_complex,
    word_eulerian_matrix,
)
from .modules import (
    BUILTIN_KINDS,
    FAMILY_KINDS,
    ModuleSpec,
    _check_coxeter,
    builtin,
    induce,
    random_basis_change,
    sgn_coinvariants_dim,
    trivial_subgroup_module,
)
from .perm import Permutation, PermutationGroup, cyclic_group, symmetric_group
from .realizations import direct_complex


class Check(Record):
    def __init__(self, suite: str, name: str, passed: bool, detail: str):
        self.suite = suite
        self.name = name
        self.passed = passed
        self.detail = detail


def _expect(label, table, degree: int, dim: int, want: str = ""):
    """Pass when the table is ``dim`` copies of k in ``degree`` and 0 elsewhere."""
    ok = all(row.betti == (dim if row.m == degree else 0) for row in table.rows)
    return ok, f"{label}: betti={table.bettis()}, expected {want or f'{dim} at m={degree}'}"


# -- individual checks -------------------------------------------------------


def chk_prop1(n: int):
    table = full_complex(n, n + 2).betti_table()
    return _expect(f"full n={n}", table, n, 1, f"single class at m={n}")


def chk_concentrated(label: str, kind: str, n: int, dim=None, want="", seed=None):
    """Cor. 2: H(M (x)_{S_N} C) is dim(M (x)_{S_N} sgn) copies of k in degree N.

    M is ``builtin(kind, n)``, basis-changed when ``seed`` is given.  Cor. 3,
    Cor. 4, ass and Cor. 5 pass their closed form as ``dim``, so they do not
    rest on the character sum.  The table comes from the surjective-word
    quotient Q, which has the cohomology of C; orbit and naive mode stay
    under test in the oracles and structural suites.
    """
    module = builtin(kind, n)
    if seed is not None:
        module = random_basis_change(module, seed=seed)
    group = symmetric_group(module.N)
    if dim is None:
        dim = sgn_coinvariants_dim(module, group)
    table = cubical_complex(module, group, module.N + 2, mode="quotient").betti_table()
    return _expect(label, table, module.N, dim, want)


def chk_harrison_dim(kind: str):
    group = symmetric_group(1)
    if kind == "trivial":
        module = builtin("trivial", 1)
    else:
        module = random_basis_change(
            ModuleSpec("wide", 1, 3, ["a", "b", "c"], ()), seed=11
        )
    table = harrison_complex(module, group, 3, mode="quotient").betti_table()
    return _expect(f"harrison {module.name} n=1", table, 1, module.dim)


def chk_harrison_vanishes(kind: str, n: int):
    hc = harrison_complex(builtin(kind, n), symmetric_group(n), n + 2, mode="quotient")
    return _expect(f"harrison {kind} n={n}", hc.betti_table(), n, 0, "no cohomology")


def _agree(label: str, named):
    """Pass when the (name, complex) pairs of ``named`` agree in their dims
    through m_max + 1 and their Betti numbers.  The detail shows the first
    two complexes, and all of them on a disagreement."""
    sides = [
        (name, tuple(cx.dims[m] for m in range(1, cx.m_max + 2)), cx.betti_table().bettis())
        for name, cx in named
    ]
    ok = all(side[1:] == sides[0][1:] for side in sides)
    shown = sides[:2] if ok else sides
    return ok, f"{label}: " + " vs ".join(
        f"{name} dims={dims} betti={betti}" for name, dims, betti in shown
    )


def chk_modes_agree(kind: str, n: int):
    module = builtin(kind, n)
    # lie_cyclic(n) lives over S_{n+1}, so take the slot count from the module
    group = symmetric_group(module.N)
    modes = ("orbit", "naive", "quotient")
    return _agree(
        f"{kind} n={n}",
        ((mode, cubical_complex(module, group, 4, mode=mode)) for mode in modes),
    )


def chk_realization(family: str, n: int):
    direct = direct_complex(family, n, 6)
    module = builtin(FAMILY_KINDS[family], n)
    engine = cubical_complex(module, symmetric_group(n), 6, mode="quotient")
    return _agree(f"{family} n={n}", (("direct", direct), ("engine", engine)))


def chk_induction(tag: str):
    if tag == "c3":
        group = cyclic_group(3)
        m_max = 5
    else:
        group = PermutationGroup(
            4, (Permutation((2, 1, 3, 4)), Permutation((1, 2, 4, 3)))
        )
        m_max = 6
    module = trivial_subgroup_module(group)
    n = group.degree
    sub = cubical_complex(module, group, m_max, mode="quotient").betti_table()
    ind = cubical_complex(
        induce(module), symmetric_group(n), m_max, mode="quotient"
    ).betti_table()
    ok = sub.bettis() == ind.bettis()
    return ok, f"{tag}: subgroup betti={sub.bettis()} vs induced betti={ind.bettis()}"


def chk_d_squared(tag: str):
    if tag == "full":
        ok = all(full_complex(n, n + 2).check_d_squared() for n in (1, 2, 3))
    elif tag == "orbit":
        cases = (
            (builtin("lie", 4), symmetric_group(4)),
            (builtin("tr_cyclic", 3), symmetric_group(3)),
            (builtin("lie_cyclic", 3), symmetric_group(4)),
            (trivial_subgroup_module(cyclic_group(3)), cyclic_group(3)),
        )
        ok = all(cubical_complex(mod, grp, 4).check_d_squared() for mod, grp in cases)
    else:
        ok = cubical_complex(
            builtin("regular", 3), symmetric_group(3), 3, mode="naive"
        ).check_d_squared()
    return ok, f"d.d = 0 ({tag} complexes)"


def chk_equivariance():
    n = 3
    ok = True
    for m in (1, 2, 3):
        d = differential(n, m)
        for g in symmetric_group(n).elements:
            if position_matrix(g, n, m) * d != d * position_matrix(g, n, m + 1):
                ok = False
    return ok, "differential commutes with the position action (n=3, m<=3)"


def chk_coxeter():
    count = 0
    for kind in BUILTIN_KINDS:
        for n in (1, 2, 3, 4):
            module = builtin(kind, n)
            try:
                _check_coxeter(module.name, module.N, module.dim, module.gen_actions)
            except ValueError as exc:
                return False, str(exc)
            count += 1
    return True, f"Coxeter relations hold for {count} builtin modules"


def chk_jacobi():
    from .freelie import expand

    a, b, c = 1, 2, 3
    total = {}
    for tree in (((a, b), c), ((b, c), a), ((c, a), b)):
        for w, v in expand(tree).items():
            total[w] = total.get(w, 0) + v
    ok = all(v == 0 for v in total.values())
    return ok, "Jacobi identity vanishes after expansion"


def chk_eulerian():
    ok = True
    for n in (1, 2, 3):
        e = {m: word_eulerian_matrix(n, m) for m in range(1, 6)}
        for m in (1, 2, 3, 4):
            d = differential(n, m)
            ok = ok and check_idempotent(e[m]) and e[m] * d == d * e[m + 1]
    return ok, "Eulerian idempotency and d-commutation (n<=3, m<=4)"


# -- suite definitions -------------------------------------------------------


def _specs(suite: str, nmax: int):
    """(suite, name, check function, args) for each check of ``suite``."""
    out = []

    def add(name, func, *args):
        out.append((suite, name, func, args))

    if suite == "prop1":
        for n in range(1, min(nmax, 4) + 1):
            add(f"full n={n}", chk_prop1, n)
    elif suite == "cor2":
        for kind in ("trivial", "sign", "regular"):
            for n in range(1, min(nmax, 4) + 1):
                add(f"{kind} n={n}", chk_concentrated, f"{kind} n={n}", kind, n)
        for kind, seed in (("sign", 1), ("regular", 2), ("tr_cyclic", 3)):
            label = f"{kind}(3)~seed{seed}"
            add(f"custom({kind}) seed={seed}", chk_concentrated, label, kind, 3, None, "", seed)
    elif suite == "cor3":
        for n in range(1, min(nmax, 5) + 1):
            add(f"lie n={n}", chk_concentrated, f"lie n={n}", "lie", n, int(n <= 2))
    elif suite == "ass":
        for n in range(1, min(nmax, 4) + 1):
            add(f"regular n={n}", chk_concentrated, f"regular n={n}", "regular", n, 1,
                f"single class at m={n}")
    elif suite == "cor4":
        for n in range(1, min(nmax, 5) + 1):
            add(f"tr n={n}", chk_concentrated, f"tr n={n}", "tr_cyclic", n, n % 2)
    elif suite == "cor5":
        # lie_cyclic(n) lives on n + 1 slots
        for n in range(2, min(nmax, 4) + 1):
            want = "single class at m=3" if n == 2 else "no cohomology"
            add(f"sder n={n}", chk_concentrated, f"sder n={n} ({n + 1} slots)",
                "lie_cyclic", n, int(n == 2), want)
    elif suite == "harrison":
        add("dim M at n=1 (trivial)", chk_harrison_dim, "trivial")
        add("dim M at n=1 (custom)", chk_harrison_dim, "custom")
        for kind in ("trivial", "regular", "lie"):
            for n in range(2, min(nmax, 3) + 1):
                add(f"{kind} n={n}", chk_harrison_vanishes, kind, n)
    elif suite == "oracles":
        for kind in BUILTIN_KINDS:
            for n in range(1, min(nmax, 3) + 1):
                add(f"modes {kind} n={n}", chk_modes_agree, kind, n)
        for family in ("ass", "lie", "tr"):
            for n in range(1, min(nmax, 4) + 1):
                add(f"direct {family} n={n}", chk_realization, family, n)
    elif suite == "induction":
        add("C3 inside S3", chk_induction, "c3")
        add("S2 x S2 inside S4", chk_induction, "s2s2")
    elif suite == "structural":
        add("d squared, word complexes", chk_d_squared, "full")
        add("d squared, orbit complexes", chk_d_squared, "orbit")
        add("d squared, naive complex", chk_d_squared, "naive")
        add("position equivariance", chk_equivariance)
        add("Coxeter relations", chk_coxeter)
        add("Jacobi identity", chk_jacobi)
        add("Eulerian idempotent", chk_eulerian)
    else:
        raise ValueError(f"unknown suite: {suite}")
    return out


SUITE_NAMES = (
    "prop1",
    "cor2",
    "cor3",
    "cor4",
    "cor5",
    "ass",
    "harrison",
    "induction",
    "oracles",
    "structural",
)


def _run_spec(spec) -> Check:
    suite, name, func, args = spec
    try:
        passed, detail = func(*args)
    except Exception as exc:  # a crash is a failure, not an abort
        return Check(suite, name, False, f"error: {exc}")
    return Check(suite, name, bool(passed), detail)


def run_suite(suite: str, nmax: int = 4, jobs: int = 1) -> list:
    """Run one suite (or "all") and return checks in definition order."""
    if suite == "all":
        specs = []
        for name in SUITE_NAMES:
            specs.extend(_specs(name, nmax))
    else:
        specs = _specs(suite, nmax)
    if jobs > 1 and len(specs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
            return list(pool.map(_run_spec, specs))
    return [_run_spec(spec) for spec in specs]
