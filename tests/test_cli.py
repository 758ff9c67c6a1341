"""Suites and command-line behavior: exit codes, formats, determinism."""

import concurrent.futures
import json
import pickle
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import clear_realization_caches, diagonal_basis_change

import cubix.freelie as freelie
import cubix.modules as modules
import cubix.realizations as realizations
import cubix.suites as suites
from cubix.cli import main
from cubix.cubical import DEFAULT_CAP, OrbitComplexBuilder
from cubix.harrison import HarrisonRestrictionError
from cubix.linalg import InvariantError, RationalMatrix, SubspaceEscape
from cubix.modules import ModuleSpec, builtin, random_basis_change, serialize_module
from cubix.suites import SUITE_NAMES, Check, _run_spec, _specs, run_suite


def test_prop1_suite_passes():
    checks = run_suite("prop1", nmax=2)
    assert [c.name for c in checks] == ["full n=1", "full n=2"]
    assert all(c.passed for c in checks)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope", nmax=2)


def test_suite_results_independent_of_workers():
    serial = run_suite("induction", nmax=4, jobs=1)
    parallel = run_suite("induction", nmax=4, jobs=2)
    assert serial == parallel


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    return _RecordingPool.made


def test_verify_starts_no_more_workers_than_checks(recording_pool):
    serial = run_suite("prop1", nmax=2, jobs=1)
    assert recording_pool == []
    # two checks: two workers, however many jobs were asked for
    assert run_suite("prop1", nmax=2, jobs=64) == serial
    assert run_suite("structural", nmax=2, jobs=3) == run_suite("structural", nmax=2)
    assert recording_pool == [2, 3]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_verify_rejects_fewer_than_one_job(jobs, recording_pool, capsys):
    assert main(["verify", "--suite", "prop1", "--nmax", "2", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --jobs must be at least 1\n"
    assert recording_pool == []


def test_a_check_pickles_and_compares_by_its_fields():
    check = Check("prop1", "full n=2", True, "betti=(0, 1, 0, 0)")
    back = pickle.loads(pickle.dumps(check))
    assert back == check and back is not check
    assert back != Check("prop1", "full n=2", False, "betti=(0, 1, 0, 0)")
    assert check != ("prop1", "full n=2", True, "betti=(0, 1, 0, 0)")


def test_every_spec_pickles_for_workers():
    # --jobs sends each spec, check function included, to a worker process
    for suite in SUITE_NAMES:
        for spec in _specs(suite, 4):
            assert pickle.loads(pickle.dumps(spec)) == spec


def test_run_spec_turns_crash_into_failure():
    def boom():
        raise RuntimeError("synthetic")

    check = _run_spec(("structural", "x", boom, ()))
    assert not check.passed
    assert "synthetic" in check.detail


def test_coxeter_check_fails_on_a_broken_builtin(monkeypatch):
    real = suites.builtin

    def broken(kind, n):
        module = real(kind, n)
        if kind != "regular" or n != 3:
            return module
        copy = ModuleSpec(
            module.name, 3, module.dim, module.basis_labels, module.gen_actions
        )
        # s1 s2 s1 = s2 s1 s2 fails once s2 acts as the identity
        copy.gen_actions = [module.gen_actions[0], RationalMatrix.identity(module.dim)]
        return copy

    passing = (True, "Coxeter relations hold for 24 builtin modules")
    assert suites.chk_coxeter() == passing
    monkeypatch.setattr(suites, "builtin", broken)
    passed, detail = suites.chk_coxeter()
    assert not passed
    assert detail == "regular(3): braid relation s1 s2 s1 = s2 s1 s2 fails"


# the suites whose tables come from the surjective-word quotient, at the
# window each runs in the acceptance tests
QUOTIENT_SUITES = {
    "cor2": 4, "cor3": 5, "cor4": 5, "cor5": 4, "ass": 4, "harrison": 3, "induction": 4,
}
QUOTIENT_SPECS = [spec for s, nmax in QUOTIENT_SUITES.items() for spec in _specs(s, nmax)]


def _record_complexes(monkeypatch):
    """[(build, module, group, m_max, mode, complex)] of every complex the
    suites build through ``cubical_complex`` or ``harrison_complex``."""
    calls = []
    for name in ("cubical_complex", "harrison_complex"):
        real = getattr(suites, name)

        def build(module, group, m_max, mode="orbit", *rest, _real=real):
            cx = _real(module, group, m_max, mode, *rest)
            calls.append((_real, module, group, m_max, mode, cx))
            return cx

        monkeypatch.setattr(suites, name, build)
    return calls


@pytest.mark.parametrize("spec", QUOTIENT_SPECS, ids=lambda spec: f"{spec[0]}:{spec[1]}")
def test_suite_quotient_tables_equal_orbit_tables(spec, monkeypatch):
    # orbit mode stays the oracle of every table these suites read off Q
    calls = _record_complexes(monkeypatch)
    _, _, func, args = spec
    passed, detail = func(*args)
    assert passed, detail
    assert calls
    for build, module, group, m_max, mode, cx in calls:
        assert mode == "quotient"
        orbit = build(module, group, m_max, "orbit")
        assert cx.dims == orbit.dims
        assert cx.betti_table() == orbit.betti_table()


def test_suites_build_the_quotient_and_modes_checks_build_every_route(monkeypatch):
    flags = []
    real_init = OrbitComplexBuilder.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        flags.append(self.surjective)

    monkeypatch.setattr(OrbitComplexBuilder, "__init__", init)
    direct = [spec for spec in _specs("oracles", 4) if spec[1].startswith("direct")]
    for spec in QUOTIENT_SPECS + direct:
        assert _run_spec(spec).passed
    assert flags and all(flags)
    calls = _record_complexes(monkeypatch)
    for spec in _specs("oracles", 4):
        if spec[1].startswith("modes"):
            calls.clear()
            assert _run_spec(spec).passed
            assert [call[4] for call in calls] == ["orbit", "naive", "quotient"]


def test_modes_check_names_the_quotient_on_a_mismatch(monkeypatch):
    real = suites.cubical_complex

    def build(module, group, m_max, mode="orbit"):
        if mode == "quotient":
            module = builtin("trivial", module.N)
        return real(module, group, m_max, mode)

    monkeypatch.setattr(suites, "cubical_complex", build)
    passed, detail = suites.chk_modes_agree("sign", 2)
    assert not passed
    assert detail == (
        "sign n=2: orbit dims=(0, 1, 3, 6, 10) betti=(0, 1, 0, 0) "
        "vs naive dims=(0, 1, 3, 6, 10) betti=(0, 1, 0, 0) "
        "vs quotient dims=(1, 3, 6, 10, 15) betti=(0, 0, 0, 0)"
    )


def test_betti_table_format(capsys):
    assert main(["betti", "--family", "lie", "--n", "2", "--mmax", "4"]) == 0
    out = capsys.readouterr().out
    assert "cohomology: k[-2]" in out
    assert out.splitlines()[0].split() == ["m", "dim", "rank_d", "betti"]


def test_betti_json_schema(capsys):
    assert (
        main(["betti", "--family", "full", "--n", "2", "--mmax", "4",
              "--format", "json"])
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"family", "n", "rows"}
    assert data["family"] == "full" and data["n"] == 2
    assert all(set(r) == {"m", "dim", "rank_d", "betti"} for r in data["rows"])
    by_m = {r["m"]: r["betti"] for r in data["rows"]}
    assert by_m == {1: 0, 2: 1, 3: 0, 4: 0}


def test_betti_published_values(capsys):
    assert (
        main(["betti", "--family", "sder", "--n", "2", "--mmax", "5",
              "--format", "json"])
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert {r["m"]: r["betti"] for r in data["rows"]}[3] == 1
    assert (
        main(["betti", "--family", "lie", "--n", "1", "--mmax", "3",
              "--format", "csv"])
        == 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m,dim,rank_d,betti"
    assert lines[1] == "1,1,0,1"


def test_betti_output_is_deterministic(capsys):
    args = ["betti", "--family", "tr", "--n", "3", "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["betti", "--family", "tr", "--n", "3"], "betti-tr-3.table"),
        (["betti", "--family", "tr", "--n", "3", "--format", "json"], "betti-tr-3.json"),
        (["betti", "--family", "tr", "--n", "3", "--format", "csv"], "betti-tr-3.csv"),
        (["module-info", "--family", "lie", "--n", "3"], "module-info-lie-3.table"),
        (["module-info", "--family", "lie", "--n", "3", "--format", "json"],
         "module-info-lie-3.json"),
        (["betti", "--family", "harrison", "--n", "3"], "betti-harrison-3.table"),
        (["betti", "--family", "lie", "--n", "3", "--mode", "naive"],
         "betti-lie-3-naive.table"),
        (["betti", "--family", "harrison", "--n", "4", "--mmax", "5"],
         "betti-harrison-4-mmax5.table"),
        # serialize_module(random_basis_change(builtin("lie_cyclic", 3), 1))
        (["betti", "--family", "custom", "--custom",
          str(GOLDEN / "lie_cyclic3-seed1.json")],
         "betti-custom-lie_cyclic3-seed1.table"),
        (["verify", "--suite", "all", "--nmax", "4"], "verify-all-4.txt"),
        (["module-info", "--family", "regular", "--n", "3"], "module-info-regular-3.table"),
        (["module-info", "--family", "tr", "--n", "4"], "module-info-tr-4.table"),
        # naive mode on a module read from a file
        (["betti", "--family", "custom", "--custom",
          str(GOLDEN / "lie_cyclic3-seed1.json"), "--mode", "naive"],
         "betti-custom-lie_cyclic3-seed1.table"),
    ],
)
def test_stdout_matches_golden(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


EXPECTED = Path(__file__).parent.parent / "perfbench" / "expected"


@pytest.mark.parametrize(
    "expected, golden",
    [("verify.txt", "verify-all-4.txt"), ("harrison4.txt", "betti-harrison-4-mmax5.table")],
)
def test_benchmark_expected_output_is_the_golden(expected, golden):
    # the benchmark checks its solves against these files byte for byte, so
    # a golden changed on purpose must change its copy there too
    assert (EXPECTED / expected).read_bytes() == (GOLDEN / golden).read_bytes()


def test_lie6_matches_the_benchmark_output(capsys):
    assert main(["betti", "--family", "lie", "--n", "6"]) == 0
    assert capsys.readouterr().out == (EXPECTED / "lie6.txt").read_text()


@pytest.mark.parametrize("seed", [1, 2])
def test_dense_sder5_matches_the_benchmark_output(seed, tmp_path, capsys):
    # the module file the benchmark writes for its sder5-dense workload
    path = tmp_path / "sder5-dense.json"
    module = random_basis_change(builtin("lie_cyclic", 5), seed)
    path.write_text(json.dumps(serialize_module(module), sort_keys=True) + "\n")
    assert main(["betti", "--family", "custom", "--custom", str(path)]) == 0
    assert capsys.readouterr().out == (EXPECTED / "sder5-dense.txt").read_text()


def test_betti_rejects_jobs(capsys):
    with pytest.raises(SystemExit) as info:
        main(["betti", "--family", "lie", "--n", "2", "--jobs", "2"])
    assert info.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_module_info_text(capsys):
    assert main(["module-info", "--family", "lie", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "dim: 2" in out and "sgn-coinvariants: 0" in out
    assert main(["module-info", "--family", "tr", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "dim: 2" in out and "sgn-coinvariants: 1" in out


def test_module_info_json(capsys):
    assert (
        main(["module-info", "--family", "sign", "--n", "3", "--format", "json"])
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["dim"] == 1
    assert data["characters"]["1+1+1"] == "1"
    assert data["characters"]["2+1"] == "-1"
    assert data["sgn_coinvariants"] == 1


def test_module_info_exits_4_when_a_closed_form_character_disagrees(monkeypatch, capsys):
    real = modules.closed_character

    def patched(kind, N):
        closed = dict(real(kind, N))
        if (kind, N) == ("lie", 3):
            closed[(2, 1)] += 1
        return closed

    monkeypatch.setattr(modules, "closed_character", patched)
    assert main(["module-info", "--family", "lie", "--n", "3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: lie(3): the character traces to 0 on cycle class 2+1, "
        "its closed form is 1\n"
    )
    assert main(["module-info", "--family", "lie", "--n", "4"]) == 0


def test_custom_module_roundtrip(tmp_path, capsys):
    module = random_basis_change(builtin("sign", 3), seed=5)
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(serialize_module(module)))
    assert (
        main(["betti", "--family", "custom", "--custom", str(path),
              "--format", "json"])
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert {r["m"]: r["betti"] for r in data["rows"]}[3] == 1


def write_sder3_files(tmp_path):
    """lie_cyclic(3) written as a custom module file twice: as it is, with
    integer entries, and conjugated by diag(1/2, -2/3), which is not
    unimodular, so the file holds "p/q" entries.  Returns the two paths."""
    sder = builtin("lie_cyclic", 3)
    pq = diagonal_basis_change(sder, [Fraction(1, 2), Fraction(-2, 3)], "sder3~diag")
    paths = []
    for name, module in (("ints", sder), ("pq", pq)):
        data = serialize_module(module)
        assert any("/" in v for gen in data["generators"] for row in gen for v in row) == (
            name == "pq"
        )
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("mode", ["quotient", "orbit", "naive"])
def test_a_custom_module_with_p_q_entries_prints_the_builtin_table(mode, tmp_path, capsys):
    _, pq = write_sder3_files(tmp_path)
    assert main(["betti", "--family", "sder", "--n", "3", "--mode", mode]) == 0
    builtin_table = capsys.readouterr().out
    assert main(["betti", "--family", "custom", "--custom", pq, "--mode", mode]) == 0
    assert capsys.readouterr().out == builtin_table


@pytest.mark.parametrize("mode", ["isotypic", "quotient", "orbit"])
def test_harrison_on_a_p_q_module_matches_the_integer_module(mode, tmp_path, capsys):
    ints, pq = write_sder3_files(tmp_path)
    outs = []
    for path in (ints, pq):
        assert main(["betti", "--family", "harrison", "--custom", path, "--mode", mode]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "cohomology" in outs[0]


def test_malformed_custom_module_names_relation(tmp_path, capsys):
    bad = {
        "name": "bad",
        "N": 2,
        "dim": 1,
        "basis_labels": ["e"],
        "generators": [[[2]]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["betti", "--family", "custom", "--custom", str(path)]) == 2
    err = capsys.readouterr().err
    assert "s1" in err and "square" in err


def _bad_entry_error(entry, tmp_path, capsys) -> str:
    """stderr of a betti run on a one-dimensional module whose s1 is ``entry``."""
    bad = {
        "name": "bad",
        "N": 2,
        "dim": 1,
        "basis_labels": ["e"],
        "generators": [[[entry]]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["betti", "--family", "custom", "--custom", str(path)]) == 2
    return capsys.readouterr().err


def test_zero_denominator_in_custom_module_is_an_input_error(tmp_path, capsys):
    err = _bad_entry_error("1/0", tmp_path, capsys)
    assert err.startswith("error:")
    assert "s1" in err and "'1/0'" in err


@pytest.mark.parametrize("entry", ["1.5", "x", "1/2.5"])
def test_an_unparsable_custom_entry_names_its_generator(entry, tmp_path, capsys):
    assert _bad_entry_error(entry, tmp_path, capsys) == (
        f"error: bad: generator s1 entry {entry!r} is not an int or a 'p/q' string\n"
    )


SIGN2 = {"name": "sign", "N": 2, "dim": 1, "basis_labels": ["e"],
         "generators": [[[-1]]]}


@pytest.mark.parametrize(
    "module",
    [
        {**SIGN2, "N": "2"},
        {**SIGN2, "generators": [-1]},
        {**SIGN2, "generators": None},
        {**SIGN2, "generators": [[[[-1]]]]},
        3,
        {**SIGN2, "generators": [[[-1.0]]]},
        {**SIGN2, "generators": [[[True]]]},
        {**SIGN2, "N": 0, "generators": []},
        {**SIGN2, "name": [1]},
    ],
    ids=["N-string", "flat-generators", "null-generators", "nested-entry",
         "top-level-number", "float-entry", "bool-entry", "N-zero", "name-list"],
)
def test_mistyped_custom_module_is_an_input_error(module, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(module))
    assert main(["betti", "--family", "custom", "--custom", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "exc",
    [
        SubspaceEscape("a vector escapes the Lie subspace"),
        HarrisonRestrictionError("D^2 != 3 D at degree 3"),
        InvariantError("impossible Betti row"),
        KeyError("lookup"),
    ],
    ids=["escape", "harrison", "betti-row", "key"],
)
def test_broken_invariants_exit_4(exc, monkeypatch, capsys):
    import cubix.cli as cli

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "cubical_complex", broken)
    assert main(["betti", "--family", "lie", "--n", "3"]) == 4
    assert capsys.readouterr().err.startswith("internal error:")


@pytest.mark.parametrize("mode", ["quotient", "orbit"])
def test_running_out_of_memory_is_a_resource_cap(mode, monkeypatch, capsys):
    import cubix.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "cubical_complex", exhausted)
    assert main(["betti", "--family", "lie", "--n", "3", "--mode", mode]) == 3
    assert capsys.readouterr().err == "resource cap: the computation ran out of memory\n"


def test_broken_harrison_invariant_exits_4(monkeypatch, capsys):
    import cubix.cli as cli

    def broken(*args, **kwargs):
        raise HarrisonRestrictionError("D^2 != 3 D at degree 3")

    monkeypatch.setattr(cli, "harrison_complex", broken)
    assert main(["betti", "--family", "harrison", "--n", "3"]) == 4
    assert capsys.readouterr().err.startswith("internal error:")


def test_missing_n_is_an_input_error(capsys):
    assert main(["betti", "--family", "lie"]) == 2
    assert "--n is required" in capsys.readouterr().err


def test_conflicting_n_is_an_input_error(tmp_path, capsys):
    module = builtin("sign", 3)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(serialize_module(module)))
    assert (
        main(["betti", "--family", "custom", "--custom", str(path), "--n", "2"])
        == 2
    )
    assert "conflicts" in capsys.readouterr().err


def test_harrison_custom_reads_the_slot_count_from_the_file(capsys):
    argv = ["betti", "--family", "harrison", "--custom", str(GOLDEN / "lie_cyclic3-seed1.json")]
    assert main(argv + ["--n", "4"]) == 0
    with_n = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == with_n
    assert main(argv + ["--n", "3"]) == 2
    assert capsys.readouterr().err == "error: --n 3 conflicts with the module's slot count 4\n"


def _refused_count(args, cap, capsys):
    """The size count a betti run prints when ``cap`` refuses it."""
    assert main(["betti", *args, "--cap", str(cap)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap: ") and "raise it with --cap" in err
    return int(re.search(r" is (\d+), above the cap ", err).group(1))


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "lie", "--n", "8", "--mode", "quotient"],
        ["--family", "harrison", "--n", "8"],
        ["--family", "custom", "--custom", "/nonexistent/module.json"],
    ],
    ids=["lie-8-quotient", "harrison-8", "custom"],
)
def test_a_small_mmax_is_refused_before_a_module_is_read(argv, monkeypatch, capsys):
    import cubix.cli as cli

    def refuse(*args):
        raise AssertionError(f"read a module: {args}")

    for name in ("builtin", "builtin_character", "load_module"):
        monkeypatch.setattr(cli, name, refuse)
    start = time.perf_counter()
    assert main(["betti", *argv, "--mmax", "1"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --mmax must be at least 2\n"


@pytest.mark.parametrize("cap", ["-1", "-100"])
def test_a_negative_cap_is_an_input_error(cap, capsys):
    assert main(["betti", "--family", "full", "--n", "2", "--cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --cap must be at least 0\n"


def test_a_zero_cap_is_a_resource_cap(capsys):
    assert _refused_count(["--family", "full", "--n", "2"], 0, capsys) > 0


def test_eight_slots_of_the_word_complex_are_refused_at_once(capsys):
    start = time.perf_counter()
    assert main(["betti", "--family", "full", "--n", "8", "--mode", "quotient"]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        f"resource cap: the size of quotient mode for trivial(8)/G8 is 545835, above "
        f"the cap {DEFAULT_CAP}; raise it with --cap to force the computation\n"
    )


def test_seven_slots_run_under_the_default_cap(capsys):
    # Cor. 4: the cyclic trace module over S_7 has cohomology k[-7]
    assert main(["betti", "--family", "tr", "--n", "7"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "cohomology: k[-7]"


@pytest.mark.parametrize(
    "args",
    [
        ["--family", "harrison", "--n", "3"],
        ["--family", "harrison", "--n", "3", "--mode", "orbit"],
        ["--family", "lie", "--n", "3"],
        ["--family", "lie", "--n", "3", "--mode", "orbit"],
        ["--family", "lie", "--n", "3", "--mode", "naive"],
        ["--family", "full", "--n", "3"],
        ["--family", "full", "--n", "3", "--mode", "orbit"],
    ],
    ids=lambda args: " ".join(args[1::2]),
)
def test_cap_reaches_every_route(args, capsys):
    assert _refused_count(args, 1, capsys) > 1


def test_cap_lifts_naive_mode_past_four_slots(capsys):
    args = ["--family", "lie", "--n", "5", "--mode", "naive", "--mmax", "2"]
    # |G| dim M (m_max + 1)^n = 120 * 24 * 3^5
    assert _refused_count(args, DEFAULT_CAP, capsys) == 699840
    assert main(["betti", *args, "--cap", "1000000"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "cohomology: 0"


def _cycle_type_length(family, m):
    """The length of the cycle types of P_m's class sums: m for the
    identity, the sum of m/d over squarefree d | m for D_m."""
    if family == "lie":
        return m
    divisors = (d for d in range(1, m + 1) if not m % d)
    return sum(m // d for d in divisors if all(d % (p * p) for p in range(2, d)))


@pytest.mark.parametrize("family", ["lie", "harrison"])
def test_the_trace_counts_are_refused_by_the_cycle_types_they_read(family, capsys):
    # Q stops at degree n, but the full dimensions are counted through
    # m_max + 1, each reading cycle types of length up to m
    args = ["--family", family, "--n", "3", "--mmax", "2000"]
    work, m = 0, 0
    while work <= 100000:
        m += 1
        work += _cycle_type_length(family, m)
    assert _refused_count(args, 100000, capsys) == work
    start = time.perf_counter()
    assert main(["betti", "--family", family, "--n", "3", "--mmax", "100000"]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith("resource cap: the cycle-type length")


def test_orbit_mode_refuses_a_large_mmax_by_its_size_count_at_once(capsys):
    # orbit mode's size count is the sum of every trace count through
    # m_max + 1; each is a closed form in the cycle lengths, so it does not
    # grow with the length m of the identity's cycle type
    start = time.perf_counter()
    assert main(["betti", "--family", "lie", "--n", "3", "--mode", "orbit", "--mmax", "3000"]) == 3
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == (
        "resource cap: the size of orbit mode for lie(3)/S3 is 6763508251500, above the cap "
        "450000; raise it with --cap to force the computation\n"
    )


# (arguments, the counts refused at cap 0 and then at each count before it,
# under the default cap).  Orbit and quotient mode check the dimension sum
# first and then add dim M per coinvariant basis; naive mode and the full
# orbit complex have one count.  Isotypic mode checks p(n)^2, its stabilizer
# term over Q's stabilizers, and then its size: the V_lambda's quotient
# counts summed.  The quotient rows were the default before isotypic mode,
# and their ids leave the mode out as they did then.
CALIBRATION = [
    (["--family", "full", "--n", "7", "--mode", "quotient"], (47293, 47294), True),
    (["--family", "full", "--n", "8", "--mode", "quotient"], (545835,), False),
    (["--family", "tr", "--n", "7", "--mode", "quotient"], (6757, 52837), True),
    (["--family", "sder", "--n", "6", "--mode", "quotient"], (1112, 8792), True),
    (["--family", "tr", "--n", "6", "--mode", "orbit"], (163515, 167355), True),
    (["--family", "lie", "--n", "4", "--mode", "naive", "--mmax", "6"], (345744,), True),
    (["--family", "full", "--n", "6", "--mode", "orbit"], (978405,), False),
    (["--family", "ass", "--n", "6", "--mode", "orbit"], (978405, 1001445), False),
    (["--family", "full", "--n", "7", "--mode", "isotypic"], (225, 14848, 17197), True),
    (["--family", "lie", "--n", "7", "--mode", "isotypic"], (225, 14720, 17004), True),
    (["--family", "sder", "--n", "6", "--mode", "isotypic"], (225, 7680, 8792), True),
    (["--family", "full", "--n", "8", "--mode", "isotypic"], (484, 97792, 108997), True),
    (["--family", "lie", "--n", "8", "--mode", "isotypic"], (484, 97536, 108612), True),
    (["--family", "full", "--n", "9", "--mode", "isotypic"], (900, 670720), False),
    (["--family", "harrison", "--n", "7", "--mode", "isotypic"], (225, 14848, 15328), True),
    (["--family", "harrison", "--n", "8", "--mode", "isotypic"], (484, 97792, 99788), True),
]


@pytest.mark.parametrize(
    "args, counts, runs",
    CALIBRATION,
    ids=[" ".join(a for a in c[0][1::2] if a != "quotient") for c in CALIBRATION],
)
def test_default_cap_calibration(args, counts, runs, capsys):
    cap = 0
    for want in counts:
        cap = _refused_count(args, cap, capsys)
        assert cap == want
    assert (counts[-1] <= DEFAULT_CAP) == runs


@pytest.mark.parametrize(
    "suite, nmax, message",
    [
        ("prop1", "0", "--nmax must be at least 1"),
        ("all", "-3", "--nmax must be at least 1"),
        ("cor5", "1", "--suite cor5 holds no check at --nmax 1"),
    ],
)
def test_verify_rejects_a_run_without_checks(suite, nmax, message, capsys):
    assert main(["verify", "--suite", suite, "--nmax", nmax]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["betti", "module-info"])
@pytest.mark.parametrize("n", ["0", "-2"])
def test_a_slot_count_below_1_names_the_flag(command, n, capsys):
    assert main([command, "--family", "lie", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n must be at least 1\n"


def test_custom_is_refused_where_no_module_file_is_read(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(serialize_module(builtin("regular", 3))))
    for argv in (
        ["betti", "--family", "lie", "--n", "3", "--custom", str(path)],
        ["betti", "--family", "full", "--n", "3", "--custom", "/nonexistent"],
        ["module-info", "--family", "lie", "--n", "3", "--custom", str(path)],
        ["module-info", "--n", "3", "--custom", str(path)],
    ):
        assert main(argv) == 2
        assert "--custom conflicts with --" in capsys.readouterr().err
    # custom and harrison read the file
    assert main(["betti", "--family", "harrison", "--n", "3", "--custom", str(path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "betti-harrison-3.table").read_text()
    assert main(["module-info", "--custom", str(path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "module-info-regular-3.table").read_text()


def test_cap_flag_sets_the_naive_cap(capsys):
    args = ["betti", "--family", "ass", "--n", "2", "--mode", "naive"]
    assert main(args + ["--cap", "10"]) == 3
    capsys.readouterr()
    assert main(args + ["--cap", "100000"]) == 0
    capsys.readouterr()


def test_verify_exit_codes(capsys, monkeypatch):
    assert main(["verify", "--suite", "structural", "--nmax", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    summary = json.loads(out.splitlines()[-1])
    assert summary == {
        "suite": "structural",
        "nmax": 2,
        "checks": 7,
        "failed": 0,
    }

    import cubix.cli as cli

    monkeypatch.setattr(
        cli, "run_suite", lambda *a, **k: [Check("s", "x", False, "boom")]
    )
    assert main(["verify", "--suite", "prop1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL [s] x: boom" in out
    assert json.loads(out.splitlines()[-1])["failed"] == 1


@pytest.mark.parametrize(
    "name, wrong, line",
    [
        ("witt_dim", lambda m, n: 7, "FAIL [oracles] direct lie n=1: error: "
         "Lyndon basis m=1 n=1: 1 words, expected 7"),
        ("necklace_count", lambda m, n: -1, "FAIL [oracles] direct tr n=1: error: "
         "necklaces m=1 n=1: 1 classes, expected -1"),
    ],
)
def test_a_broken_realization_invariant_names_itself_in_verify(
    name, wrong, line, capsys, monkeypatch
):
    # the Lie degrees are counted by lie_projector_basis, the necklaces here
    owner = {"witt_dim": freelie, "necklace_count": realizations}[name]
    clear_realization_caches()
    monkeypatch.setattr(owner, name, wrong)
    assert main(["verify", "--suite", "oracles", "--nmax", "1"]) == 1
    fails = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
    assert fails == [line]


def test_naive_mode_rejected_for_projection_free_families(capsys):
    assert main(["betti", "--family", "full", "--n", "2", "--mode", "naive"]) == 2
    assert "not defined" in capsys.readouterr().err


BETTI_GOLDENS = [
    (["betti", "--family", "tr", "--n", "3"], "betti-tr-3.table"),
    (["betti", "--family", "tr", "--n", "3", "--format", "json"], "betti-tr-3.json"),
    (["betti", "--family", "tr", "--n", "3", "--format", "csv"], "betti-tr-3.csv"),
    (["betti", "--family", "harrison", "--n", "3"], "betti-harrison-3.table"),
    (["betti", "--family", "lie", "--n", "3"], "betti-lie-3-naive.table"),
    (["betti", "--family", "harrison", "--n", "4", "--mmax", "5"],
     "betti-harrison-4-mmax5.table"),
    (["betti", "--family", "custom", "--custom", str(GOLDEN / "lie_cyclic3-seed1.json")],
     "betti-custom-lie_cyclic3-seed1.table"),
    (["betti", "--family", "harrison", "--n", "5", "--mmax", "5"],
     "betti-harrison-5-mmax5.table"),
]


def test_every_betti_golden_is_checked_in_every_engine_mode():
    assert {g for _, g in BETTI_GOLDENS} == {p.name for p in GOLDEN.glob("betti-*")}


@pytest.mark.parametrize("argv, golden", BETTI_GOLDENS, ids=[g for _, g in BETTI_GOLDENS])
@pytest.mark.parametrize("mode", [[], ["--mode", "orbit"]], ids=["default", "orbit"])
def test_betti_goldens_in_quotient_and_orbit_modes(argv, golden, mode, capsys):
    assert main(argv + mode) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("argv, golden", BETTI_GOLDENS, ids=[g for _, g in BETTI_GOLDENS])
def test_betti_goldens_read_the_same_in_isotypic_and_quotient_mode(argv, golden, capsys):
    for mode in ("quotient", "isotypic"):
        assert main(argv + ["--mode", mode]) == 0
        assert capsys.readouterr().out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("argv, golden", BETTI_GOLDENS, ids=[g for _, g in BETTI_GOLDENS])
@pytest.mark.parametrize("mode", [[], ["--mode", "orbit"]], ids=["default", "orbit"])
def test_stabilizer_term_is_the_coinvariant_cache(argv, golden, mode, monkeypatch, capsys):
    # one builder: the quotient route, the default before isotypic mode
    mode = mode or ["--mode", "quotient"]
    args = argv[1:] + mode
    dims = _refused_count(args, 0, capsys)
    term = _refused_count(args, dims, capsys) - dims
    builders = []
    real_init = OrbitComplexBuilder.__init__

    def init(self, *a, **kw):
        real_init(self, *a, **kw)
        builders.append(self)

    monkeypatch.setattr(OrbitComplexBuilder, "__init__", init)
    assert main(argv + mode) == 0
    capsys.readouterr()
    (builder,) = builders
    assert term == builder.module.dim * len(builder._coinv_cache)


def test_harrison_seven_slots_reads_its_golden_through_the_irreducibles(capsys):
    # the golden is the quotient route's output on regular(7), which takes
    # about six times as long; the quotient route stays the oracle at n <= 6
    assert main(["betti", "--family", "harrison", "--n", "7"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "harrison-7.table").read_text()


def test_harrison_six_slots_runs_through_the_quotient(capsys):
    assert main(["betti", "--family", "harrison", "--n", "6", "--format", "csv"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [int(r[1]) for r in rows] == [m ** 5 for m in range(1, 9)]
    assert all(r[3] == "0" for r in rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_full_family_prints_the_same_table_in_both_modes(n, capsys):
    for mmax in ("2", str(n + 2)):
        argv = ["betti", "--family", "full", "--n", str(n), "--mmax", mmax]
        assert main(argv) == 0
        quotient = capsys.readouterr().out
        assert main(argv + ["--mode", "orbit"]) == 0
        assert capsys.readouterr().out == quotient
