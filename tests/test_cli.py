"""The batch interface: parsing, verbs, reports, exit codes, determinism."""

import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hocohom
from hocohom import cli
from hocohom.algebra import AlgebraError, IdealCertificateError, j_filtration
from hocohom.linalg import LinalgError, Matrix, Subspace, rref
from hocohom.problem import SpecError, parse_problem, load_problem

SPECS = Path(__file__).resolve().parent.parent / "specs"
TEST_SPECS = Path(__file__).resolve().parent / "specs"
PACKAGE_ROOT = str(Path(hocohom.__file__).resolve().parent.parent)


def run_cli(args):
    """Run the CLI in a child process that imports the package under test."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "hocohom.cli", *args],
        capture_output=True, text=True, env=env)
    return proc


def write_spec(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


BASE_C2 = {
    "field": "F2",
    "group": {"generators": [[1, 0]]},
    "sigma": {"generator_indices": []},
    "modules": {"trivial": {"kind": "trivial", "dim": 1}},
    "budgets": {"q_max": 2, "p_max": 2},
}


# --- parsing ----------------------------------------------------------------

def test_parse_minimal():
    spec = parse_problem(BASE_C2)
    assert spec.group.order == 2
    assert spec.sigma.order == 1
    assert spec.q_max == 2


def test_parse_bad_field():
    doc = dict(BASE_C2, field="F4")
    with pytest.raises(SpecError) as err:
        parse_problem(doc)
    assert "field" in str(err.value)


def test_parse_bad_permutation_location():
    doc = dict(BASE_C2, group={"generators": [[0, 0]]})
    with pytest.raises(SpecError) as err:
        parse_problem(doc)
    assert "group.generators[0]" in str(err.value)


def test_parse_ragged_matrix_location():
    doc = dict(BASE_C2)
    doc["modules"] = {"bad": {"kind": "explicit",
                              "generator_matrices": [[["1", "0"], ["1"]]]}}
    with pytest.raises(SpecError) as err:
        parse_problem(doc)
    assert "modules.bad.generator_matrices[0][1]" in str(err.value)


def test_parse_non_representation():
    doc = dict(BASE_C2)
    doc["modules"] = {"bad": {"kind": "explicit", "generator_matrices": [[["2"]]]}}
    spec = parse_problem(doc)
    with pytest.raises(SpecError) as err:
        spec.build_module("bad")
    assert "witness" in str(err.value)


def test_parse_non_normal_sigma():
    doc = {
        "field": "F2",
        "group": {"generators": [[1, 2, 0], [1, 0, 2]]},
        "sigma": {"generator_indices": [1]},  # a transposition: not normal
        "modules": {"trivial": {"kind": "trivial"}},
    }
    with pytest.raises(SpecError) as err:
        parse_problem(doc)
    assert "witness pair" in str(err.value)


def test_parse_sigma_by_explicit_permutation():
    doc = {
        "field": "F2",
        "group": {"generators": [[1, 2, 0], [1, 0, 2]]},
        "sigma": {"permutations": [[1, 2, 0]]},
        "modules": {"trivial": {"kind": "trivial"}},
    }
    spec = parse_problem(doc)
    assert spec.sigma.order == 3


def _explicit(entry, field="F2"):
    return {"field": field, "modules": {"m": {"kind": "explicit",
                                              "generator_matrices": [[[entry]]]}}}


def _explicit_s3(matrices):
    return {"group": {"generators": [[1, 2, 0], [1, 0, 2]]},
            "modules": {"m": {"kind": "explicit", "generator_matrices": matrices}}}


MALFORMED = [
    ({"sigma": {"permutations": 5}}, "sigma.permutations"),
    ({"sigma": {"permutations": {"0": [1, 0]}}}, "sigma.permutations"),
    (_explicit("1/0"), "modules.m.generator_matrices[0][0][0]"),
    (_explicit("1/0", "Q"), "modules.m.generator_matrices[0][0][0]"),
    (_explicit(True), "modules.m.generator_matrices[0][0][0]"),
    (_explicit(True, "Q"), "modules.m.generator_matrices[0][0][0]"),
    ({"modules": {"m": {"kind": "trivial", "dim": True}}}, "modules.m.dim"),
    ({"modules": {"m": {"kind": "coinduced", "base_dim": True}}}, "modules.m.base_dim"),
    ({"group": {"generators": [[True, False]]}}, "group.generators[0]"),
    ({"sigma": {"generator_indices": [False]}}, "sigma.generator_indices"),
    ({"sigma": {"permutations": [[True, 0]]}}, "sigma.permutations[0]"),
    ({"budgets": {"q_max": True}}, "budgets.q_max"),
    ({"budgets": {"p_max": True}}, "budgets.p_max"),
    ({"modules": {"m": {"kind": []}}}, "modules.m.kind"),
    (_explicit_s3([[[1, 0]], [[1, 0]]]), "modules.m.generator_matrices[0]"),
    (_explicit_s3([[[1]], [[1, 0], [0, 1]]]), "modules.m.generator_matrices[1]"),
]


@pytest.mark.parametrize("patch, location", MALFORMED)
def test_malformed_specs_exit_2_at_their_json_path(tmp_path, capsys, patch, location):
    path = write_spec(tmp_path, {**BASE_C2, **patch})
    for verb in ("info", "ideals", "cohom", "h1", "les-check", "verify"):
        code = cli.main([verb, "--spec", path])
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT_ERROR, (verb, err)
        assert f"{location}:" in err and "Traceback" not in err


@pytest.mark.parametrize("module, location", [
    ({"kind": "trivial", "dim": 10 ** 30}, "modules.m.dim"),
    ({"kind": "coinduced", "base_dim": 10 ** 30}, "modules.m.base_dim"),
    # an index numpy accepts, whose 8 TiB array the allocator refuses at once
    ({"kind": "coinduced", "base_dim": 2 ** 40}, "modules.m.base_dim"),
])
def test_a_dimension_past_the_index_range_exits_2_at_its_json_path(tmp_path, capsys,
                                                                   module, location):
    # `info` builds no module, so these parse and fail only where a verb builds one
    path = write_spec(tmp_path, {**BASE_C2, "modules": {"m": module}})
    code = cli.main(["cohom", "--spec", path])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT_ERROR, err
    assert f"{location}:" in err


SHIPPED_DOCS = [json.loads(path.read_text(encoding="utf-8"))
                for path in sorted(SPECS.glob("*.json"))]
SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 30) | st.text("F0123Q/-", max_size=3),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(
        st.sampled_from(["kind", "dim", "base_dim", "generator_matrices", "generators",
                         "generator_indices", "permutations", "q_max", "order_cap"]),
        children, max_size=2),
    max_leaves=6)


def _paths(value, path=()):
    """The path of value and of every value nested in it."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _paths(child, path + (key,))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_mutated_shipped_specs_parse_or_fail_at_a_json_path(data):
    """One or two values of a shipped spec changed or deleted: parse_problem
    builds a spec or raises SpecError with a location, never another error."""
    doc = copy.deepcopy(data.draw(st.sampled_from(SHIPPED_DOCS)))
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(SMALL_JSON)
    try:
        parse_problem(doc)
    except SpecError as err:
        assert err.location, err


def test_large_characteristic_parses_fast_and_past_the_bound_exits_2(tmp_path, capsys):
    mersenne = write_spec(tmp_path, dict(BASE_C2, field="F2305843009213693951"))
    started = time.monotonic()
    code = cli.main(["info", "--spec", mersenne])
    assert time.monotonic() - started < 1
    assert code == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["info"]["field"] == "F2305843009213693951"
    past_bound = write_spec(tmp_path, dict(BASE_C2, field=f"F{2 ** 89 - 1}"))
    code = cli.main(["info", "--spec", past_bound])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT_ERROR
    assert "field:" in err and "too large" in err


def test_load_problem_missing_file(tmp_path):
    with pytest.raises(SpecError):
        load_problem(str(tmp_path / "nope.json"))


# --- verbs through the real entry point ---------------------------------------

def test_info_verb(tmp_path):
    proc = run_cli(["info", "--spec", str(SPECS / "s3_a3_f2.json")])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["info"]["group_order"] == 6
    assert report["info"]["sigma_order"] == 3
    assert report["info"]["sigma_is_normal"] is True


def test_info_rejects_non_normal(tmp_path):
    path = write_spec(tmp_path, {
        "field": "F2",
        "group": {"generators": [[1, 2, 0], [1, 0, 2]]},
        "sigma": {"generator_indices": [1]},
        "modules": {"trivial": {"kind": "trivial"}},
    })
    proc = run_cli(["info", "--spec", path])
    assert proc.returncode == cli.EXIT_INPUT_ERROR
    assert "witness" in proc.stderr


def test_ideals_verb_c2(tmp_path):
    proc = run_cli(["ideals", "--spec", str(SPECS / "c2_f2.json")])
    report = json.loads(proc.stdout)
    rows = report["filtration"]["rows"]
    assert rows[0] == {"q": 1, "dim_j": 1, "n": 1, "stabilized": False}
    assert rows[1] == {"q": 2, "dim_j": 0, "n": 0, "stabilized": True}
    assert report["filtration"]["stabilization_q"] == 2


def test_ideals_sigma_full_constant(tmp_path):
    proc = run_cli(["ideals", "--spec", str(SPECS / "s3_full_f2.json"), "--recheck"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    for row in report["filtration"]["rows"]:
        assert row["dim_j"] == 5
        assert row["n"] == 0
        assert row["recheck_constant"] is True


def test_cohom_c2_trivial_grid(tmp_path):
    proc = run_cli(["cohom", "--spec", str(SPECS / "c2_f2.json"),
                    "--module", "trivial"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    entry = report["cohomology"]["modules"]["trivial"]
    assert entry["grid"] == [[1, 1, 1], [1, 0, 0]]
    assert all(entry["checks"].values())


def test_cohom_s3_rational_semisimple(tmp_path):
    proc = run_cli(["cohom", "--spec", str(SPECS / "s3_q.json"),
                    "--module", "trivial", "--recheck"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    grid = report["cohomology"]["modules"]["trivial"]["grid"]
    for row in grid:
        assert row[0] == 1
        assert row[1:] == [0, 0]


def test_cohom_zero_module(tmp_path):
    doc = dict(BASE_C2)
    doc["modules"] = {"zero": {"kind": "trivial", "dim": 0}}
    path = write_spec(tmp_path, doc)
    proc = run_cli(["cohom", "--spec", path])
    report = json.loads(proc.stdout)
    assert report["cohomology"]["modules"]["zero"]["grid"] == [[0, 0, 0], [0, 0, 0]]


def test_h1_verb_with_recheck(tmp_path):
    proc = run_cli(["h1", "--spec", str(SPECS / "c2_f2.json"), "--recheck"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    trivial = report["h1"]["modules"]["trivial"]
    assert trivial["dims_by_q"] == [1, 0]  # J_2 = 0 makes A/J_2 free
    assert trivial["recheck_ext"] is True


def test_les_check_verb(tmp_path):
    proc = run_cli(["les-check", "--spec", str(SPECS / "c3_f3.json"),
                    "--module", "trivial"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    for item in report["les"]["modules"]["trivial"]:
        assert item["exact"] is True
        for node in item["nodes"]:
            assert node["at_H_q"] and node["at_H_q_plus_1"] and node["at_power"]


def test_verify_all_pass_and_out_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(["verify", "--spec", str(SPECS / "s3_a3_f2.json"),
                    "--out", str(out)])
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["verify"]["all_pass"] is True
    names = {v["check"] for v in report["verify"]["verdicts"]}
    assert any(n.startswith("les.") for n in names)
    assert any(n.startswith("power.") for n in names)
    assert "vanishing.coinduced_module" in names


@pytest.mark.parametrize("place", ["missing/report.json", "."])
def test_an_out_path_that_cannot_be_written_exits_2(tmp_path, capsys, place):
    # a file in a directory that does not exist, and a directory
    out = str(tmp_path / place)
    code = cli.main(["info", "--spec", str(SPECS / "c2_f2.json"), "--out", out])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT_ERROR
    assert f"--out {out}" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_verify_text_rendering(tmp_path):
    proc = run_cli(["verify", "--spec", str(SPECS / "c2_f2.json"), "--text"])
    assert proc.returncode == 0
    assert "[PASS]" in proc.stdout
    assert "all-pass" in proc.stdout


@pytest.mark.parametrize("verb, headline", [
    ("info", "group order 2, degree 2, sigma order 1"),
    ("ideals", "filtration (stabilizes at q=2):"),
    ("cohom", "H_q^p grid for module 'trivial'"),
    ("h1", "cocycle H_q^1 for module 'trivial': q=1:1  q=2:0"),
    ("les-check", "LES module 'trivial' q=1 (N=1): exact"),
    ("verify", "overall: all-pass"),
    ("selftest", "selftest c2_f2: all-pass"),
])
def test_every_verb_renders_text(capsys, verb, headline):
    argv = [verb, "--text"] + ([] if verb == "selftest" else ["--spec", str(SPECS / "c2_f2.json")])
    assert cli.main(argv) == cli.EXIT_OK
    assert headline in capsys.readouterr().out


@pytest.mark.parametrize("verb", ["info", "les-check"])
def test_recheck_is_rejected_where_no_verb_reads_it(verb):
    proc = run_cli([verb, "--recheck", "--spec", str(SPECS / "c2_f2.json")])
    assert proc.returncode == cli.EXIT_INPUT_ERROR
    assert "unrecognized arguments: --recheck" in proc.stderr


def test_cohom_recheck_compares_the_h0_subspaces(monkeypatch):
    # the recursion's H_1^0 of the regular module, span{e_0 + e_1}, replaced
    # by span{e_0}: the dimensions still agree, the subspaces do not
    inductive = cli.h_q0_inductive

    def moved(v, sigma, q):
        true = inductive(v, sigma, q)
        if q > 1:
            return true
        other = rref(Matrix.identity(v.field, v.dim).take_rows([0]))
        assert other != true and other.dim == true.dim
        return other

    monkeypatch.setattr(cli, "h_q0_inductive", moved)
    fragment, ok = cli.cmd_cohom(load_problem(SPECS / "c2_f2.json"), "regular", recheck=True)
    checks = fragment["modules"]["regular"]["checks"]
    assert not ok and not checks["annihilator_matches_inductive"]
    assert checks["p0_column_matches_annihilator"]


def test_budget_overrides(tmp_path):
    proc = run_cli(["cohom", "--spec", str(SPECS / "c2_f2.json"),
                    "--q-max", "3", "--p-max", "1", "--module", "trivial"])
    report = json.loads(proc.stdout)
    grid = report["cohomology"]["modules"]["trivial"]["grid"]
    assert len(grid) == 3
    assert len(grid[0]) == 2


def test_cohom_skips_bar_degree_past_budget():
    # S4 over F2, p_max 3: dim C^3 = 13824 fits the default bar budget, but
    # delta^3 would map into C^4 of dimension 331776, so degree 3 is skipped
    spec = parse_problem({
        "field": "F2",
        "group": {"generators": [[1, 2, 3, 0], [1, 0, 2, 3]]},
        "modules": {"trivial": {"kind": "trivial", "dim": 1}},
        "budgets": {"q_max": 1, "p_max": 3},
    })
    fragment, ok = cli.cmd_cohom(spec)
    entry = fragment["modules"]["trivial"]
    assert entry["bar_row"] == [1, 1, 2, None]
    assert entry["grid"] == [[1, 1, 2, 3]]
    assert ok


def test_verify_names_a_vanishing_degree_skipped_by_the_bar_budget(tmp_path):
    # A4 over F2, p_max 2: the coinduced module has dimension 12, so bar
    # degree 2 of the vanishing check needs 12^3 * 12 = 20736 cochains,
    # past the default budget of 20000; verify still sweeps the grid
    out = tmp_path / "a4.json"
    proc = run_cli(["verify", "--spec", str(TEST_SPECS / "a4_f2.json"), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text(encoding="utf-8"))["verify"]
    assert report["all_pass"]
    vanishing = {v["check"]: v for v in report["verdicts"]}["vanishing.coinduced_module"]
    assert vanishing["pass"]
    assert vanishing["detail"] == {"acyclic_certified": None, "bar_budget_skipped_p": [2]}


def test_verify_names_the_bar_degrees_skipped_in_the_verdicts_that_read_them():
    # S3 over F2 with bar_budget 300: |G|^3 dim V is 216 for the trivial
    # module and 1296 for the coinduced one, so only the coinduced bar row
    # skips degree 2, and only its two verdicts that read that row say so
    spec = parse_problem({
        "field": "F2",
        "group": {"generators": [[1, 2, 0], [1, 0, 2]]},
        "modules": {"trivial": {"kind": "trivial", "dim": 1},
                    "coinduced": {"kind": "coinduced", "base_dim": 1}},
        "budgets": {"q_max": 2, "p_max": 2, "bar_budget": 300},
    })
    fragment, ok = cli.cmd_verify(spec)
    assert ok
    details = {v["check"]: v.get("detail") for v in fragment["verdicts"]}
    skipped = {"bar_budget_skipped_p": [2]}
    assert details["cohom.coinduced.q1_row_matches_brute_force"] == skipped
    assert details["power.coinduced.ext_of_layer_equals_n_times_classical"] == skipped
    assert [name for name, d in details.items() if d and "bar_budget_skipped_p" in d] == [
        "cohom.coinduced.q1_row_matches_brute_force",
        "power.coinduced.ext_of_layer_equals_n_times_classical",
        "vanishing.coinduced_module"]


def test_selftest(tmp_path):
    proc = run_cli(["selftest"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert all(entry["all_pass"] for entry in report["selftest"]["problems"].values())


def test_trivial_group_spec(tmp_path):
    path = write_spec(tmp_path, {
        "field": "Q",
        "group": {"generators": []},
        "modules": {"trivial": {"kind": "trivial", "dim": 2}},
        "budgets": {"q_max": 2, "p_max": 2},
    })
    proc = run_cli(["info", "--spec", path])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["info"]["group_order"] == 1
    proc = run_cli(["verify", "--spec", path])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["verify"]["all_pass"] is True
    grid = report["verify"]["grids"]["trivial"]
    assert grid == [[2, 0, 0], [2, 0, 0]]  # vacuous higher structure


def test_les_check_sigma_full_reports_degenerate_isos(tmp_path):
    proc = run_cli(["les-check", "--spec", str(SPECS / "s3_full_f2.json"),
                    "--module", "trivial"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    for item in report["les"]["modules"]["trivial"]:
        assert item["n_q"] == 0
        assert item["degenerate_isomorphisms"] is True


def test_exit_code_on_verification_failure(monkeypatch, capsys):
    monkeypatch.setattr(cli, "cmd_verify",
                        lambda spec, recheck=False: ({"all_pass": False,
                                                      "verdicts": []}, False))
    code = cli.main(["verify", "--spec", str(SPECS / "c2_f2.json")])
    assert code == cli.EXIT_VERIFICATION_FAILED


def test_reports_deterministic_in_process(tmp_path):
    # same spec, fresh state per run: identical bytes outside the timing block
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        code = cli.main(["verify", "--spec", str(SPECS / "c3_f3.json"),
                         "--out", str(out)])
        assert code == 0
    def strip_timing(path):
        doc = json.loads(path.read_text())
        del doc["timing"]
        return json.dumps(doc, indent=2, sort_keys=True)
    assert strip_timing(out1) == strip_timing(out2)


def test_verify_large_prime_terminates_with_maschke_grid(tmp_path):
    # p = 4294967311 does not divide |S3| = 6: H^p = 0 for p > 0 (Maschke)
    doc = json.loads((SPECS / "s3_f3.json").read_text())
    doc["field"] = "F4294967311"
    out = tmp_path / "report.json"
    started = time.monotonic()
    code = cli.main(["verify", "--spec", write_spec(tmp_path, doc), "--out", str(out)])
    assert time.monotonic() - started < 30
    assert code == cli.EXIT_OK
    grids = json.loads(out.read_text())["verify"]["grids"]
    for name, grid in grids.items():
        for row in grid:
            assert row[1:] == [0] * (len(row) - 1), name
    assert grids["trivial"][0][0] == 1 and grids["sign"][0][0] == 0


@pytest.mark.parametrize("error", [AlgebraError("chain did not stabilize"),
                                   LinalgError("no image in F_5")])
def test_algebra_and_linalg_errors_exit_2(monkeypatch, capsys, error):
    def fail(spec, recheck=False):
        raise error
    monkeypatch.setattr(cli, "cmd_verify", fail)
    code = cli.main(["verify", "--spec", str(SPECS / "c2_f2.json")])
    assert code == cli.EXIT_INPUT_ERROR
    assert str(error) in capsys.readouterr().err


LIFTED_SPECS = ["c2_f2.json", "c2c2_f2.json", "d4_f2.json"]


@pytest.mark.parametrize("spec_name", LIFTED_SPECS)
def test_wrong_comparison_lift_exits_1_with_the_certificate(monkeypatch, capsys, spec_name):
    """A failed internal certificate is a failed verification: exit 1 and
    the certificate's message, never a traceback or the input-error code.
    The node verdicts alone need not see a wrong lift (Hom into a trivial
    module can hide it), so the lift's own certificate must."""
    from hocohom import les
    solve_body = les.solve_column

    def wrong_lift(m, b):
        x = solve_body(m, b)
        j = next(j for j in range(m.cols) if not m.take_columns([j]).is_zero())
        unit = Matrix(m.field, [[int(r == j)] * x.cols for r in range(m.cols)])
        return x - unit

    monkeypatch.setattr(les, "solve_column", wrong_lift)
    code = cli.main(["les-check", "--spec", str(SPECS / spec_name)])
    assert code == cli.EXIT_VERIFICATION_FAILED
    assert capsys.readouterr().err == (
        "certificate failed: comparison map at degree 0 is not a chain map\n")


def test_nonzero_delta_squared_exits_1_with_the_certificate(monkeypatch, capsys):
    """delta^{p+1} delta^p != 0 in the A/J_q complex reaches the containment
    check of the cohomology quotient, which exits 1 like every certificate."""
    from hocohom import les
    delta_body = les.hom_delta
    p_max = load_problem(SPECS / "c2_f2.json").p_max

    def broken(resolution, v, i):
        delta = delta_body(resolution, v, i)
        if i < p_max + 1:
            return delta
        # read only by the quotient at degree p_max + 1, whose coboundaries
        # delta^{p_max} then escape its cocycles
        return Matrix.identity(delta.field, delta.cols).take_rows(range(delta.rows))

    monkeypatch.setattr(les, "hom_delta", broken)
    code = cli.main(["les-check", "--spec", str(SPECS / "c2_f2.json"), "--module", "regular"])
    assert code == cli.EXIT_VERIFICATION_FAILED
    assert capsys.readouterr().err == (
        "certificate failed: the spanning rows are not contained in sup\n")


def test_j_filtration_stops_at_its_cap(monkeypatch):
    # a chain that never compares equal must raise, not loop forever
    spec = load_problem(SPECS / "c4_f2.json")
    monkeypatch.setattr(Subspace, "__eq__", lambda self, other: False)
    with pytest.raises(IdealCertificateError, match="did not stabilize"):
        j_filtration(spec.algebra(), spec.sigma)


@pytest.mark.parametrize("verb, spec_name", [
    (lambda spec: cli.cmd_cohom(spec, recheck=True), "s3_a3_f2.json"),
    (cli.cmd_verify, "d4_f2.json"),
])
def test_one_resolution_build_and_one_filtration_per_request(monkeypatch, verb, spec_name):
    # a longer request extends the cached resolution instead of rebuilding it
    from hocohom import resolution
    builds, chains = [], []
    build, chain = resolution.build_resolution, resolution.j_filtration

    def spy_build(algebra, m, length, order="forward"):
        builds.append((algebra, m, order))
        return build(algebra, m, length, order)

    def spy_chain(algebra, sigma):
        chains.append(sigma.members)
        return chain(algebra, sigma)

    monkeypatch.setattr(resolution, "build_resolution", spy_build)
    monkeypatch.setattr(resolution, "j_filtration", spy_chain)
    _, ok = verb(load_problem(SPECS / spec_name))
    assert ok
    assert builds and len(builds) == len(set(builds)), builds
    # the layers J_q/J_{q+1} are block sums of the A/J_1 resolution, never built:
    # every module built is an A/J_q kept in the algebra's cache
    assert all(any(key[0] == "ajq" and value[0] is m for key, value in algebra._cache.items())
               for algebra, m, _ in builds), builds
    assert len(chains) == 1


@pytest.mark.parametrize("verb", ["les-check", "verify"])
def test_the_long_exact_sequence_builds_only_the_grid_resolutions(monkeypatch, verb):
    # the sequence at q reads the cached resolutions of A/J_q and A/J_{q+1},
    # so a request resolves A/J_1 .. A/J_{q_top + 1} once each, and nothing else
    from hocohom import les, resolution
    builds, horseshoes, layers = [], [], []
    build, horseshoe, layer = resolution.build_resolution, les.horseshoe, les.resolution_of_layer

    def spy_build(algebra, m, length, order="forward"):
        builds.append((algebra, m))
        return build(algebra, m, length, order)

    def spy_horseshoe(ses, length):
        horseshoes.append(ses.q)
        return horseshoe(ses, length)

    def spy_layer(algebra, sigma, q, length):
        layers.append(q)
        return layer(algebra, sigma, q, length)

    monkeypatch.setattr(resolution, "build_resolution", spy_build)
    monkeypatch.setattr(les, "horseshoe", spy_horseshoe)
    monkeypatch.setattr(les, "resolution_of_layer", spy_layer)
    spec = load_problem(SPECS / "d4_f2.json")
    _, ok = (cli.cmd_les if verb == "les-check" else cli.cmd_verify)(spec)
    assert ok and not horseshoes and not layers
    algebra = builds[0][0]
    filt = resolution.filtration_for(algebra, spec.sigma)
    q_top = spec.q_max if verb == "les-check" else min(spec.q_max, filt.stabilization_q + 1)
    assert q_top == 3
    built = [id(m) for _, m in builds]
    expected = {id(resolution.quotient_by_j(algebra, spec.sigma, q)[0])
                for q in range(1, q_top + 2)}
    assert len(built) == len(set(built)) == len(expected) and set(built) == expected


def test_verify_past_the_les_degree_cap_exits_2_before_building_a_resolution(
        monkeypatch, capsys):
    # each module's long exact sequences come before its grid, so the cap is
    # met before any resolution is built
    from hocohom import resolution
    builds = []
    build = resolution.build_resolution

    def spy(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(resolution, "build_resolution", spy)
    code = cli.main(["verify", "--spec", str(SPECS / "d4_f2.json"), "--p-max", "4"])
    assert code == cli.EXIT_INPUT_ERROR
    assert "p_max <= 3" in capsys.readouterr().err
    assert not builds


def test_the_power_verdict_reads_the_power_term_of_the_sequence(monkeypatch):
    # one power term of the trivial module raised by 1 (a zero row added to
    # the map into it), at a degree the bar budget decides, fails the power
    # verdict and no other
    import dataclasses
    spec = load_problem(SPECS / "d4_f2.json")
    sequence = cli.long_exact_sequence

    def mutant(algebra, sigma, v, q, p_max):
        report = sequence(algebra, sigma, v, q, p_max)
        if v.dim != 1 or q != 1:      # d4_f2's only one-dimensional module is `trivial`
            return report
        degrees = list(report.degrees)
        upper = degrees[1].map_upper_to_power
        degrees[1] = dataclasses.replace(degrees[1], map_upper_to_power=Matrix.vstack(
            upper.field, [upper, Matrix.zeros(upper.field, 1, upper.cols)]))
        return dataclasses.replace(report, degrees=tuple(degrees))

    monkeypatch.setattr(cli, "long_exact_sequence", mutant)
    fragment, ok = cli.cmd_verify(spec)
    assert not ok
    assert [v["check"] for v in fragment["verdicts"] if not v["pass"]] == [
        "power.trivial.ext_of_layer_equals_n_times_classical"]
    power = next(v for v in fragment["verdicts"]
                 if v["check"] == "power.trivial.ext_of_layer_equals_n_times_classical")
    assert "detail" not in power        # the bar budget decides every degree of d4_f2


def _bar_coboundary_builds(monkeypatch, spec) -> list:
    """(module id, degree, inside the vanishing check) of each bar coboundary
    that a passing `verify` builds."""
    from hocohom import resolution
    built, inside_vanishing = [], []
    coboundary, vanishing = resolution._bar_coboundary, cli.vanishing_check

    def spy_coboundary(group, v, i):
        built.append((id(v), i, bool(inside_vanishing)))
        return coboundary(group, v, i)

    def spy_vanishing(*args, **kwargs):
        inside_vanishing.append(True)
        try:
            return vanishing(*args, **kwargs)
        finally:
            inside_vanishing.pop()

    monkeypatch.setattr(resolution, "_bar_coboundary", spy_coboundary)
    monkeypatch.setattr(cli, "vanishing_check", spy_vanishing)
    _, ok = cli.cmd_verify(spec)
    assert ok
    return built


def test_verify_builds_each_bar_coboundary_once_per_module(monkeypatch):
    # the vanishing check reads the ranks kept with the spec's coinduced module
    spec = load_problem(SPECS / "d4_f2.json")
    built = _bar_coboundary_builds(monkeypatch, spec)
    pairs = [(v, i) for v, i, _ in built]
    assert len(pairs) == len(set(pairs)) == len(spec.module_names()) * (spec.p_max + 1)
    assert not any(during for *_, during in built)


def test_verify_on_q_reads_the_regular_module_for_the_vanishing_check(monkeypatch):
    # the coinduced module of the vanishing check has the `regular` module's table
    spec = load_problem(SPECS / "s3_q.json")
    built = _bar_coboundary_builds(monkeypatch, spec)
    pairs = [(v, i) for v, i, _ in built]
    assert len(pairs) == len(set(pairs)) == len(spec.module_names()) * (spec.p_max + 1) == 9
    assert not any(during for *_, during in built)


def test_verify_builds_each_hom_coboundary_once_per_boundary_and_module(monkeypatch):
    # Ext at p and p + 1, the long exact sequence and the power law share each build
    from hocohom import resolution
    calls = []
    precompose = resolution.hom_precompose

    def spy(algebra, amap, v):
        calls.append((v, amap))
        return precompose(algebra, amap, v)

    monkeypatch.setattr(resolution, "hom_precompose", spy)
    _, ok = cli.cmd_verify(load_problem(SPECS / "d4_f2.json"))
    assert ok
    assert calls and len(calls) == len(set(calls))


def test_verify_builds_one_free_module_per_algebra_and_rank(monkeypatch):
    # _extend and the comparison map read the one A^k kept in the algebra's cache
    from hocohom import les, resolution
    made = {}
    free_amodule = resolution.free_amodule

    def spy(algebra, k):
        m = free_amodule(algebra, k)
        made.setdefault((id(algebra), k), []).append(m)
        return m

    monkeypatch.setattr(resolution, "free_amodule", spy)
    monkeypatch.setattr(les, "free_amodule", spy)
    _, ok = cli.cmd_verify(load_problem(SPECS / "d4_f2.json"))
    assert ok
    assert sum(map(len, made.values())) > len(made) > 1
    assert all(all(m is ms[0] for m in ms) for ms in made.values())


def test_verify_continues_the_h0_recursion_once_per_step(monkeypatch):
    # q_top = 3 and two modules: one refinement each from H_1^0 and H_2^0
    from hocohom import modules
    made = []
    quotient_map = modules.QuotientMap

    def spy(*args):
        made.append(args)
        return quotient_map(*args)

    monkeypatch.setattr(modules, "QuotientMap", spy)
    spec = load_problem(SPECS / "d4_f2.json")
    _, ok = cli.cmd_verify(spec)
    assert ok
    assert len(made) == 4 == len(spec.module_names()) * (spec.q_max - 1)


def _fails_certificate(capsys, argv, expected):
    code = cli.main(argv)
    assert code == cli.EXIT_VERIFICATION_FAILED
    err = capsys.readouterr().err
    assert err.startswith("certificate failed: ") and expected in err, err


@pytest.mark.parametrize("spec_name", LIFTED_SPECS)
def test_missing_comparison_lift_exits_1(monkeypatch, capsys, spec_name):
    from hocohom import les
    from hocohom.linalg import InconsistentSystem

    def no_solution(m, b):
        raise InconsistentSystem("no solution")

    monkeypatch.setattr(les, "solve_column", no_solution)
    _fails_certificate(capsys, ["les-check", "--spec", str(SPECS / spec_name)],
                       "comparison map at degree 0 has no solution")


def test_ideal_that_is_not_two_sided_exits_1(monkeypatch, capsys):
    from hocohom import algebra

    def unit_rows(self, g, rows):
        # e, the identity element, lies outside every proper ideal
        return Matrix.identity(self.field, self.dim).take_rows([0] * rows.rows)

    monkeypatch.setattr(algebra.GroupAlgebra, "left", unit_rows)
    _fails_certificate(capsys, ["ideals", "--spec", str(SPECS / "c2_f2.json")],
                       "not left-stable under element")
    assert issubclass(algebra.IdealCertificateError, cli.CertificateError)


def test_augmentation_ideal_of_the_wrong_dimension_exits_1(monkeypatch, capsys):
    from hocohom import algebra
    differences = algebra._differences
    monkeypatch.setattr(algebra, "_differences",
                        lambda n, plus, minus: differences(n, plus[:1], minus[:1]))
    _fails_certificate(capsys, ["ideals", "--spec", str(SPECS / "s3_f2.json")],
                       "I has dimension 1, expected 5")


def test_chain_that_never_stabilizes_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(Subspace, "__eq__", lambda self, other: False)
    _fails_certificate(capsys, ["ideals", "--spec", str(SPECS / "c4_f2.json")],
                       "J_q did not stabilize")


def test_sigma_ideal_outside_the_augmentation_ideal_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(Subspace, "contains_subspace", lambda self, other: False)
    _fails_certificate(capsys, ["ideals", "--spec", str(SPECS / "c2_f2.json")],
                       "A*I_S is not contained in the augmentation ideal")


def test_quotient_sequence_map_that_is_not_equivariant_exits_1(monkeypatch, capsys):
    from hocohom import les

    def not_equivariant(source, target, matrix):
        raise ValueError("map is not equivariant at element 1")

    monkeypatch.setattr(les, "ModuleMap", not_equivariant)
    _fails_certificate(capsys, ["les-check", "--spec", str(SPECS / "c2_f2.json")],
                       "quotient sequence at level 1: map is not equivariant at element 1")


def test_sigma_ideal_of_the_wrong_dimension_exits_1(monkeypatch, capsys):
    from hocohom import algebra
    differences = algebra._differences

    def first_only(n, plus, minus):
        # the augmentation ideal keeps its n - 1 rows; A*I_S keeps one row
        return differences(n, plus, minus) if len(plus) == n - 1 else \
            differences(n, plus[:1], minus[:1])

    monkeypatch.setattr(algebra, "_differences", first_only)
    _fails_certificate(capsys,
                       ["ideals", "--spec", str(SPECS / "s3_full_f2.json")],
                       "A*I_S has dimension")


def test_unstable_quotient_ideal_exits_1(monkeypatch, capsys):
    from hocohom import resolution
    stable = resolution._certify_stable

    def unstable(module, sub):
        stable(module, sub)
        raise resolution.NotStableError(1, [0] * module.dim)

    monkeypatch.setattr(resolution, "_certify_stable", unstable)
    _fails_certificate(capsys, ["cohom", "--spec", str(SPECS / "c2_f2.json")],
                       "A/J_1: subspace is not stable under group element 1")
