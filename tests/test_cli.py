"""The batch interface: parsing, verbs, reports, exit codes, determinism."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hocohom import cli
from hocohom.algebra import AlgebraError, j_filtration
from hocohom.linalg import LinalgError, Subspace
from hocohom.problem import SpecError, parse_problem, load_problem

SPECS = Path(__file__).resolve().parent.parent / "specs"


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "hocohom.cli", *args],
        capture_output=True, text=True)
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


def test_verify_text_rendering(tmp_path):
    proc = run_cli(["verify", "--spec", str(SPECS / "c2_f2.json"), "--text"])
    assert proc.returncode == 0
    assert "[PASS]" in proc.stdout
    assert "all-pass" in proc.stdout


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


def test_j_filtration_stops_at_its_cap(monkeypatch):
    # a chain that never compares equal must raise, not loop forever
    spec = load_problem(SPECS / "c4_f2.json")
    monkeypatch.setattr(Subspace, "__eq__", lambda self, other: False)
    with pytest.raises(AlgebraError, match="did not stabilize"):
        j_filtration(spec.algebra(), spec.sigma)
