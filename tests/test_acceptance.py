"""Acceptance criteria, one test per criterion, at their stated tolerances.

Every expected value is either computed by a test-local independent oracle
(criterion 1 runs its own polynomial arithmetic and its own elimination,
sharing no code with the package) or cross-checked between two genuinely
different computation paths inside the package.  Each test prints one
pass/fail line.
"""

import contextlib
import io
import json
import time
from pathlib import Path

from hocohom import cli
from hocohom.algebra import (
    GroupAlgebra, augmentation_ideal, i_power_by_products, j_filtration,
)
from hocohom.cocycle import h_q1_cocycle
from hocohom.groups import (
    Permutation, close_generators, subgroup_closure, trivial_subgroup, full_subgroup,
)
from hocohom.les import long_exact_sequence, power_identification, vanishing_check
from hocohom.linalg import Field, Matrix
from hocohom.modules import (
    coinduced_module, h_q0_annihilator, make_module, regular_module, trivial_module,
)
from hocohom.resolution import bar_dimension, filtration_for, higher_cohomology

SPECS = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.json"))

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)


def report_line(name: str, ok: bool, elapsed: float, budget: float | None = None):
    status = "PASS" if ok else "FAIL"
    extra = f", budget {budget:.0f}s" if budget is not None else ""
    print(f"[{status}] {name} ({elapsed:.2f}s{extra})")
    assert ok, name
    if budget is not None:
        assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded {budget}s"


def cyclic(n):
    return close_generators([Permutation([(i + 1) % n for i in range(n)])])

def s3():
    return close_generators([Permutation([1, 2, 0]), Permutation([1, 0, 2])])


# --- criterion 1: cyclic-group table against local polynomial arithmetic -----

def _local_rank_mod_p(rows, p):
    """Test-local elimination; deliberately shares nothing with the package."""
    grid = [list(r) for r in rows]
    if not grid:
        return 0
    cols = len(grid[0])
    rank = 0
    for c in range(cols):
        pivot = None
        for i in range(rank, len(grid)):
            if grid[i][c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        inv = pow(grid[rank][c], p - 2, p)
        grid[rank] = [(x * inv) % p for x in grid[rank]]
        for i in range(len(grid)):
            if i != rank and grid[i][c] % p:
                f = grid[i][c]
                grid[i] = [(x - f * y) % p for x, y in zip(grid[i], grid[rank])]
        rank += 1
    return rank


def _local_poly_mult(a, b, p):
    """Multiplication in F_p[u]/(u^p), coefficient lists of length p."""
    out = [0] * p
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y and i + j < p:
                    out[i + j] = (out[i + j] + x * y) % p
    return out


def test_criterion_1_cyclic_group_table():
    started = time.monotonic()
    failures = []
    for p in (2, 3, 5):
        field = Field.prime(p)
        group = cyclic(p)
        algebra = GroupAlgebra(group, field)
        filt = j_filtration(algebra, trivial_subgroup(group), q_max=p + 2)
        reg = regular_module(algebra)

        # local oracle: A = F_p[u]/(u^p); I^q spanned by u^q * u^j
        u = [0] * p
        u[1] = 1
        powers = [[1] + [0] * (p - 1)]
        for _ in range(p):
            powers.append(_local_poly_mult(powers[-1], u, p))
        for q in range(1, p + 3):
            span = [powers[q + j] for j in range(p) if q + j <= p]
            oracle_dim_j = _local_rank_mod_p(span, p) if span else 0
            expected = p - q if q <= p else 0
            if oracle_dim_j != expected:
                failures.append(("oracle-selfcheck", p, q))
            if filt.j(q).dim != oracle_dim_j:
                failures.append(("dim_j", p, q, filt.j(q).dim, oracle_dim_j))
        for q in range(1, p + 2):
            expected_n = 1 if q <= p - 1 else 0
            if filt.n(q) != expected_n:
                failures.append(("n", p, q, filt.n(q)))
        for q in range(1, p + 3):
            # local oracle: annihilator of u^q is the kernel of its
            # multiplication matrix on the u-power basis
            mult_rows = []
            uq = powers[min(q, p)]
            for i in range(p):
                basis_vec = [0] * p
                basis_vec[i] = 1
                mult_rows.append(_local_poly_mult(uq, basis_vec, p))
            # columns index the input basis: transpose before ranking
            matrix = [[mult_rows[j][i] for j in range(p)] for i in range(p)]
            oracle_h0 = p - _local_rank_mod_p(matrix, p)
            if oracle_h0 != min(q, p):
                failures.append(("oracle-h0-selfcheck", p, q))
            got = h_q0_annihilator(reg, filt, q).dim
            if got != oracle_h0:
                failures.append(("h_q0", p, q, got, oracle_h0))
    report_line("criterion 1: cyclic-group table (F_p[x]/(x^p) oracle)",
                not failures, time.monotonic() - started, budget=5.0)


# --- the shared acceptance suite ---------------------------------------------

def _suite_instances():
    """{C2/F2, C3/F3, C4/F2, S3/F2, S3/F3, S3/Q} x {trivial, regular, sign-type}."""
    out = []
    for group, field in [(cyclic(2), F2), (cyclic(3), F3), (cyclic(4), F2),
                         (s3(), F2), (s3(), F3), (s3(), Q)]:
        algebra = GroupAlgebra(group, field)
        modules = [("trivial", trivial_module(group, field, 1)),
                   ("regular", regular_module(algebra))]
        if group.order == 6 and field.characteristic != 2:
            modules.append(("sign", make_module(
                group, field, [Matrix.identity(field, 1), Matrix(field, [[-1]])])))
        out.append((algebra, trivial_subgroup(group), modules))
    return out


def test_criterion_2_ordinary_cohomology_recovery():
    started = time.monotonic()
    failures = []
    for algebra, sigma, modules in _suite_instances():
        for name, v in modules:
            for p in (0, 1, 2):
                got = higher_cohomology(algebra, sigma, v, 1, p).dim
                want = bar_dimension(algebra.group, v, p)
                if got != want:
                    failures.append((algebra.group.order, algebra.field.name,
                                     name, p, got, want))
    report_line("criterion 2: q=1 recovers ordinary cohomology (brute-force oracle)",
                not failures, time.monotonic() - started, budget=30.0)


def test_criterion_3_cocycle_cross_oracle():
    started = time.monotonic()
    failures = []
    for algebra, sigma, modules in _suite_instances():
        filt = filtration_for(algebra, sigma)
        for name, v in modules:
            for q in range(1, filt.stabilization_q + 2):
                cocycle = h_q1_cocycle(algebra, sigma, v, q, filt)
                ext_dim = higher_cohomology(algebra, sigma, v, q, 1, filt).dim
                if cocycle != ext_dim:
                    failures.append((algebra.group.order, algebra.field.name,
                                     name, q, cocycle, ext_dim))
    report_line("criterion 3: cocycle model equals Ext^1 everywhere",
                not failures, time.monotonic() - started, budget=30.0)


def test_criterion_4_les_exactness():
    started = time.monotonic()
    failures = []
    for algebra, sigma, modules in _suite_instances():
        filt = filtration_for(algebra, sigma)
        for name, v in modules:
            for q in (1, 2):
                report = long_exact_sequence(algebra, sigma, v, q, 2, filt)
                if not report.exact:
                    failures.append((algebra.group.order, algebra.field.name,
                                     name, q))
    report_line("criterion 4: long exact sequence exact at every node "
                "(image = kernel as subspaces)",
                not failures, time.monotonic() - started, budget=120.0)


def test_criterion_5_power_identification():
    started = time.monotonic()
    failures = []
    for algebra, sigma, modules in _suite_instances():
        filt = filtration_for(algebra, sigma)
        for name, v in modules:
            for q in range(1, min(filt.stabilization_q + 2, 4)):
                for p in (0, 1, 2):
                    lhs, rhs = power_identification(algebra, sigma, v, q, p, filt)
                    if lhs != rhs:
                        failures.append((algebra.group.order, algebra.field.name,
                                         name, q, p, lhs, rhs))
    report_line("criterion 5: Ext^p of the layer equals N(q) * dim H^p",
                not failures, time.monotonic() - started)


def test_criterion_6_vanishing_for_coinduced():
    started = time.monotonic()
    failures = []
    groups = [
        (cyclic(2), F2, []),
        (cyclic(3), F3, []),
        (cyclic(4), F2, []),
        (close_generators([Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])]),
         F2, []),  # C2 x C2
        (s3(), F2, [0]),   # sigma = A3 as well as the trivial one
        (close_generators([Permutation([1, 2, 3, 0]), Permutation([0, 3, 2, 1])]),
         F2, []),  # D4
        (close_generators([Permutation([2, 3, 1, 0, 6, 7, 5, 4]),
                           Permutation([4, 5, 7, 6, 1, 0, 2, 3])]), F2, []),  # Q8
    ]
    for group, field, extra_sigma_gens in groups:
        assert group.order <= 8
        algebra = GroupAlgebra(group, field)
        sigmas = [trivial_subgroup(group)]
        if extra_sigma_gens:
            sigmas.append(subgroup_closure(
                group, [group.gen_indices[i] for i in extra_sigma_gens]))
        v = coinduced_module(group, field, 1)
        for sigma in sigmas:
            verdict = vanishing_check(algebra, sigma, v, 3, 2)
            if not verdict.acyclic_certified or not verdict.ok:
                failures.append((group.order, field.name, sigma.order, verdict.dims))
    report_line("criterion 6: coinduced modules vanish for 1 <= p <= 2, q <= 3, "
                "|G| <= 8", not failures, time.monotonic() - started)


def test_criterion_7_collapse_law():
    started = time.monotonic()
    failures = []
    rational_cases = [(cyclic(2),), (cyclic(3),), (cyclic(4),), (s3(),)]
    for (group,) in rational_cases:
        algebra = GroupAlgebra(group, Q)
        sigma = trivial_subgroup(group)
        filt = filtration_for(algebra, sigma)
        if filt.stabilization_q != 1:
            failures.append(("stabilization", group.order))
            continue
        for v in (trivial_module(group, Q, 1), regular_module(algebra)):
            rows = [[higher_cohomology(algebra, sigma, v, q, p, filt).dim
                     for p in (0, 1, 2)] for q in (1, 2, 3)]
            if any(row != rows[0] for row in rows):
                failures.append(("rational", group.order, rows))
            classical = [bar_dimension(group, v, p) for p in (0, 1, 2)]
            if rows[0] != classical:
                failures.append(("rational-vs-classical", group.order, rows[0], classical))
    # a modular case that stabilizes at q = 1: sigma the whole group
    group = s3()
    algebra = GroupAlgebra(group, F2)
    sigma = full_subgroup(group)
    filt = filtration_for(algebra, sigma)
    if filt.stabilization_q != 1:
        failures.append(("stabilization", "sigma=G"))
    for v in (trivial_module(group, F2, 1), regular_module(algebra)):
        rows = [[higher_cohomology(algebra, sigma, v, q, p, filt).dim
                 for p in (0, 1, 2)] for q in (1, 2, 3)]
        if any(row != rows[0] for row in rows):
            failures.append(("modular-full-sigma", rows))
        classical = [bar_dimension(group, v, p) for p in (0, 1, 2)]
        if rows[0] != classical:
            failures.append(("modular-vs-classical", rows[0], classical))
    report_line("criterion 7: grid constant in q whenever the filtration "
                "stabilizes at q = 1", not failures, time.monotonic() - started)


def test_criterion_8_special_case_ideals():
    started = time.monotonic()
    failures = []
    for group, field in [(cyclic(2), F2), (cyclic(3), F3), (cyclic(4), F2),
                         (s3(), F2), (s3(), F3), (s3(), Q)]:
        algebra = GroupAlgebra(group, field)
        # sigma trivial: J_q must equal I^q computed by full pairwise products
        filt = j_filtration(algebra, trivial_subgroup(group), q_max=3)
        for q in range(1, filt.stabilization_q + 2):
            if filt.j(q) != i_power_by_products(algebra, q):
                failures.append(("trivial", group.order, field.name, q))
        # sigma the whole group: J_q constant at the augmentation ideal
        filt_full = j_filtration(algebra, full_subgroup(group), q_max=3)
        aug = augmentation_ideal(algebra)
        for q in range(1, 5):
            if filt_full.j(q) != aug:
                failures.append(("full", group.order, field.name, q))
    report_line("criterion 8: special-case ideal identities (subspace equality)",
                not failures, time.monotonic() - started)


GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_path(spec_path: Path, recheck: bool = False) -> Path:
    return GOLDEN / (f"{spec_path.stem}.recheck.json" if recheck else spec_path.name)


def verify_report(spec_path: Path, out: Path, recheck: bool = False) -> tuple[int, str]:
    """Exit code and the `verify` report of one spec with `timing` removed."""
    argv = ["verify", "--spec", str(spec_path), "--out", str(out)]
    if recheck:
        argv.append("--recheck")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    doc = json.loads(out.read_text())
    del doc["timing"]
    return code, json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_criterion_9_deterministic_reports(tmp_path):
    started = time.monotonic()
    failures = []
    assert SPECS, "shipped problem specs are missing"
    for spec_path in SPECS:
        payloads = []
        for run in (1, 2):
            code, payload = verify_report(spec_path, tmp_path / f"{spec_path.stem}.{run}.json")
            if code != 0:
                failures.append(("exit", spec_path.name, code))
            payloads.append(payload)
        if payloads[0] != payloads[1]:
            failures.append(("mismatch", spec_path.name))
        golden = golden_path(spec_path)
        if not golden.exists() or payloads[0] != golden.read_text():
            failures.append(("golden", spec_path.name))
    report_line("criterion 9: byte-identical verify reports outside the "
                "timing block, every shipped spec, equal to tests/golden",
                not failures, time.monotonic() - started)


def test_recheck_reports_match_golden(tmp_path):
    """`verify --recheck` once per shipped spec, against its golden report.

    The recheck path adds the reversed-sweep resolutions, whose verdicts go
    through the rational rank on the Q spec.
    """
    started = time.monotonic()
    failures = []
    for spec_path in SPECS:
        code, payload = verify_report(spec_path, tmp_path / spec_path.name, recheck=True)
        if code != 0:
            failures.append(("exit", spec_path.name, code))
        golden = golden_path(spec_path, recheck=True)
        if not golden.exists() or payload != golden.read_text():
            failures.append(("golden", spec_path.name))
    report_line("verify --recheck reports outside the timing block equal "
                "tests/golden, every shipped spec", not failures,
                time.monotonic() - started)


if __name__ == "__main__":
    # Rewrites tests/golden (plain and --recheck reports) from the current code:
    #   PYTHONPATH=src python tests/test_acceptance.py
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for spec_path in SPECS:
            for recheck in (False, True):
                code, payload = verify_report(spec_path, Path(tmp) / spec_path.name, recheck)
                if code != 0:
                    raise SystemExit(f"verify failed on {spec_path.name} (exit {code})")
                golden_path(spec_path, recheck).write_text(payload)
