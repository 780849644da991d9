"""Batch command-line interface.

One verb per surface: `info` (group and subgroup validation), `ideals`
(the filtration table), `cohom` (the H_q^p grid with mandatory
cross-oracles), `h1` (the cocycle model), `les-check` (long-exact-sequence
exactness), `verify` (the full verdict bundle), and `selftest` (built-in
problems).  Input is a JSON problem file; output is a deterministic JSON
report (timing is segregated under its own key so reports are diffable),
with an optional plain-text table rendering.  `VERBS` records each verb's
report key, its command and the flags it takes: `--module` restricts
`cohom`, `h1` and `les-check` to one module, and `--recheck` adds the
alternate oracles of `ideals`, `cohom`, `h1` and `verify`.

Each cross-oracle comparison is one function, called by every verb that
reports it; `verify` is built from the per-module entries of `cohom` and
`les-check` and from the ideal identities of `ideals --recheck`.

Exit codes: 0 all verdicts pass, 1 verification failure (a failing verdict,
or an internal certificate that failed, reported as `certificate failed`),
2 input error (including algebra and linear-algebra errors, reported with
their message).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import NamedTuple

import numpy as np

from . import __version__
from .algebra import AlgebraError, i_power_by_products, j_by_left_route
from .cocycle import h_q1_cocycle
from .groups import NotNormalError
from .les import long_exact_sequence, power_identification, vanishing_check
from .linalg import CertificateError, LinalgError
from .modules import coinduced_module, h_q0_annihilator, h_q0_inductive
from .problem import ProblemSpec, SpecError, load_problem, parse_problem
from .resolution import (
    BudgetExceeded, bar_dimension_or_none, filtration_for, higher_cohomology,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2

# the ideal identities of `ideals --recheck` by row key, with their `verify` verdicts
IDENTITY_VERDICTS = (("recheck_i_power", "ideals.sigma_trivial_j_equals_i_power"),
                     ("recheck_constant", "ideals.sigma_full_j_constant_at_augmentation"))


# ---------------------------------------------------------------------------
# the cross-oracle comparisons, one function each

def _ideal_identities(spec: ProblemSpec, algebra, filt, q: int) -> dict[str, bool]:
    """J_q = I^q (by products of I) when S is trivial and J_q = I when
    S = G, keyed as in `ideals --recheck`."""
    checks = {}
    if spec.sigma.is_trivial:
        checks["recheck_i_power"] = filt.j(q) == i_power_by_products(algebra, q)
    if spec.sigma.is_full:
        checks["recheck_constant"] = filt.j(q) == filt.augmentation
    return checks


def _cocycle_matches(spec: ProblemSpec, algebra, v, p1_column) -> bool:
    """The cocycle model H_q^1 = Hom_A(J_q, V)/alpha(V) against the p = 1
    column of Ext, q = 1.., stopping at the first mismatch."""
    return all(h_q1_cocycle(algebra, spec.sigma, v, q) == d
               for q, d in enumerate(p1_column, start=1))


def _h0_checks(spec: ProblemSpec, algebra, v, grid, q_top: int) -> tuple[bool, bool]:
    """H_q^0 for q = 1..q_top as the annihilator of J_q, against the p = 0
    column of the grid and, as subspaces, against the inductive recursion.
    The annihilator is kept with v once per (algebra, S, level); the
    recursion, which reads no J_q, per (S, q) (`h_q0_inductive`), so at
    q = s + 1 it still takes its own step."""
    filt = filtration_for(algebra, spec.sigma)
    members = spec.sigma.members
    ann = [v.cached(("h0_annihilator", algebra, members, filt.level(q)),
                    lambda: h_q0_annihilator(v, filt, q)) for q in range(1, q_top + 1)]
    ind = [h_q0_inductive(v, spec.sigma, q) for q in range(1, q_top + 1)]
    return [a.dim for a in ann] == [row[0] for row in grid[:q_top]], ann == ind


def _grid(spec: ProblemSpec, algebra, v, order: str = "forward") -> list[list[int]]:
    """The H_q^p grid, rows q = 1..q_max and columns p = 0..p_max, from
    resolutions built in the given sweep order."""
    return [[higher_cohomology(algebra, spec.sigma, v, q, p, order)
             for p in range(spec.p_max + 1)]
            for q in range(1, spec.q_max + 1)]


# ---------------------------------------------------------------------------
# the per-module entries of `cohom`, `h1` and `les-check`

def _per_module(spec: ProblemSpec, module_name: str | None, entry) -> tuple[dict, bool]:
    """{name: report entry} and whether all passed, from entry(algebra, v)
    -> (report entry, passed) on the named module or on every module."""
    algebra = spec.algebra()
    out, ok = {}, True
    for name in [module_name] if module_name else spec.module_names():
        out[name], passed = entry(algebra, spec.build_module(name))
        ok = ok and passed
    return out, ok


def _cohom_entry(spec: ProblemSpec, algebra, v, h0_top: int,
                 recheck: bool) -> tuple[dict, bool]:
    """The grid of one module with its checks: the bar oracle along q = 1
    and the cocycle model along p = 1; the two H_q^0 routes for q <= h0_top;
    with recheck, the grid from the reversed sweep."""
    grid = _grid(spec, algebra, v)
    # bar_row[p] is None where the bar budget skipped degree p
    bar_row = [bar_dimension_or_none(algebra.group, v, p, spec.budgets["bar_budget"])
               for p in range(spec.p_max + 1)]
    checks = {
        "q1_row_matches_brute_force":
            all(b is None or b == grid[0][p] for p, b in enumerate(bar_row)),
        # parse_problem ensures p_max >= 1
        "p1_column_matches_cocycle_model":
            _cocycle_matches(spec, algebra, v, [row[1] for row in grid]),
    }
    if h0_top:
        (checks["p0_column_matches_annihilator"],
         checks["annihilator_matches_inductive"]) = _h0_checks(spec, algebra, v, grid, h0_top)
    if recheck:
        checks["resolution_independence"] = _grid(spec, algebra, v, "reverse") == grid
    return {"grid": grid, "checks": checks, "bar_row": bar_row}, all(checks.values())


def _les_reports(spec: ProblemSpec, algebra, v, q_top: int) -> list:
    """The long exact sequences at q = 1..q_top, each kept with v."""
    return [long_exact_sequence(algebra, spec.sigma, v, q, spec.p_max)
            for q in range(1, q_top + 1)]


def _les_entries(reports: list) -> tuple[list, bool]:
    """The long exact sequences at q = 1.. with their node verdicts, and
    whether they are exact at every node."""
    entries = []
    for q, report in enumerate(reports, start=1):
        entry = {
            "q": q,
            "n_q": report.n_q,
            "terms": report.dims_table(),
            "exact": report.exact,
            "nodes": [{"p": d.p, **d.verdicts} for d in report.degrees],
        }
        if report.n_q == 0:
            # zero layer: the sequence degenerates to isomorphisms
            entry["degenerate_isomorphisms"] = report.exact and all(
                d.dim_lower == d.dim_upper for d in report.degrees)
        entries.append(entry)
    return entries, all(entry["exact"] for entry in entries)


# ---------------------------------------------------------------------------
# the verbs

def cmd_info(spec: ProblemSpec) -> tuple[dict, bool]:
    fragment = {
        "field": spec.field.name,
        "group_order": spec.group.order,
        "degree": spec.group.degree,
        "sigma_order": spec.sigma.order,
        "sigma_is_normal": True,  # construction rejects non-normal subgroups
        "modules": spec.module_names(),
    }
    return fragment, True


def cmd_ideals(spec: ProblemSpec, recheck: bool = False) -> tuple[dict, bool]:
    return _ideals(spec, spec.algebra(), recheck)


def _ideals(spec: ProblemSpec, algebra, recheck: bool) -> tuple[dict, bool]:
    """The filtration table of `ideals`, from an algebra whose cache may
    already hold the chain."""
    filt = filtration_for(algebra, spec.sigma)
    rows = []
    ok = True
    for q in range(1, spec.q_max + 1):
        row = {"q": q, "dim_j": filt.j(q).dim, "n": filt.n(q),
               "stabilized": q >= filt.stabilization_q}
        if recheck:
            checks = {"recheck_left_route": filt.j(q) == j_by_left_route(algebra, spec.sigma, q),
                      **_ideal_identities(spec, algebra, filt, q)}
            row.update(checks)
            ok = ok and all(checks.values())
        rows.append(row)
    fragment = {"rows": rows, "stabilization_q": filt.stabilization_q,
                "dim_augmentation_ideal": filt.augmentation.dim,
                "dim_sigma_ideal": filt.sigma_full.dim}
    return fragment, ok


def cmd_cohom(spec: ProblemSpec, module_name: str | None = None,
              recheck: bool = False) -> tuple[dict, bool]:
    out, ok = _per_module(spec, module_name, lambda algebra, v: _cohom_entry(
        spec, algebra, v, spec.q_max if recheck else 0, recheck))
    return {"modules": out, "q_max": spec.q_max, "p_max": spec.p_max}, ok


def cmd_h1(spec: ProblemSpec, module_name: str | None = None,
           recheck: bool = False) -> tuple[dict, bool]:
    qs = range(1, spec.q_max + 1)

    def entry(algebra, v):
        out = {"dims_by_q": [h_q1_cocycle(algebra, spec.sigma, v, q) for q in qs]}
        if recheck:
            out["recheck_ext"] = _cocycle_matches(spec, algebra, v, (
                higher_cohomology(algebra, spec.sigma, v, q, 1) for q in qs))
        return out, out.get("recheck_ext", True)

    out, ok = _per_module(spec, module_name, entry)
    return {"modules": out, "q_max": spec.q_max}, ok


def cmd_les(spec: ProblemSpec, module_name: str | None = None) -> tuple[dict, bool]:
    out, ok = _per_module(spec, module_name, lambda algebra, v: _les_entries(
        _les_reports(spec, algebra, v, spec.q_max)))
    return {"modules": out, "p_max": spec.p_max}, ok


def cmd_verify(spec: ProblemSpec, recheck: bool = False) -> tuple[dict, bool]:
    """The full verdict bundle for one problem.

    Runs: special-case ideal identities, per-module cohomology grids with
    both cross-oracles, degree-zero agreement, LES exactness, the
    coefficient-power identification, vanishing on a generated coinduced
    module, and the collapse law when the filtration stabilizes at q = 1.
    The ideal identities, the grid checks and the LES are those of
    `ideals --recheck`, `cohom` and `les-check`, read up to q = s + 1.
    The power identification compares the power term of those same
    sequences, the cone's H^{p+1} = Ext^p(J_q/J_{q+1}, V), with N(q) times
    the bar oracle's dim H^p(G, V), at every degree the bar budget decides.
    The vanishing check reads a spec module with the coinduced module's
    table when there is one, such as `regular` (base_dim 1 is the regular
    module in regular coordinates), so its bar ranks and grid are reused.

    Every per-q value is computed once per level, the least q' with
    J_q' = J_q, so the grid rows q >= s read level s.  The collapse verdict
    then rests on the equality J_q = J_s that `j_filtration` certifies; it
    was forced before that change as well, since the same deterministic
    code ran twice on equal inputs.
    """
    algebra = spec.algebra()
    filt = filtration_for(algebra, spec.sigma)
    verdicts = []

    def record(name: str, passed: bool, detail=None):
        entry = {"check": name, "pass": bool(passed)}
        if detail is not None:
            entry["detail"] = detail
        verdicts.append(entry)

    ideals_fragment, _ = _ideals(spec, algebra, recheck=False)
    stab = filt.stabilization_q
    q_top = min(spec.q_max, stab + 1)

    identities = [_ideal_identities(spec, algebra, filt, q) for q in range(1, stab + 2)]
    for key, name in IDENTITY_VERDICTS:
        if key in identities[0]:
            record(name, all(row[key] for row in identities))

    grids, modules = {}, {}
    for name in spec.module_names():
        v = modules[name] = spec.build_module(name)
        entry, _ = _cohom_entry(spec, algebra, v, q_top, recheck)
        checks, bar_row = entry["checks"], entry["bar_row"]
        grids[name] = entry["grid"]

        # the verdicts that read the bar row name the degrees its budget skipped
        skipped = [p for p, b in enumerate(bar_row) if b is None]
        skip_detail = {"bar_budget_skipped_p": skipped} if skipped else None
        record(f"cohom.{name}.q1_row_matches_brute_force",
               checks["q1_row_matches_brute_force"], detail=skip_detail)
        record(f"cohom.{name}.p1_column_matches_cocycle_model",
               checks["p1_column_matches_cocycle_model"])
        record(f"cohom.{name}.h0_annihilator_inductive_ext_agree",
               checks["p0_column_matches_annihilator"]
               and checks["annihilator_matches_inductive"])
        reports = _les_reports(spec, algebra, v, q_top)
        record(f"les.{name}.exact_at_all_nodes", _les_entries(reports)[1])

        pairs = (power_identification(report, p, b)
                 for report in reports for p, b in enumerate(bar_row) if b is not None)
        record(f"power.{name}.ext_of_layer_equals_n_times_classical",
               all(lhs == rhs for lhs, rhs in pairs), detail=skip_detail)

        if recheck:
            record(f"cohom.{name}.resolution_independence", checks["resolution_independence"])

    coinduced = coinduced_module(spec.group, spec.field, 1)
    # a spec module with the same permutation table already holds its bar ranks and grid
    coinduced = next((v for v in modules.values() if v.perm is not None
                      and np.array_equal(v.perm, coinduced.perm)), coinduced)
    vreport = vanishing_check(algebra, spec.sigma, coinduced,
                              min(spec.q_max, 3), spec.p_max,
                              budget=spec.budgets["bar_budget"])
    detail = {"acyclic_certified": vreport.acyclic_certified}
    if vreport.skipped:
        detail["bar_budget_skipped_p"] = list(vreport.skipped)
    record("vanishing.coinduced_module", vreport.ok, detail=detail)

    if stab == 1:
        constant = all(all(row == grid[0] for row in grid) for grid in grids.values())
        record("collapse.grid_constant_in_q", constant)

    ok = all(v["pass"] for v in verdicts)
    fragment = {
        "filtration": ideals_fragment,
        "grids": grids,
        "verdicts": verdicts,
        "all_pass": ok,
    }
    return fragment, ok


# ---------------------------------------------------------------------------
# built-in problems for `selftest`

SELFTEST_PROBLEMS = {
    "c2_f2": {
        "field": "F2",
        "group": {"generators": [[1, 0]]},
        "sigma": {"generator_indices": []},
        "modules": {
            "trivial": {"kind": "trivial", "dim": 1},
            "regular": {"kind": "regular"},
        },
        "budgets": {"q_max": 2, "p_max": 2},
    },
    "s3_a3_f2": {
        "field": "F2",
        "group": {"generators": [[1, 2, 0], [1, 0, 2]]},
        "sigma": {"generator_indices": [0]},
        "modules": {
            "trivial": {"kind": "trivial", "dim": 1},
            "regular": {"kind": "regular"},
        },
        "budgets": {"q_max": 2, "p_max": 2},
    },
}


def cmd_selftest() -> tuple[dict, bool]:
    results = {}
    for name, doc in sorted(SELFTEST_PROBLEMS.items()):
        fragment, passed = cmd_verify(parse_problem(doc))
        results[name] = {"all_pass": passed, "verdicts": fragment["verdicts"]}
    return {"problems": results}, all(entry["all_pass"] for entry in results.values())


# ---------------------------------------------------------------------------
# rendering and entry point

def render_text(report: dict) -> str:
    lines = []
    spec = report.get("spec", {})
    if spec:
        lines.append(f"problem: field {spec.get('field')}, "
                     f"budgets {spec.get('budgets')}")
    info = report.get("info")
    if info:
        lines.append(f"group order {info['group_order']}, degree {info['degree']}, "
                     f"sigma order {info['sigma_order']}")
    filt = report.get("filtration") or (report.get("verify") or {}).get("filtration")
    if filt:
        lines.append(f"filtration (stabilizes at q={filt['stabilization_q']}):")
        lines.append("  q   dim J_q   N(q)")
        for row in filt["rows"]:
            lines.append(f"  {row['q']:<3} {row['dim_j']:<9} {row['n']}")
    cohom = report.get("cohomology")
    if cohom:
        for name, entry in sorted(cohom["modules"].items()):
            lines.append(f"H_q^p grid for module {name!r} (rows q=1.., cols p=0..):")
            for q, row in enumerate(entry["grid"], start=1):
                lines.append("  q=%d: %s" % (q, "  ".join(str(d) for d in row)))
            for check, value in sorted(entry["checks"].items()):
                lines.append(f"  [{'PASS' if value else 'FAIL'}] {check}")
    h1 = report.get("h1")
    if h1:
        for name, entry in sorted(h1["modules"].items()):
            dims = entry["dims_by_q"]
            lines.append(f"cocycle H_q^1 for module {name!r}: " +
                         "  ".join(f"q={q}:{d}" for q, d in enumerate(dims, start=1)))
    les = report.get("les")
    if les:
        for name, entries in sorted(les["modules"].items()):
            for item in entries:
                lines.append(f"LES module {name!r} q={item['q']} "
                             f"(N={item['n_q']}): "
                             f"{'exact' if item['exact'] else 'NOT EXACT'}")
    verify = report.get("verify")
    if verify:
        for v in verify["verdicts"]:
            lines.append(f"  [{'PASS' if v['pass'] else 'FAIL'}] {v['check']}")
        lines.append(f"overall: {'all-pass' if verify['all_pass'] else 'FAILURES'}")
    selftest = report.get("selftest")
    if selftest:
        for name, entry in sorted(selftest["problems"].items()):
            lines.append(f"selftest {name}: "
                         f"{'all-pass' if entry['all_pass'] else 'FAILURES'}")
            for v in entry["verdicts"]:
                lines.append(f"  [{'PASS' if v['pass'] else 'FAIL'}] {v['check']}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> None:
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    sys.stdout.write(render_text(report) if args.text else payload)


class Verb(NamedTuple):
    key: str               # the report key of the verb's fragment
    command: str           # the cmd_* function, looked up when the verb runs
    spec: bool = True      # takes --spec, --q-max and --p-max
    module: bool = False   # takes --module
    recheck: bool = False  # takes --recheck


VERBS = {
    "info": Verb("info", "cmd_info"),
    "ideals": Verb("filtration", "cmd_ideals", recheck=True),
    "cohom": Verb("cohomology", "cmd_cohom", module=True, recheck=True),
    "h1": Verb("h1", "cmd_h1", module=True, recheck=True),
    "les-check": Verb("les", "cmd_les", module=True),
    "verify": Verb("verify", "cmd_verify", recheck=True),
    "selftest": Verb("selftest", "cmd_selftest", spec=False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hocohom",
        description="Exact higher-order group cohomology of finite groups")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in VERBS.items():
        p = sub.add_parser(name)
        if verb.spec:
            p.add_argument("--spec", required=True, help="path to a JSON problem file")
            p.add_argument("--q-max", type=int, default=None, help="override budgets.q_max")
            p.add_argument("--p-max", type=int, default=None, help="override budgets.p_max")
        if verb.recheck:
            p.add_argument("--recheck", action="store_true",
                           help="route every claim through its alternate oracle")
        p.add_argument("--out", default=None, help="also write the JSON report here")
        p.add_argument("--text", action="store_true",
                       help="render plain-text tables instead of JSON on stdout")
        if verb.module:
            p.add_argument("--module", default=None, help="restrict to one named module")
    return parser


def _load(args) -> ProblemSpec:
    spec = load_problem(args.spec)
    overrides = {key: value for key, value in (("q_max", args.q_max), ("p_max", args.p_max))
                 if value is not None}
    if overrides:
        spec = parse_problem({**spec.echo, "budgets": {**spec.budgets, **overrides}})
    return spec


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    verb = VERBS[args.verb]
    started = time.monotonic()
    report = {"tool": {"name": "hocohom", "version": __version__}}
    params = {}
    try:
        if verb.spec:
            params["spec"] = _load(args)
            report["spec"] = params["spec"].echo
        if verb.module:
            params["module_name"] = args.module
        if verb.recheck:
            params["recheck"] = args.recheck
        report[verb.key], ok = globals()[verb.command](**params)
    except CertificateError as err:
        sys.stderr.write(f"certificate failed: {err}\n")
        return EXIT_VERIFICATION_FAILED
    except (SpecError, NotNormalError, BudgetExceeded) as err:
        sys.stderr.write(f"input error: {err}\n")
        return EXIT_INPUT_ERROR
    except (AlgebraError, LinalgError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT_ERROR
    report["timing"] = {"elapsed_seconds": round(time.monotonic() - started, 6)}
    _emit(report, args)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
