"""Batch command-line interface.

One verb per surface: `info` (group and subgroup validation), `ideals`
(the filtration table), `cohom` (the H_q^p grid with mandatory
cross-oracles), `h1` (the cocycle model), `les-check` (long-exact-sequence
exactness), `verify` (the full verdict bundle), and `selftest` (built-in
problems).  Input is a JSON problem file; output is a deterministic JSON
report (timing is segregated under its own key so reports are diffable),
with an optional plain-text table rendering.

Exit codes: 0 all verdicts pass, 1 verification failure, 2 input error
(including algebra and linear-algebra errors, reported with their message).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .algebra import (
    AlgebraError, augmentation_ideal, i_power_by_products, j_by_left_route,
)
from .cocycle import h_q1_cocycle
from .groups import NotNormalError
from .les import long_exact_sequence, power_identification, vanishing_check
from .linalg import LinalgError
from .modules import coinduced_module, h_q0_annihilator, h_q0_inductive
from .problem import ProblemSpec, SpecError, load_problem
from .resolution import (
    BudgetExceeded, bar_dimension, filtration_for, higher_cohomology,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2


def _skeleton(spec: ProblemSpec) -> dict:
    return {
        "tool": {"name": "hocohom", "version": __version__},
        "spec": spec.echo,
    }


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
    algebra = spec.algebra()
    filt = filtration_for(algebra, spec.sigma, spec.q_max)
    rows = []
    ok = True
    for q in range(1, spec.q_max + 1):
        row = {"q": q, "dim_j": filt.j(q).dim, "n": filt.n(q),
               "stabilized": q >= filt.stabilization_q}
        if recheck:
            row["recheck_left_route"] = filt.j(q) == j_by_left_route(
                algebra, spec.sigma, q)
            ok = ok and row["recheck_left_route"]
            if spec.sigma.is_trivial:
                row["recheck_i_power"] = filt.j(q) == i_power_by_products(algebra, q)
                ok = ok and row["recheck_i_power"]
            if spec.sigma.is_full:
                row["recheck_constant"] = filt.j(q) == filt.augmentation
                ok = ok and row["recheck_constant"]
        rows.append(row)
    fragment = {"rows": rows, "stabilization_q": filt.stabilization_q,
                "dim_augmentation_ideal": filt.augmentation.dim,
                "dim_sigma_ideal": filt.sigma_full.dim}
    return fragment, ok


def _grid(spec: ProblemSpec, algebra, filt, v) -> list[list[int]]:
    return [[higher_cohomology(algebra, spec.sigma, v, q, p, filt).dim
             for p in range(spec.p_max + 1)]
            for q in range(1, spec.q_max + 1)]


def cmd_cohom(spec: ProblemSpec, module_name: str | None = None,
              recheck: bool = False) -> tuple[dict, bool]:
    algebra = spec.algebra()
    filt = filtration_for(algebra, spec.sigma, spec.q_max)
    names = [module_name] if module_name else spec.module_names()
    out = {}
    ok = True
    for name in names:
        v = spec.build_module(name)
        grid = _grid(spec, algebra, filt, v)
        checks = {}
        # ordinary-cohomology recovery along the q = 1 row
        bar_row = []
        for p in range(spec.p_max + 1):
            try:
                bar_row.append(bar_dimension(algebra.group, v, p,
                                             spec.budgets["bar_budget"]))
            except BudgetExceeded:
                bar_row.append(None)
        checks["q1_row_matches_brute_force"] = all(
            b is None or b == grid[0][p] for p, b in enumerate(bar_row))
        # cocycle model along the p = 1 column
        if spec.p_max >= 1:
            cocycle_col = [h_q1_cocycle(algebra, spec.sigma, v, q, filt)
                           for q in range(1, spec.q_max + 1)]
            checks["p1_column_matches_cocycle_model"] = all(
                c == grid[q - 1][1] for q, c in enumerate(cocycle_col, start=1))
        if recheck:
            ann = [h_q0_annihilator(v, filt, q).dim for q in range(1, spec.q_max + 1)]
            ind = [h_q0_inductive(v, spec.sigma, q).dim for q in range(1, spec.q_max + 1)]
            checks["p0_column_matches_annihilator"] = all(
                a == grid[q - 1][0] for q, a in enumerate(ann, start=1))
            checks["annihilator_matches_inductive"] = ann == ind
            reverse = [[higher_cohomology(algebra, spec.sigma, v, q, p, filt,
                                          order="reverse").dim
                        for p in range(spec.p_max + 1)]
                       for q in range(1, spec.q_max + 1)]
            checks["resolution_independence"] = reverse == grid
        ok = ok and all(checks.values())
        # bar_row[p] is None where the bar budget skipped degree p
        out[name] = {"grid": grid, "checks": checks, "bar_row": bar_row}
    return {"modules": out, "q_max": spec.q_max, "p_max": spec.p_max}, ok


def cmd_h1(spec: ProblemSpec, module_name: str | None = None,
           recheck: bool = False) -> tuple[dict, bool]:
    algebra = spec.algebra()
    filt = filtration_for(algebra, spec.sigma, spec.q_max)
    names = [module_name] if module_name else spec.module_names()
    out = {}
    ok = True
    for name in names:
        v = spec.build_module(name)
        dims = [h_q1_cocycle(algebra, spec.sigma, v, q, filt)
                for q in range(1, spec.q_max + 1)]
        entry = {"dims_by_q": dims}
        if recheck:
            ext_dims = [higher_cohomology(algebra, spec.sigma, v, q, 1, filt).dim
                        for q in range(1, spec.q_max + 1)]
            entry["recheck_ext"] = ext_dims == dims
            ok = ok and entry["recheck_ext"]
        out[name] = entry
    return {"modules": out, "q_max": spec.q_max}, ok


def cmd_les(spec: ProblemSpec, module_name: str | None = None) -> tuple[dict, bool]:
    algebra = spec.algebra()
    filt = filtration_for(algebra, spec.sigma, spec.q_max)
    names = [module_name] if module_name else spec.module_names()
    out = {}
    ok = True
    for name in names:
        v = spec.build_module(name)
        per_q = []
        for q in range(1, spec.q_max + 1):
            report = long_exact_sequence(algebra, spec.sigma, v, q, spec.p_max, filt)
            entry = {
                "q": q,
                "n_q": report.n_q,
                "terms": report.dims_table(),
                "exact": report.exact,
                "nodes": [{**{"p": d.p}, **d.verdicts} for d in report.degrees],
            }
            if report.n_q == 0:
                # zero layer: the sequence degenerates to isomorphisms
                entry["degenerate_isomorphisms"] = report.exact and all(
                    d.dim_lower == d.dim_upper for d in report.degrees)
            per_q.append(entry)
            ok = ok and report.exact
        out[name] = per_q
    return {"modules": out, "p_max": spec.p_max}, ok


def cmd_verify(spec: ProblemSpec, recheck: bool = False) -> tuple[dict, bool]:
    """The full verdict bundle for one problem.

    Runs: special-case ideal identities, per-module cohomology grids with
    both cross-oracles, degree-zero agreement, LES exactness, the
    coefficient-power identification, vanishing on a generated coinduced
    module, and the collapse law when the filtration stabilizes at q = 1.
    """
    algebra = spec.algebra()
    filt = filtration_for(algebra, spec.sigma, spec.q_max)
    verdicts = []

    def record(name: str, passed: bool, detail=None):
        entry = {"check": name, "pass": bool(passed)}
        if detail is not None:
            entry["detail"] = detail
        verdicts.append(entry)

    ideals_fragment, _ = cmd_ideals(spec, recheck=False)
    stab = filt.stabilization_q
    q_top = min(spec.q_max, stab + 1)

    if spec.sigma.is_trivial:
        agree = all(filt.j(q) == i_power_by_products(algebra, q)
                    for q in range(1, stab + 2))
        record("ideals.sigma_trivial_j_equals_i_power", agree)
    if spec.sigma.is_full:
        aug = augmentation_ideal(algebra)
        agree = all(filt.j(q) == aug for q in range(1, stab + 2))
        record("ideals.sigma_full_j_constant_at_augmentation", agree)

    grids = {}
    for name in spec.module_names():
        v = spec.build_module(name)
        grid = _grid(spec, algebra, filt, v)
        grids[name] = grid

        bar_dims = {}
        bar_ok = True
        for p in range(spec.p_max + 1):
            try:
                bar_dims[p] = bar_dimension(algebra.group, v, p, spec.budgets["bar_budget"])
            except BudgetExceeded:
                continue
            if bar_dims[p] != grid[0][p]:
                bar_ok = False
        record(f"cohom.{name}.q1_row_matches_brute_force", bar_ok)

        if spec.p_max >= 1:
            cocycle_ok = all(
                h_q1_cocycle(algebra, spec.sigma, v, q, filt) == grid[q - 1][1]
                for q in range(1, spec.q_max + 1))
            record(f"cohom.{name}.p1_column_matches_cocycle_model", cocycle_ok)

        h0_ok = True
        for q in range(1, q_top + 1):
            ann = h_q0_annihilator(v, filt, q)
            if ann != h_q0_inductive(v, spec.sigma, q):
                h0_ok = False
            if ann.dim != grid[q - 1][0]:
                h0_ok = False
        record(f"cohom.{name}.h0_annihilator_inductive_ext_agree", h0_ok)

        les_ok = True
        for q in range(1, q_top + 1):
            report = long_exact_sequence(algebra, spec.sigma, v, q, spec.p_max, filt)
            les_ok = les_ok and report.exact
        record(f"les.{name}.exact_at_all_nodes", les_ok)

        power_ok = True
        for q in range(1, q_top + 1):
            for p in range(spec.p_max + 1):
                if p not in bar_dims:
                    continue
                lhs, rhs = power_identification(algebra, spec.sigma, v, q, p, filt,
                                                classical_dim=bar_dims[p])
                if lhs != rhs:
                    power_ok = False
        record(f"power.{name}.ext_of_layer_equals_n_times_classical", power_ok)

        if recheck:
            reverse = [[higher_cohomology(algebra, spec.sigma, v, q, p, filt,
                                          order="reverse").dim
                        for p in range(spec.p_max + 1)]
                       for q in range(1, spec.q_max + 1)]
            record(f"cohom.{name}.resolution_independence", reverse == grid)

    coinduced = coinduced_module(spec.group, spec.field, 1)
    vreport = vanishing_check(algebra, spec.sigma, coinduced,
                              min(spec.q_max, 3), spec.p_max, filt)
    record("vanishing.coinduced_module", vreport.ok,
           detail={"acyclic_certified": vreport.acyclic_certified})

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
    from .problem import parse_problem
    results = {}
    ok = True
    for name, doc in sorted(SELFTEST_PROBLEMS.items()):
        spec = parse_problem(doc)
        fragment, passed = cmd_verify(spec)
        results[name] = {"all_pass": passed,
                         "verdicts": fragment["verdicts"]}
        ok = ok and passed
    return {"problems": results}, ok


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
    if getattr(args, "text", False):
        sys.stdout.write(render_text(report))
    else:
        sys.stdout.write(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hocohom",
        description="Exact higher-order group cohomology of finite groups")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, needs_spec=True):
        if needs_spec:
            p.add_argument("--spec", required=True, help="path to a JSON problem file")
            p.add_argument("--q-max", type=int, default=None, help="override budgets.q_max")
            p.add_argument("--p-max", type=int, default=None, help="override budgets.p_max")
            p.add_argument("--recheck", action="store_true",
                           help="route every claim through its alternate oracle")
        p.add_argument("--out", default=None, help="also write the JSON report here")
        p.add_argument("--text", action="store_true",
                       help="render plain-text tables instead of JSON on stdout")

    for verb in ("info", "ideals", "cohom", "h1", "les-check", "verify"):
        p = sub.add_parser(verb)
        add_common(p)
        if verb in ("cohom", "h1", "les-check"):
            p.add_argument("--module", default=None, help="restrict to one named module")
    add_common(sub.add_parser("selftest"), needs_spec=False)
    return parser


def _load(args) -> ProblemSpec:
    spec = load_problem(args.spec)
    overrides = {}
    if args.q_max is not None:
        overrides["q_max"] = args.q_max
    if args.p_max is not None:
        overrides["p_max"] = args.p_max
    if overrides:
        doc = {k: v for k, v in spec.echo.items()}
        doc["budgets"] = {**spec.budgets, **overrides}
        from .problem import parse_problem
        spec = parse_problem(doc)
    return spec


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        if args.verb == "selftest":
            fragment, ok = cmd_selftest()
            report = {"tool": {"name": "hocohom", "version": __version__},
                      "selftest": fragment}
        else:
            spec = _load(args)
            report = _skeleton(spec)
            if args.verb == "info":
                fragment, ok = cmd_info(spec)
                report["info"] = fragment
            elif args.verb == "ideals":
                fragment, ok = cmd_ideals(spec, args.recheck)
                report["filtration"] = fragment
            elif args.verb == "cohom":
                fragment, ok = cmd_cohom(spec, args.module, args.recheck)
                report["cohomology"] = fragment
            elif args.verb == "h1":
                fragment, ok = cmd_h1(spec, args.module, args.recheck)
                report["h1"] = fragment
            elif args.verb == "les-check":
                fragment, ok = cmd_les(spec, args.module)
                report["les"] = fragment
            elif args.verb == "verify":
                fragment, ok = cmd_verify(spec, args.recheck)
                report["verify"] = fragment
            else:  # pragma: no cover
                raise SpecError(f"unknown verb {args.verb}")
    except SpecError as err:
        sys.stderr.write(f"input error: {err}\n")
        return EXIT_INPUT_ERROR
    except NotNormalError as err:
        sys.stderr.write(f"input error: {err}\n")
        return EXIT_INPUT_ERROR
    except BudgetExceeded as err:
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
