"""Problem specifications: the JSON input format of the batch interface.

One JSON document describes one problem: the coefficient field, the group
by permutation generators, the normal subgroup, a dictionary of named
modules, and computation budgets.  Matrices arrive as row-major arrays of
strings (or ints) parsed as exact rationals or residues, so no value ever
passes through floating point.  Parse failures carry the JSON path of the
offending value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .algebra import GroupAlgebra
from .groups import (
    FiniteGroup, NormalSubgroup, Permutation, GroupError, NotNormalError,
    close_generators, subgroup_closure,
)
from .linalg import Field, LinalgError, Matrix
from .modules import (
    GammaModule, NotARepresentationError,
    coinduced_module, make_module, regular_module, trivial_module,
)


class SpecError(ValueError):
    """An invalid problem specification, located by a JSON path."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


DEFAULT_BUDGETS = {"q_max": 2, "p_max": 2, "order_cap": 24, "bar_budget": 20000}


@dataclass(frozen=True)
class ProblemSpec:
    field: Field
    group: FiniteGroup
    sigma: NormalSubgroup
    module_specs: dict
    budgets: dict
    echo: dict  # normalized copy of the raw input, reproduced in reports

    @property
    def q_max(self) -> int:
        return self.budgets["q_max"]

    @property
    def p_max(self) -> int:
        return self.budgets["p_max"]

    def algebra(self) -> GroupAlgebra:
        return GroupAlgebra(self.group, self.field)

    def build_module(self, name: str) -> GammaModule:
        if name not in self.module_specs:
            raise SpecError(f"unknown module {name!r}", "modules")
        return _build_module(self, name, self.module_specs[name])

    def module_names(self) -> list[str]:
        return sorted(self.module_specs)


def _expect(cond, message, location):
    if not cond:
        raise SpecError(message, location)


def _is_int(x) -> bool:
    """A JSON integer: Python reads true and false as ints, JSON does not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_permutation(raw, location) -> Permutation:
    _expect(isinstance(raw, list) and all(_is_int(x) for x in raw),
            "a permutation is a list of integers (0-based images)", location)
    try:
        return Permutation(raw)
    except GroupError as err:
        raise SpecError(str(err), location) from err


def parse_problem(doc: dict) -> ProblemSpec:
    """Validate and build a ProblemSpec from a parsed JSON document."""
    _expect(isinstance(doc, dict), "top level must be a JSON object", "")
    unknown = set(doc) - {"field", "group", "sigma", "modules", "budgets"}
    _expect(not unknown, f"unknown keys {sorted(unknown)}", "")

    raw_field = doc.get("field")
    _expect(isinstance(raw_field, str), 'field must be a string ("Q" or "F<p>")', "field")
    try:
        fld = Field.from_name(raw_field)
    except LinalgError as err:
        raise SpecError(str(err), "field") from err

    raw_group = doc.get("group")
    _expect(isinstance(raw_group, dict), "group must be an object", "group")
    raw_gens = raw_group.get("generators")
    _expect(isinstance(raw_gens, list), "group.generators must be a list", "group.generators")
    gens = [_parse_permutation(g, f"group.generators[{i}]") for i, g in enumerate(raw_gens)]

    budgets = dict(DEFAULT_BUDGETS)
    raw_budgets = doc.get("budgets", {})
    _expect(isinstance(raw_budgets, dict), "budgets must be an object", "budgets")
    for key, value in raw_budgets.items():
        _expect(key in DEFAULT_BUDGETS, f"unknown budget {key!r}", "budgets")
        _expect(_is_int(value) and value >= 1, "budgets are positive integers",
                f"budgets.{key}")
        budgets[key] = value

    try:
        group = close_generators(gens, order_cap=budgets["order_cap"])
    except GroupError as err:
        raise SpecError(str(err), "group.generators") from err

    sigma = _parse_sigma(doc.get("sigma", {}), group, gens)

    raw_modules = doc.get("modules", {})
    _expect(isinstance(raw_modules, dict) and raw_modules,
            "modules must be a non-empty object", "modules")
    module_specs = {}
    for name, raw in sorted(raw_modules.items()):
        module_specs[name] = _validate_module_spec(raw, f"modules.{name}")

    echo = {
        "field": fld.name,
        "group": {"generators": [list(g.images) for g in gens]},
        "sigma": _echo_sigma(doc.get("sigma", {})),
        "modules": module_specs,
        "budgets": budgets,
    }
    return ProblemSpec(fld, group, sigma, module_specs, budgets, echo)


def _parse_sigma(raw, group: FiniteGroup, gens, location="sigma") -> NormalSubgroup:
    _expect(isinstance(raw, dict), "sigma must be an object", location)
    unknown = set(raw) - {"generator_indices", "permutations"}
    _expect(not unknown, f"unknown keys {sorted(unknown)}", location)
    _expect(not ("generator_indices" in raw and "permutations" in raw),
            "give either generator_indices or permutations, not both", location)
    indices: list[int] = []
    if "generator_indices" in raw:
        raw_idx = raw["generator_indices"]
        _expect(isinstance(raw_idx, list) and all(_is_int(i) for i in raw_idx),
                "generator_indices must be a list of integers", f"{location}.generator_indices")
        for i in raw_idx:
            _expect(0 <= i < len(gens), f"generator index {i} out of range",
                    f"{location}.generator_indices")
            indices.append(group.index_of(gens[i]))
    elif "permutations" in raw:
        _expect(isinstance(raw["permutations"], list), "permutations must be a list",
                f"{location}.permutations")
        for i, p in enumerate(raw["permutations"]):
            perm = _parse_permutation(p, f"{location}.permutations[{i}]")
            try:
                indices.append(group.index_of(perm))
            except KeyError:
                raise SpecError("permutation is not an element of the group",
                                f"{location}.permutations[{i}]")
    try:
        return subgroup_closure(group, indices)
    except NotNormalError as err:
        raise SpecError(
            f"subgroup is not normal; witness pair (gamma={err.gamma_index}, "
            f"sigma={err.sigma_index}) conjugates outside", location) from err


def _echo_sigma(raw) -> dict:
    if not raw:
        return {"generator_indices": []}
    return {k: raw[k] for k in sorted(raw)}


_MODULE_KINDS = {"trivial", "regular", "coinduced", "explicit"}


def _validate_module_spec(raw, location) -> dict:
    _expect(isinstance(raw, dict), "a module spec is an object", location)
    kind = raw.get("kind")
    _expect(kind in _MODULE_KINDS, f"kind must be one of {sorted(_MODULE_KINDS)}",
            f"{location}.kind")
    known = {"kind"}
    if kind == "trivial":
        known.add("dim")
        dim = raw.get("dim", 1)
        _expect(_is_int(dim) and dim >= 0, "dim must be a non-negative integer",
                f"{location}.dim")
    elif kind == "coinduced":
        known.add("base_dim")
        base = raw.get("base_dim", 1)
        _expect(_is_int(base) and base >= 1, "base_dim must be a positive integer",
                f"{location}.base_dim")
    elif kind == "explicit":
        known.add("generator_matrices")
        mats = raw.get("generator_matrices")
        _expect(isinstance(mats, list), "generator_matrices must be a list of matrices",
                f"{location}.generator_matrices")
        for i, m in enumerate(mats):
            _expect(isinstance(m, list) and m and all(isinstance(r, list) for r in m),
                    "a matrix is a non-empty list of rows",
                    f"{location}.generator_matrices[{i}]")
            width = len(m[0])
            for j, row in enumerate(m):
                _expect(len(row) == width, "ragged matrix",
                        f"{location}.generator_matrices[{i}][{j}]")
                for k, x in enumerate(row):
                    _check_entry(x, f"{location}.generator_matrices[{i}][{j}][{k}]")
    unknown = set(raw) - known
    _expect(not unknown, f"unknown keys {sorted(unknown)}", location)
    return {k: raw[k] for k in sorted(raw)}


def _check_entry(x, location):
    """A matrix entry is an integer or a string that names an exact rational."""
    _expect(isinstance(x, str) or _is_int(x), "entries are strings or integers", location)
    if isinstance(x, str):
        try:
            Fraction(x)
        except ZeroDivisionError:
            raise SpecError(f"{x!r} has a zero denominator", location) from None
        except ValueError:
            raise SpecError(f"{x!r} is not an exact rational", location) from None


def _build_module(spec: ProblemSpec, name: str, raw: dict) -> GammaModule:
    kind = raw["kind"]
    location = f"modules.{name}"
    if kind == "trivial":
        return trivial_module(spec.group, spec.field, raw.get("dim", 1))
    if kind == "regular":
        return regular_module(spec.group, spec.field)
    if kind == "coinduced":
        return coinduced_module(spec.group, spec.field, raw.get("base_dim", 1))
    mats = []
    for i, m in enumerate(raw["generator_matrices"]):
        try:
            mats.append(Matrix(spec.field, m))
        except (LinalgError, ValueError) as err:
            raise SpecError(str(err), f"{location}.generator_matrices[{i}]") from err
    try:
        return make_module(spec.group, spec.field, mats)
    except NotARepresentationError as err:
        raise SpecError(f"not a representation: witness pair {err.witness}",
                        f"{location}.generator_matrices") from err
    except ValueError as err:
        raise SpecError(str(err), f"{location}.generator_matrices") from err


def load_problem(path: str) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as err:
        raise SpecError(f"cannot read spec file: {err}", path) from err
    except json.JSONDecodeError as err:
        raise SpecError(f"invalid JSON: {err}", path) from err
    return parse_problem(doc)
