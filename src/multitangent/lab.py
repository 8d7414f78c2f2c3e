"""Research workbench: weight-graded relation kernels between multitangents,
projection of zeta values onto multitangent combinations, unit cleansing,
rank matrices, dimension reports and table generation.

Everything in this module runs in two stages: an exact stage (reductions,
basis substitution, rational linear algebra with no floating point) and a
mandatory numeric recheck stage that re-evaluates every produced identity at
sample points off the real axis.  A failed recheck raises instead of
returning a silently wrong result.

The exact stage does no work twice.  A slot vector is folded from the
fragments of the reduction, never from its expanded coefficients: each
fragment's vector over the zeta basis, and the vector of each product of two
basis monomials (stuffle linearization, then table substitution), is kept in
a bounded cache.  Projections and cleansings at one weight solve against the
same system; each weight's system is built and factored once, in a bounded
cache, and every right-hand side costs one sparse integer product.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from . import mzv
from .basis_table import MzvBasisTable
from .errors import CoverageError, NumericRecheckError, ProjectionUnavailableError
from .exact import CoeffExpr, MzvMonomial, _expression, _numerators
from .linalg import Factorization, factor, nullspace, rank
from .mzv import DEFAULT_CONTEXT, NumericContext
from .numerics import _checked, _direct, _monotangent_at, _reduced
from .reduction import _fold, _fold_sum, _monomials, _order_terms, delta, reduce
from .zetasum import certified_sum, certify
from .verify import sample_points
from .words import (
    Composition,
    LinearCombination,
    _accumulate,
    enumerate_compositions,
    is_multitangent_convergent,
)


class MtCombo(LinearCombination):
    """Rational formal combination of multitangent symbols.

    A LinearCombination keyed by Composition; adds numeric evaluation and
    the common weight.
    """

    __slots__ = ()
    _order = staticmethod(Composition.sort_key)
    _zero = Fraction(0)
    _scalars = (int, Fraction)
    _coef = staticmethod(Fraction)

    def weight(self) -> int | None:
        """Common weight of the terms, or None if mixed or empty."""
        weights = {c.weight for c in self._terms}
        return weights.pop() if len(weights) == 1 else None

    def evaluate(self, z, ctx: NumericContext = DEFAULT_CONTEXT):
        """The sum of the terms at z, read once through ``numerics._checked``,
        coefficients exact, each term's multitangent a ``numerics._direct``
        entry, at the context's precision."""
        with ctx.workprec():
            z = _checked(z, ctx.pole_guard)
            return certified_sum([[(c, 0.0), _direct(s, z, ctx)] for s, c in self.items()]).value

    def _term_str(self, comp: Composition, coef: Fraction) -> str:
        prefix = "" if coef == 1 else ("-" if coef == -1 else f"{coef}·")
        return f"{prefix}Te[{comp}]"


def differentiate_combo(combo: MtCombo) -> MtCombo:
    """d/dz of a combination: Te[s] maps to -sum_i s_i Te[s + e_i]."""
    return MtCombo._sum(
        (comp.bump(i), -coef * part)
        for comp, coef in combo.items()
        for i, part in enumerate(comp)
    )


Slot = tuple[int, MzvMonomial]


@lru_cache(maxsize=4096)
def _basis_product(pair: tuple[MzvMonomial, MzvMonomial]) -> tuple:
    """The product of two zeta monomials over the basis and one denominator,
    linearized, then substituted through the table: Ze[2]^2 is 5/2 Ze[4]."""
    expr = mzv.linearize(CoeffExpr({pair[0] * pair[1]: 1}))
    return _numerators(MzvBasisTable.shared().substitute(expr))


@lru_cache(maxsize=2048)
def _fragment_vector(parts: tuple[int, ...], a: int) -> tuple:
    """[X^a] Ze[parts](X) over the basis and one denominator: its product
    with the empty fragment, folded."""
    return _fold_sum([(1, parts, a, (), 0)], _monomials, _basis_product)


@lru_cache(maxsize=4096)
def _slot_vector_cached(comp: Composition) -> tuple[tuple[Slot, Fraction], ...]:
    if delta(comp) or not comp:
        raise ValueError(f"Te[{comp}] reduces with a constant term")
    entries: dict[Slot, Fraction] = {}
    for k, terms in _order_terms(comp).items():
        vec = _fold(terms, _fragment_vector, _basis_product)
        if k == 1 and vec:
            raise NumericRecheckError(
                f"Te^1 coefficient of {comp} fails exact cancellation"
            )
        entries.update(((k, mono), c) for mono, c in vec.items())
    return tuple(entries.items())


def slot_vector(comp: Composition) -> dict[Slot, Fraction]:
    """Reduction of Te[comp] as a vector over (monotangent order, basis
    monomial) slots, with the Te^1 block checked to cancel exactly."""
    return dict(_slot_vector_cached(comp))


def _system(rows: list[Composition]) -> tuple[dict[Slot, int], list[dict[int, Fraction]]]:
    """The slots, each mapped to its row index, and the slots-by-rows
    system of sparse rows whose column j is the slot vector of rows[j]."""
    vectors = [slot_vector(s) for s in rows]
    order = sorted(
        {slot for vec in vectors for slot in vec},
        key=lambda sl: (sl[0], sl[1].sort_key()),
    )
    slots = {slot: i for i, slot in enumerate(order)}
    system: list[dict[int, Fraction]] = [{} for _ in order]
    for j, vec in enumerate(vectors):
        for slot, c in vec.items():
            system[slots[slot]][j] = c
    return slots, system


def _require_coverage(weight: int) -> None:
    table = MzvBasisTable.shared()
    if weight > table.max_weight + 1:
        raise CoverageError(
            f"weight {weight} needs table entries up to {weight - 1}, "
            f"the derived table stops at {table.max_weight}",
            weight=weight,
        )


def _recheck(what: str, lhs, combo: MtCombo, ctx: NumericContext) -> None:
    """Require lhs(z) == combo(z) at the sample points, each read once through
    ``numerics._checked``: ``lhs(z)``, terms of entries, is certified within
    the context target, or refused, and 0 must lie within the certified sum
    at ``ctx`` of it and -combo(z), each term a ``numerics._direct`` entry."""
    with ctx.workprec():
        for z in sample_points(2):
            point = _checked(z, ctx.pole_guard)
            rhs = [[(-c, 0.0), _direct(s, point, ctx)] for s, c in combo.items()]
            diff = certified_sum([[certify(lhs(point), ctx.target_abs_error)], *rhs])
            if not diff.contains_zero():
                raise NumericRecheckError(
                    f"{what} fails recheck at {z}: |diff| = {float(abs(diff.value)):.3e} "
                    f"> certified bound {diff[1]:.3e}"
                )


def relation_kernel(
    p: int, ctx: NumericContext = DEFAULT_CONTEXT, recheck: bool = True
) -> list[MtCombo]:
    """Exact basis of the rational relations between the convergent
    multitangents of weight p, numerically re-verified at two sample points.
    """
    if p < 4:
        raise ValueError("relation kernels start at weight 4")
    _require_coverage(p)
    rows = enumerate_compositions(p, "convergent")
    combos = [MtCombo._make({rows[j]: c for j, c in vec.items()})
              for vec in nullspace(_system(rows)[1], len(rows))]
    if recheck:
        for combo in combos:
            _recheck(f"kernel relation {combo}", lambda z: [], combo, ctx)
    return combos


def kernel_contains(p: int, combo: MtCombo) -> bool:
    """Membership of a combination in the weight-p relation kernel, over Q:
    whether the slot vectors of its terms cancel.

    Every term must be a convergent multitangent of weight p (first and last
    part >= 2); any other term raises ValueError naming it.
    """
    if p < 4:
        raise ValueError("relation kernels start at weight 4")
    _require_coverage(p)
    stray = [
        s
        for s, _ in combo.items()
        if s.weight != p or not is_multitangent_convergent(s)
    ]
    if stray:
        raise ValueError(
            f"terms outside the weight-{p} convergent multitangents: "
            + ", ".join(f"Te[{s}]" for s in stray)
        )
    return not _accumulate(
        (slot, coef * value)
        for s, coef in combo.items()
        for slot, value in slot_vector(s).items()
    )


@lru_cache(maxsize=32)
def _factored_system(w: int) -> tuple[list[Composition], dict[Slot, int], Factorization]:
    """The rows, the multitangents of weight w with every part >= 2, and the
    slot index and factorization of their system."""
    rows = enumerate_compositions(w, "val2")
    slots, system = _system(rows)
    return rows, slots, factor(system, len(rows))


def _solve_for_combo(w: int, target: dict[Slot, Fraction]) -> MtCombo | None:
    """The combination of the weight-w rows whose slot vector is ``target``, or None."""
    rows, slots, system = _factored_system(w)
    if not target.keys() <= slots.keys():
        return None
    x = system.solve({slots[slot]: c for slot, c in target.items()})
    if x is None:
        return None
    return MtCombo._make({rows[j]: c for j, c in x.items()})


def projection(
    sigma: Composition, ctx: NumericContext = DEFAULT_CONTEXT, recheck: bool = True
) -> MtCombo:
    """Express Ze[sigma] * Te^2 as a rational combination of multitangents
    with all parts >= 2 and weight ||sigma|| + 2.

    Raises ProjectionUnavailableError when the linear system has no solution
    at this weight.
    """
    if not sigma or sigma[0] < 2:
        raise ValueError("sigma must index a convergent zeta value")
    w = sigma.weight + 2
    _require_coverage(w)
    target = _expression(*_fragment_vector(sigma, 0))
    combo = _solve_for_combo(w, {(2, mono): c for mono, c in target.items()})
    if combo is None:
        raise ProjectionUnavailableError(
            f"projection of Ze[{sigma}] not found at weight {w}"
        )
    if recheck:
        with ctx.workprec():
            zeta = mzv._certified(CoeffExpr.symbol(sigma), ctx.target_abs_error, ctx.truncation_cap)
        _recheck(f"projection of Ze[{sigma}]", lambda z: [[zeta, _monotangent_at(2, z)]],
                 combo, ctx)
    return combo


def unit_cleanse(
    s: Composition, ctx: NumericContext = DEFAULT_CONTEXT, recheck: bool = True
) -> MtCombo:
    """Rewrite Te[s] as a combination of same-weight multitangents with all
    parts >= 2; deterministic (free coordinates of the solver are zeroed
    under the canonical composition order).
    """
    if not s:
        raise ValueError("empty sequence")
    w = s.weight
    _require_coverage(w)
    if all(p == 1 for p in s):
        # Te[1^r] is a constant for even r and a multiple of Te^1 for odd r
        # (families.te_ones_closed_form); combinations of multitangents with
        # all parts >= 2 have neither term
        raise ProjectionUnavailableError(f"Te[{s}] has no unit-free form")
    if all(p >= 2 for p in s):
        return MtCombo({s: 1})
    combo = _solve_for_combo(w, slot_vector(s))
    if combo is None:
        raise ProjectionUnavailableError(f"no unit-free form found for Te[{s}]")
    if recheck:
        te = _direct if is_multitangent_convergent(s) else _reduced
        _recheck(f"cleansing of Te[{s}]", lambda z: [[te(s, z, ctx)]], combo, ctx)
    return combo


@dataclass
class RankMatrix:
    """Linear system linking Ze[sigma] Te^2 unknowns to reductions of the
    all-parts->=2 multitangents of weight p + 2."""

    weight: int
    rows: list[Composition]
    basis: list[MzvMonomial]
    entries: list[list[Fraction]]
    rank: int

    def column(self, j: int = 0) -> list[Fraction]:
        return [row[j] for row in self.entries]


def rank_matrix(p: int) -> tuple[RankMatrix, int]:
    """Build the projection system at weight p: rows are the length >= 2,
    all-parts->=2 multitangents of weight p + 2, columns the declared zeta
    basis monomials of weight p; entries are the Te^2 coefficients of the
    row reductions.  Returns the matrix and its exact rank.
    """
    table = MzvBasisTable.shared()
    _require_coverage(p + 2)
    basis = table.basis(p)
    rows = [s for s in enumerate_compositions(p + 2, "val2") if s.length >= 2]
    entries = [te2_basis_coefficient(s) for s in rows]
    r = rank([{j: x for j, x in enumerate(row) if x} for row in entries])
    return RankMatrix(weight=p, rows=rows, basis=basis, entries=entries, rank=r), r


def te2_basis_coefficient(s: Composition) -> list[Fraction]:
    """Te^2 coefficient of reduce(s), written over the declared zeta basis
    of weight ||s|| - 2 (one rational per basis monomial)."""
    table = MzvBasisTable.shared()
    basis = table.basis(s.weight - 2)
    vec = slot_vector(s)
    return [vec.get((2, mono), MtCombo._zero) for mono in basis]


CONJECTURED_DIMS_FROM_WEIGHT_2 = [1, 1, 2, 3]  # d_{n+4} = d_{n+3} + d_{n+2} - d_n


def conjectured_dimension(weight: int) -> int:
    """Conjectural dimension of the span of weight-``weight`` convergent
    multitangents: 1,1,2,3,4,6,8,11,15,20,... from weight 2 on."""
    if weight < 2:
        return 0
    d = list(CONJECTURED_DIMS_FROM_WEIGHT_2)
    while len(d) < weight - 1:
        d.append(d[-1] + d[-2] - d[-4])
    return d[weight - 2]


def dimension_report(p_max: int) -> list[dict]:
    """Per weight: sequence count, kernel dimension, computed span dimension
    and the conjectural dimension."""
    out = []
    for w in range(2, p_max + 1):
        count = len(enumerate_compositions(w, "convergent"))
        kdim = 0 if w < 4 else len(relation_kernel(w, recheck=False))
        out.append(
            {
                "weight": w,
                "count": count,
                "kernel_dim": kdim,
                "dimension": count - kdim,
                "conjectured": conjectured_dimension(w),
            }
        )
    return out


def _reduction_rows(p_max: int, include_divergent: bool):
    for w in range(1, p_max + 1):
        for s in enumerate_compositions(w, "all"):
            convergent = is_multitangent_convergent(s)
            if not convergent and not include_divergent:
                continue
            red = reduce(s)
            yield s, convergent, red


def _numeric(expr: CoeffExpr, ctx: NumericContext) -> str:
    """A coefficient to 12 digits, or 0 where 0 lies within its certificate
    (its digits would be truncation noise)."""
    with ctx.workprec():
        result = mzv._certified(expr, ctx.target_abs_error, ctx.truncation_cap)
    return "0" if result.contains_zero() else mp.nstr(result.value.real, 12)


def table_emit(
    p_max: int,
    fmt: str = "text",
    include_divergent: bool = False,
    ctx: NumericContext | None = None,
) -> str:
    """Render the reduction table up to weight p_max as text, JSON, or CSV.

    Every coefficient is accompanied by its numeric value at the target of
    ``ctx``, or of a 1e-9 target when no context is given; ordering is the
    canonical composition order, so output is reproducible.
    """
    ctx = ctx or NumericContext(target_abs_error=1e-9)
    if p_max < 1:
        raise ValueError(f"maximum weight must be at least 1, got {p_max}")
    if fmt not in ("text", "json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "text":
        lines = []
        for s, convergent, red in _reduction_rows(p_max, include_divergent):
            lines.append(red.text())
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = []
        for s, convergent, red in _reduction_rows(p_max, include_divergent):
            entry = red.to_json()
            entry["convergent"] = convergent
            entry["numeric_coeffs"] = {
                str(k): _numeric(expr, ctx) for k, expr in sorted(red.coeffs.items())
            }
            payload.append(entry)
        return json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["sequence", "convergent", "constant", "order", "coefficient", "numeric"]
    )
    for s, convergent, red in _reduction_rows(p_max, include_divergent):
        const = str(red.constant) if red.constant else "0"
        if not red.coeffs:
            writer.writerow([str(s), convergent, const, "", "", ""])
        for k, expr in sorted(red.coeffs.items()):
            writer.writerow([str(s), convergent, const, k, str(expr), _numeric(expr, ctx)])
    return buf.getvalue()
