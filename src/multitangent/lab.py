"""Research workbench: weight-graded relation kernels between multitangents,
projection of zeta values onto multitangent combinations, unit cleansing,
rank matrices, dimension reports and table generation.

Everything in this module runs in two stages: an exact stage (reductions,
basis substitution, rational linear algebra with no floating point) and a
mandatory numeric recheck stage that re-evaluates every produced identity at
sample points off the real axis.  A failed recheck raises instead of
returning a silently wrong result.

The exact stage does no work twice.  A coefficient is written over the zeta
basis as the sum of the basis vectors of its monomials, and each monomial's
vector (stuffle linearization, then table substitution) is kept in a bounded
cache.  Projections and cleansings at one weight solve against the same
system; each row set's system is built and factored once, in a bounded
cache, and every right-hand side costs one sparse product.
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
from .exact import CoeffExpr, MzvMonomial
from .linalg import Factorization, Matrix, factor, nullspace, rank
from .mzv import DEFAULT_CONTEXT, NumericContext, mzv_numeric
from .numerics import (
    monotangent_eval,
    multitangent_eval_direct,
    multitangent_eval_reduced,
)
from .reduction import reduce
from .verify import sample_points
from .words import (
    Composition,
    LinearCombination,
    enumerate_compositions,
    is_multitangent_convergent,
)

RECHECK_TOL = 1e-7


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
        total = mp.mpc(0)
        for comp, coef in self.items():
            scale = mp.mpf(coef.numerator) / coef.denominator
            total += scale * multitangent_eval_direct(comp, z, ctx)
        return total

    def _term_str(self, comp: Composition, coef: Fraction) -> str:
        prefix = "" if coef == 1 else ("-" if coef == -1 else f"{coef}·")
        return f"{prefix}Te[{comp}]"


def differentiate_combo(combo: MtCombo) -> MtCombo:
    """d/dz of a combination: Te[s] maps to -sum_i s_i Te[s + e_i]."""
    out = MtCombo()
    for comp, coef in combo.items():
        for i, part in enumerate(comp.parts):
            out = out + MtCombo({comp.bump(i): -coef * part})
    return out


Slot = tuple[int, MzvMonomial]


@lru_cache(maxsize=2048)
def _basis_vector(mono: MzvMonomial) -> tuple[tuple[MzvMonomial, Fraction], ...]:
    """One zeta monomial over the basis: its product linearized, then
    substituted through the shared table."""
    expr = mzv.linearize(CoeffExpr({mono: 1}))
    return tuple(MzvBasisTable.shared().substitute(expr).items())


def _slots(k: int, expr: CoeffExpr) -> dict[Slot, Fraction]:
    """The Te^k coefficient ``expr`` over the zeta basis, keyed by slot: the
    sum of the cached basis vectors of its monomials."""
    total: dict[MzvMonomial, Fraction] = {}
    for mono, coef in expr.items():
        for basis_mono, value in _basis_vector(mono):
            total[basis_mono] = total.get(basis_mono, 0) + coef * value
    return {(k, mono): coef for mono, coef in CoeffExpr(total).items()}


@lru_cache(maxsize=4096)
def _slot_vector_cached(comp: Composition) -> tuple[tuple[Slot, Fraction], ...]:
    red = reduce(comp)
    if red.constant:
        raise ValueError(f"Te[{comp}] reduces with a constant term")
    entries: dict[Slot, Fraction] = {}
    for k, expr in red.coeffs.items():
        if k != 1:
            entries.update(_slots(k, expr))
        elif _slots(1, expr):
            raise NumericRecheckError(
                f"Te^1 coefficient of {comp} fails exact cancellation"
            )
    return tuple(entries.items())


def slot_vector(comp: Composition) -> dict[Slot, Fraction]:
    """Reduction of Te[comp] as a vector over (monotangent order, basis
    monomial) slots, with the Te^1 block checked to cancel exactly."""
    return dict(_slot_vector_cached(comp))


def _system(rows: list[Composition]) -> tuple[list[Slot], Matrix]:
    """The slots and the slots-by-rows matrix whose column j is the slot
    vector of rows[j]."""
    vectors = [slot_vector(s) for s in rows]
    slots = sorted(
        {slot for vec in vectors for slot in vec},
        key=lambda sl: (sl[0], sl[1].sort_key()),
    )
    return slots, [[vec.get(slot, Fraction(0)) for vec in vectors] for slot in slots]


def _require_coverage(weight: int) -> None:
    table = MzvBasisTable.shared()
    if weight > table.max_weight + 1:
        raise CoverageError(
            f"weight {weight} needs table entries up to {weight - 1}, "
            f"the derived table stops at {table.max_weight}",
            weight=weight,
        )


def _recheck(what: str, lhs, combo: MtCombo, ctx: NumericContext) -> None:
    """Require lhs(z) == combo(z) within RECHECK_TOL at the sample points."""
    for z in sample_points(2):
        diff = abs(lhs(z) - combo.evaluate(z, ctx))
        if diff > RECHECK_TOL:
            raise NumericRecheckError(
                f"{what} fails recheck at {z}: |diff| = {float(diff):.3e}"
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
    combos = [MtCombo(dict(zip(rows, vec))) for vec in nullspace(_system(rows)[1])]
    if recheck:
        for combo in combos:
            _recheck(f"kernel relation {combo}", lambda z: 0, combo, ctx)
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
    image: dict[Slot, Fraction] = {}
    for s, coef in combo.items():
        for slot, value in slot_vector(s).items():
            image[slot] = image.get(slot, Fraction(0)) + coef * value
    return not any(image.values())


@lru_cache(maxsize=32)
def _factored_system(
    rows: tuple[Composition, ...],
) -> tuple[tuple[Slot, ...], Factorization]:
    """The slots and the factorization of the system of ``rows``."""
    slots, system = _system(list(rows))
    return tuple(slots), factor(system)


def _solve_for_combo(
    rows: list[Composition], target: dict[Slot, Fraction]
) -> MtCombo | None:
    slots, system = _factored_system(tuple(rows))
    if not target.keys() <= set(slots):
        return None
    x = system.solve([target.get(slot, Fraction(0)) for slot in slots])
    if x is None:
        return None
    return MtCombo(dict(zip(rows, x)))


def projection(
    sigma: Composition, ctx: NumericContext = DEFAULT_CONTEXT, recheck: bool = True
) -> MtCombo:
    """Express Ze[sigma] * Te^2 as a rational combination of multitangents
    with all parts >= 2 and weight ||sigma|| + 2.

    Raises ProjectionUnavailableError when the linear system has no solution
    at this weight.
    """
    if not sigma or sigma.parts[0] < 2:
        raise ValueError("sigma must index a convergent zeta value")
    w = sigma.weight + 2
    _require_coverage(w)
    rows = enumerate_compositions(w, "val2")
    combo = _solve_for_combo(rows, _slots(2, CoeffExpr.symbol(sigma)))
    if combo is None:
        raise ProjectionUnavailableError(
            f"projection of Ze[{sigma}] not found at weight {w}"
        )
    if recheck:
        zeta_val = mzv_numeric(CoeffExpr.symbol(sigma), ctx)
        _recheck(
            f"projection of Ze[{sigma}]",
            lambda z: zeta_val * monotangent_eval(2, z, ctx),
            combo,
            ctx,
        )
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
    if all(p == 1 for p in s.parts):
        # Te[1^r] is a constant for even r and a multiple of Te^1 for odd r
        # (families.te_ones_closed_form); combinations of multitangents with
        # all parts >= 2 have neither term
        raise ProjectionUnavailableError(f"Te[{s}] has no unit-free form")
    if all(p >= 2 for p in s.parts):
        return MtCombo({s: 1})
    target = slot_vector(s)
    rows = enumerate_compositions(w, "val2")
    combo = _solve_for_combo(rows, target)
    if combo is None:
        raise ProjectionUnavailableError(f"no unit-free form found for Te[{s}]")
    if recheck:
        te = (
            multitangent_eval_direct
            if is_multitangent_convergent(s)
            else multitangent_eval_reduced
        )
        _recheck(f"cleansing of Te[{s}]", lambda z: te(s, z, ctx), combo, ctx)
    return combo


@dataclass
class RankMatrix:
    """Linear system linking Ze[sigma] Te^2 unknowns to reductions of the
    all-parts->=2 multitangents of weight p + 2."""

    weight: int
    rows: list[Composition]
    basis: list[MzvMonomial]
    entries: Matrix
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
    r = rank(entries)
    return RankMatrix(weight=p, rows=rows, basis=basis, entries=entries, rank=r), r


def te2_basis_coefficient(s: Composition) -> list[Fraction]:
    """Te^2 coefficient of reduce(s), written over the declared zeta basis
    of weight ||s|| - 2 (one rational per basis monomial)."""
    table = MzvBasisTable.shared()
    basis = table.basis(s.weight - 2)
    vec = slot_vector(s)
    return [vec.get((2, mono), Fraction(0)) for mono in basis]


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
        value, bound = mzv._certified(expr, ctx.target_abs_error, ctx.truncation_cap)
    return "0" if abs(value) <= bound else mp.nstr(value, 12)


def table_emit(
    p_max: int,
    fmt: str = "text",
    include_divergent: bool = False,
    ctx: NumericContext | None = None,
) -> str:
    """Render the reduction table up to weight p_max as text, JSON, or CSV.

    Every coefficient is accompanied by its numeric value at a 1e-9 target;
    ordering is the canonical composition order, so output is reproducible.
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
