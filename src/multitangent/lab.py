"""Research workbench: weight-graded relation kernels between multitangents,
projection of zeta values onto multitangent combinations, unit cleansing,
rank matrices, dimension reports and table generation.

Everything in this module runs in two stages: an exact stage (reductions,
basis substitution, rational linear algebra with no floating point) and a
mandatory numeric recheck stage that re-evaluates every produced identity at
sample points off the real axis.  A failed recheck raises instead of
returning a silently wrong result.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .basis_table import MzvBasisTable
from .errors import CoverageError, NumericRecheckError, ProjectionUnavailableError
from .exact import CoeffExpr, MzvMonomial, PiRational
from .linalg import Matrix, nullspace, rank, solve
from .mzv import DEFAULT_CONTEXT, NumericContext, linearize, mzv_numeric
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

    def evaluate(self, z, ctx: NumericContext = DEFAULT_CONTEXT, method: str = "direct"):
        fn = multitangent_eval_direct if method == "direct" else multitangent_eval_reduced
        total = mp.mpc(0)
        for comp, coef in self.items():
            total += mp.mpf(coef.numerator) / coef.denominator * fn(comp, z, ctx)
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


def _as_fraction(coef: PiRational) -> Fraction:
    """The rational value of a coefficient; pi powers never survive basis
    substitution of weight-homogeneous reduction coefficients."""
    if not coef.is_homogeneous(0):
        raise NumericRecheckError(f"pi power in substituted coefficient {coef}")
    return coef.rational_part


Slot = tuple[int, MzvMonomial]


@lru_cache(maxsize=None)
def _slot_vector_cached(comp: Composition) -> tuple[tuple[Slot, Fraction], ...]:
    table = MzvBasisTable.shared()
    red = reduce(comp)
    if red.constant:
        raise ValueError(f"Te[{comp}] reduces with a constant term")
    entries: dict[Slot, Fraction] = {}
    for k, expr in red.coeffs.items():
        if k == 1:
            # the Te^1 block must cancel: exactly when the table covers its
            # weight, numerically one weight past the table's edge
            try:
                sub = table.substitute(linearize(expr))
            except CoverageError:
                residual = float(abs(mzv_numeric(expr, DEFAULT_CONTEXT)))
                if residual > 1e-8 * max(1, len(expr)):
                    raise NumericRecheckError(
                        f"Te^1 coefficient of {comp} is {residual:.3e}"
                    )
                continue
            if sub:
                raise NumericRecheckError(
                    f"Te^1 coefficient of {comp} fails exact cancellation"
                )
            continue
        sub = table.substitute(linearize(expr))
        for mono, coef in sub.items():
            frac = _as_fraction(coef)
            if frac:
                slot = (k, mono)
                entries[slot] = entries.get(slot, Fraction(0)) + frac
    return tuple(sorted(entries.items(), key=lambda kv: (kv[0][0], kv[0][1].sort_key())))


def slot_vector(comp: Composition) -> dict[Slot, Fraction]:
    """Reduction of Te[comp] as a vector over (monotangent order, basis
    monomial) slots, with the Te^1 block checked to cancel exactly."""
    return dict(_slot_vector_cached(comp))


def _assemble(rows: list[Composition]) -> tuple[list[Slot], Matrix]:
    vectors = [slot_vector(s) for s in rows]
    slots = sorted(
        {slot for vec in vectors for slot in vec},
        key=lambda sl: (sl[0], sl[1].sort_key()),
    )
    matrix = [[vec.get(slot, Fraction(0)) for slot in slots] for vec in vectors]
    return slots, matrix


def _require_coverage(weight: int) -> None:
    table = MzvBasisTable.shared()
    if weight > table.max_weight + 2:
        raise CoverageError(
            f"weight {weight} needs table entries up to {weight - 2}, "
            f"bundled table stops at {table.max_weight}",
            weight=weight,
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
    slots, matrix = _assemble(rows)
    transposed = [[matrix[j][i] for j in range(len(rows))] for i in range(len(slots))]
    combos = [
        MtCombo({rows[j]: vec[j] for j in range(len(rows))})
        for vec in nullspace(transposed)
    ]
    if recheck:
        for combo in combos:
            for z in sample_points(2):
                value = abs(combo.evaluate(z, ctx))
                if value > RECHECK_TOL:
                    raise NumericRecheckError(
                        f"kernel relation {combo} evaluates to {float(value):.3e} at {z}"
                    )
    return combos


def kernel_contains(p: int, combo: MtCombo) -> bool:
    """Membership of a combination in the weight-p relation kernel, over Q."""
    kernel = relation_kernel(p, recheck=False)
    rows = enumerate_compositions(p, "convergent")
    basis = [[vec[s] for s in rows] for vec in kernel]
    target = [combo[s] for s in rows]
    from .linalg import in_row_span

    return in_row_span(basis, target)


def _target_vector_for_zeta(sigma: Composition) -> dict[Slot, Fraction]:
    """Slot vector of the product Ze[sigma] * Te^2."""
    table = MzvBasisTable.shared()
    sub = table.substitute(linearize(CoeffExpr.symbol(sigma)))
    out: dict[Slot, Fraction] = {}
    for mono, coef in sub.items():
        out[(2, mono)] = _as_fraction(coef)
    return out


def _solve_for_combo(
    rows: list[Composition], target: dict[Slot, Fraction]
) -> MtCombo | None:
    slots, matrix = _assemble(rows)
    slot_set = set(slots)
    if any(slot not in slot_set for slot in target if target[slot]):
        return None
    system = [[matrix[j][i] for j in range(len(rows))] for i in range(len(slots))]
    rhs = [target.get(slot, Fraction(0)) for slot in slots]
    x = solve(system, rhs)
    if x is None:
        return None
    return MtCombo({rows[j]: x[j] for j in range(len(rows))})


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
    rows = [s for s in enumerate_compositions(w, "val2")]
    combo = _solve_for_combo(rows, _target_vector_for_zeta(sigma))
    if combo is None:
        raise ProjectionUnavailableError(
            f"projection of Ze[{sigma}] not found at weight {w}"
        )
    if recheck:
        zeta_val = mzv_numeric(CoeffExpr.symbol(sigma), ctx)
        for z in sample_points(2):
            lhs = zeta_val * monotangent_eval(2, z, ctx)
            rhs = combo.evaluate(z, ctx)
            if abs(lhs - rhs) > RECHECK_TOL:
                raise NumericRecheckError(
                    f"projection of Ze[{sigma}] fails recheck at {z}: "
                    f"|diff| = {float(abs(lhs - rhs)):.3e}"
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
        for z in sample_points(2):
            lhs = (
                multitangent_eval_direct(s, z, ctx)
                if is_multitangent_convergent(s)
                else multitangent_eval_reduced(s, z, ctx)
            )
            rhs = combo.evaluate(z, ctx)
            if abs(lhs - rhs) > RECHECK_TOL:
                raise NumericRecheckError(
                    f"cleansing of Te[{s}] fails recheck at {z}: "
                    f"|diff| = {float(abs(lhs - rhs)):.3e}"
                )
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


def rank_matrix(p: int, ctx: NumericContext = DEFAULT_CONTEXT) -> tuple[RankMatrix, int]:
    """Build the projection system at weight p: rows are the length >= 2,
    all-parts->=2 multitangents of weight p + 2, columns the declared zeta
    basis monomials of weight p; entries are the Te^2 coefficients of the
    row reductions.  Returns the matrix and its exact rank.
    """
    table = MzvBasisTable.shared()
    _require_coverage(p + 2)
    basis = table.basis(p)
    rows = [s for s in enumerate_compositions(p + 2, "val2") if s.length >= 2]
    entries: Matrix = []
    for s in rows:
        vec = slot_vector(s)
        entries.append([vec.get((2, mono), Fraction(0)) for mono in basis])
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


def dimension_report(p_max: int, ctx: NumericContext = DEFAULT_CONTEXT) -> list[dict]:
    """Per weight: sequence count, kernel dimension, computed span dimension
    and the conjectural dimension."""
    out = []
    for w in range(2, p_max + 1):
        count = len(enumerate_compositions(w, "convergent"))
        kdim = 0 if w < 4 else len(relation_kernel(w, ctx, recheck=False))
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
                str(k): mp.nstr(mzv_numeric(expr, ctx), 12)
                for k, expr in sorted(red.coeffs.items())
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
            writer.writerow(
                [
                    str(s),
                    convergent,
                    const,
                    k,
                    str(expr),
                    mp.nstr(mzv_numeric(expr, ctx), 12),
                ]
            )
    return buf.getvalue()
