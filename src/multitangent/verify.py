"""Self-contained verification suites over the analytic identities.

Each suite draws deterministic sample points, evaluates both sides of an
identity through independent code paths, and reports the worst deviation.
The command line exposes them as ``mtk verify --suite <name>``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import mpmath as mp

from .mzv import DEFAULT_CONTEXT, NumericContext
from .numerics import (
    flatness_and_bounds_check,
    multitangent_eval_direct,
    trifactorization_residual,
)
from .words import Composition, enumerate_compositions, stuffle


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    worst: float = 0.0
    tolerance: float = 1e-7
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, label: str, deviation: float, tolerance: float | None = None):
        tol = self.tolerance if tolerance is None else tolerance
        self.checks += 1
        self.worst = max(self.worst, deviation)
        if deviation > tol:
            self.failures.append((label, deviation))

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return (
            f"[{status}] suite {self.name}: {self.checks} checks, "
            f"worst deviation {self.worst:.3e}"
        )


def sample_points(
    count: int = 2, seed: int = 0x5EED, im_range=(0.4, 1.2)
) -> list[mp.mpc]:
    """Deterministic sample points, Re z in [0.05, 0.95] and Im z in
    ``im_range``.  The suites draw from (0.3, 1.2), the workbench rechecks
    from the default."""
    rng = random.Random(seed)
    return [
        mp.mpc(rng.uniform(0.05, 0.95), rng.uniform(*im_range)) for _ in range(count)
    ]


_SUITE_IM_RANGE = (0.3, 1.2)


def suite_symmetrel(
    ctx: NumericContext = DEFAULT_CONTEXT, max_weight: int = 8, seed: int = 7
) -> SuiteResult:
    """Te[a](z) Te[b](z) against the stuffle expansion, all convergent pairs
    with total weight <= max_weight, one sample point per pair."""
    result = SuiteResult("symmetrel")
    pairs = []
    for wa in range(2, max_weight - 1):
        for a in enumerate_compositions(wa, "convergent"):
            for wb in range(2, max_weight - wa + 1):
                for b in enumerate_compositions(wb, "convergent"):
                    if a.sort_key() <= b.sort_key():
                        pairs.append((a, b))
    for (a, b), z in zip(pairs, sample_points(len(pairs), seed, _SUITE_IM_RANGE)):
        lhs = multitangent_eval_direct(a, z, ctx) * multitangent_eval_direct(b, z, ctx)
        rhs = mp.mpc(0)
        for word, mult in stuffle(a, b).items():
            rhs += mult * multitangent_eval_direct(word, z, ctx)
        result.record(f"Te[{a}]*Te[{b}]", float(abs(lhs - rhs)))
    return result


def suite_parity(
    ctx: NumericContext = DEFAULT_CONTEXT, max_weight: int = 8, seed: int = 11
) -> SuiteResult:
    """Te[s](-z) = (-1)^||s|| Te[reverse(s)](z)."""
    result = SuiteResult("parity")
    seqs = [
        s
        for w in range(2, max_weight + 1)
        for s in enumerate_compositions(w, "convergent")
    ]
    for s, z in zip(seqs, sample_points(len(seqs), seed, _SUITE_IM_RANGE)):
        lhs = multitangent_eval_direct(s, -z, ctx)
        rhs = (-1) ** s.weight * multitangent_eval_direct(s.reverse(), z, ctx)
        result.record(f"parity Te[{s}]", float(abs(lhs - rhs)))
    return result


def suite_diff(
    ctx: NumericContext = DEFAULT_CONTEXT, max_weight: int = 7, seed: int = 13
) -> SuiteResult:
    """Central finite difference of Te[s] against -sum_i s_i Te[s + e_i].

    The quotient carries an O(h^2) truncation term, so the tolerance is
    h^2-scaled rather than the suite default.
    """
    result = SuiteResult("diff")
    h = mp.mpf("1e-5")
    seqs = [
        s
        for w in range(2, max_weight + 1)
        for s in enumerate_compositions(w, "convergent")
    ]
    for s, z in zip(seqs, sample_points(len(seqs), seed, _SUITE_IM_RANGE)):
        num = (
            multitangent_eval_direct(s, z + h, ctx)
            - multitangent_eval_direct(s, z - h, ctx)
        ) / (2 * h)
        sym = mp.mpc(0)
        for i, part in enumerate(s.parts):
            sym -= part * multitangent_eval_direct(s.bump(i), z, ctx)
        # third derivative of a weight <= 6 multitangent stays O(10^3) here
        result.record(f"diff Te[{s}]", float(abs(num - sym)), tolerance=1e-4)
    return result


def suite_flatness(ctx: NumericContext = DEFAULT_CONTEXT, points: int = 20) -> SuiteResult:
    """Growth bounds and the exponential-flatness envelope along a vertical
    line, for a small family of sequences."""
    result = SuiteResult("flatness")
    ys = [1 + 5 * i / (points - 1) for i in range(points)]  # Im z in [1, 6]
    for s in (Composition((2,)), Composition((2, 2)), Composition((3, 2))):
        samples = [mp.mpc("0.37", y) for y in ys]
        report = flatness_and_bounds_check(s, samples, ctx)
        result.checks += len(report.samples)
        for violation in report.violations:
            result.failures.append((f"Te[{s}] {violation[0]}", violation[2]))
    return result


def suite_trifact(ctx: NumericContext = DEFAULT_CONTEXT, seed: int = 17) -> SuiteResult:
    """Trifactorization residual for the reference sequences."""
    result = SuiteResult("trifact")
    seqs = [
        Composition(t) for t in ((2,), (3,), (2, 2), (3, 2), (2, 3))
    ]
    for s in seqs:
        for z in sample_points(3, seed + s.weight, _SUITE_IM_RANGE):
            res = trifactorization_residual(s, z, ctx)
            result.record(f"trifact Te[{s}]", res)
    return result


SUITES = {
    "symmetrel": suite_symmetrel,
    "parity": suite_parity,
    "diff": suite_diff,
    "flatness": suite_flatness,
    "trifact": suite_trifact,
}


def run_suite(name: str, ctx: NumericContext = DEFAULT_CONTEXT) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return SUITES[name](ctx)
