"""Self-contained verification suites over the analytic identities.

Each suite draws deterministic sample points, evaluates both sides of an
identity through independent code paths, and passes a check when 0 lies
within the certificate of the difference, as the workbench rechecks do: each
point is read once through ``numerics._checked``, and each multitangent is
the certified entry ``numerics._direct`` keeps for it.  It reports the worst
deviation; ``mtk verify --suite <name>`` runs it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import mpmath as mp

from .mzv import DEFAULT_CONTEXT, NumericContext
from .numerics import _checked, _direct, flatness_and_bounds_check, trifactorization_residual
from .words import Composition, enumerate_compositions, stuffle
from .zetasum import certified_sum


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    worst: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, label: str, terms, ctx: NumericContext) -> None:
        """Check that 0 lies within the ``certified_sum`` of ``terms`` at ``ctx``."""
        with ctx.workprec():
            result = certified_sum(terms)
            self.checks += 1
            self.worst = max(self.worst, float(abs(result.value)))
            if not result.contains_zero():
                self.failures.append((label, float(abs(result.value))))

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
_SUITE_SEEDS = {"symmetrel": 7, "parity": 11, "diff": 13, "trifact": 17}
_FLATNESS_POINTS = 20  # samples on the flatness suite's vertical line
# |quotient - F'| <= h^2 |F^(3)| / 6 for the diff suite's h = 1e-5, which no
# certificate covers: 1.2e-6 at most at its points (Te[6]), 80 times below
DIFF_TRUNCATION = 1e-4


def _convergent_cases(max_weight: int, suite: str):
    """(s, z) for each convergent s of weight 2..max_weight, a point each."""
    seqs = [s for w in range(2, max_weight + 1) for s in enumerate_compositions(w, "convergent")]
    return zip(seqs, sample_points(len(seqs), _SUITE_SEEDS[suite], _SUITE_IM_RANGE))


def suite_symmetrel(ctx: NumericContext = DEFAULT_CONTEXT, max_weight: int = 8) -> SuiteResult:
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
    points = sample_points(len(pairs), _SUITE_SEEDS["symmetrel"], _SUITE_IM_RANGE)
    for (a, b), z in zip(pairs, points):
        with ctx.workprec():
            z = _checked(z, ctx.pole_guard)
            rhs = [[(-mult, 0), _direct(word, z, ctx)] for word, mult in stuffle(a, b).items()]
            result.record(f"Te[{a}]*Te[{b}]", [[_direct(a, z, ctx), _direct(b, z, ctx)], *rhs], ctx)
    return result


def suite_parity(ctx: NumericContext = DEFAULT_CONTEXT, max_weight: int = 8) -> SuiteResult:
    """Te[s](-z) = (-1)^||s|| Te[reverse(s)](z)."""
    result = SuiteResult("parity")
    for s, z in _convergent_cases(max_weight, "parity"):
        with ctx.workprec():  # -z is read as the negated point
            z = _checked(z, ctx.pole_guard)
            rhs = [(-((-1) ** s.weight), 0), _direct(s.reverse(), z, ctx)]
            result.record(f"parity Te[{s}]", [[_direct(s, -z, ctx)], rhs], ctx)
    return result


def suite_diff(ctx: NumericContext = DEFAULT_CONTEXT, max_weight: int = 7) -> SuiteResult:
    """Central finite difference of Te[s] against -sum_i s_i Te[s + e_i],
    with ``DIFF_TRUNCATION`` as one more term, of value 0.
    """
    result = SuiteResult("diff")
    for s, z in _convergent_cases(max_weight, "diff"):
        with ctx.workprec():  # z +- h exact, 1/(2h) rounded once
            h = mp.mpf("1e-5")
            quotient = [(1 / (2 * h), mp.ldexp(1 / h, -mp.mp.prec))]
            up, down, z = (_checked(w, ctx.pole_guard) for w in (z + h, z - h, z))
            terms = [[_direct(s, up, ctx), *quotient], [_direct(s, down, ctx), (-1, 0), *quotient]]
            terms += [[(part, 0), _direct(s.bump(i), z, ctx)] for i, part in enumerate(s)]
            result.record(f"diff Te[{s}]", [*terms, [(0, DIFF_TRUNCATION)]], ctx)
    return result


def suite_flatness(ctx: NumericContext = DEFAULT_CONTEXT) -> SuiteResult:
    """Growth bounds and the exponential-flatness envelope along a vertical
    line, for a small family of sequences."""
    result = SuiteResult("flatness")
    ys = [1 + 5 * i / (_FLATNESS_POINTS - 1) for i in range(_FLATNESS_POINTS)]  # Im z in [1, 6]
    for s in (Composition((2,)), Composition((2, 2)), Composition((3, 2))):
        samples = [mp.mpc("0.37", y) for y in ys]
        report = flatness_and_bounds_check(s, samples, ctx)
        result.checks += len(report.samples)
        for violation in report.violations:
            result.failures.append((f"Te[{s}] {violation[0]}", violation[2]))
    return result


def suite_trifact(ctx: NumericContext = DEFAULT_CONTEXT) -> SuiteResult:
    """Trifactorization residual for the reference sequences."""
    result = SuiteResult("trifact")
    seqs = [
        Composition(t) for t in ((2,), (3,), (2, 2), (3, 2), (2, 3))
    ]
    for s in seqs:
        for z in sample_points(3, _SUITE_SEEDS["trifact"] + s.weight, _SUITE_IM_RANGE):
            result.record(f"trifact Te[{s}]", [[trifactorization_residual(s, z, ctx)]], ctx)
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
