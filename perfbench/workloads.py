"""Workloads of the benchmark: seeded input generators, the public call each
input drives, and the untimed checks of the outputs.

Generators work on plain tuples and floats and import nothing from the
program, so the inputs of a seed do not change when the program does.
Operations are ``(kind, *args)`` tuples:

* ``("direct", parts, (re, im), target)``: certified ``Te[parts](re + i im)``
* ``("reduce", parts)``
* ``("kernel", p, recheck)``
* ``("rank", p)``
* ``("projection", parts, recheck)``
* ``("cleanse", parts, recheck)``
* ``("suite", name)``
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

DIRECT_TARGETS = (1e-8, 1e-12, 1e-16)
# Lab-exact results checked numerically per category; checking all of them
# would take several times longer than the timed phase.
CHECK_SAMPLE = 6
CHECK_CONTEXT_TARGET = 1e-12


@dataclass(frozen=True)
class Workload:
    """A workload's loop and operation mix; BENCHMARK.json gives its reason."""

    name: str
    loop: str
    until_time: bool  # open-ended: runs until --seconds have passed
    mix: str
    default_seed: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eval-direct",
            "closed loop, 1 client, until the time is up",
            True,
            "multitangent_eval_direct of a convergent sequence of weight 2..7 at a "
            "fresh point, target 1e-8, 1e-12 or 1e-16",
            1,
        ),
        Workload(
            "lab-exact",
            "closed loop, 1 client, each operation once, kernels first",
            False,
            "reduce (weight 1..9), relation_kernel (4..9), rank_matrix (2..7), "
            "projection (2..7) and unit_cleanse (3..9), rechecks off",
            1,
        ),
        Workload(
            "lab-recheck",
            "closed loop, 1 client, each operation once, kernels first",
            False,
            "relation_kernel (5..8), projection (2..7), unit_cleanse (3..8) with "
            "rechecks on, and the trifact and flatness suites",
            1,
        ),
    )
}


def compositions(weight: int) -> list[tuple[int, ...]]:
    """All compositions of ``weight`` as tuples, in a fixed order."""
    if weight == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(1, weight + 1)
        for rest in compositions(weight - first)
    ]


def is_convergent(parts: tuple[int, ...]) -> bool:
    return bool(parts) and parts[0] >= 2 and parts[-1] >= 2


def has_unit_free_form(parts: tuple[int, ...]) -> bool:
    """Cleansing inputs: a part equal to 1 and a part of at least 2.

    All-ones sequences are left out: they have no unit-free form.
    """
    return 1 in parts and max(parts) >= 2


def _direct_ops(rng: random.Random, count: int) -> list[tuple]:
    """Rounds of every convergent sequence of weight 2..7, in seeded order,
    with the six monotangent indices (k) twice per round.

    Cost goes with depth.  Uniform over the 32 sequences, exactly half have
    depth <= 2, so the median latency sat on the gap between the depth-2
    and depth-3 costs and moved by a factor 2 from seed to seed.  With the
    depth-1 sequences doubled, the median sits inside the depth-2 costs.
    """
    seqs = [s for w in range(2, 8) for s in compositions(w) if is_convergent(s)]
    seqs += [s for s in seqs if len(s) == 1]
    ops, seen, queue = [], set(), []
    while len(ops) < count:
        if not queue:
            queue = list(seqs)
            rng.shuffle(queue)
        s = queue.pop()
        z = (
            rng.randint(-2, 2) + rng.uniform(0.05, 0.95),
            rng.choice((-1, 1)) * rng.uniform(0.1, 2.0),
        )
        if (s, z) in seen:
            queue.append(s)
            continue
        seen.add((s, z))
        ops.append(("direct", s, z, rng.choice(DIRECT_TARGETS)))
    return ops


def _lab_exact_ops() -> list[tuple]:
    # Weight stops at 9: from weight 10 on, slot vectors fall back to numerics.
    ops = [("reduce", s) for w in range(1, 10) for s in compositions(w)]
    ops += [("kernel", p, False) for p in range(4, 10)]
    ops += [("rank", p) for p in range(2, 8)]
    ops += [
        ("projection", s, False)
        for w in range(2, 8)
        for s in compositions(w)
        if s[0] >= 2
    ]
    ops += [
        ("cleanse", s, False)
        for w in range(3, 10)
        for s in compositions(w)
        if has_unit_free_form(s)
    ]
    return ops


def _lab_recheck_ops() -> list[tuple]:
    ops = [("kernel", p, True) for p in range(5, 9)]
    ops += [
        ("projection", s, True)
        for w in range(2, 8)
        for s in compositions(w)
        if s[0] >= 2
    ]
    # Cleansings go to weight 8, one past the weight 7 the issue sketched:
    # about ten operations (kernels, suites, the first projection at a
    # weight) are slow by structure, and up to weight 7 the tail latency was
    # the slowest of the small cleansings, which one scheduling hiccup moved
    # by half.  The ~110 weight-8 cleansings put a dense cluster there.
    ops += [
        ("cleanse", s, True)
        for w in range(3, 9)
        for s in compositions(w)
        if has_unit_free_form(s)
    ]
    ops += [("suite", "trifact"), ("suite", "flatness")]
    return ops


# The lab order is the same for every run seed; see generate().
LAB_ORDER_SEED = "lab-order"


def generate(workload: str, seed: int, seconds: float) -> list[tuple]:
    """The operations of one run, in the order they are sent.

    eval-direct draws fresh inputs from the seed, more than a run of
    ``seconds`` can finish.  The lab workloads run each operation once,
    however long that takes: the relation kernels first, by weight, then
    every other operation in one fixed shuffled order.  Under an order drawn
    from the run's seed, which operation first filled the shared caches
    decided its latency, and p50 and tail moved by more than any usable
    bound from seed to seed.  Kernels first leave few operations that pay
    for filling the caches, and the shuffle spreads the slowest of the rest
    over the run.  The seed of a lab run picks the point and the sample of
    the output checks.
    """
    if workload == "eval-direct":
        return _direct_ops(random.Random(f"{workload}:{seed}"), int(100 * seconds) + 100)
    if workload == "lab-exact":
        ops = _lab_exact_ops()
    elif workload == "lab-recheck":
        ops = _lab_recheck_ops()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rest = [op for op in ops if op[0] != "kernel"]
    random.Random(LAB_ORDER_SEED).shuffle(rest)
    return [op for op in ops if op[0] == "kernel"] + rest


def describe(op: tuple) -> str:
    kind, *args = op
    if kind == "direct":
        parts, (x, y), target = args
        return f"direct Te[{','.join(map(str, parts))}]({x!r}{y:+}j) target {target:g}"
    arg = args[0]
    text = ",".join(map(str, arg)) if isinstance(arg, tuple) else str(arg)
    return f"{kind}({text})"


def import_program():
    """Import ``multitangent`` from this checkout's ``src``, never from an
    installed copy."""
    if not (SRC / "multitangent" / "__init__.py").is_file():
        raise SystemExit(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import multitangent

    if Path(multitangent.__file__).resolve().parent != SRC / "multitangent":
        raise SystemExit(f"multitangent was imported from {multitangent.__file__}")
    return multitangent


def prepare(op: tuple):
    """A zero-argument callable that performs ``op`` through the public API.

    Functions are looked up on their modules at call time, so wrappers
    installed by the tracer are seen.
    """
    import mpmath as mp
    from multitangent import lab, numerics, reduction, verify
    from multitangent.mzv import NumericContext
    from multitangent.words import Composition

    kind, *args = op
    if kind == "direct":
        parts, (x, y), target = args
        s, z, ctx = Composition(parts), mp.mpc(x, y), NumericContext(target_abs_error=target)
        return lambda: numerics.multitangent_eval_direct(s, z, ctx)
    if kind == "reduce":
        s = Composition(args[0])
        return lambda: reduction.reduce(s)
    if kind == "kernel":
        p, recheck = args
        return lambda: lab.relation_kernel(p, recheck=recheck)
    if kind == "rank":
        return lambda: lab.rank_matrix(args[0])
    if kind == "projection":
        s, recheck = Composition(args[0]), args[1]
        return lambda: lab.projection(s, recheck=recheck)
    if kind == "cleanse":
        s, recheck = Composition(args[0]), args[1]
        return lambda: lab.unit_cleanse(s, recheck=recheck)
    if kind == "suite":
        return lambda: verify.run_suite(args[0])
    raise ValueError(f"unknown operation {kind!r}")


def check_point(seed: int):
    """Seeded evaluation point for the lab-exact checks, off the real axis
    and apart from the workbench's own sample points."""
    rng = random.Random(f"check:{seed}")
    return rng.uniform(0.05, 0.95), rng.uniform(0.4, 1.2)


def check(ops: list[tuple], results: list, seed: int) -> dict[int, str]:
    """Untimed output checks; returns {operation index: reason} for every
    operation whose output is wrong.  ``results[i]`` is None when operation i
    raised, and such operations are not checked again."""
    import mpmath as mp
    from multitangent import lab, mzv, numerics
    from multitangent.exact import CoeffExpr
    from multitangent.mzv import NumericContext
    from multitangent.words import Composition

    ctx = NumericContext(target_abs_error=CHECK_CONTEXT_TARGET)
    z = mp.mpc(*check_point(seed))
    rng = random.Random(f"sample:{seed}")
    failures: dict[int, str] = {}
    # Exact results the workbench did not recheck itself, by kind.
    sampled: dict[str, list[tuple[int, object]]] = {}

    def te(parts):
        return numerics.multitangent_eval_direct(Composition(parts), z, ctx)

    def combo_value(combo):
        """Sum of coefficient * Te at z, and the size its error scales with."""
        total, scale = mp.mpc(0), 1
        for comp, coef in combo.items():
            total += mp.mpf(coef.numerator) / coef.denominator * te(comp.parts)
            scale += abs(coef)
        return total, scale

    def reduction_value(red):
        total, scale = mp.mpc(red.constant.to_mpf()), 1
        for k, expr in red.coeffs.items():
            mono = numerics.monotangent_eval(k, z, ctx)
            total += mzv.mzv_numeric(expr, ctx) * mono
            scale += abs(mono)
        return total, scale

    with ctx.workprec():
        for i, (op, res) in enumerate(zip(ops, results)):
            if res is None:
                continue
            kind = op[0]
            if kind == "direct":
                _, parts, point, target = op
                ref = numerics.multitangent_eval_reduced(
                    Composition(parts), mp.mpc(*point), NumericContext(target_abs_error=target / 1000)
                )
                diff = abs(res - ref)
                if diff > target * 1.01:
                    failures[i] = f"differs from the reduced value by {float(diff):.3e}"
            elif kind == "kernel":
                p = op[1]
                n = sum(1 for s in compositions(p) if is_convergent(s))
                expected = n - lab.conjectured_dimension(p)
                if len(res) != expected:
                    failures[i] = f"kernel dimension {len(res)}, expected {expected}"
                elif not op[2]:
                    sampled.setdefault(kind, []).extend((i, c) for c in res)
            elif kind == "rank":
                matrix, r = res
                if r != len(matrix.basis):
                    failures[i] = f"rank {r} below the {len(matrix.basis)} basis monomials"
            elif (kind in ("projection", "cleanse") and not op[2]) or (
                kind == "reduce" and is_convergent(op[1])
            ):
                sampled.setdefault(kind, []).append((i, res))
            elif kind == "suite" and not res.ok:
                failures[i] = f"suite failed: {res.failures[:3]}"

        # Numeric spot checks of exact results at z, on a seeded sample.  Every
        # value below is certified to CHECK_CONTEXT_TARGET; the tolerance
        # leaves a factor 1000 on top of the propagated bound.
        for kind, pairs in sampled.items():
            for i, res in rng.sample(pairs, min(CHECK_SAMPLE, len(pairs))):
                if i in failures:
                    continue
                parts = ops[i][1]
                if kind == "kernel":
                    lhs, (rhs, scale) = 0, combo_value(res)
                elif kind == "projection":
                    zeta = mzv.mzv_numeric(CoeffExpr.symbol(Composition(parts)), ctx)
                    lhs = zeta * numerics.monotangent_eval(2, z, ctx)
                    rhs, scale = combo_value(res)
                elif kind == "cleanse":
                    lhs = (
                        te(parts)
                        if is_convergent(parts)
                        else numerics.multitangent_eval_reduced(Composition(parts), z, ctx)
                    )
                    rhs, scale = combo_value(res)
                else:
                    lhs, (rhs, scale) = te(parts), reduction_value(res)
                diff = abs(lhs - rhs)
                if diff > CHECK_CONTEXT_TARGET * 1e3 * scale:
                    what = f"relation {res}" if kind == "kernel" else "result"
                    failures[i] = f"{what} is off by {float(diff):.3e} at z={complex(z)}"
    return failures
