"""Command line interface.

    mtk reduce 2,1,3
    mtk eval 2,2 --z 0.3+0.7j --direct
    mtk table --max-weight 6 --format json
    mtk relations --weight 6
    mtk project 3
    mtk cleanse 2,1,3
    mtk fourier 2,2 --n 2
    mtk verify --suite trifact

Exit codes: 0 all checks passed, 1 rejected input, 2 a numeric recheck
failed, a precision target was not reached or a projection is unavailable,
3 a table coverage limit was hit.  A JSON config file may override numeric settings:
{"target_abs_error": ..., "working_precision": ..., "truncation_cap": ...,
 "pole_guard": ...}; any other key is rejected (exit 1).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import sys

import click
import mpmath as mp

from .errors import (
    CoverageError,
    MultitangentError,
    NumericRecheckError,
    PrecisionUnreachableError,
    ProjectionUnavailableError,
)
from .mzv import NumericContext
from .numerics import (
    fourier_coefficient,
    multitangent_eval_direct,
    multitangent_eval_reduced,
)
from .reduction import reduce
from .verify import SUITES, run_suite
from .words import Composition
from . import lab

EXIT_RECHECK = 2
EXIT_COVERAGE = 3


def _load_context(config_path: str | None) -> NumericContext:
    if not config_path:
        return NumericContext()
    with open(config_path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object of numeric settings")
    fields = {f.name for f in dataclasses.fields(NumericContext)}
    unknown = sorted(set(raw) - fields)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return NumericContext(**raw)


class _Group(click.Group):
    """Reports package errors and rejected input with the documented exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (MultitangentError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            if isinstance(exc, CoverageError):
                sys.exit(EXIT_COVERAGE)
            if isinstance(
                exc,
                (NumericRecheckError, PrecisionUnreachableError, ProjectionUnavailableError),
            ):
                sys.exit(EXIT_RECHECK)
            sys.exit(1)


@click.group(cls=_Group)
@click.option("--config", type=click.Path(exists=True), default=None,
              help="JSON file with numeric settings.")
@click.pass_context
def main(ctx, config):
    """Exact and numeric toolkit for multitangent functions."""
    ctx.obj = _load_context(config)


@main.command("reduce")
@click.argument("sequence")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of text.")
@click.pass_obj
def reduce_cmd(nctx, sequence, as_json):
    """Reduce Te[SEQUENCE] into monotangents."""
    s = Composition.parse(sequence)
    result = reduce(s)
    if as_json:
        click.echo(json.dumps(result.to_json(), indent=2))
    else:
        click.echo(result.text())


@main.command("eval")
@click.argument("sequence")
@click.option("--z", "z_str", required=True, help="Evaluation point, e.g. 0.3+0.7j.")
@click.option("--direct/--reduced", default=True,
              help="Bilateral sums (default) or reduction-based evaluation.")
@click.pass_obj
def eval_cmd(nctx, sequence, z_str, direct):
    """Evaluate Te[SEQUENCE] at a point; prints one CSV row."""
    s = Composition.parse(sequence)
    z = mp.mpc(complex(z_str.replace(" ", "")))
    if direct:
        value = multitangent_eval_direct(s, z, nctx)
        method = "direct"
    else:
        value = multitangent_eval_reduced(s, z, nctx)
        method = "reduced"
    buf = io.StringIO()
    csv.writer(buf).writerow(
        [
            str(s),
            repr(float(mp.re(z))),  # the doubles evaluated, shortest round trip
            repr(float(mp.im(z))),
            mp.nstr(mp.re(value), 15),
            mp.nstr(mp.im(value), 15),
            method,
            f"{nctx.target_abs_error:.1e}",
        ]
    )
    click.echo(buf.getvalue(), nl=False)


@main.command("table")
@click.option("--max-weight", "max_weight", type=int, default=6)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text")
@click.option("--divergent", is_flag=True, help="Include regularized divergent rows.")
@click.option("--output", type=click.Path(), default=None)
@click.pass_obj
def table_cmd(nctx, max_weight, fmt, divergent, output):
    """Emit the reduction table up to a weight."""
    content = lab.table_emit(max_weight, fmt, include_divergent=divergent, ctx=nctx)
    if output:
        with open(output, "w") as fh:
            fh.write(content)
        click.echo(f"wrote {output}")
    else:
        click.echo(content, nl=False)


@main.command("relations")
@click.option("--weight", type=int, required=True)
@click.pass_obj
def relations_cmd(nctx, weight):
    """Rational relation kernel between convergent multitangents."""
    kernel = lab.relation_kernel(weight, nctx)
    click.echo(f"weight {weight}: kernel dimension {len(kernel)}")
    for combo in kernel:
        click.echo(f"  0 = {combo}")


@main.command("project")
@click.argument("sequence")
@click.pass_obj
def project_cmd(nctx, sequence):
    """Express Ze[SEQUENCE]*Te^2 as a multitangent combination."""
    sigma = Composition.parse(sequence)
    combo = lab.projection(sigma, nctx)
    click.echo(f"Ze[{sigma}]·Te^2 = {combo}")


@main.command("cleanse")
@click.argument("sequence")
@click.pass_obj
def cleanse_cmd(nctx, sequence):
    """Rewrite Te[SEQUENCE] over multitangents with all parts >= 2."""
    s = Composition.parse(sequence)
    combo = lab.unit_cleanse(s, nctx)
    click.echo(f"Te[{s}] = {combo}")


@main.command("fourier")
@click.argument("sequence")
@click.option("--n", type=int, default=1, help="Fourier index (nonzero).")
@click.pass_obj
def fourier_cmd(nctx, sequence, n):
    """Fourier coefficient of Te[SEQUENCE]."""
    s = Composition.parse(sequence)
    value = fourier_coefficient(s, n, nctx)
    click.echo(f"T_hat_{n}[{s}] = {mp.nstr(value, 15)}")


@main.command("verify")
@click.option("--suite", type=click.Choice(list(SUITES)), required=True)
@click.pass_obj
def verify_cmd(nctx, suite):
    """Run one of the analytic verification suites."""
    result = run_suite(suite, nctx)
    click.echo(result.summary())
    for label, deviation in result.failures:
        click.echo(f"  violation: {label} -> {deviation:.3e}", err=True)
    if not result.ok:
        sys.exit(EXIT_RECHECK)


if __name__ == "__main__":
    main()
