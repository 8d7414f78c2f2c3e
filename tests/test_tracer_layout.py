"""The benchmark's span tracer wraps functions and methods of the program by
name; a class-layout change that moves one of them must fail here, not only
in a traced benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import workloads
workloads.import_program()
import spans
tracer = spans.Tracer()
spans.install(tracer)
import mpmath as mp
from multitangent import lab
from multitangent.words import Composition
assert lab.MtCombo.evaluate.__name__ == "wrapper"
lab.MtCombo({Composition((2,)): 1}).evaluate(mp.mpc(0.3, 0.7))
from multitangent import zetasum
assert zetasum.shifted_nested_sum.__name__ == "wrapper"
zetasum.shifted_nested_sum((2, 1), 0, target=1e-10)
from multitangent.basis_table import MzvBasisTable
assert isinstance(MzvBasisTable.__dict__["load"], classmethod)
assert MzvBasisTable.__dict__["load"].__func__.__name__ == "wrapper"
assert MzvBasisTable.substitute.__name__ == "wrapper"
# the nested sums of a direct evaluation, of a zeta value and of the fragment
# values of a cold reduced evaluation, and the table substitution of a cold
# slot vector, are spans under their caller's span
from multitangent import mzv, numerics
from multitangent.exact import CoeffExpr
for name, child, call in (
    ("numerics.multitangent_eval_direct", "zetasum.shifted_nested_sum",
     lambda: numerics.multitangent_eval_direct(Composition((2, 3)), mp.mpc(0.4, 0.9))),
    ("mzv.mzv_numeric", "zetasum.shifted_nested_sum",
     lambda: mzv.mzv_numeric(CoeffExpr.symbol(Composition((3, 2))))),
    ("numerics.multitangent_eval_reduced", "zetasum.shifted_nested_sum",
     lambda: numerics.multitangent_eval_reduced(Composition((3, 1, 2)), mp.mpc(0.3, 0.8))),
    ("lab.slot_vector", "basis_table.MzvBasisTable.substitute",
     lambda: lab.slot_vector(Composition((2, 1, 3)))),
):
    caller, start = tracer.names.index(name), len(tracer.kind)
    kind = tracer.names.index(child)
    call()
    assert any(
        tracer.kind[i] == kind and tracer.kind[tracer.parent[i]] == caller
        for i in range(start, len(tracer.kind))
    ), name
"""


# A cold cleansing still reaches the layers the per-layer metrics name: the
# solve through linalg.rref and the slot vectors through mzv.linearize and
# MzvBasisTable.substitute, each a span under the cleansing's span.
CLEANSE_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import workloads
workloads.import_program()
import spans
tracer = spans.Tracer()
spans.install(tracer)
from multitangent import lab
from multitangent.basis_table import MzvBasisTable
from multitangent.words import Composition
MzvBasisTable.shared()
start = len(tracer.kind)
lab.unit_cleanse(Composition((2, 1, 3)), recheck=False)
cleanse = tracer.names.index("lab.unit_cleanse")

def under_cleanse(i):
    while i >= 0:
        if tracer.kind[i] == cleanse:
            return True
        i = tracer.parent[i]
    return False

for name in ("linalg.rref", "mzv.linearize", "basis_table.MzvBasisTable.substitute"):
    kind = tracer.names.index(name)
    assert any(
        tracer.kind[i] == kind and under_cleanse(i)
        for i in range(start, len(tracer.kind))
    ), name
"""


def _run(script: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_span_tracer_installs_against_src():
    _run(SCRIPT)


def test_cold_cleansing_records_solver_and_substitution_spans():
    _run(CLEANSE_SCRIPT)
