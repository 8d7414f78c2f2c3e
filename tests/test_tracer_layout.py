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
spans.install(spans.Tracer())
import mpmath as mp
from multitangent import lab
from multitangent.words import Composition
assert lab.MtCombo.evaluate.__name__ == "wrapper"
lab.MtCombo({Composition((2,)): 1}).evaluate(mp.mpc(0.3, 0.7))
from multitangent import zetasum
assert zetasum.shifted_nested_sum.__name__ == "wrapper"
zetasum.shifted_nested_sum((2, 1), 0, target=1e-10)
"""


def test_span_tracer_installs_against_src():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
