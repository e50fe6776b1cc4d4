"""The scripts run from a clean checkout, without PYTHONPATH, and print
exactly the text below; the output does not depend on the hash seed."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

ACCEPTANCE_OUTPUT = """\
PASS criterion 1: two-oracle agreement (90 forms x 140 extensions, 12600 exact matches)
PASS criterion 2: inverse law (90 forms constant over 140 extensions)
PASS criterion 3: flag independence (34 quadrics, 1197 flags, all elements identical)
PASS criterion 4: det telescoping (47 quadrics x 118 extensions, 5546 matches)
PASS criterion 5: relations cross-check (200 seeded pairs, zero disagreements, 115 equal mod Tate)
PASS criterion 6: real Pfister basis (32 determinants expanded and fingerprint-verified exactly)
PASS criterion 7: independence certificates (certified in descending Pfister order with nonzero witnesses; degenerate family refused)
PASS criterion 8: motivic equivalence criterion (595 pairs, verdicts identical on each (34 equivalent))
PASS criterion 9: model validation (real lattice (dim<=16, depth 4, 476 extensions) clean; 100 mutants caught)
"""

# --seed reaches every criterion that takes a seed: criterion 5 counts one
# more pair equal mod Tate at seed 7
ACCEPTANCE_OUTPUT_SEED_7 = ACCEPTANCE_OUTPUT.replace("115 equal mod Tate", "116 equal mod Tate")

DEMO_OUTPUT = """\
lattice: 36 extensions

twist of e^(5,0) along the lattice (tower | closed form):
  base                     slot 1:     (4)[9] |     (4)[9]
  base/(2,0)               slot 5:     (2)[5] |     (2)[5]
  base/(3,0)               slot 5:     (2)[5] |     (2)[5]
  base/(3,0)/(2,0)         slot 5:     (2)[5] |     (2)[5]
  base/(4,0)               slot 5:     (2)[5] |     (2)[5]
  base/(4,0)/(2,0)         slot 5:     (2)[5] |     (2)[5]
  base/(5,0)               slot 2:     (1)[2] |     (1)[2]
  base/(5,0)/(2,0)         slot 5:     (2)[5] |     (2)[5]

independence of the Pfister pure parts:
  eliminate e[(0,8)] via base/(9,0): (7)[15]
  eliminate e[(0,4)] via base/(5,0): (3)[7]
  eliminate e[(0,2)] via base/(3,0): (1)[3]
  eliminate e[(0,1)] via base/(2,0): (0)[1]

basis expansions of det(Q):
  det Q[(4,0)] -> r2: -2   (tate (6)[14])
  det Q[(8,0)] -> r3: -4   (tate (28)[60])
  det Q[(6,2)] -> r2: -2   (tate (16)[36])
  e[(0,4)]     -> r2: 1, r3: -1   (tate (4)[8])
"""


def _run(script: str, cwd, *args) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_scripts_run_without_pythonpath(tmp_path):
    acceptance = _run("run_acceptance.py", tmp_path)
    assert (acceptance.returncode, acceptance.stderr) == (0, "")
    assert acceptance.stdout == ACCEPTANCE_OUTPUT

    seeded = _run("run_acceptance.py", tmp_path, "--seed", "7")
    assert (seeded.returncode, seeded.stderr) == (0, "")
    assert seeded.stdout == ACCEPTANCE_OUTPUT_SEED_7

    demo = _run("real_picard_demo.py", tmp_path)
    assert (demo.returncode, demo.stderr) == (0, "")
    assert demo.stdout == DEMO_OUTPUT


SAMPLE = '''"""A module docstring,

over three lines."""
import os  # a comment after code

# a comment line
class Box:
    """A class docstring."""

    def size(self):
        """A function docstring,
        over two lines."""
        text = """a string that is
        not a docstring"""
        return len(text)
'''


def test_code_lines_counts_code_but_not_docstrings_comments_or_blank_lines(tmp_path):
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPTS / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE, encoding="utf-8")
    # import, class, def, both lines of the string, return
    assert module.code_lines(sample.read_text(encoding="utf-8")) == 6

    counted = _run("code_lines.py", tmp_path)
    assert (counted.returncode, counted.stderr) == (0, "")
    header, *modules, total = (line.split() for line in counted.stdout.splitlines())
    assert header == ["module", "code", "lines"] and total[0] == "total"
    assert [int(n) for n in total[1:]] == [sum(int(row[i]) for row in modules) for i in (1, 2)]
    # the physical lines, as wc -l counts them
    package = SCRIPTS.parent / "src" / "quadpic"
    assert {name: int(lines) for name, _, lines in modules} == {
        path.name: path.read_text(encoding="utf-8").count("\n") for path in package.glob("*.py")}
