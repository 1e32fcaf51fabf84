import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout, with demo 04's survey timing "(N.Ns)"
# masked; recorded before the chain builders and composites were merged
DEMO_SHA256 = {
    "01_monodromy_data.py": "c8477a4db3df333bd2fb8189a3979e19d382e252815d0433e9f36fb04462d1cc",
    "02_newton_polygons.py": "fb9ef68de674fcb6f8f5334c8ce00e03cd4a78876edf9c2d3429e9502dc307cd",
    "03_hasse_witt_entries.py": "83221bb7532614dbe7402091d03a3ab6e43177ef6adcc5fff2745045a2999196",
    "04_witnesses_census_survey.py": "814aee868df51d4d6ea94e2899abb51e7887c80227212af7298e6cf1c6602faf",
    "05_binomial_polynomials.py": "bd5fe9555596041a218e25705c3efcdd302bd67cc103894bf008cf7e0d57a4a6",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name,digest", sorted(DEMO_SHA256.items()))
def test_demo_runs_and_prints_the_recorded_output(name, digest):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CYCLOCOVER_CACHE_DIR", None)
    env.pop("CYCLOCOVER_WORKERS", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = re.sub(r"\(\d+\.\d+s\)", "(N.Ns)", proc.stdout)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
