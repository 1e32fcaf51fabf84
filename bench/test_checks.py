"""Each benchmark check accepts the program's real output and rejects a
corrupted copy of it.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py

The records come from small instances of the workloads, so the file runs
in a few seconds.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import M7, M7_LABELS, run_cli  # noqa: E402

SURVEY_PRIMES = [29, 43, 71, 113, 127]  # Basic is nonempty only at 113


def _bump_coefficient(text):
    """Change the constant coefficient of a certificate's text form."""
    head, _, tail = text.partition(" + ")
    return f"{int(head) + 1} + {tail}"


def _set_certificate(out, label, text):
    rec = json.loads(out)
    for s in rec["strata"]:
        if s["label"] == label:
            s["certificate"] = text
    return json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.fixture(scope="module")
def survey(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("cache"))
    common = ["-o", "json", "--cache-dir", cache]
    outs = [run_cli(["census", M7, "-p", str(p)] + common).out for p in SURVEY_PRIMES]
    replay = run_cli(["survey", M7, "--class", "1", "--count", "5"] + common).out
    return outs, replay


def _survey_errors(outs, replay, expected_basic=1):
    return checks.check_survey(SURVEY_PRIMES, outs, replay, [113], expected_basic)


def test_survey_accepts_program_output(survey):
    assert _survey_errors(*survey) == []
    assert checks.check_closed_form_oracle(29) == []


def test_survey_rejects_changed_certificate_coefficient(survey):
    outs, replay = survey
    rec = json.loads(outs[3])
    basic = next(s for s in rec["strata"] if s["label"] == "Basic")["certificate"]
    outs = list(outs)
    outs[3] = _set_certificate(outs[3], "Basic", _bump_coefficient(basic))
    assert any("Basic certificate differs" in e for e in _survey_errors(outs, "".join(outs)))


def test_survey_rejects_replay_with_one_byte_changed(survey):
    outs, replay = survey
    i = replay.index('"p":71') + 5
    changed = replay[:i] + "2" + replay[i + 1:]
    assert any("replay differs" in e for e in _survey_errors(outs, changed))


def test_survey_rejects_basic_count_off_by_one(survey):
    assert any("Basic nonempty at 1 primes" in e for e in _survey_errors(*survey, expected_basic=2))


def test_survey_rejects_certificate_below_the_lower_bound(survey):
    outs = list(survey[0])
    outs[4] = _set_certificate(outs[4], "W2", "1 + 1*t")
    errors = _survey_errors(outs, "".join(outs))
    assert any("p=127: deg W2 + deg Basic below" in e for e in errors)


@pytest.fixture(scope="module")
def long_orbit():
    return run_cli(["census", M7, "-p", "31", "-o", "json"]).out


def test_long_orbit_accepts_program_output(long_orbit):
    expected = {31: checks.nu_certificate_oracle(7, M7_LABELS, 31, 5)}
    assert checks.check_long_orbit([31], [long_orbit], expected) == []


def test_long_orbit_rejects_changed_certificate_coefficient(long_orbit):
    expected = {31: checks.nu_certificate_oracle(7, M7_LABELS, 31, 5)}
    text = json.loads(long_orbit)["strata"][-1]["certificate"]
    changed = _set_certificate(long_orbit, "Nu", _bump_coefficient(text))
    assert any("differs from the oracle" in e for e in checks.check_long_orbit([31], [changed], expected))


def test_long_orbit_rejects_square_factor(long_orbit):
    # (t - 2)^2 (t - 3) over F_31
    changed = _set_certificate(long_orbit, "Nu", "19 + 16*t + 24*t^2 + 1*t^3")
    assert any("not squarefree" in e for e in checks.check_long_orbit([31], [changed], {}))


def test_golden_certificates_match_the_census():
    golden = checks.load_golden()
    for p, cert in golden.items():
        out = run_cli(["census", M7, "-p", str(p), "-o", "json"]).out
        assert checks.parse_poly_text(json.loads(out)["strata"][-1]["certificate"]) == cert


WITNESS_CASES = [(29, 5), (43, 4)]


@pytest.fixture(scope="module")
def witness():
    return [
        run_cli(["witness", M7, "-p", str(p), "--b0", str(b0), "--dmax", "4", "--seed", "3",
                 "-o", "json"]).out
        for p, b0 in WITNESS_CASES
    ]


def _with(out, **fields):
    rec = json.loads(out)
    rec.update(fields)
    return json.dumps(rec)


def test_witness_accepts_program_output(witness):
    assert checks.check_witness(WITNESS_CASES, witness, 4) == []


def test_witness_rejects_count_off_by_one(witness):
    changed = [_with(witness[0], count=json.loads(witness[0])["count"] + 1), witness[1]]
    assert any("count" in e for e in checks.check_witness(WITNESS_CASES, changed, 4))


def test_witness_rejects_changed_certificate_coefficient(witness):
    cert = json.loads(witness[0])["certificate"]
    changed = [_with(witness[0], certificate=[cert[0] + 1] + cert[1:]), witness[1]]
    errors = checks.check_witness(WITNESS_CASES, changed, 4)
    assert any("does not divide" in e or "reducible" in e for e in errors)


def test_witness_rejects_missing_witness(witness):
    changed = [witness[0], _with(witness[1], found=False)]
    assert any("no witness reported" in e for e in checks.check_witness(WITNESS_CASES, changed, 4))


@pytest.fixture(scope="module")
def divisor():
    w = workloads.DivisorMultiplicity(seed=1)
    picked = [i for i, case in enumerate(w.cases) if case[0] == 5][:60]
    ops = w.ops(None, 0)
    cases = [w.cases[i] for i in picked]
    values = [ops[i].run() for i in picked]
    return cases, values


def test_divisor_accepts_program_output(divisor):
    cases, values = divisor
    assert checks.check_divisor(cases, values, range(len(cases))) == []


def test_divisor_rejects_multiplicity_above_its_bound(divisor):
    cases, values = divisor
    m, labels, p, base, j1, j2 = cases[0]
    values = [checks.multiplicity_bound(m, labels, p, base, j1, j2) + 1] + values[1:]
    assert any("outside" in e for e in checks.check_divisor(cases, values, []))


def test_divisor_rejects_multiplicity_the_oracle_disagrees_with(divisor):
    cases, values = divisor
    i = next(i for i, c in enumerate(cases) if checks.multiplicity_bound(*c) > values[i])
    values = list(values)
    values[i] += 1
    assert any("oracle" in e for e in checks.check_divisor(cases, values, [i]))
