import argparse
import collections
import hashlib
import itertools
import json
import math
import random
import re
import time

import pytest

from cyclocover import ff, hassewitt, strata
from cyclocover.cli import RecordCache, RunConfig, build_config, main, read_config_file
from cyclocover.errors import InvalidInput, ParamOutOfRange
from cyclocover.fabc import FabcParams, fabc
from cyclocover.ff import FpUniPoly, is_prime_u64
from cyclocover.hassewitt import OrbitContext, h1, phi_entry, psi_entry
from cyclocover.monodromy import MonodromyDatum, canonicalize, parse_datum, signature
from cyclocover.strata import canonical_json, census, prime_survey

M7 = "7:4:3,1,1,2"

CENSUS_13_LINE = (
    '{"class":6,"p":13,"strata":['
    '{"certificate":null,"dim":2,"label":"MuOrdinary","nonempty":true},'
    '{"certificate":null,"dim":1,"label":"W2","nonempty":false},'
    '{"certificate":null,"dim":1,"label":"W3","nonempty":false},'
    '{"certificate":"1 + 1*t","dim":0,"label":"Basic","nonempty":true}]}'
)


@pytest.fixture(autouse=True)
def _hermetic_env(monkeypatch):
    # ambient env must not leak into tests that exercise the defaults
    monkeypatch.delenv("CYCLOCOVER_CACHE_DIR", raising=False)
    monkeypatch.delenv("CYCLOCOVER_WORKERS", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _ns(**overrides):
    base = dict(seed=None, dmax=None, term_budget=None, workers=None,
                output=None, cache_dir=None, config=None)
    base.update(overrides)
    return argparse.Namespace(**base)


# ---------------------------------------------------------------------------
# datum subcommand


def test_datum_signature_doc_example(capsys):
    code, out, _ = run(capsys, "datum", "signature", M7)
    assert code == 0
    assert out == "0,1,1,1,1,2\n"


def test_datum_validate_and_genus(capsys):
    code, out, _ = run(capsys, "datum", "validate", M7)
    assert code == 0
    assert "7:4:3,1,1,2" in out and "genus 6" in out

    code, out, _ = run(capsys, "datum", "genus", M7, "-o", "json")
    assert code == 0
    assert json.loads(out) == {"genus": 6}


def test_datum_canon_matches_library(capsys):
    code, out, _ = run(capsys, "datum", "canon", M7)
    assert code == 0
    assert out.strip() == canonicalize(parse_datum(M7)).to_text()


def test_datum_orbits_json(capsys):
    code, out, _ = run(capsys, "datum", "orbits", M7, "-p", "13", "-o", "json")
    assert code == 0
    orbits = json.loads(out)["orbits"]
    assert sorted(sorted(o["members"]) for o in orbits) == [[1, 6], [2, 5], [3, 4]]
    assert all(o["length"] == 2 and o["g"] == 2 for o in orbits)


def test_datum_orbits_needs_prime(capsys):
    code, _, err = run(capsys, "datum", "orbits", M7)
    assert code == 4
    assert err.startswith("error[")


def test_bad_datum_strings(capsys):
    assert run(capsys, "datum", "genus", "7:4:x,1,1,2")[0] == 4
    assert run(capsys, "datum", "genus", "7:4")[0] == 4
    code, _, err = run(capsys, "datum", "genus", "7:4:7,1,1,5")
    assert code == 4
    assert "error[zero-label]" in err


def test_unknown_subcommand_and_empty(capsys):
    assert run(capsys, "frobnicate")[0] == 4
    assert run(capsys)[0] == 4


def test_version_exits_zero(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip()


# ---------------------------------------------------------------------------
# mu-ord


def test_mu_ord_human_golden(capsys):
    code, out, _ = run(capsys, "mu-ord", M7, "-p", "13")
    assert code == 0
    assert out.strip() == "0^4 1/2^4 1^4"


def test_mu_ord_json(capsys):
    code, out, _ = run(capsys, "mu-ord", M7, "-p", "29", "-o", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["class"] == 1
    assert obj["polygon"] == [["0", 6], ["1", 6]]


def test_mu_ord_rejects_composite(capsys):
    code, _, err = run(capsys, "mu-ord", M7, "-p", "15")
    assert code == 4
    assert "error[param-out-of-range]" in err


# ---------------------------------------------------------------------------
# hw


def test_hw_phi_specialized_golden(capsys):
    code, out, _ = run(capsys, "hw", "phi", M7, "-p", "13",
                       "--tau", "3", "--jp", "1", "--j", "1", "--specialize")
    assert code == 0
    assert out.strip() == "5*t^4 + 5*t^5"


def test_hw_phi_json_matches_library(capsys):
    code, out, _ = run(capsys, "hw", "phi", M7, "-p", "13",
                       "--tau", "3", "--jp", "1", "--j", "1", "-o", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["specialized"] is False
    assert obj["entry"] == phi_entry(parse_datum(M7), 13, 3, 1, 1).to_json()


def test_hw_psi_json_matches_library(capsys):
    code, out, _ = run(capsys, "hw", "psi", M7, "-p", "13",
                       "--tau", "6", "--jp", "1", "--j", "1", "-o", "json")
    assert code == 0
    assert json.loads(out)["entry"] == psi_entry(parse_datum(M7), 13, 6, 1, 1).to_json()


def test_hw_psi_hypothesis_exit_two(capsys):
    code, _, err = run(capsys, "hw", "psi", M7, "-p", "13",
                       "--tau", "2", "--jp", "1", "--j", "1")
    assert code == 2
    assert "error[psi-hypothesis-not-met]" in err


def test_hw_h1_json_matches_library(capsys):
    code, out, _ = run(capsys, "hw", "h1", M7, "-p", "13", "--b0", "4", "-o", "json")
    assert code == 0
    obj = json.loads(out)
    ctx = OrbitContext(parse_datum(M7), 13, 4)
    assert obj["h1"] == h1(ctx).to_json()
    assert obj["chars"] == list(ctx.chars)
    assert obj["i0"] == ctx.i0


def test_hw_missing_flags(capsys):
    assert run(capsys, "hw", "phi", M7, "-p", "13", "--jp", "1", "--j", "1")[0] == 4
    assert run(capsys, "hw", "h1", M7, "-p", "13")[0] == 4


def test_hw_budget_exit_three(capsys):
    code, _, err = run(capsys, "hw", "h0", M7, "-p", "113", "--b0", "4",
                       "--term-budget", "1")
    assert code == 3
    assert "error[degree-budget-exceeded]" in err


@pytest.mark.parametrize("argv", [
    ("hw", "phi", M7, "-p", "1009", "--tau", "3", "--jp", "1", "--j", "1"),
    ("hw", "h0", M7, "-p", "1009", "--b0", "4"),
])
def test_hw_over_budget_slice_is_refused_before_it_is_walked(capsys, argv):
    # the slice has about 10^8 terms; walking it up to the budget took
    # about 50 s on a 2-vCPU x86-64 host, counting it takes microseconds
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--term-budget", "1000000")
    assert time.perf_counter() - start < 10
    assert code == 3 and out == ""
    assert err == "error[degree-budget-exceeded]: graded slice exceeds 1000000 terms\n"


@pytest.mark.parametrize("p", ["10000019", "10000339"])
def test_hw_h1_of_one_phi_entry_is_refused_before_it_is_built(capsys, monkeypatch, p):
    # p = 1 and -1 mod 7: the chain is one phi entry of degree ~p / 7;
    # building it first took 66 s on a 2-vCPU x86-64 host, and the
    # refusal is the line witness prints for the same chain and budget
    budget = ("--b0", "5", "--term-budget", "1000000")
    monkeypatch.setattr(hassewitt, "specialized_chain", lambda ctx: pytest.fail("chain built"))
    start = time.perf_counter()
    code, out, err = run(capsys, "hw", "h1", M7, "-p", p, *budget)
    assert time.perf_counter() - start < 10
    assert (code, out) == (3, "")
    assert err.startswith("error[degree-budget-exceeded]: composite degree ~")
    assert run(capsys, "witness", M7, "-p", p, "--seed", "1", *budget) == (3, "", err)


# ---------------------------------------------------------------------------
# witness


def test_witness_requires_seed(capsys):
    code, _, err = run(capsys, "witness", M7, "-p", "29", "--b0", "5")
    assert code == 4
    assert "--seed" in err


def test_witness_found_json(capsys):
    code, out, _ = run(capsys, "witness", M7, "-p", "29", "--b0", "5",
                       "--dmax", "2", "--seed", "7", "-o", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] is True
    assert obj["degree"] == 2
    assert obj["count"] == 4
    assert obj["branch_order"] == [0, 1, 2, 3]
    # certificate is a monic quadratic factor of the stripped chain poly
    assert len(obj["certificate"]) == 3 and obj["certificate"][-1] == 1
    assert obj["alpha"] is not None


def test_witness_degree_cap_blocks(capsys):
    # every factor at p=29 is quadratic, so a cap of 1 finds nothing but
    # still reports the smallest certificate
    code, out, _ = run(capsys, "witness", M7, "-p", "29", "--b0", "5",
                       "--dmax", "1", "--seed", "7", "-o", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] is False
    assert obj["alpha"] is None
    assert obj["degree"] == 2
    assert obj["count"] == 4


def test_witness_deterministic_bytes(capsys):
    argv = ("witness", M7, "-p", "113", "--b0", "5", "--dmax", "3",
            "--seed", "42", "-o", "json")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second and first[0] == 0


# ---------------------------------------------------------------------------
# census


def test_census_json_golden(capsys):
    code, out, _ = run(capsys, "census", M7, "-p", "13", "--seed", "1", "-o", "json")
    assert code == 0
    assert out == CENSUS_13_LINE + "\n"


def test_census_human(capsys):
    code, out, _ = run(capsys, "census", M7, "-p", "13")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "datum 7:4:3,1,1,2"
    assert lines[1] == "p=13 class=6"
    assert any("Basic" in ln and "cert 1 + 1*t" in ln for ln in lines)
    assert any("W2" in ln and "empty" in ln for ln in lines)


def test_census_csv(capsys):
    code, out, _ = run(capsys, "census", M7, "-p", "13", "-o", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,class,label,dim,nonempty,certificate"
    assert len(lines) == 5
    assert lines[1] == "13,6,MuOrdinary,2,true,"
    assert lines[4] == "13,6,Basic,0,true,1 + 1*t"


def test_census_unsupported_family(capsys):
    code, _, err = run(capsys, "census", "11:4:1,2,3,5", "-p", "23")
    assert code == 4
    assert "error[unsupported-family]" in err


def test_csv_only_for_reports(capsys):
    code, _, err = run(capsys, "mu-ord", M7, "-p", "13", "-o", "csv")
    assert code == 4
    assert "csv" in err


# ---------------------------------------------------------------------------
# survey


def test_survey_human_summary(capsys):
    code, out, _ = run(capsys, "survey", M7, "--class", "6", "--count", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("p=13")
    assert lines[-1] == "3/3 basic-nonempty"


def test_survey_json_matches_census(capsys):
    code, out, _ = run(capsys, "survey", M7, "--class", "6", "--count", "3",
                       "-o", "json")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    d = parse_datum(M7)
    for line, p in zip(lines, (13, 41, 83)):
        assert line == census(d, p, allow_small=True).to_json_line()


def test_survey_worker_pool_identical(capsys):
    base = ("survey", M7, "--class", "6", "--count", "3", "-o", "json")
    solo = run(capsys, *base, "--workers", "1")
    pooled = run(capsys, *base, "--workers", "2")
    assert solo == pooled and solo[0] == 0


def test_survey_count_zero(capsys):
    code, out, _ = run(capsys, "survey", M7, "--class", "6", "--count", "0")
    assert code == 0
    assert out == ""


@pytest.mark.parametrize("datum,primes", [
    ("5:4:1,1,1,2", (7, 17, 37)),
    (M7, (23, 37, 79)),
])
def test_survey_of_the_class_of_two_starts_at_its_first_odd_prime(capsys, datum, primes):
    # the class used to start at 2, where no census runs, and refused whole
    code, out, err = run(capsys, "survey", datum, "--class", "2", "--count", "3", "-o", "json")
    assert (code, err) == (0, "")
    d = parse_datum(datum)
    assert out.splitlines() == [census(d, p, allow_small=True).to_json_line() for p in primes]


def test_survey_csv(capsys):
    code, out, _ = run(capsys, "survey", M7, "--class", "6", "--count", "2",
                       "-o", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,class,label,dim,nonempty,certificate"
    assert len(lines) == 1 + 2 * 4
    assert lines[1].startswith("13,6,MuOrdinary")
    assert lines[5].startswith("41,6,MuOrdinary")


# ---------------------------------------------------------------------------
# cache


def _record_files(cache_dir):
    """{name: (bytes, mtime_ns)} of every file in a cache directory."""
    return {path.name: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in sorted(cache_dir.iterdir())}


def _record_path(cache_dir, p):
    return cache_dir / (RecordCache.key(parse_datum(M7), p) + ".json")


def test_cache_roundtrip(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    argv = ("survey", M7, "--class", "6", "--count", "2", "-o", "json",
            "--cache-dir", str(cache_dir))
    first = run(capsys, *argv)
    assert first[0] == 0
    stored = _record_files(cache_dir)
    assert sorted(stored) == sorted(_record_path(cache_dir, p).name for p in (13, 41))

    second = run(capsys, *argv)
    assert second == first
    assert _record_files(cache_dir) == stored  # replayed, no file rewritten

    # census shares the survey's cache entries
    code, out, _ = run(capsys, "census", M7, "-p", "13", "-o", "json",
                       "--cache-dir", str(cache_dir))
    assert code == 0
    assert out == CENSUS_13_LINE + "\n"
    assert _record_files(cache_dir) == stored


@pytest.mark.parametrize("damage", [
    b"not json at all\n",
    b"\xff\xfe garbage\n",                   # not UTF-8
    b"[" * 200000,                              # too deep to parse
    CENSUS_13_LINE.encode()[:-40],              # torn
], ids=["not-json", "not-utf8", "deep", "torn"])
def test_damaged_cache_record_is_a_miss_and_is_repaired(tmp_path, capsys, damage):
    argv = ("census", M7, "-p", "13", "-o", "json")
    fresh = run(capsys, *argv)
    assert fresh == (0, CENSUS_13_LINE + "\n", "")
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    path = _record_path(cache_dir, 13)
    path.write_bytes(damage)
    assert run(capsys, *argv, "--cache-dir", str(cache_dir)) == fresh
    # the recomputed record replaced the damaged one and now replays
    assert path.read_text() == CENSUS_13_LINE
    assert run(capsys, *argv, "--cache-dir", str(cache_dir)) == fresh


@pytest.mark.parametrize("stored", [
    lambda rec29: rec29,                        # 29's file copied over 13's
    lambda rec29: dict(rec29, p=13),            # 13 with 29's class
], ids=["other-prime", "other-class"])
def test_cache_record_of_another_prime_is_a_miss_and_is_rewritten(tmp_path, capsys, stored):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    path = _record_path(cache_dir, 13)
    rec29 = census(parse_datum(M7), 29).to_json_record()
    path.write_text(canonical_json(stored(rec29)))
    argv = ("census", M7, "-p", "13", "-o", "json", "--cache-dir", str(cache_dir))
    assert run(capsys, *argv) == (0, CENSUS_13_LINE + "\n", "")
    assert path.read_text() == CENSUS_13_LINE
    assert run(capsys, *argv) == (0, CENSUS_13_LINE + "\n", "")


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CYCLOCOVER_CACHE_DIR", str(tmp_path / "envcache"))
    code, out, _ = run(capsys, "census", M7, "-p", "13", "-o", "json")
    assert code == 0
    assert _record_path(tmp_path / "envcache", 13).read_text() == CENSUS_13_LINE


def test_old_cache_file_is_neither_read_nor_changed(tmp_path, capsys):
    # a census-cache.jsonl line under 13's key holding 29's record: were
    # it read, census -p 13 would replay the wrong record
    wrong = census(parse_datum(M7), 29).to_json_record()
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    old = cache_dir / "census-cache.jsonl"
    old.write_text(json.dumps({"key": RecordCache.key(parse_datum(M7), 13), "record": wrong}) + "\n")
    before = _record_files(cache_dir)
    assert run(capsys, "census", M7, "-p", "13", "-o", "json",
               "--cache-dir", str(cache_dir)) == (0, CENSUS_13_LINE + "\n", "")
    assert _record_files(cache_dir)[old.name] == before[old.name]


def test_old_cache_path_that_is_a_directory_is_ignored(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    (cache_dir / "census-cache.jsonl").mkdir(parents=True)
    assert run(capsys, "census", M7, "-p", "13", "-o", "json",
               "--cache-dir", str(cache_dir)) == (0, CENSUS_13_LINE + "\n", "")
    assert _record_path(cache_dir, 13).read_text() == CENSUS_13_LINE


def test_stray_temporary_record_file_is_ignored(tmp_path, capsys):
    # a writer stopped before its rename leaves <key>.json.<pid>.tmp; it
    # holds a valid record, but only <key>.json is ever read
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    path = _record_path(cache_dir, 13)
    stray = path.with_name(path.name + ".0.tmp")
    stray.write_text(canonical_json(census(parse_datum(M7), 29).to_json_record()))
    before = stray.read_bytes()
    assert run(capsys, "census", M7, "-p", "13", "-o", "json",
               "--cache-dir", str(cache_dir)) == (0, CENSUS_13_LINE + "\n", "")
    assert path.read_text() == CENSUS_13_LINE and stray.read_bytes() == before


@pytest.mark.parametrize("argv", [
    ("census", M7, "-p", "13", "-o", "json"),
    ("survey", M7, "--class", "6", "--count", "3"),
])
@pytest.mark.parametrize("unwritable", ["cache-dir-is-a-file", "record-path-is-a-directory"])
def test_unwritable_cache_is_invalid_input(tmp_path, capsys, argv, unwritable):
    cache_dir = tmp_path / "cache"
    if unwritable == "cache-dir-is-a-file":
        cache_dir.write_text("not a directory\n")
    else:
        _record_path(cache_dir, 13).mkdir(parents=True)
    code, out, err = run(capsys, *argv, "--cache-dir", str(cache_dir))
    assert (code, out) == (4, "")
    assert err.startswith(f"error[invalid-input]: cannot write the census cache in {cache_dir}: ")
    assert err.count("\n") == 1
    if unwritable == "record-path-is-a-directory":
        # the failed write leaves no temporary file behind
        assert [path.name for path in cache_dir.iterdir()] == [_record_path(cache_dir, 13).name]


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("congruence", [1, 6])
def test_survey_stdout_is_the_library_survey(tmp_path, capsys, congruence, workers, cached):
    # the command line only prints prime_survey's records: one canonical
    # JSON line per record, or census_csv of the records, byte for byte
    cache_args = ("--cache-dir", str(tmp_path / "cli")) if cached else ()
    lib_cache = RecordCache(str(tmp_path / "lib")) if cached else None
    sv = prime_survey(parse_datum(M7), congruence, 4, workers=workers,
                      allow_small=True, cache=lib_cache)
    json_lines = "".join(canonical_json(rec) + "\n" for rec in sv.records)
    for fmt, text in (("json", json_lines), ("csv", strata.census_csv(sv.records))):
        code, out, _ = run(capsys, "survey", M7, "--class", str(congruence),
                           "--count", "4", "-o", fmt, "--workers", str(workers),
                           *cache_args)
        assert code == 0
        assert out == text


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cache_record_files_after_census_then_survey(tmp_path, capsys, workers):
    # one file per record, each the canonical_json of a fresh census
    # record, whatever the worker count
    cache_dir = tmp_path / "cache"
    assert run(capsys, "census", M7, "-p", "41", "-o", "json",
               "--cache-dir", str(cache_dir))[0] == 0
    assert run(capsys, "survey", M7, "--class", "6", "--count", "3",
               "--workers", workers, "--cache-dir", str(cache_dir))[0] == 0
    d = parse_datum(M7)
    assert {name: data for name, (data, _) in _record_files(cache_dir).items()} == {
        _record_path(cache_dir, p).name: canonical_json(census(d, p, allow_small=True).to_json_record()).encode()
        for p in (13, 41, 83)
    }
    # the same records as the JSON-lines file this layout replaced, whose
    # digest was recorded with the census at 41 stored first, then 13, 83
    lines = "".join(
        canonical_json({"key": RecordCache.key(d, p),
                        "record": json.loads(_record_path(cache_dir, p).read_text())}) + "\n"
        for p in (41, 13, 83)
    )
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "286b54d134aba75d652740c4acf64b7c9ad8480809588039c925fb5e778af4a9"
    )


# ---------------------------------------------------------------------------
# config resolution


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\nworkers = 3\noutput=json\n")
    assert read_config_file(str(path)) == {"workers": "3", "output": "json"}

    path.write_text("no_equals_here\n")
    with pytest.raises(InvalidInput):
        read_config_file(str(path))
    path.write_text("bogus=1\n")
    with pytest.raises(InvalidInput):
        read_config_file(str(path))


def test_config_precedence(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("workers=4\ncache_dir=/from/file\nterm_budget=123\n")

    cfg = build_config(_ns(config=str(path)))
    assert cfg.workers == 4 and cfg.cache_dir == "/from/file"
    assert cfg.term_budget == 123

    monkeypatch.setenv("CYCLOCOVER_WORKERS", "8")
    monkeypatch.setenv("CYCLOCOVER_CACHE_DIR", "/from/env")
    cfg = build_config(_ns(config=str(path)))
    assert cfg.workers == 8 and cfg.cache_dir == "/from/env"

    cfg = build_config(_ns(config=str(path), workers=2, cache_dir="/from/flag"))
    assert cfg.workers == 2 and cfg.cache_dir == "/from/flag"


@pytest.mark.parametrize("config_line,flag", [
    (None, ""),
    ("cache_dir=", None),
    ("cache_dir=c", ""),
])
def test_empty_cache_dir_means_no_cache(tmp_path, capsys, monkeypatch, config_line, flag):
    # an empty cache_dir used to compute the census and then fail to
    # write it in '', exiting 4; now it means no cache at every layer,
    # as an empty CYCLOCOVER_CACHE_DIR always did
    monkeypatch.chdir(tmp_path)
    argv = ["census", M7, "-p", "13", "-o", "json"]
    config = None
    if config_line is not None:
        config = tmp_path / "run.cfg"
        config.write_text(config_line + "\n")
        argv += ["--config", str(config)]
    if flag is not None:
        argv += ["--cache-dir", flag]
    assert build_config(_ns(config=config and str(config), cache_dir=flag)).cache_dir is None
    assert run(capsys, *argv) == (0, CENSUS_13_LINE + "\n", "")
    assert [f.name for f in tmp_path.iterdir()] == ([] if config is None else ["run.cfg"])


def test_config_defaults():
    cfg = build_config(_ns())
    assert cfg.seed is None and cfg.workers == 1 and cfg.output == "human"


def test_config_file_used_by_main(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("output=json\n")
    code, out, _ = run(capsys, "census", M7, "-p", "13", "--config", str(path))
    assert code == 0
    assert out == CENSUS_13_LINE + "\n"
    # explicit flag beats the file
    code, out, _ = run(capsys, "census", M7, "-p", "13", "--config", str(path),
                       "-o", "human")
    assert code == 0
    assert out.startswith("datum ")


def test_config_file_that_is_not_utf8_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"workers=\xff\n")
    code, out, err = run(capsys, "mu-ord", M7, "-p", "29", "--config", str(path))
    assert (code, out) == (4, "")
    assert err.startswith(f"error[invalid-input]: cannot read config file {path}: ")
    assert err.count("\n") == 1


def test_runconfig_invariants():
    with pytest.raises(ParamOutOfRange):
        RunConfig(term_budget=0)
    with pytest.raises(ParamOutOfRange):
        RunConfig(workers=0)
    with pytest.raises(ParamOutOfRange):
        RunConfig(dmax=0)
    with pytest.raises(InvalidInput):
        RunConfig(output="xml")
    with pytest.raises(ParamOutOfRange):
        RunConfig(seed=2**70)
    assert RunConfig().term_budget >= 1


def test_bad_env_workers(monkeypatch, capsys):
    monkeypatch.setenv("CYCLOCOVER_WORKERS", "many")
    code, _, err = run(capsys, "census", M7, "-p", "13")
    assert code == 4
    assert "CYCLOCOVER_WORKERS" in err


# ---------------------------------------------------------------------------
# clutch


def test_clutch_unit_label(capsys):
    code, out, _ = run(capsys, "clutch", M7, "7:3:5,1,1", "-p", "13", "-o", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["datum"] == {"m": 7, "r": 5, "a": [3, 1, 1, 1, 1]}
    assert obj["epsilon"] == 0
    assert obj["agrees"] is True
    assert obj["polygon"] == obj["composed"]


def test_clutch_nonunit_label(capsys):
    code, out, _ = run(capsys, "clutch", "8:3:1,3,4", "8:3:4,1,3", "-p", "3",
                       "-o", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["epsilon"] == 3
    assert obj["agrees"] is True


def test_clutch_without_prime(capsys):
    code, out, _ = run(capsys, "clutch", M7, "7:3:5,1,1", "-o", "json")
    assert code == 0
    obj = json.loads(out)
    assert "polygon" not in obj and obj["epsilon"] == 0


def test_clutch_not_admissible(capsys):
    code, _, err = run(capsys, "clutch", M7, "7:3:1,2,4")
    assert code == 4
    assert "error[not-admissible]" in err


# ---------------------------------------------------------------------------
# fabc


def test_fabc_poly(capsys):
    code, out, _ = run(capsys, "fabc", "--a", "5", "--b", "7", "--c", "4",
                       "-p", "13", "-o", "json")
    assert code == 0
    assert json.loads(out)["poly"] == fabc(FabcParams(5, 7, 4, 13)).to_json()


def test_fabc_strip_reconstructs(capsys):
    code, out, _ = run(capsys, "fabc", "strip", "--a", "5", "--b", "7",
                       "--c", "9", "-p", "13", "-o", "json")
    assert code == 0
    obj = json.loads(out)
    red = obj["reduced"]
    rebuilt = fabc(FabcParams(red["a"], red["b"], red["c"], red["p"]))
    assert rebuilt.to_json() == obj["reduced_poly"]
    field = rebuilt.field
    t_power = FpUniPoly(field, [0] * obj["t_power"] + [1])
    expected = (rebuilt * t_power).scale(obj["sign"] % field.p)
    one_minus = type(rebuilt)(field, [field.p - 1, 1])
    for _ in range(obj["t1_power"]):
        expected = expected * one_minus
    assert expected == fabc(FabcParams(5, 7, 9, 13))


def test_fabc_rejects_bad_params(capsys):
    code, _, err = run(capsys, "fabc", "--a", "5", "--b", "7", "--c", "40",
                       "-p", "13")
    assert code == 4
    assert err.startswith("error[")


# ---------------------------------------------------------------------------
# byte-identity guard: sha256 of stdout, recorded before the polynomial
# kernels (gcd, division, multiplication) were replaced by faster ones

STDOUT_SHA256 = [
    ("census 7:4:3,1,1,2 -p 29 -o json", "1982b9c52a0bdfd5dd694d7afc4ea7739749f9eb790d7638da1f27644d1b02ce"),
    ("census 7:4:3,1,1,2 -p 113 -o json", "957f2e21bfdff5ceef6e65cc3c9e1b7a6ed2b2232cf1d0c803fab7a452502cae"),
    ("census 7:4:3,1,1,2 -p 151 -o json", "628fe01eedff12c182c78f9b58fd60eda1f96fbb0e472ad131b56132888b46f9"),
    ("census 7:4:3,1,1,2 -p 179 -o json", "746efd4ee8a929a38aa7d47fe6c7ff5c9f887fcf2861b4a131c7455ddde94bf2"),
    ("census 7:4:3,1,1,2 -p 4621 -o json", "f746b3c8dcf03c973a2557c9116fd196adefa4a38ea58085f432aeef17938b1e"),
    ("survey 7:4:3,1,1,2 --class 1 --count 12", "8d8df4163581f395f4b8cbeb48b19ac6cf8f3df186f740de38caa0e0219a7c15"),
    ("survey 7:4:3,1,1,2 --class 6 --count 12", "4dd1fe85b3265577a0f981810d7e8760ecad90867e7b5e535c84147a36b4b778"),
    ("witness 7:4:3,1,1,2 -p 113 --b0 4 --dmax 4 --seed 7", "77f0a0eb10be04ebb1db44ff3ed55705c07e9af0f200e7c196fef647f51438cf"),
    ("hw h1 7:4:3,1,1,2 -p 151 --b0 2", "daf1b87ebb79a632c5e7d2cac580712fb068ba3b8adabab77c28b4db39db0ddf"),
    ("hw h1 7:4:3,1,1,2 -p 151 --b0 5", "f6a63c35fd75b8a5e479d00352fba697443c544148382d47358e80aff5960ce9"),
]


@pytest.mark.parametrize("argv,digest", STDOUT_SHA256)
def test_stdout_is_byte_identical_to_the_recorded_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# recorded before census took the radicals of the p = +-1 mod m classes
# from the f(a,b,c) closed forms instead of from h1 and gcd(f, f')

CLOSED_FORM_SHA256 = [
    ("census 7:4:3,1,1,2 -p 41 -o json", "5ecf199e37b1374789865a4c48db70e9aa6138133c23ecc34ea1b254636c7329"),
    ("census 7:4:3,1,1,2 -p 223 -o json", "31005907ed0986849cf8be503b7143c326c7d792fc59d7fb085631106920c25f"),
    ("census 7:4:3,1,1,2 -p 1049 -o json", "452bdeb39e04b8a3b2f91f483531160bc367da08c2396edfd5536d9e6a4861a9"),
    ("census 7:4:3,1,1,2 -p 2029 -o json", "f85dc6e489bfddff4eaa9d8a09235a568ba09511ce0aa88c5d558cd932f88438"),
    ("census 7:4:3,1,1,2 -p 3079 -o json", "8da8ebdef3e28a723dd8eb712414c242da613df2cfef489a639f2e1b25770cd0"),
    ("census 7:4:3,1,1,2 -p 4969 -o json", "f1261c92e20c964104326894cd263e8178572c0ae12fab13720b8658b0335ddd"),
    ("census 5:4:1,1,1,2 -p 151 -o json", "1cc9930339d94793634a598c5a3eb423a7ca7f1609cf12d51a6f5116f53674a9"),
    ("census 5:4:1,1,1,2 -p 149 -o json", "ad9aa58a51540b3c2bcb812ef57769d60d74ac5bb4e84d81cce10ba2e70d22ab"),
    ("census 5:4:1,3,3,3 -p 1051 -o json", "0741ba2f09784d733bbcd43476f9ddcfd4b780015244cc55021abd63433615a7"),
    ("census 5:4:1,3,3,3 -p 1049 -o json", "4f51f08117070ea7c18e1ccfa28848a3d32258aa5f779ab8f5c124fe245a1ab2"),
]


@pytest.mark.parametrize("argv,digest", CLOSED_FORM_SHA256)
def test_balanced_census_is_byte_identical_to_the_recorded_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# recorded while gcd still ran Euclid on coefficient lists: sha256 of the
# stdout of every census of the survey-balanced benchmark (M7 at the first
# 100 primes p = 1 mod 7) and every witness of witness-factor (M7 at the
# primes p = +-1 mod 7 in [29, 400], b0 = 4, 5), one after the other

def _stdout_digest(capsys, argvs):
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        digest.update(out.encode())
    return digest.hexdigest()


def test_census_over_the_survey_primes_is_byte_identical_to_the_recorded_digest(capsys):
    primes = [p for p in range(8, 4622, 7) if is_prime_u64(p)]
    assert len(primes) == 100
    argvs = [("census", M7, "-p", str(p), "-o", "json") for p in primes]
    assert _stdout_digest(capsys, argvs) == (
        "3ddefe87853d17d196dd8f82c7fe919d0fb700c8c8b7ba94bc8a256fafd53315")


def test_witness_over_the_factor_cases_is_byte_identical_to_the_recorded_digest(capsys):
    argvs = [("witness", M7, "-p", str(p), "--b0", str(b0), "--dmax", "4", "--seed", "7", "-o", "json")
             for p in range(29, 401) if p % 7 in (1, 6) and is_prime_u64(p) for b0 in (4, 5)]
    assert len(argvs) == 44
    assert _stdout_digest(capsys, argvs) == (
        "62c5b2ac80a46c87d50a1b3cf7aca671963700b0548d84ac48d18b067e6e5d2c")


# recorded before poly_powmod ran on packed integers: the long-orbit
# certificates reduce h mod W D and mod rad G through it

def test_census_over_the_long_orbit_primes_is_byte_identical_to_the_recorded_digest(capsys):
    primes = [p for p in range(31, 180) if p % 7 in (3, 4) and is_prime_u64(p)]
    assert len(primes) == 11
    argvs = [("census", M7, "-p", str(p), "-o", "json") for p in primes]
    assert _stdout_digest(capsys, argvs) == (
        "78cf4d12d3db309341c1433bf4e0758b7d749af6b50344ebfbde0861ce17530b")


def test_long_orbit_census_at_107_is_byte_identical_to_the_recorded_digest(capsys):
    argvs = [("census", "7:4:1,1,1,4", "-p", "107", "-o", "json")]
    assert _stdout_digest(capsys, argvs) == (
        "355300227a105e778ad5b7aaef430e28c1a57c24363b99e28925f40fcebe9afa")


# recorded while the last-layer radical still reduced h~ mod W (roots at 0
# and 1 included) through poly_powmod, and the heads summed sparse twisted
# products densely: long-orbit censuses, the h1 of 7:4:1,1,1,4 at p = 199
# (degree about 3.4 million) and three h1 of i0 = 3 chains

TWISTED_SHA256 = [
    ("census 7:4:3,1,1,2 -p 193 -o json", "1d06d99d352c9742f776706223d9b808f5ade86dd93d7285418ae4767aaede55"),
    ("census 7:4:3,1,1,2 -p 227 -o json", "a536f12c509d58b9e589a9bb47c66ef81bba52c5ceb65c0f0e71a6261668a039"),
    ("census 7:4:3,1,1,2 -p 1019 -o json", "cd66f98a23e6f80b27c817a5804437c1b42cb567ca753948cf3652f4d22c245e"),
    ("census 7:4:1,1,1,4 -p 107 -o json", "355300227a105e778ad5b7aaef430e28c1a57c24363b99e28925f40fcebe9afa"),
    ("hw h1 7:4:1,1,1,4 -p 199 --b0 4", "08cc77b5089b9beb8fda2fdb610ee4bca800d6bb5ecec415011ca54c6ec57340"),
    ("hw h1 7:4:1,1,1,4 -p 37 --b0 3", "b4aa9604474ed07b6e1694620fa4ab66e49f009b45787c472d4c77cf2d102c52"),
    ("hw h1 7:4:1,2,2,2 -p 47 --b0 2", "c3bc0693501be5b2c66cf4d2e34b9d0531baa8fa2309bbaea6c0ce3da8709c0b"),
    ("hw h1 7:4:1,1,1,4 -p 53 --b0 4", "3d136c4ee9be6ce4dd640ad362828f9616097ac7abbace450c1837bf61c584b2"),
]


@pytest.mark.parametrize("argv,digest", TWISTED_SHA256)
def test_twisted_products_are_byte_identical_to_the_recorded_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# recorded while the last-layer radical still stripped W of its roots at 1
# one pass per root, made h monic in its own pass and stripped the whole
# radical of t and t - 1 at the end

LONG_ORBIT_SHA256 = [
    ("census 7:4:3,1,1,2 -p 1039 -o json", "038769dd06a2b49020900818411874d889c8432c6d05a645b8e4837ec7a3d79b"),
    ("census 7:4:3,1,1,2 -p 2699 -o json", "d3f8a46ccb462b62c8167a96aecde90b5eeaac0ae0eb4d46195982d1169d45dd"),
]


@pytest.mark.parametrize("argv,digest", LONG_ORBIT_SHA256)
def test_long_orbit_radicals_are_byte_identical_to_the_recorded_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_long_orbit_census_makes_no_powmod(capsys, monkeypatch):
    # at every chain of these censuses W stripped of t and t - 1 is a
    # constant (and G has no root off 0 and 1), so the radical reduces
    # nothing mod a polynomial
    calls = []
    powmod = ff.poly_powmod
    counted = lambda *args: calls.append(args[2].degree) or powmod(*args)
    monkeypatch.setattr(ff, "poly_powmod", counted)
    monkeypatch.setattr(hassewitt, "poly_powmod", counted)
    primes = [p for p in range(31, 401) if p % 7 in (3, 4) and is_prime_u64(p)]
    assert len(primes) == 24
    for p in primes:
        code, out, _ = run(capsys, "census", M7, "-p", str(p), "-o", "json")
        assert code == 0 and '"label":"Nu","nonempty":true' in out, p
    assert calls == []


def test_long_orbit_census_strips_no_root_at_1(capsys, monkeypatch):
    # W is a unit times t^v_0 (t - 1)^n at every chain of these censuses,
    # so its shape is checked in one pass, and h~ has no root at 1 there:
    # no strip at 1 divides anything out
    found = []
    strip_root = FpUniPoly.strip_root

    def counted(self, c):
        k, rest = strip_root(self, c)
        if c % self.field.p == 1:
            found.append(k)
        return k, rest

    monkeypatch.setattr(FpUniPoly, "strip_root", counted)
    primes = [p for p in range(31, 401) if p % 7 in (3, 4) and is_prime_u64(p)]
    assert len(primes) == 24
    for p in primes:
        code, out, _ = run(capsys, "census", M7, "-p", str(p), "-o", "json")
        assert code == 0 and '"label":"Nu","nonempty":true' in out, p
    assert found and set(found) == {0}

# recorded while the census took gcd(rad_2, rad_3) of M7-type data at the
# full degree of the radicals: the odd-c class 6 survey (the gcd carries a
# factor 1 + t), a datum whose radicals are both f(a,a,c), and two whose
# radicals are f(a,a,c) for one pair only

def _census_argvs(datum, count):
    primes = [p for p in range(22, 5000) if p % 7 in (1, 6) and is_prime_u64(p)][:count]
    return [("census", datum, "-p", str(p), "-o", "json") for p in primes]


@pytest.mark.parametrize("argvs,digest", [
    ([("survey", M7, "--class", "6", "--count", "100", "-o", "json")],
     "9bebe840b15c70ac74be37893e46f8d3e257921a58b5fc0bac45c132578f95a4"),
    (_census_argvs("7:4:2,1,1,3", 40), "46cf5dfc1ecc59baca196e538d2d0a4f08e8732bb1a5d34ca5a2d7b4a8ea65c9"),
    (_census_argvs("7:4:2,1,3,1", 20), "7ca668b28ed22cb1da4e59682cd1ecba718aa33fd4988ad5af73255c8618f156"),
    (_census_argvs("7:4:3,1,2,1", 20), "2c0139cdf296740ee141de73d91a2e1335b581dea01fa7699bec50d20bce09a3"),
])
def test_symmetric_census_gcd_is_byte_identical_to_the_recorded_digest(capsys, argvs, digest):
    assert _stdout_digest(capsys, argvs) == digest


# recorded while f(a,b,c) was built from factorial tables, each census
# radical went through fabc(...).monic() and Euclid took its quotient
# terms one at a time: M7 at the first 100 primes p = 6 mod 7 (class 1 is
# pinned above), M5 at p = +-1 mod 5 below 400 (5:4:1,2,3,4 has two
# balanced pairs and is refused), and a datum whose reduced radicals are
# f(a,b,c) with a != b.  5:4:1,3,3,3 is 3 (1,1,1,2) and prints the same
# bytes, but its radicals are f(a,b,c) with a != b where 5:4:1,1,1,2 has
# a = b, so the two pin both branches of the radical

def _census_class_argvs(datum, primes):
    return [("census", datum, "-p", str(p), "-o", "json") for p in primes]


@pytest.mark.parametrize("datum,primes,digest", [
    (M7, [p for p in range(22, 5000) if p % 7 == 6 and is_prime_u64(p)][:100],
     "4626674712fa7a66d47d8e508d04e49f2f511018d1b55642a7273796bd69065e"),
    ("5:4:1,1,1,2", [p for p in range(16, 400) if p % 5 in (1, 4) and is_prime_u64(p)],
     "a54a0d5ab8f563097caa33bc080c784e5d4d4930a3241788c0372d2499d1a502"),
    ("5:4:1,3,3,3", [p for p in range(16, 400) if p % 5 in (1, 4) and is_prime_u64(p)],
     "a54a0d5ab8f563097caa33bc080c784e5d4d4930a3241788c0372d2499d1a502"),
    ("7:4:1,1,2,3", [p for p in range(22, 400) if p % 7 in (1, 6) and is_prime_u64(p)],
     "f9dd39fcc9bba6a8b853add74b65d01b5f9456283deb0069765a48db11bca184"),
])
def test_balanced_census_classes_are_byte_identical_to_the_recorded_digest(capsys, datum, primes, digest):
    assert _stdout_digest(capsys, _census_class_argvs(datum, primes)) == digest


def _fabc_argvs():
    """The fabc subcommand, plain text and strip as JSON, at every (a, b, c)
    with a, b < p and c <= a + b + 1 (the last one refused) for p = 3, 5, 7
    and 11, then at seeded triples for p = 4621 and 2^31 - 1."""
    triples = [(a, b, c, p) for p in (3, 5, 7, 11) for a in range(p) for b in range(p)
               for c in range(a + b + 2)]
    rng = random.Random(20)
    triples += [(1980, 1980, 660, 4621), (1980, 1980, 661, 4621), (4620, 4620, 4620, 4621)]
    for p, top in ((4621, 4620), (2**31 - 1, 3000)):
        for _ in range(40):
            a, b = rng.randint(0, top), rng.randint(0, top)
            triples.append((a, b, rng.randint(0, a + b), p))
    for a, b, c, p in triples:
        yield f"fabc --a {a} --b {b} --c {c} -p {p}"
        yield f"fabc strip --a {a} --b {b} --c {c} -p {p} -o json"


def test_fabc_subcommand_is_byte_identical_to_the_recorded_digest(capsys):
    # sha256 of "<argv>\n<exit code>\n<stdout><stderr>" over _fabc_argvs
    digest = hashlib.sha256()
    for argv in _fabc_argvs():
        code, out, err = run(capsys, *argv.split())
        digest.update(f"{argv}\n{code}\n{out}{err}".encode())
    assert digest.hexdigest() == "da6595f83d07edd6bb877b8b2e218c0697cab661326febedd058307b5c9acae0"


# recorded while witness still factored the whole stripped h1 and built
# h1 a second time for the count

WITNESS_SHA256 = [
    ("witness 7:4:3,1,1,2 -p 59 --b0 2 --dmax 4 --seed 7 -o json", "52d858059c960c6fb3512c418f3d24d4ef590994de5239fce5b2bb38f38bdc59"),
    ("witness 7:4:3,1,1,2 -p 29 --b0 5 --dmax 1 --seed 7", "be0b626d80da02afdba015d7b685ef861c9786a2828c680b017379be11edde5c"),
    ("witness 7:4:3,1,1,2 -p 31 --b0 2 --seed 3 -o json", "98db952b4ce72cf5477da883fceb6d6a2e8f1f1a4fda1462c2de7ad56231794d"),
    ("witness 7:4:3,1,1,2 -p 197 --b0 4 --seed 9 -o json", "e1e1e9a59dc76d5219030582ee322cd6b9f487f65b862aaacb500626b870d0c2"),
]


@pytest.mark.parametrize("argv,digest", WITNESS_SHA256)
def test_witness_is_byte_identical_to_the_recorded_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# recorded before the phi entries took the f(a,b,c) closed form at every
# degree: at p = 3 each of these six data has a phi entry that the earlier
# closed form did not cover, so h1 expanded it as a multivariate slice

WIDE_PHI_H1_SHA256 = [
    ("hw h1 7:4:1,1,2,3 -p 3 --b0 5 -o json", "779faa74026fcd408c934f5d901c73dca2364953dfaebc6bc4f093e2085ada46"),
    ("hw h1 7:4:1,3,5,5 -p 3 --b0 1 -o json", "872588dfb3583caada25ce9aad7c03e72c129ff8732270b3df69a7e98e8ac261"),
    ("hw h1 7:4:1,4,4,5 -p 3 --b0 3 -o json", "f8d3e9ad3375d648120b541beca55cbbbfd90ecb91a32f201e3f5304799ae54c"),
    ("hw h1 7:4:2,2,4,6 -p 3 --b0 6 -o json", "ab8347d76b5a2cf37ac464238cfe1553babb8428e5259f3c5c853f3e6fcf7559"),
    ("hw h1 7:4:2,3,3,6 -p 3 --b0 4 -o json", "c15e06f13baf4c96a94ca99374b6ba8055617f9cb1b4d5e09136bbe049e6da43"),
    ("hw h1 7:4:4,5,6,6 -p 3 --b0 2 -o json", "fa086c190efbbb6254656310dc839cb5bbad3e969a603334b96ab82872e44a70"),
    # the full composite h0, recorded at the same time
    ("hw h0 7:4:3,1,1,2 -p 13 --b0 5 -o json", "237763c45026782074e96c24b16afc789ce1a4ac94e39c115a8c975736359591"),
    ("hw h0 5:4:1,1,1,2 -p 3 --b0 2 -o json", "13f6f0cbf0ced9bdfd5674ef2d68f960d82011bd1cb11ab337b0382d2a731e02"),
]


@pytest.mark.parametrize("argv,digest", WIDE_PHI_H1_SHA256)
def test_chain_composites_are_byte_identical_to_the_recorded_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the human text of multivariate entries and composites (the only output
# that goes through the multivariate text form), recorded before the
# univariate kernels lost their second implementations

MULTI_TEXT_SHA256 = [
    ("hw phi 7:4:3,1,1,2 -p 13 --tau 3 --jp 1 --j 1", "b078eece3c1455652f461bfbd8cf0278dd148bd8c0f6d3258b6f465bc9a71cee"),
    ("hw psi 7:4:3,1,1,2 -p 13 --tau 6 --jp 1 --j 1", "67f9940857e5fb4a5b00fc6bfd3039d5a9b61be4388d3f15279ad9e6f533d5a7"),
    ("hw h0 7:4:3,1,1,2 -p 13 --b0 5", "6c5ba4d5a77ce5a8be39e4afc568bb1befa44f6b4dd1aa9b08903fac54dfc815"),
    ("hw h0 5:4:1,1,1,2 -p 3 --b0 2", "3add1a60a55521c4b2fa7bc9d973d58394b810b7cd156553245cf0b1d2254094"),
]


@pytest.mark.parametrize("argv,digest", MULTI_TEXT_SHA256)
def test_multivariate_text_is_byte_identical_to_the_recorded_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# recorded while h1_radical still built h1 and took its squarefree
# decomposition at the full degree: censuses of i0 = 3 chains (dims
# (1, 2, 2, 1)), and witnesses on every chain of these data and primes
# that takes the last-layer radical (7:4:1,1,1,4 at p = 53 with --b0 3
# prints the same bytes too, but takes about 4 s, nearly all of it in the
# d = 3 step of least_factor's distinct-degree split at degree 44,141)

LAST_LAYER_SHA256 = [
    ("census 7:4:1,1,1,4 -p 37 -o json", "65ddb46ae97a611c34575173398646ea87e909452e8ca62037479d558424d4fa"),
    ("census 7:4:1,1,1,4 -p 53 -o json", "8a6169dde10c7c0708548f2da42899f3ee86639619ca02059e63a54806b9c8ea"),
    ("census 7:4:1,2,2,2 -p 47 -o json", "c7faaaf7989fd09652e3fb3d17d522d3376bc09ea8625212c00a4b3e88424aa6"),
    ("witness 7:4:1,1,1,4 -p 37 --b0 3 --seed 7 -o json", "120a92f8e93563ba8a8d34f44704288fbf99e4cd392da98d98b7e02dce468c18"),
    ("witness 7:4:1,1,1,4 -p 37 --b0 4 --seed 7 -o json", "9fd5f67d08c12684e396603637f17aa9bb6c23d14c564c6e28f17bb37d3dd983"),
    ("witness 7:4:1,1,1,4 -p 53 --b0 4 --seed 7 -o json", "03329bf1fe7160ffc30dacd4a07d275cf10f0c5f2895870600ea38ea67ccf491"),
    ("witness 7:4:1,2,2,2 -p 47 --b0 2 --seed 7 -o json", "f6fcb030a0187ec44e332f4fc111d0ca9cff270b97f06e79b654c9ee35c66389"),
    ("witness 7:4:1,2,2,2 -p 47 --b0 5 --seed 7 -o json", "c96d7361ace276284a7a6fb1c9c948929f1e56593afcaf6c24234fdfdc7817cc"),
    ("witness 7:4:3,1,1,2 -p 31 --b0 2 --seed 7 -o json", "98db952b4ce72cf5477da883fceb6d6a2e8f1f1a4fda1462c2de7ad56231794d"),
    ("witness 7:4:3,1,1,2 -p 31 --b0 5 --seed 7 -o json", "b8670f614d8333ac212da19e8ec007b972b2985b5518074ec6782e9db5b2f4ce"),
    ("witness 7:4:3,1,1,2 -p 53 --b0 2 --seed 7 -o json", "b40f48813b05c6f2bee47d464141fe5a1b68ab9297901594a1c4dcc835905530"),
    ("witness 7:4:3,1,1,2 -p 53 --b0 5 --seed 7 -o json", "bcf563afae4815a8abaaf9cdce5c86a0f82505da227d5bcc3b10cc06062f660e"),
    ("witness 7:4:3,1,1,2 -p 179 --b0 2 --seed 7 -o json", "ede54333601b5e36cacb7237d32e61046fae1e3edf7a0f5beec349266c2e10b6"),
    ("witness 7:4:3,1,1,2 -p 179 --b0 5 --seed 7 -o json", "4c33002b3e6e821006a8a3bf7b12ffb4e1aea811e0267b3d10b562c52975ba63"),
]


@pytest.mark.parametrize("argv,digest", LAST_LAYER_SHA256)
def test_last_layer_radicals_are_byte_identical_to_the_recorded_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# recorded before least_factor read t and t + 1 off f(0) and f(-1) and
# powmod kept one Barrett inverse per modulus: sha256 of the json stdout
# of witness --seed 7 and then --seed 8 (the same bytes) over each datum's
# primes and every base it accepts, M7 at p = +-1 mod 7 in (400, 1000]
# and three data with radicals f(a,b,c), a != b, at 419, 433 and 461

WITNESS_SEEDS_SHA256 = [
    ("7:4:3,1,1,2", tuple(p for p in range(401, 1001) if p % 7 in (1, 6) and is_prime_u64(p)), (4, 5),
     "0950c940c17d4e94f6fe98900c9e056aac648a734aadb6d7f1780bbe0f4068a9"),
    ("7:4:1,2,5,6", (419, 433, 461), (1, 2, 3, 4, 5, 6),
     "d567252ea354abc67ad7c342ebd7935230a5ad43b43b8b5be1a6a9a374994f79"),
    ("7:4:1,1,2,3", (419, 433, 461), (2, 3, 4, 5),
     "f3aab0c3a2edb4aa614c5b1a6b0ee5d0d4c2659d5434709018cb792082c9d69d"),
    ("5:4:1,2,3,4", (419, 433, 461), (1, 2, 3, 4),
     "5d4b3d3206f671126946010e9778d9566fc546c90ec72ca779ebc6737f76df66"),
]


@pytest.mark.parametrize("datum,primes,bases,digest", WITNESS_SEEDS_SHA256)
def test_witness_at_two_seeds_is_byte_identical_to_the_recorded_digest(capsys, datum, primes, bases, digest):
    argvs = [("witness", datum, "-p", str(p), "--b0", str(b0), "-o", "json", "--seed", seed)
             for p in primes for b0 in bases for seed in ("7", "8")]
    assert _stdout_digest(capsys, argvs) == digest


# recorded before witness ran the distinct-degree search of symmetric
# radicals in Kummer's variable:
# sha256 of "<argv>\n<exit code>\n<stdout>" over `witness -o json` at
# seeds 1 and 7 on every base of each sorted four-point M5 or M7 datum, at
# every prime p = +-1 mod m in (3m, 700]

CLASS_PM1_WITNESS_SHA256 = {
    "5:4:1,1,1,2": "e31e18a03c0c69015de9da0a9e8a37a76739e252564ac6b8116fe84229be5c95",
    "5:4:1,1,4,4": "c53d0f7f27937319c9ce67ca66cc948399d75c595c637331059ae8915052080c",
    "5:4:1,2,3,4": "f70fdef1e6504be733a8da5448f87d9af1dc04b73b433fbf26b1245e894b48dc",
    "5:4:1,3,3,3": "ad512fc71c27e8d79e50ba59cb702baf3481e98c29ac3ad76659d3aaf1940fae",
    "5:4:2,2,2,4": "c208e7814de4e422dec6237f968fd25eaea20b895432684688ea5d679b1d1127",
    "5:4:2,2,3,3": "2bd6a55798390c81dccc3301ec0fc4476404ddcb99f3e7fe69c3273cf8e72fba",
    "5:4:3,4,4,4": "ee652da7b074cf53eb8cb03b5467b34ae4b56c8a5465e144bc1df6c2a6238111",
    "7:4:1,1,1,4": "f4c5c321a842e6c77d8fabc2db38861ab9929f9b3672c0a0570f5b6a8ab5f711",
    "7:4:1,1,2,3": "569e27e610d340e20d1eaa6d261063ef189248ede9f1d923e0b13855efd23c2d",
    "7:4:1,1,6,6": "2eddbe194bb872e237530a35c2b7fd872a2ecf0c696ab76aa878192cdfb57154",
    "7:4:1,2,2,2": "610a675ceddb2573ac1d00173f85e1c7677ac582a414fed4fede6a33860c2ae7",
    "7:4:1,2,5,6": "8b06997adca0c3d6f248414877a8f806d4505c6858b65f42615984c9ab0162a5",
    "7:4:1,3,4,6": "e649ee6261f6bba0fa0e1038a3106fb993bbd489f2edf4f50bb0baa466fb2830",
    "7:4:1,3,5,5": "5827f6bd1fef8931d62b2ae1f9c544ff961dcbe49fd25718f443478644b24756",
    "7:4:1,4,4,5": "7deb762b8691c6473c2d61b8c9582b0685b4bcf6eb7a69eb3ac909b3d132a8f9",
    "7:4:2,2,4,6": "51874118baf94d53226e3586fef80e82583ef23092669947f2d19c18ab72a2a9",
    "7:4:2,2,5,5": "8b52035ca0bcf3fb107969dcd410363844ff60580bee9cd299ec120a03a97382",
    "7:4:2,3,3,6": "3df4a96dc7694898717b698c88a206283204743e317c5aa5222b13ed53cc62f4",
    "7:4:2,3,4,5": "40d223b43a019d5e8792937fb515ffcdf0c41faf83782bc7b57c114db1f0f665",
    "7:4:2,4,4,4": "6c1bf924e48b2f80ecdd702cc8ee1680ac955aeda01e65e706eecb0d26d6875d",
    "7:4:3,3,3,5": "233aa9d365427eebf4f5ca6edda9da7592047bf8cb1266b2c67cf655ac75c685",
    "7:4:3,3,4,4": "481f5a0cdcf5e06ff096bebc1d08ab6c50af797dcd859572fa83dacd9eb91a36",
    "7:4:3,6,6,6": "50c610dc4e7f6cf9dc603edcdcd59453f43c5bcbae6612f9a64716cdbd48a660",
    "7:4:4,5,6,6": "6a759f9c92fbd0c8536deacb6cc5a43108079046aa953adfd540515baed5fa9f",
    "7:4:5,5,5,6": "b6e6b96c52dc02aa879f4a7a015e15703ca7e2bc4c45b4bd89171a8da91f12ee",
}


def _class_pm1_witness_argvs(text):
    datum = parse_datum(text)
    m = datum.m
    sig = signature(datum)
    bases = [b for b in range(1, m) if math.gcd(b, m) == 1 and sig[m - b] == 1]
    for p in range(3 * m + 1, 701):
        if p % m in (1, m - 1) and is_prime_u64(p):
            for b0 in bases:
                for seed in ("1", "7"):
                    yield ("witness", text, "-p", str(p), "--b0", str(b0), "-o", "json", "--seed", seed)


# recorded at the same time: symmetric radicals of degree 2,860 and 2,878
# with no root in F_p (certificates of degree 4 and 7), 2.1 s and 4.1 s
# then, 0.7 s and 1.3 s with the search in Kummer's variable (in process,
# 2-vCPU x86-64, Python 3.11.7)

LARGE_P_WITNESS_SHA256 = [
    ("witness 7:4:3,1,1,2 -p 20021 --b0 4 --seed 1 -o json", "be51fb6462489bc9dba3f5145aa01121f295e67276125c1328ac933742f05b00"),
    ("witness 7:4:3,1,1,2 -p 20147 --b0 5 --seed 1 -o json", "34dc5338055f7adcb63eedb860a9a88946e5e3652b95e632105780b312185d00"),
]


@pytest.mark.parametrize("argv,digest", LARGE_P_WITNESS_SHA256)
def test_large_p_witness_is_byte_identical_to_the_recorded_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_class_pm1_witness_data_are_every_sorted_four_point_datum():
    data = [f"{m}:4:{','.join(map(str, a))}" for m in (5, 7)
            for a in itertools.combinations_with_replacement(range(1, m), 4)
            if sum(a) % m == 0 and math.gcd(m, *a) == 1]
    assert data == list(CLASS_PM1_WITNESS_SHA256)


@pytest.mark.parametrize("datum", sorted(CLASS_PM1_WITNESS_SHA256))
def test_class_pm1_witnesses_are_byte_identical_to_the_recorded_digest(capsys, datum):
    digest = hashlib.sha256()
    for argv in _class_pm1_witness_argvs(datum):
        code, out, _ = run(capsys, *argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    assert digest.hexdigest() == CLASS_PM1_WITNESS_SHA256[datum]


_NU_EMPTY = '{"certificate":null,"dim":1,"label":"Nu","nonempty":false}'
_NU_CERT = '{"certificate":"1 + 2*t^3 + 1*t^4","dim":1,"label":"Nu","nonempty":true}'


@pytest.mark.parametrize("labels,nu", [
    ("1,1,2,3", _NU_EMPTY), ("1,3,5,5", _NU_CERT), ("1,4,4,5", _NU_EMPTY),
    ("2,2,4,6", _NU_EMPTY), ("2,3,3,6", _NU_EMPTY), ("4,5,6,6", _NU_CERT),
])
def test_census_at_p3_of_the_wide_phi_data(capsys, labels, nu):
    code, out, _ = run(capsys, *f"census 7:4:{labels} -p 3 -o json".split())
    assert code == 0
    assert out == (
        '{"class":3,"p":3,"strata":['
        '{"certificate":null,"dim":2,"label":"MuOrdinary","nonempty":true},'
        + nu + "]}\n"
    )


# (chain count, sha256 of "<argv>\n<exit code>\n<stdout><stderr>" over the
# chains in _psi_chain_argvs order) per prime; recorded while
# psi_specialized still took two windowed closed forms and specialized the
# multivariate psi entry outside them.  128 chains at p = 3, 5, 7 and 282
# at p = 11..31.

PSI_CHAIN_H1_SHA256 = {
    3: (34, "095b87816856f656004ad2569337a59d7ee8e6186314247ed0c2fde7c99fb281"),
    5: (54, "4eddef5d1ee470bc7e3025e5505ac504d8ae571f39581be6bb08379a91712b3a"),
    7: (40, "eb3d2b6ba8ee559c025b7165136e8c6d94fd25e6bd7c3a2beb6b6b306e756d21"),
    11: (48, "1b728a411f4bc1f42e139924fa9054aeac36cf86f211c1c8b69046c60590ff8d"),
    13: (52, "882974f398e3133040fdb4a5a6f0faeb642cbb3d3960ade423e10b6337d4241b"),
    17: (22, "831db8ded5838996344439fa4f5f734fac8b0e7c62e1adabac982e8948624714"),
    19: (30, "5aacc1a033d5f4a6973f5c1a285ab57750b29e29d3a46911af17e0f169eb5255"),
    23: (40, "1511366f696d720a6f58351dbb049e58d8429c9c96b343b1c4fa6b70dacc8bd8"),
    29: (36, "a930dea0d479d18269751317e01c6d81875f5247c6ce515d8d0a3e270fb80e39"),
    31: (54, "ffeb4904316d43c61520adad0e5a875ed615fc418d53d4d6ea6baf0f987e0269"),
}


def _psi_chain_argvs(p):
    """`hw h1 -o json` on every chain of the four-point M5, M7, M8 and M9
    data (labels sorted) that has a psi or psi_dual step among its first
    i0 steps, one per base."""
    for m in (5, 7, 8, 9):
        if m % p == 0:
            continue
        for a in itertools.combinations_with_replacement(range(1, m), 4):
            if sum(a) % m or math.gcd(m, *a) != 1:
                continue
            sig = signature(MonodromyDatum(m, 4, a))
            for b0 in range(1, m):
                if math.gcd(b0, m) != 1 or sig[m - b0] != 1:
                    continue
                ctx = OrbitContext(MonodromyDatum(m, 4, a), p, b0)
                if {"psi", "psi_dual"} & set(ctx.kinds[: ctx.i0]):
                    yield f"hw h1 {m}:4:{','.join(map(str, a))} -p {p} --b0 {b0} -o json"


@pytest.mark.parametrize("p", sorted(PSI_CHAIN_H1_SHA256))
def test_psi_chain_h1_is_byte_identical_to_the_recorded_digest(capsys, p):
    digest = hashlib.sha256()
    count = 0
    for argv in _psi_chain_argvs(p):
        code, out, err = run(capsys, *argv.split())
        digest.update(f"{argv}\n{code}\n{out}{err}".encode())
        count += 1
    assert (count, digest.hexdigest()) == PSI_CHAIN_H1_SHA256[p]


def test_h0_long_orbit_refusal_line(capsys):
    # the same line as when the whole chain was built first (18-21 s)
    assert run(capsys, *"hw h0 7:4:3,1,1,2 -p 151 --b0 2".split()) == (
        3, "", "error[degree-budget-exceeded]: product would touch ~67997325528 term pairs\n"
    )


def test_witness_term_budget_below_entry_degree(capsys):
    code, out, err = run(capsys, *"witness 7:4:3,1,1,2 -p 197 --b0 4 --seed 9 --term-budget 50".split())
    assert (code, out, err) == (
        3, "", "error[degree-budget-exceeded]: composite degree ~84 exceeds the budget 50\n"
    )


@pytest.mark.parametrize("argv,line", [
    ("census 7:4:3,1,1,2 -p 97 --term-budget 10 -o json",
     "error[degree-budget-exceeded]: composite degree ~13 exceeds the budget 10"),
    ("census 7:4:3,1,1,2 -p 97 --term-budget 14",
     "error[degree-budget-exceeded]: composite degree ~41 exceeds the budget 14"),
    ("census 5:4:1,1,1,2 -p 151 --term-budget 20",
     "error[degree-budget-exceeded]: composite degree ~60 exceeds the budget 20"),
    ("survey 7:4:3,1,1,2 --class 1 --count 3 --term-budget 10",
     "error[degree-budget-exceeded]: composite degree ~12 exceeds the budget 10"),
])
def test_census_term_budget_below_entry_degree(capsys, argv, line):
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (3, "", line + "\n")


# ---------------------------------------------------------------------------
# damaged cache records and malformed datum JSON


GOOD_STRATUM = {"certificate": None, "dim": 2, "label": "MuOrdinary", "nonempty": True}
MALFORMED_RECORDS = [
    {},
    {"p": 13, "class": 6},
    {"p": 13, "class": 6, "strata": []},
    {"p": "13", "class": 6, "strata": [GOOD_STRATUM]},
    {"p": 13, "class": 6, "strata": [dict(GOOD_STRATUM, nonempty="yes")]},
    {"p": 13, "class": 6, "strata": [{"label": "Basic"}]},
    {"p": 13, "class": 6, "strata": "none", "extra": 1},
    [],
    None,
]


@pytest.mark.parametrize("record", MALFORMED_RECORDS)
@pytest.mark.parametrize("argv", [
    ("census", M7, "-p", "13", "-o", "json"),
    ("census", M7, "-p", "13"),
    ("survey", M7, "--class", "6", "--count", "3"),
])
def test_malformed_cache_record_is_a_miss(tmp_path, capsys, argv, record):
    fresh = run(capsys, *argv)
    assert fresh[0] == 0
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    path = _record_path(cache_dir, 13)
    path.write_text(json.dumps(record))
    assert run(capsys, *argv, "--cache-dir", str(cache_dir)) == fresh
    # the recomputed record replaced the malformed one and now replays
    assert strata._is_census_record(json.loads(path.read_text()))
    assert run(capsys, *argv, "--cache-dir", str(cache_dir)) == fresh


@pytest.mark.parametrize("text", [
    "{bad",
    '{"m":7}',
    '{"m":7,"r":4,"a":"3112"}',
    '{"m":7,"r":4,"a":[3,1,1,true]}',
    '{"m":7.0,"r":4,"a":[3,1,1,2]}',
    '{"m":7,"r":4,"a":[3,1,1,2],"extra":0}',
    '{"a":' + "[" * 100000 + "}",
], ids=["unparsable", "missing-keys", "string-labels", "bool-label", "float-m",
        "extra-key", "deep-nesting"])
def test_malformed_datum_json_is_invalid_input(capsys, text):
    code, out, err = run(capsys, "datum", "genus", text)
    assert (code, out) == (4, "")
    assert err.startswith("error[invalid-input]: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# the error contract under fuzzed command lines


def test_datum_orbits_takes_a_unit_mod_m(capsys):
    # unlike every other -p, orbits takes any unit mod m, 4 included;
    # these bytes are output as they stand
    code, out, _ = run(capsys, "datum", "orbits", M7, "-p", "4")
    assert (code, out) == (0, "(1 4 2)  l=3  g=2\n(3 5 6)  l=3  g=2\n")
    code, out, _ = run(capsys, "datum", "orbits", M7, "-p", "4", "-o", "json")
    assert (code, out) == (0, '{"orbits":[{"g":2,"length":3,"members":[1,4,2]},'
                              '{"g":2,"length":3,"members":[3,5,6]}]}\n')


# the README examples at small primes
FUZZ_BASES = [
    "datum genus 7:4:3,1,1,2",
    "datum orbits 7:4:3,1,1,2 -p 3",
    "mu-ord 7:4:3,1,1,2 -p 13",
    "hw phi 7:4:3,1,1,2 -p 13 --tau 3 --jp 1 --j 1 --specialize",
    "hw psi 5:4:1,1,1,2 -p 7 --tau 3 --jp 1 --j 1 --specialize",
    "hw h1 7:4:3,1,1,2 -p 13 --b0 5",
    "hw h0 5:4:1,1,1,2 -p 3 --b0 2",
    "witness 7:4:3,1,1,2 -p 29 --b0 5 --dmax 2 --seed 7",
    "census 7:4:3,1,1,2 -p 13",
    "survey 7:4:3,1,1,2 --class 1 --count 2",
    "clutch 7:4:3,1,1,2 7:4:1,2,2,2 -p 11",
    "fabc strip --a 3 --b 4 --c 2 -p 7",
]

# tokens the mutations put in, by kind: small and odd numbers, broken and
# other data, flags, and choices of every subcommand
FUZZ_TOKENS = {
    "int": ["-3", "-1", "0", "1", "2", "3", "4", "5", "6", "7", "9", "11", "13", "15"],
    "datum": ["7:4:3,1,1", "7:4:0,1,1,6", "7:3:1,2,4", "5:4:1,1,1,2", "8:4:1,1,3,3",
              "9:4:1,1,3,4", "7:4:1,1,1,4", '{"m":7}', '{"m":7,"r":4,"a":[3,1,1,2]}', "[]"],
    "flag": ["-p", "--b0", "--tau", "--jp", "--j", "--seed", "--dmax", "--class", "--count",
             "--a", "--specialize", "-o"],
    "word": ["x", "", "json", "csv", "human", "strip", "phi", "psi", "h1", "h0", "orbits",
             "canon", "census"],
}


def _token_kind(token):
    if re.fullmatch(r"-?[0-9]+", token):
        return "int"
    if token.startswith("-"):
        return "flag"
    return "datum" if ":" in token else "word"


def _fuzz_argvs(count, seed):
    """Seeded mutations of FUZZ_BASES, one or two each: mostly a number or
    datum replaced by one of its kind, else any token after the subcommand
    replaced, deleted or preceded by any token, or two neighbouring
    tokens swapped; then --term-budget 1000."""
    rng = random.Random(seed)
    anything = [t for kind in FUZZ_TOKENS.values() for t in kind]
    for _ in range(count):
        argv = rng.choice(FUZZ_BASES).split()
        for _ in range(rng.randint(1, 2)):
            values = [i for i, t in enumerate(argv) if _token_kind(t) in ("int", "datum")]
            i = rng.randrange(1, len(argv))
            op = rng.choices(("value", "replace", "delete", "insert", "swap"), (8, 1, 1, 1, 1))[0]
            if op == "value" and values:
                i = rng.choice(values)
                argv[i] = rng.choice(FUZZ_TOKENS[_token_kind(argv[i])])
            elif op == "replace":
                argv[i] = rng.choice(anything)
            elif op == "delete":
                del argv[i]
            elif op == "insert":
                argv.insert(i, rng.choice(anything))
            elif op == "swap":
                argv[i - 1], argv[i] = argv[i], argv[i - 1]
        yield argv + ["--term-budget", "1000"]


def test_fuzzed_command_lines_keep_the_error_contract(capsys):
    # every run exits 0, 2, 3 or 4, and a failing one prints exactly one
    # error[<code>] line and nothing else to stderr
    codes = collections.Counter()
    for argv in _fuzz_argvs(200, 20261020):
        try:
            code, _, err = run(capsys, *argv)
        except Exception as exc:  # an uncaught error is a traceback
            pytest.fail(f"{argv}: {exc!r}")
        codes[code] += 1
        assert code in (0, 2, 3, 4), argv
        if code:
            assert re.fullmatch(r"error\[[a-z]+(-[a-z]+)*\]: [^\n]*\n", err), (argv, err)
    assert set(codes) == {0, 2, 3, 4}, codes


# ---------------------------------------------------------------------------
# the whole command line under every output: recorded while each handler
# still chose between human, JSON and CSV and wrote stdout itself

_SWEEP_BASES = [
    *(f"datum {op} {M7}" for op in ("validate", "canon", "signature", "genus")),
    f"datum orbits {M7} -p 13",
    f"datum orbits {M7}",
    "datum genus 7:4:7,1,1,5",
    f"mu-ord {M7} -p 29",
    f"mu-ord {M7} -p 15",
    f"hw phi {M7} -p 13 --tau 3 --jp 1 --j 1",
    f"hw phi {M7} -p 13 --tau 3 --jp 1 --j 1 --specialize",
    f"hw psi {M7} -p 13 --tau 6 --jp 1 --j 1",
    f"hw psi {M7} -p 13 --tau 6 --jp 1 --j 1 --specialize",
    f"hw psi {M7} -p 13 --tau 2 --jp 1 --j 1",
    f"hw phi {M7} -p 13 --jp 1 --j 1",
    f"hw h1 {M7} -p 13 --b0 4",
    f"hw h1 {M7} -p 29 --b0 5",
    f"hw h0 {M7} -p 13 --b0 4",
    f"hw h0 {M7} -p 113 --b0 4 --term-budget 1",
    f"hw h1 {M7} -p 13",
    f"witness {M7} -p 29 --b0 5 --dmax 2 --seed 7",
    f"witness {M7} -p 29 --b0 5 --dmax 1 --seed 7",
    f"witness {M7} -p 29 --b0 5",
    "witness 7:4:1,1,1,4 -p 17 --b0 3 --seed 7",
    "witness 7:4:1,1,1,4 -p 19 --b0 3 --seed 7",
    *(f"census {M7} -p {p}" for p in (13, 29, 31, 43, 59, 113, 179)),
    *(f"census 5:4:1,1,1,2 -p {p}" for p in (7, 11, 13, 19)),
    "census 11:4:1,2,3,5 -p 23",
    f"census {M7} -p 7",
    f"survey {M7} --class 1 --count 3",
    f"survey {M7} --class 6 --count 3",
    f"survey {M7} --class 6 --count 3 --workers 2",
    f"survey {M7} --class 3 --count 2",
    f"survey {M7} --class 6 --count 0",
    f"survey {M7} --class 7 --count 2",
    f"clutch {M7} 7:3:5,1,1 -p 13",
    f"clutch {M7} 7:3:5,1,1",
    "clutch 8:3:1,3,4 8:3:4,1,3 -p 3",
    f"clutch {M7} 7:3:1,2,4",
    "fabc --a 5 --b 7 --c 4 -p 13",
    "fabc strip --a 5 --b 7 --c 9 -p 13",
    "fabc --a 5 --b 7 --c 40 -p 13",
]

_SWEEP_PARSE_ERRORS = [
    "",
    "frobnicate",
    f"census {M7}",
    f"census {M7} -p 13 -o xml",
    f"census {M7} -p x",
    f"datum frob {M7}",
    f"survey {M7} --class 6",
    "fabc --a 5 --b 7 -p 13",
]


def _sweep_argvs():
    for base in _SWEEP_BASES:
        yield base
        for fmt in ("human", "json", "csv"):
            yield f"{base} -o {fmt}"
    yield from _SWEEP_PARSE_ERRORS


def test_every_subcommand_under_every_output_is_byte_identical_to_the_recorded_digest(capsys):
    # sha256 of "<argv>\n<exit code>\n<stdout>\0<stderr>" over _sweep_argvs
    digest = hashlib.sha256()
    codes = collections.Counter()
    for argv in _sweep_argvs():
        code, out, err = run(capsys, *argv.split())
        digest.update(f"{argv}\n{code}\n{out}\0{err}".encode())
        codes[code] += 1
    assert dict(codes) == {0: 130, 2: 3, 3: 3, 4: 76}
    assert digest.hexdigest() == "f192de901280458b05437fa917960869991116d2e48a1356a2eefac28216285f"
