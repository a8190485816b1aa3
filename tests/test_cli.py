import hashlib
import io
import json
from importlib import resources

import pytest

from purecycle.cli import main


def run_cli(*argv):
    import contextlib

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_hurwitz_both_pass():
    code, out, _ = run_cli("hurwitz", "5:2,2,4,4", "--mode", "both")
    assert code == 0
    assert "PASS" in out and " 8" in out


def test_hurwitz_formula_badtype():
    code, out, _ = run_cli("hurwitz", "7:3-3,3,7", "--mode", "formula")
    assert code == 0
    assert out.splitlines()[-1].split()[-1] == "1"


def test_hurwitz_genus_validation_exit2():
    code, _, err = run_cli("hurwitz", "9:2,2,4,4", "--mode", "brute")
    assert code == 2
    assert "genus" in err


def test_bound_exceeded_exit3(monkeypatch):
    monkeypatch.setenv("PURECYCLE_PURE_MAX_DEGREE", "5")
    code, _, err = run_cli("hurwitz", "7:2,4,4,6", "--mode", "brute")
    assert code == 3
    assert "resource guard" in err


def test_charp_table():
    code, out, _ = run_cli("charp", "7:3,3,5,5")
    assert code == 0
    line = out.splitlines()[1].split()
    assert line[1:] == ["15", "8", "7", "true"]


def test_charp_ambiguous_renders_interval():
    code, out, _ = run_cli("charp", "7:2,4,4,6")
    assert code == 0
    assert "{7|9}" in out and "unknown" in out


def test_charp_two_cycle_type():
    code, out, _ = run_cli("charp", "7:3-3,5,5")
    assert code == 0
    fields = out.splitlines()[1].split()
    assert fields[1:4] == ["3", "2", "1"]


def test_defdatum():
    code, out, _ = run_cli("defdatum", "3", "1,1,1,1", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert row["c"] == "1 + λ"
    assert row["supersingular"] == "2"


def test_admissible_with_census():
    code, out, _ = run_cli("admissible", "5:2,2,4,4", "--char", "5")
    assert code == 0
    assert "TOTAL" in out and "bad" in out


def test_admissible_char_zero_is_rejected():
    code, out, err = run_cli("admissible", "5:2,2,4,4", "--char", "0")
    assert code == 2
    assert out == ""
    assert "characteristic" in err


def test_tails():
    code, out, _ = run_cli("tails", "7", "3-3")
    assert code == 0
    assert out.splitlines()[1].split()[2:5] == ["1", "3", "1/3"]


def test_group_report():
    path = resources.files("purecycle").joinpath("data", "m11.txt")
    code, out, _ = run_cli("group", str(path))
    assert code == 0
    assert out.splitlines()[1].split() == ["11", "7920", "true", "other"]


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_group_rejects_census_cap_below_one(cap):
    path = resources.files("purecycle").joinpath("data", "m11.txt")
    code, out, err = run_cli("group", str(path), "--census", "--census-cap", cap)
    assert code == 2
    assert out == ""
    assert err == "error: census cap must be positive\n"


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_group_rejects_order_cap_below_one(cap, monkeypatch):
    monkeypatch.setenv("PURECYCLE_ORDER_CAP", cap)
    path = resources.files("purecycle").joinpath("data", "m11.txt")
    code, out, err = run_cli("group", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: order cap must be positive\n"


def test_group_order_cap_from_environment(monkeypatch):
    monkeypatch.setenv("PURECYCLE_ORDER_CAP", "100")
    path = resources.files("purecycle").joinpath("data", "m11.txt")
    code, out, err = run_cli("group", str(path))
    assert code == 3
    assert out == ""
    assert err == "resource guard: group order 7920 exceeds cap 100\n"


@pytest.mark.parametrize(
    "name, fmt, digest",
    [
        ("m11", "table", "631bbafc50d47767b9126dc481020ba9543003ff11aff4da11dfded15af67719"),
        ("m11", "json", "b351025f2a5aa99d7460acf411bbfcfdc639dab693f86097dd7c4b20b6fd21c9"),
        ("m11", "csv", "a553327a1b208ce0b6d96e6d8db06016b209b092692e6cc3eaf0d1e43c3d0dea"),
        ("pgammal2_16", "table", "6f8d59a84184877c0630921c68fc91cf8289c39cd888ab25ff9313043a06c6d1"),
        ("pgammal2_16", "json", "153a9a4c3a20f991d17977d70534bb2f241fbcd6cf97db936b5e033055aceeca"),
        ("pgammal2_16", "csv", "5727fd71ea795a84bc9bdcdebdf5fd17fca071351b4e81da2b5d606f0241909a"),
    ],
)
def test_group_census_output_is_pinned(name, fmt, digest):
    path = resources.files("purecycle").joinpath("data", f"{name}.txt")
    code, out, _ = run_cli("group", str(path), "--census", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_json_output_roundtrips():
    code, out, _ = run_cli("hurwitz", "5:2,2,4,4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["brute"] == rows[0]["formula"] == 8
    code2, out2, _ = run_cli("hurwitz", "5:2,2,4,4", "--format", "json")
    assert out2 == out  # byte-identical reruns


def test_braid_json_rows_reparse():
    code, out, _ = run_cli("braid", "5:2,2,4,4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert sum(r["length"] for r in rows) == 8
    from purecycle.hurwitz import factorization_from_json

    for row in rows:
        factorization_from_json(json.loads(row["representative"]))


def test_csv_format():
    code, out, _ = run_cli("tails", "7", "3", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[:3] == ["p", "class", "h"]
    assert row.split(",")[:3] == ["7", "3", "2"]


def test_verify_subset():
    code, out, _ = run_cli("verify", "--criteria", "2,7")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("criterion")]
    assert len(lines) == 2
    assert all("PASS" in l for l in lines)


def test_verify_rejects_format():
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--criteria", "2", "--format", "json")
    assert exc.value.code == 2


def test_verify_rejects_unknown_criteria():
    code, out, err = run_cli("verify", "--criteria", "2,99,0")
    assert code == 2
    assert out == ""
    assert err == "error: no criterion 0,99; criteria are 1..11\n"


def test_hurwitz_list_emits_json_lines():
    code, out, _ = run_cli("hurwitz", "5:2,2,4,4", "--list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    from purecycle.hurwitz import factorization_from_json

    parsed = [factorization_from_json(json.loads(line)) for line in lines]
    assert all(f.degree == 5 for f in parsed)
