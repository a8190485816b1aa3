import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import purecycle.cli
from purecycle.cli import main


def run_cli(*argv):
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


def test_hurwitz_formula_three_points():
    code, out, _ = run_cli("hurwitz", "5:2,4,5", "--mode", "formula")
    assert code == 0
    assert out.splitlines()[-1].split() == ["5:2,4,5", "formula", "1"]


@pytest.mark.parametrize(
    "argv, err",
    [
        (("hurwitz", "5:2,2,2,2,2,2,2,2", "--mode", "formula"),
         "closed formulas cover 3 or 4 branch points only"),
        (("hurwitz", "3:3,3,3,3", "--mode", "brute"),
         "3:3,3,3,3 is not a genus-0 type (genus 2)"),
        (("admissible", "5:2,4,5"),
         "admissible taxonomy needs a pure-cycle 4-point type"),
        (("charp", "5:2,4,5"),
         "type 5:2,4,5 is outside the characteristic-p results"),
        # a type that begins with '-' is still the type, not an unknown option
        (("hurwitz", "-1:8,6", "--mode", "brute"), "degree must be positive, got -1"),
        (("braid", "-1:8,6"), "degree must be positive, got -1"),
        (("admissible", "-1:8,6"), "degree must be positive, got -1"),
        (("charp", "--format", "json", "-1:8,6"), "degree must be positive, got -1"),
    ],
    ids=["formula-many-points", "brute-genus-2", "admissible-triple", "charp-triple",
         "hurwitz-dashed", "braid-dashed", "admissible-dashed", "charp-dashed"],
)
def test_validation_errors_exit2(argv, err):
    assert run_cli(*argv) == (2, "", f"error: {err}\n")


def test_hurwitz_genus_validation_exit2():
    code, _, err = run_cli("hurwitz", "9:2,2,4,4", "--mode", "brute")
    assert code == 2
    assert "genus" in err


def test_bound_exceeded_exit3():
    # one type over the pure-cycle degree bound 11, one over the bound 9
    for argv in (("hurwitz", "12:6,6,7,7", "--mode", "brute"),
                 ("hurwitz", "10:2-2,8,10", "--mode", "both")):
        code, out, err = run_cli(*argv)
        assert code == 3
        assert out == ""
        assert err.startswith("resource guard: degree ")


@pytest.mark.parametrize("type_text", [
    "8:" + ",".join(["3"] * 7),
    "6:" + ",".join(["2"] * 10),
    "9:" + ",".join(["3"] * 8),
    "7:" + ",".join(["2"] * 12),
    "11:" + ",".join(["3"] * 10),
])
def test_many_point_types_exit3_before_the_search(type_text):
    """Genus-0 types that pass the degree rule but ran out of memory in the
    search are refused by the row bound, before any class is built."""
    start = time.perf_counter()
    code, out, err = run_cli("hurwitz", type_text, "--mode", "brute")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith("resource guard: about ") and err.endswith(
        " search rows exceed enumeration row bound 1e+07\n")


@pytest.mark.slow
def test_count_of_a_type_whose_classes_outgrew_memory():
    """7:2^6,4,4 passes both bounds; storing its 83,360 classes ran out of a
    1.5 GB address space, and counting them keeps one batch."""
    code, out, _ = run_cli("hurwitz", "7:2,2,2,2,2,2,4,4", "--mode", "brute", "--format", "csv")
    assert (code, out.splitlines()[-1]) == (0, '"7:2,2,2,2,2,2,4,4",brute,83360')


def test_environment_does_not_change_bounds(monkeypatch):
    monkeypatch.setenv("PURECYCLE_PURE_MAX_DEGREE", "5")
    code, out, _ = run_cli("hurwitz", "7:2,4,4,6", "--mode", "brute")
    assert code == 0
    assert out.splitlines()[-1].split() == ["7:2,4,4,6", "brute", "12"]


@pytest.mark.parametrize(
    "argv, err",
    [
        # trial division up to sqrt(p) alone would take seconds
        (("tails", "10000000000000061", "3"),
         "10000000000000061 exceeds the primality bound 1000000000000"),
        # c has degree 1600, and factoring it costs about p^3
        (("defdatum", "3203", "1601,1601,1601,1601"),
         "characteristic 3203 exceeds deformation-datum bound 250"),
    ],
    ids=["tails-prime", "defdatum-prime"],
)
def test_characteristic_bounds_exit3_before_work(argv, err):
    start = time.perf_counter()
    result = run_cli(*argv)
    assert time.perf_counter() - start < 1.0
    assert result == (3, "", f"resource guard: {err}\n")


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


def test_group_reports_s13_order(tmp_path):
    path = tmp_path / "s13.txt"
    path.write_text("degree: 13\n(1,2)\n(1,2,3,4,5,6,7,8,9,10,11,12,13)\n")
    code, out, _ = run_cli("group", str(path))
    assert code == 0
    assert out.splitlines()[1].split() == ["13", "6227020800", "true", "symmetric"]


def test_group_degree_bound_exit3_before_work(tmp_path):
    path = tmp_path / "s60.txt"
    path.write_text("degree: 60\n(1,2)\n(" + ",".join(map(str, range(1, 61))) + ")\n")
    start = time.perf_counter()
    result = run_cli("group", str(path), "--census")
    assert time.perf_counter() - start < 1.0
    assert result == (3, "", "resource guard: degree 60 exceeds group degree bound 40\n")


def test_group_generator_bound_exit3_before_work(tmp_path):
    path = tmp_path / "transpositions.txt"
    lines = [f"({i},{j})" for i in range(1, 41) for j in range(i + 1, 41)]
    path.write_text("degree: 40\n" + "\n".join(lines) + "\n")
    start = time.perf_counter()
    result = run_cli("group", str(path), "--census")
    assert time.perf_counter() - start < 1.0
    assert result == (3, "", "resource guard: 780 generators exceed group generator bound 370\n")


@pytest.mark.parametrize("degree", ["0", "-2"])
def test_group_rejects_degree_below_one(degree, tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text(f"degree: {degree}\n()\n")
    result = run_cli("group", str(path))
    assert result == (2, "", f"error: degree must be positive, got {degree}\n")


@pytest.mark.parametrize(
    "text, err",
    [
        ("", "no generators found in {path}"),
        ("degree: 5\n", "no generators found in {path}"),
        ("degree: 5\n(1,2)\ndegree: 5\n", "duplicate degree header"),
    ],
    ids=["empty-file", "header-only", "duplicate-header"],
)
def test_group_file_without_generators_exit2(text, err, tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text(text)
    assert run_cli("group", str(path)) == (2, "", f"error: {err.format(path=path)}\n")


@pytest.mark.parametrize(
    "text, err",
    [
        ("degree: 30000000\n(1,2)\n", "degree 30000000 exceeds group degree bound 40"),
        ("degree: 40\n" + "(1,2)\n" * 300000, "300000 generators exceed group generator bound 370"),
    ],
    ids=["huge-degree", "300000-generators"],
)
def test_group_file_bounds_exit3_before_parsing(text, err, tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text(text)
    start = time.perf_counter()
    result = run_cli("group", str(path))
    assert time.perf_counter() - start < 1.0
    assert result == (3, "", f"resource guard: {err}\n")


@pytest.mark.parametrize("name", ["missing.txt", "."], ids=["missing-file", "directory"])
def test_group_unreadable_file_exit2(name, tmp_path):
    code, out, err = run_cli("group", str(tmp_path / name))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


# SHA-256 of each subcommand's stdout, which a refactor of src/ must keep byte
# for byte
@pytest.mark.parametrize(
    "argv, fmt, digest",
    [
        (("hurwitz", "5:2,2,4,4"), "table",
         "e279e2b3853a73132b229aa0053b6beb6d628de6a1ea75c3d4373d2260695ab4"),
        (("hurwitz", "5:2,2,4,4"), "json",
         "46c0c7a372ca3f182e5d1c7d9db043f0a2f2337fc3b316bc53d9fe6e872edab5"),
        (("hurwitz", "5:2,2,4,4"), "csv",
         "213ce936e6985c8df51d947219d1f89b2d29a1478f12909f908ad2cf96582ee5"),
        (("hurwitz", "6:2,5,3,4"), "table",
         "c67a9285c5cc039d713edc6af650126ca7aedeb0a8c6e1a5030afc29ad808c06"),
        (("hurwitz", "6:2,5,3,4"), "json",
         "1dca1e38c1c4925b0d9f44cb191c58aa2b54f10fb634bfa68ea0118922f15548"),
        (("hurwitz", "6:2,5,3,4"), "csv",
         "acf4cb4c3d9b740f147d937dc4887a52f29f25a48cebfed4d9922b23b2c58c6c"),
        (("hurwitz", "7:3,5,3,5"), "table",
         "e6f52cc3ee5b2084e4230d099863d418061cf33cbb05a1de033c92afd78f314c"),
        (("hurwitz", "7:3,5,3,5"), "json",
         "37a82123018296332bd1238cecdf25e9e4d90afa37479c627d6604ac091ab230"),
        (("hurwitz", "7:3,5,3,5"), "csv",
         "a0355c38c5acc6a9b05db3eeb829962e4ddb0c963feca9a8e507acee691e97ee"),
        (("hurwitz", "7:3-3,3,7"), "table",
         "0b40e1cb29be0add77523ee5a8d2c01b23dd32fbf1e13f206568cd0ac64aa597"),
        (("hurwitz", "7:3-3,3,7"), "json",
         "6a481225fa51980c2e019c35e12f8cb53ca0879d420de9cff9823165192bf8b2"),
        (("hurwitz", "7:3-3,3,7"), "csv",
         "ce9f4b2c10301c45b0960ef6124b48fdf8adc11d0a1778ff8885f59e9795bd78"),
        (("hurwitz", "8:2-6,8,2"), "table",
         "6d46426297dd05b72c4c6d3d2b34c9612a81350e16fc2427ef904fba6e497414"),
        (("hurwitz", "8:2-6,8,2"), "json",
         "8b022f437631dd31198386c8a451919c0296f397932656f433e7769913b0a7da"),
        (("hurwitz", "8:2-6,8,2"), "csv",
         "84f9cf1619623583e0be0fd7d280d3ac6361bfbef5d3796b27573a20c4ee615d"),
        (("hurwitz", "6:2,5,3,4", "--list"), "table",
         "397dadb3c429072fc73feedb04f5e9888d4cded696bb56339ec43b2de7153945"),
        (("hurwitz", "5:2,2,4,4", "--list"), "table",
         "014a5e69c76727bb4cc93827cb8d70247ff1ce45043b9ba5323eff9b7221eb18"),
        (("hurwitz", "7:3,5,3,5", "--list"), "table",
         "f336d666cab64e9a46be84c9ec9d560067c1ee49b1ce4ac7381f5642756df42d"),
        (("hurwitz", "7:3-3,3,7", "--list"), "table",
         "209a66eb36eaf0aa209f9a72adce9ff195b3b3fbf1420ac0e02a6ec29454138f"),
        (("hurwitz", "8:2-6,8,2", "--list"), "table",
         "c06e42648b8c90f443bd3a494f26aa6dcf830f8180d575236aeb9e8212bac7f4"),
        (("hurwitz", "7:3,3,5,5", "--list"), "table",
         "ed5593f85c62002aff0d832bdd06b4d749da6830cbbd9e727ad9fc291d19a69a"),
        (("braid", "5:2,2,4,4"), "table",
         "3456fa132e6939a79f6020ad13c502cb88b4ee39b1ada553d543c650fc770926"),
        (("braid", "5:2,2,4,4"), "json",
         "1c9f07a5f549ee1953f60009bddf3c8bbfd5dff2551bfaa2bd8492e272cd4c36"),
        (("braid", "5:2,2,4,4"), "csv",
         "6eec4971f462997b34520be342438b5fef3e51598159ab4fc27d889a8f0bde50"),
        (("braid", "7:3,3,5,5"), "table",
         "e35cc640f4e1d23f290d7401fd77eab511095f8c5de96c7afacf009dd2af34bc"),
        (("braid", "7:3,3,5,5"), "json",
         "ce8815355ec3924c32c0597174843f10a95fecf82f2a71c103d5d15f2cd2f681"),
        (("braid", "7:3,3,5,5"), "csv",
         "4b94528cf27c9c0f3e72c5b3bd3d60d5af9867be6849dbedf5f5547d3f8710cc"),
        (("admissible", "7:3,3,5,5"), "table",
         "d857fe27033c3f1394faeb14d57d4b51f8c9dc7797cb95aa7c195e220314a5d6"),
        (("admissible", "7:3,3,5,5"), "json",
         "1d950397536d7dc7f7f6bf209212e06e2d5734de35004b90629f2c5ca9d680c2"),
        (("admissible", "7:3,3,5,5"), "csv",
         "c2f15a9f17e670ba9122022668b49d8d2af61e6a64ddc4bb5f3c1fda0c9e2a53"),
        (("admissible", "7:2,4,4,6", "--char", "7"), "table",
         "fc1620b7dda95ccd09be5f4abaa3749c5246fb8e54402f45371d4481e95de201"),
        (("admissible", "7:2,4,4,6", "--char", "7"), "json",
         "31a6bc7268a43d11a87333fca0755ac0d20324f79663889841e08501b36ae356"),
        (("admissible", "7:2,4,4,6", "--char", "7"), "csv",
         "41de67de2fe71f9bc7a81dd37e29c37d73e66850ea0dbaa2928498b8b2e3055d"),
        (("charp", "7:3,3,5,5"), "table",
         "0a792e9c27678227834986a476b94c6c3ad0d2fdb5b4b4b8e4c1f94d242c91af"),
        (("charp", "7:3,3,5,5"), "json",
         "4a0d684f0ad6b6492565f2574d5430c7241bdcf57024adceea02f0988fee5867"),
        (("charp", "7:3,3,5,5"), "csv",
         "f9c8ba2627fb4a8e230621f4961df4d19302080b8a89a4ba3b10385d9a1a06b7"),
        (("charp", "7:2,4,4,6"), "table",
         "4e0597abd2f3534a74b2b7a5b320daae28f9c3f626126467e2bb249bfd73e991"),
        (("charp", "7:2,4,4,6"), "json",
         "6e500d11a5f0dc4e6fed3da12228c6d3399eb8b366228dc4aed7ed8fcdd467e2"),
        (("charp", "7:2,4,4,6"), "csv",
         "14e8f361c8f488444549515725fc781b816df9d7344717f92575454b0d6b0833"),
        (("charp", "7:2-4,4,6"), "table",
         "4f5b308afd7b6ed09da4f0e09658b7ab37c6fc4591adfd6040974a22158d4833"),
        (("charp", "7:2-4,4,6"), "json",
         "90cd45c98f3365b8508849fe739658a6169e8c13d80657b27aec01ac628e3827"),
        (("charp", "7:2-4,4,6"), "csv",
         "e75ff7afb4b76f469f48cd40030499633bb1cfb167bce69d4fdddf414ba33f35"),
        (("defdatum", "13", "6,6,6,6"), "table",
         "e0bdc129fbe2cfa920744fd6de9a2489e329a4663812aba806d63864439f5a77"),
        (("defdatum", "13", "6,6,6,6"), "json",
         "42850fd7c56da3f0c4ec8fb518bd22e28247a9754438756474840abc3f917c54"),
        (("defdatum", "13", "6,6,6,6"), "csv",
         "f0ff047c7a4d7703d2e8a4ec0f885e18fc8ef23658de3dc0756cc692665f988c"),
        (("tails", "7", "3"), "table",
         "bd760d91d950cd49eec9130740684f7053005d56f6c7d8834ed567ac0bbb947d"),
        (("tails", "7", "3"), "json",
         "52344038de3f860e6cb907e92a523f02d73cfddcc2bc3ef30ecd914a95736ae5"),
        (("tails", "7", "3"), "csv",
         "1dabbae28e8b147a884f94bde3aa4389cc8827ef5ece7b645d56b596dc44e2f2"),
        (("tails", "7", "2-3"), "table",
         "6dbfedf728b101d4883e222789623256904a154894adefb2b5f02f7f19e53ca8"),
        (("tails", "7", "2-3"), "json",
         "6d585b85f789235f075b4969f42cc0895564c50654151b1953bbc461d3df4ebb"),
        (("tails", "7", "2-3"), "csv",
         "2a8d04dd399e944fc4eae0bfc2a323637efb2a8f3307f577780e7b07030b5d86"),
        # c(0) = 0 in these two: c = λ^2 (λ^2 + λ + 6) over F_7 and
        # λ^3 (8λ^2 + 9λ + 10) over F_13, each quadratic irreducible
        (("defdatum", "7", "2,4,2,4"), "table",
         "bab9cf54cae99d42dff2dced16db98a589b400984e8b510e166effc55839f711"),
        (("defdatum", "7", "2,4,2,4"), "json",
         "e377c4457e9a03516514e37701332d89f4e8bb0ef2bd39265be9b5ca76edd2d9"),
        (("defdatum", "7", "2,4,2,4"), "csv",
         "6d493b07e8548251dbc207acb1a3cfee8698079426cae0e1c554ed28427671dc"),
        (("defdatum", "13", "2,5,7,10"), "table",
         "1906224346969ee2565562804aadf7e5a4375257d369c861d02f51d7cfcd8622"),
        (("defdatum", "13", "2,5,7,10"), "json",
         "cb8d2c529e01899d5e869231f0b5a0a8b0d3f6c40967214785f9ec7a68f24111"),
        (("defdatum", "13", "2,5,7,10"), "csv",
         "417aaec3b7a8f584a65e8fccf71099f4ab6d3744e285da6f8854929b90a846b0"),
    ],
)
def test_subcommand_output_is_pinned(argv, fmt, digest):
    code, out, _ = run_cli(*argv, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ("6:2,5,3,4", "--list", "--format", "json"),
        ("6:2,5,3,4", "--list", "--format", "csv"),
        ("7:3-3,3,7", "--list", "--format", "json"),
        ("7:3-3,3,7", "--list", "--format", "csv"),
        ("5:2,2,4,4", "--list", "--mode", "formula"),
        ("5:2,2,4,4", "--list", "--mode", "brute"),
    ],
    ids=lambda argv: f"{argv[0]}-{argv[3]}",
)
def test_hurwitz_list_rejects_format_and_mode(argv):
    code, out, err = run_cli("hurwitz", *argv)
    assert code == 2
    assert out == ""
    assert err == "error: --list writes JSON lines and takes no --format or --mode\n"


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
    """A bad --criteria is a usage error: exit 2 before any criterion runs,
    with a message that names the option and the bad item."""
    for criteria, message in [
        ("2,99,0", "no criterion 0,99; criteria are 1..11"),
        # an empty list is an error, not "run every criterion"
        ("", "not an integer: '' in ''"),
        ("2,,3", "not an integer: '' in '2,,3'"),
        ("a", "not an integer: 'a' in 'a'"),
    ]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--criteria", criteria])
        assert exc.value.code == 2
        assert out.getvalue() == ""
        assert err.getvalue().endswith(
            f"purecycle verify: error: argument --criteria: {message}\n"
        )


def test_a_bug_is_not_reported_as_a_validation_error(monkeypatch):
    """main maps only the package's own errors and OSError to exit codes, so
    any other exception, such as a ValueError from a bug, keeps its traceback."""
    def broken(args, out):
        raise ValueError("a bug")

    monkeypatch.setattr(purecycle.cli, "cmd_tails", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["tails", "7", "3"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (("tails", "7", "3-"), "argument tail_class: not an integer: '' in '3-'"),
        (("tails", "7", "x"), "argument tail_class: not an integer: 'x' in 'x'"),
        (("defdatum", "5", "2,,2,4"), "argument exponents: not an integer: '' in '2,,2,4'"),
        (("defdatum", "5", "2,2,2,4.0"), "argument exponents: not an integer: '4.0' in '2,2,2,4.0'"),
    ],
)
def test_malformed_integer_lists_are_usage_errors(argv, message):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
    assert exc.value.code == 2
    assert err.getvalue().endswith(f"purecycle {argv[0]}: error: {message}\n")


@pytest.mark.parametrize(
    "type_text, message",
    [
        ("5:2,,4,4", "not an integer: '' in '5:2,,4,4'"),
        ("x:2,2,4,4", "not an integer: 'x' in 'x:2,2,4,4'"),
        ("5:2,2-,4", "not an integer: '' in '5:2,2-,4'"),
        ("5:2,2,4:4", "not an integer: '4:4' in '5:2,2,4:4'"),
    ],
)
def test_malformed_type_names_the_item_and_the_type(type_text, message):
    assert run_cli("hurwitz", type_text) == (2, "", f"error: {message}\n")


# -- the exit-code contract over the whole CLI grammar ---------------------------


def _genus0_types(max_degree=7, max_points=5):
    """Every genus-0 type of degree <= max_degree with at most max_points
    classes and at most one two-cycle class, classes sorted, as CLI text.
    Random text is almost never genus 0, so the grammar draws these too."""
    out = []
    for d in range(3, max_degree + 1):
        singles = [(e,) for e in range(2, d + 1)]
        pairs = [(a, b) for a in range(2, d) for b in range(a, d + 1 - a)]
        for r in range(3, max_points + 1):
            for classes in itertools.combinations_with_replacement(singles, r):
                shapes = [classes] + [(pair, *classes[1:]) for pair in pairs]
                for shape in shapes:
                    if sum(sum(c) - len(c) for c in shape) == 2 * d - 2:
                        out.append(f"{d}:" + ",".join("-".join(map(str, c)) for c in shape))
    return out


GENUS0_TYPES = _genus0_types()
PURE4_TYPES = [t for t in GENUS0_TYPES if t.count(",") == 3 and "-" not in t]
# one integer as typed: small, 30 digits, empty, or not an integer at all
INT_ITEMS = st.one_of(
    st.integers(-1, 7).map(str),
    st.integers(10**29, 10**30 - 1).map(str),
    st.sampled_from(["", " ", "a", "1.5", "0x3", "+", "-", ":", "(", "\u0663"]),
)
# an empty item makes a doubled separator
COMMA_INTS = st.lists(INT_ITEMS, min_size=1, max_size=5).map(",".join)
DASH_INTS = st.lists(INT_ITEMS, min_size=1, max_size=3).map("-".join)
# degree at most 7 and at most 5 classes, so that every enumeration is quick
TYPES = st.one_of(
    st.sampled_from(GENUS0_TYPES),
    st.builds(
        lambda degree, colon, classes: degree + colon + ",".join(classes),
        st.one_of(st.integers(1, 7).map(str), INT_ITEMS),
        st.sampled_from([":", "::", ""]),
        st.lists(st.one_of(st.integers(2, 7).map(str), DASH_INTS), min_size=1, max_size=5),
    ),
)
FORMATS = st.sampled_from([[], ["--format", "table"], ["--format", "json"], ["--format", "csv"]])
KUMMER_VECTORS = [
    (str(p), f"{a1},{a2},{a3},{2 * p - 2 - a1 - a2 - a3}")
    for p in (3, 5, 7)
    for a1, a2, a3 in itertools.product(range(p), repeat=3)
    if 0 <= 2 * p - 2 - a1 - a2 - a3 < p
]
TAIL_CLASSES = [(str(p), c) for p in (5, 7, 11) for c in ("2", "3", "4", "2-2", "2-3", "3-3")]
# never only known criteria, so that no criterion runs
BAD_CRITERIA = st.builds(
    lambda known, bad: ",".join(known + bad),
    st.sampled_from([[], ["2"]]),
    st.lists(st.sampled_from(["", "0", "12", "-1", "a", "1.5", "9" * 30]), min_size=1, max_size=3),
)
CYCLES = st.lists(st.integers(1, 7), min_size=2, max_size=4, unique=True).map(
    lambda pts: "(" + ",".join(map(str, pts)) + ")"
)
GENERATOR_FILES = st.one_of(
    st.builds(
        lambda degree, gens: f"degree: {degree}\n{chr(10).join(gens)}\n".encode(),
        st.sampled_from(["7", "7", "7", " 7", "x", "", "7:7", "9" * 30]),
        st.lists(st.one_of(CYCLES, CYCLES, COMMA_INTS.map("({})".format)), min_size=1, max_size=3),
    ),
    st.binary(max_size=40),
    st.just("# m\xe9lange\ndegree: 3\n(1,2)\n".encode("latin-1")),
)
# Genus-0 types that pass the degree rule but not the row bound: the five that
# ran out of memory before the row bound existed, whose classes are all alike,
# and two mixed ones, so that the shuffled class order moves something.
OVER_BUDGET = [(6, [2] * 10), (7, [2] * 12), (8, [3] * 7), (9, [3] * 8), (11, [3] * 10),
               (7, [2] * 10 + [3]), (8, [2, 2] + [3] * 6)]
OVER_BUDGET_CLASSES = {(str(d), tuple(sorted(map(str, classes)))) for d, classes in OVER_BUDGET}


def _over_budget(argv):
    if argv[0] not in ("hurwitz", "braid"):
        return False
    # the type is the last argument in the strategy that draws these types
    degree, _, classes = argv[-1].partition(":")
    return (degree, tuple(sorted(classes.split(",")))) in OVER_BUDGET_CLASSES


ARGVS = st.one_of(
    st.builds(lambda cmd, t: (cmd + [t], None),
              st.sampled_from([["hurwitz", "--mode", "brute"], ["hurwitz", "--mode", "both"],
                               ["hurwitz", "--list"], ["braid"]]),
              st.sampled_from(OVER_BUDGET).flatmap(
                  lambda dc: st.permutations(dc[1]).map(
                      lambda order: f"{dc[0]}:" + ",".join(map(str, order))))),
    st.builds(lambda t, mode, fmt: (["hurwitz", t, *mode, *fmt], None), TYPES,
              st.sampled_from([[], ["--mode", "formula"], ["--mode", "brute"], ["--list"]]),
              FORMATS),
    st.builds(lambda cmd, t, fmt: ([cmd, t, *fmt], None), st.sampled_from(["braid", "charp"]),
              st.one_of(st.sampled_from(PURE4_TYPES), TYPES), FORMATS),
    st.builds(lambda t, char, fmt: (["admissible", t, *char, *fmt], None),
              st.one_of(st.sampled_from(PURE4_TYPES), TYPES),
              st.one_of(st.sampled_from([[], ["--char", "5"], ["--char", "7"]]),
                        INT_ITEMS.map(lambda p: ["--char", p])), FORMATS),
    st.builds(lambda pa, fmt: (["defdatum", *pa, *fmt], None),
              st.one_of(st.sampled_from(KUMMER_VECTORS),
                        st.tuples(st.one_of(st.sampled_from(["3", "5", "251"]), INT_ITEMS),
                                  COMMA_INTS)), FORMATS),
    st.builds(lambda pe, fmt: (["tails", *pe, *fmt], None),
              st.one_of(st.sampled_from(TAIL_CLASSES),
                        st.tuples(st.one_of(st.sampled_from(["7", "1009"]), INT_ITEMS),
                                  DASH_INTS)), FORMATS),
    st.builds(lambda census, cap, fmt, data: (["group", "FILE", *census, *cap, *fmt], data),
              st.sampled_from([[], ["--census"]]),
              st.one_of(st.just([]), INT_ITEMS.map(lambda c: ["--census-cap", c])),
              FORMATS, GENERATOR_FILES),
    st.builds(lambda criteria: (["verify", "--criteria", criteria], None), BAD_CRITERIA),
)


@settings(max_examples=500, deadline=None)
@given(ARGVS)
def test_every_argv_exits_0_to_3_without_a_traceback(case):
    """Any argv, well formed or not, returns an exit code in 0..3 or is an
    argparse usage error (SystemExit 2), and no other exception leaves main."""
    argv, data = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if data is not None:
            path = Path(tmp) / "gens.txt"
            path.write_bytes(data)
            argv = [str(path) if a == "FILE" else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                code = 2
            seconds = time.perf_counter() - start
    assert code in (0, 1, 2, 3), argv
    if _over_budget(argv):
        # refused before the search: a type error or the row bound
        assert code in (2, 3) and seconds < 1.0, (argv, code, seconds)
    assert "Traceback" not in err.getvalue()
    assert "invalid literal" not in err.getvalue()


# Runs in a fresh interpreter, so that the modules pytest has already
# imported do not count.  Prints, after each argv, whether numpy is loaded.
NUMPY_PROBE = """
import contextlib, io, json, sys
from importlib import resources
import purecycle.cli
m11 = str(resources.files("purecycle") / "data" / "m11.txt")
loaded = {"import": "numpy" in sys.modules}
for argv in (["tails", "7", "3"], ["defdatum", "13", "6,6,6,6"], ["charp", "7:3,3,5,5"],
             ["admissible", "7:3,3,5,5", "--char", "7"], ["group", m11],
             ["hurwitz", "5:2,2,4,4"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert purecycle.cli.main(argv) == 0, argv
    loaded[argv[0]] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def test_numpy_is_imported_only_by_enumeration():
    src = str(Path(purecycle.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60, check=True)
    assert json.loads(proc.stdout) == {
        "import": False, "tails": False, "defdatum": False, "charp": False,
        "admissible": False, "group": False, "hurwitz": True,
    }


def test_hurwitz_list_emits_json_lines():
    code, out, _ = run_cli("hurwitz", "5:2,2,4,4", "--list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    from purecycle.hurwitz import factorization_from_json

    parsed = [factorization_from_json(json.loads(line)) for line in lines]
    assert all(f.degree == 5 for f in parsed)


def test_benchmark_tracer_resolves_every_boundary():
    """perfbench/tracer.py wraps purecycle functions by name; installing it
    fails when a name it targets is gone from src/."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    original_main = purecycle.cli.main
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            assert purecycle.cli.main(["tails", "7", "3"]) == 0
        assert tracer.stats["cli.main"].calls == 1
    finally:
        tracer.uninstall()
    assert purecycle.cli.main is original_main
