import hashlib
import json
import os
import random
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nvbaker import (
    BakerSpec,
    NvError,
    Partition,
    TranspositionSpec,
    Word,
    equals,
    factor_baker,
    identity,
    inverse,
    make_baker,
    make_transposition,
    parse_element,
    parse_word,
    render_svg,
    serialize_element,
    serialize_word,
    then,
    unit_brick,
)
from nvbaker.cli import main

from conftest import brick, chain, chain_axis, exponent_71_word

BAKER = make_baker(BakerSpec(unit_brick(2), 0, 1))
BAKER_TEXT = "NV 2\n0/2^1,0/2^0 -> 0/2^0,0/2^1\n1/2^1,0/2^0 -> 0/2^0,1/2^1\n"
QUADRANT_PARTITION_TEXT = (
    "NV 2\n0/2^1,0/2^1\n0/2^1,1/2^1\n1/2^1,0/2^1\n1/2^1,1/2^1\n"
)


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def baker_file(tmp_path):
    path = tmp_path / "baker.nv"
    path.write_text(BAKER_TEXT)
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.nv"
    path.write_text(serialize_element(identity(2)))
    return str(path)


class TestBakerCommand:
    def test_unit_cube(self, run, tmp_path):
        out = tmp_path / "b.nv"
        code, _, _ = run("baker", "--dim", "2", "--axes", "0,1", "-o", str(out))
        assert code == 0
        assert out.read_text() == BAKER_TEXT

    def test_output_mode_follows_the_umask(self, run, tmp_path):
        out = tmp_path / "b.nv"
        old = os.umask(0o022)
        try:
            code, _, _ = run("baker", "--dim", "2", "--axes", "0,1", "-o", str(out))
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o644

    def test_with_support(self, run, tmp_path):
        out = tmp_path / "b.nv"
        code, _, _ = run(
            "baker", "--support", "1/2^1,2/2^2", "--axes", "0,1", "-o", str(out)
        )
        assert code == 0
        e = parse_element(out.read_text())
        assert e == make_baker(BakerSpec(brick("1/2^1,2/2^2"), 0, 1))

    def test_needs_support_or_dim(self, run, tmp_path):
        code, _, err = run("baker", "--axes", "0,1", "-o", str(tmp_path / "b.nv"))
        assert code == 2
        assert "error:" in err

    def test_support_dim_cross_check(self, run, tmp_path):
        code, _, err = run(
            "baker",
            "--support",
            "0/2^1,0/2^0",
            "--dim",
            "3",
            "--axes",
            "0,1",
            "-o",
            str(tmp_path / "b.nv"),
        )
        assert code == 2
        assert "--dim" in err

    def test_bad_axes(self, run, tmp_path):
        out = str(tmp_path / "b.nv")
        assert run("baker", "--dim", "2", "--axes", "0", "-o", out)[0] == 2
        assert run("baker", "--dim", "2", "--axes", "0,0", "-o", out)[0] == 2
        assert run("baker", "--dim", "2", "--axes", "a,b", "-o", out)[0] == 2

    def test_bad_support_text(self, run, tmp_path):
        code, _, err = run(
            "baker", "--support", "zebra", "--axes", "0,1", "-o", str(tmp_path / "b.nv")
        )
        assert code == 2
        assert "syntax error" in err


class TestComposeInverse:
    def test_compose(self, run, tmp_path, baker_file):
        out = tmp_path / "sq.nv"
        code, _, _ = run("compose", baker_file, baker_file, "-o", str(out))
        assert code == 0
        assert out.read_text() == serialize_element(then(BAKER, BAKER))

    def test_inverse(self, run, tmp_path, baker_file):
        out = tmp_path / "inv.nv"
        code, _, _ = run("inverse", baker_file, "-o", str(out))
        assert code == 0
        assert out.read_text() == serialize_element(inverse(BAKER))

    def test_compose_with_inverse_gives_identity(self, run, tmp_path, baker_file):
        inv = tmp_path / "inv.nv"
        run("inverse", baker_file, "-o", str(inv))
        out = tmp_path / "id.nv"
        code, _, _ = run("compose", baker_file, str(inv), "-o", str(out))
        assert code == 0
        # Composition keeps the refined presentation; the map is the identity.
        assert out.read_text() == (
            "NV 2\n0/2^1,0/2^0 -> 0/2^1,0/2^0\n1/2^1,0/2^0 -> 1/2^1,0/2^0\n"
        )
        assert equals(parse_element(out.read_text()), identity(2))

    def test_dimension_mismatch_writes_nothing(self, run, tmp_path, baker_file):
        other = tmp_path / "id3.nv"
        other.write_text(serialize_element(identity(3)))
        out = tmp_path / "never.nv"
        code, _, err = run("compose", baker_file, str(other), "-o", str(out))
        assert code == 2
        assert "error:" in err
        assert not out.exists()
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".nvbaker-")]

    def test_missing_input(self, run, tmp_path):
        code, _, err = run(
            "compose",
            str(tmp_path / "absent.nv"),
            str(tmp_path / "absent.nv"),
            "-o",
            str(tmp_path / "o.nv"),
        )
        assert code == 2
        assert "error:" in err


class TestEqualCommand:
    def test_equal(self, run, baker_file):
        code, out, _ = run("equal", baker_file, baker_file)
        assert code == 0
        assert out == "equal\n"

    def test_equal_across_formats(self, run, tmp_path, baker_file):
        tree = tmp_path / "baker.tree"
        tree.write_text("(S0 L0 L1) => (S1 L0 L1)\n")
        code, out, _ = run("equal", baker_file, str(tree))
        assert code == 0
        assert out == "equal\n"

    def test_not_equal(self, run, baker_file, identity_file):
        code, out, _ = run("equal", baker_file, identity_file)
        assert code == 1
        assert out == "not equal\n"

    def test_witness(self, run, baker_file, identity_file):
        code, out, _ = run("equal", baker_file, identity_file, "--witness")
        assert code == 1
        assert out == "not equal\nwitness: (1/4, 1/2)\n"

    def test_dimensions_differ(self, run, tmp_path, identity_file):
        # Unequal, as `equals` and `verify` have it; no point lies in both
        # cubes, so no witness is printed.
        cube = tmp_path / "id3.nv"
        cube.write_text(serialize_element(identity(3)))
        for flags in ((), ("--witness",)):
            assert run("equal", identity_file, str(cube), *flags) == (1, "not equal\n", "")

    @pytest.mark.parametrize("name", ["chain.nv", "chain.tree"])
    def test_equal_on_deep_chains(self, run, tmp_path, name):
        # 151 pairs over 20 axes, or 101 tree leaves over 10 axes.
        path = tmp_path / name
        if name.endswith(".nv"):
            path.write_text(chain_element_text(150, 20, 1))
        else:
            path.write_text(chain_tree_text(100, 10, 1))
        code, out, _ = run("equal", str(path), str(path))
        assert (code, out) == (0, "equal\n")


def chain_element_text(splits: int, dimension: int, seed: int) -> str:
    """Two mixed chains paired leaf by leaf, one pair a line, shuffled."""
    def text(b):
        return ",".join(f"{c.numerator}/2^{c.exponent}" for c in b.cells)

    domains = chain(splits, dimension, "mixed", seed)
    pairs = zip(domains, chain(splits, dimension, "mixed", seed + 1))
    return f"NV {dimension}\n" + "".join(f"{text(d)} -> {text(r)}\n" for d, r in pairs)


def chain_tree_text(splits: int, dimension: int, seed: int) -> str:
    """Two chain trees keeping each upper half as a leaf, labels shuffled."""
    tree = "L{}"
    for k in reversed(range(splits)):
        tree = f"(S{chain_axis(k, dimension)} {tree} L{{}})"
    labels = list(range(splits + 1))
    random.Random(seed).shuffle(labels)
    return tree.format(*range(splits + 1)) + "\n=> " + tree.format(*labels) + "\n"


class TestTransposeCommand:
    def test_swap_by_file_position(self, run, tmp_path):
        ambient = tmp_path / "quads.nv"
        ambient.write_text(QUADRANT_PARTITION_TEXT)
        out = tmp_path / "t.nv"
        code, _, _ = run(
            "transpose", "--ambient", str(ambient), "--swap", "1,2", "-o", str(out)
        )
        assert code == 0
        quads = [b for half in unit_brick(2).split(0) for b in half.split(1)]
        expected = make_transposition(
            TranspositionSpec(Partition(tuple(quads)), quads[1], quads[2])
        )
        assert parse_element(out.read_text()) == expected

    def test_swap_out_of_range(self, run, tmp_path):
        ambient = tmp_path / "quads.nv"
        ambient.write_text(QUADRANT_PARTITION_TEXT)
        code, _, err = run(
            "transpose", "--ambient", str(ambient), "--swap", "1,4", "-o", "t.nv"
        )
        assert code == 2
        assert "out of range" in err

    def test_swap_must_be_integers(self, run, tmp_path):
        ambient = tmp_path / "quads.nv"
        ambient.write_text(QUADRANT_PARTITION_TEXT)
        code, _, err = run(
            "transpose", "--ambient", str(ambient), "--swap", "a,b", "-o", "t.nv"
        )
        assert code == 2


class TestFactorBakerCommand:
    def test_writes_verified_word(self, run, tmp_path, baker_file):
        out = tmp_path / "word.nvw"
        code, _, _ = run("factor-baker", "--dim", "2", "--axes", "0,1", "-o", str(out))
        assert code == 0
        word = parse_word(out.read_text())
        assert len(word.factors) == 31
        assert equals(word.product(), BAKER)

    def test_report_is_deterministic(self, run, tmp_path):
        word = tmp_path / "w.nvw"
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for report in (r1, r2):
            code, _, _ = run(
                "factor-baker",
                "--dim",
                "2",
                "--axes",
                "0,1",
                "--epsilon",
                "1/2^1",
                "-o",
                str(word),
                "--report",
                str(report),
            )
            assert code == 0
        assert r1.read_bytes() == r2.read_bytes()
        payload = json.loads(r1.read_text())
        assert payload["verified"] is True
        assert payload["counts"]["factors"] == 127
        assert payload["counts"]["small_bakers"] == 16
        assert payload["epsilon"] == "1/2"
        assert payload["levels"][0] == ["0/2^0,0/2^0"]

    def test_unwritable_report_leaves_no_word(self, run, tmp_path):
        word, report = tmp_path / "w.nvw", tmp_path / "missing" / "r.json"
        code, stdout, err = run(
            "factor-baker", "--dim", "2", "--axes", "0,1", "--epsilon", "1/2^1",
            "-o", str(word), "--report", str(report),
        )
        assert code == 2
        assert err.startswith("error:") and stdout == ""
        assert os.listdir(tmp_path) == []

    def test_report_on_the_word_path_is_refused(self, run, tmp_path):
        # The same file, named twice or through another spelling of its
        # path: a report written over the word would lose the word.
        target = tmp_path / "F"
        target.write_text("kept\n")
        for report in (str(target), f"{tmp_path}/./F", f"{tmp_path}/sub/../F"):
            code, stdout, err = run(
                "factor-baker", "--dim", "2", "--axes", "0,1",
                "-o", str(target), "--report", report,
            )
            assert code == 2
            assert err.startswith("error:") and "same file" in err
            assert stdout == ""
            assert os.listdir(tmp_path) == ["F"]
            assert target.read_text() == "kept\n"

    def test_quarter_epsilon_bytes_are_pinned(self, run, tmp_path):
        word, report = tmp_path / "w.nvw", tmp_path / "r.json"
        code, _, _ = run(
            "factor-baker", "--dim", "2", "--axes", "0,1", "--epsilon", "1/2^2",
            "-o", str(word), "--report", str(report),
        )
        assert code == 0
        spec = BakerSpec(unit_brick(2), 0, 1)
        library = serialize_word(factor_baker(spec, Fraction(1, 4)).word).encode()
        assert word.read_bytes() == library
        assert hashlib.sha256(library).hexdigest() == (
            "80ab210dba57c9315b79eec1cb5aab70a45ce139258150588e60f98c5ebb4e6e"
        )
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "66be62fa84d33c2a086c0c68d9c700b04a95a45b564bbb562319f5e3f12894b7"
        )

    def test_bad_epsilon(self, run, tmp_path):
        out = str(tmp_path / "w.nvw")
        code, _, err = run(
            "factor-baker", "--dim", "2", "--axes", "0,1", "--epsilon", "1/3", "-o", out
        )
        assert code == 2
        assert "syntax error" in err

    def test_unreachable_epsilon_writes_nothing(self, run, tmp_path):
        out = tmp_path / "w.nvw"
        code, _, err = run(
            "factor-baker",
            "--dim",
            "2",
            "--axes",
            "0,1",
            "--epsilon",
            "0",
            "-o",
            str(out),
        )
        assert code == 2
        assert "positive" in err
        assert not out.exists()


class TestVerifyCommand:
    def test_verified(self, run, tmp_path, baker_file):
        word = tmp_path / "w.nvw"
        run("factor-baker", "--dim", "2", "--axes", "0,1", "-o", str(word))
        code, out, _ = run("verify", str(word), baker_file)
        assert code == 0
        assert out == "verified\n"

    def test_mismatch(self, run, tmp_path, identity_file):
        word = tmp_path / "w.nvw"
        run("factor-baker", "--dim", "2", "--axes", "0,1", "-o", str(word))
        code, out, _ = run("verify", str(word), identity_file)
        assert code == 1
        assert out == "mismatch\n"

    def test_dimension_mismatch(self, run, tmp_path):
        word, target = tmp_path / "w.nvw", tmp_path / "id3.nv"
        run("factor-baker", "--dim", "2", "--axes", "0,1", "-o", str(word))
        target.write_text(serialize_element(identity(3)))
        code, out, _ = run("verify", str(word), str(target))
        assert code == 1
        assert out == "mismatch\n"

    def test_word_past_the_exponent_limit_fails_closed(self, run, tmp_path):
        # Each factor halves the piece at 0: 64 factors reach exponent 65.
        shrink = parse_element("NV 1\n0/2^1 -> 0/2^2\n2/2^2 -> 1/2^2\n3/2^2 -> 1/2^1\n")
        word, target = tmp_path / "w.nvw", tmp_path / "id1.nv"
        word.write_text(serialize_word(Word(1, (shrink,) * 64)))
        target.write_text(serialize_element(identity(1)))
        code, out, err = run("verify", str(word), str(target))
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert out == ""

    def test_product_past_the_exponent_limit_fails_closed(self, run, tmp_path):
        # Two factors within the limit whose product cuts exponent 71.
        word, target = tmp_path / "w.nvw", tmp_path / "id1.nv"
        word.write_text(serialize_word(exponent_71_word()))
        target.write_text(serialize_element(identity(1)))
        code, out, err = run("verify", str(word), str(target))
        assert code == 2
        assert err.startswith("error:") and "exceeds the limit" in err
        assert "Traceback" not in err
        assert out == ""


class TestRenderCommand:
    def test_renders_svg(self, run, tmp_path, baker_file):
        out = tmp_path / "b.svg"
        code, _, _ = run("render", baker_file, "-o", str(out))
        assert code == 0
        assert out.read_text() == render_svg(BAKER)

    def test_deterministic(self, run, tmp_path, baker_file):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run("render", baker_file, "-o", str(a))
        run("render", baker_file, "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_three_dimensional_rejected(self, run, tmp_path):
        element = tmp_path / "id3.nv"
        element.write_text(serialize_element(identity(3)))
        out = tmp_path / "never.svg"
        code, _, err = run("render", str(element), "-o", str(out))
        assert code == 2
        assert "dimension" in err
        assert not out.exists()


class TestOutputErrors:
    """An output that cannot be written is an error naming the user's path."""

    def test_missing_parent_directory(self, run, tmp_path, baker_file):
        out = tmp_path / "missing" / "x.svg"
        code, stdout, err = run("render", baker_file, "-o", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"error: cannot write {out}: No such file or directory\n"
        assert os.listdir(tmp_path) == ["baker.nv"]

    @pytest.mark.parametrize("spelling", ["absolute", "dot"])
    def test_existing_directory(self, run, tmp_path, baker_file, monkeypatch, spelling):
        # `-o .` once put its temp file in the parent of the current directory.
        outdir = tmp_path / "out"
        outdir.mkdir()
        out = str(outdir)
        if spelling == "dot":
            monkeypatch.chdir(outdir)
            out = "."
        code, stdout, err = run("render", baker_file, "-o", out)
        assert (code, stdout) == (2, "")
        assert err == f"error: cannot write {out}: it is a directory\n"
        assert ".nvbaker-" not in err
        assert os.listdir(outdir) == []
        assert sorted(os.listdir(tmp_path)) == ["baker.nv", "out"]

    def test_fifo_is_refused_and_left_intact(self, run, tmp_path):
        fifo = tmp_path / "fifo1"
        os.mkfifo(fifo)
        code, stdout, err = run("baker", "--dim", "2", "--axes", "0,1", "-o", str(fifo))
        assert (code, stdout) == (2, "")
        assert err == f"error: cannot write {fifo}: it is not a regular file\n"
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["fifo1"]


class TestRandomCommand:
    def test_single_file(self, run, tmp_path):
        out = tmp_path / "e.nv"
        code, _, _ = run(
            "random", "--dim", "2", "--depth", "5", "--seed", "42", "-o", str(out)
        )
        assert code == 0
        parse_element(out.read_text())

    def test_reproducible(self, run, tmp_path):
        a, b = tmp_path / "a.nv", tmp_path / "b.nv"
        for path in (a, b):
            run("random", "--dim", "2", "--depth", "5", "--seed", "42", "-o", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_count_writes_sequential_seeds(self, run, tmp_path):
        outdir = tmp_path / "corpus"
        code, _, _ = run(
            "random",
            "--dim", "2", "--depth", "5", "--seed", "10",
            "--count", "3", "-o", str(outdir),
        )
        assert code == 0
        names = sorted(os.listdir(outdir))
        assert names == ["element-0000.nv", "element-0001.nv", "element-0002.nv"]
        single = tmp_path / "single.nv"
        run("random", "--dim", "2", "--depth", "5", "--seed", "11", "-o", str(single))
        assert (outdir / "element-0001.nv").read_bytes() == single.read_bytes()

    def test_count_one_into_directory(self, run, tmp_path):
        outdir = tmp_path / "d"
        outdir.mkdir()
        code, _, _ = run(
            "random", "--dim", "2", "--depth", "4", "--seed", "0", "-o", str(outdir)
        )
        assert code == 0
        assert os.listdir(outdir) == ["element-0000.nv"]

    def test_each_element_is_written_as_it_is_made(self, run, tmp_path, monkeypatch):
        outdir = tmp_path / "corpus"
        made, seen = [], []

        def serialize(e):
            made.append(e)
            if len(made) == 3:
                seen.extend(os.listdir(outdir))
                raise NvError("the third element is refused")
            return serialize_element(e)

        monkeypatch.setattr("nvbaker.cli.serialize_element", serialize)
        code, stdout, err = run(
            "random", "--dim", "2", "--depth", "4", "--seed", "3",
            "--count", "5", "-o", str(outdir),
        )
        assert (code, stdout, err) == (2, "", "error: the third element is refused\n")
        # The first two texts were in their temp files before the third was made,
        # and the failure removed them: no element file and no temp file is left.
        assert len(made) == 3
        assert len(seen) == 2 and all(name.startswith(".nvbaker-") for name in seen)
        assert os.listdir(outdir) == []


SUPPORT_65 = ",".join(["0/2^0"] * 65)  # one axis past MAX_DIMENSION

FAIL_CLOSED_CASES = {
    "random_dim_zero": ("random", "--dim", "0", "--depth", "3", "--seed", "1"),
    "random_negative_depth": ("random", "--dim", "2", "--depth", "-1", "--seed", "1"),
    "random_count_zero": ("random", "--dim", "2", "--depth", "3", "--seed", "1", "--count", "0"),
    "random_count_too_large": (
        "random", "--dim", "2", "--depth", "3", "--seed", "1", "--count", "10001",
    ),
    "random_depth_too_large": ("random", "--dim", "2", "--depth", "13", "--seed", "1"),
    "epsilon_long_exponent": (
        "factor-baker", "--dim", "2", "--axes", "0,1", "--epsilon", "1/2^" + "9" * 5000,
    ),
    "epsilon_long_numerator": (
        "factor-baker", "--dim", "2", "--axes", "0,1", "--epsilon", "9" * 5000 + "/2^3",
    ),
    "epsilon_huge_exponent": (
        "factor-baker", "--dim", "2", "--axes", "0,1", "--epsilon", "1/2^10000000000",
    ),
    "epsilon_past_split_depth": (
        "factor-baker", "--dim", "2", "--axes", "0,1", "--epsilon", "1/2^12",
    ),
    "support_long_numerator": (
        "baker", "--support", "9" * 5000 + "/2^3,0/2^0", "--axes", "0,1",
    ),
    "baker_dim_too_large": ("baker", "--dim", "65", "--axes", "0,1"),
    "factor_baker_dim_too_large": ("factor-baker", "--dim", "65", "--axes", "0,1"),
    "baker_support_too_wide": ("baker", "--support", SUPPORT_65, "--axes", "0,1"),
    "factor_baker_support_too_wide": ("factor-baker", "--support", SUPPORT_65, "--axes", "0,1"),
    "random_dim_too_large": ("random", "--dim", "65", "--depth", "1", "--seed", "1"),
}


@pytest.mark.parametrize("argv", FAIL_CLOSED_CASES.values(), ids=FAIL_CLOSED_CASES.keys())
def test_bad_input_fails_closed(run, tmp_path, argv):
    out = tmp_path / "out"
    code, stdout, err = run(*argv, "-o", str(out))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert stdout == ""
    assert not out.exists()
    assert os.listdir(tmp_path) == []


def test_deep_tree_file_fails_closed(run, tmp_path):
    depth = 3000
    tree = "(S0 " * depth + "L0" + "".join(f" L{k})" for k in range(1, depth + 1))
    source = tmp_path / "deep.nv"
    source.write_text(f"{tree}\n=> L0\n")
    out = tmp_path / "out.nv"
    code, stdout, err = run("inverse", str(source), "-o", str(out))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert stdout == ""
    assert os.listdir(tmp_path) == ["deep.nv"]


BAD_FILES = {
    "header_long_dimension": "NV " + "9" * 5000 + "\n0/2^0 -> 0/2^0\n",
    "cell_long_numerator": "NV 1\n" + "9" * 5000 + "/2^3 -> 0/2^0\n",
    "tree_long_axis": "(S" + "9" * 5000 + " L0 L1) => (S0 L1 L0)\n",
    "tree_long_label": "(S0 L0 L1) => (S0 L1 L" + "9" * 5000 + ")\n",
    "tree_dim_too_large": "(S64 L0 L1) => (S64 L1 L0)\n",
    "header_dim_too_large": "NV 65\n" + ",".join(["0/2^0"] * 65) + " -> "
    + ",".join(["0/2^0"] * 65) + "\n",
}


@pytest.mark.parametrize("text", BAD_FILES.values(), ids=BAD_FILES.keys())
def test_bad_file_fails_closed(run, tmp_path, text):
    source = tmp_path / "bad.nv"
    source.write_text(text)
    out = tmp_path / "out.nv"
    code, stdout, err = run("inverse", str(source), "-o", str(out))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert stdout == ""
    assert os.listdir(tmp_path) == ["bad.nv"]


NON_UTF8_CASES = {
    "inverse": ("inverse", "bad.nv", "-o", "out.nv"),
    "verify_word": ("verify", "bad.nv", "baker.nv"),
    "verify_target": ("verify", "word.nv", "bad.nv"),
}


@pytest.mark.parametrize("argv", NON_UTF8_CASES.values(), ids=NON_UTF8_CASES.keys())
def test_non_utf8_file_fails_closed(run, tmp_path, argv):
    (tmp_path / "bad.nv").write_bytes(b"\xff\xfe")
    (tmp_path / "baker.nv").write_text(BAKER_TEXT)
    (tmp_path / "word.nv").write_text(serialize_word(Word(2, (BAKER,))))
    files = sorted(os.listdir(tmp_path))
    code, stdout, err = run(*(str(tmp_path / a) if a.endswith(".nv") else a for a in argv))
    assert code == 2
    assert err.startswith("error:") and "not UTF-8" in err
    assert "Traceback" not in err
    assert stdout == ""
    assert sorted(os.listdir(tmp_path)) == files


BAD_WORDS = {
    "broken_second_block": BAKER_TEXT + "--\n" + BAKER_TEXT.replace("0,1/2^1", "0,5/2^1"),
    "mixed_dimensions": BAKER_TEXT + "--\n" + serialize_element(identity(3)),
    "not_utf8": BAKER_TEXT + "--\n\udcff\udcfe\n",
}


@pytest.mark.parametrize("text", BAD_WORDS.values(), ids=BAD_WORDS.keys())
def test_verify_bad_word_fails_closed(run, tmp_path, baker_file, text):
    word = tmp_path / "w.nvw"
    word.write_bytes(text.encode("utf-8", "surrogateescape"))
    code, stdout, err = run("verify", str(word), baker_file)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert stdout == ""


class TestUsageErrors:
    def test_no_arguments(self, run):
        assert run()[0] == 2

    def test_unknown_command(self, run):
        assert run("frobnicate")[0] == 2

    def test_missing_output_flag(self, run, baker_file):
        assert run("inverse", baker_file)[0] == 2


def test_cli_import_leaves_numpy_unloaded():
    import nvbaker

    src = str(Path(nvbaker.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run(
        [sys.executable, "-c", "import nvbaker.cli, sys; assert 'numpy' not in sys.modules"],
        env=env,
        check=True,
    )


def test_cli_import_loads_no_dataclasses_inspect_json_or_numpy():
    # What `import nvbaker.cli` adds to a fresh interpreter is what every
    # command pays before `main` runs; none of these is needed to start.
    import nvbaker

    src = str(Path(nvbaker.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys; before = set(sys.modules); import nvbaker.cli; "
        "print(*set(sys.modules) - before)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout
    added = set(out.split())
    assert "nvbaker.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "json", "numpy"})
