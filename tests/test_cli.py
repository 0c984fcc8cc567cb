import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nvbaker import (
    BakerSpec,
    Partition,
    TranspositionSpec,
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

from conftest import brick

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
