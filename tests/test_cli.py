import json

import pytest
from click.testing import CliRunner

from multitangent import basis_table
from multitangent.cli import main


@pytest.fixture
def runner():
    return CliRunner()


class TestReduce:
    def test_text(self, runner):
        result = runner.invoke(main, ["reduce", "2,2"])
        assert result.exit_code == 0
        assert result.output.strip() == "Te[2,2] = 2·Ze[2]·Te^2"

    def test_json(self, runner):
        result = runner.invoke(main, ["reduce", "2,2", "--json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["sequence"] == [2, 2]

    def test_divergent_zero(self, runner):
        result = runner.invoke(main, ["reduce", "2,1"])
        assert result.output.strip() == "Te[2,1] = 0"


def eval_row(output: str) -> list[str]:
    import csv as csvmod
    import io as iomod

    return next(csvmod.reader(iomod.StringIO(output)))


class TestEval:
    def test_direct_row(self, runner):
        result = runner.invoke(main, ["eval", "2,2", "--z", "0.3+0.7j", "--direct"])
        assert result.exit_code == 0
        fields = eval_row(result.output)
        assert fields[0] == "2,2"
        assert fields[5] == "direct"
        assert len(fields) == 7

    def test_direct_and_reduced_agree(self, runner):
        out1 = runner.invoke(main, ["eval", "2,1,3", "--z", "0.2+0.5j", "--direct"])
        out2 = runner.invoke(main, ["eval", "2,1,3", "--z", "0.2+0.5j", "--reduced"])
        v1 = complex(float(eval_row(out1.output)[3]), float(eval_row(out1.output)[4]))
        v2 = complex(float(eval_row(out2.output)[3]), float(eval_row(out2.output)[4]))
        assert v1 != 0 and abs(v1 - v2) < 1e-8

    def test_pole_guard_exit(self, runner):
        result = runner.invoke(main, ["eval", "2", "--z", "1.0000001+0j"])
        assert result.exit_code != 0

    @pytest.mark.parametrize("z", ["nan", "1e400", "-inf", "0.5+nanj"])
    def test_non_finite_point_rejected(self, runner, z):
        result = runner.invoke(main, ["eval", "2", f"--z={z}"])
        assert result.exit_code == 1
        assert "is not finite" in result.output

    @pytest.mark.parametrize("args", [["170", "--z", "0.01+0.01j"],
                                      ["200", "--z", "0.3+0.5j", "--reduced"]])
    def test_terms_past_the_float_range_exit_2(self, runner, args):
        """Te[170] near 0 has a row weight past the float range, and Te^200's
        bound passes it: both are refused as unreachable, never a traceback."""
        result = runner.invoke(main, ["eval", *args])
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize("z, x, y", [("100000000000.3+0.1j", "100000000000.3", "0.1"),
                                         ("0.3+0.7j", "0.3", "0.7"), ("2+0.5j", "2.0", "0.5")])
    def test_prints_the_point_it_evaluated(self, runner, z, x, y):
        """x and y are the shortest strings that read back as the doubles
        evaluated: 12 significant digits printed 1e11 + 0.3 as 1e11."""
        result = runner.invoke(main, ["eval", "3", "--z", z])
        assert result.exit_code == 0, result.output
        fields = eval_row(result.output)
        assert fields[1:3] == [x, y] and len(fields) == 7
        assert complex(float(x), float(y)) == complex(z)

    def test_divergent_sequences_need_reduced_mode(self, runner):
        direct = runner.invoke(main, ["eval", "1,2", "--z", "0.3+0.7j", "--direct"])
        assert direct.exit_code != 0
        reduced = runner.invoke(main, ["eval", "1,1", "--z", "0.3+0.7j", "--reduced"])
        assert reduced.exit_code == 0
        value = float(eval_row(reduced.output)[3])
        assert abs(value + 4.9348022) < 1e-6  # -pi^2/2


class TestTable:
    def test_text_output(self, runner):
        result = runner.invoke(main, ["table", "--max-weight", "4"])
        assert result.exit_code == 0
        assert "Te[2,2] = 2·Ze[2]·Te^2" in result.output

    @pytest.mark.parametrize("weight", ["0", "-1"])
    def test_max_weight_below_one_rejected(self, runner, weight):
        result = runner.invoke(main, ["table", f"--max-weight={weight}"])
        assert result.exit_code == 1
        assert "maximum weight must be at least 1" in result.output

    def test_write_file(self, runner, tmp_path):
        out = tmp_path / "table.csv"
        result = runner.invoke(
            main, ["table", "--max-weight", "3", "--format", "csv", "--output", str(out)]
        )
        assert result.exit_code == 0
        assert out.read_text().startswith("sequence,")

    def test_json_independent_of_precision(self, runner, tmp_path):
        """Coefficients within the target of 0 print as 0, not as their
        truncation noise, and the rest do not move with the precision."""
        args = ["table", "--max-weight", "7", "--format", "json"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"working_precision": 256}))
        at_128 = runner.invoke(main, args)
        at_256 = runner.invoke(main, ["--config", str(cfg), *args])
        assert at_128.exit_code == at_256.exit_code == 0
        assert at_128.output == at_256.output
        rows = {tuple(e["sequence"]): e for e in json.loads(at_128.output)}
        assert rows[(2, 1, 2)]["numeric_coeffs"] == {"1": "0"}


class TestLabCommands:
    def test_relations(self, runner):
        result = runner.invoke(main, ["relations", "--weight", "5"])
        assert result.exit_code == 0
        assert "kernel dimension 1" in result.output

    def test_relations_coverage_exit(self, runner):
        weight = basis_table.MAX_WEIGHT + 2
        result = runner.invoke(main, ["relations", "--weight", str(weight)])
        assert result.exit_code == 3

    def test_project(self, runner):
        result = runner.invoke(main, ["project", "3"])
        assert result.exit_code == 0
        assert "1/6·Te[3,2]" in result.output

    def test_cleanse(self, runner):
        result = runner.invoke(main, ["cleanse", "2,1,3"])
        assert result.exit_code == 0
        assert "Te[3,3]" in result.output

    def test_fourier(self, runner):
        result = runner.invoke(main, ["fourier", "2", "--n", "1"])
        assert result.exit_code == 0
        assert "39.478" in result.output


class TestVerify:
    def test_trifact_suite(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "trifact"])
        assert result.exit_code == 0
        assert "[ok] suite trifact" in result.output


class TestConfig:
    def test_config_file(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target_abs_error": 1e-6, "working_precision": 96}))
        result = runner.invoke(
            main, ["--config", str(cfg), "eval", "2", "--z", "0.5+0j"]
        )
        assert result.exit_code == 0
        assert "1.0e-06" in result.output

    @pytest.mark.parametrize(
        "args",
        [["relations", "--weight", "5"], ["project", "3"], ["verify", "--suite", "trifact"]],
    )
    def test_unreachable_precision_exits_2(self, runner, tmp_path, args):
        cfg = tmp_path / "cfg.json"
        # a precision no other test uses, so no cached nested sum serves them
        cfg.write_text(json.dumps({"truncation_cap": 10, "working_precision": 72}))
        result = runner.invoke(main, ["--config", str(cfg), *args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "error: nested sum" in result.output

    def test_bad_truncation_cap_rejected(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"truncation_cap": 5}))
        result = runner.invoke(main, ["--config", str(cfg), "reduce", "2"])
        assert result.exit_code != 0

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"pole_guard": -1}, "pole_guard"),
            ({"target_abs_error": float("nan")}, "target_abs_error"),
            ({"target_abs_error": "1e-6"}, "target_abs_error"),
            ({"truncation_cap": "x"}, "truncation_cap"),
            ({"working_precision": 100.5}, "working_precision"),
            ({"pole_guard": True}, "pole_guard"),
        ],
    )
    def test_bad_numeric_setting_rejected(self, runner, tmp_path, config, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, ["--config", str(cfg), "eval", "2,3", "--z", "2+0j"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert f"error: {field} must be" in result.output

    @pytest.mark.parametrize("config", [[["target_abs_error", 1e-6]], 1e-6, None])
    def test_config_that_is_not_an_object_rejected(self, runner, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, ["--config", str(cfg), "reduce", "2"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "error: config must be a JSON object" in result.output

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"basis_table": "table.json"}))
        result = runner.invoke(main, ["--config", str(cfg), "reduce", "2"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "error: unknown config keys: basis_table" in result.output
