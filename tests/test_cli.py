import json
import os
import subprocess
import sys

import pytest

import foelab
from foelab.cli import build_parser, main
from foelab.reports import csv_text, write_csv, write_json

PATH3 = "site 0 1\nsite 1 1\nsite 2 1\nedge 0 1 0.5\nedge 1 2 0.5\n"


def read(path):
    return path.read_text()


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run(tmp_path, *args):
    out = tmp_path / "out"
    return main(list(args) + ["--output", str(out)]), out


class TestExitCodes:
    def test_foel_chain_ok(self, tmp_path):
        code, out = run(tmp_path, "foel", "--chain", "1,1,1,1,1", "--J", "1,1,1,1")
        assert code == 0
        payload = json.loads(read(out / "foel.json"))
        assert payload["foel_ok"] is True
        assert payload["margins"]

    def test_beta_sweep_finds_violation(self, tmp_path):
        code, out = run(tmp_path, "foel", "--spin1-beta", "0.4", "--L", "6")
        assert code == 1
        payload = json.loads(read(out / "foel.json"))
        assert payload["witness_found"] is True

    def test_beta_sweep_no_witness_flagged(self, tmp_path):
        code, out = run(tmp_path, "foel", "--spin1-beta", "0.1", "--L", "4")
        assert code == 0
        payload = json.loads(read(out / "foel.json"))
        assert payload["witness_found"] is False

    def test_usage_error_unknown_command(self, tmp_path, capsys):
        assert main(["no-such-command"]) == 2

    def test_usage_error_missing_input(self, tmp_path):
        code, _ = run(tmp_path, "foel")
        assert code == 2

    def test_usage_error_bad_graph_file(self, tmp_path):
        bad = tmp_path / "bad.g"
        bad.write_text("site 0 1\nsite x 1\n")
        code, _ = run(tmp_path, "ssep-gap", "--graph", str(bad))
        assert code == 2

    def test_numerical_error_exit_code(self, tmp_path, monkeypatch):
        import foelab.cli as cli
        from foelab.errors import NumericalError

        def boom(*a, **k):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "q_sector_energies", boom)
        code, _ = run(tmp_path, "qfoel", "--L", "3", "--q", "0.5")
        assert code == 3

    def test_spinmap_memory_guard(self, tmp_path, monkeypatch, capsys):
        import foelab.ssep as ssep

        monkeypatch.setattr(ssep, "_physical_memory_bytes", lambda: 1024)
        graph = tmp_path / "path3.g"
        graph.write_text(PATH3)
        code, out = run(tmp_path, "spinmap", "--graph", str(graph))
        assert code == 3
        assert "needs an estimated" in capsys.readouterr().err
        assert not (out / "spinmap.json").exists()

    def test_foel_dense_block_memory_guard(self, tmp_path, monkeypatch, capsys):
        import foelab.sectors as sectors

        # the M = 1 block of a 12-site spin-1/2 chain has 792 states:
        # 4 dense 792 x 792 float64 arrays are estimated at 19 MB
        monkeypatch.setattr(sectors, "_physical_memory_bytes", lambda: 16 * 2 ** 20)
        code, out = run(tmp_path, "foel", "--chain", ",".join(["1"] * 12))
        assert code == 3
        err = capsys.readouterr().err
        assert "dimension 792 needs an estimated 19 MB" in err
        assert not (out / "foel.json").exists()

    def test_internal_key_error_is_not_usage(self, tmp_path, monkeypatch):
        import foelab.cli as cli

        def bug(cfg):
            raise KeyError("internal")

        monkeypatch.setitem(cli._HANDLERS, "qfoel", bug)
        with pytest.raises(KeyError):
            run(tmp_path, "qfoel", "--L", "3", "--q", "0.5")

    def test_parser_reused_after_parse_error(self, tmp_path):
        assert main(["foel", "--L", "not-an-int"]) == 2
        code, _ = run(tmp_path, "foel", "--chain", "1,1")
        assert code == 0
        assert build_parser().parse_args(["figure1"]).command == "figure1"


class TestCommands:
    def test_spectrum_chain(self, tmp_path):
        code, out = run(tmp_path, "spectrum", "--chain", "1,1,1", "--offset")
        assert code == 0
        lines = read(out / "spectrum.csv").splitlines()
        assert lines[0] == "M_times2,energy"
        assert len(lines) == 9  # header + 8 states

    def test_figure1(self, tmp_path):
        code, out = run(tmp_path, "figure1")
        assert code == 0
        payload = json.loads(read(out / "figure1.json"))
        assert payload["foel_ok"] and payload["max_ordering_ok"]
        assert abs(payload["offset_ground_energy"]) <= 1e-10
        rows = read(out / "figure1.csv").splitlines()
        assert len(rows) == 1 + 3 ** 5

    def test_tl_matrix(self, tmp_path):
        code, out = run(tmp_path, "tl-matrix", "--k", "5", "--n", "2")
        assert code == 0
        payload = json.loads(read(out / "tl.json"))
        assert payload["dim"] == 5
        assert payload["sign_ok"] and payload["ground_vector_positive"]
        basis = read(out / "tl_basis.csv").splitlines()
        assert len(basis) == 6

    def test_tl_matrix_one_diagram_is_strict_json(self, tmp_path):
        # dimension 1 has no second eigenvalue: the gap is null, not Infinity
        code, out = run(tmp_path, "tl-matrix", "--k", "2", "--n", "1")
        assert code == 0
        payload = json.loads(read(out / "tl.json"), parse_constant=reject_constant)
        assert payload["dim"] == 1 and payload["ground_gap"] is None

    def test_fk_basis(self, tmp_path):
        code, out = run(tmp_path, "fk-basis", "--spins", "2,2,2", "--S2", "4")
        assert code == 0
        payload = json.loads(read(out / "fk.json"))
        assert payload["basis_count"] == 2 and payload["count_ok"]

    def test_qfoel(self, tmp_path):
        code, out = run(tmp_path, "qfoel", "--L", "5", "--q", "0.5")
        assert code == 0
        payload = json.loads(read(out / "qfoel.json"))
        assert payload["qfoel_ok"]
        assert payload["crossings"] == [] and payload["violations"] == []

    def test_droplet(self, tmp_path):
        code, out = run(tmp_path, "droplet", "--q", "0.5", "--Lmax", "9", "--n", "1,2")
        assert code == 0
        payload = json.loads(read(out / "droplet.json"))
        assert payload["ok"]
        assert payload["checks"]["1"]["monotone_decreasing"]

    def test_ssep_gap_and_spinmap(self, tmp_path):
        graph = tmp_path / "path3.g"
        graph.write_text(PATH3)
        code, out = run(tmp_path, "ssep-gap", "--graph", str(graph))
        assert code == 0
        rows = read(out / "ssep_gap.csv").splitlines()
        assert rows[0] == "n,sector_dim,lambda_n,lambda_1,relative_deviation"
        assert len(rows) == 3
        code, out2 = run(tmp_path, "spinmap", "--graph", str(graph))
        assert code == 0
        payload = json.loads(read(out2 / "spinmap.json"))
        assert payload["ok"] and payload["max_entry_deviation"] <= 1e-12

    def test_random_trials(self, tmp_path):
        code, out = run(tmp_path, "foel", "--random-trials", "5", "--L", "5",
                        "--max-dim", "300", "--seed", "7")
        assert code == 0
        payload = json.loads(read(out / "foel.json"))
        assert payload["trials"] == 5 and payload["failures"] == 0


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("foel", "--chain", "1,1,1", "--J", "0.5,1.5"),
            ("tl-matrix", "--k", "4", "--n", "2"),
            ("qfoel", "--L", "4", "--q", "0.3"),
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, args):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(list(args) + ["--output", str(out1)]) == main(
            list(args) + ["--output", str(out2)]
        )
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_python_dash_m_matches_in_process(self, tmp_path):
        args = ["foel", "--chain", "1,2,1", "--J", "0.5,1.5"]
        src = os.path.dirname(os.path.dirname(os.path.abspath(foelab.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "foelab"] + args + ["--output", str(tmp_path / "a")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert main(args + ["--output", str(tmp_path / "b")]) == 0
        for name in ("sectors.csv", "foel.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestReports:
    def test_empty_rows_header_only(self, tmp_path):
        p = write_csv(tmp_path / "x.csv", ("a", "b"), [])
        with open(p, "rb") as fh:
            assert fh.read() == b"a,b\n"

    def test_float_formatting_17_digits(self):
        text = csv_text(("v",), [(1.0 / 3.0,)])
        assert text == "v\n0.33333333333333331\n"

    def test_lf_line_endings(self, tmp_path):
        p = write_csv(tmp_path / "x.csv", ("a",), [(1,), (2,)])
        with open(p, "rb") as fh:
            data = fh.read()
        assert b"\r" not in data and data.endswith(b"\n")

    def test_json_sorted_and_stable(self, tmp_path):
        p = write_json(tmp_path / "x.json", {"b": 1, "a": [1.5, True]})
        with open(p, "rb") as fh:
            data = fh.read()
        assert data == b'{\n  "a": [\n    1.5,\n    true\n  ],\n  "b": 1\n}\n'

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_json_rejects_non_finite(self, tmp_path, bad):
        with pytest.raises(ValueError):
            write_json(tmp_path / "x.json", {"gap": bad})
