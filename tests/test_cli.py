import argparse
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import basis_csv_tuples, matrix_csv_tuples

import foelab
import foelab.sectors as sectors
import foelab.ssep as ssep
import foelab.temperley_lieb as temperley_lieb
from foelab.cli import _HANDLERS, build_parser, main
from foelab.errors import NumericalError
from foelab.hamiltonians import ChainSpec, build_normalized_chain
from foelab.reports import csv_text, write_csv, write_json
from foelab.sectors import sector_energies
from foelab.spinops import HalfInt, HilbertShape
from foelab.spinops import LocalHamiltonian
from foelab.temperley_lieb import (enumerate_arc_diagrams, fk_hamiltonian_matrix,
                                   fk_highest_weight_basis, tl_hamiltonian_matrix)

PATH3 = "site 0 1\nsite 1 1\nsite 2 1\nedge 0 1 0.5\nedge 1 2 0.5\n"
# graph-spec files that test arguments name: "g" is valid, the others each
# fail one precondition of ssep-gap or spinmap
GRAPHS = {
    "g": PATH3,
    "one.g": "site 0 1\n",
    "split.g": "site 0 1\nsite 1 1\nsite 2 1\nedge 0 1 1.0\n",
    "spin1.g": "site 0 2\nsite 1 2\nedge 0 1 1.0\n",
}


def read(path):
    return path.read_text()


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run(tmp_path, *args):
    out = tmp_path / "out"
    return main(list(args) + ["--output", str(out)]), out


def with_graphs(tmp_path, args):
    """args with each GRAPHS name replaced by the path of that file,
    written under tmp_path."""
    for name, text in GRAPHS.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / a) if a in GRAPHS else a for a in args]


def path_graph(tmp_path, js):
    """Graph-spec file of the spin-1/2 path with couplings js: the sites and
    bonds of ``foel --chain 1,...,1 --J js`` as an input that takes the SU(2)
    sector route.  Its H = -sum J S.S is (normalized chain - sum J)/4."""
    lines = [f"site {i} 1" for i in range(len(js) + 1)]
    lines += [f"edge {i} {i + 1} {j!r}" for i, j in enumerate(js)]
    graph = tmp_path / "path.g"
    graph.write_text("\n".join(lines) + "\n")
    return str(graph)


def sector_rows(out):
    """(S_times2, dim, min_energy, max_energy) rows of sectors.csv."""
    return [(int(a), int(b), float(c), float(d)) for a, b, c, d in
            (r.split(",") for r in read(out / "sectors.csv").splitlines()[1:])]


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

        def boom(*a, **k):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "q_sector_energies", boom)
        code, _ = run(tmp_path, "qfoel", "--L", "3", "--q", "0.5")
        assert code == 3

    def test_spinmap_memory_guard(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("foelab.linalg.physical_memory_bytes", lambda: 1024)
        graph = tmp_path / "path3.g"
        graph.write_text(PATH3)
        code, out = run(tmp_path, "spinmap", "--graph", str(graph))
        assert code == 3
        assert "needs an estimated" in capsys.readouterr().err
        assert not (out / "spinmap.json").exists()

    def test_fk_basis_memory_guard(self, tmp_path, monkeypatch, capsys):
        # 12 spin-1/2 sites at S = 1: 297 vectors held densely on the
        # 792-state M = 1 block, 48 B per entry
        monkeypatch.setattr("foelab.linalg.physical_memory_bytes", lambda: 2 ** 20)
        code, out = run(tmp_path, "fk-basis", "--spins", ",".join(["1"] * 12), "--S2", "2")
        assert code == 3
        assert "needs an estimated 11 MB" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args,named", [
        (("tl-matrix", "--k", "30", "--n", "15"),
         "the basis of 9694845 diagrams (15 arcs on 30 vertices) needs an estimated 26628 MB"),
        (("qfoel", "--L", "30", "--q", "0.5"),
         "the basis of 33266625 diagrams (13 arcs on 30 vertices) needs an estimated 91370 MB"),
        (("droplet", "--q", "0.5", "--n", "12", "--Lmax", "30"),
         "the basis of 31865925 diagrams (12 arcs on 30 vertices) needs"),
        (("foel", "--chain", ",".join(["1"] * 30)),
         "the sparse S=0 block of dimension 155117520 needs an estimated 357625 MB"),
        (("foel", "--graph", "path30.g"),
         "the sparse S=0 block of dimension 155117520 needs an estimated 357625 MB"),
    ], ids=["tl-matrix", "qfoel", "droplet", "foel-chain", "foel-graph"])
    def test_size_guard_before_the_first_allocation(self, tmp_path, monkeypatch, capsys,
                                                    args, named):
        # 30 sites under a 1 MB probe: the TL basis builder and the sector
        # blocks check their estimates before they allocate.  qfoel builds
        # its largest basis (n = 13) first; so does the spin-1/2 chain's
        # diagram route, which falls back to the SU(2) route, whose largest
        # block (S = 0) is refused first
        monkeypatch.setattr("foelab.linalg.physical_memory_bytes", lambda: 2 ** 20)
        (tmp_path / "path30.g").write_text(
            "".join(f"site {i} 1\n" for i in range(30))
            + "".join(f"edge {i} {i + 1} 1.0\n" for i in range(29)))
        args = [str(tmp_path / a) if a == "path30.g" else a for a in args]
        code, out = run(tmp_path, *args)
        assert code == 3
        err = capsys.readouterr().err
        assert named in err and "needs an estimated" in err
        assert not out.exists()

    def test_tiny_q_refused_with_finite_numbers(self, tmp_path, capsys):
        # at q = 1e-200 the diagonal is about 1/q and the ground vector's
        # entries span past the floating-point range: refused, with no
        # overflow on the way and no infinite number in the message
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _ = run(tmp_path, "tl-matrix", "--k", "7", "--n", "3", "--q", "1e-200")
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "inf" not in err

    def test_foel_dense_block_memory_guard(self, tmp_path, monkeypatch, capsys):
        # one banded solve on the M = 0 block of a 12-site spin-1/2 chain
        # (924 states) serves every sector: 2 dense 924 x 924 float64
        # arrays are estimated at 13 MB
        monkeypatch.setattr("foelab.linalg.physical_memory_bytes", lambda: 8 * 2 ** 20)
        code, out = run(tmp_path, "foel", "--graph", path_graph(tmp_path, [1.0] * 11))
        assert code == 3
        err = capsys.readouterr().err
        assert "dimension 924 needs an estimated 13 MB" in err
        assert not (out / "foel.json").exists()

    def test_spectrum_block_memory_guard(self, tmp_path, monkeypatch, capsys):
        # every block's spectrum comes from the banded solve on the largest
        # S^3 block of 12 spin-1/2 sites, M = 0 with 924 states: 2 dense
        # arrays are 13 MB
        monkeypatch.setattr("foelab.linalg.physical_memory_bytes", lambda: 8 * 2 ** 20)
        code, out = run(tmp_path, "spectrum", "--chain", ",".join(["1"] * 12))
        assert code == 3
        err = capsys.readouterr().err
        assert "the dense M=0 block of dimension 924 needs an estimated 13 MB" in err
        assert not out.exists()

    def test_foel_sparse_blocks_under_dense_memory_limit(self, tmp_path, monkeypatch):
        import foelab.sectors as sectors

        # 2 dense 3432 x 3432 arrays (the M = 0 block of 14 spin-1/2 sites)
        # are estimated at 188 MB; the sparse route needs about 4 MB
        monkeypatch.setattr("foelab.linalg.physical_memory_bytes",
                            lambda: sectors.DENSE_BLOCK_ARRAYS * 8 * 3432 ** 2 - 1)
        js = [float(j) for j in np.random.default_rng(14).uniform(0.1, 2.0, 13)]
        code, out = run(tmp_path, "foel", "--graph", path_graph(tmp_path, js))
        assert code == 0
        su2 = sector_rows(out)
        assert [r[0] for r in su2] == list(range(14, -1, -2))
        # the same chain as --chain takes the diagram route
        code, out = run(tmp_path, "foel", "--chain", ",".join(["1"] * 14),
                        "--J", ",".join(map(repr, js)))
        assert code == 0
        diagram = sector_rows(out)
        assert [r[:2] for r in diagram] == [r[:2] for r in su2]
        for (_, _, lo, hi), (_, _, g_lo, g_hi) in zip(diagram, su2):
            assert abs(lo - (sum(js) + 4.0 * g_lo)) <= 1e-10
            assert abs(hi - (sum(js) + 4.0 * g_hi)) <= 1e-10

    def test_foel_sparse_block_memory_guard(self, tmp_path, monkeypatch, capsys):
        import foelab.sectors as sectors

        # every block on the sparse route; the estimate for the M = 0 block
        # of 14 spin-1/2 sites (3432 states) is 4.1 MB, the M = 1 one 3.4 MB
        monkeypatch.setattr(sectors, "SECTOR_SPARSE_MIN_DIM", 0)
        monkeypatch.setattr("foelab.linalg.physical_memory_bytes", lambda: 15 * 2 ** 18)
        code, out = run(tmp_path, "foel", "--graph", path_graph(tmp_path, [1.0] * 13))
        assert code == 3
        err = capsys.readouterr().err
        assert "sparse S=0 block of dimension 3432 needs an estimated 4 MB" in err
        assert not (out / "foel.json").exists()

    def test_uncertified_sparse_solve_exit_code(self, tmp_path, monkeypatch):
        import scipy.sparse.linalg as sla

        import foelab.sectors as sectors

        real = sla.eigsh

        def penalized_level(op, k, which, **kw):
            return real(op, k=k, which={"SA": "LA", "LA": "SA"}[which], **kw)

        monkeypatch.setattr(sectors, "SECTOR_SPARSE_MIN_DIM", 0)
        monkeypatch.setattr(sectors.sla, "eigsh", penalized_level)
        code, out = run(tmp_path, "foel", "--graph", path_graph(tmp_path, [1.0] * 3))
        assert code == 3
        assert not (out / "foel.json").exists()

    def test_unconverged_diagram_top_solve_exit_code(self, tmp_path, monkeypatch):
        import scipy.sparse.linalg as sla

        import foelab.temperley_lieb as tlmod

        real = sla.eigs

        def no_top(a, k, which, **kw):
            # the top solve is the one on -DAD, whose diagonal is negative
            if a.diagonal().max() < 0:
                raise sla.ArpackNoConvergence("synthetic", np.zeros(0), np.zeros((0, 0)))
            return real(a, k=k, which=which, **kw)

        # 13 sites: the n = 3 ... 6 diagram bases (208 ... 572) take Arnoldi
        monkeypatch.setattr(tlmod.sla, "eigs", no_top)
        with pytest.raises(NumericalError, match=r"Arnoldi eigs \(top\) did not converge"):
            tlmod.diagram_sector_energies([1.0] * 12)
        code, out = run(tmp_path, "foel", "--chain", ",".join(["1"] * 13))
        assert code == 0
        payload = json.loads(read(out / "foel.json"))
        assert {b["bracket"] is None for b in payload["brackets"]} == {True}

    def test_spin_half_chain_builds_no_product_space(self, tmp_path, monkeypatch):
        import foelab.sectors as sectors
        import foelab.spinops as spinops

        def reached(*a, **k):
            raise AssertionError("_local_sum was called")

        monkeypatch.setattr(sectors, "_local_sum", reached)
        monkeypatch.setattr(spinops, "_local_sum", reached)
        code, out = run(tmp_path, "foel", "--chain", ",".join(["1"] * 9),
                        "--J", "0.5,1.5,1,0.25,2,1,0.75,1.25")
        assert code == 0
        assert [r[1] for r in sector_rows(out)] == [1, 8, 27, 48, 42]
        # a mixed chain still takes the SU(2) route
        with pytest.raises(AssertionError, match="_local_sum"):
            run(tmp_path, "foel", "--chain", "1,2,1")

    def test_widely_spread_couplings_certified_in_the_diagram_basis(self, tmp_path):
        # a coupling 1e-12 of the others nearly splits the chain; the
        # diagram route's certificates still hold
        js = [1.0, 1e-12, 1.0, 2.0, 1.0]
        code, out = run(tmp_path, "foel", "--chain", "1,1,1,1,1,1",
                        "--J", ",".join(map(repr, js)))
        assert code == 1  # the nearly free spins leave sector minima 1e-12 apart
        payload = json.loads(read(out / "foel.json"))
        assert len(payload["crossings"]) == 2 and payload["violations"] == []
        chain = ChainSpec([HalfInt(1)] * 6, js)
        ref = sector_energies(build_normalized_chain(chain))
        for b, s in zip(payload["brackets"], ref.labels):
            lo, hi = b["bracket"]
            # slack: the SU(2) route's own rounding, about eps ||H||
            assert lo - 1e-13 <= ref.entries[s].min_energy <= hi + 1e-13

    def test_refused_certificate_takes_the_su2_route(self, tmp_path):
        import foelab.temperley_lieb as tlmod

        # dense eig balances this matrix and returns (1, 0, 0) for a ground
        # vector near (1, 2/3, 1/3)
        js = [1e-300, 1.0, 2.0]
        with pytest.raises(NumericalError, match="ground pair residual"):
            tlmod.diagram_sector_energies(js)
        code, out = run(tmp_path, "foel", "--chain", "1,1,1,1", "--J", ",".join(map(repr, js)))
        assert code == 1  # the free end spin leaves S = 2 and S = 1 tied
        payload = json.loads(read(out / "foel.json"))
        assert {b["bracket"] is None for b in payload["brackets"]} == {True}
        chain = ChainSpec([HalfInt(1)] * 4, js)
        ref = sector_energies(build_normalized_chain(chain))
        assert [r[2] for r in sector_rows(out)] == [
            ref.entries[s].min_energy for s in ref.labels]

    def test_nearly_reducible_chain_falls_back_to_su2(self, tmp_path):
        # Arnoldi does not converge on sectors n = 3, 4, 5 of this chain;
        # the SU(2) route solves it
        js = [1.048991447806502, 3.266779238025661e-05, 4.6015488935716694e-06,
              0.11940347348284738, 1.980216412784292e-07, 0.014782697305182778,
              6.362502063376838e-07, 2.7603503280651305e-05, 1.4329433566904994e-06,
              0.10736282667878805]
        code, out = run(tmp_path, "foel", "--chain", ",".join(["1"] * 11),
                        "--J", ",".join(map(repr, js)))
        assert code == 0
        payload = json.loads(read(out / "foel.json"))
        assert {b["bracket"] is None for b in payload["brackets"]} == {True}
        chain = ChainSpec([HalfInt(1)] * 11, js)
        ref = sector_energies(build_normalized_chain(chain))
        for (_, _, e_min, e_max), s in zip(sector_rows(out), ref.labels):
            assert abs(e_min - ref.entries[s].min_energy) <= 1e-10
            assert abs(e_max - ref.entries[s].max_energy) <= 1e-10

    def test_internal_key_error_is_not_usage(self, tmp_path, monkeypatch):
        import foelab.cli as cli

        def bug(cfg):
            raise KeyError("internal")

        monkeypatch.setitem(cli._HANDLERS, "qfoel", bug)
        with pytest.raises(KeyError):
            run(tmp_path, "qfoel", "--L", "3", "--q", "0.5")

    def test_internal_value_error_is_not_usage(self, tmp_path, monkeypatch):
        # usage errors are caught before the library: a ValueError it
        # raises is a bug, not exit 2
        import foelab.cli as cli

        def bug(g, rel_tol):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "check_aldous", bug)
        with pytest.raises(ValueError, match="internal"):
            run(tmp_path, *with_graphs(tmp_path, ["ssep-gap", "--graph", "g"]))

    @pytest.mark.parametrize("args", [
        ("tl-matrix", "--k", "4", "--n", "1", "--q", "0"),
        ("tl-matrix", "--k", "4", "--n", "1", "--J", ""),
        ("foel", "--spin1-beta", "0.4", "--L", "0"),
        ("foel", "--random-trials", "0"),
        ("foel", "--chain", "1,1", "--spin1-beta", "0.4"),
        ("spectrum", "--J", "1"),
        ("droplet", "--q", "0.5", "--n", "1,x"),
        ("foel", "--graph", "g", "--J", "5,5"),
        ("foel", "--chain", "1,1", "--L", "3"),
        ("foel", "--chain", "1,1,1", "--seed", "4"),
        ("foel", "--spin1-beta", "0.4", "--max-dim", "9"),
        ("spectrum", "--graph", "g", "--J", "1,1"),
        ("spectrum", "--chain", "1,1", "--tol", "7"),
        ("spinmap", "--graph", "g", "--seed", "1"),
        ("foel", "--chain", "0,1"),
        ("foel", "--chain", ""),
        ("foel", "--chain", "1,1", "--J", "-1"),
        ("spectrum", "--chain", "1,1", "--J", "0"),
        ("tl-matrix", "--k", "3", "--n", "1", "--J", "1,0"),
        ("foel", "--spin1-beta", "nan"),
        ("foel", "--chain", "1,1", "--tol", "nan"),
        ("ssep-gap", "--graph", "one.g"),
        ("ssep-gap", "--graph", "split.g"),
        ("spinmap", "--graph", "one.g"),
        ("spinmap", "--graph", "split.g"),
        ("spinmap", "--graph", "spin1.g"),
    ], ids=["q-zero", "empty-J", "sweep-L0", "zero-trials", "chain-and-beta",
            "no-model", "bad-int-list", "foel-graph-J", "foel-chain-L",
            "foel-chain-seed", "foel-beta-max-dim", "spectrum-graph-J",
            "spectrum-tol", "spinmap-seed", "foel-spin-zero", "foel-no-sites",
            "foel-J-negative", "spectrum-J-zero", "tl-J-zero", "foel-beta-nan",
            "foel-tol-nan", "ssep-one-site", "ssep-disconnected", "spinmap-one-site",
            "spinmap-disconnected", "spinmap-spin-one"])
    def test_given_value_rejected_not_replaced(self, tmp_path, args):
        # "g" and the other GRAPHS names stand for graph-spec files
        code, out = run(tmp_path, *with_graphs(tmp_path, args))
        assert code == 2
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("args,named", [
        (("tl-matrix", "--k", "4", "--n", "1", "--q", "-0.5"), "--q"),
        (("tl-matrix", "--k", "4", "--n", "1", "--q", "nan"), "--q"),
        (("tl-matrix", "--k", "4", "--n", "3"), "--n"),
        (("tl-matrix", "--k", "4", "--n", "-1"), "--n"),
        (("tl-matrix", "--k", "0", "--n", "0"), "--k"),
        (("tl-matrix", "--k", "4", "--n", "1", "--J", "1,1"), "--J"),
        (("tl-matrix", "--k", "4", "--n", "1", "--J", "1,1,1,1"), "--J"),
        (("qfoel", "--L", "4", "--q", "0"), "--q"),
        (("qfoel", "--L", "4", "--q", "1"), "--q"),
        (("qfoel", "--L", "1", "--q", "0.5"), "--L"),
        (("droplet", "--q", "1.5"), "--q"),
        (("droplet", "--q", "-0.5"), "--q"),
        (("foel", "--spin1-beta", "0.4", "--L", "1"), "--L"),
        (("foel", "--random-trials", "0"), "--random-trials"),
        (("foel", "--random-trials", "2", "--L", "1"), "--L"),
        (("droplet", "--q", "0.5", "--n", "1,1"), "--n"),
        (("droplet", "--q", "0.5", "--n", "5", "--Lmax", "10"), "n=5"),
        (("foel", "--random-trials", "2", "--max-dim", "3"), "--max-dim"),
        (("foel", "--chain", "1,1,1", "--J", "1"), "--J"),
        (("foel", "--chain", "1,1", "--seed", "4"), "--seed"),
        (("fk-basis", "--spins", "1,1,1", "--S2", "1", "--J", "1"), "--J"),
        (("fk-basis", "--spins", "1,1", "--S2", "-2"), "--S2"),
        (("fk-basis", "--spins", "0,1", "--S2", "1"), "--spins"),
        (("foel", "--chain", "0,1"), "--chain"),
        (("foel", "--chain", ""), "--chain"),
        (("spectrum", "--chain", "1,0"), "--chain"),
        (("foel", "--chain", "1,1", "--J", "-1"), "--J"),
        (("spectrum", "--chain", "1,1,1", "--J", "1,0"), "--J"),
        (("tl-matrix", "--k", "3", "--n", "1", "--J", "1,-2"), "--J"),
        (("tl-matrix", "--k", "3", "--n", "1", "--q", "inf"), "--q"),
        (("fk-basis", "--spins", "1,1", "--S2", "0", "--J", "0"), "--J"),
        (("foel", "--spin1-beta", "nan"), "--spin1-beta"),
        (("foel", "--chain", "1,1", "--tol", "nan"), "--tol"),
        (("ssep-gap", "--graph", "g", "--tol", "inf"), "--tol"),
        (("ssep-gap", "--graph", "one.g"), "at least two sites, got 1"),
        (("ssep-gap", "--graph", "split.g"), "disconnected"),
        (("spinmap", "--graph", "one.g"), "at least two sites, got 1"),
        (("spinmap", "--graph", "split.g"), "disconnected"),
        (("spinmap", "--graph", "spin1.g"), "spin 1/2"),
    ], ids=["tl-q-negative", "tl-q-nan", "tl-2n-above-k", "tl-n-negative", "tl-k-zero",
            "tl-too-few-J", "tl-too-many-J", "qfoel-q-zero", "qfoel-q-one",
            "qfoel-L-one", "droplet-q-above-one", "droplet-q-negative",
            "foel-sweep-L-one", "foel-zero-trials", "foel-trials-L-one",
            "droplet-repeated-n", "droplet-n-one-length", "foel-trials-max-dim-3",
            "foel-J-count", "foel-chain-seed", "fk-J-count", "fk-negative-S",
            "fk-spin-zero", "foel-spin-zero", "foel-no-sites", "spectrum-spin-zero",
            "foel-J-negative", "spectrum-J-zero", "tl-J-negative", "tl-q-inf",
            "fk-J-zero", "foel-beta-nan", "foel-tol-nan", "ssep-tol-inf", "ssep-one-site", "ssep-disconnected",
            "spinmap-one-site", "spinmap-disconnected", "spinmap-spin-one"])
    def test_range_errors_exit_before_any_library_call(self, tmp_path, monkeypatch,
                                                       capsys, args, named):
        import foelab.cli as cli

        def reached(*a, **k):
            raise AssertionError("a library call was made")

        for name in ("tl_hamiltonian_matrix", "QParam", "q_sector_energies",
                     "droplet_csv_rows", "random_chain", "sector_energies",
                     "chain_sector_energies", "fk_highest_weight_basis",
                     "fk_hamiltonian_matrix", "ChainSpec", "build_normalized_chain",
                     "build_spin1_beta_chain", "full_spectrum_by_s3",
                     "check_aldous", "verify_spin_map"):
            monkeypatch.setattr(cli, name, reached)
        code, out = run(tmp_path, *with_graphs(tmp_path, args))
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args,named", [
        (("droplet", "--q", "0.5", "--n", ""), "--n"),
        (("droplet", "--q", "0.5", "--n", "1,3", "--Lmax", "6"), "n=3"),
        (("droplet", "--q", "0.5", "--n", "1,1", "--Lmax", "6"), "repeats"),
    ], ids=["empty-n", "one-length", "repeated-n"])
    def test_droplet_needs_two_lengths_per_size(self, tmp_path, capsys, args, named):
        # without two lengths there is nothing to check: no vacuous pass; a
        # repeated size would compare each energy with its own copy
        code, out = run(tmp_path, *args)
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ssep-gap", "spinmap"])
    def test_one_site_graph_is_usage_error(self, tmp_path, capsys, command):
        # one site has no particle sector 1 <= n <= N - 1 to compare
        graph = tmp_path / "one.g"
        graph.write_text("site 0 1\n")
        code, out = run(tmp_path, command, "--graph", str(graph))
        assert code == 2
        assert "at least two sites, got 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["foel", "spectrum", "ssep-gap", "spinmap"])
    @pytest.mark.parametrize("text,named", [
        ("site 0 1\nsite 1 1\nedge 0 1 nan\n", "not positive and finite"),
        ("site 0 1\nsite 1 1\nedge 0 1 inf\n", "not positive and finite"),
        ("site 0 1\nsite 1 -1\nedge 0 1 1.0\n", "spin magnitudes must be >= 0"),
    ], ids=["J-nan", "J-inf", "negative-spin"])
    def test_malformed_graph_file_is_usage_error(self, tmp_path, capsys, command, text,
                                                 named):
        # rejected when the file is read, not by a library call (exit 4)
        graph = tmp_path / "bad.g"
        graph.write_text(text)
        code, out = run(tmp_path, command, "--graph", str(graph))
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args,named", [
        (("--spins", "1,1,1", "--S2", "1", "--J", "1"), "--J needs 2 positive couplings"),
        (("--spins", "1,1", "--S2", "-2"), "--S2 -2 is not"),
        (("--spins", "0,1", "--S2", "1"), "each spin positive"),
    ], ids=["J-count", "negative-S", "spin-zero"])
    def test_fk_basis_usage_error_writes_nothing(self, tmp_path, capsys, args, named):
        code, out = run(tmp_path, "fk-basis", *args)
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ("qfoel", "--L", "12", "--q", "0.5"),
        ("fk-basis", "--spins", "2,2,2", "--S2", "2"),
        ("foel", "--graph", "g"),
        ("foel", "--chain", "1,2,3,2"),
        ("spectrum", "--chain", "2,1,2"),
        ("figure1",),
        ("tl-matrix", "--k", "6", "--n", "2"),
        ("droplet", "--q", "0.5", "--n", "1,2", "--Lmax", "8"),
        ("ssep-gap", "--graph", "g"),
        ("spinmap", "--graph", "g"),
    ])
    def test_label_counts_need_no_product_space(self, tmp_path, monkeypatch, args):
        # S^3 is read off a shape of one term's sites (the invariance
        # check), never off the whole product space
        args = with_graphs(tmp_path, args)
        expected, _ = run(tmp_path / "free", *args)
        real = HilbertShape.total_m

        def term_shapes_only(self):
            if self.nsites > 2:  # every term acts on one or two sites
                raise AssertionError("the product space was scanned")
            return real(self)

        monkeypatch.setattr(HilbertShape, "total_m", term_shapes_only)
        code, _ = run(tmp_path / "patched", *args)
        assert code == expected == 0

    @pytest.mark.parametrize("args", [
        ("foel", "--graph", "path14.g"),
        ("foel", "--chain", ",".join(["1"] * 14)),
        ("ssep-gap", "--graph", "path14.g"),
        ("qfoel", "--L", "14", "--q", "0.5"),
    ], ids=["foel-graph", "foel-chain", "ssep-gap", "qfoel"])
    def test_largest_block_refused_before_any_solve(self, tmp_path, monkeypatch, capsys,
                                                    args):
        # with the probe just below the largest estimate of a free run,
        # every smaller block passes its guard, and the largest one is
        # refused before any eigensolver is called
        graph = path_graph(tmp_path, [1.0 + 0.1 * i for i in range(13)])
        args = [graph if a == "path14.g" else a for a in args]
        estimates = []

        def record(nbytes, what):
            estimates.append(nbytes)

        with monkeypatch.context() as m:
            for module in (sectors, ssep, temperley_lieb):
                m.setattr(module, "require_memory", record)
            code, _ = run(tmp_path / "free", *args)
        assert code in (0, 1) and estimates
        monkeypatch.setattr("foelab.linalg.physical_memory_bytes",
                            lambda: max(estimates) - 1)
        solves = []

        def spy(name, real):
            def solver(*a, **k):
                solves.append(name)
                return real(*a, **k)
            return solver

        for module, name in ((sla, "eigsh"), (sla, "eigs"), (la, "eigh"),
                             (la, "eigvalsh"), (np.linalg, "eig")):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        code, out = run(tmp_path / "patched", *args)
        assert code == 3
        assert "needs an estimated" in capsys.readouterr().err
        assert solves == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["foel", "ssep-gap"])
    def test_64_sites_refused(self, tmp_path, capsys, command):
        # the physical memory of any machine: past int64 product indices,
        # a size error (exit 3), not a bug (exit 4)
        code, out = run(tmp_path, command, "--graph", path_graph(tmp_path, [1.0] * 63))
        assert code == 3
        assert "needs an estimated" in capsys.readouterr().err
        assert not out.exists()

    def test_ssep_gap_tol_used_as_given(self, tmp_path, monkeypatch):
        import foelab.cli as cli

        seen = []
        real = cli.check_aldous

        def record(g, rel_tol):
            seen.append(rel_tol)
            return real(g, rel_tol=rel_tol)

        monkeypatch.setattr(cli, "check_aldous", record)
        graph = tmp_path / "path3.g"
        graph.write_text(PATH3)
        run(tmp_path, "ssep-gap", "--graph", str(graph), "--tol", "1e-12")
        assert seen == [1e-12]

    def test_random_trials_unsatisfiable_max_dim(self, tmp_path):
        # no chain fits max_dim = 3: usage error at once, not an endless draw
        src = os.path.dirname(os.path.dirname(os.path.abspath(foelab.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "foelab", "foel", "--random-trials", "1",
             "--max-dim", "3", "--output", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "argument --max-dim: must be at least 4, got 3" in proc.stderr

    def test_parser_reused_after_parse_error(self, tmp_path):
        assert main(["foel", "--L", "not-an-int"]) == 2
        code, _ = run(tmp_path, "foel", "--chain", "1,1")
        assert code == 0
        assert build_parser().parse_args(["figure1"]).command == "figure1"


@pytest.mark.parametrize("args", [
    ("foel", "--chain", "1,2,3,2"),
    ("foel", "--chain", "1,1,1,1,1,1"),
    ("foel", "--graph", "g"),
    ("foel", "--spin1-beta", "0.4", "--L", "4"),
    ("foel", "--random-trials", "3", "--L", "5"),
    ("spectrum", "--chain", "2,1,2"),
    ("figure1",),
    ("fk-basis", "--spins", "2,1,3", "--S2", "2"),
    ("tl-matrix", "--k", "6", "--n", "2"),
    ("qfoel", "--L", "6", "--q", "0.5"),
    ("droplet", "--q", "0.5", "--n", "1,2", "--Lmax", "8"),
    ("ssep-gap", "--graph", "g"),
], ids=["foel-mixed-chain", "foel-spin-half-chain", "foel-graph", "foel-beta",
        "foel-random", "spectrum", "figure1", "fk-basis", "tl-matrix", "qfoel",
        "droplet", "ssep-gap"])
def test_only_spinmap_forms_a_product_space_h(tmp_path, monkeypatch, args):
    # every route but the spin map assembles H per block or on a support,
    # from the local terms; the whole-space matrix is never read
    args = with_graphs(tmp_path, args)
    expected, _ = run(tmp_path / "free", *args)

    def product_space(self):
        raise AssertionError("the product-space H was formed")

    monkeypatch.setattr(LocalHamiltonian, "matrix", property(product_space))
    code, _ = run(tmp_path / "patched", *args)
    assert code == expected


class TestParser:
    def test_subcommands_match_handlers(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(_HANDLERS)

    @pytest.mark.parametrize("command", sorted(_HANDLERS))
    def test_help_exits_zero(self, command, capsys):
        assert main([command, "--help"]) == 0
        assert f"usage: foelab {command}" in capsys.readouterr().out


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
        lo, hi = payload["ground_bracket"]
        assert lo <= payload["ground_energy"] <= hi
        assert payload["ground_gap"] > 0  # dense route: the full spectrum's gap
        basis = read(out / "tl_basis.csv").splitlines()
        assert len(basis) == 6

    def test_tl_matrix_sparse_route_reports_bracket_not_gap(self, tmp_path):
        code, out = run(tmp_path, "tl-matrix", "--k", "11", "--n", "3", "--q", "0.5")
        assert code == 0
        payload = json.loads(read(out / "tl.json"), parse_constant=reject_constant)
        assert payload["dim"] == 110 and payload["ground_gap"] is None
        lo, hi = payload["ground_bracket"]
        assert lo <= payload["ground_energy"] <= hi and hi - lo <= 1e-9

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

    def test_fk_basis_sign_check_holds_on_eight_spin_ones(self, tmp_path):
        # cond(V^T V) = 3.6e6 at S = 1: solved through the Gram matrix, the
        # exact zeros off the diagonal came out as 2.3e-10, past the 1e-10
        # sign check; the QR solve leaves them below 1e-12
        code, out = run(tmp_path, "fk-basis", "--spins", ",".join(["2"] * 8), "--S2", "2")
        assert code == 0
        payload = json.loads(read(out / "fk.json"))
        assert payload["sign_ok"] and payload["off_diagonal_max"] <= 1e-12
        assert payload["basis_count"] == 232

    def test_qfoel(self, tmp_path):
        code, out = run(tmp_path, "qfoel", "--L", "5", "--q", "0.5")
        assert code == 0
        payload = json.loads(read(out / "qfoel.json"))
        assert payload["qfoel_ok"]
        assert payload["crossings"] == [] and payload["violations"] == []
        rows = [r.split(",") for r in read(out / "qsectors.csv").splitlines()[1:]]
        brackets = payload["brackets"]
        assert [b["S_times2"] for b in brackets] == [int(r[0]) for r in rows]
        for b, r in zip(brackets, rows):
            lo, hi = b["bracket"]
            assert lo <= float(r[2]) <= hi

    def test_qfoel_small_q_certified(self, tmp_path):
        # at q = 0.05 the Perron vectors' entries span more than 1e10 (and
        # Arnoldi returns some a hair below zero): certified after sharpening
        q = 0.05
        code, out = run(tmp_path, "qfoel", "--L", "12", "--q", repr(q))
        assert code == 0
        rows = [r.split(",") for r in read(out / "qsectors.csv").splitlines()[1:]]
        brackets = json.loads(read(out / "qfoel.json"))["brackets"]
        j = 1.0 / (2.0 * (q + 1.0 / q))
        for b, (twice_s, _, e_min) in zip(brackets, rows):
            lo, hi = b["bracket"]
            assert b["S_times2"] == int(twice_s) and lo <= float(e_min) <= hi
            tl = tl_hamiltonian_matrix(12, (12 - int(twice_s)) // 2, [j] * 11, q)
            exact = la.eigvals(tl.A).real.min()
            assert lo - 1e-10 <= exact <= hi + 1e-10

    def test_foel_json_brackets(self, tmp_path):
        js = [0.5, 1.5, 1.0, 0.25, 2.0, 1.0, 0.75, 1.25, 1.0, 0.5, 1.5]
        code, out = run(tmp_path, "foel", "--chain", ",".join(["1"] * 12),
                        "--J", ",".join(map(repr, js)))
        assert code == 0
        payload = json.loads(read(out / "foel.json"), parse_constant=reject_constant)
        rows = sector_rows(out)
        assert [b["S_times2"] for b in payload["brackets"]] == [r[0] for r in rows]
        for b, (twice_s, _, e_min, _) in zip(payload["brackets"], rows):
            lo, hi = b["bracket"]
            tl = tl_hamiltonian_matrix(12, (12 - twice_s) // 2, js)
            assert lo <= e_min <= hi
            assert hi - lo <= 1e-9 * max(1.0, abs(tl.matrix).sum(axis=1).max())
        # the SU(2) route has no bracket
        code, out = run(tmp_path, "foel", "--graph", path_graph(tmp_path, js))
        assert code == 0
        payload = json.loads(read(out / "foel.json"), parse_constant=reject_constant)
        assert [b["bracket"] for b in payload["brackets"]] == [None] * 7

    @pytest.mark.parametrize("L", [11, 13])
    def test_uniform_chain_matches_the_su2_route(self, tmp_path, L):
        # every sector against the 2^L product space; n = 3, 5 take Arnoldi
        code, out = run(tmp_path, "foel", "--chain", ",".join(["1"] * L))
        assert code == 0
        chain = ChainSpec([HalfInt(1)] * L, [1.0] * (L - 1))
        ref = sector_energies(build_normalized_chain(chain))
        rows = sector_rows(out)
        assert [r[:2] for r in rows] == [(s.twice, ref.entries[s].dimension)
                                         for s in ref.labels]
        for (_, _, e_min, e_max), s in zip(rows, ref.labels):
            assert abs(e_min - ref.entries[s].min_energy) <= 1e-10
            assert abs(e_max - ref.entries[s].max_energy) <= 1e-10

    def test_droplet_lmin_below_two_starts_at_two(self, tmp_path):
        code, out = run(tmp_path, "droplet", "--q", "0.5", "--n", "1",
                        "--Lmin", "0", "--Lmax", "5")
        assert code == 0
        rows = read(out / "droplet.csv").splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["2", "3", "4", "5"]

    def test_droplet(self, tmp_path):
        code, out = run(tmp_path, "droplet", "--q", "0.5", "--Lmax", "9", "--n", "1,2")
        assert code == 0
        payload = json.loads(read(out / "droplet.json"))
        assert payload["ok"]
        assert payload["checks"]["1"]["monotone_decreasing"]
        for check in payload["checks"].values():
            assert 0.0 <= check["max_bracket_width"] <= 1e-9
        rows = read(out / "droplet.csv").splitlines()
        assert rows[0] == "L,n,q,finite_energy,E_infinity,bandwidth"
        assert {len(r.split(",")) for r in rows} == {6}

    def test_long_chain_diagram_commands(self, tmp_path):
        # diagram codes outgrow int64 beyond k = 31
        code, out = run(tmp_path, "tl-matrix", "--k", "40", "--n", "1")
        assert code == 0
        assert json.loads(read(out / "tl.json"))["dim"] == 39
        code, out = run(tmp_path, "droplet", "--q", "0.5", "--n", "1,2",
                        "--Lmin", "38", "--Lmax", "40")
        assert code == 0
        assert len(read(out / "droplet.csv").splitlines()) == 1 + 3 + 3

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
        assert payload["max_entry_deviation"] <= payload["eigenvalue_bound"] <= 1e-11

    def test_random_trials(self, tmp_path):
        code, out = run(tmp_path, "foel", "--random-trials", "5", "--L", "5",
                        "--max-dim", "300", "--seed", "7")
        assert code == 0
        payload = json.loads(read(out / "foel.json"))
        assert payload["trials"] == 5 and payload["failures"] == 0


def assert_byte_identical_reruns(tmp_path, args):
    """Two runs of args write the same files with the same bytes."""
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(args + ["--output", str(out1)]) == main(args + ["--output", str(out2)])
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("foel", "--chain", "1,1,1", "--J", "0.5,1.5"),
            ("tl-matrix", "--k", "4", "--n", "2"),
            ("qfoel", "--L", "4", "--q", "0.3"),
            ("tl-matrix", "--k", "11", "--n", "3", "--q", "0.5"),
            ("droplet", "--q", "0.5", "--n", "1,4", "--Lmax", "12"),
            ("foel", "--chain", "1,2,3,2,1", "--J", "1,0.7,1.3,0.9"),
            ("foel", "--spin1-beta", "0.4", "--L", "5"),
            ("figure1",),
            ("foel", "--random-trials", "5", "--max-dim", "256"),
            ("spectrum", "--chain", "1,1,1,1", "--offset"),
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, args):
        assert_byte_identical_reruns(tmp_path, list(args))

    @pytest.mark.parametrize("command", ["ssep-gap", "spinmap"])
    def test_graph_commands_byte_identical_reruns(self, tmp_path, command):
        # 10 sites: the n = 5 sector (252 states) takes the Lanczos gap route
        graph = path_graph(tmp_path, [0.5, 1.5, 1, 0.25, 2, 1, 0.75, 1.25, 1])
        assert_byte_identical_reruns(tmp_path, [command, "--graph", graph])

    def test_sparse_route_byte_identical_reruns(self, tmp_path):
        import foelab.sectors as sectors

        # 13 spin-1/2 sites: the M = 3/2, 1/2 blocks (1287, 1716 states)
        # take the sparse route
        assert 1287 >= sectors.SECTOR_SPARSE_MIN_DIM
        args = ["foel", "--graph", path_graph(tmp_path, [0.5, 1.5, 1, 0.25, 2, 1, 0.75,
                                                         1.25, 1, 0.5, 1.5, 1])]
        assert main(args + ["--output", str(tmp_path / "a")]) == 0
        assert main(args + ["--output", str(tmp_path / "b")]) == 0
        for name in ("sectors.csv", "foel.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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


    def test_python_dash_m_crash_exits_bug(self, tmp_path):
        # a handler that raises must end `python -m foelab` with 4, not with
        # the interpreter's 1 (EXIT_VIOLATION)
        script = (
            "import runpy, sys\n"
            "import foelab.cli as cli\n"
            "def bug(cfg):\n"
            "    raise KeyError('internal')\n"
            "cli._HANDLERS['qfoel'] = bug\n"
            "sys.argv = ['foelab', 'qfoel', '--L', '3', '--q', '0.5',\n"
            f"            '--output', {str(tmp_path / 'out')!r}]\n"
            "runpy.run_module('foelab', run_name='__main__')\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(foelab.__file__)))
        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 4
        assert "Traceback" in proc.stderr and "KeyError: 'internal'" in proc.stderr


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


MATRIX_HEADER, BASIS_HEADER = ("row", "col", "value"), ("diagram_id", "arcs")


@st.composite
def tl_matrix_args(draw):
    k = draw(st.integers(2, 16))
    n = draw(st.integers(0, k // 2))
    q = draw(st.sampled_from([1e-3, 0.5, 1.0, 3.0]))
    js = draw(st.none() | st.lists(st.floats(0.0, 2.0, exclude_min=True),
                                   min_size=k - 1, max_size=k - 1))
    return k, n, q, js


class TestArrayCsvWriters:
    """tl_matrix.csv, tl_basis.csv and fk_matrix.csv, formatted a row at a
    time from arrays, against ``csv_text`` of the cell-by-cell rows."""

    @settings(max_examples=25, database=None, deadline=None)
    @given(tl_matrix_args())
    def test_tl_files(self, inputs):
        k, n, q, js = inputs
        args = ["tl-matrix", "--k", str(k), "--n", str(n), "--q", repr(q)]
        if js is not None:
            args += ["--J", ",".join(map(repr, js))]
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run(Path(tmp), *args)
            assert code in (0, 1, 3)  # the files come before the Perron solve
            tl = tl_hamiltonian_matrix(k, n, [1.0] * (k - 1) if js is None else js, q)
            assert read(out / "tl_matrix.csv") == csv_text(MATRIX_HEADER, matrix_csv_tuples(tl))
            assert read(out / "tl_basis.csv") == csv_text(
                BASIS_HEADER, basis_csv_tuples(enumerate_arc_diagrams(k, n)))

    def test_no_arc_basis_is_empty(self, tmp_path):
        code, out = run(tmp_path, "tl-matrix", "--k", "3", "--n", "0")
        assert code == 0
        assert read(out / "tl_basis.csv") == "diagram_id,arcs\n0,empty\n"

    @pytest.mark.parametrize("spins,S2,js", [
        ("2,2,2,2", "0", None),
        ("2,2,2,2", "8", None),  # S = S_max: H V = 0, so A is an exact zero
        ("1,3,2", "2", "0.4,1.9"),
        ("2,1,2,1", "2", "1.3,0.2,0.7"),
    ])
    def test_fk_matrix(self, tmp_path, spins, S2, js):
        args = ["fk-basis", "--spins", spins, "--S2", S2] + ([] if js is None else ["--J", js])
        code, out = run(tmp_path, *args)
        assert code in (0, 1)
        twice = [HalfInt(int(t)) for t in spins.split(",")]
        couplings = [1.0] * (len(twice) - 1) if js is None else [float(j) for j in js.split(",")]
        a = fk_hamiltonian_matrix(twice, couplings,
                                  fk_highest_weight_basis(twice, HalfInt(int(S2))))
        if S2 == "8":
            assert (a == 0.0).all()
        rows = matrix_csv_tuples(a)
        assert len(rows) == np.count_nonzero(a)
        assert read(out / "fk_matrix.csv") == csv_text(MATRIX_HEADER, rows)
