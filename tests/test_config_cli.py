import json
import os
import time

import numpy as np
import pytest

from qcoord.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    EXIT_VALIDATION,
    main,
)
from qcoord.config import (
    ConfigError,
    build_ensemble,
    build_extension,
    config_hash,
    ensemble_to_config,
    extension_to_config,
    load_config,
    phase_flip_blocks,
    resolve_family,
)
from qcoord.classical import Alphabet, JointPmf
from qcoord.coordination import CqEnsemble, validate_extension
from qcoord.optimizer import OBJ_TOL
from qcoord.quantum import DensityOperator, tensor

from conftest import phase_flip_pair
from oracles import binary_entropy

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def config_path(name):
    return os.path.join(CONFIG_DIR, name)


def read_csv(path):
    with open(path) as fh:
        return fh.read()


def read_config(name):
    with open(config_path(name)) as fh:
        return json.load(fh)


class TestConfigRoundTrip:
    def test_ensemble_and_extension_round_trip(self, example1_pair):
        ens, ext = example1_pair
        cfg = {
            "schema": 1, "command": "rate",
            "ensemble": ensemble_to_config(ens),
            "extension": extension_to_config(ext),
        }
        ens2 = build_ensemble(cfg)
        ext2 = build_extension(cfg, ens2)
        assert np.array_equal(ens2.source.table, ens.source.table)
        for a, b in zip(ens2.states, ens.states):
            assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(ext2.joint.table, ext.joint.table)
        for a, b in zip(ext2.atoms_b, ext.atoms_b):
            assert np.array_equal(a.matrix, b.matrix)
        assert validate_extension(ext2, ens2).passed

    def test_family_resolution_matches_fixture(self):
        cfg = {"schema": 1, "command": "rate",
               "family": {"name": "phase_flip", "p": 0.25}}
        resolved = resolve_family(cfg)
        ens = build_ensemble(resolved)
        ext = build_extension(resolved, ens)
        assert validate_extension(ext, ens).passed
        ens_ref, _ = phase_flip_pair(0.25)
        assert np.allclose(ens.average_state().matrix,
                           ens_ref.average_state().matrix)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            resolve_family({"family": {"name": "nope"}})

    def test_schema_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "command": "rate"}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_config_hash_stable_under_key_order(self):
        a = {"schema": 1, "command": "rate", "x": [1, 2]}
        b = {"command": "rate", "x": [1, 2], "schema": 1}
        assert config_hash(a) == config_hash(b)

    def test_sparse_joint_entries(self):
        cfg = read_config("example1_decomposition_b.json")
        cfg["extension"]["joint"] = [
            {"symbols": ["x0", "y0"], "p": 0.5},
            {"symbols": ["x1", "y0"], "p": 0.25},
            {"symbols": ["x1", "y+"], "p": 0.25},
        ]
        ens = build_ensemble(cfg)
        ext = build_extension(cfg, ens)
        assert validate_extension(ext, ens).passed
        assert np.allclose(ext.joint.table, [[0.5, 0.0], [0.25, 0.25]])


class TestCli:
    def run(self, args):
        return main(args)

    def test_rate_example1_decomposition_b(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = self.run(["--config",
                         config_path("example1_decomposition_b.json"),
                         "--out", str(out)])
        assert code == EXIT_OK
        body = read_csv(out / "rate.csv")
        assert "0.311278" in body
        printed = capsys.readouterr().out
        assert "0.311278" in printed
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "rate"
        assert manifest["config_hash"] in body

    def test_rate_example1_decomposition_a(self, tmp_path):
        out = tmp_path / "out"
        code = self.run(["--config",
                         config_path("example1_decomposition_a.json"),
                         "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        assert ",1.5," in read_csv(out / "rate.csv")

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert self.run(["--config",
                             config_path("example1_decomposition_b.json"),
                             "--out", str(out), "--quiet"]) == EXIT_OK
        assert read_csv(out1 / "rate.csv") == read_csv(out2 / "rate.csv")

    def test_simulate_rerun_is_byte_identical_with_threads(self, tmp_path):
        cfg = read_config("example1_decomposition_b.json")
        cfg["command"] = "simulate"
        cfg["simulate"] = {"n_grid": [120], "rates": [0.46], "trials": 12,
                           "delta": 0.05, "seed": 7, "engine": "sampled"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out, threads in ((out1, "1"), (out2, "4")):
            assert self.run(["--config", str(path), "--out", str(out),
                             "--threads", threads, "--quiet"]) == EXIT_OK
        assert (read_csv(out1 / "simulate.csv")
                == read_csv(out2 / "simulate.csv"))
        assert (read_csv(out1 / "simulate_summary.csv")
                == read_csv(out2 / "simulate_summary.csv"))

    def test_phase_flip_sweep_matches_closed_form(self, tmp_path):
        out = tmp_path / "out"
        code = self.run(["--config", config_path("phase_flip_sweep.json"),
                         "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        lines = read_csv(out / "sweep.csv").strip().splitlines()[1:]
        assert len(lines) == 10
        for line in lines:
            _, value, rate, _, _, gap = line.split(",")
            assert abs(float(rate) - (1 - binary_entropy(float(value)))) \
                <= 1e-9
            assert gap == ""    # a rate sweep solves nothing
        last = lines[-1].split(",")
        assert float(last[1]) == 0.5 and float(last[2]) == 0.0

    def test_sweep_of_simulate_is_a_config_error(self, tmp_path, capsys):
        cfg = read_config("phase_flip_sweep.json")
        cfg["sweep"]["command"] = "simulate"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert self.run(["--config", str(path), "--out", str(out),
                         "--quiet"]) == EXIT_PARSE
        assert "sweep supports the rate and optimize commands" in \
            capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_cascade_rate_prints_the_region_corner(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run(["--config", config_path("cascade_flip.json"),
                         "--out", str(out)]) == EXIT_OK
        header, row = read_csv(out / "rate.csv").strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert (cells["kind"], cells["rate"]) == ("cascade", "")
        corner = f"({float(cells['r12']):.6f}, {float(cells['r23']):.6f})"
        assert f"rate region corner: {corner} bits/symbol" in \
            capsys.readouterr().out

    def test_empty_sweep_grid_is_noop_success(self, tmp_path):
        cfg = read_config("phase_flip_sweep.json")
        cfg["sweep"]["values"] = []
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert self.run(["--config", str(path), "--out", str(out),
                         "--quiet"]) == EXIT_OK
        assert read_csv(out / "sweep.csv").strip().splitlines()[1:] == []

    def test_malformed_config_parse_error_no_artifacts(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        out = tmp_path / "out"
        assert self.run(["--config", str(path), "--out", str(out),
                         "--quiet"]) == EXIT_PARSE
        assert not (out / "manifest.json").exists()

    def test_validation_failure_exit_code(self, tmp_path):
        cfg = read_config("example1_decomposition_b.json")
        cfg["extension"]["joint"] = [[0.5, 0.0], [0.3, 0.2]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert self.run(["--config", str(path), "--out", str(out),
                         "--quiet"]) == EXIT_VALIDATION

    def test_infeasible_exit_code(self, tmp_path):
        # classically correlated target state cannot factor A x B
        cfg = {
            "schema": 1, "command": "optimize",
            "ensemble": {
                "registers": {"A": 2, "B": 2},
                "source": {"variable": "X", "symbols": ["x0"],
                           "probs": [1.0]},
                "states": [{"full": [
                    [[0.5, 0], [0, 0], [0, 0], [0, 0]],
                    [[0, 0], [0, 0], [0, 0], [0, 0]],
                    [[0, 0], [0, 0], [0, 0], [0, 0]],
                    [[0, 0], [0, 0], [0, 0], [0.5, 0]],
                ]}],
            },
            "optimize": {"kind": "two-node"},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert self.run(["--config", str(path), "--out", str(out),
                         "--quiet"]) == EXIT_INFEASIBLE

    def test_resource_cap_exit_code(self, tmp_path):
        cfg = read_config("example1_decomposition_b.json")
        cfg["command"] = "simulate"
        cfg["simulate"] = {"n_grid": [4000], "rates": [0.46], "trials": 1,
                           "delta": 0.02, "seed": 0, "engine": "explicit"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert self.run(["--config", str(path), "--out", str(out),
                         "--quiet"]) == EXIT_RESOURCE

    def test_simulate_writes_summary(self, tmp_path):
        cfg = read_config("example1_decomposition_b.json")
        cfg["command"] = "simulate"
        cfg["simulate"] = {"n_grid": [100, 200], "rates": [0.46],
                           "trials": 10, "delta": 0.05, "seed": 1,
                           "engine": "sampled"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert self.run(["--config", str(path), "--out", str(out),
                         "--quiet"]) == EXIT_OK
        summary = read_csv(out / "simulate_summary.csv").strip().splitlines()
        assert len(summary) == 3  # header + one row per n
        body = read_csv(out / "simulate.csv")
        chash = config_hash(cfg)
        assert all(line.startswith(chash)
                   for line in body.strip().splitlines()[1:])

    def test_seed_override_changes_trials(self, tmp_path):
        cfg = read_config("example1_decomposition_b.json")
        cfg["command"] = "simulate"
        cfg["simulate"] = {"n_grid": [100], "rates": [0.46], "trials": 5,
                           "delta": 0.05, "seed": 1, "engine": "sampled"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert self.run(["--config", str(path), "--out", str(out1),
                         "--quiet"]) == EXIT_OK
        assert self.run(["--config", str(path), "--out", str(out2),
                         "--seed", "2", "--quiet"]) == EXIT_OK
        assert (read_csv(out1 / "simulate.csv")
                != read_csv(out2 / "simulate.csv"))

    def test_converse_command(self, tmp_path):
        cfg = read_config("example1_decomposition_b.json")
        cfg["command"] = "converse"
        cfg["simulate"] = {"n_grid": [200], "rates": [0.46], "trials": 30,
                           "delta": 0.02, "seed": 1, "engine": "sampled"}
        cfg["converse"] = {"slack": 0.02}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert self.run(["--config", str(path), "--out", str(out),
                         "--quiet"]) == EXIT_OK
        lines = read_csv(out / "converse.csv").strip().splitlines()
        assert lines[1].endswith(",1")  # passed

    def test_derandomize_command(self, tmp_path):
        cfg = read_config("example1_decomposition_b.json")
        cfg["command"] = "derandomize"
        cfg["simulate"] = {"n_grid": [200], "rates": [0.46], "trials": 5,
                           "delta": 0.02, "seed": 1, "engine": "sampled"}
        cfg["derandomize"] = {"num_seeds": 4, "epsilon": 0.5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert self.run(["--config", str(path), "--out", str(out),
                         "--quiet"]) == EXIT_OK
        lines = read_csv(out / "derandomize.csv").strip().splitlines()
        assert len(lines) == 5
        summary = read_csv(out / "derandomize_summary.csv")
        assert ",1" in summary.strip().splitlines()[1]

    def test_cascade_rate_config(self, tmp_path):
        out = tmp_path / "out"
        assert self.run(["--config", config_path("cascade_flip.json"),
                         "--out", str(out), "--quiet"]) == EXIT_OK
        body = read_csv(out / "rate.csv")
        assert "1.0," in body

    def test_cascade_lambda_sweep_corner_trace(self, tmp_path):
        out = tmp_path / "out"
        assert self.run(["--config",
                         config_path("cascade_lambda_sweep.json"),
                         "--out", str(out), "--quiet"]) == EXIT_OK
        rows = [line.split(",") for line in
                read_csv(out / "sweep.csv").strip().splitlines()[1:]]
        r12 = [float(r[3]) for r in rows]
        r23 = [float(r[4]) for r in rows]
        # scalarization monotonicity: growing weight on the relay rate
        # never increases it, and never decreases the first-hop rate
        assert all(r23[i + 1] <= r23[i] + 1e-3 for i in range(len(r23) - 1))
        assert all(r12[i + 1] >= r12[i] - 1e-3 for i in range(len(r12) - 1))
        assert r23[-1] == pytest.approx(1 - binary_entropy(0.1), abs=1e-6)

    def test_isolated_rate_config(self, tmp_path):
        out = tmp_path / "out"
        assert self.run(["--config", config_path("isolated_node.json"),
                         "--out", str(out), "--quiet"]) == EXIT_OK
        assert ",1.0," in read_csv(out / "rate.csv")

    def test_cascade_simulate_config(self, tmp_path):
        cfg = read_config("cascade_flip.json")
        cfg["command"] = "simulate"
        cfg["simulate"] = {"n_grid": [24], "rates": [1.9], "rates23": [0.9],
                           "trials": 6, "delta": 0.1, "seed": 2,
                           "engine": "explicit", "codeword_rate_y": 0.35,
                           "codeword_rate_z": 0.3}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert self.run(["--config", str(path), "--out", str(out),
                         "--quiet"]) == EXIT_OK
        body = read_csv(out / "simulate.csv").strip().splitlines()
        assert len(body) == 7
        # cascade rows carry the bob/charlie agreement column
        assert body[1].split(",")[-1] in ("0", "1")


class TestPhaseFlipBlocks:
    def test_blocks_build_and_validate(self):
        blocks = phase_flip_blocks(0.3)
        cfg = {"schema": 1, "command": "rate", **blocks}
        ens = build_ensemble(cfg)
        ext = build_extension(cfg, ens)
        assert validate_extension(ext, ens).passed

    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigError):
            phase_flip_blocks(1.5)


class TestCliCommandsAgree:
    def test_sweep_honours_optimize_max_iters(self, tmp_path, capsys):
        # a truncated solve (max_iters=5) stops short of the converged value,
        # so a sweep that dropped max_iters would report a different number
        cfg = read_config("example1_optimize.json")
        cfg["optimize"]["max_iters"] = 5
        path = tmp_path / "optimize.json"
        path.write_text(json.dumps(cfg))
        sweep = dict(cfg, command="sweep",
                     sweep={"path": ["optimize", "max_merge_order"],
                            "values": [cfg["optimize"]["max_merge_order"]],
                            "command": "optimize"})
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps(sweep))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["--config", str(path), "--out", str(out1),
                     "--quiet"]) == EXIT_OK
        assert main(["--config", str(sweep_path), "--out", str(out2),
                     "--quiet"]) == EXIT_OK
        optimized = read_csv(out1 / "optimize.csv").splitlines()[1]
        swept = read_csv(out2 / "sweep.csv").splitlines()[1]
        assert swept.split(",")[2] == optimized.split(",")[2]
        # the premise: both solves stopped with the gap above tolerance,
        # and both runs said so
        assert float(optimized.split(",")[-1]) > OBJ_TOL
        assert float(swept.split(",")[-1]) > OBJ_TOL
        err = capsys.readouterr().err
        assert err.count("warning: stopped after 5 iterations") == 2

    def test_derandomize_threads_do_not_change_output(self, tmp_path,
                                                      monkeypatch):
        from qcoord import cli
        seen = []

        def spy(*args, **kwargs):
            seen.append("threads" in kwargs)
            return real(*args, **kwargs)
        real = cli.derandomize
        monkeypatch.setattr(cli, "derandomize", spy)
        cfg = read_config("example1_derandomize.json")
        cfg["simulate"].update(n_grid=[200], trials=6, engine="sampled")
        cfg["derandomize"]["num_seeds"] = 3
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "t1", tmp_path / "t4"
        for out, threads in ((out1, "1"), (out2, "4")):
            assert main(["--config", str(path), "--out", str(out),
                         "--threads", threads, "--quiet"]) == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            assert "threads" not in manifest
        assert seen == [False, False]
        for name in ("derandomize.csv", "derandomize_summary.csv"):
            assert read_csv(out1 / name) == read_csv(out2 / name)

    def test_huge_finite_rate_is_a_resource_error(self, tmp_path, capsys):
        # rate 400 at n=200 asks for an 80,000-bit bin index, above the
        # 2^16-bit cap; the codebook parameters refuse it before any trial
        cfg = read_config("example1_simulate.json")
        cfg["simulate"] = dict(cfg["simulate"], n_grid=[200], rates=[400],
                               trials=2, engine="sampled")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        start = time.perf_counter()
        assert main(["--config", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == EXIT_RESOURCE
        assert time.perf_counter() - start < 5.0
        assert "resource cap: a codebook index needs" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_over_budget_type_grid_is_a_resource_error(self, tmp_path,
                                                       capsys):
        # the three-symbol copy target at n=400 needs a ~5e11-cell grid
        cfg = read_config("example1_decomposition_a.json")
        cfg["command"] = "simulate"
        cfg["simulate"] = {"n_grid": [400], "rates": [1.6], "trials": 2,
                           "delta": 0.02, "seed": 0, "engine": "auto"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == EXIT_RESOURCE
        assert "type grid" in capsys.readouterr().err


@pytest.mark.parametrize("path", [
    ("ensemble", "registers"),
    ("ensemble", "source"),
    ("ensemble", "source", "symbols"),
    ("ensemble", "source", "probs"),
    ("ensemble", "states"),
    ("extension", "labels"),
    ("extension", "joint"),
    ("extension", "atoms_b"),
], ids=".".join)
def test_missing_config_key_is_a_config_error(tmp_path, capsys, path):
    cfg = read_config("example1_simulate.json")
    block = cfg
    for key in path[:-1]:
        block = block[key]
    del block[path[-1]]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_PARSE
    assert f"config error: {'.'.join(path)} is missing" in \
        capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("name,path,value", [
    ("example1_simulate.json", ("ensemble", "registers"), 5),
    ("example1_simulate.json", ("ensemble", "states", 0), {"A": 5}),
    ("example1_simulate.json", ("simulate", "trials"), "x"),
    ("example1_simulate.json", ("simulate", "n_grid"), 5),
    ("example1_simulate.json", ("simulate", "delta"), None),
    ("example1_optimize.json", ("optimize", "max_iters"), "x"),
    ("example1_derandomize.json", ("derandomize", "num_seeds"), "many"),
    ("phase_flip_sweep.json", ("sweep", "values"), 3),
    ("example1_simulate.json", ("ensemble", "registers"), {}),
], ids=["registers", "states", "trials", "n_grid", "delta", "max_iters",
        "num_seeds", "sweep_values", "no_registers"])
def test_wrong_typed_config_value_is_a_config_error(tmp_path, capsys, name,
                                                    path, value):
    cfg = read_config(name)
    block = cfg
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_PARSE
    err = capsys.readouterr().err
    where = ".".join(path[:2]) + "".join(f"[{k}]" for k in path[2:])
    assert f"config error: {where}" in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("name,command,block,message", [
    ("cascade_flip.json", "simulate",
     {"simulate": {"n_grid": [8], "rates": [1.0, 1.2], "rates23": [0.5],
                   "trials": 1}},
     "rates23 needs one entry per rate"),
    ("example1_derandomize.json", "derandomize",
     {"simulate": {"n_grid": [], "trials": 1}},
     "derandomize needs a nonempty n_grid and rates"),
    # each grid setting below was dropped, in whole or in part, silently
    ("example1_simulate.json", "simulate",
     {"simulate": {"n_grid": [], "rates": [0.46], "trials": 1}},
     "simulate needs a nonempty n_grid and rates"),
    ("example1_converse.json", "converse",
     {"simulate": {"n_grid": [200], "rates": [], "trials": 1}},
     "converse needs a nonempty n_grid and rates"),
    ("example1_derandomize.json", "derandomize",
     {"simulate": {"n_grid": [200, 400], "rates": [0.46, 0.6],
                   "trials": 1}},
     "derandomize takes one n_grid entry and one rate"),
    ("cascade_flip.json", "simulate",
     {"simulate": {"n_grid": [8], "rates": [1.9], "rates23": [0.9, 0.5],
                   "trials": 1}},
     "rates23 needs one entry per rate"),
    ("example1_simulate.json", "simulate",
     {"simulate": {"n_grid": [200], "rates": [0.46], "rates23": [0.1, 0.2],
                   "trials": 1}},
     "rates23 is for a three-node extension, not a two-node one"),
    ("phase_flip_sweep.json", "sweep",
     {"sweep": {"path": ["family", "q", "r"], "values": [0.1]}},
     "does not name a config entry"),
    ("example1_decomposition_b.json", "rate",
     {"extension": {"labels": {"Y": ["y0", "y+"]}, "atoms_b": [],
                    "joint": [{"symbols": ["x0", "y0"]}]}},
     "extension.joint[0].p is missing"),
    ("example1_decomposition_b.json", "rate",
     {"extension": {"labels": {"Y": ["y0", "y+"]}, "atoms_b": [],
                    "joint": [{"symbols": ["x0"], "p": 1.0}]}},
     "extension.joint[0].symbols needs one symbol per variable"),
    ("example1_decomposition_b.json", "rate",
     {"extension": {"labels": {"Y": ["y0", "y+"]}, "atoms_b": [],
                    "joint": [["a", "b"], ["c", "d"]]}},
     "extension.joint is not a nested list of probabilities"),
], ids=["rates23", "derandomize_n_grid", "simulate_empty_n_grid",
        "converse_empty_rates", "derandomize_two_cells", "rates23_longer",
        "rates23_two_node", "sweep_path", "sparse_joint_p",
        "sparse_joint_symbols", "joint_strings"])
def test_unusable_config_value_is_a_config_error(tmp_path, capsys, name,
                                                 command, block, message):
    cfg = read_config(name)
    cfg.update(block, command=command)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                 "--quiet"]) == EXIT_PARSE
    assert message in capsys.readouterr().err


# a list or an object is no symbol: a config error, not an unexpected one
@pytest.mark.parametrize("name,path,value,message", [
    ("example1_simulate.json", ("ensemble", "source", "symbols"),
     [["x0"], ["x1"]], "ensemble.source.symbols[0] must be a string or a "
     "number"),
    ("example1_decomposition_b.json", ("extension", "labels", "Y"),
     ["y0", {}], "extension.labels.Y[1] must be a string or a number"),
    ("cascade_flip.json", ("extension", "labels", "Z"), [["z0"], "z1"],
     "extension.labels.Z[0] must be a string or a number"),
], ids=["symbols", "labels_y", "labels_z"])
def test_unhashable_symbol_is_a_config_error(tmp_path, capsys, name, path,
                                             value, message):
    cfg = read_config(name)
    block = cfg
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                 "--quiet"]) == EXIT_PARSE
    assert f"config error: {message}" in capsys.readouterr().err


def no_build(monkeypatch):
    """Make any ensemble build fail the test: the run must stop first."""
    from qcoord import cli

    def build(*args, **kwargs):
        raise AssertionError("the config was used before it was checked")
    monkeypatch.setattr(cli, "resolve_family", build)
    monkeypatch.setattr(cli, "build_ensemble", build)


# every settings block is read at load, also one the command never uses
@pytest.mark.parametrize("name,block,key,value,message", [
    ("example1_optimize.json", "simulate", "trials", "x",
     "simulate.trials must be an integer, not 'x'"),
    ("example1_simulate.json", "optimize", "max_iters", 0.5,
     "optimize.max_iters must be an integer, not 0.5"),
    ("example1_decomposition_b.json", "converse", "slack", [],
     "converse.slack must be a number, not []"),
    ("phase_flip_sweep.json", "derandomize", "num_seeds", None,
     "derandomize.num_seeds must be an integer, not None"),
    ("example1_derandomize.json", "sweep", "values", [0.1, "x"],
     "sweep.values[1] must be a number, not 'x'"),
    ("example1_simulate.json", "simulate", "trails", 2,
     "unknown key simulate.trails"),
    ("example1_derandomize.json", "derandomize", "epsilon_", 0.1,
     "unknown key derandomize.epsilon_"),
    ("example1_optimize.json", "optimize", "slack", 0.1,
     "unknown key optimize.slack"),
], ids=["unread_simulate", "unread_optimize", "unread_converse",
        "unread_derandomize", "unread_sweep", "simulate_trails",
        "derandomize_epsilon_", "optimize_slack"])
def test_settings_are_checked_at_load(tmp_path, capsys, monkeypatch, name,
                                      block, key, value, message):
    no_build(monkeypatch)
    cfg = read_config(name)
    cfg[block] = dict(cfg.get(block, {}), **{key: value})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_PARSE
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_top_level_key_is_a_config_error(tmp_path, capsys,
                                                 monkeypatch):
    no_build(monkeypatch)
    cfg = dict(read_config("example1_decomposition_b.json"), simulte={})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                 "--quiet"]) == EXIT_PARSE
    assert "config error: unknown key 'simulte'" in capsys.readouterr().err


# a misspelt optional key in the ensemble, extension or family block would
# otherwise take its default silently (the A parts, the variable name X)
@pytest.mark.parametrize("name,path,value", [
    ("example1_decomposition_b.json", ("extension", "atoms_A"), []),
    ("example1_decomposition_b.json", ("ensemble", "source", "varible"), "W"),
    ("example1_decomposition_b.json", ("ensemble", "state"), []),
    ("phase_flip_sweep.json", ("family", "q"), 0.1),
], ids=["atoms_A", "varible", "state", "family_q"])
def test_unknown_block_key_is_a_config_error(tmp_path, capsys, name, path,
                                             value):
    cfg = read_config(name)
    block = cfg
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == EXIT_PARSE
    assert f"config error: unknown key {'.'.join(path)}" in \
        capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_bad_swept_value_is_rejected_before_any_solve(tmp_path, capsys,
                                                      monkeypatch):
    from qcoord import optimizer
    solves = []
    real = optimizer.minimize_conditional

    def spy(*args, **kwargs):
        solves.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(optimizer, "minimize_conditional", spy)
    cfg = read_config("example1_optimize.json")
    cfg["command"] = "sweep"
    cfg["sweep"] = {"path": ["optimize", "max_merge_order"],
                    "values": [2, 2.5], "command": "optimize"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out),
                 "--quiet"]) == EXIT_PARSE
    assert "config error: optimize.max_merge_order must be an integer, " \
        "not 2.5" in capsys.readouterr().err
    assert solves == []
    assert not (out / "sweep.csv").exists()


def test_cascade_simulate_without_trials_is_a_validation_error(tmp_path,
                                                               capsys):
    cfg = read_config("cascade_flip.json")
    cfg["command"] = "simulate"
    cfg["simulate"] = {"n_grid": [8], "rates": [1.0], "rates23": [0.5],
                       "trials": 0, "delta": 0.2, "engine": "explicit",
                       "codeword_rate_y": 0.5, "codeword_rate_z": 0.5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                 "--quiet"]) == EXIT_VALIDATION
    assert "trials must be positive" in capsys.readouterr().err


# settings the library cannot honour: each is a validation error (exit 3),
# never an unexpected error (1) or a run that ignores the setting (0)
@pytest.mark.parametrize("name,command,edits,flags,message", [
    ("example1_optimize.json", "optimize", {"optimize": {"lambda": 0.5}},
     [], "lambda must be"),
    ("cascade_lambda_sweep.json", "optimize", {"optimize": {"lambda": -0.5}},
     [], "lambda must be"),
    ("example1_optimize.json", "optimize",
     {"optimize": {"max_merge_order": 0}}, [], "max_merge_order"),
    ("example1_simulate.json", "simulate", {"simulate": {"seed": -3}}, [],
     "seed must be nonnegative"),
    ("example1_derandomize.json", "derandomize", {}, ["--seed", "-1"],
     "seed must be nonnegative"),
    ("example1_simulate.json", "simulate", {"simulate": {"rates": [1e308]}},
     [], "rates must be nonnegative and finite"),
    ("example1_simulate.json", "simulate", {"simulate": {"delta": 1e308}},
     [], "rates must be nonnegative and finite"),
    ("example1_simulate.json", "simulate", {"simulate": {"gamma_coeff": 0}},
     [], "gamma_coeff must be positive"),
    ("example1_optimize.json", "optimize", {"optimize": {"max_iters": 0}},
     [], "max_iters must be at least 1"),
    ("example1_optimize.json", "optimize", {"optimize": {"max_iters": -2}},
     [], "max_iters must be at least 1"),
    ("cascade_lambda_sweep.json", "optimize", {"optimize": {"lambda": 1e308}},
     [], "lambda must be"),
    ("example1_decomposition_b.json", "rate",
     {"extension": {"joint": [[0.5, None], [0.25, 0.25]]}}, [],
     "probability entries must be finite"),
    ("example1_decomposition_b.json", "rate",
     {"extension": {"atoms_b": [
         [[[1e308, 0], [0, 0]], [[0, 0], [0, 0]]],
         [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]]}},
     [], "no entry above 1"),
], ids=["two_node_lambda", "negative_lambda", "merge_order_0",
        "negative_config_seed", "negative_seed_flag", "huge_rate",
        "huge_delta", "zero_gamma_coeff", "max_iters_0",
        "negative_max_iters", "huge_lambda", "null_joint_cell",
        "huge_atom_entry"])
def test_unhonourable_setting_is_a_validation_error(tmp_path, capsys, name,
                                                    command, edits, flags,
                                                    message):
    cfg = read_config(name)
    cfg["command"] = command
    # one short run each, so that a setting that is not rejected ends fast
    cfg["simulate"] = dict(cfg.get("simulate", {}), n_grid=[200], trials=1)
    cfg["derandomize"] = dict(cfg.get("derandomize", {}), num_seeds=1)
    for block, values in edits.items():
        cfg[block] = dict(cfg[block], **values)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "--quiet"]
                + flags) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "validation error: " in err and message in err
    assert not (out / "manifest.json").exists()


def lambda_sweep_config(name: str, values: list) -> dict:
    cfg = read_config(name)
    cfg["command"] = "sweep"
    cfg["sweep"] = {"path": ["optimize", "lambda"], "values": values,
                    "command": "optimize"}
    return cfg


# a weight sweep checks every weight before it solves any of them
@pytest.mark.parametrize("name,values", [
    ("cascade_lambda_sweep.json", [0.0, -0.5]),
    ("example1_optimize.json", [0, 0.5])],
    ids=["negative_lambda", "two_node_lambda"])
def test_bad_swept_lambda_is_rejected_before_any_solve(tmp_path, capsys,
                                                       monkeypatch, name,
                                                       values):
    from qcoord import optimizer
    solves = []
    real = optimizer.minimize_conditional

    def spy(*args, **kwargs):
        solves.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(optimizer, "minimize_conditional", spy)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(lambda_sweep_config(name, values)))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out),
                 "--quiet"]) == EXIT_VALIDATION
    assert "lambda must be" in capsys.readouterr().err
    assert solves == []
    assert not (out / "sweep.csv").exists()


def test_lambda_sweep_is_one_optimize_lambdas_call(tmp_path, monkeypatch):
    from qcoord import cli
    calls = []
    real = cli.optimize_lambdas

    def spy(*args, **kwargs):
        calls.append((args[1], kwargs))
        return real(*args, **kwargs)

    def per_value(*args, **kwargs):
        raise AssertionError("a weight sweep solved one weight at a time")
    monkeypatch.setattr(cli, "optimize_lambdas", spy)
    monkeypatch.setattr(cli, "optimize", per_value)
    out = tmp_path / "out"
    assert main(["--config", config_path("cascade_lambda_sweep.json"),
                 "--out", str(out), "--quiet"]) == EXIT_OK
    assert calls == [([0.0, 0.5, 1.0],
                      {"kind": "cascade", "max_merge_order": 2})]
    assert len(read_csv(out / "sweep.csv").strip().splitlines()) == 4


def test_negative_threads_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--config", config_path("example1_decomposition_b.json"),
              "--out", str(out), "--threads", "-4", "--quiet"])
    assert exc.value.code == EXIT_PARSE
    assert "--threads must be at least 0" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_tolerances_are_the_library_constants(tmp_path):
    from qcoord.coordination import VALIDATION_TOL
    from qcoord.optimizer import FEAS_TOL
    out = tmp_path / "out"
    assert main(["--config", config_path("example1_decomposition_b.json"),
                 "--out", str(out), "--quiet"]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tolerances"] == {"validation": VALIDATION_TOL,
                                      "feasibility": FEAS_TOL}


def _commuting_target(px, u, spectra):
    """The target with A_x = |x><x| and B_x = U diag(w_x) U^dagger."""
    u = np.array(u)
    states = [tensor(DensityOperator.basis_state(len(px), x),
                     DensityOperator(u @ np.diag(w) @ u.conj().T))
              for x, w in enumerate(spectra)]
    return CqEnsemble(
        JointPmf([Alphabet("X", [f"x{x}" for x in range(len(px))])], px),
        states, {"A": len(px), "B": len(u)})


def _optimize_value(tmp_path, ens):
    """``main``'s exit code on the target's two-node optimize config, and
    the value it writes (None if it exits nonzero)."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "schema": 1, "command": "optimize",
        "ensemble": ensemble_to_config(ens),
        "optimize": {"kind": "two-node"}}))
    out = tmp_path / "out"
    code = main(["--config", str(path), "--out", str(out), "--quiet"])
    if code != EXIT_OK:
        return code, None
    return code, float(
        read_csv(out / "optimize.csv").splitlines()[1].split(",")[2])


def test_ill_conditioned_commuting_target_solves(tmp_path):
    # B_x = U diag(w_x) U^dagger share one eigenbasis, so the minimum is
    # the Holevo quantity chi(X;B); here the least-squares move of the
    # support point leaves the orthant
    u = [[-0.3677424282082884 - 0.37292622408203857j,
          0.315464740465009 - 0.7913112759279556j],
         [-0.7779577008103895 + 0.347092716197268j,
          0.38744075435179615 + 0.35241754210017145j]]
    spectra = [[0.49682689126894525, 0.5031731087310547],
               [0.0039266873613605525, 0.9960733126386394]]
    code, value = _optimize_value(tmp_path, _commuting_target(
        [0.5230448431815508, 0.47695515681844924], u, spectra))
    assert code == EXIT_OK
    assert value == pytest.approx(0.2886591116097739, abs=1e-9)


# a commuting target on which one peel's remainder rounds outside the states
PEELED_PX = [0.045000103124868115, 0.34527391999358886, 0.6097259768815432]
PEELED_U = [[-0.32655570946387735 - 0.3405100384603249j,
             -0.3553799690644042 - 0.8069196737668969j],
            [0.5513942027707132 - 0.6880252288071578j,
             -0.40330205212911974 + 0.24481252505570203j]]
PEELED_SPECTRA = [[0.9982970429524294, 0.0017029570475707396],
                  [0.8744475180290882, 0.1255524819709119],
                  [2.619509078791855e-06, 0.9999973804909212]]


def test_commuting_target_whose_peeled_remainder_rounds_negative(tmp_path):
    # one peel takes q = 1 - 2.6e-6 of a conditional, and dividing the
    # remainder by 1 - q leaves it an eigenvalue of -4e-8, beyond TOL_PSD;
    # the proposal drops it instead of raising QuantumError (exit 3), and
    # the solve reaches chi(X;B) = H(sum_x p_x w_x) - sum_x p_x H(w_x)
    code, value = _optimize_value(tmp_path, _commuting_target(
        PEELED_PX, PEELED_U, PEELED_SPECTRA))
    assert code == EXIT_OK
    entropy = lambda p: -sum(q * np.log2(q) for q in p if q > 0)
    chi = (entropy(np.array(PEELED_PX) @ np.array(PEELED_SPECTRA))
           - sum(p * entropy(w) for p, w in zip(PEELED_PX, PEELED_SPECTRA)))
    assert value == pytest.approx(chi, abs=1e-9)


def test_target_that_does_not_factor_is_certified_empty(tmp_path):
    # mixed with 1e-6 of the entangled 0.6|00> + 0.8i|11>, the same target
    # no longer factors: its atoms are proposed (the peel drops what it
    # cannot keep) and the face is certified empty, exit 4
    ens = _commuting_target(PEELED_PX, PEELED_U, PEELED_SPECTRA)
    entangled = DensityOperator.pure([0.6, 0, 0, 0.8j, 0, 0]).matrix
    mixed = CqEnsemble(ens.source, [
        DensityOperator((1 - 1e-6) * s.matrix + 1e-6 * entangled)
        for s in ens.states], ens.register_dims)
    assert not mixed.factorizes()
    assert _optimize_value(tmp_path, mixed) == (EXIT_INFEASIBLE, None)


def test_sampled_simulate_starts_no_thread(tmp_path, monkeypatch):
    # every engine draws its trials on the calling thread; with 4 cores a
    # pool sized by the core count would start threads on any runner
    import threading
    started, start = [], threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        return start(thread)
    monkeypatch.setattr(threading.Thread, "start", spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    cfg = read_config("example1_decomposition_b.json")
    cfg["command"] = "simulate"
    cfg["simulate"] = {"n_grid": [120], "rates": [0.46], "trials": 12,
                       "delta": 0.05, "seed": 7, "engine": "sampled"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out", str(tmp_path / "out"),
                 "--quiet"]) == EXIT_OK
    assert started == []
