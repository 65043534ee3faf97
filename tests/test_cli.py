import ast
import collections
import csv
import functools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qumimo import cli, cloner, decoder, experiments, noise, strategies
from qumimo.errors import ConfigError, QumimoError, SolverError
from reference_ops import project_one_row

ROOT = Path(__file__).resolve().parents[1]


def tiny_fixed_cfg(**overrides):
    cfg = {
        "regime": "fixed_z",
        "N": [1, 2],
        "Z": [0.6],
        "eta": [0.5],
        "delta": 1.0,
        "p": [0.8],
        "channel_symmetry": ["asymmetric"],
        "num_mean_vectors": 2,
        "strategies": ["dir", "pur", "div", "sym", "blind"],
        "seed": 424242,
    }
    cfg.update(overrides)
    return cfg


def tiny_stoch_cfg(**overrides):
    cfg = {
        "regime": "stochastic",
        "N": 2,
        "Z": 0.8,
        "eta": [0.5],
        "delta": 1.0,
        "p": [0.8],
        "mu": [0.5],
        "heatmap_mu": 0.5,
        "num_mean_vectors": 2,
        "num_realizations": 3,
        "strategies": ["div", "dir"],
        "seed": 99,
    }
    cfg.update(overrides)
    return cfg


# (list key, value, index of the first repeat) for every list key
REPEATS = [
    ("N", [1, 2, 1], 2), ("Z", [1, 0.6, 1.0], 2), ("Lambda_x", [0.2, 0.2], 1),
    ("eta", [0.5, 0.5], 1), ("p", [1, 0.8, 1.0], 2), ("mu", [0.5, 1, 1.0], 2),
    ("channel_symmetry", ["symmetric", "asymmetric", "symmetric"], 2),
    ("strategies", ["dir", "pur", "dir"], 2),
]


class TestConfigValidation:
    def test_missing_key_paths(self):
        with pytest.raises(ConfigError) as err:
            experiments.validate_config({"regime": "fixed_z"})
        assert "$.N" in str(err.value)

    def test_element_precise_path(self):
        with pytest.raises(ConfigError) as err:
            experiments.validate_config(tiny_fixed_cfg(eta=[0.5, 1.7]))
        assert "$.eta[1]" in str(err.value)

    def test_regime_keys(self):
        with pytest.raises(ConfigError) as err:
            experiments.validate_config(tiny_stoch_cfg(N=[2]))
        assert "$.N" in str(err.value)

    def test_profile_gates_n5(self):
        cfg = tiny_fixed_cfg(N=[5])
        with pytest.raises(ConfigError):
            experiments.validate_config(cfg, profile="ci")
        out = experiments.validate_config(cfg, profile="full")
        assert out.n_list == (5,)

    def test_seed_range(self):
        with pytest.raises(ConfigError) as err:
            experiments.validate_config(tiny_fixed_cfg(seed=-1))
        assert "$.seed" in str(err.value)

    @pytest.mark.parametrize("key, value", [
        ("heatmap_mu", "abc"), ("heatmap_mu", "0.5"), ("box_p", None), ("box_p", True),
        ("box_eta", [1]), ("num_mean_vectors", True), ("num_realizations", True),
    ])
    def test_scalar_types(self, key, value):
        with pytest.raises(ConfigError) as err:
            experiments.validate_config(tiny_stoch_cfg(**{key: value}))
        assert err.value.path == f"$.{key}"

    def test_grid_ignores_stochastic_keys(self):
        cfg = experiments.validate_config(tiny_fixed_cfg(mu=["x"], num_realizations="y"))
        assert cfg.mu == () and cfg.num_realizations == 0

    def test_scaling_run_lists_ignored_keys(self, tmp_path, capsys):
        # keys of other regimes are accepted unchecked (a bad box_p too)
        # and named once on stderr and, sorted, in the manifest
        cfg = {"regime": "scaling", "N": [1, 2], "Lambda_x": [0.3], "eta": [0.5], "delta": 1.0,
               "p": [0.8], "num_mean_vectors": 1, "strategies": ["dir", "sym"], "seed": 5,
               "box_p": 7, "mu": [0.5], "Z": [1.0]}
        assert experiments.validate_config(cfg).ignored_keys == ("Z", "box_p", "mu")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["scaling", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["qumimo scaling: ignored config keys of other regimes: Z, box_p, mu"]
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert manifest["ignored_keys"] == ["Z", "box_p", "mu"]
        # none ignored: an empty list, and nothing on stderr
        read = {k: v for k, v in cfg.items() if k not in ("Z", "box_p", "mu")}
        cfg_path.write_text(json.dumps(read))
        assert cli.main(["scaling", "--config", str(cfg_path), "--out", str(tmp_path / "y")]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((tmp_path / "y" / "manifest.json").read_text())["ignored_keys"] == []

    def test_stochastic_run_lists_ignored_keys(self, tmp_path, capsys):
        # the stochastic regime reads neither strategies nor channel_symmetry
        cfg = tiny_stoch_cfg(channel_symmetry=["bogus"], Lambda_x=[0.2], num_realizations=2)
        assert experiments.validate_config(cfg).ignored_keys == (
            "Lambda_x", "channel_symmetry", "strategies")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["stochastic", "--config", str(cfg_path), "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["qumimo stochastic: ignored config keys of other regimes: "
                       "Lambda_x, channel_symmetry, strategies"]
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert manifest["ignored_keys"] == ["Lambda_x", "channel_symmetry", "strategies"]

    def test_bad_scalar_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_stoch_cfg(box_eta=[1])))
        argv = ["stochastic", "--config", str(cfg_path), "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 2
        assert "config error: $.box_eta: " in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key, path", [
        ("heatmap_mu", "$.heatmap_mu"), ("delta", "$.delta"), ("mu", "$.mu[0]"), ("Z", "$.Z"),
        ("p", "$.p[0]"), ("eta", "$.eta[0]"), ("box_p", "$.box_p"), ("box_eta", "$.box_eta"),
    ])
    def test_non_finite_numbers(self, tmp_path, capsys, key, path, value):
        # json reads NaN and Infinity literals; no numeric entry takes them
        cfg = tiny_stoch_cfg(**{key: [value] if path.endswith("[0]") else value})
        with pytest.raises(ConfigError) as err:
            experiments.validate_config(cfg)
        assert err.value.path == path
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["stochastic", "--config", str(cfg_path), "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 2
        assert f"config error: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key", ["delta", "Z", "heatmap_mu"])
    def test_integer_beyond_float_range(self, tmp_path, capsys, key):
        # json reads a 400-digit integer exactly; float() of it overflows
        cfg = tiny_stoch_cfg(**{key: 10 ** 400})
        with pytest.raises(ConfigError) as err:
            experiments.validate_config(cfg)
        assert err.value.path == f"$.{key}"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["stochastic", "--config", str(cfg_path), "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 2
        assert f"config error: $.{key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, index", REPEATS, ids=[key for key, *_ in REPEATS])
    def test_repeated_list_entry(self, tmp_path, capsys, key, value, index):
        # a repeat would count its samples twice; 1 and 1.0 are one value
        if key == "mu":
            cfg = tiny_stoch_cfg(mu=value)
        elif key == "Lambda_x":
            cfg = tiny_fixed_cfg(regime="scaling", Lambda_x=value)
        else:
            cfg = tiny_fixed_cfg(**{key: value})
        path = f"$.{key}[{index}]"
        with pytest.raises(ConfigError) as err:
            experiments.validate_config(cfg)
        assert err.value.path == path
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = [cfg["regime"].replace("_", "-"), "--config", str(cfg_path),
                "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 2
        assert f"config error: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("regime", ["fixed_z", "stochastic"])
    @pytest.mark.parametrize("key", ["num_realisations", "heatmap-mu"])
    def test_unknown_key(self, tmp_path, capsys, regime, key):
        # a misspelt key would otherwise run with the default it meant to set
        cfg = (tiny_fixed_cfg if regime == "fixed_z" else tiny_stoch_cfg)(**{key: 5})
        with pytest.raises(ConfigError) as err:
            experiments.validate_config(cfg)
        assert err.value.path == f"$.{key}"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = [regime.replace("_", "-"), "--config", str(cfg_path), "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 2
        assert f"config error: $.{key}: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_one_realization_rejected(self, tmp_path, capsys):
        # the cluster variance of a mean vector needs two realizations
        cfg = tiny_stoch_cfg(num_realizations=1)
        with pytest.raises(ConfigError) as err:
            experiments.validate_config(cfg)
        assert err.value.path == "$.num_realizations"
        assert experiments.validate_config(tiny_stoch_cfg(num_realizations=2)).num_realizations == 2
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["stochastic", "--config", str(cfg_path), "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 2
        assert "config error: $.num_realizations: " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_shipped_and_benchmark_configs_validate(self):
        # the configs in configs/ and the benchmark's regime workloads
        # (perfbench/workload.py REGIMES, which adds a seed per round)
        paths = sorted((ROOT / "configs").glob("*.json"))
        assert paths
        for path in paths:
            experiments.load_config(path, profile="ci")
        tree = ast.parse((ROOT / "perfbench" / "workload.py").read_text())
        [regimes] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                     and any(isinstance(t, ast.Name) and t.id == "REGIMES" for t in node.targets)]
        workloads = ast.literal_eval(regimes)
        assert workloads
        for command, base in workloads.values():
            cfg = experiments.validate_config(dict(base, seed=2 ** 63 + 1), profile="ci")
            assert cfg.regime == command.replace("-", "_")

    def test_docstring_lists_every_key(self):
        # the schema in the module docstring names the keys CONFIG_KEYS names
        doc = experiments.__doc__
        schema = doc[doc.index("Config schema"):doc.index("Stochastic-regime semantics")]
        listed = []
        for line in schema.splitlines():
            match = re.match(r"^    (\S.*?)  ", line)
            if match:
                listed += match.group(1).split(", ")
        assert listed == list(dict.fromkeys(row[0] for row in experiments.CONFIG_KEYS))

    def test_json_syntax_error_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"regime": "fixed_z",\n  broken\n}')
        with pytest.raises(ConfigError) as err:
            experiments.load_config(path)
        assert "line 2" in str(err.value)


class TestIOErrors:
    """A config or an output path the run cannot use ends in one line on
    stderr, not a traceback: exit 2 for the config, 1 for the outputs."""

    @pytest.mark.parametrize("kind", ["missing", "not_utf8", "directory"])
    def test_unreadable_config(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg.json"
        if kind == "not_utf8":
            path.write_bytes('{"regime": "fixed_\xe9"}'.encode("latin-1"))
        elif kind == "directory":
            path.mkdir()
        with pytest.raises(ConfigError) as err:
            experiments.load_config(path)
        assert err.value.path == "$"
        assert cli.main(["fixed-z", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: $: cannot read {path}: ")

    @pytest.mark.parametrize("command", ["fixed-z", "boundary"])
    def test_unwritable_output(self, tmp_path, capsys, command):
        # --out names a file, or a directory under one
        (tmp_path / "file").write_text("")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_fixed_cfg(N=[1], strategies=["dir"])))
        if command == "boundary":
            argv = ["boundary", "--m", "2", "--resolution", "0.25",
                    "--out", str(tmp_path / "file" / "sub")]
        else:
            argv = ["fixed-z", "--config", str(cfg_path), "--out", str(tmp_path / "file")]
        assert cli.main(argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: [Errno ") and str(tmp_path / "file") in line


def _csv_writer_bytes(path, header, rows) -> bytes:
    """The bytes of the CSV writer before it built its lines itself: the
    csv module's writer on the fields formatted by the same rules."""
    def fmt(x):
        if x is None or x == "":
            return ""
        return format(x, ".12g") if isinstance(x, float) else str(x)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(x) for x in row])
    return path.read_bytes()


class TestWriteCsv:
    def test_mixed_rows_as_csv_writer(self, tmp_path):
        rows = [
            [None, "", "div", 3, 0.1, np.float64(2.5e-17), "1;2;3", -0.0],
            [1, None, "", 1e300, np.float64(1 / 3), 10 ** 13, "x", float(2 ** 53)],
            [np.int64(7), 0.0, None, None, "", -1.25, True, 123456789.123456789],
        ]
        header = ["a", "b", "c", "d", "e", "f", "g", "h"]
        experiments._write_csv(tmp_path / "new.csv", header, rows)
        want = _csv_writer_bytes(tmp_path / "old.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == want
        assert b"\r\n" in want and b'"' not in want

    def test_float_array_across_blocks(self, tmp_path):
        # 4,096 rows make a block: 5,000 rows cross its boundary; the id
        # columns are ints in a row list and integer-valued floats in the array
        rng = np.random.default_rng(3)
        n = 5000
        ids = [(i // 50, i % 50) for i in range(n)]
        values = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-20, 20, (n, 3))
        rows = [[0.25, mean_id, rid, *map(float, v)] for (mean_id, rid), v in zip(ids, values)]
        array = np.array(rows, dtype=np.float64)
        header = ["eta", "mean_id", "realization_id", "G", "F", "p_real"]
        experiments._write_csv(tmp_path / "new.csv", header, array)
        want = _csv_writer_bytes(tmp_path / "old.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == want
        assert want.count(b"\r\n") == n + 1 and b",49,49," in want

    def test_array_template_is_fmt(self, tmp_path):
        # the array's one %.12g template per row writes the bytes _fmt
        # writes for the same Python floats
        values = [0.0, -0.0, 3.0, -7.0, 12.0, 2.0 ** 53, 1e12, 123456789012.0, 1e-300, 1e300,
                  -1e-300, -1e300, math.nan, math.inf, -math.inf, 5e-324, 1 / 3, -2.5e-17]
        array = np.array(values * 3).reshape(-1, 6)
        header = ["a", "b", "c", "d", "e", "f"]
        experiments._write_csv(tmp_path / "array.csv", header, array)
        experiments._write_csv(tmp_path / "rows.csv", header, array.tolist())
        got = (tmp_path / "array.csv").read_bytes()
        assert got == (tmp_path / "rows.csv").read_bytes()
        assert b",-0," in got and b"nan" in got and b"1e-300" in got and b",12," in got


class TestFixedZRun:
    def test_outputs_and_determinism(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_fixed_cfg()))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["fixed-z", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert cli.main(["fixed-z", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        names = ["records.csv", "aggregate.csv", "jdensity.csv", "crosstalk.csv"]
        for name in names:
            assert (out_a / name).exists()
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        man_a = json.loads((out_a / "manifest.json").read_text())
        man_b = json.loads((out_b / "manifest.json").read_text())
        man_a.pop("timing")
        man_b.pop("timing")
        assert man_a == man_b
        # manifest hashes match the artifacts
        import hashlib

        for name, digest in man_a["files"].items():
            assert hashlib.sha256((out_a / name).read_bytes()).hexdigest() == digest

    def test_worker_count_invariance(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_fixed_cfg()))
        out_1, out_2 = tmp_path / "w1", tmp_path / "w2"
        assert cli.main(["fixed-z", "--config", str(cfg_path), "--out", str(out_1)]) == 0
        assert cli.main(
            ["fixed-z", "--config", str(cfg_path), "--out", str(out_2), "--workers", "2"]
        ) == 0
        assert (out_1 / "records.csv").read_bytes() == (out_2 / "records.csv").read_bytes()

    def test_worker_count_invariance_across_chunks(self, tmp_path, monkeypatch):
        # more tasks than one chunk holds, so the chunks (and with them the
        # decoder stacks) differ between one and two workers; the bytes do not
        chunks = {}
        run_pool = experiments._run_pool

        def recorded(tasks, run, workers):
            chunks[workers] = [len(chunk) for chunk in tasks]
            return run_pool(tasks, run, workers)

        monkeypatch.setattr(experiments, "_run_pool", recorded)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_fixed_cfg(
            N=[2, 3], Z=[0.9], eta=[0.0, 0.7], p=[0.5, 1.0], num_mean_vectors=3)))
        outs = {}
        for workers in ("1", "2"):
            outs[workers] = tmp_path / f"w{workers}"
            argv = ["fixed-z", "--config", str(cfg_path), "--out", str(outs[workers]),
                    "--workers", workers]
            assert cli.main(argv) == 0
        assert sum(chunks[1]) == sum(chunks[2]) > experiments.TASK_CHUNK
        assert chunks[1] != chunks[2]
        manifests = [json.loads((outs[w] / "manifest.json").read_text()) for w in ("1", "2")]
        for man in manifests:
            man.pop("timing")
        assert manifests[0] == manifests[1]
        for name in manifests[0]["files"]:
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()

    def test_sym_and_blind_share_one_cascade(self, tmp_path, monkeypatch):
        # sym and blind use the uniform cloner on the same modes: a task
        # that runs both builds that design, and so its cascade, once
        calls = []
        design = decoder.design_at

        def counted(*args):
            calls.append(args)
            return design(*args)

        monkeypatch.setattr(decoder, "design_at", counted)
        for names, per_task in ((["sym"], 1), (["blind"], 1), (["sym", "blind"], 1),
                                (["pur", "sym", "blind"], 2)):
            calls.clear()
            cfg = experiments.validate_config(tiny_fixed_cfg(N=[2], strategies=names))
            experiments.run_grid_regime(cfg, tmp_path / "-".join(names))
            assert len(calls) == 2 * per_task  # two tasks: the two mean vectors

    def test_one_gamma_search_per_task(self, tmp_path, monkeypatch):
        # the design is p-independent: one search per div task serves
        # every p, and records.csv stays in p-major order per task.  Both
        # N = 1 means draw lambda = (Z,), one channel and so one task
        searches = []
        search = decoder.optimize_gamma

        def counted(*args, **kwargs):
            searches.append(args[0])
            return search(*args, **kwargs)

        monkeypatch.setattr(decoder, "optimize_gamma", counted)
        cfg = experiments.validate_config(tiny_fixed_cfg(p=[0.5, 0.9]))
        experiments.run_grid_regime(cfg, tmp_path / "out")
        assert searches == [1, 2, 2]  # channels: one at N = 1, two means at N = 2
        rows = (tmp_path / "out" / "records.csv").read_text().strip().splitlines()[1:]
        order = [(r.split(",")[0], r.split(",")[8]) for r in rows]
        task = [("dir", "1"), ("pur", "0.5"), ("div", "0.5"), ("sym", "0.5"), ("blind", "0.5"),
                ("pur", "0.9"), ("div", "0.9"), ("sym", "0.9"), ("blind", "0.9")]
        assert order == task * 4

    def test_seed_override_changes_bytes(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_fixed_cfg()))
        out_1, out_2 = tmp_path / "s1", tmp_path / "s2"
        cli.main(["fixed-z", "--config", str(cfg_path), "--out", str(out_1)])
        cli.main(["fixed-z", "--config", str(cfg_path), "--out", str(out_2), "--seed", "7"])
        assert (out_1 / "records.csv").read_bytes() != (out_2 / "records.csv").read_bytes()

    def test_infeasible_cells_skipped(self, tmp_path):
        cfg = experiments.validate_config(tiny_fixed_cfg(Z=[1.5]))
        manifest = experiments.run_grid_regime(cfg, tmp_path / "out")
        assert {"symmetry": "asymmetric", "Z": 1.5, "N": 1, "reason": "Z > N"} in manifest[
            "skipped_cells"
        ]

    def test_noiseless_degenerate(self, tmp_path):
        # On a noiseless channel the copy-free strategies are perfect at
        # p = 1; strategies that actually clone stay strictly below 1
        # (the clones are lossy), so "everything reports 1" is not
        # achievable and is not asserted.
        cfg = experiments.validate_config(
            tiny_fixed_cfg(Z=[1e-9], N=[2], eta=[0.0], p=[1.0], num_mean_vectors=1,
                           channel_symmetry=["symmetric"])
        )
        experiments.run_grid_regime(cfg, tmp_path / "out")
        rows = (tmp_path / "out" / "records.csv").read_text().strip().splitlines()[1:]
        by_strategy = {r.split(",")[0]: float(r.split(",")[13]) for r in rows}
        assert abs(by_strategy["dir"] - 1.0) < 1e-5
        assert abs(by_strategy["pur"] - 1.0) < 1e-5
        for s in ("sym", "blind", "div"):
            assert 0.8 <= by_strategy[s] < 1.0 - 1e-4


    def test_symmetric_cell_evaluated_once(self, tmp_path, monkeypatch):
        # every mean vector of a symmetric cell is the same channel: one
        # run per strategy writes the rows of all L mean_ids, each with
        # its own task seed
        calls = []
        run = experiments.run_strategies

        def counted(jobs):
            calls.extend(strategy for strategy, *_ in jobs)
            return run(jobs)

        monkeypatch.setattr(experiments, "run_strategies", counted)
        cfg = experiments.validate_config(tiny_fixed_cfg(
            N=[2], p=[0.8, 1.0], channel_symmetry=["symmetric"], num_mean_vectors=3,
        ))
        experiments.run_grid_regime(cfg, tmp_path / "out")
        assert calls == list(cfg.strategies)
        with open(tmp_path / "out" / "records.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_record = {}
        for row in rows:
            by_record.setdefault((row["strategy"], row["p_target"]), []).append(row)
        assert len(by_record) == 9  # dir at p = 1 only, four strategies at both p
        for recs in by_record.values():
            assert [r["mean_id"] for r in recs] == ["0", "1", "2"]
            for mean_id, r in enumerate(recs):
                assert r["seed"] == str(noise.derive_seed(
                    cfg.seed, "fixed_z", "symmetric", round(0.6, 12), 2, 0.5, mean_id))
            rest = [{k: v for k, v in r.items() if k not in ("mean_id", "seed")} for r in recs]
            assert rest[1] == rest[0] and rest[2] == rest[0]


class TestScalingRun:
    def test_z_recorded_per_m(self, tmp_path):
        cfg = experiments.validate_config(
            {
                "regime": "scaling",
                "N": [1, 3],
                "Lambda_x": [0.2],
                "eta": [0.0],
                "delta": 1.0,
                "p": [0.8],
                "channel_symmetry": ["symmetric"],
                "num_mean_vectors": 1,
                "strategies": ["dir", "sym"],
                "seed": 5,
            }
        )
        experiments.run_grid_regime(cfg, tmp_path / "out")
        rows = (tmp_path / "out" / "records.csv").read_text().strip().splitlines()[1:]
        by_n = {}
        for row in rows:
            fields = row.split(",")
            by_n.setdefault(int(fields[1]), set()).add(fields[4])
        assert by_n[1] == {"0.2"}
        assert by_n[3] == {"0.6"}


class TestRegimeCoincidence:
    def test_scaling_m1_equals_fixed_z(self, tmp_path):
        # scaling at Lambda_x equals fixed_z at Z = Lambda_x for N = 1
        base = dict(
            N=[1], eta=[0.4], delta=1.0, p=[0.8],
            channel_symmetry=["asymmetric"], num_mean_vectors=3,
            strategies=["dir", "pur"], seed=31337,
        )
        cfg_f = experiments.validate_config({"regime": "fixed_z", "Z": [0.2], **base})
        cfg_s = experiments.validate_config({"regime": "scaling", "Lambda_x": [0.2], **base})
        experiments.run_grid_regime(cfg_f, tmp_path / "f")
        experiments.run_grid_regime(cfg_s, tmp_path / "s")

        def fvals(path):
            rows = (path / "records.csv").read_text().strip().splitlines()[1:]
            return [(r.split(",")[0], r.split(",")[13]) for r in rows]

        assert fvals(tmp_path / "f") == fvals(tmp_path / "s")


class TestStochasticRun:
    def test_gain_structure(self, tmp_path):
        cfg = experiments.validate_config(tiny_stoch_cfg(p=[0.8, 1.0]))
        experiments.run_stochastic(cfg, tmp_path / "out")
        heat = (tmp_path / "out" / "gain_heatmap.csv").read_text().strip().splitlines()
        assert heat[0] == "p,eta,G,G_se,G_avg,n_samples"
        by_p = {line.split(",")[0]: line.split(",") for line in heat[1:]}
        assert float(by_p["1"][2]) == 0.0  # p = 1 column identically zero
        assert float(by_p["1"][4]) == 0.0
        for name in (
            "baseline.csv", "boxplot.csv", "cluster_variance.csv",
            "cv_kde.csv", "allocations.csv", "gain_samples.csv",
        ):
            assert (tmp_path / "out" / name).exists()
        assert not (tmp_path / "out" / "records.csv").exists()  # each sample is written once

    def test_baseline_modes(self, tmp_path):
        # baseline.csv ends with each design's transmit and receive modes:
        # every mode is received in index order, and transmission runs over
        # the modes from least to most depolarized (ties by index)
        n = 3
        cfg = experiments.validate_config(tiny_stoch_cfg(
            N=n, Z=1.2, p=[0.5, 0.8], eta=[0.5, 0.8], num_mean_vectors=3))
        experiments.run_stochastic(cfg, tmp_path / "out")
        tables = {}
        for name in ("baseline", "allocations"):
            with open(tmp_path / "out" / f"{name}.csv", newline="") as fh:
                tables[name] = list(csv.reader(fh))
        header, *rows = tables["baseline"]
        assert header[-2:] == ["t", "r"]
        assert len(rows) == 2 * 3  # eta, mean
        lam = [float(x) for x in tables["allocations"][1][3:]]
        assert tables["allocations"][1][:3] == ["0", "", "0"]  # the mean row of mean 0
        by_lam = ";".join(str(i + 1) for i in sorted(range(n), key=lambda i: (lam[i], i)))
        for row in rows:
            t, r = row[-2:]
            assert r == "1;2;3"
            assert sorted(t.split(";")) == ["1", "2", "3"]
            if row[1] == "0":
                assert t == by_lam

    def test_mu_zero_like_degenerate(self, tmp_path):
        cfg = experiments.validate_config(
            tiny_stoch_cfg(mu=[1e-9], heatmap_mu=1e-9, num_realizations=2)
        )
        experiments.run_stochastic(cfg, tmp_path / "out")
        box = (tmp_path / "out" / "boxplot.csv").read_text().strip().splitlines()[1:]
        f_dir = [float(r.split(",")[2]) for r in box]
        assert max(f_dir) - min(f_dir) < 1e-6  # realizations collapse onto the mean

    @staticmethod
    def _count_designs(monkeypatch):
        """The eta of every design the stochastic regime builds."""
        designs = []
        design = experiments.strategy_design

        def counted(strategy, chan):
            designs.append(chan.params.eta)
            return design(strategy, chan)

        monkeypatch.setattr(experiments, "strategy_design", counted)
        return designs

    def test_box_panel_designed_once(self, tmp_path, monkeypatch):
        # the panel's design does not depend on mu: one design serves all
        designs = self._count_designs(monkeypatch)
        cfg = experiments.validate_config(tiny_stoch_cfg(mu=[0.5, 1.0]))
        experiments.run_stochastic(cfg, tmp_path / "out")
        # one design per heatmap task (eta 0.5, two means), one for the
        # panel (box_eta 0.8)
        assert designs == [0.5, 0.5, 0.8]
        box = (tmp_path / "out" / "boxplot.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[0] for r in box] == ["0.5"] * 3 + ["1"] * 3

    def test_box_panel_independent_of_heatmap_eta(self, tmp_path, monkeypatch):
        # the panel builds its own design, also when box_eta is among the
        # heatmap's eta and box_p among its p, and writes the same bytes
        # as a run whose heatmap has no task at box_eta
        designs = self._count_designs(monkeypatch)
        cfg = experiments.validate_config(tiny_stoch_cfg(eta=[0.5, 0.8], mu=[0.5, 1.0]))
        experiments.run_stochastic(cfg, tmp_path / "shared")
        # each mean vector's task designs at every eta, then the panel's
        assert designs == [0.5, 0.8, 0.5, 0.8, 0.8]
        cfg = experiments.validate_config(tiny_stoch_cfg(eta=[0.5], mu=[0.5, 1.0]))
        experiments.run_stochastic(cfg, tmp_path / "fresh")
        for name in ("boxplot.csv", "allocations.csv", "cluster_variance.csv", "cv_kde.csv"):
            fresh = (tmp_path / "fresh" / name).read_bytes()
            assert (tmp_path / "shared" / name).read_bytes() == fresh, name

    def test_each_cluster_drawn_once(self, tmp_path, monkeypatch):
        # the cluster variances, the panel and allocations.csv read one draw
        # of each (mean_id, mu) panel cluster; the heatmap draws its
        # realizations once per mean vector and evaluates them at every eta
        drawn = collections.Counter()
        draw = experiments._realizations

        def counted(cfg, lam, z, mean_id, mu, tag):
            drawn[tag, mu, mean_id] += 1
            return draw(cfg, lam, z, mean_id, mu, tag)

        monkeypatch.setattr(experiments, "_realizations", counted)
        cfg = experiments.validate_config(
            tiny_stoch_cfg(eta=[0.5, 0.8], mu=[0.5, 1.0], num_mean_vectors=3))
        experiments.run_stochastic(cfg, tmp_path / "out")
        assert drawn == {**{("box-xi", mu, m): 1 for mu in (0.5, 1.0) for m in range(3)},
                         **{("xi", 0.5, m): 1 for m in range(3)}}

    def test_draws_only_in_the_pool_worker(self, tmp_path, monkeypatch):
        # the run makes one pool call, and every realization is drawn inside
        # its tasks, which draw the heatmap's once per mean vector however
        # many eta they evaluate: the parent draws nothing
        drawn, workers, inside = [], [], [False]
        draw, run_chunks = experiments._realizations, experiments._run_chunks

        def counted(cfg, lam, z, mean_id, mu, tag):
            drawn.append((tag, mean_id, inside[0]))
            return draw(cfg, lam, z, mean_id, mu, tag)

        def recorded(worker, tasks, n_workers):
            @functools.wraps(worker)
            def in_worker(chunk):
                inside[0] = True
                try:
                    return worker(chunk)
                finally:
                    inside[0] = False

            workers.append(worker.__name__)
            return run_chunks(in_worker, tasks, n_workers)

        monkeypatch.setattr(experiments, "_realizations", counted)
        monkeypatch.setattr(experiments, "_run_chunks", recorded)
        cfg = experiments.validate_config(
            tiny_stoch_cfg(eta=[0.0, 0.5, 0.8], mu=[0.5, 1.0], num_mean_vectors=3))
        experiments.run_stochastic(cfg, tmp_path / "out")
        assert len(workers) == 1
        assert [(tag, m) for tag, m, flag in drawn if not flag] == []
        assert sorted(m for tag, m, _ in drawn if tag == "xi") == [0, 1, 2]

    def test_no_amplitudes_outside_the_mean_designs(self, tmp_path, monkeypatch):
        # a design's cloner carries its clone fidelities: the baseline J
        # index, the realizations and the panel solve no gamma's amplitudes
        # (every amplitude, one gamma's or a lattice's, is an amplitude row)
        calls, inside = [], [False]
        amplitudes, design = cloner._amplitude_rows, experiments.strategy_design

        def counted(gammas):
            calls.append(inside[0])
            return amplitudes(gammas)

        def designing(*args):
            inside[0] = True
            try:
                return design(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(cloner, "_amplitude_rows", counted)
        monkeypatch.setattr(decoder, "_amplitude_rows", counted)
        monkeypatch.setattr(experiments, "strategy_design", designing)
        cfg = experiments.validate_config(tiny_stoch_cfg(eta=[0.5, 0.8], p=[0.8, 1.0]))
        experiments.run_stochastic(cfg, tmp_path / "out")
        assert True in calls and False not in calls

    def test_mean_design_is_the_div_design(self, monkeypatch):
        # the stochastic regime designs a mean channel as the grid regimes
        # design div on it: gamma, modes, Qt, Rt and decoders bit for bit;
        # mean vector 1's task solves its decoders in one call and runs no
        # panel
        cfg = experiments.validate_config(tiny_stoch_cfg(N=3, Z=1.2, p=[0.5, 0.8]))
        lam = experiments._mean_vectors(cfg, "asymmetric", 1.2, 3)[1]
        p_eval = (0.5, 0.8, 1.0)
        chan = experiments._channel(cfg, 0.5, lam)
        div = strategies.strategy_design("div", chan)
        [recs] = strategies.run_strategies([("div", chan, p_eval)])
        div_sols = decoder.purification_sdps((div.qr, p) for p in p_eval)
        solved = []
        solve = decoder.purification_sdps

        def recorded(pairs):
            pairs = list(pairs)
            solved.extend(zip(pairs, solve(pairs)))
            return [sol for _, sol in solved[-len(pairs):]]

        monkeypatch.setattr(decoder, "purification_sdps", recorded)
        [([(baseline, _)], _, panel)] = experiments._mean_vector_tasks([(cfg, 1, lam, 1.2)])
        assert panel is None
        assert tuple(baseline[5:8]) == div.gamma == recs[0].gamma
        assert baseline[8:] == [experiments._modes(div.t), experiments._modes(div.r)]
        assert (div.t, div.r) == (recs[0].t, recs[0].r)
        assert [p for (_, p), _ in solved] == list(p_eval)
        for ((qr, _), sol), rec, div_sol in zip(solved, recs, div_sols):
            assert np.array_equal(qr.qt, div.qr.qt) and np.array_equal(qr.rt, div.qr.rt)
            assert np.array_equal(sol.j, div_sol.j)
            assert (sol.f_success, sol.f_avg) == (rec.f_success, rec.f_avg)

    def test_mu_spelling_invariant(self, tmp_path):
        # "mu": [1] and [1.0] name one fluctuation strength and draw the
        # same realizations
        for name, mu in (("int", [1]), ("float", [1.0])):
            cfg = experiments.validate_config(tiny_stoch_cfg(mu=mu))
            experiments.run_stochastic(cfg, tmp_path / name)
        for name in ("boxplot.csv", "allocations.csv", "cluster_variance.csv"):
            int_bytes = (tmp_path / "int" / name).read_bytes()
            assert int_bytes == (tmp_path / "float" / name).read_bytes(), name

    def test_worker_count_invariance(self, tmp_path):
        # three mean-vector tasks: one chunk at one worker, chunks of two
        # and one at two, and of one at three; eta 0.8 = box_eta
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_stoch_cfg(
            p=[0.8, 1.0], mu=[0.5, 1.0], eta=[0.5, 0.8], num_mean_vectors=3)))
        outs = [tmp_path / f"w{w}" for w in (1, 2, 3)]
        for w, out in zip((1, 2, 3), outs):
            assert cli.main(["stochastic", "--config", str(cfg_path), "--out", str(out),
                             "--workers", str(w)]) == 0
        names = sorted(p.name for p in outs[0].glob("*.csv"))
        manifests = []
        for out in outs:
            assert names == sorted(p.name for p in out.glob("*.csv"))
            for name in names:
                assert (outs[0] / name).read_bytes() == (out / name).read_bytes(), name
            manifests.append(json.loads((out / "manifest.json").read_text()))
            manifests[-1].pop("timing")
        assert manifests[0] == manifests[1] == manifests[2]

    def test_realizations_follow_the_seed_rule(self):
        # row rid of a cluster, bit for bit: the mean times the fluctuation
        # drawn from derive_seed(seed, "stochastic", tag, mu, mean_id, rid),
        # projected onto the mean's capped simplex (some rows clip at 1)
        cfg = experiments.validate_config(tiny_stoch_cfg(N=3, Z=2.4, num_realizations=6))
        lam = experiments._mean_vectors(cfg, "asymmetric", 2.4, 3)[1]
        clipped = 0
        for tag, mu in (("xi", 0.5), ("box-xi", 1.0)):
            got = experiments._realizations(cfg, lam, 2.4, 1, mu, tag)
            assert got.dtype == np.float64 and got.shape == (6, 3)
            for rid, row in enumerate(got):
                rng = noise.make_rng(noise.derive_seed(99, "stochastic", tag, mu, 1, rid))
                xi = noise.sample_fluctuation(mu, 3, rng)
                want = project_one_row(np.asarray(lam) * xi, 2.4)
                assert row.tobytes() == want.tobytes()
                clipped += bool(np.any(row == 1.0))
        assert clipped

    def test_determinism(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_stoch_cfg()))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["stochastic", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert cli.main(["stochastic", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        for name in ("gain_heatmap.csv", "gain_samples.csv", "baseline.csv", "allocations.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("command", ["fixed-z", "scaling", "stochastic", "boundary"])
def test_run_writes_what_its_manifest_lists(tmp_path, command):
    # the output directory holds the manifest's files and the manifest, no more
    out = tmp_path / "out"
    if command == "boundary":
        argv = ["boundary", "--m", "2", "--resolution", "0.25", "--out", str(out)]
    else:
        cfg = {"fixed-z": tiny_fixed_cfg(),
               "scaling": tiny_fixed_cfg(regime="scaling", Lambda_x=[0.3]),
               "stochastic": tiny_stoch_cfg()}[command]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(cfg_path), "--out", str(out)]
    assert cli.main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(p.name for p in out.iterdir()) == sorted([*manifest["files"], "manifest.json"])


@pytest.mark.parametrize("regime", ["fixed_z", "stochastic"])
def test_eta_and_mu_ascending_in_every_output(tmp_path, regime):
    # every file lists eta and mu in ascending order, whatever the config's
    # order: an unsorted config writes the sorted config's bytes
    def run(name, order):
        eta, mu = [0.0, 0.6][::order], [0.5, 1.0][::order]
        if regime == "fixed_z":
            experiments.run_grid_regime(experiments.validate_config(
                tiny_fixed_cfg(eta=eta, strategies=["dir", "div"])), tmp_path / name)
        else:
            experiments.run_stochastic(experiments.validate_config(
                tiny_stoch_cfg(eta=eta, mu=mu)), tmp_path / name)
        return {f.name: f.read_bytes() for f in sorted((tmp_path / name).glob("*.csv"))}

    ascending, config_order = run("ascending", 1), run("config_order", -1)
    assert "crosstalk.csv" in ascending
    for name, data in ascending.items():
        assert config_order[name] == data, name


VALIDATE_CHECKS = [
    "cloner symmetric M=2",
    "cloner symmetric M=3",
    "cloner symmetric M=4",
    "amplitude identity",
    "cascade weights + trace preserving, K < N refused",
    "fluctuation moments",
    "decoder identity sanity",
    "decoder depolarizing sanity",
    "sdp eigenvalue oracle",
    *(line for k in (2, 3) for line in (f"reduced decoder data real, N = {k}",
                                        f"design polynomial = cascade, N = {k}")),
    *(f"blind decoder: closed form = identity-prior SDP, M = {m}, p = {p}"
      for m in (2, 3) for p in ("0.8", "1")),
]


class TestBoundaryAndValidate:
    def test_boundary_files(self, tmp_path):
        assert cli.main(["boundary", "--m", "2", "--resolution", "0.25", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "boundary_M2.csv").read_text().strip().splitlines()
        assert lines[0] == "gamma_1,gamma_2,F_1,F_2"
        assert len(lines) == 1 + 5  # steps=4 -> 5 lattice points
        values = {tuple(np.round([float(x) for x in ln.split(",")[2:]], 6)) for ln in lines[1:]}
        assert (1.0, 0.5) in values and (0.5, 1.0) in values

    def test_boundary_records_the_step_sampled(self, tmp_path):
        # 0.15 samples multiples of 1/round(1/0.15) = 1/7: 8 points at M = 2
        assert cli.main(["boundary", "--m", "2", "--resolution", "0.15", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "boundary_M2.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 8
        assert float(lines[2].split(",")[0]) == pytest.approx(1 / 7, abs=1e-12)
        assert json.loads((tmp_path / "manifest.json").read_text())["resolution"] == 1 / 7

    @pytest.mark.parametrize("argv", [["--resolution", "0.5"], ["--resolution", "0"],
                                      ["--resolution", "nan"], ["--resolution", "1e-4"],
                                      ["--m", "4"]],
                             ids=["resolution-0.5", "resolution-0", "resolution-nan",
                                  "resolution-1e-4", "m-4"])
    def test_boundary_rejects_bad_arguments(self, tmp_path, capsys, argv):
        # an invalid argument exits 2 with a usage message, before any output;
        # 1e-4 asks for 10,000 steps, past the cap (50,015,001 points at M = 3)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["boundary", *argv, "--out", str(out)])
        assert exc.value.code == 2
        assert "usage: qumimo boundary" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_quick(self, capsys):
        assert cli.main(["validate", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        assert "[PASS] sdp eigenvalue oracle" in out
        assert "[PASS] reduced decoder data real, N = 3" in out

    def test_validate_prints_every_check(self, capsys):
        # no check drops out of the suite unnoticed
        assert cli.main(["validate", "--quick"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("  (")[0] for line in lines[:-1]] == [
            f"[PASS] {name}" for name in VALIDATE_CHECKS]
        assert lines[-1] == "all checks passed"

    def test_validate_flags_a_cascade_off_trace(self, monkeypatch, capsys):
        # the cascade line reads Tr_out of j0: a j0 whose trace is off by
        # 1e-9 fails it, and validate exits 1.  The corner tables and the
        # channel pieces contracted from them are built from the bent j0
        # too (so designs agree with it) and dropped after
        compose = decoder.compose_effective_map

        def bent(*args):
            emap = compose(*args)
            return decoder.EffectiveMap(j0=emap.j0 * (1 + 1e-9), weights=emap.weights, k=emap.k)

        def clear():
            decoder._corner_table.cache_clear()
            decoder._channel_pieces.cache_clear()

        monkeypatch.setattr(decoder, "compose_effective_map", bent)
        clear()
        try:
            assert cli.main(["validate", "--quick"]) == 1
        finally:
            clear()
        out = capsys.readouterr().out
        assert "[FAIL] cascade weights + trace preserving, K < N refused" in out
        assert out.count("[FAIL]") == 1

    def test_wrong_regime_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_fixed_cfg()))
        assert cli.main(["stochastic", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2


class TestCornerTables:
    """Designs, the gamma search and the realizations contract the corner
    tables cached per (M, N): once those exist, no cascade is built."""

    def test_designs_run_on_cached_tables(self, monkeypatch):
        cfg = experiments.validate_config(tiny_stoch_cfg(N=3, Z=1.2, p=[0.8]))
        lam = experiments._mean_vectors(cfg, "asymmetric", 1.2, 3)[0]
        ch = experiments._channel(cfg, 0.5, lam)
        t, r = strategies.select_modes(ch, 3)

        def run():
            return (decoder.design_at((0.2, 0.3, 0.5), ch, t, r),
                    decoder.design_at((1.0,), ch, t[:1], r),
                    decoder.optimize_gamma(3, ch, t, r),
                    experiments._mean_vector_tasks([(cfg, 0, lam, 1.2)]))

        def refuse(*args):
            raise AssertionError("a cascade built outside the corner tables")

        *designs, heat = run()
        monkeypatch.setattr(decoder, "compose_effective_map", refuse)
        monkeypatch.setattr(decoder, "build_qr", refuse)
        *again, heat_again = run()
        for a, b in zip(designs, again):
            assert a.gamma == b.gamma and a.surrogate == b.surrogate
            assert np.array_equal(a.qr.qt, b.qr.qt) and np.array_equal(a.qr.rt, b.qr.rt)
        # mean vector 0's task: the heatmap, the cluster variances and the panel
        [([(baseline, gains)], cvs, panel)] = heat
        [([(baseline_again, gains_again)], cvs_again, panel_again)] = heat_again
        assert baseline_again == baseline and np.array_equal(gains_again, gains)
        assert (cvs_again, panel_again) == (cvs, panel)

    def test_fixed_z_task_builds_its_pieces_once(self):
        # div's search, its design at gamma* and sym's design on the same
        # (N, channel, modes) read one contraction of the corner table: one
        # miss of the channel's pieces, then hits
        cfg = experiments.validate_config(tiny_fixed_cfg(N=[3], strategies=["div", "sym"]))
        lam = experiments._mean_vectors(cfg, "asymmetric", 0.6, 3)[0]
        decoder._channel_pieces.cache_clear()
        [records] = experiments._eval_cells([(cfg, "asymmetric", 0.6, 0.2, 3, 0.5, 0, lam)])
        assert [rec.strategy for rec in records] == ["div", "sym"]
        info = decoder._channel_pieces.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestWorkerPool:
    @pytest.fixture
    def sizes(self, monkeypatch):
        """The pool sizes asked of ProcessPoolExecutor, replaced by a pool
        that maps serially, so no process is started."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_pool_capped_at_task_count(self, sizes):
        def worker(task):
            return 2 * task[1]
        tasks = [(None, 1), (None, 2), (None, 3)]
        assert experiments._run_pool(tasks, worker, 64) == [2, 4, 6]
        assert experiments._run_pool(tasks, worker, 2) == [2, 4, 6]
        assert experiments._run_pool(tasks[:1], worker, 8) == [2]
        assert experiments._run_pool(tasks, worker, 1) == [2, 4, 6]
        assert sizes == [3, 2]

    def test_cli_workers_capped(self, tmp_path, sizes):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_fixed_cfg(N=[2], strategies=["dir"])))
        argv = ["fixed-z", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                "--workers", "64"]
        assert cli.main(argv) == 0
        assert sizes == [2]

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_cli_rejects_nonpositive_workers(self, tmp_path, workers, sizes):
        argv = ["fixed-z", "--config", str(tmp_path / "cfg.json"), "--workers", workers]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert sizes == []


class TestTaskErrors:
    @staticmethod
    def _failing_sdp(pairs, **kwargs):
        raise SolverError("max_iter", "purification SDP: stalled")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_grid_error_names_cell(self, tmp_path, monkeypatch, capsys, workers):
        monkeypatch.setattr(decoder, "purification_sdps", self._failing_sdp)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_fixed_cfg(N=[2], strategies=["dir", "pur"])))
        argv = ["fixed-z", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                "--workers", workers]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: _eval_cells(symmetry='asymmetric', Z=0.6, "
                              "lambda_x=None, N=2, eta=0.5, mean_id=0, lambda=(")
        assert "SolverError: purification SDP: stalled" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_error_in_second_task_of_chunk(self, tmp_path, monkeypatch, capsys, workers):
        # only the N = 2 tasks fail, and the first chunk holds the N = 1
        # task and then one at N = 2: the error names that second task
        solve = decoder.purification_sdps

        def failing_k2(pairs):
            pairs = list(pairs)
            if any(qr.k == 2 for qr, _ in pairs):
                raise SolverError("max_iter", "purification SDP: stalled")
            return solve(pairs)

        chunks = []
        run_pool = experiments._run_pool

        def recorded(tasks, run, workers):
            chunks.extend([task[4] for task in chunk] for chunk in tasks)
            return run_pool(tasks, run, workers)

        monkeypatch.setattr(decoder, "purification_sdps", failing_k2)
        monkeypatch.setattr(experiments, "_run_pool", recorded)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_fixed_cfg(strategies=["dir", "pur"])))
        argv = ["fixed-z", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                "--workers", workers]
        assert cli.main(argv) == 1
        assert chunks[0][:2] == [1, 2]
        err = capsys.readouterr().err
        assert err.startswith("error: _eval_cells(symmetry='asymmetric', Z=0.6, "
                              "lambda_x=None, N=2, eta=0.5, mean_id=0, lambda=(")
        assert "SolverError: purification SDP: stalled" in err

    def test_stochastic_error_names_task(self, tmp_path, monkeypatch):
        monkeypatch.setattr(decoder, "purification_sdps", self._failing_sdp)
        cfg = experiments.validate_config(tiny_stoch_cfg())
        with pytest.raises(QumimoError, match=r"^_mean_vector_tasks\(mean_id=0, lambda=\("):
            experiments.run_stochastic(cfg, tmp_path / "out")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_stochastic_error_in_second_task_of_chunk(self, tmp_path, monkeypatch, capsys,
                                                      workers):
        # only mean vector 1's designs fail, and it is the second task of
        # the first chunk (four tasks at one worker, two at two)
        cfg = tiny_stoch_cfg(num_mean_vectors=4)
        lam = experiments._mean_vectors(experiments.validate_config(cfg), "asymmetric", 0.8, 2)[1]
        design = experiments.strategy_design

        def failing(strategy, chan):
            if chan.params.lam == lam:
                raise SolverError("max_iter", "gamma search: stalled")
            return design(strategy, chan)

        chunks = []
        run_pool = experiments._run_pool

        def recorded(tasks, run, workers):
            chunks.extend([task[1] for task in chunk] for chunk in tasks)
            return run_pool(tasks, run, workers)

        monkeypatch.setattr(experiments, "strategy_design", failing)
        monkeypatch.setattr(experiments, "_run_pool", recorded)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["stochastic", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                "--workers", workers]
        assert cli.main(argv) == 1
        assert chunks[0][:2] == [0, 1]
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: _mean_vector_tasks(mean_id=1, lambda={lam!r}, Z=0.8) "
            "failed: SolverError: gamma search: stalled")
