import ast
import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qumimo import cli, cloner, decoder, experiments, noise, strategies
from qumimo.errors import ConfigError, QumimoError, SolverError

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
        # that runs both composes that cascade once
        calls = []
        compose = decoder.compose_effective_map

        def counted(*args):
            calls.append(args)
            return compose(*args)

        monkeypatch.setattr(decoder, "compose_effective_map", counted)
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

    def test_box_panel_designed_once(self, tmp_path, monkeypatch):
        # the panel's design does not depend on mu: one design serves all
        designs = []
        design = experiments._design_on_mean

        def counted(cfg, eta, mean, p_eval):
            designs.append(eta)
            return design(cfg, eta, mean, p_eval)

        monkeypatch.setattr(experiments, "_design_on_mean", counted)
        cfg = experiments.validate_config(tiny_stoch_cfg(mu=[0.5, 1.0]))
        experiments.run_stochastic(cfg, tmp_path / "out")
        # one design per heatmap task (eta 0.5, two means), one for the
        # panel (box_eta 0.8)
        assert designs == [0.5, 0.5, 0.8]
        box = (tmp_path / "out" / "boxplot.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[0] for r in box] == ["0.5"] * 3 + ["1"] * 3

    def test_box_panel_reuses_heatmap_design(self, tmp_path, monkeypatch):
        # with box_eta among the heatmap's eta and box_p among its p, the
        # heatmap task of (box_eta, mean 0) already made the panel's design
        designs = []
        design = experiments._design_on_mean

        def counted(cfg, eta, mean, p_eval):
            designs.append(eta)
            return design(cfg, eta, mean, p_eval)

        monkeypatch.setattr(experiments, "_design_on_mean", counted)
        cfg = experiments.validate_config(tiny_stoch_cfg(eta=[0.5, 0.8], mu=[0.5, 1.0]))
        experiments.run_stochastic(cfg, tmp_path / "reused")
        assert designs == [0.5, 0.5, 0.8, 0.8]
        # the panel does not depend on the heatmap's eta: a run that makes
        # its own design writes the same bytes
        cfg = experiments.validate_config(tiny_stoch_cfg(eta=[0.5], mu=[0.5, 1.0]))
        experiments.run_stochastic(cfg, tmp_path / "fresh")
        assert designs[4:] == [0.5, 0.5, 0.8]
        for name in ("boxplot.csv", "allocations.csv", "cluster_variance.csv", "cv_kde.csv"):
            fresh = (tmp_path / "fresh" / name).read_bytes()
            assert (tmp_path / "reused" / name).read_bytes() == fresh, name

    def test_no_amplitudes_outside_the_mean_designs(self, tmp_path, monkeypatch):
        # a design's cloner carries its clone fidelities: the baseline J
        # index, the realizations and the panel solve no gamma's amplitudes
        calls, inside = [], [False]
        amplitudes, design = cloner.clone_amplitudes, experiments._design_on_mean

        def counted(gamma):
            calls.append(inside[0])
            return amplitudes(gamma)

        def designing(*args):
            inside[0] = True
            try:
                return design(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(cloner, "clone_amplitudes", counted)
        monkeypatch.setattr(decoder, "clone_amplitudes", counted)
        monkeypatch.setattr(experiments, "_design_on_mean", designing)
        cfg = experiments.validate_config(tiny_stoch_cfg(eta=[0.5, 0.8], p=[0.8, 1.0]))
        experiments.run_stochastic(cfg, tmp_path / "out")
        assert True in calls and False not in calls

    def test_mean_design_is_the_div_design(self):
        # the stochastic regime designs a mean channel as the grid regimes
        # design div on it: gamma, modes, Qt, Rt and decoders bit for bit
        cfg = experiments.validate_config(tiny_stoch_cfg(N=3, Z=1.2))
        mean = experiments._mean_vectors(cfg, "asymmetric", 1.2, 3)[1]
        p_eval = (0.5, 0.8, 1.0)
        design, decoders = experiments._design_on_mean(cfg, 0.5, mean, p_eval)
        chan = experiments._channel(cfg, 0.5, mean.lam)
        div = strategies.strategy_design("div", chan)
        [recs] = strategies.run_strategies([("div", chan, p_eval)])
        assert design.gamma == div.gamma == recs[0].gamma
        assert (design.t, design.r) == (div.t, div.r) == (recs[0].t, recs[0].r)
        for x, y in ((design.qr.qt, div.qr.qt), (design.qr.rt, div.qr.rt)):
            assert np.array_equal(x, y)
        sols = decoder.purification_sdps((div.qr, p) for p in p_eval)
        for p, rec, sol in zip(p_eval, recs, sols):
            assert np.array_equal(decoders[p].j, sol.j)
            assert (decoders[p].f_success, decoders[p].f_avg) == (rec.f_success, rec.f_avg)

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
        # eta 0.8 = box_eta: the panel's design comes back from a pool worker
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_stoch_cfg(p=[0.8, 1.0], mu=[0.5, 1.0], eta=[0.5, 0.8])))
        out_1, out_2 = tmp_path / "w1", tmp_path / "w2"
        assert cli.main(["stochastic", "--config", str(cfg_path), "--out", str(out_1)]) == 0
        assert cli.main(
            ["stochastic", "--config", str(cfg_path), "--out", str(out_2), "--workers", "2"]
        ) == 0
        names = sorted(p.name for p in out_1.glob("*.csv"))
        assert names == sorted(p.name for p in out_2.glob("*.csv"))
        for name in names:
            assert (out_1 / name).read_bytes() == (out_2 / name).read_bytes(), name
        man_1 = json.loads((out_1 / "manifest.json").read_text())
        man_2 = json.loads((out_2 / "manifest.json").read_text())
        man_1.pop("timing")
        man_2.pop("timing")
        assert man_1 == man_2

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


class TestBoundaryAndValidate:
    def test_boundary_files(self, tmp_path):
        assert cli.main(["boundary", "--m", "2", "--resolution", "0.25", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "boundary_M2.csv").read_text().strip().splitlines()
        assert lines[0] == "gamma_1,gamma_2,F_1,F_2"
        assert len(lines) == 1 + 5  # steps=4 -> 5 lattice points
        values = {tuple(np.round([float(x) for x in ln.split(",")[2:]], 6)) for ln in lines[1:]}
        assert (1.0, 0.5) in values and (0.5, 1.0) in values

    def test_validate_quick(self, capsys):
        assert cli.main(["validate", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        for k in (2, 3):
            for p in ("0.8", "1"):
                assert f"[PASS] decoder SDP: covariant blocks = dense, K = {k}, p = {p}" in out
        assert "[PASS] Qt, Rt on the SU(2) commutant, N = 3" in out
        assert "[PASS] reduced decoder data real, N = 3" in out

    def test_wrong_regime_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_fixed_cfg()))
        assert cli.main(["stochastic", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2


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
        assert err.startswith("error: _eval_cell(symmetry='asymmetric', Z=0.6, "
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
        assert err.startswith("error: _eval_cell(symmetry='asymmetric', Z=0.6, "
                              "lambda_x=None, N=2, eta=0.5, mean_id=0, lambda=(")
        assert "SolverError: purification SDP: stalled" in err

    def test_stochastic_error_names_task(self, tmp_path, monkeypatch):
        monkeypatch.setattr(decoder, "purification_sdps", self._failing_sdp)
        cfg = experiments.validate_config(tiny_stoch_cfg())
        with pytest.raises(QumimoError, match=r"^_stochastic_task\(eta=0\.5, mean_id=0, "):
            experiments.run_stochastic(cfg, tmp_path / "out")
