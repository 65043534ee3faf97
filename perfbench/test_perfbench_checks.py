"""Self-test of the benchmark's output checks.

Runs `qumimo` on a tiny fixed-Z config (about a second), checks that the clean outputs pass, then corrupts one value at
a time and checks that the check meant to catch it fails.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

FIXED_Z = {
    "regime": "fixed_z", "N": [2], "Z": [1.2], "eta": [0.8], "delta": 1.0, "p": [0.8],
    "channel_symmetry": ["symmetric", "asymmetric"], "num_mean_vectors": 1,
    "strategies": ["dir", "pur", "div", "sym", "blind"], "seed": 7,
}


def _run(tmp, sub, cfg):
    from qumimo import cli

    path = tmp / f"{cfg['regime']}.json"
    path.write_text(json.dumps(cfg))
    out = tmp / cfg["regime"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert cli.main([sub, "--config", str(path), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perfbench")
    return _run(tmp, "fixed-z", FIXED_Z)


def _edit(path, pick, column, change):
    """Apply `change` to `column` of the first row `pick` accepts."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    row = next(r for r in rows if pick(r))
    if change is None:
        rows.remove(row)
    else:
        row[column] = change(row[column], rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(rows)


def _sym_rec(strategy, symmetry="symmetric"):
    seed = next(s for s, key in checks.grid_tasks(FIXED_Z).items() if key[0] == symmetry)
    return lambda r: r["strategy"] == strategy and int(r["seed"]) == seed


def _f_of(strategy, shift):
    # The F_avg of another strategy of the same (symmetric) instance, shifted.
    pick = _sym_rec(strategy)
    return lambda _, rows: repr(float(next(r for r in rows if pick(r))["F_avg"]) + shift)


def _findings(out):
    findings = checks.Findings()
    checks.check_fixed_z(out, FIXED_Z, findings)
    return findings.messages()


def test_clean_outputs_pass(outputs):
    assert _findings(outputs) == []


FIXED_Z_CORRUPTIONS = {
    "dir_formula": ("records.csv", _sym_rec("dir"), "F_avg",
                    lambda v, _: repr(float(v) + 1e-6), "1/2 + (1 - lam_t) P/2"),
    "pur_below_dir": ("records.csv", _sym_rec("pur"), "F_avg", lambda v, _: "0.5",
                      "heralded pur"),
    "div_below_sym": ("records.csv", _sym_rec("div"), "F_avg", _f_of("sym", -1e-4),
                      "div F_avg"),
    "blind_above_sym": ("records.csv", _sym_rec("blind"), "F_avg", _f_of("sym", 1e-4),
                        "blind F_avg"),
    "p_real": ("records.csv", _sym_rec("pur", "asymmetric"), "p_real",
               lambda v, _: repr(float(v) + 1e-6), "p_real"),
    "f_avg_range": ("records.csv", _sym_rec("sym", "asymmetric"), "F_avg",
                    lambda v, _: "1.01", "outside [1/2, 1]"),
    "j_range": ("records.csv", _sym_rec("div", "asymmetric"), "J_index",
                lambda v, _: "0.4", "J_index 0.4 outside"),
    "sym_j": ("records.csv", _sym_rec("sym", "asymmetric"), "J_index",
              lambda v, _: "0.99", "sym J_index 0.99 is not 1"),
    "gamma_simplex": ("records.csv", _sym_rec("div", "asymmetric"), "gamma_1",
                      lambda v, _: repr(float(v) + 0.1), "simplex"),
    "missing_row": ("records.csv", _sym_rec("blind", "asymmetric"), None, None,
                    "strategy rows"),
    "aggregate_mean": ("aggregate.csv", lambda r: r["strategy"] == "div", "F_avg_mean",
                       lambda v, _: repr(float(v) + 1e-6), "F_avg_mean"),
    "aggregate_count": ("aggregate.csv", lambda r: r["strategy"] == "sym", "n_samples",
                        lambda v, _: "2", "n_samples"),
    "manifest_hash": ("crosstalk.csv", lambda r: True, "P_ij",
                      lambda v, _: repr(float(v) + 1e-3), "manifest hash of crosstalk.csv"),
}

@pytest.mark.parametrize("case", FIXED_Z_CORRUPTIONS)
def test_corrupted_output_fails(outputs, tmp_path, case):
    name, pick, column, change, expect = FIXED_Z_CORRUPTIONS[case]
    out = tmp_path / "out"
    shutil.copytree(outputs, out)
    _edit(out / name, pick, column, change)
    messages = _findings(out)
    assert any(expect in m for m in messages), messages


def test_gamma_checks_catch_corruption():
    from qumimo import channel, cloner, decoder

    gamma = (0.6, 0.4, 0.0)
    chan = channel.channel_choi(channel.ChannelParams(n=3, eta=0.8, lam=(0.1, 0.3, 0.5), delta=1.0))
    modes = (1, 2, 3)
    value = decoder.evaluate_gamma_surrogate(gamma, chan, modes, modes)
    fids = cloner.cloner_choi(gamma).fidelities
    closed = cloner.clone_fidelities(gamma).fidelities
    qr = decoder.build_qr(decoder.compose_effective_map(cloner.cloner_choi(gamma), chan, modes, modes))
    f_success = decoder.purification_sdp(qr, 0.8).f_success

    def messages(v=value, f=fids, fs=f_success):
        findings = checks.Findings()
        checks.check_gamma_point("pt", gamma, v, f, closed, findings)
        checks.check_rayleigh_bound("pt", v, 0.8, fs, findings)
        return findings.messages()

    assert messages() == []
    assert "outside [1/2, 1]" in messages(v=1.01)[0]
    assert "closed form" in messages(f=(fids[0] + 1e-4,) + tuple(fids[1:]))[0]
    assert "unsupported clone 3" in messages(f=tuple(fids[:2]) + (0.49,))[0]
    assert "SDP F_success" in messages(fs=value + 1e-5)[0]
