"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 compares adaptive diversity with direct transmission in the
accounting the method optimises: heralded (conditional) fidelity.  The
asymmetry is chosen by the decoder-optimal Rayleigh surrogate over a
candidate set that contains the single-branch vertex, so on every
instance the chosen surrogate reaches the direct fidelity; at the
operating point p = 0.8, the mean heralded fidelity of each (Z, eta)
cell reaches direct transmission's.  The averaged accounting
F_avg = p F_success + (1 - p)/2 is printed but not asserted against the
p = 1 baseline: it sits (1 - p)(F_success - 1/2) below F_success, so it
loses to direct transmission whenever F_dir > 1/2 unless the heralded
gain exceeds (1 - p)(F_dir - 1/2)/p, about 0.1 on the criterion-7 grid.
No decoder is promised such a gain.  Nor is the heralded fidelity at
p = 0.8 promised to beat direct transmission instance by instance: the
asymmetry comes from the p-independent surrogate (see
``decoder.optimize_gamma``).  Both per-instance counts are printed.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import cloner_oracle
from qumimo import channel, cloner, decoder, experiments, noise, sdp, strategies
from qumimo.tensor import I2
from reference_ops import (
    ModeSpace,
    apply_choi,
    dense_channel_choi,
    haar_qubit,
    partial_trace,
    projector,
)

PGRID = (0.2, 0.5, 0.8, 1.0)


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f"  ({detail})" if detail else ""))
    return ok


def test_criterion_01_cloning_benchmarks():
    t0 = time.time()
    ok = True
    for m in (2, 3, 4):
        want = (2 * m + 1) / (3 * m)
        closed = np.asarray(cloner.clone_fidelities(tuple([1 / m] * m)).fidelities)
        ok &= bool(np.max(np.abs(closed - want)) < 1e-6)
        via_choi = np.asarray(cloner.cloner_choi(tuple([1 / m] * m)).fidelities)
        ok &= bool(np.max(np.abs(via_choi - want)) < 1e-6)
        via_sdp = np.asarray(cloner_oracle.cloner_choi_sdp(tuple([1 / m] * m)).fidelities)
        ok &= bool(np.max(np.abs(via_sdp - want)) < 1e-6)
    for m in (2, 3):
        for k in range(m):
            e_k = tuple(1.0 if i == k else 0.0 for i in range(m))
            want = np.full(m, 0.5)
            want[k] = 1.0
            closed = np.asarray(cloner.clone_fidelities(e_k).fidelities)
            ok &= bool(np.max(np.abs(closed - want)) < 1e-6)
            via_choi = np.asarray(cloner.cloner_choi(e_k).fidelities)
            ok &= bool(np.max(np.abs(via_choi - want)) < 1e-6)
            via_sdp = np.asarray(cloner_oracle.cloner_choi_sdp(e_k).fidelities)
            ok &= bool(np.max(np.abs(via_sdp - want)) < 1e-6)
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    assert report("criterion 1: cloning benchmarks", ok, f"{elapsed:.1f}s")


def test_criterion_02_amplitude_identity():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        beta = np.asarray(cloner.clone_amplitudes(tuple(rng.dirichlet(np.ones(m)))).beta)
        worst = max(worst, abs(float(beta @ beta + beta.sum() ** 2) - 2.0))
    assert report("criterion 2: amplitude identity", worst < 1e-9, f"worst {worst:.2e}")


def test_criterion_03_channel_contracts():
    # The dense channel Choi of the test oracle is CPTP and unital; in the
    # factored route, which mode reads which is doubly stochastic: the
    # branch mixing q_tj (read through the branch table of the same
    # channel without depolarization, F = (1 + q) / 2) has no negative
    # entry, and its rows and columns sum to 1.
    rng = np.random.default_rng(1003)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 5))
        params = channel.ChannelParams(
            n=n, eta=float(rng.uniform(0, 1)), lam=tuple(rng.uniform(0, 1, n)),
            delta=float(rng.uniform(0.2, 3.0)),
        )
        ch = dense_channel_choi(params)
        space = ModeSpace.qubits(range(1, 2 * n + 1))
        tr_out = partial_trace(ch, space, tuple(range(1, n + 1)))
        ok &= bool(np.max(np.abs(tr_out - np.eye(2 ** n))) < 1e-8)
        ident = np.eye(2 ** n) / 2 ** n
        ok &= bool(np.max(np.abs(apply_choi(ch, ident) - ident)) < 1e-8)
        noiseless = channel.channel_choi(replace(params, lam=(0.0,) * n))
        q = 2.0 * channel.branch_fidelities(noiseless) - 1.0
        ok &= bool(q.min() >= 0.0)
        ok &= bool(max(np.max(np.abs(q.sum(axis=a) - 1.0)) for a in (0, 1)) < 1e-12)
    # eta = 0 factorization: marginal fidelity 1 - lam_i / 2
    for _ in range(10):
        n = int(rng.integers(2, 5))
        lam = tuple(rng.uniform(0, 1, n))
        params = channel.ChannelParams(n=n, eta=0.0, lam=lam, delta=1.0)
        ch = dense_channel_choi(params)
        space_out = ModeSpace.qubits(range(1, n + 1))
        i = int(rng.integers(n))
        psi = haar_qubit(rng)
        state = [I2 / 2] * n
        state[i] = projector(psi)
        rho = state[0]
        for s in state[1:]:
            rho = np.kron(rho, s)
        marg = partial_trace(apply_choi(ch, rho), space_out, (i + 1,))
        fid = float(np.real(psi.conj() @ marg @ psi))
        ok &= abs(fid - (1 - lam[i] / 2)) < 1e-8
        table = channel.branch_fidelities(channel.channel_choi(params))
        ok &= abs(table[i, i] - (1 - lam[i] / 2)) < 1e-12
    assert report("criterion 3: channel contracts", ok)


def test_criterion_04_decoder_sanity():
    ok = True
    enc1 = cloner.cloner_choi((1.0,))
    ch = channel.channel_choi(channel.ChannelParams(n=1, eta=0.0, lam=(0.0,), delta=1.0))
    qr = decoder.build_qr(decoder.compose_effective_map(enc1, ch, (1,), (1,)))
    f_id = decoder.purification_sdp(qr, 1.0).f_avg
    ok &= abs(f_id - 1.0) < 1e-6
    ch = channel.channel_choi(channel.ChannelParams(n=1, eta=0.0, lam=(0.4,), delta=1.0))
    qr = decoder.build_qr(decoder.compose_effective_map(enc1, ch, (1,), (1,)))
    f_dep = decoder.purification_sdp(qr, 1.0).f_avg
    ok &= abs(f_dep - 0.8) < 1e-6

    rng = np.random.default_rng(1004)
    worst_margin, worst_mono = np.inf, np.inf
    for _ in range(50):
        n = int(rng.integers(1, 3))
        gamma = tuple(rng.dirichlet(np.ones(n)))
        params = channel.ChannelParams(
            n=n, eta=float(rng.uniform(0, 1)), lam=tuple(rng.uniform(0, 1, n)),
            delta=float(rng.uniform(0.3, 2.0)),
        )
        emap = decoder.compose_effective_map(
            cloner.cloner_choi(gamma), channel.channel_choi(params),
            tuple(range(1, n + 1)), tuple(range(1, n + 1)),
        )
        qr = decoder.build_qr(emap)
        ray = decoder.rayleigh_bound(qr)
        values = [decoder.purification_sdp(qr, p).f_success for p in PGRID]
        worst_margin = min(worst_margin, min(ray - v for v in values))
        worst_mono = min(
            worst_mono, min(values[i] - values[i + 1] for i in range(len(values) - 1))
        )
    ok &= worst_margin >= -1e-6
    ok &= worst_mono >= -1e-7
    assert report(
        "criterion 4: decoder sanity",
        ok,
        f"identity {f_id:.8f}, dep {f_dep:.8f}, relax margin {worst_margin:.2e}",
    )


def test_criterion_05_sdp_oracle():
    rng = np.random.default_rng(1005)
    ok = True
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 33))
        a = rng.standard_normal((n, n))
        c = (a + a.T) / 2
        sol = sdp.solve([c], [np.eye(n)[None]], [1.0])
        err = abs(sol.value - np.linalg.eigvalsh(c)[-1])
        worst = max(worst, err)
        ok &= sol.status == sdp.OPTIMAL and err < 1e-7
    # an infeasible and an unbounded problem are never certified optimal
    infeas = sdp.solve([np.zeros((3, 3))], [np.eye(3)[None]], [-1.0])
    ok &= infeas.status == sdp.MAX_ITER
    unbnd = sdp.solve([np.eye(2)], [np.diag([1.0, -1.0])[None]], [0.0])
    ok &= unbnd.status == sdp.MAX_ITER
    assert report("criterion 5: SDP oracle equivalence", ok, f"worst {worst:.2e}")


def test_criterion_06_sampler_moments():
    ok = True
    details = []
    for mu in (0.25, 0.5, 0.75, 1.0):
        xi = noise.sample_fluctuation(mu, 100_000, noise.make_rng(noise.derive_seed(1006, mu)))
        mean_err = abs(xi.mean() - 1.0)
        var_err = abs(xi.var() - mu * mu)
        ok &= mean_err < 0.01 and var_err < 0.05 * mu * mu
        details.append(f"mu={mu}: {mean_err:.4f}/{var_err / (mu * mu):.3f}")
    rng = noise.make_rng(10061)
    for z, n in ((1.0, 3), (2.4, 3), (1.2, 3)):
        for alloc in noise.sample_mean_allocations(n, z, 200, rng):
            mean = alloc
            xi = noise.sample_fluctuation(0.5, n, rng)
            out = np.asarray(noise.perturb_and_project(mean, xi).lam)
            ok &= abs(out.sum() - z) < 1e-10
            ok &= bool(np.all(out >= -1e-10) and np.all(out <= 1 + 1e-10))
    assert report("criterion 6: sampler moments", ok, "; ".join(details))


@pytest.fixture(scope="module")
def criterion7_records():
    """All five strategies over the criterion-7 grid (shared with 7's report)."""
    t0 = time.time()
    rows = []
    for z in (1.0, 1.2):
        seed = noise.derive_seed(1007, "means", z)
        means = noise.sample_mean_allocations(3, z, 50, noise.make_rng(seed))
        for eta in (0.0, 0.5, 0.8):
            for mean_id, mean in enumerate(means):
                params = channel.ChannelParams(n=3, eta=eta, lam=mean.lam, delta=1.0)
                ch = channel.channel_choi(params)
                recs = {}
                for s in ("dir", "pur", "div", "sym", "blind"):
                    # dir is deterministic: its one record is at p = 1
                    [recs[s]] = strategies.run_strategy(s, ch, (0.8,))
                rows.append((z, eta, mean_id, recs))
    return rows, time.time() - t0


def test_criterion_07_strategy_ordering(criterion7_records):
    rows, elapsed = criterion7_records
    legs = {
        "F_div >= F_sym - 1e-6": lambda r: r["div"].f_avg >= r["sym"].f_avg - 1e-6,
        "S_div >= F_dir - 1e-6": lambda r: r["div"].surrogate >= r["dir"].f_success - 1e-6,
        "F_blind <= F_sym + 1e-6": lambda r: r["blind"].f_avg <= r["sym"].f_avg + 1e-6,
    }
    # printed, not asserted: the averaged accounting at p = 0.8 against a
    # p = 1 baseline, and heralded fidelities instance by instance
    diag_legs = {
        "averaged: div (p=0.8) >= dir (p=1)": lambda r: r["div"].f_avg >= r["dir"].f_avg - 1e-6,
        "success: div >= sym": lambda r: r["div"].f_success >= r["sym"].f_success - 1e-6,
        "success: div >= dir": lambda r: r["div"].f_success >= r["dir"].f_success - 1e-6,
        "success: blind <= sym": lambda r: r["blind"].f_success <= r["sym"].f_success + 1e-6,
    }
    failures = {name: 0 for name in legs}
    diag = {name: 0 for name in diag_legs}
    cells = {}
    for z, eta, mean_id, recs in rows:
        for name, check in legs.items():
            if not check(recs):
                failures[name] += 1
        for name, check in diag_legs.items():
            if not check(recs):
                diag[name] += 1
        cells.setdefault((z, eta), []).append(recs)
    # operating point: heralded fidelity averaged over each (Z, eta) cell's
    # mean vectors, the F_success_mean column of the fixed-Z aggregate
    cell_gain = {
        key: float(np.mean([r["div"].f_success for r in recs]))
        - float(np.mean([r["dir"].f_success for r in recs]))
        for key, recs in cells.items()
    }
    cell_short = sum(g < -1e-6 for g in cell_gain.values())
    n = len(rows)
    detail = "; ".join(f"{k}: {v}/{n} violations" for k, v in failures.items())
    detail += (
        f"; cell mean F_success div >= dir - 1e-6: {cell_short}/{len(cells)} violations "
        f"(worst gain {min(cell_gain.values()):+.2e})"
    )
    diag_text = "; ".join(f"{k}: {v}/{n}" for k, v in diag.items())
    ok = all(v == 0 for v in failures.values()) and cell_short == 0 and elapsed < 600
    report("criterion 7: strategy ordering", ok, f"{detail}; runtime {elapsed:.0f}s")
    print(f"       per-instance diagnostics (violations, not asserted): {diag_text}")
    assert ok, (
        f"{detail}; runtime {elapsed:.0f}s -- adaptive must dominate symmetric cloning, its "
        "design surrogate must reach the direct fidelity on every instance, its heralded "
        "fidelity must reach direct transmission's on every (Z, eta) cell mean, and blind "
        "must not beat symmetric"
    )


def test_criterion_08_asymmetry_index_trend():
    t0 = time.time()
    # asymmetric channels, no crosstalk, scaling budget Z = M * 0.8
    z = 3 * 0.8
    seed = noise.derive_seed(1008, "asym")
    means = noise.sample_mean_allocations(3, z, 50, noise.make_rng(seed))
    js_asym = []
    for mean in means:
        ch = channel.channel_choi(channel.ChannelParams(n=3, eta=0.0, lam=mean.lam, delta=1.0))
        js_asym.append(strategies.run_strategy("div", ch, (0.8,))[0].j_index)
    mean_asym = float(np.mean(js_asym))
    ok = abs(mean_asym - 1 / 3) <= 0.15

    # symmetric channels at eta = 0.8 (identical mean vectors, L = 50)
    params = channel.ChannelParams(n=3, eta=0.8, lam=(0.8, 0.8, 0.8), delta=1.0)
    j_sym = strategies.run_strategy("div", channel.channel_choi(params), (0.8,))[0].j_index
    js_sym = [j_sym] * 50
    mean_sym = float(np.mean(js_sym))
    ok &= mean_sym >= 0.8
    assert report(
        "criterion 8: asymmetry-index trend",
        ok,
        f"asym mean J {mean_asym:.4f} (target 1/3 +- 0.15), sym mean J {mean_sym:.4f}, "
        f"{time.time() - t0:.0f}s",
    )


def test_criterion_09_stochastic_gain(tmp_path):
    t0 = time.time()
    cfg = experiments.validate_config(
        {
            "regime": "stochastic",
            "N": 3,
            "Z": 1.2,
            "eta": [0.8],
            "delta": 1.0,
            "p": [0.8],
            "mu": [0.5],
            "heatmap_mu": 0.5,
            "num_mean_vectors": 50,
            "num_realizations": 50,
            "strategies": ["div", "dir"],
            "seed": 1009,
        }
    )
    experiments.run_stochastic(cfg, tmp_path / "out")
    heat = (tmp_path / "out" / "gain_heatmap.csv").read_text().strip().splitlines()
    header = heat[0].split(",")
    rows = {tuple(r.split(",")[:2]): r.split(",") for r in heat[1:]}
    g_row = rows[("0.8", "0.8")]
    g, g_se, n_samples = float(g_row[2]), float(g_row[3]), int(g_row[5])
    p1_row = rows[("1", "0.8")]
    elapsed = time.time() - t0
    ok = n_samples == 2500
    ok &= g - 1.96 * g_se >= 0.0
    ok &= float(p1_row[2]) == 0.0 and float(p1_row[4]) == 0.0
    ok &= elapsed < 1200
    assert report(
        "criterion 9: stochastic purification gain",
        ok,
        f"G(0.8, 0.8) = {g:.5f} +- {g_se:.5f} over {n_samples} realizations, "
        f"p=1 column {p1_row[2]}, runtime {elapsed:.0f}s",
    )


def test_criterion_10_determinism(tmp_path):
    cfg_dict = {
        "regime": "fixed_z",
        "N": [1, 2],
        "Z": [0.6],
        "eta": [0.5],
        "delta": 1.0,
        "p": [0.8],
        "channel_symmetry": ["asymmetric"],
        "num_mean_vectors": 2,
        "strategies": ["dir", "pur", "div", "sym", "blind"],
        "seed": 1010,
    }
    cfg = experiments.validate_config(cfg_dict, profile="ci")
    man_a = experiments.run_grid_regime(cfg, tmp_path / "a")
    man_b = experiments.run_grid_regime(cfg, tmp_path / "b")
    ok = True
    for name in man_a["files"]:
        ok &= (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    stripped_a = {k: v for k, v in man_a.items() if k != "timing"}
    stripped_b = {k: v for k, v in man_b.items() if k != "timing"}
    ok &= stripped_a == stripped_b
    assert report("criterion 10: end-to-end determinism", ok)
