import numpy as np
import pytest

from qumimo import channel, cloner, decoder, experiments, metrics, strategies
from qumimo.errors import UndefinedIndexError


class TestAsymmetryIndex:
    def test_single_contributor(self):
        assert abs(metrics.asymmetry_index([1.0, 0.5, 0.5]) - 1 / 3) < 1e-12

    def test_equal_contributions(self):
        assert abs(metrics.asymmetry_index([0.8, 0.8, 0.8]) - 1.0) < 1e-12

    def test_frozen_example(self):
        # direct formula evaluation: F~=(0.72, 0.28, 0), J = 1 / (3 * 0.5968)
        f = [0.9, 0.7, 0.5]
        eff = [0.8 * 0.9, 0.4 * 0.7, 0.0]
        want = sum(eff) ** 2 / (3 * sum(e * e for e in eff))
        got = metrics.asymmetry_index(f)
        assert abs(got - want) < 1e-12
        assert abs(got - 0.55853) < 1e-5

    def test_negative_contributions_clamped(self):
        # F = 0.4 sits below the baseline; acts as if absent
        a = metrics.asymmetry_index([0.9, 0.4])
        b = metrics.asymmetry_index([0.9, 0.5])
        assert abs(a - b) < 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            m = int(rng.integers(1, 6))
            f = rng.uniform(0.5 + 1e-6, 1.0, m)
            j = metrics.asymmetry_index(f)
            assert 1 / m - 1e-9 <= j <= 1 + 1e-9

    def test_undefined(self):
        with pytest.raises(UndefinedIndexError):
            metrics.asymmetry_index([0.5, 0.4])


class TestEmpiricalDensity:
    def test_peaks_at_degenerate_value(self):
        grid, dens = metrics.empirical_density([0.7] * 10, (0.5, 1.0))
        assert abs(grid[np.argmax(dens)] - 0.7) < 2e-3

    def test_flat_on_uniform_grid(self):
        values = np.linspace(1 / 3, 1.0, 200)
        grid, dens = metrics.empirical_density(values, (1 / 3, 1.0))
        assert dens.max() / dens.min() < 1.5

    def test_normalized(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(1 / 3, 1.0, 50)
        grid, dens = metrics.empirical_density(values, (1 / 3, 1.0))
        integral = np.trapezoid(dens, grid)
        assert abs(integral - 1.0) < 1e-3

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            metrics.empirical_density([0.5], (0.0, 1.0))
        with pytest.raises(ValueError):
            metrics.empirical_density([0.5, 0.6], (1.0, 0.0))


class TestSelectModes:
    def test_argmin_rule(self):
        params = channel.ChannelParams(n=2, eta=0.0, lam=(0.2, 0.6), delta=1.0)
        ch = channel.channel_choi(params)
        t, r = strategies.select_modes(ch, 1)
        assert t == (1,) and r == (1,)

    def test_tie_break_by_index(self):
        params = channel.ChannelParams(n=2, eta=0.0, lam=(0.3, 0.3), delta=1.0)
        ch = channel.channel_choi(params)
        t, r = strategies.select_modes(ch, 1)
        assert t == (1,)

    def test_all_modes(self):
        params = channel.ChannelParams(n=3, eta=0.4, lam=(0.2, 0.2, 0.2), delta=1.0)
        ch = channel.channel_choi(params)
        t, r = strategies.select_modes(ch, 3)
        assert sorted(t) == [1, 2, 3] and sorted(r) == [1, 2, 3]

    def test_no_crosstalk_receive_equals_transmit(self):
        params = channel.ChannelParams(n=3, eta=0.0, lam=(0.5, 0.1, 0.3), delta=1.0)
        ch = channel.channel_choi(params)
        t, r = strategies.select_modes(ch, 2)
        assert t == (2, 3)
        assert set(r) == set(t)

    def test_full_receive_is_index_order(self):
        # K = N keeps every mode in index order, whatever the scores
        params = channel.ChannelParams(n=3, eta=0.0, lam=(0.5, 0.1, 0.3), delta=1.0)
        ch = channel.channel_choi(params)
        assert strategies.select_modes(ch, 3) == ((2, 3, 1), (1, 2, 3))
        assert strategies.select_modes(ch, 1, k=3) == ((2,), (1, 2, 3))

    def test_partial_receive_ranked_by_branch_table(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            params = channel.ChannelParams(
                n=n, eta=float(rng.uniform(0.3, 1)), lam=tuple(rng.uniform(0, 1, n)),
                delta=float(rng.uniform(0.3, 2)),
            )
            ch = channel.channel_choi(params)
            table = channel.branch_fidelities(ch)
            for m in range(1, n):
                t, r = strategies.select_modes(ch, m)
                assert t == tuple(sorted(range(1, n + 1), key=lambda i: (params.lam[i - 1], i))[:m])
                scores = table[[x - 1 for x in t]].max(axis=0)
                want = sorted(range(1, n + 1), key=lambda j: (-round(scores[j - 1], 12), j))
                assert r == tuple(want[:m])
                assert strategies.select_modes(ch, m, k=n - 1)[1] == tuple(want[:n - 1])

    def test_score_ties_break_by_index(self):
        # eta = 0 and equal lam: both single-copy receive scores tie at 1/2
        # off the transmit mode, so K = 2 of N = 3 takes the transmit mode
        # and then the lower index
        params = channel.ChannelParams(n=3, eta=0.0, lam=(0.4, 0.4, 0.4), delta=1.0)
        ch = channel.channel_choi(params)
        assert strategies.select_modes(ch, 1, k=2) == ((1,), (1, 2))
        params = channel.ChannelParams(n=3, eta=0.0, lam=(0.4, 0.4, 0.2), delta=1.0)
        ch = channel.channel_choi(params)
        assert strategies.select_modes(ch, 1, k=2) == ((3,), (3, 1))


class TestRunStrategy:
    def test_dir_identity_channel(self):
        params = channel.ChannelParams(n=2, eta=0.0, lam=(0.0, 0.0), delta=1.0)
        [rec] = strategies.run_strategy("dir", channel.channel_choi(params), (1.0,))
        assert abs(rec.f_avg - 1.0) < 1e-6

    def test_dir_analytic(self):
        params = channel.ChannelParams(n=2, eta=0.0, lam=(0.2, 0.6), delta=1.0)
        [rec] = strategies.run_strategy("dir", channel.channel_choi(params), (1.0,))
        assert abs(rec.f_avg - 0.9) < 1e-8  # 1 - lam_min / 2

    def test_dir_reads_branch_table_once(self, monkeypatch):
        # mode selection and the fidelity read one table per channel
        calls = []
        table = channel.branch_fidelities
        monkeypatch.setattr(strategies, "branch_fidelities", lambda c: calls.append(c) or table(c))
        params = channel.ChannelParams(n=4, eta=0.5, lam=(0.3, 0.1, 0.6, 0.2), delta=1.0)
        (rec,) = strategies.run_strategy("dir", channel.channel_choi(params), (0.8,))
        assert len(calls) == 1
        t, r = strategies.select_modes(calls[0], 1)
        assert (rec.t, rec.r) == (t, r) and rec.f_avg == table(calls[0])[t[0] - 1, r[0] - 1]

    def test_f_avg_identity(self):
        params = channel.ChannelParams(n=2, eta=0.5, lam=(0.4, 0.2), delta=1.0)
        for s in ("pur", "sym", "div"):
            [rec] = strategies.run_strategy(s, channel.channel_choi(params), (0.8,))
            assert abs(rec.f_avg - (0.8 * rec.f_success + 0.1)) < 1e-10
            assert 0.5 - 1e-6 <= rec.f_avg <= 1 + 1e-6

    def test_dominance_per_instance(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            params = channel.ChannelParams(
                n=2, eta=float(rng.uniform(0, 1)), lam=tuple(rng.uniform(0.1, 0.9, 2)),
                delta=1.0,
            )
            ch = channel.channel_choi(params)
            [div] = strategies.run_strategy("div", ch, (0.8,))
            [sym] = strategies.run_strategy("sym", ch, (0.8,))
            [pur] = strategies.run_strategy("pur", ch, (0.8,))
            [blind] = strategies.run_strategy("blind", ch, (0.8,))
            assert div.f_avg >= sym.f_avg - 1e-6
            # dominance over one copy holds for the design surrogate (the
            # search scores the single-branch vertex), not at the operating p
            assert div.surrogate >= pur.f_success - 1e-6
            assert blind.f_avg <= sym.f_avg + 1e-6

    def test_symmetric_channel_invariant_under_mode_relabeling(self):
        base = channel.ChannelParams(n=3, eta=0.5, lam=(0.4, 0.2, 0.3), delta=1.0)
        rolled = channel.ChannelParams(n=3, eta=0.5, lam=(0.2, 0.3, 0.4), delta=1.0)
        [a] = strategies.run_strategy("sym", channel.channel_choi(base), (0.8,))
        [b] = strategies.run_strategy("sym", channel.channel_choi(rolled), (0.8,))
        # cyclic relabeling of a circulant channel leaves fidelity unchanged
        assert abs(a.f_avg - b.f_avg) < 1e-8

    def test_blind_reports_realized_probability(self):
        params = channel.ChannelParams(n=2, eta=0.3, lam=(0.5, 0.2), delta=1.0)
        [rec] = strategies.run_strategy("blind", channel.channel_choi(params), (0.8,))
        assert rec.p_target == 0.8
        assert 0.0 <= rec.p_real <= 1.0
        assert abs(rec.f_avg - (rec.p_real * rec.f_success + (1 - rec.p_real) / 2)) < 1e-9

    def test_one_record_per_p(self):
        # one design serves every p: each record equals a single-p run,
        # and dir returns its one p = 1 record whatever p is asked for
        params = channel.ChannelParams(n=2, eta=0.3, lam=(0.5, 0.2), delta=1.0)
        ch = channel.channel_choi(params)
        ps = (0.5, 0.8, 1.0)
        for s in ("pur", "div", "sym", "blind"):
            recs = strategies.run_strategy(s, ch, ps)
            assert [r.p_target for r in recs] == list(ps)
            for p, rec in zip(ps, recs):
                assert [rec] == strategies.run_strategy(s, ch, (p,))
            # M and K follow from the name: pur sends one copy, the rest N
            assert (recs[0].m, recs[0].k) == ((1, 2) if s == "pur" else (2, 2))
        [rec] = strategies.run_strategy("dir", ch, ps)
        assert rec.p_target == rec.p_real == 1.0 and (rec.m, rec.k) == (1, 1)

    def test_rejects_unknown_strategy(self):
        params = channel.ChannelParams(n=2, eta=0.0, lam=(0.1, 0.1), delta=1.0)
        with pytest.raises(ValueError):
            strategies.run_strategy("nope", channel.channel_choi(params), (1.0,))


class TestDesignOnce:
    def test_no_amplitudes_after_the_designs(self, monkeypatch):
        # every job's design is built before the decoder SDPs, and its
        # cloner carries the clone fidelities of the J index: after that
        # no gamma's amplitudes are solved again
        calls, marks = [], []
        amplitudes, sdps = cloner.clone_amplitudes, decoder.purification_sdps

        def counted(gamma):
            calls.append(gamma)
            return amplitudes(gamma)

        def marked(pairs):
            marks.append(len(calls))
            return sdps(pairs)

        monkeypatch.setattr(cloner, "clone_amplitudes", counted)
        monkeypatch.setattr(decoder, "clone_amplitudes", counted)
        monkeypatch.setattr(decoder, "purification_sdps", marked)
        ch = channel.channel_choi(
            channel.ChannelParams(n=3, eta=0.5, lam=(0.1, 0.4, 0.7), delta=1.0))
        recs = strategies.run_strategies([(s, ch, (0.8, 1.0)) for s in strategies.STRATEGIES])
        assert [len(r) for r in recs] == [1, 2, 2, 2, 2]
        assert len(marks) == 1 and marks[0] > 0
        assert len(calls) == marks[0]


class TestRecordsCsv:
    def test_stable_schema(self, tmp_path):
        params = channel.ChannelParams(n=2, eta=0.0, lam=(0.2, 0.4), delta=1.0)
        [rec] = strategies.run_strategy("sym", channel.channel_choi(params), (0.8,))
        path = tmp_path / "records.csv"
        row = experiments.csv_row(rec, 3, 2, 0.6, "fixed_z", 0.0, 1.0, mean_id=0, seed=7)
        experiments._write_csv(path, experiments.csv_header(3), [row])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "strategy,N,M,K,Z,regime,eta,delta,p_target,p_real,mu,mean_id,"
            "realization_id,F_avg,J_index,gamma_1,gamma_2,gamma_3,t,r,seed"
        )
        fields = lines[1].split(",")
        assert fields[0] == "sym" and fields[-1] == "7"
        assert fields[17] == ""  # gamma_3 padded for M = 2
        assert fields[18] == "1;2" and fields[19] == "1;2"
