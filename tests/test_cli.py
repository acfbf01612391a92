import argparse
import json
import warnings

import numpy as np
import pytest

from pagerank_limits import cli
from pagerank_limits.census import census, read_census_csv, tv_distance, write_census_csv
from pagerank_limits.errors import ConfigError
from pagerank_limits.graph import read_edgelist
from pagerank_limits.limits import LIMIT_LAWS, limit_law

from _oracles import GwOracleLaw, sample_gw_limit, solved_truncation_gap

DCM_LAW = [[1, 2, 0.5], [2, 1, 0.5]]


def write_config(path, **overrides):
    cfg = {
        "seed": 5,
        "model": {"name": "dcm", "law": DCM_LAW},
        "sizes": [300, 800],
        "pagerank": {"c": 0.5, "N": 8, "tol": 1e-12},
        "limit": {"sampler": "fixed_point", "M": 4000, "depth": 8},
        "comparison": {"census_depths": [1]},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def counted_systems(monkeypatch):
    """The vertex count of every PageRank pull system built from now on."""
    builds = []

    class Counted(cli.pr._OrderedSystem):
        def __init__(self, g, damping, offset):
            builds.append(g.n)
            super().__init__(g, damping, offset)

    monkeypatch.setattr(cli.pr, "_OrderedSystem", Counted)
    return builds


def counted_matvecs(monkeypatch):
    """One entry per PageRank mat-vec run from now on."""
    matvecs = []

    class Counted(cli.pr._OrderedSystem):
        def apply(self, r):
            matvecs.append(1)
            return super().apply(r)

    monkeypatch.setattr(cli.pr, "_OrderedSystem", Counted)
    return matvecs


class TestSubcommands:
    def test_generate_dpa(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        rc = cli.main(["generate", "--model", "dpa", "--n", "1000", "--m", "2",
                       "--delta", "1", "--seed", "7", "--output", str(out)])
        assert rc == 0
        assert out.exists()
        meta = json.loads((tmp_path / "g.txt.meta.json").read_text())
        assert meta["model"] == "dpa" and meta["edges"] == 2 * 999
        assert meta["seed"] == 7

    @pytest.mark.parametrize("n", [0, -2])
    @pytest.mark.parametrize("model", [["dcm", "--law", json.dumps(DCM_LAW)], ["irg"]])
    def test_generate_rejects_n_below_one(self, tmp_path, capsys, model, n):
        out = tmp_path / "g.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["generate", "--model", *model, "--n", str(n), "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: n must be >= 1, got {n}\n"
        assert not out.exists()

    def test_pagerank_truncated_gap_metadata(self, tmp_path):
        g = tmp_path / "g.txt"
        cli.main(["generate", "--model", "dpa", "--n", "200", "--m", "1",
                  "--delta", "0", "--seed", "1", "--output", str(g)])
        scores = tmp_path / "scores.csv"
        rc = cli.main(["pagerank", "--graph", str(g), "--c", "0.85", "--N", "20",
                       "--output", str(scores)])
        assert rc == 0
        meta = json.loads((tmp_path / "scores.csv.meta.json").read_text())
        assert meta["order"] == 20
        assert meta["gap_bound"] == pytest.approx(0.85 ** 21)
        assert 0 <= meta["mean_gap"] <= meta["gap_bound"] + 1e-10

    def test_census_and_compare_tv(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        cli.main(["generate", "--model", "dcm", "--law", json.dumps(DCM_LAW),
                  "--n", "500", "--seed", "2", "--output", str(g)])
        c1 = tmp_path / "c1.csv"
        c2 = tmp_path / "c2.csv"
        assert cli.main(["census", "--graph", str(g), "--k", "1",
                         "--output", str(c1)]) == 0
        assert cli.main(["census", "--graph", str(g), "--k", "1",
                         "--output", str(c2)]) == 0
        capsys.readouterr()
        rc = cli.main(["compare", "--census-a", str(c1), "--census-b", str(c2)])
        assert rc == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_compare_empty_census_rejected(self, tmp_path, capsys):
        empty, one = tmp_path / "empty.txt", tmp_path / "one.csv"
        empty.write_text("# n=0\n")
        assert cli.main(["census", "--graph", str(empty), "--k", "1",
                         "--output", str(tmp_path / "e.csv")]) == 0
        one.write_text("code_hex,count\n0a,1\n")
        capsys.readouterr()
        for a, b in (("e.csv", "one.csv"), ("one.csv", "e.csv")):
            rc = cli.main(["compare", "--census-a", str(tmp_path / a),
                           "--census-b", str(tmp_path / b)])
            captured = capsys.readouterr()
            assert rc == 1 and captured.out == ""
            assert captured.err == "error: TV distance needs nonempty censuses\n"

    def test_limit_sample_pool_and_compare_ks(self, tmp_path, capsys):
        pool = tmp_path / "pool.csv"
        rc = cli.main(["limit-sample", "--sampler", "fixed-point", "--law",
                       json.dumps(DCM_LAW), "--M", "3000", "--depth", "8",
                       "--c", "0.5", "--seed", "3", "--output", str(pool)])
        assert rc == 0
        meta = json.loads((tmp_path / "pool.csv.meta.json").read_text())
        assert meta["M"] == 3000 and meta["sampler"] == "fixed-point"

        g = tmp_path / "g.txt"
        cli.main(["generate", "--model", "dcm", "--law", json.dumps(DCM_LAW),
                  "--n", "2000", "--seed", "4", "--output", str(g)])
        scores = tmp_path / "scores.csv"
        cli.main(["pagerank", "--graph", str(g), "--c", "0.5", "--output", str(scores)])
        capsys.readouterr()
        rc = cli.main(["compare", "--graph-tails", str(scores),
                       "--limit-tails", str(pool)])
        assert rc == 0
        ks = float(capsys.readouterr().out.strip())
        assert 0.0 <= ks < 0.2

    @pytest.mark.parametrize("argv,field", [
        (["--sampler", "gw"], "model.law"),
        (["--sampler", "polya", "--m", "0"], "m must be"),
        (["--sampler", "ctbp", "--theta", "-1"], "model.theta"),
    ])
    def test_limit_sample_bad_model_named(self, tmp_path, capsys, argv, field):
        out = tmp_path / "pool.csv"
        assert cli.main(["limit-sample", "--M", "10", "--output", str(out), *argv]) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,field", [
        (["generate", "--model", "ctbp", "--n", "50", "--theta={}"], "model.theta"),
        (["generate", "--model", "dpa", "--m", "2", "--n", "50", "--delta={}"], "model.delta"),
        (["limit-sample", "--sampler", "ctbp", "--M", "10", "--theta={}"], "model.theta"),
        (["limit-sample", "--sampler", "polya", "--m", "2", "--M", "10", "--delta={}"],
         "model.delta"),
    ])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_attachment_constant_rejected(self, tmp_path, capsys, argv, field,
                                                     value):
        out = tmp_path / "out.txt"
        argv = [a.format(value) for a in argv]
        assert cli.main([*argv, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and "finite" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["generate", "--model", "ctbp", "--n", "50"],
        ["limit-sample", "--sampler", "ctbp", "--M", "10"],
    ])
    def test_theta_with_overflowing_reciprocal_rejected(self, tmp_path, capsys, argv):
        # 1e-320 is positive and finite, but 1/theta is inf
        assert cli.main([*argv, "--theta", "1e-320", "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model.theta: ") and "reciprocal" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["--model", "ctbp", "--theta", "1e-300"],
        ["--model", "dpa", "--m", "1", "--delta", "-0.9999999999999999"],
    ])
    def test_tiny_attachment_weight_generates_without_warnings(self, tmp_path, argv):
        out = tmp_path / "g.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["generate", *argv, "--n", "2000", "--output", str(out)]) == 0
        meta = json.loads((tmp_path / "g.txt.meta.json").read_text())
        assert meta["edges"] == 1999

    def test_overflowing_birth_times_rejected(self, tmp_path, capsys):
        # at theta = 1e-308 the first gap, Exp(theta), overflows for this seed
        argv = ["generate", "--model", "ctbp", "--theta", "1e-308", "--n", "2000", "--seed", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--output", str(tmp_path / "g.txt")]) == 1
        assert capsys.readouterr().err == "error: birth times overflow at rate_base=1e-308\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["pool", "census", "tree"])
    def test_ctbp_limit_sample_at_tiny_theta(self, tmp_path, mode):
        out = tmp_path / "out.csv"
        assert cli.main(["limit-sample", "--sampler", "ctbp", "--theta", "1e-9",
                         "--mode", mode, "--M", "200", "--depth", "2",
                         "--output", str(out)]) == 0
        assert out.exists()
        if mode == "pool":
            meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
            assert meta["alpha_star"] == 1.0 + 1e-9

    @pytest.mark.parametrize("name,text,line", [
        ("scores.csv", "vertex,score\n0,0.5\n1\n", 3),
        ("pool.csv", "value\n0.5\nabc\n", 3),
    ])
    def test_compare_malformed_tails_named(self, tmp_path, capsys, name, text, line):
        good = tmp_path / "good.csv"
        good.write_text("value\n0.25\n0.75\n")
        bad = tmp_path / name
        bad.write_text(text)
        for argv in (["--graph-tails", bad, "--limit-tails", good],
                     ["--graph-tails", good, "--limit-tails", bad]):
            rc = cli.main(["compare", *map(str, argv)])
            assert rc == 1
            assert capsys.readouterr().err.startswith(f"error: {bad}: line {line}: ")

    @pytest.mark.parametrize("name,text,line", [
        ("pool.csv", "value\n0.5\n\nnan\n0.25\n", 4),
        ("scores.csv", "vertex,score\r\n0,0.5\r\n1,nan\r\n2,NaN\r\n", 3),
    ])
    def test_compare_nan_tails_rejected(self, tmp_path, capsys, name, text, line):
        good = tmp_path / "good.csv"
        good.write_text("value\n0.25\n0.75\n")
        bad = tmp_path / name
        bad.write_bytes(text.encode())
        for argv in (["--graph-tails", bad, "--limit-tails", good],
                     ["--graph-tails", good, "--limit-tails", bad]):
            assert cli.main(["compare", *map(str, argv)]) == 1
            assert capsys.readouterr().err == f"error: {bad}: line {line}: NaN value\n"

    def test_compare_nan_pools_not_ranked(self, tmp_path, capsys):
        # one NaN against two once printed a KS of 1/3 and exited 0
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("value\n0.5\nnan\n0.25\n")
        b.write_text("value\nnan\n0.5\nnan\n")
        assert cli.main(["compare", "--graph-tails", str(a), "--limit-tails", str(b)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {a}: line 3: NaN value\n"

    @pytest.mark.parametrize("row", ["zz,1", "0a,-3", "0b,2"])
    def test_compare_malformed_census_named(self, tmp_path, capsys, row):
        good = tmp_path / "good.csv"
        good.write_text("code_hex,count\n0a,3\n0b,5\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(f"code_hex,count\n0b,5\n{row}\n")
        for argv in (["--census-a", bad, "--census-b", good],
                     ["--census-a", good, "--census-b", bad]):
            rc = cli.main(["compare", *map(str, argv)])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: line 3: ") and err.count("\n") == 1

    def test_limit_sample_census_mode(self, tmp_path):
        out = tmp_path / "lc.csv"
        rc = cli.main(["limit-sample", "--sampler", "gw", "--mode", "census",
                       "--law", json.dumps(DCM_LAW), "--M", "500", "--k", "1",
                       "--seed", "5", "--output", str(out)])
        assert rc == 0
        assert out.read_text().startswith("code_hex,count")

    def test_census_sample_zero_rejected_by_census(self, tmp_path, capsys):
        g, out = tmp_path / "g.txt", tmp_path / "c.csv"
        cli.main(["generate", "--model", "dcm", "--law", json.dumps(DCM_LAW),
                  "--n", "50", "--seed", "2", "--output", str(g)])
        capsys.readouterr()
        assert cli.main(["census", "--graph", str(g), "--k", "1", "--sample", "0",
                         "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: sample_count must be in [1, 50]\n"
        assert not out.exists()

    def test_limit_sample_tree_needs_no_M(self, tmp_path):
        argv = ["limit-sample", "--sampler", "gw", "--mode", "tree", "--law",
                json.dumps(DCM_LAW), "--depth", "3", "--seed", "4", "--output"]
        assert cli.main([*argv, str(tmp_path / "a.txt")]) == 0
        assert cli.main([*argv, str(tmp_path / "b.txt"), "--M", "7"]) == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    @pytest.mark.parametrize("mode", ["pool", "census"])
    def test_limit_sample_pool_and_census_need_M(self, tmp_path, capsys, mode):
        out = tmp_path / "out"
        assert cli.main(["limit-sample", "--sampler", "gw", "--mode", mode, "--law",
                         json.dumps(DCM_LAW), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: limit-sample --mode {mode} needs --M\n"
        assert not out.exists()

    def test_verify_ok(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        cli.main(["generate", "--model", "dcm", "--law", json.dumps(DCM_LAW),
                  "--n", "300", "--seed", "6", "--output", str(g)])
        rc = cli.main(["verify", "--graph", str(g), "--c", "0.5", "--max-order", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out and "PASS mass-identity" in out

    def test_verify_builds_pull_matrix_at_most_twice(self, tmp_path, capsys, monkeypatch):
        g = tmp_path / "g.txt"
        cli.main(["generate", "--model", "dcm", "--law", json.dumps(DCM_LAW),
                  "--n", "300", "--seed", "6", "--output", str(g)])
        builds = counted_systems(monkeypatch)
        capsys.readouterr()
        rc = cli.main(["verify", "--graph", str(g), "--c", "0.5", "--max-order", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert [f"PASS truncation-bound-N{N}" in out for N in range(8)] == [True] * 7 + [False]
        assert builds == [300]  # the exact solve's, which every check reads

    @pytest.mark.parametrize("argv", [
        ["pagerank", "--c", "0.5", "--N", "6", "--output", "scores.csv"],
        ["verify", "--c", "0.5", "--max-order", "6"],
    ])
    def test_one_pull_matrix_per_command(self, tmp_path, capsys, monkeypatch, argv):
        g = tmp_path / "g.txt"
        cli.main(["generate", "--model", "dcm", "--law", json.dumps(DCM_LAW),
                  "--n", "300", "--seed", "6", "--output", str(g)])
        builds = counted_systems(monkeypatch)
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        assert cli.main([argv[0], "--graph", str(g), *argv[1:]]) == 0
        assert builds == [300]

    @pytest.mark.parametrize("argv", [
        ["pagerank", "--c", "0.5", "--N", "20", "--output", "scores.csv"],
        ["verify", "--c", "0.5", "--max-order", "20"],
    ])
    def test_truncation_checks_run_on_the_solve_pass(self, tmp_path, monkeypatch, argv):
        # every order's gap comes from the solve's own iterates: max(iterations,
        # 20) mat-vecs in all, not a further 20 to rebuild R^(0), ..., R^(20)
        g = tmp_path / "g.txt"
        cli.main(["generate", "--model", "dcm", "--law", json.dumps(DCM_LAW),
                  "--n", "300", "--seed", "6", "--output", str(g)])
        matvecs = counted_matvecs(monkeypatch)
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        assert cli.main([argv[0], "--graph", str(g), *argv[1:]]) == 0
        monkeypatch.undo()
        exact = cli.pr.solve_pagerank(cli.read_edgelist(g), cli.pr.PageRankParams(c=0.5))
        assert len(matvecs) == max(exact.iterations, 20)

    @pytest.mark.parametrize("N", [6, 200])
    def test_truncated_pagerank_runs_the_exact_solve_only(self, tmp_path, monkeypatch, N):
        # R^(N) comes out of the exact solve: max(iterations, N) mat-vecs in all
        g = tmp_path / "g.txt"
        cli.main(["generate", "--model", "dcm", "--law", json.dumps(DCM_LAW),
                  "--n", "300", "--seed", "6", "--output", str(g)])
        matvecs = counted_matvecs(monkeypatch)
        out = tmp_path / "s.csv"
        assert cli.main(["pagerank", "--graph", str(g), "--c", "0.5", "--N", str(N),
                         "--output", str(out)]) == 0
        monkeypatch.undo()
        exact = cli.pr.solve_pagerank(cli.read_edgelist(g), cli.pr.PageRankParams(c=0.5))
        assert 6 < exact.iterations < 200
        assert len(matvecs) == max(exact.iterations, N)
        truncated = cli.pr.pagerank_truncated(cli.read_edgelist(g),
                                              cli.pr.PageRankParams(c=0.5), N)
        assert np.array_equal(cli.pr.read_scores_csv(out), truncated.values)

    def test_generalized_pagerank_ignores_the_damping_flag(self, tmp_path):
        # --c is unused by a (C, B) solve, so an invalid value does not stop it
        rng = np.random.default_rng(4)
        g = tmp_path / "g.txt"
        cli.main(["generate", "--model", "dcm", "--law", json.dumps(DCM_LAW),
                  "--n", "200", "--seed", "6", "--output", str(g)])
        np.savetxt(tmp_path / "C.txt", rng.uniform(0.0, 0.8, 200))
        np.savetxt(tmp_path / "B.txt", rng.exponential(0.2, 200))
        weights = ["--c-values", str(tmp_path / "C.txt"), "--b-values", str(tmp_path / "B.txt")]
        for c in ("1.5", "0.85"):
            assert cli.main(["pagerank", "--graph", str(g), "--c", c, *weights,
                             "--output", str(tmp_path / f"s{c}.csv")]) == 0
        for suffix in ("", ".meta.json"):
            assert ((tmp_path / f"s1.5.csv{suffix}").read_bytes()
                    == (tmp_path / f"s0.85.csv{suffix}").read_bytes())

    def test_missing_graph_is_operational_error(self, capsys):
        rc = cli.main(["pagerank", "--graph", "/nonexistent/g.txt", "--c", "0.5"])
        assert rc == 1

    def test_verify_violation_exit_code(self, tmp_path, capsys, monkeypatch):
        g = tmp_path / "g.txt"
        cli.main(["generate", "--model", "dcm", "--law", json.dumps(DCM_LAW),
                  "--n", "100", "--seed", "8", "--output", str(g)])

        def broken_checks(*args, **kwargs):
            yield "truncation-bound-N0", "synthetic violation", None

        monkeypatch.setattr(cli.pr, "check_invariants", broken_checks)
        capsys.readouterr()
        rc = cli.main(["verify", "--graph", str(g), "--c", "0.5", "--max-order", "2"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_INVARIANT
        assert "FAIL truncation-bound-N0: synthetic violation" in out

    def test_verify_negative_order_rejected_like_pagerank(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        cli.main(["generate", "--model", "dcm", "--law", json.dumps(DCM_LAW),
                  "--n", "100", "--seed", "8", "--output", str(g)])
        capsys.readouterr()
        scores = tmp_path / "s.csv"
        for argv in (["verify", "--graph", str(g), "--max-order", "-1"],
                     ["pagerank", "--graph", str(g), "--N", "-1", "--output", str(scores)]):
            rc = cli.main(argv)
            captured = capsys.readouterr()
            assert rc == 1 and captured.out == ""
            assert "truncation order must be >= 0, got -1" in captured.err
        assert not scores.exists()


class TestConfigValidation:
    def test_bad_damping_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg, pagerank={"c": 1.2})
        rc = cli.main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert rc == 1
        assert "pagerank.c" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", [0, -3])
    def test_worker_count_below_one_rejected(self, tmp_path, threads):
        cfg = tmp_path / "config.json"
        write_config(cfg, threads=threads)
        with pytest.raises(ConfigError, match=f"threads: must be >= 1, got {threads}"):
            cli.validate_config(json.loads(cfg.read_text()))
        write_config(cfg)
        with pytest.raises(ConfigError, match=f"--threads: must be >= 1, got {threads}"):
            cli.run_experiment(cfg, tmp_path / "out", threads=threads)
        assert not (tmp_path / "out").exists()

    def test_descending_sizes_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg, sizes=[100, 50])
        rc = cli.main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert rc == 1
        assert "sizes" in capsys.readouterr().err

    @pytest.mark.parametrize("override,message", [
        ({"sizes": [200, 200]}, "sizes: sizes must be strictly ascending"),
        ({"sizes": [100, 200, 200]}, "sizes: sizes must be strictly ascending"),
        ({"comparison": {"census_depths": [1, 1]}},
         "comparison.census_depths: depths must be distinct"),
        ({"comparison": {"census_depths": [2, 0, 2]}},
         "comparison.census_depths: depths must be distinct"),
    ])
    def test_repeated_sizes_and_depths_rejected(self, tmp_path, capsys, override, message):
        # a repeated size or depth would overwrite its files and merge its timings
        cfg = tmp_path / "config.json"
        write_config(cfg, **override)
        with pytest.raises(ConfigError, match=message):
            cli.validate_config(json.loads(cfg.read_text()))
        rc = cli.main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_irg_nan_theta_rejected(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        rc = cli.main(["generate", "--model", "irg", "--n", "50", "--w-out", "2",
                       "--w-in", "2", "--theta", "nan", "--output", str(out)])
        assert rc == 1
        assert "theta" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model,limit,field", [
        ({"name": "irg", "w_out": 2.0, "w_in": 2.0}, {}, "irg model"),
        ({"name": "irg"}, {"sampler": "gw"}, "irg model"),
        ({"name": "dcm", "law": DCM_LAW}, {"sampler": "polya"}, "limit.sampler"),
        ({"name": "ctbp"}, {"sampler": "fixed_point"}, "limit.sampler"),
        ({"name": "dcm", "law": DCM_LAW}, {"sampler": "bogus"}, "limit.sampler"),
    ])
    def test_model_without_sampler_rejected_before_output(self, tmp_path, capsys,
                                                          model, limit, field):
        cfg = tmp_path / "config.json"
        write_config(cfg, model=model, limit=limit)
        rc = cli.main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert rc == 1
        assert field in capsys.readouterr().err
        with pytest.raises(ConfigError, match=field):
            cli.run_experiment(cfg, tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_sampler_spellings_alike(self):
        from pagerank_limits.generators import RngStream

        model = {"name": "dcm", "law": cli._parse_law(DCM_LAW, "law")}
        a, b = (limit_law(s, model).pool(0.5, 4, 200, RngStream(1).generator())
                for s in ("fixed_point", "fixed-point"))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("override,field", [
        ({"model": {"name": "dpa", "m": 2.5}}, "model.m"),
        ({"sizes": [100.7]}, "sizes"),
        ({"pagerank": {"c": 0.5, "N": 3.9}}, "pagerank.N"),
        ({"limit": {"M": 2.7}}, "limit.M"),
        ({"limit": {"depth": 3.9}}, "limit.depth"),
    ])
    def test_fractional_integers_rejected(self, tmp_path, capsys, override, field):
        cfg = tmp_path / "config.json"
        write_config(cfg, **override)
        rc = cli.main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert rc == 1
        assert f"{field}: expected an integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_integral_floats_accepted(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, sizes=[3e2, 8e2], limit={"sampler": "gw", "M": 4e3, "depth": 8.0})
        parsed = cli.load_config(cfg)
        assert parsed["sizes"] == [300, 800]
        assert parsed["limit"]["M"] == 4000 and parsed["limit"]["depth"] == 8
        assert all(type(v) is int for v in (*parsed["sizes"], parsed["limit"]["M"]))

    def test_bad_law_named(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg, model={"name": "dcm", "law": [[1, 1, 0.4]]})
        rc = cli.main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert rc == 1
        assert "model.law" in capsys.readouterr().err


class TestRunExperiment:
    def test_end_to_end(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        record, code = cli.run_experiment(cfg, tmp_path / "out")
        assert code == 0 and record["status"] == "OK"
        out = tmp_path / "out"
        for name in ("config.json", "graph_300.txt", "graph_800.txt",
                     "scores_300.csv", "scores_800.csv", "census_300_1.csv",
                     "limit_pool.csv", "limit_census_1.csv", "record.json"):
            assert (out / name).exists(), name
        rec = json.loads((out / "record.json").read_text())
        for entry in rec["per_size"]:
            assert entry["gap_ok"] and entry["mass_ok"] and entry["lower_bound_ok"]
            assert 0.0 <= entry["ks_to_limit"] <= 1.0
            assert entry["mean_gap"] <= entry["gap_bound"] + 1e-10
            assert abs(entry["sum_R_over_n"] - 1.0) < 1e-8

    def test_determinism(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        _, code1 = cli.run_experiment(cfg, tmp_path / "a")
        _, code2 = cli.run_experiment(cfg, tmp_path / "b")
        assert code1 == code2 == 0
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files_a == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in files_a:
            if name == "record.json":
                ra = json.loads((tmp_path / "a" / name).read_text())
                rb = json.loads((tmp_path / "b" / name).read_text())
                ra.pop("timings"), rb.pop("timings")
                for ea, eb in zip(ra["per_size"], rb["per_size"]):
                    ea.pop("seconds"), eb.pop("seconds")
                assert ra == rb
            else:
                assert (tmp_path / "a" / name).read_bytes() == \
                    (tmp_path / "b" / name).read_bytes(), name

    def test_census_timings_recorded(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, sizes=[200, 300], comparison={"census_depths": [0, 1]})
        _, code = cli.run_experiment(cfg, tmp_path / "out")
        timings = json.loads((tmp_path / "out" / "record.json").read_text())["timings"]
        assert code == 0
        by_size = timings["census"]
        assert sorted(by_size) == ["200", "300"]
        for per_depth in [*by_size.values(), timings["census_limit"]]:
            assert sorted(per_depth) == ["0", "1"]
            assert all(isinstance(t, float) and t >= 0.0 for t in per_depth.values())

    def test_no_census_depths(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, sizes=[300], comparison={"census_depths": []})
        record, code = cli.run_experiment(cfg, tmp_path / "out")
        assert code == 0 and record["status"] == "OK"
        assert [(e["census_tv"], e["census_paths"]) for e in record["per_size"]] == [({}, {})]
        assert record["timings"]["census"] == {"300": {}}
        assert record["timings"]["census_limit"] == {}
        assert list((tmp_path / "out").glob("*census*")) == []

    def test_census_depths_match_one_census_per_depth(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, comparison={"census_depths": [2, 0, 1]})
        out = tmp_path / "out"
        record, code = cli.run_experiment(cfg, out)
        assert code == 0 and record["status"] == "OK"
        exact = 0
        for entry in record["per_size"]:
            n = entry["n"]
            g = read_edgelist(out / f"graph_{n}.txt")
            assert list(entry["census_tv"]) == list(entry["census_paths"]) == ["2", "0", "1"]
            for k in (2, 0, 1):
                cen = census(g, k)
                write_census_csv(cen, tmp_path / "want.csv")
                assert (out / f"census_{n}_{k}.csv").read_bytes() == \
                    (tmp_path / "want.csv").read_bytes()
                assert entry["census_paths"][str(k)] == cen.paths
                limit = read_census_csv(out / f"limit_census_{k}.csv", k)
                assert entry["census_tv"][str(k)] == tv_distance(cen, limit)
                exact += cen.paths["exact"]
        assert exact > 0  # some roots take the exact path

    def test_invariant_violation_exit_code(self, tmp_path, monkeypatch):
        cfg = tmp_path / "config.json"
        write_config(cfg, sizes=[200])

        def broken_checks(*args, **kwargs):
            yield "truncation-bound-N0", "synthetic violation", None

        monkeypatch.setattr(cli.pr, "check_invariants", broken_checks)
        record, code = cli.run_experiment(cfg, tmp_path / "out")
        assert code == cli.EXIT_INVARIANT
        assert record["status"] == "FAILED"
        rec = json.loads((tmp_path / "out" / "record.json").read_text())
        assert rec["status"] == "FAILED"
        assert rec["failures"][0]["stage"] == "size-200"

    def test_generalized_run(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, sizes=[400], pagerank={
            "c": 0.85, "N": 15, "tol": 1e-12,
            "generalized": {"c_law": {"dist": "uniform", "low": 0.0, "high": 0.85},
                            "b_law": {"dist": "exponential", "mean": 0.15}},
        }, limit={"sampler": "fixed_point", "M": 3000, "depth": 15})
        record, code = cli.run_experiment(cfg, tmp_path / "out")
        assert code == 0
        entry = record["per_size"][0]
        assert entry["gap_ok"] and 0.0 <= entry["ks_to_limit"] <= 1.0

    def test_generalized_run_writes_the_standard_censuses(self, tmp_path):
        # censuses do not depend on (C, B), so they are the standard run's
        comparison = {"census_depths": [1, 2]}
        write_config(tmp_path / "std.json", sizes=[300], comparison=comparison)
        write_config(tmp_path / "gen.json", sizes=[300], comparison=comparison, pagerank={
            "c": 0.5, "N": 8, "tol": 1e-12,
            "generalized": {"c_law": {"dist": "uniform", "low": 0.0, "high": 0.5},
                            "b_law": {"dist": "exponential", "mean": 0.5}}})
        std, code_std = cli.run_experiment(tmp_path / "std.json", tmp_path / "std")
        gen, code_gen = cli.run_experiment(tmp_path / "gen.json", tmp_path / "gen")
        assert code_std == code_gen == 0
        names = sorted(p.name for p in (tmp_path / "gen").glob("*census_*.csv"))
        assert names == ["census_300_1.csv", "census_300_2.csv",
                         "limit_census_1.csv", "limit_census_2.csv"]
        for name in names:
            assert (tmp_path / "gen" / name).read_bytes() == \
                (tmp_path / "std" / name).read_bytes()
        for key in ("census_tv", "census_paths"):
            assert gen["per_size"][0][key] == std["per_size"][0][key]

    def test_generalized_run_checks_the_mass_identity(self, tmp_path, monkeypatch):
        cfg = tmp_path / "config.json"
        write_config(cfg, sizes=[400], pagerank={
            "c": 0.85, "N": 15, "tol": 1e-12,
            "generalized": {"c_law": {"dist": "uniform", "low": 0.0, "high": 0.85},
                            "b_law": {"dist": "exponential", "mean": 0.15}},
        }, limit={"sampler": "fixed_point", "M": 3000, "depth": 15})
        record, code = cli.run_experiment(cfg, tmp_path / "ok")
        assert code == 0 and record["per_size"][0]["mass_ok"] is True
        solve = cli.pr.solve_pagerank

        def perturbed(*args, **kwargs):
            vec = solve(*args, **kwargs)
            vec.values = vec.values.copy()
            vec.values[3] += 1e-6
            return vec

        monkeypatch.setattr(cli.pr, "solve_pagerank", perturbed)
        record, code = cli.run_experiment(cfg, tmp_path / "bad")
        assert code == cli.EXIT_INVARIANT and record["status"] == "FAILED"
        assert record["failures"] == [
            {"stage": "size-400", "error": record["failures"][0]["error"]}]
        assert record["failures"][0]["error"].startswith("mass identity failed at n=400")

    def test_record_holds_exact_solve_iterations_and_residual(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        record, code = cli.run_experiment(cfg, tmp_path / "out")
        assert code == 0
        params = cli.pr.PageRankParams(c=0.5, tol=1e-12)
        saved = json.loads((tmp_path / "out" / "record.json").read_text())
        for entry in saved["per_size"]:
            g = cli.read_edgelist(tmp_path / "out" / f"graph_{entry['n']}.txt")
            exact = cli.pr.solve_pagerank(g, params)
            assert entry["iterations"] == exact.iterations
            assert entry["residual"] == exact.residual

    def test_ctbp_run(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, model={"name": "ctbp", "theta": 1.0}, sizes=[500],
                     limit={"sampler": "ctbp", "M": 2000, "depth": 10},
                     comparison={"census_depths": [0]})
        record, code = cli.run_experiment(cfg, tmp_path / "out")
        assert code == 0
        pool_meta = json.loads((tmp_path / "out" / "limit_pool.meta.json").read_text())
        assert pool_meta["alpha_star"] == pytest.approx(2.0, abs=1e-8)

    def test_ctbp_run_at_tiny_theta(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, model={"name": "ctbp", "theta": 1e-9}, sizes=[300],
                     limit={"sampler": "ctbp", "M": 500, "depth": 4},
                     comparison={"census_depths": [1]})
        record, code = cli.run_experiment(cfg, tmp_path / "out")
        assert code == 0 and record["status"] == "OK"

    def test_dpa_polya_run(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, model={"name": "dpa", "m": 2, "delta": 1.0}, sizes=[500],
                     limit={"sampler": "polya", "M": 2000, "depth": 1},
                     comparison={"census_depths": [1]})
        record, code = cli.run_experiment(cfg, tmp_path / "out")
        assert code == 0
        entry = record["per_size"][0]
        assert "1" in entry["census_tv"]

    def test_cycle_union_law_run_with_thresholds(self, tmp_path):
        # law concentrated at (1,1): every graph is a union of cycles, R == 1
        cfg = tmp_path / "config.json"
        write_config(cfg, model={"name": "dcm", "law": [[1, 1, 1.0]]}, sizes=[200],
                     pagerank={"c": 0.5, "N": 6},
                     limit={"sampler": "fixed_point", "M": 2000, "depth": 6},
                     comparison={"census_depths": [1], "thresholds": [0.5, 0.9, 1.0]})
        record, code = cli.run_experiment(cfg, tmp_path / "out")
        assert code == 0
        entry = record["per_size"][0]
        assert entry["mean_R"] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= entry["ks_to_limit"] <= 1.0
        assert entry["ccdf"]["0.9"] == 1.0 and entry["ccdf"]["1.0"] == 0.0
        assert (tmp_path / "out" / "tails_200.csv").exists()
        assert (tmp_path / "out" / "limit_tails.csv").exists()

    def test_record_census_paths(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, comparison={"census_depths": [0, 1, 2]})
        record, code = cli.run_experiment(cfg, tmp_path / "out")
        assert code == 0
        rec = json.loads((tmp_path / "out" / "record.json").read_text())
        for entry in rec["per_size"]:
            assert set(entry["census_paths"]) == {"0", "1", "2"}
            for k, paths in entry["census_paths"].items():
                assert paths["batched"] + paths["exact"] == entry["n"]
                assert paths["batched"] > 0
            assert entry["census_paths"]["0"]["exact"] == 0

    def test_limit_sample_census_mode_matches_per_tree(self, tmp_path):
        from _oracles import sample_gw_trees, tree_census
        from pagerank_limits.census import NeighborhoodCensus, write_census_csv
        from pagerank_limits.generators import RngStream

        out = tmp_path / "lc.csv"
        assert cli.main(["limit-sample", "--sampler", "gw", "--mode", "census",
                         "--law", json.dumps(DCM_LAW), "--M", "2000", "--k", "2",
                         "--seed", "5", "--output", str(out)]) == 0
        law = cli._parse_law(DCM_LAW, "law")
        rng = RngStream(5, cli.STREAM_LIMITS).generator()
        counts = tree_census(sample_gw_trees(law, 2, 2000, rng), 2)
        write_census_csv(NeighborhoodCensus(2, counts, 2000), tmp_path / "want.csv")
        assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_limit_sample_tree_mode(self, tmp_path):
        out = tmp_path / "tree.txt"
        rc = cli.main(["limit-sample", "--sampler", "gw", "--mode", "tree",
                       "--law", json.dumps(DCM_LAW), "--M", "1", "--depth", "2",
                       "--seed", "3", "--output", str(out)])
        assert rc == 0
        from pagerank_limits.graph import read_edgelist

        g = read_edgelist(out)  # mark comments are skipped by the parser
        assert g.n >= 1 and "# mark 0 " in out.read_text()


# limit-sample arguments per registered sampler name
LIMIT_ARGS = {
    "fixed_point": ["--law", json.dumps(DCM_LAW)],
    "fixed-point": ["--law", json.dumps(DCM_LAW)],
    "gw": ["--law", json.dumps(DCM_LAW)],
    "ctbp": ["--theta", "1.5"],
    "polya": ["--m", "2", "--delta", "1.0"],
}


def test_limit_args_cover_the_registry():
    assert set(LIMIT_ARGS) == set(LIMIT_LAWS)


@pytest.mark.parametrize("M", [0, -1])
@pytest.mark.parametrize("sampler", list(LIMIT_LAWS))
def test_limit_sample_rejects_empty_pools(tmp_path, capsys, sampler, M):
    out = tmp_path / "pool.csv"
    assert cli.main(["limit-sample", "--sampler", sampler, "--mode", "pool",
                     "--M", str(M), "--output", str(out), *LIMIT_ARGS[sampler]]) == 1
    assert capsys.readouterr().err == f"error: pool size must be >= 1, got {M}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["pool", "census", "tree"])
@pytest.mark.parametrize("sampler", list(LIMIT_LAWS))
def test_limit_sample_rejects_negative_depth(tmp_path, capsys, sampler, mode):
    out = tmp_path / "out"
    assert cli.main(["limit-sample", "--sampler", sampler, "--mode", mode, "--M", "5",
                     "--depth", "-3", "--output", str(out), *LIMIT_ARGS[sampler]]) == 1
    assert capsys.readouterr().err == "error: depth must be >= 0, got -3\n"
    assert list(tmp_path.iterdir()) == []


def test_limit_law_error_lists_the_registry(monkeypatch):
    monkeypatch.setitem(LIMIT_LAWS, "new_law", ("irg", lambda model: None))
    with pytest.raises(ConfigError) as err:
        limit_law("nope", {"name": "dcm"})
    for sampler, (model, _) in LIMIT_LAWS.items():
        assert f"{model}: " in str(err.value) and sampler in str(err.value)


# commands whose flags share names: --m and --output default differently, and
# each sets one shared flag (--seed, --m) that the other leaves at its default
SHARED_FLAGS = {
    "generate": ["generate", "--model", "dpa", "--n", "300", "--seed", "4"],
    "limit-sample": ["limit-sample", "--sampler", "polya", "--M", "300", "--depth", "3",
                     "--m", "3"],
}


class TestOneParser:
    """``main`` builds its parser once a process; no parse leaks into the next."""

    @staticmethod
    def _outputs(path, monkeypatch, capsys, commands):
        """(stdout of each command, bytes of each file written) for ``commands``
        run in order in the new directory ``path``."""
        path.mkdir()
        monkeypatch.chdir(path)
        printed = []
        for argv in commands:
            assert cli.main(argv) == 0
            printed.append(capsys.readouterr().out)
        return printed, {f.name: f.read_bytes() for f in path.iterdir()}

    def test_main_builds_the_parser_once(self, tmp_path, monkeypatch, capsys):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        self._outputs(tmp_path / "out", monkeypatch, capsys,
                      [*SHARED_FLAGS.values(), SHARED_FLAGS["generate"]])
        assert progs.count("pagerank-limits") == 1

    def test_shared_flags_alike_in_either_order_and_alone(self, tmp_path, monkeypatch, capsys):
        alone = {}
        for name, argv in SHARED_FLAGS.items():
            cli.build_parser.cache_clear()
            alone[name] = self._outputs(tmp_path / name, monkeypatch, capsys, [argv])
        for order in (["generate", "limit-sample"], ["limit-sample", "generate"]):
            printed, files = self._outputs(tmp_path / "-".join(order), monkeypatch, capsys,
                                           [SHARED_FLAGS[name] for name in order])
            assert printed == [alone[name][0][0] for name in order]
            assert files == {**alone["generate"][1], **alone["limit-sample"][1]}

    def test_sampler_accepts_a_law_registered_after_the_first_call(self, tmp_path,
                                                                   monkeypatch, capsys):
        def argv(sampler):
            return ["limit-sample", "--sampler", sampler, "--M", "200", "--depth", "3",
                    *LIMIT_ARGS["gw"]]

        _, want = self._outputs(tmp_path / "gw", monkeypatch, capsys, [argv("gw")])
        monkeypatch.setitem(LIMIT_LAWS, "gw-copy", LIMIT_LAWS["gw"])
        _, got = self._outputs(tmp_path / "copy", monkeypatch, capsys, [argv("gw-copy")])
        assert got["pool.csv"] == want["pool.csv"]


def _library_law(sampler):
    """(law, pool, sidecar fields) composed directly from the library and
    the oracles, independently of the law registry: dcm trees and forests
    come from the node-at-a-time oracle and its pools from the level pool
    of ``LimitLaw.gw`` or from ``solve_fixed_point_mc``, the other laws
    from their ``LimitLaw`` constructors."""
    from pagerank_limits import limits as lm
    from pagerank_limits.generators import BiDegreeLaw

    law = BiDegreeLaw([tuple(row) for row in DCM_LAW])
    if sampler == "gw":
        return GwOracleLaw(law), lm.LimitLaw.gw(law).pool, {"law": DCM_LAW}
    if sampler in ("fixed_point", "fixed-point"):
        return (GwOracleLaw(law),
                (lambda c, depth, M, r, **weights:
                 lm.solve_fixed_point_mc(law, c, depth, M, r, **weights)),
                {"law": DCM_LAW})
    if sampler == "ctbp":
        limit = lm.LimitLaw.ctbp(1.5)
        return limit, limit.pool, {"theta": 1.5, "alpha_star": lm.malthusian(1.5)}
    limit = lm.LimitLaw.polya(2, 1.0)
    return limit, limit.pool, {"m": 2, "delta": 1.0}


class TestLimitLawOutputs:
    """Every limit-sample mode and the run pipeline's limit files equal the
    library composition on the limits stream."""

    def _pool_bytes(self, tmp_path, name, sampler, depth):
        out = tmp_path / name
        assert cli.main(["limit-sample", "--sampler", sampler, "--M", "300",
                         "--depth", str(depth), "--c", "0.6", "--seed", "9",
                         "--output", str(out), *LIMIT_ARGS[sampler]]) == 0
        return out.read_bytes()

    def test_fixed_point_spellings_write_alike(self, tmp_path):
        assert (self._pool_bytes(tmp_path, "a", "fixed_point", 4)
                == self._pool_bytes(tmp_path, "b", "fixed-point", 4))

    def test_ctbp_pool_ignores_depth(self, tmp_path):
        # finite trees are ranked whole, whatever the depth
        assert (self._pool_bytes(tmp_path, "a", "ctbp", 1)
                == self._pool_bytes(tmp_path, "b", "ctbp", 6))

    @pytest.mark.parametrize("mode", ["pool", "census", "tree"])
    @pytest.mark.parametrize("sampler", list(LIMIT_LAWS))
    def test_limit_sample_matches_library(self, tmp_path, sampler, mode):
        from pagerank_limits.census import census_limit, write_census_csv
        from pagerank_limits.generators import RngStream
        from pagerank_limits.limits import write_pool_csv, write_tree_edgelist

        seed, M, depth, c = 9, 300, 3, 0.6
        out, want = tmp_path / "out", tmp_path / "want"
        assert cli.main(["limit-sample", "--sampler", sampler, "--mode", mode,
                         "--M", str(M), "--depth", str(depth), "--k", "2",
                         "--c", str(c), "--seed", str(seed), "--output", str(out),
                         *LIMIT_ARGS[sampler]]) == 0
        law, pool, fields = _library_law(sampler)
        rng = RngStream(seed, cli.STREAM_LIMITS).generator()
        if mode == "tree":
            write_tree_edgelist(law.tree(depth, rng), want)
        elif mode == "census":
            write_census_csv(census_limit(law, 2, M, rng), want)
        else:
            write_pool_csv(pool(c, depth, M, rng), want)
            meta = json.loads((tmp_path / "out.meta.json").read_text())
            assert meta == {"sampler": sampler, "M": M, "depth": depth, "seed": seed,
                            "c": c, **fields}
        assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("depth", [0, 3, 6])
    def test_gw_tree_matches_the_per_tree_sampler(self, tmp_path, depth):
        from pagerank_limits.generators import RngStream
        from pagerank_limits.limits import write_tree_edgelist

        law = cli._parse_law(DCM_LAW, "law")
        for seed in range(5):
            out, want = tmp_path / f"out{seed}", tmp_path / f"want{seed}"
            assert cli.main(["limit-sample", "--sampler", "gw", "--mode", "tree", "--M", "1",
                             "--depth", str(depth), "--seed", str(seed),
                             "--output", str(out), *LIMIT_ARGS["gw"]]) == 0
            rng = RngStream(seed, cli.STREAM_LIMITS).generator()
            write_tree_edgelist(sample_gw_limit(law, depth, rng), want)
            assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("sampler,model,generalized", [
        ("gw", {"name": "dcm", "law": DCM_LAW}, False),
        ("ctbp", {"name": "ctbp", "theta": 1.5}, True),
        ("polya", {"name": "dpa", "m": 2, "delta": 1.0}, True),
    ])
    def test_run_limit_files_match_library(self, tmp_path, sampler, model, generalized):
        from pagerank_limits import limits as lm
        from pagerank_limits.census import census_limit, write_census_csv
        from pagerank_limits.generators import RngStream

        seed, M, depth, c = 5, 400, 3, 0.6
        spec = {"c_law": {"dist": "uniform", "low": 0.0, "high": 0.6},
                "b_law": {"dist": "exponential", "mean": 0.4}}
        pagerank = {"c": c, "N": depth, **({"generalized": spec} if generalized else {})}
        cfg = tmp_path / "config.json"
        write_config(cfg, model=model, sizes=[100], pagerank=pagerank,
                     limit={"sampler": sampler, "M": M, "depth": depth},
                     comparison={"census_depths": [1, 2]})
        _, code = cli.run_experiment(cfg, tmp_path / "out")
        assert code == 0
        out = tmp_path / "out"

        law, pool, fields = _library_law(sampler)
        rng = RngStream(seed, cli.STREAM_LIMITS).generator()
        weights = {"c_sampler": cli.make_sampler(spec["c_law"], "c_law"),
                   "b_sampler": cli.make_sampler(spec["b_law"], "b_law")} if generalized else {}
        values = pool(c, depth, M, rng, **weights)
        lm.write_pool_csv(values, tmp_path / "want.csv")
        assert (out / "limit_pool.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes()
        # run's sidecar keeps the law's fields; the model's are in config.json
        law_fields = {k: v for k, v in fields.items() if k in ("law", "alpha_star")}
        assert json.loads((out / "limit_pool.meta.json").read_text()) == {
            "sampler": sampler, "M": M, "depth": depth, "c": c,
            "generalized": generalized, "seed": seed, **law_fields}

        limit_files = sorted(p.name for p in out.glob("limit_census_*.csv"))
        assert limit_files == ["limit_census_1.csv", "limit_census_2.csv"]
        crng = RngStream(seed, cli.STREAM_LIMITS).substream(1).generator()
        for k in (1, 2):
            write_census_csv(census_limit(law, k, M, crng), tmp_path / f"want_{k}.csv")
            assert (out / f"limit_census_{k}.csv").read_bytes() == \
                (tmp_path / f"want_{k}.csv").read_bytes()


GENERALIZED = {"c": 0.85, "N": 15, "tol": 1e-12,
               "generalized": {"c_law": {"dist": "uniform", "low": 0.0, "high": 0.85},
                               "b_law": {"dist": "exponential", "mean": 0.15}}}


class TestInvariantChecks:
    """``run``, ``pagerank`` and ``verify`` take their checks from
    ``pagerank.check_invariants``."""

    def test_generalized_run_records_the_lower_bound(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg, sizes=[400], pagerank=GENERALIZED,
                     limit={"sampler": "fixed_point", "M": 3000, "depth": 15})
        record, code = cli.run_experiment(cfg, tmp_path / "out")
        assert code == 0
        entry = json.loads((tmp_path / "out" / "record.json").read_text())["per_size"][0]
        assert entry["lower_bound_ok"] is True and entry["gap_ok"] and entry["mass_ok"]

    def test_generalized_floor_violation_fails_the_run(self, tmp_path, monkeypatch):
        cfg = tmp_path / "config.json"
        write_config(cfg, sizes=[400], pagerank=GENERALIZED,
                     limit={"sampler": "fixed_point", "M": 3000, "depth": 15})
        solve = cli.pr.solve_pagerank

        def below_floor(g, w, **kwargs):
            vec = solve(g, w, **kwargs)
            vec.values = vec.values.copy()
            vec.values[3] = np.nextafter(w.B[3], 0.0)
            return vec

        monkeypatch.setattr(cli.pr, "solve_pagerank", below_floor)
        record, code = cli.run_experiment(cfg, tmp_path / "out")
        assert code == cli.EXIT_INVARIANT and record["status"] == "FAILED"
        assert record["failures"] == [{"stage": "size-400", "error":
                                       "teleport floor failed at n=400: 1 vertices below B"}]
        assert not (tmp_path / "out" / "scores_400.csv").exists()

    def test_verify_checks_the_mass_identity_with_dangling_vertices(self, tmp_path, capsys):
        from pagerank_limits.graph import build_graph, write_edgelist

        g = build_graph([(1, 0), (2, 0), (2, 1), (3, 3), (3, 2, 2)], 5)  # 0 and 4 dangle
        path = tmp_path / "g.txt"
        write_edgelist(g, path)
        rc = cli.main(["verify", "--graph", str(path), "--c", "0.85", "--max-order", "3"])
        out = capsys.readouterr().out
        assert rc == 0 and "PASS mass-identity" in out and "mass-bound" not in out
        assert out.splitlines()[-1] == "OK: 0 violations"

    def test_pagerank_exact_exits_2_on_a_violation(self, tmp_path, capsys, monkeypatch):
        g = tmp_path / "g.txt"
        cli.main(["generate", "--model", "dcm", "--law", json.dumps(DCM_LAW),
                  "--n", "300", "--seed", "6", "--output", str(g)])
        solve = cli.pr.solve_pagerank

        def below_floor(*args, **kwargs):
            vec = solve(*args, **kwargs)
            vec.values = vec.values.copy()
            vec.values[7] = np.nextafter(0.5, 0.0)  # B = 1 - c
            return vec

        monkeypatch.setattr(cli.pr, "solve_pagerank", below_floor)
        capsys.readouterr()
        out = tmp_path / "scores.csv"
        rc = cli.main(["pagerank", "--graph", str(g), "--c", "0.5", "--output", str(out)])
        assert rc == cli.EXIT_INVARIANT
        assert capsys.readouterr().err.startswith(
            "invariant violation: teleport floor failed: 1 vertices below B")
        assert not out.exists()

    def test_generalized_pagerank_checks_and_records_the_gap(self, tmp_path):
        rng = np.random.default_rng(3)
        g = tmp_path / "g.txt"
        cli.main(["generate", "--model", "dcm", "--law", json.dumps(DCM_LAW),
                  "--n", "300", "--seed", "6", "--output", str(g)])
        np.savetxt(tmp_path / "C.txt", rng.uniform(0.0, 0.8, 300))
        np.savetxt(tmp_path / "B.txt", rng.exponential(0.2, 300))
        out = tmp_path / "s.csv"
        assert cli.main(["pagerank", "--graph", str(g), "--N", "4",
                         "--c-values", str(tmp_path / "C.txt"),
                         "--b-values", str(tmp_path / "B.txt"), "--output", str(out)]) == 0
        w = cli.pr.GeneralizedWeights(C=np.loadtxt(tmp_path / "C.txt"),
                                      B=np.loadtxt(tmp_path / "B.txt"))
        graph = cli.read_edgelist(g)
        want = cli.pr.pagerank_truncated(graph, w, 4)
        assert np.array_equal(cli.pr.read_scores_csv(out), want.values)
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert meta["order"] == 4 and meta["c_max"] == w.c_max
        assert (meta["mean_gap"], meta["gap_bound"]) == solved_truncation_gap(graph, w, 4)


class TestConfigFieldErrors:
    @pytest.mark.parametrize("override,field", [
        ({"pagerank": {"c": 0.5, "generalized": {
            "c_law": {"dist": "uniform", "low": 0}, "b_law": {"dist": "constant", "value": 1}}}},
         "pagerank.generalized.c_law.high"),
        ({"pagerank": {"c": 0.5, "generalized": {
            "c_law": {"dist": "constant", "value": "x"},
            "b_law": {"dist": "constant", "value": 1}}}},
         "pagerank.generalized.c_law.value"),
        ({"pagerank": {"c": "abc"}}, "pagerank.c"),
        ({"pagerank": {"c": 0.5, "generalized": 3}}, "pagerank.generalized"),
        ({"pagerank": [1]}, "pagerank"),
        ({"limit": [1]}, "limit"),
        ({"comparison": "x"}, "comparison"),
        ({"comparison": {"thresholds": ["a"]}}, "comparison.thresholds"),
        ({"comparison": {"census_depths": [-1]}}, "comparison.census_depths"),
    ])
    def test_named_error_and_no_output(self, tmp_path, capsys, override, field):
        cfg = tmp_path / "config.json"
        write_config(cfg, **override)
        rc = cli.main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()


class TestMalformedNumbers:
    @pytest.mark.parametrize("c_law,b_law,field", [
        ({"dist": "uniform", "low": 0, "high": 1.5}, None, "c_law"),
        ({"dist": "uniform", "low": 0, "high": 1.0}, None, "c_law"),
        ({"dist": "uniform", "low": -0.1, "high": 0.5}, None, "c_law"),
        ({"dist": "constant", "value": 1.0}, None, "c_law"),
        ({"dist": "constant", "value": float("nan")}, None, "c_law"),
        ({"dist": "exponential", "mean": 0.1}, None, "c_law"),
        (None, {"dist": "constant", "value": -1.0}, "b_law"),
        (None, {"dist": "uniform", "low": -1.0, "high": 1.0}, "b_law"),
        (None, {"dist": "constant", "value": float("inf")}, "b_law"),
    ])
    def test_unbounded_generalized_law(self, tmp_path, capsys, c_law, b_law, field):
        gen_spec = {"c_law": c_law or {"dist": "uniform", "low": 0.0, "high": 0.85},
                    "b_law": b_law or {"dist": "exponential", "mean": 0.15}}
        cfg = tmp_path / "config.json"
        write_config(cfg, pagerank={"c": 0.5, "N": 8, "generalized": gen_spec})
        rc = cli.main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: pagerank.generalized.{field}: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad", ["c", "b"])
    def test_nan_weights_rejected(self, tmp_path, capsys, bad):
        g = tmp_path / "g.txt"
        cli.main(["generate", "--model", "dcm", "--law", json.dumps(DCM_LAW),
                  "--n", "50", "--seed", "6", "--output", str(g)])
        capsys.readouterr()
        for name in "cb":
            values = np.full(50, 0.5)
            values[7] = np.nan if name == bad else 0.5
            np.savetxt(tmp_path / f"{name}.txt", values)
        rc = cli.main(["pagerank", "--graph", str(g), "--c-values", str(tmp_path / "c.txt"),
                       "--b-values", str(tmp_path / "b.txt"),
                       "--output", str(tmp_path / "s.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: C and B entries must be finite\n"
        assert not (tmp_path / "s.csv").exists()

    @staticmethod
    def _values_argv(tmp_path, flag, path):
        """Arguments that read ``path`` through ``flag``, on a 3-vertex graph;
        the other flag of the pair reads a plain three-value file."""
        plain = tmp_path / "plain.txt"
        plain.write_text("0.5\n0.5\n0.5\n")
        if flag in ("--w-out", "--w-in"):
            other = "--w-in" if flag == "--w-out" else "--w-out"
            return ["generate", "--model", "irg", "--n", "3", "--seed", "4",
                    flag, f"@{path}", other, f"@{plain}"]
        g = tmp_path / "g.txt"
        g.write_text("# n=3\n0 1\n1 2\n2 0\n")
        other = "--b-values" if flag == "--c-values" else "--c-values"
        return ["pagerank", "--graph", str(g), flag, str(path), other, str(plain)]

    @pytest.mark.parametrize("flag", ["--w-out", "--w-in", "--c-values", "--b-values"])
    def test_value_files_share_one_grammar(self, tmp_path, capsys, flag):
        commented, ragged = tmp_path / "commented.txt", tmp_path / "ragged.txt"
        commented.write_text("# w\n0.25\n\n0.5  # middle\n0.75\n")
        ragged.write_text("0.25 0.5\n0.75\n")
        (tmp_path / "bare.txt").write_text("0.25\n0.5\n0.75\n")
        outputs = []
        for path in (tmp_path / "bare.txt", commented):
            out = tmp_path / f"{path.stem}.out"
            assert cli.main([*self._values_argv(tmp_path, flag, path),
                             "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        capsys.readouterr()
        out = tmp_path / "ragged.out"
        assert cli.main([*self._values_argv(tmp_path, flag, ragged),
                         "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
        (tmp_path / "empty.txt").write_text("# no values\n")
        assert cli.main([*self._values_argv(tmp_path, flag, tmp_path / "empty.txt"),
                         "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--w-out", "--w-in", "--c-values", "--b-values"])
    def test_wrong_length_names_its_flag_and_file(self, tmp_path, capsys, flag):
        short = tmp_path / "short.txt"
        short.write_text("0.25\n0.5\n")
        out = tmp_path / "short.out"
        assert cli.main([*self._values_argv(tmp_path, flag, short), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {flag} {short}: expected 3 values, one per vertex, got 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--w-out", "--w-in", "--c-values", "--b-values"])
    def test_non_number_names_its_flag(self, tmp_path, capsys, flag):
        if flag in ("--w-out", "--w-in"):
            argv = ["generate", "--model", "irg", flag, "abc", "--n", "20",
                    "--output", str(tmp_path / "irg.txt")]
        else:
            g = tmp_path / "g.txt"
            cli.main(["generate", "--model", "dcm", "--law", json.dumps(DCM_LAW),
                      "--n", "20", "--seed", "6", "--output", str(g)])
            capsys.readouterr()
            np.savetxt(tmp_path / "ok.txt", np.full(20, 0.5))
            (tmp_path / "bad.txt").write_text("0.5\n" * 19 + "f\n")
            files = {"--c-values": "ok.txt", "--b-values": "ok.txt", flag: "bad.txt"}
            argv = ["pagerank", "--graph", str(g), "--output", str(tmp_path / "s.csv")]
            for name, file in files.items():
                argv += [name, str(tmp_path / file)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}") and err.count("\n") == 1
