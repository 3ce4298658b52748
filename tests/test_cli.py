"""Command-line interface round-trips."""

import json
import os

import pytest

from repro.cli import main
from repro.data import load_csv
from repro.storage import STORE_KINDS


@pytest.fixture()
def planted_csv(tmp_path, capsys):
    path = str(tmp_path / "planted.csv")
    assert main(["generate", "--kind", "planted", "--out", path, "--seed", "3",
                 "--scale", "0.5"]) == 0
    capsys.readouterr()
    return path


class TestGenerate:
    @pytest.mark.parametrize("kind", ["planted", "trucks"])
    def test_writes_loadable_csv(self, tmp_path, kind, capsys):
        path = str(tmp_path / f"{kind}.csv")
        assert main(["generate", "--kind", kind, "--out", path, "--scale", "0.3"]) == 0
        dataset = load_csv(path)
        assert dataset.num_points > 0
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_brinkhoff_scale(self, tmp_path, capsys):
        path = str(tmp_path / "b.csv")
        assert main(["generate", "--kind", "brinkhoff", "--out", path,
                     "--scale", "0.2"]) == 0
        assert load_csv(path).num_points > 0


class TestMine:
    def test_mine_memory(self, planted_csv, capsys):
        assert main(["mine", planted_csv, "-m", "3", "-k", "10",
                     "--eps", "10.0"]) == 0
        out = capsys.readouterr().out
        assert "convoy(s) found" in out

    @pytest.mark.parametrize("store", ["file", "rdbms", "lsmt"])
    def test_mine_stores_agree(self, planted_csv, store, capsys):
        assert main(["mine", planted_csv, "-m", "3", "-k", "10",
                     "--eps", "10.0", "--store", store]) == 0
        with_store = capsys.readouterr().out
        assert main(["mine", planted_csv, "-m", "3", "-k", "10",
                     "--eps", "10.0"]) == 0
        with_memory = capsys.readouterr().out
        assert with_store.splitlines()[:-1] == with_memory.splitlines()[:-1]

    def test_unknown_store_rejected_with_the_store_kinds(self, planted_csv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["mine", planted_csv, "-m", "3", "-k", "10",
                  "--eps", "10.0", "--store", "papyrus"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert all(repr(kind) in err for kind in STORE_KINDS)

    def test_stats_flag(self, planted_csv, capsys):
        assert main(["mine", planted_csv, "-m", "3", "-k", "10", "--eps", "10.0",
                     "--stats", "--store", "lsmt"]) == 0
        out = capsys.readouterr().out
        assert "pruning" in out and "store I/O" in out


class TestMineAlgorithms:
    """`mine --algorithm <name>` reaches the registry end to end."""

    @pytest.mark.parametrize("algorithm", ["cmc", "pccd", "vcoda"])
    def test_baselines_mine_csv(self, planted_csv, algorithm, capsys):
        assert main(["mine", planted_csv, "-m", "3", "-k", "10",
                     "--eps", "10.0", "--algorithm", algorithm]) == 0
        out = capsys.readouterr().out
        assert "convoy(s) found" in out
        assert out.count("[") >= 1  # the planted convoys are recovered

    @pytest.mark.parametrize("algorithm", ["vcoda_star", "k2hop_parallel"])
    def test_exact_algorithms_match_default(self, planted_csv, algorithm, capsys):
        assert main(["mine", planted_csv, "-m", "3", "-k", "10",
                     "--eps", "10.0", "--algorithm", algorithm]) == 0
        alternative = capsys.readouterr().out
        assert main(["mine", planted_csv, "-m", "3", "-k", "10",
                     "--eps", "10.0"]) == 0
        assert alternative == capsys.readouterr().out

    def test_extension_pattern_mines(self, planted_csv, capsys):
        assert main(["mine", planted_csv, "-m", "3", "-k", "10",
                     "--eps", "10.0", "--algorithm", "flocks"]) == 0
        assert "convoy(s) found" in capsys.readouterr().out

    def test_unknown_algorithm_rejected(self, planted_csv):
        with pytest.raises(SystemExit):
            main(["mine", planted_csv, "-m", "3", "-k", "10",
                  "--eps", "10.0", "--algorithm", "frobnicate"])

    def test_dataset_bound_algorithm_refuses_disk_store(self, planted_csv, capsys):
        assert main(["mine", planted_csv, "-m", "3", "-k", "10", "--eps",
                     "10.0", "--algorithm", "cuts", "--store", "lsmt"]) == 2
        assert "cannot mine through" in capsys.readouterr().err

    def test_algorithms_subcommand_lists_registry(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "k2hop" in out and "cmc" in out and "streaming" in out
        assert main(["algorithms", "--kind", "flock"]) == 0
        out = capsys.readouterr().out
        assert "flocks" in out and "k2hop " not in out


class TestServeQuery:
    @pytest.fixture()
    def index_dir(self, planted_csv, tmp_path, capsys):
        path = str(tmp_path / "idx")
        assert main(["serve", planted_csv, "-m", "3", "-k", "10", "--eps",
                     "10.0", "--index-dir", path, "--shards", "2x2"]) == 0
        out = capsys.readouterr().out
        assert "ingest:" in out and "persisted" in out
        return path

    def test_serve_matches_mine(self, planted_csv, tmp_path, capsys):
        path = str(tmp_path / "idx")
        assert main(["serve", planted_csv, "-m", "3", "-k", "10", "--eps",
                     "10.0", "--index-dir", path]) == 0
        served = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("[")]
        assert main(["mine", planted_csv, "-m", "3", "-k", "10",
                     "--eps", "10.0"]) == 0
        mined = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("[")]
        assert sorted(served) == sorted(mined)

    def test_index_dir_alone_persists_to_lsm(self, index_dir):
        assert "convoys.lsm" in os.listdir(index_dir)
        with open(os.path.join(index_dir, "service.json")) as fh:
            assert json.load(fh)["backend"] == "lsmt"

    def test_serve_has_no_store_flag(self, planted_csv, tmp_path, capsys):
        path = str(tmp_path / "idx")
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", planted_csv, "-m", "3", "-k", "10", "--eps",
                  "10.0", "--index-dir", path, "--store", "lsmt"])
        assert exit_info.value.code == 2
        assert "--store" in capsys.readouterr().err
        assert not os.path.exists(path)

    def test_query_time_range(self, index_dir, capsys):
        assert main(["query", index_dir, "--time", "0:1000"]) == 0
        out = capsys.readouterr().out
        assert "convoy(s)" in out and out.count("[") >= 1

    def test_query_object_and_containing(self, index_dir, capsys):
        assert main(["query", index_dir, "--time", "0:1000"]) == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("[")][0]
        oid = line.split("{")[1].split(",")[0].rstrip("}")
        assert main(["query", index_dir, "--object", oid]) == 0
        assert line in capsys.readouterr().out
        assert main(["query", index_dir, "--containing", oid]) == 0
        assert line in capsys.readouterr().out

    def test_query_region(self, index_dir, capsys):
        assert main(["query", index_dir, "--region=-1e9,-1e9,1e9,1e9"]) == 0
        assert "convoy(s)" in capsys.readouterr().out

    def test_serve_in_memory_only(self, planted_csv, capsys):
        assert main(["serve", planted_csv, "-m", "3", "-k", "10",
                     "--eps", "10.0", "--shards", "1x1"]) == 0
        out = capsys.readouterr().out
        assert "persisted" not in out

    @pytest.mark.parametrize("spec", ["two-by-two", "0x2", "2x-1"])
    def test_bad_shard_spec_rejected(self, planted_csv, spec, capsys):
        assert main(["serve", planted_csv, "-m", "3", "-k", "10",
                     "--eps", "10.0", "--shards", spec]) == 2

    def test_bad_query_args_rejected(self, index_dir, capsys):
        assert main(["query", index_dir, "--time", "10"]) == 2
        assert main(["query", index_dir, "--region=1,2,3"]) == 2
        assert main(["query", index_dir, "--containing", "1,x"]) == 2

    def test_query_missing_index_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["query", str(tmp_path / "nope"), "--time", "0:1"])


class TestInfo:
    def test_info_summarises(self, planted_csv, capsys):
        assert main(["info", planted_csv]) == 0
        out = capsys.readouterr().out
        assert "points" in out and "time range" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


class TestStats:
    @pytest.fixture(scope="class")
    def live_server(self):
        from repro.api import ConvoySession
        from repro.data import plant_convoys
        from repro.server import serve_in_background

        workload = plant_convoys(
            n_convoys=2, convoy_size=4, convoy_duration=15, n_noise=10,
            duration=40, seed=5,
        )
        service = (
            ConvoySession.from_dataset(workload.dataset)
            .params(m=3, k=10, eps=workload.eps)
            .serve()
        )
        with serve_in_background(service, dataset=workload.dataset) as handle:
            yield handle

    def test_stats_pretty_prints_server_state(self, live_server, capsys):
        assert main(["stats", "--host", live_server.host,
                     "--port", str(live_server.port)]) == 0
        out = capsys.readouterr().out
        assert f"server {live_server.host}:{live_server.port}" in out
        assert "requests" in out and "cache:" in out and "index:" in out

    def test_stats_raw_prints_exposition(self, live_server, capsys):
        assert main(["stats", "--host", live_server.host,
                     "--port", str(live_server.port), "--raw"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_server_requests_total counter" in out
        assert "repro_mining_phase_seconds_bucket" in out

    def test_stats_unreachable_server_fails_cleanly(self, capsys):
        assert main(["stats", "--port", "1"]) == 2
        assert "cannot fetch stats" in capsys.readouterr().err
