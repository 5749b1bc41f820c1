"""End-to-end command surface: files in, reports and manifests out."""

import json
from pathlib import Path

import pytest

from mhka.cli import main, run_from_manifest


def run(*argv):
    code = main([str(a) for a in argv])
    assert code == 0, f"command failed: {argv}"


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def synth_args(out, n=12, extra=()):
    return ("synth", "--n", n, "--n_dev", 6, "--n_test", 6, "--seed", 7,
            "--rules_per_instance", 2, "--out", out, *extra)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    run(*synth_args(out))
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset):
    out = tmp_path_factory.mktemp("run")
    run("train", "--data", dataset, "--out", out, "--seed", 3,
        "--d_model", 8, "--n_heads", 2, "--ctx_layers", 1, "--know_layers", 1,
        "--reason_layers", 1, "--d_ff", 16, "--epochs", 1, "--batch_size", 4,
        "--lr", "1e-3")
    return out


class TestSynth:
    def test_writes_all_files(self, dataset):
        for task in ("alpha", "cip"):
            for split in ("train", "dev", "test"):
                assert (dataset / f"{task}_{split}.jsonl").exists()
                assert (dataset / f"knowledge_{task}_{split}.jsonl").exists()
                assert (dataset / f"decisive_{task}_{split}.jsonl").exists()
        assert (dataset / "antonyms.json").exists()
        assert (dataset / "manifest.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(*synth_args(a, n=10))
        run(*synth_args(b, n=10))
        for name in ("alpha_train.jsonl", "knowledge_cip_test.jsonl", "antonyms.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_split_sizes(self, dataset):
        assert len(read_jsonl(dataset / "alpha_train.jsonl")) == 12
        assert len(read_jsonl(dataset / "alpha_dev.jsonl")) == 6
        assert len(read_jsonl(dataset / "cip_test.jsonl")) == 6


class TestTrainEval:
    def test_train_artifacts(self, trained):
        assert (trained / "checkpoint.npz").exists()
        assert (trained / "vocab.txt").exists()
        rows = read_jsonl(trained / "metrics.jsonl")
        assert any(r["split"] == "test" for r in rows)
        assert any(r["split"] == "dev" for r in rows)

    def test_eval_reads_checkpoint(self, dataset, trained, tmp_path):
        out = tmp_path / "eval"
        run("eval", "--data", dataset, "--checkpoint", trained / "checkpoint.npz",
            "--out", out, "--split", "test")
        (row,) = read_jsonl(out / "eval.jsonl")
        assert 0.0 <= row["accuracy"] <= 1.0
        assert row["n"] == 6

    def test_manifest_replay_is_byte_identical(self, dataset, trained, tmp_path):
        out = tmp_path / "replayed"
        original = (trained / "metrics.jsonl").read_bytes()
        run_from_manifest(trained / "manifest.json", out=out)
        assert (out / "metrics.jsonl").read_bytes() == original

    @pytest.mark.parametrize("form", ["separate", "equals"])
    def test_manifest_replay_redirects_either_out_form(self, tmp_path, form):
        first = tmp_path / "first"
        out_args = ("--out", first) if form == "separate" else (f"--out={first}",)
        run(*synth_args(first, n=8)[:-2], *out_args)
        replayed = tmp_path / "replayed"
        assert run_from_manifest(first / "manifest.json", out=replayed) == 0
        name = "alpha_train.jsonl"
        assert (replayed / name).read_bytes() == (first / name).read_bytes()


class TestPerturbInspect:
    def test_perturb_identity(self, dataset, trained, tmp_path):
        out = tmp_path / "p"
        run("perturb", "--data", dataset, "--checkpoint", trained / "checkpoint.npz",
            "--out", out, "--mode", "drop_random", "--k", 0)
        rows = read_jsonl(out / "perturb.jsonl")
        assert rows[1]["delta_points"] == 0.0

    def test_perturb_with_antonyms(self, dataset, trained, tmp_path):
        out = tmp_path / "p2"
        run("perturb", "--data", dataset, "--checkpoint", trained / "checkpoint.npz",
            "--out", out, "--mode", "replace_relevant",
            "--antonyms", dataset / "antonyms.json")
        rows = read_jsonl(out / "perturb.jsonl")
        assert len(rows) == 2

    def test_inspect_report_fields(self, dataset, trained, tmp_path):
        out = tmp_path / "i"
        run("inspect", "--data", dataset, "--checkpoint", trained / "checkpoint.npz",
            "--out", out, "--split", "test", "--k", 2)
        rows = read_jsonl(out / "attention.jsonl")
        body = [r for r in rows if "instance_id" in r]
        assert body
        for row in body:
            assert {"instance_id", "rule_index", "relation",
                    "attention_mass", "similarity"} <= set(row)


class TestOtherCommands:
    def test_gradcheck_passes(self, tmp_path):
        out = tmp_path / "g"
        run("gradcheck", "--out", out, "--seed", 0)
        payload = json.loads((out / "gradcheck.json").read_text())
        assert payload["pass"] is True
        assert payload["max_rel_error"] < 1e-3

    def test_build_cip(self, tmp_path):
        rewrites = tmp_path / "rw.jsonl"
        rows = []
        for i in range(6):
            invariant = i % 3 != 0
            rows.append({
                "id": f"r{i}", "s1": "Bob went home.", "s2": "It rained hard.",
                "s3": "He took the bus.", "s4": "The bus was slow.",
                "s5": "He got home late.",
                "s2_cf": f"The sun was out {i}.",
                "s3_cf": "He took the bus." if invariant else f"He walked home {i}.",
                "s4_cf": "x", "s5_cf": "y",
            })
        rewrites.write_text("\n".join(json.dumps(r) for r in rows))
        out = tmp_path / "cip"
        run("build-cip", "--data", rewrites, "--out", out, "--seed", 1)
        built = read_jsonl(out / "cip_built.jsonl")
        labels = [r["label"] for r in built]
        assert labels.count("yes") == labels.count("no") == 2

    def test_lowresource_rows(self, dataset, tmp_path):
        out = tmp_path / "lr"
        run("lowresource", "--data", dataset, "--out", out, "--seed", 2,
            "--fractions", "50,100", "--d_model", 8, "--n_heads", 2,
            "--ctx_layers", 1, "--know_layers", 1, "--reason_layers", 1,
            "--d_ff", 16, "--epochs", 1, "--batch_size", 4, "--arch", "blind")
        rows = read_jsonl(out / "lowresource.jsonl")
        assert [r["fraction_percent"] for r in rows] == [50.0, 100.0]
        assert rows[0]["n_train"] == 6

    def test_lowresource_stated_fraction_ladder(self, tmp_path):
        data = tmp_path / "bigger"
        run("synth", "--n", 100, "--n_dev", 10, "--n_test", 10, "--seed", 4,
            "--rules_per_instance", 2, "--out", data)
        out = tmp_path / "lr5"
        run("lowresource", "--data", data, "--out", out, "--seed", 2,
            "--fractions", "1,2,5,10,100", "--d_model", 8, "--n_heads", 2,
            "--ctx_layers", 1, "--know_layers", 1, "--reason_layers", 1,
            "--d_ff", 16, "--epochs", 1, "--batch_size", 4, "--arch", "blind")
        rows = read_jsonl(out / "lowresource.jsonl")
        assert len(rows) == 5
        assert [r["n_train"] for r in rows] == [1, 2, 5, 10, 100]

    def test_gridsearch_singleton(self, dataset, tmp_path):
        out = tmp_path / "gs"
        run("gridsearch", "--data", dataset, "--out", out, "--seed", 2,
            "--grid", json.dumps({"lr": [1e-3], "batch_size": [4], "epochs": [1]}),
            "--d_model", 8, "--n_heads", 2, "--ctx_layers", 1, "--know_layers", 1,
            "--reason_layers", 1, "--d_ff", 16, "--arch", "blind")
        assert len(read_jsonl(out / "grid.jsonl")) == 1
        best = json.loads((out / "best_config.json").read_text())
        assert best["lr"] == 1e-3

    def test_gridsearch_jobs_two_matches_jobs_one(self, dataset, tmp_path, capsys):
        printed, tables = [], []
        for jobs in (1, 2):
            out = tmp_path / f"gs{jobs}"
            run("gridsearch", "--data", dataset, "--out", out, "--seed", 2,
                "--grid", json.dumps({"lr": [1e-3, 3e-4], "epochs": [1]}),
                "--d_model", 8, "--n_heads", 2, "--ctx_layers", 1, "--know_layers", 1,
                "--reason_layers", 1, "--d_ff", 16, "--batch_size", 4, "--arch", "blind",
                "--jobs", jobs)
            printed.append(capsys.readouterr().out)
            tables.append((out / "grid.jsonl").read_bytes())
        assert len(tables[0].splitlines()) == 2
        assert tables[0] == tables[1]
        assert printed[0] == printed[1]

    def test_ablate_flags_bad_cells(self, dataset, tmp_path):
        out = tmp_path / "ab"
        run("ablate", "--data", dataset, "--out", out, "--seed", 2,
            "--heads", "2,3", "--layers", "1", "--d_model", 8, "--n_heads", 2,
            "--ctx_layers", 1, "--know_layers", 1, "--reason_layers", 1,
            "--d_ff", 16, "--epochs", 1, "--batch_size", 4)
        rows = read_jsonl(out / "ablation.jsonl")
        assert "accuracy" in rows[0]
        assert "skipped" in rows[1]

    def test_transfer_command(self, dataset, trained, tmp_path):
        # pretrain on cip quickly, then transfer to alpha
        pre = tmp_path / "pre"
        run("train", "--data", dataset, "--out", pre, "--seed", 3, "--task", "cip",
            "--d_model", 8, "--n_heads", 2, "--ctx_layers", 1, "--know_layers", 1,
            "--reason_layers", 1, "--d_ff", 16, "--epochs", 1, "--batch_size", 4)
        out = tmp_path / "tr"
        run("transfer", "--data", dataset, "--checkpoint", pre / "checkpoint.npz",
            "--out", out, "--seed", 3, "--seeds", "1,2", "--fraction", 50,
            "--epochs", 1, "--batch_size", 4)
        rows = read_jsonl(out / "transfer.jsonl")
        runs = {r["run"] for r in rows}
        assert runs == {"scratch", "transfer"}
        assert any("mean" in r for r in rows)


class TestErrors:
    def test_missing_file_categorized(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[ConfigError]")

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MHKA_SEED", "99")
        out = tmp_path / "env"
        run(*synth_args(out, n=8)[:-2], "--out", out)  # still passes --seed 7
        # drop the explicit seed to exercise the fallback
        out2 = tmp_path / "env2"
        run("synth", "--n", 8, "--n_dev", 4, "--n_test", 4,
            "--rules_per_instance", 2, "--out", out2)
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["seed"] == 99
