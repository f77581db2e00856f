"""End-to-end command-line flows against real files in tmp_path."""

import csv
import json

import pytest

from evmguard import corpus, mol_net, service
from evmguard.cli import main
from evmguard.corpus import (
    DEFAULT_CLASS_NAMES,
    ClassCatalog,
    SynthSpec,
    all_label_combos,
    synth_generate,
)


def run(argv):
    return main([str(a) for a in argv])


class TestPreprocess:
    def test_prints_tokens(self, tmp_path, capsys):
        hexfile = tmp_path / "code.hex"
        hexfile.write_text("6001\n")
        assert run(["preprocess", hexfile]) == 0
        assert capsys.readouterr().out == "60\n"

    def test_out_flag_writes_file(self, tmp_path):
        hexfile = tmp_path / "code.hex"
        hexfile.write_text("6060604052")
        out = tmp_path / "tokens.txt"
        assert run(["preprocess", hexfile, "--out", out]) == 0
        assert out.read_text() == "60 60 52\n"

    def test_bad_hex_exits_1(self, tmp_path, capsys):
        hexfile = tmp_path / "code.hex"
        hexfile.write_text("60zz")
        assert run(["preprocess", hexfile]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_non_utf8_hexfile_names_position(self, tmp_path, capsys):
        hexfile = tmp_path / "code.hex"
        hexfile.write_bytes(b"60\xff01")
        assert run(["preprocess", hexfile]) == 1
        assert capsys.readouterr().err == "error: invalid hex digit '\ufffd' at position 2\n"

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert run(["preprocess", tmp_path / "absent.hex"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSynth:
    def test_writes_readable_corpus(self, tmp_path):
        out = tmp_path / "corpus.csv"
        rc = run(
            ["synth", "--out", out, "--classes", 2, "--per-combo", 3,
             "--min-len", 8, "--max-len", 12, "--seed", 5]
        )
        assert rc == 0
        catalog = corpus.read_corpus_catalog(out)
        assert catalog.names == DEFAULT_CLASS_NAMES[:2]
        chunk = corpus.read_chunk(out, catalog)
        assert len(chunk.records) == 4 * 3

    def test_negative_per_combo_exits_1(self, tmp_path, capsys):
        out = tmp_path / "corpus.csv"
        assert run(["synth", "--out", out, "--per-combo", -1]) == 1
        assert capsys.readouterr().err == "error: record count must be >= 0, got -1\n"
        assert not out.exists()


@pytest.fixture()
def trained(tmp_path):
    """synth -> chunk -> train, returning the artifact paths."""
    corpus_csv = tmp_path / "corpus.csv"
    chunks_dir = tmp_path / "chunks"
    model = tmp_path / "model.bin"
    vocab = tmp_path / "vocab.tsv"
    history = tmp_path / "history.csv"
    assert run(
        ["synth", "--out", corpus_csv, "--classes", 2, "--per-combo", 8,
         "--min-len", 8, "--max-len", 12, "--seed", 3]
    ) == 0
    assert run(
        ["chunk", "--corpus", corpus_csv, "--out-dir", chunks_dir,
         "--chunk-size", 16, "--seed", 0]
    ) == 0
    assert run(
        ["train", "--chunks-dir", chunks_dir, "--val", chunks_dir / "validation.csv",
         "--out-model", model, "--out-vocab", vocab, "--history", history,
         "--max-seq-len", 12, "--embedding-dim", 3, "--gru-hidden", 4,
         "--global-epochs", 2, "--seed", 0]
    ) == 0
    return {
        "chunks_dir": chunks_dir, "model": model, "vocab": vocab,
        "history": history, "tmp": tmp_path,
    }


class TestPipeline:
    def test_chunk_layout(self, trained):
        chunks_dir = trained["chunks_dir"]
        names = sorted(p.name for p in chunks_dir.iterdir())
        # 32 records: 6 test, 2 validation, 24 train -> chunks of 16 and 8
        assert names == ["chunk_0000.csv", "chunk_0001.csv", "test.csv", "validation.csv"]
        catalog = corpus.read_corpus_catalog(chunks_dir / "chunk_0000.csv")
        assert len(corpus.read_chunk(chunks_dir / "chunk_0000.csv", catalog).records) == 16
        assert len(corpus.read_chunk(chunks_dir / "chunk_0001.csv", catalog).records) == 8
        assert len(corpus.read_chunk(chunks_dir / "test.csv", catalog).records) == 6
        assert len(corpus.read_chunk(chunks_dir / "validation.csv", catalog).records) == 2

    def test_artifacts_written(self, trained):
        assert trained["model"].stat().st_size > 0
        assert trained["vocab"].read_text().startswith("<PAD>\t0\n<OOV>\t1\n")
        rows = list(csv.reader(trained["history"].open()))
        assert rows[0][:3] == ["global_epoch", "local_epoch", "chunk"]
        assert len(rows) > 1

    def test_eval_writes_report(self, trained, capsys):
        report = trained["tmp"] / "report.csv"
        rc = run(
            ["eval", "--model", trained["model"], "--vocab", trained["vocab"],
             "--data", trained["chunks_dir"] / "test.csv", "--report", report]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "weighted_f1=" in out
        rows = list(csv.reader(report.open()))
        assert rows[0] == ["class", "precision", "recall", "f1", "fpr", "fnr"]
        assert rows[-1][0] == "__all__"
        assert len(rows[-1]) == 5

    def test_predict_prints_document(self, trained, capsys):
        hexfile = trained["tmp"] / "one.hex"
        hexfile.write_text("6060604052f1ff")
        rc = run(
            ["predict", hexfile, "--model", trained["model"], "--vocab", trained["vocab"]]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"prediction", "prediction_time in_second"}
        assert set(doc["prediction"]) == set(DEFAULT_CLASS_NAMES[:2])

    def test_predict_rejects_other_vocab(self, trained, capsys):
        other = trained["tmp"] / "other.tsv"
        other.write_text("<PAD>\t0\n<OOV>\t1\naa\t2\n")
        hexfile = trained["tmp"] / "one.hex"
        hexfile.write_text("6001")
        rc = run(
            ["predict", hexfile, "--model", trained["model"], "--vocab", other]
        )
        assert rc == 1
        assert "fingerprint" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_model_without_fingerprint_rejected(self, trained, capsys, command):
        # the CLI and the service share one fingerprint check
        tmp = trained["tmp"]
        model = mol_net.load_model(trained["model"])
        model.vocab_fingerprint = None
        bare = tmp / "bare.bin"
        mol_net.save_model(model, bare)
        hexfile = tmp / "one.hex"
        hexfile.write_text("6001")
        target = ["--data", trained["chunks_dir"] / "test.csv"] if command == "eval" else [hexfile]
        rc = run([command, *target, "--model", bare, "--vocab", trained["vocab"]])
        assert rc == 1
        assert "fingerprint" in capsys.readouterr().err

    def test_transfer_adds_branch_and_keeps_old(self, trained, capsys):
        tmp = trained["tmp"]
        # new-class corpus: fresh name, fresh motif, written as one chunk
        spec = SynthSpec(
            catalog=ClassCatalog(DEFAULT_CLASS_NAMES[2:3]),
            motifs=(("20", "31", "20", "31"),),
            filler=corpus._SYNTH_FILLER,
            min_length=8,
            max_length=12,
        )
        records = synth_generate(spec, all_label_combos(1, 8), seed=11)
        new_dir = tmp / "new_chunks"
        new_dir.mkdir()
        corpus.write_chunk(
            corpus.Chunk(index=0, records=tuple(records)),
            new_dir / "chunk_0000.csv",
            spec.catalog,
        )
        out_model = tmp / "wider.bin"
        rc = run(
            ["transfer", "--model", trained["model"], "--vocab", trained["vocab"],
             "--chunks-dir", new_dir, "--out-model", out_model,
             "--global-epochs", 1, "--seed", 1]
        )
        assert rc == 0
        assert "added 1 branches" in capsys.readouterr().out

        from evmguard.mol_net import load_model
        from evmguard.tokenizer import load_vocab

        base = load_model(trained["model"])
        wider = load_model(out_model)
        assert tuple(wider.class_names) == DEFAULT_CLASS_NAMES[:3]
        vocab = load_vocab(trained["vocab"])
        svc_base = service.PredictionService(base, vocab)
        svc_wide = service.PredictionService(wider, vocab)
        probe = "6060604052f1ff5455"
        old = svc_base.predict_probabilities(probe)
        new = svc_wide.predict_probabilities(probe)
        assert list(new[:2]) == list(old)

    def test_serve_wiring(self, trained, monkeypatch):
        seen = {}

        def fake_serve(svc, host, port):
            seen["svc"], seen["host"], seen["port"] = svc, host, port

        monkeypatch.setattr(service, "serve", fake_serve)
        rc = run(
            ["serve", "--model", trained["model"], "--vocab", trained["vocab"],
             "--host", "127.0.0.1", "--port", 8123]
        )
        assert rc == 0
        assert seen["host"] == "127.0.0.1"
        assert seen["port"] == 8123
        assert isinstance(seen["svc"], service.PredictionService)

    @pytest.mark.parametrize("port", [99999, 65536, -1])
    def test_serve_port_out_of_range_exits_1(self, trained, monkeypatch, capsys, port):
        monkeypatch.setattr(service, "serve", lambda *args: pytest.fail("serve was called"))
        rc = run(["serve", "--model", trained["model"], "--vocab", trained["vocab"],
                  "--port", port])
        assert rc == 1
        assert capsys.readouterr().err == f"error: port must be in [0, 65535], got {port}\n"


class TestLabel:
    def test_arbitrated_corpus(self, tmp_path, capsys):
        bytecodes = tmp_path / "bytecodes.csv"
        bytecodes.write_text(
            "address,bytecode\n0xaa,6060604052\n0xbb,6001\n0xcc,00\n"
        )
        profiles = tmp_path / "profiles.csv"
        with profiles.open("w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["tool", "class_id", "f1"])
            for cid in range(1, 9):
                w.writerow(["mythril", cid, "0.8"])
                w.writerow(["oyente", cid, "0.6" if cid != 2 else "0.9"])
        reports = tmp_path / "reports.csv"
        with reports.open("w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["tool", "address", "class_id", "verdict"])
            w.writerow(["mythril", "0xaa", "1", "1"])
            w.writerow(["mythril", "0xaa", "2", "0"])
            w.writerow(["oyente", "0xaa", "2", "1"])
            w.writerow(["mythril", "0xbb", "3", "1"])
        out = tmp_path / "labeled.csv"
        rc = run(
            ["label", "--bytecodes", bytecodes, "--reports", reports,
             "--profiles", profiles, "--out", out]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "skipped 1 addresses" in captured.err
        catalog = corpus.read_corpus_catalog(out)
        assert catalog.names == DEFAULT_CLASS_NAMES
        by_address = {r.address: r for r in corpus.read_chunk(out, catalog).records}
        assert set(by_address) == {"0xaa", "0xbb"}
        # class 1 from mythril (only reporter), class 2 from oyente (0.9 > 0.8)
        assert by_address["0xaa"].labels[0] is True
        assert by_address["0xaa"].labels[1] is True
        assert by_address["0xbb"].labels == (False, False, True) + (False,) * 5
        assert by_address["0xaa"].tokens == ("60", "60", "52")


    def test_bad_hex_names_line_and_address(self, tmp_path, capsys):
        bytecodes = tmp_path / "bytecodes.csv"
        bytecodes.write_text("address,bytecode\n0xaa,6001\n0xbb,0x60zz\n")
        profiles = tmp_path / "profiles.csv"
        profiles.write_text("tool,class_id,f1\n" + "".join(f"t,{c},0.5\n" for c in range(1, 9)))
        reports = tmp_path / "reports.csv"
        reports.write_text("tool,address,class_id,verdict\nt,0xaa,1,1\nt,0xbb,1,0\n")
        out = tmp_path / "labeled.csv"
        rc = run(["label", "--bytecodes", bytecodes, "--reports", reports,
                  "--profiles", profiles, "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: line 3: bytecode of '0xbb': invalid hex digit 'z' at position 2\n"
        )
        assert not out.exists()


class TestErrors:
    def test_duplicate_class_in_corpus_header_names_line_1(self, tmp_path, capsys):
        corpus_csv = tmp_path / "corpus.csv"
        corpus_csv.write_text("address,bytecode,A,A\n0xaa,60,1,0\n")
        assert run(["chunk", "--corpus", corpus_csv, "--out-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == (
            "error: line 1: bad header ['address', 'bytecode', 'A', 'A']: "
            "class names must be unique\n"
        )
        assert not (tmp_path / "out").exists()

    def test_unknown_subcommand_is_systemexit_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_empty_chunks_dir_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = run(
            ["train", "--chunks-dir", empty, "--out-model", tmp_path / "m.bin",
             "--out-vocab", tmp_path / "v.tsv"]
        )
        assert rc == 1
        assert "no chunk_" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "transfer"])
    def test_chunks_dir_without_a_record_exits_1(self, trained, capsys, command):
        # header-only chunk files: for transfer they name a class the model lacks
        names = DEFAULT_CLASS_NAMES[:2] if command == "train" else DEFAULT_CLASS_NAMES[2:3]
        empty = trained["tmp"] / "empty"
        empty.mkdir()
        for i in range(2):
            (empty / f"chunk_000{i}.csv").write_text(",".join(["address", "bytecode", *names]) + "\n")
        argv = [command, "--chunks-dir", empty, "--out-model", trained["tmp"] / "none.bin"]
        if command == "train":
            argv += ["--out-vocab", trained["tmp"] / "none.tsv"]
        else:
            argv += ["--model", trained["model"], "--vocab", trained["vocab"]]
        assert run(argv) == 1
        assert capsys.readouterr().err == "error: no chunk holds a record; nothing to train on\n"
        assert not (trained["tmp"] / "none.bin").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--embedding-dim", 2**62), ("--gru-hidden", 4097), ("--max-seq-len", 49_153)],
    )
    def test_size_above_its_ceiling_exits_1(self, trained, capsys, flag, value):
        out = trained["tmp"] / "huge.bin"
        argv = ["train", "--chunks-dir", trained["chunks_dir"], "--out-model", out,
                "--out-vocab", trained["tmp"] / "huge.tsv", flag, value]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be in [1, " in err
        assert not out.exists()

    def test_model_above_the_vocab_ceiling_exits_1(self, trained, capsys):
        # a well-formed container whose embedding has one row more than any vocabulary
        stem = mol_net.StemConfig(vocab_size=259, embedding_dim=2, gru_hidden=2, max_sequence_length=12)
        path = trained["tmp"] / "wide.bin"
        mol_net.save_model(mol_net.init_model(stem, [mol_net.BranchConfig("a", (1,))], seed=0), path)
        blob = path.read_bytes()
        n = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16 : 16 + n])
        header["stem"]["vocab_size"] = 260
        header["blocks"][0]["shape"] = [260, 2]
        payload = json.dumps(header).encode()
        embedding_end = 16 + n + 4 * 259 * 2
        path.write_bytes(blob[:8] + len(payload).to_bytes(8, "little") + payload
                         + blob[16 + n : embedding_end] + bytes(8) + blob[embedding_end:])
        argv = ["eval", "--model", path, "--vocab", trained["vocab"],
                "--data", trained["chunks_dir"] / "validation.csv"]
        assert run(argv) == 1
        assert capsys.readouterr().err == "error: bad model header: vocab_size must be in [2, 259]\n"

    @pytest.mark.parametrize("command", ["train", "transfer"])
    def test_nan_learning_rate_exits_1(self, trained, capsys, command):
        argv = [command, "--chunks-dir", trained["chunks_dir"], "--lr", "nan",
                "--out-model", trained["tmp"] / "nan.bin"]
        if command == "train":
            argv += ["--out-vocab", trained["tmp"] / "nan.tsv"]
        else:
            argv += ["--model", trained["model"], "--vocab", trained["vocab"]]
        assert run(argv) == 1
        assert capsys.readouterr().err == "error: learning_rate must be finite and positive\n"
        assert not (trained["tmp"] / "nan.bin").exists()

    def test_non_utf8_inputs_exit_1_with_error_line(self, trained, capsys):
        bad = trained["tmp"] / "bad.csv"
        bad.write_bytes(b"address,bytecode\n0x\xff,6001\n")
        good = trained["chunks_dir"] / "validation.csv"
        profiles, reports = trained["tmp"] / "profiles.csv", trained["tmp"] / "reports.csv"
        profiles.write_text("tool,class_id,f1\n")
        reports.write_text("tool,address,class_id,verdict\n")
        commands = [
            ["label", "--bytecodes", bad, "--reports", reports, "--profiles", profiles,
             "--out", trained["tmp"] / "out.csv"],
            ["chunk", "--corpus", bad, "--out-dir", trained["tmp"] / "out"],
            ["eval", "--model", trained["model"], "--vocab", bad, "--data", good],
            ["serve", "--model", trained["model"], "--vocab", bad, "--port", 0],
        ]
        for argv in commands:
            assert run(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: line 2: not UTF-8 text"), (argv[0], err)
