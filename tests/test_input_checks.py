"""Counts, sizes, seeds and output paths: a bad one is a ConfigError, or one `error:` line from the CLI."""

import contextlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evmguard import corpus, mol_net, service, tokenizer, trainer
from evmguard.cli import main
from evmguard.corpus import (
    DEFAULT_CLASS_NAMES,
    ContractRecord,
    all_label_combos,
    build_balanced,
    default_synth_spec,
    synth_generate,
)
from evmguard.errors import ConfigError

STEM = mol_net.StemConfig(vocab_size=6, embedding_dim=3, gru_hidden=4, max_sequence_length=8)


def records(n_positive=5, n_clean=5):
    """One-class records: n_positive flagged, then n_clean clean."""
    return [
        ContractRecord(f"0x{i:02x}", ("60", "00"), (i < n_positive,))
        for i in range(n_positive + n_clean)
    ]


def small_model():
    return mol_net.init_model(STEM, [mol_net.BranchConfig("a", (2, 1))], seed=0)


def cli(argv):
    """(exit code, stderr lines) of one in-process run; argparse's exit 2 is returned as 2."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = main([str(a) for a in argv])
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue().splitlines()


SEEDED = {
    "synth_generate": lambda s: synth_generate(default_synth_spec(2, 8, 12), all_label_combos(2, 1), s),
    "split": lambda s: corpus.split(records(), s),
    "chunk": lambda s: corpus.chunk(records(), 4, s),
    "build_balanced": lambda s: build_balanced(records(), 1, 1, s),
    "init_model": lambda s: mol_net.init_model(STEM, [mol_net.BranchConfig("a", (2, 1))], s),
    "add_branch": lambda s: mol_net.add_branch(small_model(), mol_net.BranchConfig("b", (2, 1)), s),
    "dropout_mask": lambda s: mol_net.dropout_mask((2, 4), 0.2, s, np.dtype(np.float32)),
    "forward": lambda s: mol_net.forward(small_model(), np.ones((2, 3), np.int32), "train", s),
}


@pytest.mark.parametrize("seed", [-1, 2.5])
@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_bad_seed_is_a_config_error(entry, seed):
    with pytest.raises(ConfigError, match="seed must be"):
        SEEDED[entry](seed)


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--classes", 2, "--per-combo", 5, "--seed", -1],
        ["chunk", "--chunk-size", 4, "--seed", -1],
    ],
    ids=["synth", "chunk"],
)
def test_cli_negative_seed_is_one_error_line(tmp_path, argv):
    corpus_csv = tmp_path / "c.csv"
    assert cli(["synth", "--out", corpus_csv, "--classes", 2, "--per-combo", 5]) == (0, [])
    paths = {"synth": ["--out", tmp_path / "s.csv"], "chunk": ["--corpus", corpus_csv, "--out-dir", tmp_path / "o"]}
    assert cli([*argv, *paths[argv[0]]]) == (1, ["error: seed must be >= 0, got -1"])


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_balanced(records(), -1, 1, 0),
        lambda: build_balanced(records(), 1, -1, 0),
        lambda: build_balanced(records(), 2.5, 1, 0),
        lambda: build_balanced(records(), 1, 2.5, 0),
        lambda: corpus.chunk(records(), 2.5),
        lambda: synth_generate(default_synth_spec(2, 8, 12), [((False, False), 2.5)], 0),
        lambda: default_synth_spec(2.0),
        lambda: default_synth_spec(2, 8.5, 12),
        lambda: tokenizer.encode(("60",), tokenizer.fit([("60",)]), 2.5),
        lambda: tokenizer.encode_batch([], tokenizer.fit([("60",)]), 2.5),
    ],
    ids=[
        "negative_per_class_min", "negative_clean_count", "float_per_class_min",
        "float_clean_count", "float_chunk_size", "float_record_count", "float_n_classes",
        "float_min_length", "float_encode_length", "float_encode_batch_length",
    ],
)
def test_bad_count_or_size_is_a_config_error(call):
    with pytest.raises(ConfigError):
        call()


def test_check_names_the_value_and_bound():
    with pytest.raises(ConfigError, match=r"^per_class_min must be >= 0, got -1$"):
        build_balanced(records(), -1, 1, 0)
    with pytest.raises(ConfigError, match=r"^chunk_size must be an int, got 2\.5$"):
        corpus.chunk(records(), 2.5)
    with pytest.raises(ConfigError, match=r"^n_classes must be in \[1, 8\]$"):
        default_synth_spec(9)


def test_unknown_branch_is_refused_by_one_lookup():
    model = small_model()
    assert model.columns(["a"]) == [0]
    for call in (
        lambda: model.columns(["a", "zz"]),
        lambda: trainer.evaluate(model, trainer.EncodedSet(np.ones((2, 3), np.int32), np.zeros((2, 1), np.float32)), 0.5, ["zz"]),
    ):
        with pytest.raises(ConfigError, match=r"^unknown branches \['zz'\]$"):
            call()


# --- the CLI over a small fixture ---


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    """Inputs for every subcommand, plus paths that are missing, a directory, or under a file."""
    tmp = tmp_path_factory.mktemp("cli_inputs")
    p = {
        "corpus": tmp / "corpus.csv", "chunks": tmp / "chunks", "new_chunks": tmp / "new_chunks",
        "model": tmp / "model.bin", "vocab": tmp / "vocab.tsv", "hex": tmp / "one.hex",
        "bytecodes": tmp / "bytecodes.csv", "reports": tmp / "reports.csv",
        "profiles": tmp / "profiles.csv", "out": tmp / "out",
        "missing": tmp / "missing", "dir": tmp / "a_dir", "garbage": tmp / "garbage.bin",
    }
    p["val"] = p["chunks"] / "validation.csv"
    p["dir"].mkdir()
    p["out"].mkdir()
    p["garbage"].write_bytes(b"\xff\xfe,\x00\n")
    p["under_file"] = p["garbage"] / "x"
    p["hex"].write_text("6060604052f1ff")
    p["bytecodes"].write_text("address,bytecode\n0xaa,6060604052\n0xbb,6001\n")
    p["profiles"].write_text("tool,class_id,f1\n" + "".join(f"t,{c},0.5\n" for c in range(1, 9)))
    p["reports"].write_text("tool,address,class_id,verdict\nt,0xaa,1,1\n")
    assert cli(["synth", "--out", p["corpus"], "--classes", 2, "--per-combo", 8,
                "--min-len", 8, "--max-len", 12, "--seed", 3])[0] == 0
    assert cli(["chunk", "--corpus", p["corpus"], "--out-dir", p["chunks"], "--chunk-size", 16])[0] == 0
    assert cli(["train", "--chunks-dir", p["chunks"], "--out-model", p["model"], "--out-vocab", p["vocab"],
                "--max-seq-len", 12, "--embedding-dim", 3, "--gru-hidden", 4])[0] == 0
    spec = corpus.SynthSpec(corpus.ClassCatalog(DEFAULT_CLASS_NAMES[2:3]), (("20", "31"),),
                            corpus._SYNTH_FILLER, 8, 12)
    p["new_chunks"].mkdir()
    new = corpus.Chunk(0, tuple(synth_generate(spec, all_label_combos(1, 4), 1)))
    corpus.write_chunk(new, p["new_chunks"] / "chunk_0000.csv", spec.catalog)
    p["new_val"] = p["new_chunks"] / "chunk_0000.csv"
    return p


@pytest.mark.parametrize(
    "command, flag",
    [("train", "--out-model"), ("train", "--out-vocab"), ("train", "--history"),
     ("transfer", "--out-model"), ("transfer", "--history")],
)
@pytest.mark.parametrize("where", ["missing_dir", "directory", "under_file"])
def test_unusable_output_path_is_refused_before_training(fx, command, flag, where):
    bad = {"missing_dir": fx["missing"] / "m.bin", "directory": fx["dir"], "under_file": fx["under_file"]}[where]
    paths = {"--out-model": fx["out"] / "m.bin", "--out-vocab": fx["out"] / "v.tsv", "--history": fx["out"] / "h.csv"}
    paths[flag] = bad
    if command == "train":
        argv = ["train", "--chunks-dir", fx["chunks"], "--max-seq-len", 12]
    else:
        argv = ["transfer", "--chunks-dir", fx["new_chunks"], "--model", fx["model"], "--vocab", fx["vocab"]]
        del paths["--out-vocab"]
    argv += [a for pair in paths.items() for a in pair]
    fail = mock.Mock(side_effect=AssertionError("training ran"))
    with mock.patch.object(trainer, "train", fail), mock.patch.object(trainer, "transfer_train", fail), \
            mock.patch.object(corpus, "read_chunk", fail):
        rc, err = cli(argv)
    assert (rc, len(err)) == (1, 1) and err[0].startswith(f"error: cannot write {bad}"), err
    fail.assert_not_called()


# Each value is drawn from a usual strategy or, at up to two drawn places,
# from an edge one: negative, zero and huge ints, NaN and infinities, and
# paths that are missing, a directory or under a regular file. Epoch and
# record counts are work the caller asked for, which the program does however
# large, so their edges are zero and negative only.
SIZE, SIZE_EDGE = st.integers(1, 4), st.sampled_from([-1, 0, 2**31, 2**63, 10**30])
WORK, WORK_EDGE = st.integers(1, 3), st.integers(-2, 0)
REAL, REAL_EDGE = st.floats(0.01, 0.99).map(repr), st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1", "1e308"])


def options(p, command):
    """(flag or None for a positional, usual values, edge values, required) for each argument of `command`."""

    def read(key):
        return st.just(p[key]), st.sampled_from([p["missing"], p["dir"], p["garbage"], p["under_file"]])

    def out(name):
        return st.just(p["out"] / name), st.sampled_from([p["missing"] / name, p["dir"], p["under_file"]])

    size, work, real = (SIZE, SIZE_EDGE), (WORK, WORK_EDGE), (REAL, REAL_EDGE)
    training = [("--seed", *size, False), ("--batch-size", *size, False), ("--lr", *real, False),
                ("--global-epochs", *work, False), ("--local-epochs", *work, False),
                ("--threshold", *real, False)]
    served = [("--model", *read("model"), True), ("--vocab", *read("vocab"), True)]
    return {
        "preprocess": [(None, *read("hex"), True), ("--out", *out("tokens.txt"), False)],
        "synth": [("--out", *out("synth.csv"), True), ("--classes", *size, False),
                  ("--per-combo", *work, False), ("--min-len", st.integers(16, 20), SIZE_EDGE, False),
                  ("--max-len", st.integers(20, 24), SIZE_EDGE, False), ("--seed", *size, False)],
        "label": [("--bytecodes", *read("bytecodes"), True), ("--reports", *read("reports"), True),
                  ("--profiles", *read("profiles"), True), ("--out", *out("labeled.csv"), True)],
        "chunk": [("--corpus", *read("corpus"), True), ("--out-dir", *out("chunks"), True),
                  ("--chunk-size", *size, False), ("--seed", *size, False)],
        "train": [("--chunks-dir", *read("chunks"), True), ("--out-model", *out("m.bin"), True),
                  ("--out-vocab", *out("v.tsv"), True), ("--val", *read("val"), False),
                  ("--history", *out("h.csv"), False), ("--max-seq-len", *size, False),
                  ("--embedding-dim", *size, False), ("--gru-hidden", *size, False),
                  ("--dropout", *real, False), *training],
        "transfer": [*served, ("--chunks-dir", st.just(p["new_chunks"]), st.sampled_from([p["chunks"], p["dir"]]), True),
                     ("--out-model", *out("t.bin"), True), ("--val", *read("new_val"), False),
                     ("--history", *out("th.csv"), False), *training],
        "eval": [*served, ("--data", st.just(p["val"]), st.sampled_from([p["new_val"], p["missing"], p["garbage"]]), True),
                 ("--report", *out("r.csv"), False), ("--threshold", *real, False)],
        "serve": [*served, ("--port", st.integers(0, 65535), SIZE_EDGE, False), ("--raw", st.none(), st.none(), False)],
        "predict": [(None, *read("hex"), True), *served, ("--raw", st.none(), st.none(), False)],
    }[command]


@st.composite
def invocation(draw, p, command):
    """An argv for `command`: usual values, with edge values at up to two drawn arguments."""
    opts = options(p, command)
    edges = draw(st.sets(st.integers(0, len(opts) - 1), max_size=2))
    argv = [command]
    for k, (name, usual, edge, required) in enumerate(opts):
        if required or k in edges or draw(st.booleans()):
            value = draw(edge if k in edges else usual)
            argv += [a for a in (name, value) if a is not None]
    return argv


@pytest.mark.parametrize(
    "command", ["preprocess", "synth", "label", "chunk", "train", "transfer", "eval", "serve", "predict"]
)
def test_every_invocation_exits_0_or_one_error_line_or_usage(fx, command):
    @settings(max_examples=60, deadline=None, database=None)
    @given(argv=invocation(fx, command))
    def run(argv):
        # serve builds its service and returns instead of listening
        with mock.patch.object(service, "serve", lambda *args: None):
            rc, err = cli(argv)
        assert rc in (0, 1, 2), (argv, rc)
        if rc == 1:
            assert len(err) == 1 and err[0].startswith("error: "), (argv, err)

    run()


@pytest.mark.parametrize(
    "param, value",
    [("threshold", v) for v in (float("nan"), float("inf"), 5.0, -1.0, 0.0, 1.0)] + [("branch_subset", [])],
    ids=lambda v: repr(v) if not isinstance(v, str) else None,
)
def test_evaluate_refuses_a_threshold_outside_0_1_and_an_empty_branch_subset(fx, param, value):
    model, vocab = mol_net.load_model(fx["model"]), tokenizer.load_vocab(fx["vocab"])
    records = corpus.read_chunk(fx["val"]).records
    enc = trainer.encode_records(records, vocab, model.stem.max_sequence_length)
    with pytest.raises(ConfigError, match=f"^{param} must"):
        trainer.evaluate(model, enc, **{param: value})

    if param == "threshold":
        data, extra = fx["val"], ["--threshold", value]
    else:  # a data file naming no class
        data, extra = fx["out"] / "no_classes.csv", []
        data.write_text("address,bytecode\n0xaa,60 01\n")
    report = fx["out"] / "refused_report.csv"
    rc, err = cli(["eval", "--model", fx["model"], "--vocab", fx["vocab"], "--data", data, "--report", report, *extra])
    assert (rc, len(err)) == (1, 1) and err[0].startswith("error: "), err
    assert not report.exists()
