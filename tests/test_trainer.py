"""Training loop mechanics: step counts, history, transfer, evaluation."""

import copy
import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evmguard import mol_net, trainer
from evmguard.corpus import Chunk, ContractRecord
from evmguard.errors import ConfigError, ShortageError, UsageError
from evmguard.mol_net import BranchConfig, StemConfig, forward, init_model
from evmguard.tokenizer import fit
from evmguard.trainer import (
    EncodedSet,
    TrainConfig,
    encode_records,
    evaluate,
    train,
    transfer_train,
    write_history_csv,
)

TOKEN_POOL = ["aa", "bb", "cc", "dd"]


def make_records(n, n_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        length = int(rng.integers(3, 8))
        tokens = tuple(TOKEN_POOL[int(t)] for t in rng.integers(0, 4, size=length))
        labels = tuple(bool(b) for b in rng.integers(0, 2, size=n_classes))
        records.append(ContractRecord(address=f"r{i}", tokens=tokens, labels=labels))
    return records


def make_chunks(sizes, n_classes=2, seed=0):
    chunks = []
    offset = 0
    for idx, size in enumerate(sizes):
        recs = make_records(size, n_classes, seed=seed + idx)
        recs = [
            ContractRecord(f"c{idx}_{r.address}", r.tokens, r.labels) for r in recs
        ]
        chunks.append(Chunk(index=idx, records=tuple(recs)))
        offset += size
    return chunks


def small_setup(sizes=(64,), n_classes=2, seed=0):
    chunks = make_chunks(sizes, n_classes, seed)
    vocab = fit([list(r.tokens) for c in chunks for r in c.records])
    stem = StemConfig(
        vocab_size=len(vocab), embedding_dim=3, gru_hidden=4, dropout_rate=0.2,
        max_sequence_length=8,
    )
    model = init_model(
        stem, [BranchConfig(f"k{i}", (3, 1)) for i in range(n_classes)], seed=seed
    )
    return model, chunks, vocab


class TestStepCountLaw:
    def test_one_chunk_64_batch_32(self):
        model, chunks, vocab = small_setup(sizes=(64,))
        hist = train(model, chunks, vocab, TrainConfig(batch_size=32, seed=1))
        assert hist.optimizer_steps == 2

    def test_ceil_per_chunk(self):
        model, chunks, vocab = small_setup(sizes=(40, 24))
        hist = train(model, chunks, vocab, TrainConfig(batch_size=32, seed=1))
        assert hist.optimizer_steps == 2 + 1

    def test_local_and_global_multiply(self):
        model, chunks, vocab = small_setup(sizes=(40, 24))
        cfg = TrainConfig(global_epochs=2, local_epochs=3, batch_size=32, seed=1)
        hist = train(model, chunks, vocab, cfg)
        assert hist.optimizer_steps == 18

    def test_short_final_batch_is_trained(self):
        model, chunks, vocab = small_setup(sizes=(33,))
        hist = train(model, chunks, vocab, TrainConfig(batch_size=32, seed=1))
        assert hist.optimizer_steps == 2


class TestHistory:
    def test_entry_ordering_and_global_rows(self):
        model, chunks, vocab = small_setup(sizes=(10, 10))
        cfg = TrainConfig(global_epochs=2, local_epochs=2, batch_size=8, seed=0)
        hist = train(model, chunks, vocab, cfg)
        keys = [(e.global_epoch, e.chunk_index, e.local_epoch) for e in hist.entries]
        assert keys == sorted(keys)
        global_rows = [e for e in hist.entries if e.local_epoch == 0]
        assert len(global_rows) == 2
        assert all(e.chunk_index == len(chunks) for e in global_rows)
        local_rows = [e for e in hist.entries if e.local_epoch > 0]
        assert len(local_rows) == 2 * 2 * 2  # globals x chunks x locals

    def test_wall_seconds_monotonic(self):
        model, chunks, vocab = small_setup()
        hist = train(model, chunks, vocab, TrainConfig(global_epochs=3, seed=0))
        times = [e.wall_seconds for e in hist.entries]
        assert times == sorted(times)

    def test_validation_reports_present_when_given(self):
        model, chunks, vocab = small_setup()
        val = encode_records(make_records(12, seed=9), vocab, 8)
        hist = train(model, chunks, vocab, TrainConfig(seed=0), validation=val)
        assert all(e.validation is not None for e in hist.entries)

    def test_validation_runs_once_per_local_epoch(self, monkeypatch):
        model, chunks, vocab = small_setup(sizes=(10, 10, 10))
        val = encode_records(make_records(12, seed=9), vocab, 8)
        calls = []
        real_evaluate = trainer.evaluate

        def counting(*args, **kwargs):
            calls.append(1)
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(trainer, "evaluate", counting)
        cfg = TrainConfig(global_epochs=2, local_epochs=2, batch_size=8, seed=0)
        hist = train(model, chunks, vocab, cfg, validation=val)
        assert len(calls) == 2 * 3 * 2  # globals x chunks x locals
        for g in (1, 2):
            rows = [e for e in hist.entries if e.global_epoch == g]
            assert rows[-1].local_epoch == 0
            assert rows[-1].validation is rows[-2].validation

    def test_csv_layout(self, tmp_path):
        model, chunks, vocab = small_setup()
        val = encode_records(make_records(12, seed=9), vocab, 8)
        hist = train(model, chunks, vocab, TrainConfig(seed=0), validation=val)
        path = tmp_path / "history.csv"
        write_history_csv(hist, path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == [
            "global_epoch", "local_epoch", "chunk", "train_loss",
            "val_f1_weighted", "val_hamming", "wall_seconds",
        ]
        assert len(rows) == 1 + len(hist.entries)


class TestDeterminism:
    def test_same_seed_bit_identical_parameters(self):
        runs = []
        for _ in range(2):
            model, chunks, vocab = small_setup(seed=4)
            train(model, chunks, vocab, TrainConfig(global_epochs=2, seed=4))
            runs.append({k: v.copy() for k, v in model.params.items()})
        for k in runs[0]:
            np.testing.assert_array_equal(runs[0][k], runs[1][k])

    def test_different_seed_diverges(self):
        outs = []
        for seed in (1, 2):
            model, chunks, vocab = small_setup(seed=7)
            train(model, chunks, vocab, TrainConfig(global_epochs=2, seed=seed))
            outs.append(model.params["embedding"].copy())
        assert not np.array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("transfer", [False, True])
    def test_a_chunk_with_no_records_trains_no_step(self, transfer):
        # a header-only chunk file reads as a chunk with no records
        runs, steps = [], []
        for empty in (False, True):
            model, chunks, vocab = small_setup(sizes=(24, 16), seed=3)
            if transfer:
                train(model, chunks, vocab, TrainConfig(seed=3))
                chunks = make_chunks((24, 16), n_classes=1, seed=53)
            if empty:
                chunks.insert(1, Chunk(index=len(chunks), records=()))
            config = TrainConfig(global_epochs=2, batch_size=8, seed=3)
            if transfer:
                hist = transfer_train(
                    model, chunks, [BranchConfig("fresh", (3, 1))], vocab, config
                )
            else:
                hist = train(model, chunks, vocab, config)
            runs.append({k: v.copy() for k, v in model.params.items()})
            steps.append(hist.optimizer_steps)
        assert steps[0] == steps[1]
        for k in runs[0]:
            assert runs[0][k].tobytes() == runs[1][k].tobytes(), k


class TestTrainErrors:
    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf"), 0.0, -1e-3])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("batch_size", 2.5), ("global_epochs", 1.5), ("local_epochs", True), ("seed", 1.5),
            ("seed", np.int64(1)), ("seed", -1), ("threshold", "x"), ("learning_rate", "x"),
            ("learning_rate", True),
        ],
    )
    def test_wrong_type_or_negative_seed_is_a_config_error(self, field, value):
        with pytest.raises(ConfigError):
            TrainConfig(**{field: value})

    def test_label_arity_mismatch(self):
        model, chunks, vocab = small_setup(n_classes=2)
        bad = make_chunks((8,), n_classes=3)
        with pytest.raises(ConfigError):
            train(model, bad, vocab, TrainConfig(seed=0))

    def test_fully_frozen_model_rejected(self):
        model, chunks, vocab = small_setup()
        model.set_stem_frozen(True)
        for n in model.class_names:
            model.set_branch_frozen(n, True)
        with pytest.raises(ConfigError):
            train(model, chunks, vocab, TrainConfig(seed=0))


def snapshot(model):
    """Everything a refused call must leave as it was."""
    return (
        [(name, block.tobytes()) for name, block in model.params.items()],
        list(model.branches),
        set(model.frozen),
        model.vocab_fingerprint,
    )


class TestRefusalsChangeNothing:
    @pytest.mark.parametrize(
        "n_cols, names, val_cols, sizes, error",
        [
            (3, ["fresh"], None, (8,), ConfigError),  # chunk label width
            (1, ["fresh"], 3, (8,), ConfigError),  # validation label width
            (2, ["fresh", "other", "fresh"], None, (8,), ConfigError),
            (2, ["fresh", "k0"], None, (8,), ConfigError),
            (0, [], None, (8,), ConfigError),
            (1, ["fresh"], None, (0, 0), ShortageError),
        ],
        ids=["chunk_width", "validation_width", "repeated_name", "taken_name",
             "no_new_branch", "no_records"],
    )
    def test_transfer(self, n_cols, names, val_cols, sizes, error):
        model, chunks, vocab = small_setup()
        train(model, chunks, vocab, TrainConfig(seed=0))
        before = snapshot(model)
        validation = None
        if val_cols:
            validation = encode_records(make_records(4, val_cols, seed=9), vocab, 8)
        with pytest.raises(error):
            transfer_train(
                model, make_chunks(sizes, n_classes=n_cols, seed=50),
                [BranchConfig(n, (3, 1)) for n in names], vocab, TrainConfig(seed=1),
                validation,
            )
        assert snapshot(model) == before

    @pytest.mark.parametrize(
        "n_cols, val_cols, sizes, freeze, error",
        [
            (2, 3, (8,), False, ConfigError),  # validation label width
            (3, None, (8,), False, ConfigError),  # chunk label width
            (2, None, (8,), True, ConfigError),  # every block frozen
            (2, 2, (0, 0), False, ShortageError),
            (2, None, (), False, ShortageError),
        ],
        ids=["validation_width", "chunk_width", "all_frozen", "no_records", "no_chunks"],
    )
    def test_train(self, n_cols, val_cols, sizes, freeze, error):
        model, _, vocab = small_setup()
        if freeze:
            model.frozen.update(model.params)
        before = snapshot(model)
        validation = None
        if val_cols:
            validation = encode_records(make_records(4, val_cols, seed=9), vocab, 8)
        with pytest.raises(error):
            train(model, make_chunks(sizes, n_classes=n_cols), vocab, TrainConfig(seed=0),
                  validation)
        assert snapshot(model) == before


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 12), min_size=1, max_size=4).filter(any),
    global_epochs=st.integers(1, 3),
    local_epochs=st.integers(1, 3),
    validate=st.booleans(),
    transfer=st.booleans(),
)
def test_history_law(sizes, global_epochs, local_epochs, validate, transfer):
    """Rows, losses and validation runs count only the chunks that hold records."""
    model, chunks, vocab = small_setup(sizes=sizes)
    config = TrainConfig(global_epochs, local_epochs, batch_size=8, seed=0)
    n_cols = 1 if transfer else 2
    validation = None
    if validate:
        validation = encode_records(make_records(6, n_cols, seed=9), vocab, 8)
    calls = []
    real_evaluate = trainer.evaluate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "evaluate", lambda *a, **k: calls.append(1) or real_evaluate(*a, **k))
        if transfer:
            chunks = make_chunks(sizes, n_classes=1, seed=50)
            hist = transfer_train(
                model, chunks, [BranchConfig("fresh", (3, 1))], vocab, config, validation
            )
        else:
            hist = train(model, chunks, vocab, config, validation)
    with_records = [c.index for c in chunks if c.records]
    assert len(hist.entries) == global_epochs * (local_epochs * len(with_records) + 1)
    assert {e.chunk_index for e in hist.entries if e.local_epoch} == set(with_records)
    assert all(math.isfinite(e.train_loss) and e.train_loss > 0 for e in hist.entries)
    assert len(calls) == (global_epochs * local_epochs * len(with_records) if validate else 0)


class TestEvaluate:
    def test_perfect_predictor(self):
        # binarizing these probabilities at 0.5 reproduces the labels exactly
        model, chunks, vocab = small_setup()
        data = encode_records(list(chunks[0].records), vocab, 8)
        probs = data.labels.astype(np.float32) * 0.98 + 0.01
        from evmguard.metrics import evaluate as eval_metrics

        rep = eval_metrics(
            model.class_names, data.labels.astype(bool), probs >= 0.5, probs
        )
        assert all(m.f1 == 1.0 for m in rep.per_class)
        assert rep.hamming == 0.0

    def test_constant_half_model_with_ge_threshold(self):
        # untrained model on all-padding rows outputs exactly 0.5 everywhere;
        # p >= threshold counts as positive, so recall is 1 and precision
        # equals class prevalence
        model, chunks, vocab = small_setup()
        n = 16
        recs = [
            ContractRecord(f"e{i}", (), (i % 2 == 0, i % 4 == 0)) for i in range(n)
        ]
        data = encode_records(recs, vocab, 8)
        rep = evaluate(model, data, threshold=0.5)
        assert rep.per_class[0].recall == 1.0
        assert rep.per_class[0].precision == pytest.approx(0.5)
        assert rep.per_class[1].precision == pytest.approx(0.25)

    def test_empty_split_rejected(self):
        model, chunks, vocab = small_setup()
        empty = EncodedSet(
            ids=np.zeros((0, 8), dtype=np.int32),
            labels=np.zeros((0, 2), dtype=np.float32),
        )
        with pytest.raises(ShortageError):
            evaluate(model, empty)

    def test_unknown_branch_is_a_config_error(self):
        model, _, vocab = small_setup()
        data = encode_records(make_records(4, n_classes=1, seed=2), vocab, 8)
        with pytest.raises(ConfigError, match="nope"):
            evaluate(model, data, 0.5, ["nope"])

    def test_deterministic(self):
        model, chunks, vocab = small_setup()
        data = encode_records(make_records(10, seed=2), vocab, 8)
        a = evaluate(model, data)
        b = evaluate(model, data)
        assert a == b


class TestTransfer:
    def probe(self, vocab):
        return encode_records(make_records(16, seed=42), vocab, 8).ids

    def test_old_outputs_bit_identical(self):
        model, chunks, vocab = small_setup()
        train(model, chunks, vocab, TrainConfig(global_epochs=2, seed=0))
        probe = self.probe(vocab)
        pre = forward(model, probe)
        new_chunks = make_chunks((24,), n_classes=1, seed=50)
        transfer_train(
            model, new_chunks, [BranchConfig("fresh", (3, 1))], vocab,
            TrainConfig(global_epochs=2, seed=1),
        )
        post = forward(model, probe)
        np.testing.assert_array_equal(pre, post[:, :2])
        assert post.shape == (16, 3)

    def test_trainable_equals_new_branch_params(self):
        model, chunks, vocab = small_setup()
        train(model, chunks, vocab, TrainConfig(seed=0))
        new_chunks = make_chunks((8,), n_classes=1, seed=51)
        transfer_train(
            model, new_chunks, [BranchConfig("fresh", (3, 1))], vocab,
            TrainConfig(seed=1),
        )
        expected = mol_net.branch_param_count(BranchConfig("fresh", (3, 1)), input_width=4)
        assert mol_net.param_count(model, "trainable") == expected

    def test_transfer_step_count_law(self):
        model, chunks, vocab = small_setup()
        train(model, chunks, vocab, TrainConfig(seed=0))
        new_chunks = make_chunks((40, 24), n_classes=1, seed=52)
        hist = transfer_train(
            model, new_chunks, [BranchConfig("fresh", (3, 1))], vocab,
            TrainConfig(global_epochs=2, local_epochs=3, batch_size=32, seed=1),
        )
        assert hist.optimizer_steps == 18

    def test_duplicate_class_rejected(self):
        model, chunks, vocab = small_setup()
        with pytest.raises(ConfigError):
            transfer_train(
                model, make_chunks((8,), 1), [BranchConfig("k0", (3, 1))], vocab,
                TrainConfig(seed=0),
            )


def full_scan_loop(model, chunks, vocab, config, validation, names):
    """Reference loop: every step and every validation pass runs the whole stem scan.

    Returns (loss, weighted F1, Hamming) per local epoch, as `_run_loop`
    records them.
    """
    cols = [model.class_names.index(n) for n in names]
    state = mol_net.AdamState()
    rows = []
    for _ in range(config.global_epochs):
        for chunk in chunks:
            enc = encode_records(chunk.records, vocab, model.stem.max_sequence_length)
            for _ in range(config.local_epochs):
                losses = []
                for lo in range(0, len(enc), config.batch_size):
                    ids, y = enc.ids[lo : lo + config.batch_size], enc.labels[lo : lo + config.batch_size]
                    probs, cache = forward(
                        model, ids, mode="train", seed=config.seed + state.step, keep_cache=True
                    )
                    losses.append(mol_net.bce_loss(y, probs[:, cols]))
                    grads = mol_net.backward(model, cache, y, names)
                    mol_net.adam_step(model, grads, state, config.learning_rate)
                report = evaluate(model, validation, config.threshold, names)
                rows.append((float(np.mean(losses)), report.weighted_f1, report.hamming))
    return rows


class TestFrozenStemCache:
    """Steps behind a frozen stem read its cached state and match a loop that rescans it."""

    # 33 and 65 records at batch 32 end in one-row batches; 257 validation
    # rows leave one row after a full EVAL_BATCH_SIZE batch
    SIZES = (33, 65)
    CONFIG = TrainConfig(global_epochs=2, local_epochs=2, batch_size=32, seed=3)

    def check(self, model, reference, run, names, n_classes, monkeypatch):
        vocab = fit([TOKEN_POOL])
        chunks = make_chunks(self.SIZES, n_classes, seed=60)
        validation = encode_records(make_records(257, n_classes, seed=61), vocab, 8)
        expected = full_scan_loop(reference, chunks, vocab, self.CONFIG, validation, names)
        scans = []
        real_scan = mol_net._scan
        monkeypatch.setattr(mol_net, "_scan", lambda *a, **k: scans.append(1) or real_scan(*a, **k))
        hist = run(model, chunks, vocab, validation)
        got = [(e.train_loss, e.validation.weighted_f1, e.validation.hamming)
               for e in hist.entries if e.local_epoch]
        assert got == expected
        assert model.params.keys() == reference.params.keys()
        for name, value in reference.params.items():
            assert model.params[name].tobytes() == value.tobytes(), name
        # each training batch and each validation batch is scanned once in all
        assert len(scans) == 2 + 3 + 2

    def test_transfer_matches_a_full_scan_loop(self, monkeypatch):
        model, chunks, vocab = small_setup()
        train(model, chunks, vocab, TrainConfig(seed=0))
        reference = copy.deepcopy(model)
        reference.set_stem_frozen(True)
        for name in reference.class_names:
            reference.set_branch_frozen(name, True)
        new = [BranchConfig("n0", (3, 1)), BranchConfig("n1", (5, 1))]
        for i, branch in enumerate(new):
            mol_net.add_branch(reference, branch, seed=self.CONFIG.seed + 1 + i)

        def run(model, chunks, vocab, validation):
            return transfer_train(model, chunks, new, vocab, self.CONFIG, validation)

        self.check(model, reference, run, ["n0", "n1"], 2, monkeypatch)

    def test_train_behind_a_stem_frozen_by_hand_matches_a_full_scan_loop(self, monkeypatch):
        model, _, _ = small_setup()
        model.set_stem_frozen(True)
        reference = copy.deepcopy(model)

        def run(model, chunks, vocab, validation):
            return train(model, chunks, vocab, self.CONFIG, validation)

        self.check(model, reference, run, model.class_names, 2, monkeypatch)

    def test_backward_refuses_a_heads_only_cache_for_a_trainable_stem(self):
        model, chunks, vocab = small_setup()
        ids = encode_records(chunks[0].records, vocab, 8).ids[:5]
        states = mol_net.stem_states(model, ids, "train")
        _, cache = forward(model, ids, mode="train", seed=1, keep_cache=True, stem_states=states)
        with pytest.raises(UsageError):
            mol_net.backward(model, cache, np.zeros((5, 2)))
        model.set_stem_frozen(True)
        assert set(mol_net.backward(model, cache, np.zeros((5, 2)))) == set(model.trainable_blocks())


class TestLossProgress:
    def test_loss_decreases_on_learnable_task(self):
        # one informative token decides the single label; plenty of epochs
        records = []
        rng = np.random.default_rng(8)
        for i in range(64):
            positive = bool(i % 2)
            tokens = ["dd" if positive else "aa"] * int(rng.integers(3, 8))
            records.append(ContractRecord(f"r{i}", tuple(tokens), (positive,)))
        chunks = [Chunk(index=0, records=tuple(records))]
        vocab = fit([list(r.tokens) for r in records])
        stem = StemConfig(
            vocab_size=len(vocab), embedding_dim=3, gru_hidden=4,
            dropout_rate=0.2, max_sequence_length=8,
        )
        model = init_model(stem, [BranchConfig("only", (3, 1))], seed=0)
        hist = train(model, chunks, vocab, TrainConfig(global_epochs=20, seed=0))
        locals_ = [e for e in hist.entries if e.local_epoch > 0]
        assert locals_[-1].train_loss < locals_[0].train_loss
