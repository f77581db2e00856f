"""Model structure, forward semantics, Adam, freezing, serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evmguard.errors import ConfigError, LoadError, MalformedInputError, UsageError
from evmguard.evm_bytecode import TOKENS
from evmguard.tokenizer import SEQUENCE_LENGTH_CEILING, VOCAB_SIZE_CEILING, encode, fit
from evmguard.mol_net import (
    MAX_WIDTH,
    REFERENCE_STEM,
    AdamState,
    BranchConfig,
    ForwardCache,
    MolModel,
    StemConfig,
    adam_step,
    add_branch,
    backward,
    bce_loss,
    branch_param_count,
    dropout_mask,
    forward,
    init_model,
    load_model,
    param_count,
    save_model,
    stem_param_count,
    stem_states,
    _branch_heads,
    _fused_kernels,
    _stacked_heads,
)

SMALL_STEM = StemConfig(
    vocab_size=10, embedding_dim=4, gru_hidden=6, dropout_rate=0.2, max_sequence_length=12
)


def small_model(n_branches=2, seed=3):
    return init_model(
        SMALL_STEM,
        [BranchConfig(f"c{i}", (5, 1)) for i in range(n_branches)],
        seed=seed,
    )


def ids_batch():
    return np.array(
        [[2, 3, 4, 5, 0, 0, 0, 0, 0, 0, 0, 0], [6, 7, 8, 9, 2, 3, 0, 0, 0, 0, 0, 0]],
        dtype=np.int32,
    )


class TestParameterArithmetic:
    def test_default_branch_is_16641(self):
        assert branch_param_count(BranchConfig("x")) == 16641
        assert 64 * 128 + 128 + 128 * 64 + 64 + 64 * 1 + 1 == 16641

    def test_two_branches_are_33282(self):
        assert 2 * branch_param_count(BranchConfig("x")) == 33282

    def test_single_neuron_branch_on_hidden_64(self):
        assert branch_param_count(BranchConfig("x", (1,))) == 65

    def test_six_default_branches(self):
        model = init_model(
            StemConfig(vocab_size=30, embedding_dim=8),
            [BranchConfig(f"c{i}") for i in range(6)],
            seed=0,
        )
        per_branch = param_count(model, "per-branch")
        assert all(v == 16641 for v in per_branch.values())
        assert sum(per_branch.values()) == 99846

    def test_reference_stem_is_16000(self):
        assert stem_param_count(REFERENCE_STEM) == 16000
        assert 16000 + 6 * 16641 == 115846

    def test_param_count_matches_analytic(self):
        model = small_model()
        expected = stem_param_count(SMALL_STEM) + 2 * branch_param_count(
            BranchConfig("x", (5, 1)), input_width=6
        )
        assert param_count(model, "all") == expected

    def test_all_frozen_means_zero_trainable(self):
        model = small_model()
        model.set_stem_frozen(True)
        for name in model.class_names:
            model.set_branch_frozen(name, True)
        assert param_count(model, "trainable") == 0


class TestInit:
    def test_same_seed_identical(self):
        a, b = small_model(seed=5), small_model(seed=5)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_different_seed_differs(self):
        a, b = small_model(seed=5), small_model(seed=6)
        assert any(
            not np.array_equal(a.params[n], b.params[n]) for n in a.params
        )

    def test_biases_zero_weights_bounded(self):
        model = small_model()
        for name, arr in model.params.items():
            if name.endswith(("bz", "br", "bc")) or ":b" in name:
                assert not arr.any()
            else:
                fan_in = arr.shape[0] if name != "embedding" else SMALL_STEM.embedding_dim
                if name.startswith("gru/u"):
                    fan_in = SMALL_STEM.gru_hidden
                assert np.abs(arr).max() <= 1.0 / math.sqrt(fan_in)

    def test_duplicate_branch_names_rejected(self):
        with pytest.raises(ConfigError):
            init_model(SMALL_STEM, [BranchConfig("a"), BranchConfig("a")], seed=0)

    def test_branch_must_end_in_one_neuron(self):
        with pytest.raises(ConfigError):
            BranchConfig("a", (8, 2))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("embedding_dim", MAX_WIDTH + 1),
            ("embedding_dim", 2**62),
            ("gru_hidden", MAX_WIDTH + 1),
            ("max_sequence_length", SEQUENCE_LENGTH_CEILING + 1),
            ("max_sequence_length", 2**62),
            ("vocab_size", VOCAB_SIZE_CEILING + 1),
            ("vocab_size", 2**62),
        ],
    )
    def test_stem_size_above_its_ceiling_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(SMALL_STEM, **{field: value})

    @pytest.mark.parametrize("width", [MAX_WIDTH + 1, 2**62])
    def test_dense_width_above_the_ceiling_rejected(self, width):
        with pytest.raises(ConfigError, match="dense widths"):
            BranchConfig("a", (width, 1))

    def test_sizes_at_their_ceiling_accepted(self):
        dataclasses.replace(
            SMALL_STEM, vocab_size=VOCAB_SIZE_CEILING, embedding_dim=MAX_WIDTH,
            gru_hidden=MAX_WIDTH, max_sequence_length=SEQUENCE_LENGTH_CEILING,
        )
        BranchConfig("a", (MAX_WIDTH, 1))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: StemConfig(10, 4, 8, 0.2, 12.0),
            lambda: dataclasses.replace(SMALL_STEM, embedding_dim=2.5),
            lambda: dataclasses.replace(SMALL_STEM, embedding_dim=True),
            lambda: dataclasses.replace(SMALL_STEM, vocab_size=np.int64(10)),
            lambda: dataclasses.replace(SMALL_STEM, gru_hidden="6"),
            lambda: dataclasses.replace(SMALL_STEM, dropout_rate=False),
            lambda: dataclasses.replace(SMALL_STEM, dropout_rate=np.float32(0.2)),
            lambda: BranchConfig("a", (4.0, 1)),
            lambda: BranchConfig("a", (4, True)),
            lambda: BranchConfig("a", [4, 1]),
            lambda: BranchConfig(7, (4, 1)),
        ],
        ids=[
            "float_length", "float_width", "bool_width", "numpy_int_vocab", "str_hidden",
            "bool_dropout", "numpy_float32_dropout", "float_dense_width", "bool_dense_width",
            "list_dense_widths", "int_class_name",
        ],
    )
    def test_value_a_header_cannot_hold_is_a_config_error(self, make):
        with pytest.raises(ConfigError):
            make()

    @pytest.mark.parametrize("dropout_rate", [0, np.float64(0.25)])
    def test_accepted_configs_save_and_load_back(self, tmp_path, dropout_rate):
        stem = dataclasses.replace(SMALL_STEM, dropout_rate=dropout_rate)
        save_model(init_model(stem, [BranchConfig("a", (3, 1))], seed=0), tmp_path / "m.bin")
        loaded = load_model(tmp_path / "m.bin")
        assert (loaded.stem, loaded.branches) == (stem, [BranchConfig("a", (3, 1))])

    def test_vocab_ceiling_is_the_largest_vocabulary(self):
        assert len(fit([TOKENS])) == VOCAB_SIZE_CEILING == 259

    def test_huge_vocab_size_is_a_config_error_not_a_numpy_error(self):
        with pytest.raises(ConfigError, match="vocab_size"):
            init_model(
                StemConfig(vocab_size=2**62, embedding_dim=2, gru_hidden=2, max_sequence_length=4),
                [BranchConfig("a", (1,))],
                seed=0,
            )


class TestForward:
    def test_all_padding_gives_half_at_init(self):
        model = small_model()
        probs = forward(model, np.zeros((3, 12), dtype=np.int32))
        np.testing.assert_array_equal(probs, np.full((3, 2), 0.5, dtype=np.float32))

    def test_eval_deterministic(self):
        model = small_model()
        a = forward(model, ids_batch())
        b = forward(model, ids_batch())
        np.testing.assert_array_equal(a, b)

    def test_train_mode_dropout_depends_only_on_seed(self):
        model = small_model()
        a = forward(model, ids_batch(), mode="train", seed=4)
        b = forward(model, ids_batch(), mode="train", seed=4)
        c = forward(model, ids_batch(), mode="train", seed=5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_padding_invariance(self):
        model = small_model()
        short = np.array([[2, 3, 4, 0, 0, 0]], dtype=np.int32)
        long = np.array([[2, 3, 4] + [0] * 9], dtype=np.int32)
        np.testing.assert_array_equal(forward(model, short), forward(model, long))

    def test_probabilities_strictly_inside_unit_interval(self):
        model = small_model()
        # blow up a head bias to saturate the sigmoid
        model.params["branch:c0:b1"][:] = 1e6
        probs = forward(model, ids_batch())
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_branch_independence(self):
        base = small_model()
        probs_before = forward(base, ids_batch())
        base.params["branch:c0:b1"][0] += 0.25
        probs_after = forward(base, ids_batch())
        assert np.all(probs_after[:, 0] != probs_before[:, 0])
        np.testing.assert_array_equal(probs_after[:, 1], probs_before[:, 1])

    def test_leading_padding_does_not_drop_tokens(self):
        # the scan runs to the last nonzero id, not to the count of them
        model = small_model()
        probs = forward(model, np.array([[0, 5, 0]], dtype=np.int32))
        assert not np.array_equal(probs, forward(model, np.zeros((1, 3), np.int32)))
        np.testing.assert_array_equal(
            probs, forward(model, np.array([[5, 0, 0]], dtype=np.int32))
        )

    def test_out_of_range_ids_rejected(self):
        model = small_model()
        bad = np.array([[99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]], dtype=np.int32)
        with pytest.raises(MalformedInputError):
            forward(model, bad)

    @pytest.mark.parametrize(
        "ids", [[[1.0, 2.0]], [[True, False]], [["1", "2"]]], ids=["float", "bool", "str"]
    )
    def test_non_integer_ids_rejected(self, ids):
        # a float matrix used to leak IndexError from the embedding gather
        with pytest.raises(MalformedInputError, match="integers"):
            forward(small_model(), np.array(ids))

    def test_bad_mode_rejected(self):
        with pytest.raises(UsageError):
            forward(small_model(), ids_batch(), mode="predict")


class TestBceLoss:
    def test_half_probability_is_ln2(self):
        assert bce_loss(np.array([[1.0]]), np.array([[0.5]])) == pytest.approx(
            math.log(2)
        )

    def test_perfect_prediction_tends_to_zero(self):
        loss = bce_loss(np.array([[1.0]]), np.array([[1.0 - 1e-7]]))
        assert loss < 1e-6

    def test_hand_value(self):
        loss = bce_loss(np.array([[1.0, 0.0]]), np.array([[0.9, 0.1]]))
        assert loss == pytest.approx(-math.log(0.9), rel=1e-9)
        assert loss == pytest.approx(0.10536, abs=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            bce_loss(np.zeros((2, 1)), np.zeros((2, 2)))


class TestAdam:
    def test_single_scalar_first_step(self):
        model = small_model()
        name = "branch:c0:b1"
        before = model.params[name].copy()
        grads = {name: np.ones_like(model.params[name])}
        adam_step(model, grads, AdamState(), lr=0.001)
        delta = model.params[name] - before
        # bias-corrected moments are both 1 at t=1, so the step is -lr/(1+eps-ish)
        np.testing.assert_allclose(delta, -0.001, rtol=1e-4)

    def test_zero_gradient_is_noop(self):
        model = small_model()
        before = {k: v.copy() for k, v in model.params.items()}
        grads = {k: np.zeros_like(v) for k, v in model.params.items()}
        adam_step(model, grads, AdamState())
        for k in before:
            np.testing.assert_array_equal(model.params[k], before[k])

    def test_frozen_block_ignores_gradient(self):
        model = small_model()
        model.set_branch_frozen("c0", True)
        before = {k: v.copy() for k, v in model.params.items()}
        grads = {k: np.ones_like(v) for k, v in model.params.items()}
        adam_step(model, grads, AdamState())
        for name in model.blocks_of_branch("c0"):
            np.testing.assert_array_equal(model.params[name], before[name])
        assert not np.array_equal(model.params["embedding"], before["embedding"])

    def test_state_counts_steps(self):
        model = small_model()
        state = AdamState()
        g = {"embedding": np.zeros_like(model.params["embedding"])}
        adam_step(model, g, state)
        adam_step(model, g, state)
        assert state.step == 2


def per_block_adam(model, grads, state, lr):
    """Adam as one update per block, with `state` a dict of per-block moments."""
    state["t"] = t = state.get("t", 0) + 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    for name, grad in grads.items():
        if name in model.frozen:
            continue
        param = model.params[name]
        m = state.setdefault(("m", name), np.zeros_like(param))
        v = state.setdefault(("v", name), np.zeros_like(param))
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestFlatAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("frozen", [None, "gru/uz"])
    def test_bit_identical_to_per_block_adam(self, dtype, frozen):
        stem = dataclasses.replace(SMALL_STEM, dropout_rate=0.0)
        flat = init_model(stem, [BranchConfig("a", (5, 1)), BranchConfig("b", (3, 1))], 4, dtype)
        if frozen:
            flat.frozen.add(frozen)
        reference = init_model(stem, flat.branches, 4, dtype)
        reference.frozen = set(flat.frozen)
        state, ref_state = AdamState(), {}
        rng = np.random.default_rng(0)
        for _ in range(5):
            # gradients of every block, frozen ones included, on wide scales
            grads = {name: (rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)).astype(dtype)
                     for name, p in flat.params.items()}
            adam_step(flat, grads, state, lr=0.003)
            per_block_adam(reference, grads, ref_state, lr=0.003)
            for name, param in reference.params.items():
                assert flat.params[name].tobytes() == param.tobytes(), name
        assert state.step == 5
        assert state.names == tuple(n for n in flat.params if n != frozen)
        assert state.m.size == param_count(flat, "trainable")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda g: g.pop("embedding"),
            lambda g: g.update(extra=np.zeros(3, np.float32)),
            lambda g: g.update({"gru/bz": np.zeros(5, np.float32)}),
            lambda g: g.update({"gru/bz": np.float32(1.0)}),
        ],
        ids=["missing_block", "unknown_block", "wrong_shape", "scalar"],
    )
    def test_other_blocks_than_the_state_holds_raise_usage_error(self, edit):
        model = small_model()
        state = AdamState()
        grads = {k: np.ones_like(v) for k, v in model.params.items()}
        adam_step(model, grads, state)
        before = {k: v.copy() for k, v in model.params.items()}
        m = state.m.copy()
        edit(grads)
        with pytest.raises(UsageError):
            adam_step(model, grads, state)
        assert state.step == 1 and state.m.tobytes() == m.tobytes()
        for k in before:
            assert model.params[k].tobytes() == before[k].tobytes()

    def test_first_step_with_an_unknown_block_raises_usage_error(self):
        model = small_model()
        with pytest.raises(UsageError):
            adam_step(model, {"nope": np.zeros(2, np.float32)}, AdamState())


class TestAddBranch:
    def test_appends_and_preserves(self):
        model = small_model()
        before = {k: v.copy() for k, v in model.params.items()}
        probs_before = forward(model, ids_batch())
        add_branch(model, BranchConfig("new", (5, 1)), seed=11)
        assert model.class_names == ["c0", "c1", "new"]
        for k in before:
            np.testing.assert_array_equal(model.params[k], before[k])
        probs_after = forward(model, ids_batch())
        assert probs_after.shape == (2, 3)
        np.testing.assert_array_equal(probs_after[:, :2], probs_before)

    def test_duplicate_rejected(self):
        model = small_model()
        with pytest.raises(ConfigError):
            add_branch(model, BranchConfig("c0"), seed=0)

    def test_two_default_branches_add_33282_trainable(self):
        model = init_model(
            StemConfig(vocab_size=30, embedding_dim=8), [BranchConfig("a")], seed=0
        )
        before = param_count(model, "trainable")
        add_branch(model, BranchConfig("b"), seed=1)
        add_branch(model, BranchConfig("c"), seed=2)
        assert param_count(model, "trainable") - before == 33282


class TestStemStates:
    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("rows", [1, 2, 7])
    @pytest.mark.parametrize("hidden", [6, 64])
    def test_stand_in_for_the_scan(self, mode, rows, hidden):
        # at hidden 64 a lone row's scan rounds differently from the same row among others
        model = init_model(dataclasses.replace(SMALL_STEM, gru_hidden=hidden),
                           [BranchConfig("a", (5, 1)), BranchConfig("b", (1,))], seed=3)
        ids = np.random.default_rng(rows).integers(0, 10, (rows, 200))
        states = stem_states(model, ids, mode)
        expected = forward(model, ids, mode=mode, seed=5)
        assert forward(model, ids, mode=mode, seed=5, stem_states=states).tobytes() == expected.tobytes()

    def test_an_eval_rows_state_does_not_depend_on_its_batch(self):
        # a lone row is scanned as two copies, as forward runs it
        model = init_model(dataclasses.replace(SMALL_STEM, gru_hidden=64), [BranchConfig("a")], seed=3)
        ids = np.random.default_rng(0).integers(0, 10, (3, 200))
        batch = stem_states(model, ids, "eval")
        for row in range(3):
            assert stem_states(model, ids[row : row + 1], "eval").tobytes() == batch[row].tobytes()

    @pytest.mark.parametrize(
        "states",
        [np.zeros((2, 5), np.float32), np.zeros((3, 6), np.float32), np.zeros((2, 6)), [[0.0] * 6] * 2],
        ids=["width", "rows", "dtype", "list"],
    )
    def test_wrong_states_raise_usage_error(self, states):
        with pytest.raises(UsageError, match="stem_states"):
            forward(small_model(), ids_batch(), mode="train", keep_cache=True, stem_states=states)


class TestBackwardContracts:
    def test_requires_matching_cache(self):
        a, b = small_model(seed=1), small_model(seed=2)
        _, cache = forward(a, ids_batch(), mode="train", seed=0, keep_cache=True)
        with pytest.raises(UsageError):
            backward(b, cache, np.zeros((2, 2)))

    def test_frozen_stem_yields_no_stem_gradients(self):
        model = small_model()
        model.set_stem_frozen(True)
        _, cache = forward(model, ids_batch(), mode="train", seed=0, keep_cache=True)
        grads = backward(model, cache, np.ones((2, 2)))
        assert all(name.startswith("branch:") for name in grads)

    def test_head_bias_gradient_closed_form(self):
        # single branch: d loss / d head-bias = mean(p - y)
        model = init_model(SMALL_STEM, [BranchConfig("only", (5, 1))], seed=4)
        y = np.array([[1.0], [0.0]])
        probs, cache = forward(model, ids_batch(), keep_cache=True)
        grads = backward(model, cache, y)
        np.testing.assert_allclose(
            grads["branch:only:b1"], np.mean(probs - y), rtol=1e-6
        )

    def test_label_shape_checked(self):
        model = small_model()
        _, cache = forward(model, ids_batch(), keep_cache=True)
        with pytest.raises(ConfigError):
            backward(model, cache, np.zeros((2, 3)))


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        model = small_model()
        model.vocab_fingerprint = "sha256:abc"
        model.set_branch_frozen("c1", True)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.stem == model.stem
        assert loaded.branches == model.branches
        assert loaded.frozen == model.frozen
        assert loaded.vocab_fingerprint == "sha256:abc"
        np.testing.assert_array_equal(
            forward(loaded, ids_batch()), forward(model, ids_batch())
        )

    def test_truncated_file_rejected(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(LoadError, match="truncated"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(LoadError, match="magic"):
            load_model(path)

    def test_version_mismatch_names_versions(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(LoadError, match="99"):
            load_model(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(LoadError, match="trailing"):
            load_model(path)


def rewrite_header(path, edit):
    """Apply `edit` to the JSON header of the container at `path`, in place."""
    blob = path.read_bytes()
    n = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16 : 16 + n])
    edit(header)
    payload = json.dumps(header).encode()
    path.write_bytes(blob[:8] + len(payload).to_bytes(8, "little") + payload + blob[16 + n :])


def test_header_above_the_vocab_ceiling_is_a_load_error(tmp_path):
    # a file whose blocks fit a 260-row embedding: only the ceiling refuses it
    stem = dataclasses.replace(SMALL_STEM, vocab_size=VOCAB_SIZE_CEILING)
    path = tmp_path / "model.bin"
    save_model(init_model(stem, [BranchConfig("a", (1,))], seed=0), path)
    d = stem.embedding_dim

    def widen(header):
        header["stem"]["vocab_size"] = VOCAB_SIZE_CEILING + 1
        header["blocks"][0]["shape"] = [VOCAB_SIZE_CEILING + 1, d]

    rewrite_header(path, widen)
    blob = path.read_bytes()
    embedding_end = 16 + int.from_bytes(blob[8:16], "little") + 4 * VOCAB_SIZE_CEILING * d
    path.write_bytes(blob[:embedding_end] + bytes(4 * d) + blob[embedding_end:])
    with pytest.raises(LoadError, match=f"vocab_size must be in \\[2, {VOCAB_SIZE_CEILING}\\]"):
        load_model(path)


class TestMalformedHeader:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h["stem"].update(extra=1),
            lambda h: h["blocks"][0].update(name="embed"),
            lambda h: h.pop("frozen"),
            lambda h: h.update(blocks=5),
            lambda h: h.update(blocks=h["blocks"][::-1]),
            lambda h: h["blocks"][1].update(shape=[6, 4]),
            lambda h: h["stem"].update(max_sequence_length=12.0),
            lambda h: h["stem"].update(max_sequence_length=2**62),
            lambda h: h["stem"].update(vocab_size=11),
            lambda h: h["stem"].update(dropout_rate=1.5),
            lambda h: h["branches"][0].update(dense_widths=[5, 2]),
            lambda h: h["branches"].append(h["branches"][0]),
            lambda h: h.update(frozen=["gru/wz", "gru/nope"]),
            lambda h: h.update(frozen="embedding"),
            lambda h: h.update(vocab_fingerprint=7),
            lambda h: h.update(stem=[]),
            lambda h: h.update(branches=[["class_name", "dense_widths"]]),
        ],
        ids=[
            "unknown_stem_key", "renamed_block", "missing_frozen", "blocks_not_a_list",
            "blocks_reordered", "block_shape", "float_length", "length_above_ceiling",
            "vocab_size_vs_blocks",
            "dropout_out_of_range", "branch_without_single_head", "duplicate_branch",
            "frozen_unknown_block", "frozen_not_a_list", "fingerprint_not_a_string",
            "stem_not_an_object", "branch_not_an_object",
        ],
    )
    def test_rejected_with_load_error(self, tmp_path, edit):
        path = tmp_path / "model.bin"
        save_model(small_model(), path)
        rewrite_header(path, edit)
        with pytest.raises(LoadError):
            load_model(path)

    def test_unedited_rewrite_still_loads(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(small_model(), path)
        rewrite_header(path, lambda h: None)
        np.testing.assert_array_equal(
            forward(load_model(path), ids_batch()), forward(small_model(), ids_batch())
        )


TINY_STEM = StemConfig(
    vocab_size=4, embedding_dim=2, gru_hidden=2, dropout_rate=0.2, max_sequence_length=5
)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_any_byte_mutation_loads_a_working_model_or_raises_load_error(tmp_path_factory, data):
    model = init_model(TINY_STEM, [BranchConfig("a", (2, 1))], seed=0)
    model.vocab_fingerprint = "sha256:0f"
    model.set_stem_frozen(True)
    path = tmp_path_factory.mktemp("mutant") / "model.bin"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    header_end = 16 + int.from_bytes(blob[8:16], "little")
    pos = data.draw(st.one_of(st.integers(0, header_end - 1), st.integers(0, len(blob) - 1)))
    blob[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]))
    path.write_bytes(bytes(blob))
    try:
        loaded = load_model(path)
    except LoadError:
        return
    ids = encode(["60", "01"], fit([["60", "01"]]), loaded.stem.max_sequence_length).ids
    probs = forward(loaded, ids[None] % loaded.stem.vocab_size)
    assert probs.shape == (1, len(loaded.branches))
    assert loaded.frozen <= set(loaded.params)


def declared_blocks(header):
    """The blocks, in order, that a header's stem and branches declare."""
    stem = header["stem"]
    d, h = stem["embedding_dim"], stem["gru_hidden"]
    shapes = [("embedding", [stem["vocab_size"], d])]
    for g in "zrc":
        shapes += [(f"gru/w{g}", [d, h]), (f"gru/u{g}", [h, h]), (f"gru/b{g}", [h])]
    for b in header["branches"]:
        fan_in = h
        for i, width in enumerate(b["dense_widths"]):
            name = f"branch:{b['class_name']}"
            shapes += [(f"{name}:w{i}", [fan_in, width]), (f"{name}:b{i}", [width])]
            fan_in = width
    return [{"name": n, "shape": s} for n, s in shapes]


HEADER_INTS = ("vocab_size", "embedding_dim", "gru_hidden", "max_sequence_length", "dense_width")


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from(HEADER_INTS),
    value=st.one_of(
        st.integers(-3, 8),
        st.sampled_from([MAX_WIDTH, MAX_WIDTH + 1, SEQUENCE_LENGTH_CEILING,
                         SEQUENCE_LENGTH_CEILING + 1, 2**62, 2**64]),
        st.integers(-(2**70), 2**70),
    ),
    match_blocks=st.booleans(),
)
def test_any_header_size_loads_a_working_model_or_raises_load_error(
    tmp_path_factory, field, value, match_blocks
):
    path = tmp_path_factory.mktemp("sizes") / "model.bin"
    save_model(init_model(TINY_STEM, [BranchConfig("a", (2, 1))], seed=0), path)

    def edit(header):
        assert declared_blocks(header) == header["blocks"]
        if field == "dense_width":
            header["branches"][0]["dense_widths"][0] = value
        else:
            header["stem"][field] = value
        if match_blocks:
            header["blocks"] = declared_blocks(header)

    rewrite_header(path, edit)
    try:
        loaded = load_model(path)
    except LoadError:
        return
    ids = encode(["60", "01"], fit([["60", "01"]]), loaded.stem.max_sequence_length).ids
    assert forward(loaded, ids[None] % loaded.stem.vocab_size).shape == (1, 1)


@settings(max_examples=30, deadline=None)
@given(
    prefix=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6),
    pad=st.integers(min_value=0, max_value=6),
)
def test_padding_suffix_never_changes_output(prefix, pad):
    model = small_model()
    a = forward(model, np.array([prefix], dtype=np.int32))
    b = forward(model, np.array([prefix + [0] * pad], dtype=np.int32))
    np.testing.assert_array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(
    tokens=st.lists(st.integers(min_value=1, max_value=9), max_size=8),
    gaps=st.lists(st.integers(min_value=0, max_value=3), min_size=9, max_size=9),
    mode=st.sampled_from(["eval", "train"]),
)
def test_zeros_anywhere_match_zeros_removed(tokens, gaps, mode):
    # gaps[i] zeros go before tokens[i]; the last gap trails the row
    model = small_model()
    row = []
    for i, tok in enumerate(tokens):
        row += [0] * gaps[i] + [tok]
    row += [0] * gaps[len(tokens)]
    compact = tokens + [0] * (len(row) - len(tokens))
    a = forward(model, np.array([row], dtype=np.int32), mode=mode, seed=3)
    b = forward(model, np.array([compact], dtype=np.int32), mode=mode, seed=3)
    np.testing.assert_array_equal(a, b)


def per_step_forward(model, ids, mode, seed):
    """The ForwardCache of the scan as it ran before steps were gathered per block.

    One gather per table and fresh arrays at every step, in the same order
    of operations as the block scan, which must match it byte for byte.
    """
    x_zr_half, x_c, u_zr_half, u_c = _fused_kernels(model.params)[2]
    h = model.stem.gru_hidden
    dtype = model.params["embedding"].dtype
    used = np.flatnonzero((ids != 0).any(axis=0))
    t_used = int(used[-1]) + 1 if used.size else 0
    steps = ids[:, :t_used].T.astype(np.intp, order="C")
    live = (steps != 0)[:, :, None]
    h_t = np.zeros((ids.shape[0], h), dtype=dtype)
    h_states = np.empty((t_used + 1, ids.shape[0], h), dtype=dtype)
    zr_states = np.empty((t_used, ids.shape[0], 2 * h), dtype=dtype)
    c_states = np.empty((t_used, ids.shape[0], h), dtype=dtype)
    h_states[0] = h_t
    for t in range(t_used):
        zr = h_t @ u_zr_half
        zr += x_zr_half[steps[t]]
        zr = zr[:, : 2 * h]
        np.tanh(zr, out=zr)
        zr += np.float32(1.0)
        zr *= np.float32(0.5)
        c = (zr[:, h:] * h_t) @ u_c
        c += x_c[steps[t]]
        c = c[:, :h]
        np.tanh(c, out=c)
        h_new = h_t - c
        h_new *= zr[:, :h]
        h_new += c
        h_t = np.where(live[t], h_new, h_t)
        h_states[t + 1], zr_states[t], c_states[t] = h_t, zr, c
    drop, h_final = None, h_t
    if mode == "train" and model.stem.dropout_rate > 0.0:
        drop = dropout_mask(h_t.shape, model.stem.dropout_rate, seed, dtype)
        h_final = h_t * drop
    probs, inputs, pre = _branch_heads(h_final, _stacked_heads(model))
    return ForwardCache(
        model, ids, steps, live, h_states, zr_states, c_states, drop, h_final, inputs, pre, probs
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hidden", [1, 8, 50])
@pytest.mark.parametrize("batch", [1, 2, 40, 300, 1100])
def test_block_scan_is_byte_equal_to_the_per_step_scan(dtype, hidden, batch):
    # 300 rows make blocks of 3 steps and 1,100 rows blocks of 1
    stem = StemConfig(vocab_size=10, embedding_dim=3, gru_hidden=hidden, dropout_rate=0.2,
                      max_sequence_length=60)
    model = init_model(stem, [BranchConfig("a", (1,)), BranchConfig("b", (5, 1))], seed=hidden,
                       dtype=dtype)
    rng = np.random.default_rng(batch)
    steps = 60 if batch < 300 else 14
    ids = rng.integers(1, 10, (batch, steps))
    # every row is dense for its first third, then interior zeros and ragged ends
    ids[:, steps // 3 :] *= rng.random((batch, steps - steps // 3)) < 0.9
    ids[np.arange(steps) >= rng.integers(steps // 3, steps + 1, (batch, 1))] = 0
    labels = rng.integers(0, 2, (batch, 2))
    # forward runs a lone row in eval mode without a cache as two copies
    rows = np.repeat(ids, 2, axis=0) if batch == 1 else ids
    expected = per_step_forward(model, rows, "eval", 0).probs[:batch]
    assert forward(model, ids).tobytes() == expected.tobytes()
    for mode in ("eval", "train"):
        reference = per_step_forward(model, ids, mode, 7)
        _, cache = forward(model, ids, mode=mode, seed=7, keep_cache=True)
        for name in ("probs", "h_states", "zr", "c"):
            assert getattr(cache, name).tobytes() == getattr(reference, name).tobytes(), (mode, name)
        grads = backward(model, cache, labels)
        expected_grads = backward(model, reference, labels)
        assert grads.keys() == expected_grads.keys()
        for name, grad in expected_grads.items():
            assert grads[name].tobytes() == grad.tobytes(), (mode, name)
