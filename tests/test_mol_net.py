"""Model structure, forward semantics, Adam, freezing, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evmguard.errors import ConfigError, LoadError, MalformedInputError, UsageError
from evmguard.mol_net import (
    REFERENCE_STEM,
    AdamState,
    BranchConfig,
    MolModel,
    StemConfig,
    adam_step,
    add_branch,
    backward,
    bce_loss,
    branch_param_count,
    forward,
    init_model,
    load_model,
    param_count,
    save_model,
    stem_param_count,
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
