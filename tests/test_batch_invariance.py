"""A row's eval-mode probabilities do not depend on what else is in the batch or the scan."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evmguard.errors import MalformedInputError
from evmguard.mol_net import (
    BranchConfig,
    Scanner,
    StemConfig,
    _branch_heads,
    _fused_kernels,
    _gru_step,
    _stacked_heads,
    forward,
    init_model,
)

MAX_LEN = 24


def make_model(hidden=8, seed=5):
    stem = StemConfig(
        vocab_size=12, embedding_dim=4, gru_hidden=hidden,
        dropout_rate=0.2, max_sequence_length=MAX_LEN,
    )
    branches = [BranchConfig("one_layer", (1,)), BranchConfig("two_layer", (6, 1))]
    return init_model(stem, branches, seed=seed)


def solo(model, row):
    return forward(model, np.asarray(row, dtype=np.int32)[None, :])[0]


def padded(tokens, width=MAX_LEN):
    row = np.zeros(width, dtype=np.int32)
    row[: len(tokens)] = tokens
    return row


@settings(max_examples=40, deadline=None)
@given(
    hidden=st.sampled_from([3, 8, 50, 64]),
    rows=st.lists(
        st.lists(st.integers(min_value=1, max_value=11), max_size=MAX_LEN),
        min_size=1,
        max_size=9,
    ),
)
def test_forward_row_is_byte_equal_to_the_row_alone(hidden, rows):
    model = make_model(hidden)
    batch = np.stack([padded(r) for r in rows])
    together = forward(model, batch)
    for i in range(len(rows)):
        assert together[i].tobytes() == forward(model, batch[i : i + 1])[0].tobytes()


# The sigmoid at the end of a branch can round a 1-ulp change away, so the
# two tests below compare what comes before it: a BLAS product of width 1,
# 2-7 or 100 (gemv, or a kernel tail) changes rows with the row count.


@pytest.mark.parametrize("hidden", [50, 64])
def test_gru_step_rows_do_not_depend_on_the_row_count(hidden):
    model = make_model(hidden)
    _, _, scan = _fused_kernels(model.params)
    rng = np.random.default_rng(2)
    ids = rng.integers(0, 12, 12)
    h_t = rng.uniform(-1, 1, (12, hidden)).astype(np.float32)
    full = _gru_step(ids, h_t, scan)
    for m in range(2, 12):
        for whole, rows in zip(full, _gru_step(ids[:m], h_t[:m], scan)):
            assert rows.tobytes() == whole[:m].tobytes()


@pytest.mark.parametrize("hidden", [50, 64])
def test_branch_pre_activations_do_not_depend_on_the_row_count(hidden):
    model = make_model(hidden)
    heads = _stacked_heads(model)
    x = np.random.default_rng(1).standard_normal((12, hidden)).astype(np.float32)
    _, _, full = _branch_heads(x, heads)
    for m in range(2, 12):
        _, _, part = _branch_heads(x[:m], heads)
        for layers_full, layers_part in zip(full, part):
            for whole, rows in zip(layers_full, layers_part):
                assert rows.tobytes() == whole[:m].tobytes()


def test_scanner_rows_match_solo_forward_whatever_joins_and_leaves():
    model = make_model(hidden=8)
    rng = np.random.default_rng(0)
    rows = {
        "empty": padded([]),
        "long": padded(rng.integers(1, 12, MAX_LEN)),
        "interior_zero": padded([3, 0, 0, 7, 9]),
        "ends_with_a": padded(rng.integers(1, 12, 6)),
        "ends_with_b": padded(rng.integers(1, 12, 4)),
        "one_token": padded([4]),
        "late": padded(rng.integers(1, 12, 10)),
    }
    # step at which each row is admitted; ends_with_a and ends_with_b both
    # end after step 9, the empty contract shares its step with others
    schedule = {0: ["long", "empty"], 4: ["ends_with_a", "interior_zero"],
                6: ["ends_with_b"], 10: ["one_token", "late"]}
    scanner = Scanner(model)
    names, results, finished_at = {}, {}, {}
    for step in range(3 * MAX_LEN):
        for name in schedule.get(step, []):
            names[scanner.admit(rows[name])] = name
        for slot, probs in scanner.advance():
            results[names[slot]] = probs
            finished_at[names[slot]] = step
    assert set(results) == set(rows)
    assert finished_at["ends_with_a"] == finished_at["ends_with_b"] == 9
    assert finished_at["empty"] == 0
    for name, row in rows.items():
        assert results[name].tobytes() == solo(model, row).tobytes(), name


def test_scanner_reuses_slots_and_grows():
    model = make_model()
    scanner = Scanner(model)
    rows = [padded(np.arange(1, k + 2) % 11 + 1) for k in range(5)]
    slots = [scanner.admit(r) for r in rows]
    assert sorted(slots) == [1, 2, 3, 4, 5]  # slot 0 is never handed out
    done = {}
    while len(done) < len(rows):
        done.update(scanner.advance())
    assert scanner.advance() == []
    assert scanner.admit(rows[0]) == 1
    for slot, row in zip(slots, rows):
        assert done[slot].tobytes() == solo(model, row).tobytes()


@pytest.mark.parametrize(
    "ids",
    [np.array([1.0, 2.0]), np.array([True, False]), np.array([[1, 2]]),
     np.array([1, 99]), np.ones(MAX_LEN + 1, dtype=np.int32)],
)
def test_scanner_rejects_bad_rows(ids):
    scanner = Scanner(make_model())
    with pytest.raises(MalformedInputError):
        scanner.admit(ids)
    assert scanner.advance() == []
