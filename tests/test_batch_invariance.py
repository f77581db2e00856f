"""A row's eval-mode probabilities do not depend on what else is in the batch or the scan."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evmguard import mol_net
from evmguard.errors import MalformedInputError
from evmguard.mol_net import (
    BranchConfig,
    Scanner,
    StemConfig,
    _branch_heads,
    _fused_kernels,
    _gru_step,
    _stacked_heads,
    _step_buffers,
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
    full = _gru_step(
        scan[0][ids], scan[1][ids], h_t, scan, _step_buffers(12, scan), np.empty_like(h_t)
    )
    for m in range(2, 12):
        part = _gru_step(
            scan[0][ids[:m]], scan[1][ids[:m]], h_t[:m], scan,
            _step_buffers(m, scan), np.empty_like(h_t[:m]),
        )
        for whole, rows in zip(full, part):
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


def test_scanner_rows_match_solo_forward_across_block_edges():
    # A block of steps is at most _BLOCK_ROW_STEPS // rows steps long, so a
    # span longer than that puts block edges inside rows; admissions land
    # on the last step of a block, on the first step of the next one and in
    # the middle of one in use, and the ring wraps inside a block.
    span = 700
    stem = StemConfig(vocab_size=12, embedding_dim=4, gru_hidden=8, max_sequence_length=span)
    model = init_model(stem, [BranchConfig("one_layer", (1,)), BranchConfig("two_layer", (6, 1))], seed=4)
    # an update gate near 1 keeps most of the state at every step, so a
    # wrong step hundreds of steps before a row's end still shows in its bits
    model.params["gru/bz"][:] = 4.0
    rng = np.random.default_rng(3)

    def row(n, zeros_at=()):
        ids = np.zeros(span, dtype=np.int32)
        ids[:n] = rng.integers(1, 12, n)
        ids[list(zeros_at)] = 0
        return ids

    scanner = Scanner(model)
    rows, names, results = {}, {}, {}

    def admit(name, ids):
        rows[name] = ids
        slot = scanner.admit(ids)
        names[slot] = name
        return slot

    def position():
        """(steps of the current block already run, its length)."""
        return scanner._step - scanner._block_start, len(scanner._block[0])

    def advance_until(reached):
        while scanner._block is None or not reached(*position()):
            for slot, probs in scanner.advance():
                results[names[slot]] = probs

    admit("a", row(span))  # slots 0 and 1: blocks of 512 steps
    advance_until(lambda k, n: k == n - 1)
    assert scanner._step == 511
    # on the block's last step: slot 2 is new and the ring grows; the next
    # block (3 rows, 341 steps from ring row 511) runs across the ring's
    # wrap at 700, and b's interior zeros sit on its last step and the
    # next block's first
    assert admit("b", row(600, zeros_at=(340, 341))) == 2
    advance_until(lambda k, n: k == n)
    assert scanner._step == 852 and "a" in results
    assert admit("c", row(100)) == 1  # first step of the next block, a's freed slot
    advance_until(lambda k, n: k == 50)
    assert admit("d", row(200, zeros_at=(0, 5))) == 3  # mid-block: the rows grow to 4
    advance_until(lambda k, n: k == 100)
    # mid-block into c's freed slot: the block has read its old ids
    assert "c" in results and admit("e", row(150)) == 1
    while scanner._next_end is not None:
        for slot, probs in scanner.advance():
            results[names[slot]] = probs
    assert set(results) == set(rows)
    for name, ids in rows.items():
        assert results[name].tobytes() == solo(model, ids).tobytes(), name


def test_scanner_with_more_rows_than_a_block_holds(monkeypatch):
    # more rows in flight than the block's row-step budget: blocks of one step
    monkeypatch.setattr(mol_net, "_BLOCK_ROW_STEPS", 4)
    model = make_model()
    rng = np.random.default_rng(5)
    rows = [padded(rng.integers(0, 12, k)) for k in (3, 9, 1, 17, 24, 6, 2)]
    scanner = Scanner(model)
    names, results = {}, {}
    for k, row in enumerate(rows):
        names[scanner.admit(row)] = k
        if k == 2:  # the one-token row leaves and its slot is taken again
            results.update((names[slot], probs) for slot, probs in scanner.advance())
    while scanner._next_end is not None:
        results.update((names[slot], probs) for slot, probs in scanner.advance())
    for k, row in enumerate(rows):
        assert results[k].tobytes() == solo(model, row).tobytes(), k


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
