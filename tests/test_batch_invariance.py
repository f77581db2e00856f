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


def one_step():
    """A `stop` that ends every `advance` after its first step."""
    return True


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
        for slot, probs in scanner.advance(one_step):
            results[names[slot]] = probs
            finished_at[names[slot]] = step
    assert set(results) == set(rows)
    assert finished_at["ends_with_a"] == finished_at["ends_with_b"] == 9
    assert finished_at["empty"] == 0
    for name, row in rows.items():
        assert results[name].tobytes() == solo(model, row).tobytes(), name


def memory_model(span):
    """A hidden-8 model whose update gate keeps most of the state at every step.

    With a default-init model a row's probabilities depend only on its last
    few dozen ids; with the update-gate bias at 4 a wrong step hundreds of
    steps before a row's end still shows in its bits.
    """
    stem = StemConfig(vocab_size=12, embedding_dim=4, gru_hidden=8, max_sequence_length=span)
    model = init_model(
        stem, [BranchConfig("one_layer", (1,)), BranchConfig("two_layer", (6, 1))], seed=4
    )
    model.params["gru/bz"][:] = 4.0
    return model


def run_schedule(scanner, admits, whole_blocks=False):
    """Admit each (step, ids) before that step and step until every row is back.

    Each `advance` runs one step, or with `whole_blocks` its whole block
    unless a row is due to be admitted before the next step. Counts the
    steps by the calls to `stop`; a call with no row in flight idles one
    step. Returns per row (slot, the step that finished it, probabilities)
    and the steps at which a call ran a block.
    """
    out = [None] * len(admits)
    in_flight, starts = {}, []
    due = {at for at, _ in admits}
    horizon = max(due) + max(ids.size for _, ids in admits) + 1
    step = 0

    def stop():
        nonlocal step
        step += 1
        return not whole_blocks or step in due

    while step < horizon:
        for i, (at, ids) in enumerate(admits):
            if at == step:
                in_flight[scanner.admit(ids)] = i
        start = step
        for slot, probs in scanner.advance(stop):
            out[in_flight.pop(slot)] = (slot, step - 1, probs)
        if step == start:
            step += 1
        else:
            starts.append(start)
    assert not in_flight and scanner.advance(stop) == []
    return out, starts


def assert_rows_match_solo(model, admits, out):
    """Each row comes back on step admitted + max(n, 1) - 1 with its solo `forward` bytes."""
    for (at, ids), (_, step, probs) in zip(admits, out):
        used = np.flatnonzero(ids)
        n = int(used[-1]) + 1 if used.size else 0
        assert step == at + max(n, 1) - 1, (at, n)
        assert probs.tobytes() == solo(model, ids).tobytes(), (at, n)


def test_scanner_rows_match_solo_forward_across_block_edges():
    # A block runs at most _BLOCK_ROW_STEPS // rows steps and no more steps
    # than the shortest row has left, and a row due to join ends it early.
    # Admits land on a block's last step (b), on the next block's first
    # step (c) and in the middle of blocks (d, e); b's interior zeros sit
    # on both sides of two block edges and d's on a block's first step.
    # The steps where blocks start are checked so the cases stay put.
    span = 700
    model = memory_model(span)
    rng = np.random.default_rng(3)

    def row(n, zeros_at=()):
        ids = np.zeros(span, dtype=np.int32)
        ids[:n] = rng.integers(1, 12, n)
        ids[list(zeros_at)] = 0
        return ids

    admits = [
        (0, row(700)),  # a: slots 0 and 1, blocks of 512 steps
        (511, row(600, zeros_at=(188, 189, 338, 339))),  # b: slot 2, the rows grow to 3
        (700, row(100)),  # c: a's freed slot, as a ends
        (750, row(200, zeros_at=(0, 5))),  # d: slot 3, the rows grow to 4
        (850, row(150)),  # e: c's freed slot
    ]
    out, starts = run_schedule(Scanner(model), admits, whole_blocks=True)
    assert starts == [0, 511, 700, 750, 800, 850, 950, 1000]
    assert [slot for slot, _, _ in out] == [1, 2, 1, 3, 1]
    assert_rows_match_solo(model, admits, out)


def test_scanner_with_more_rows_than_a_block_holds(monkeypatch):
    # more rows in flight than the block's row-step budget: blocks of one step
    monkeypatch.setattr(mol_net, "_BLOCK_ROW_STEPS", 4)
    model = make_model()
    rng = np.random.default_rng(5)
    rows = [padded(rng.integers(0, 12, k)) for k in (3, 9, 1, 17, 24, 6, 2)]
    # the one-token row leaves after step 0 and its slot is taken again
    admits = [(0 if k < 3 else 1, row) for k, row in enumerate(rows)]
    out, _ = run_schedule(Scanner(model), admits)
    assert [slot for slot, _, _ in out] == [1, 2, 3, 3, 4, 5, 6]
    assert_rows_match_solo(model, admits, out)


SCHEDULE_SPAN = 300


@settings(max_examples=60, deadline=None)
@given(
    budget=st.sampled_from([1, 2, 3, 5, 8, 64]),
    rows=st.lists(
        st.tuples(
            st.integers(0, SCHEDULE_SPAN),  # admit step
            st.integers(0, SCHEDULE_SPAN),  # ids before the padding
            st.sampled_from([0.0, 0.1, 0.5]),  # share of interior zeros
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_scanner_schedules_match_solo_forward(budget, rows):
    model = memory_model(SCHEDULE_SPAN)
    admits = []
    for at, n, zeros, seed in rows:
        rng = np.random.default_rng(seed)
        ids = np.zeros(SCHEDULE_SPAN, dtype=np.int32)
        ids[:n] = rng.integers(1, 12, n) * (rng.random(n) >= zeros)
        admits.append((at, ids))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mol_net, "_BLOCK_ROW_STEPS", budget)
        for whole_blocks in (False, True):
            out, _ = run_schedule(Scanner(model), admits, whole_blocks)
            assert_rows_match_solo(model, admits, out)


def test_scanner_reuses_slots_and_grows():
    model = make_model()
    scanner = Scanner(model)
    rows = [padded(np.arange(1, k + 2) % 11 + 1) for k in range(5)]
    slots = [scanner.admit(r) for r in rows]
    assert sorted(slots) == [1, 2, 3, 4, 5]  # slot 0 is never handed out
    done = {}
    for _ in range(max(map(np.count_nonzero, rows)) + 1):  # a row of n ids ends by step n
        done.update(scanner.advance(one_step))
    assert sorted(done) == sorted(slots)
    assert scanner.advance(one_step) == []
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
    assert scanner.advance(one_step) == []


def test_advance_calls_stop_once_per_step_and_returns_after_the_first_true():
    model = make_model()
    scanner = Scanner(model)
    row = padded(np.arange(20) % 11 + 1)
    slot = scanner.admit(row)
    calls = 0

    def stop():
        nonlocal calls
        calls += 1
        return calls == 3

    assert scanner.advance(stop) == [] and calls == 3
    done = scanner.advance(stop)  # the row's 17 steps left, `stop` false from here
    assert calls == 20 and [s for s, _ in done] == [slot]
    assert done[0][1].tobytes() == solo(model, row).tobytes()


def test_advance_with_a_stop_never_true_runs_one_block(monkeypatch):
    monkeypatch.setattr(mol_net, "_BLOCK_ROW_STEPS", 18)  # 6 steps of 3 rows
    model = make_model()
    scanner = Scanner(model)
    rows = [padded(np.arange(n) % 11 + 1) for n in (20, 9)]
    slots = [scanner.admit(r) for r in rows]
    steps, done = 0, {}

    def never():
        nonlocal steps
        steps += 1
        return False

    # a block ends where the short row's ids do; alone, the long row runs
    # blocks of 9 steps, then its last 2
    for block_end, finished in [(6, []), (9, [slots[1]]), (18, []), (20, [slots[0]])]:
        out = scanner.advance(never)
        assert steps == block_end and [s for s, _ in out] == finished
        done.update(out)
    for slot, row in zip(slots, rows):
        assert done[slot].tobytes() == solo(model, row).tobytes()
