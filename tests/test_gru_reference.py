"""The fused GRU forward against a float64 loop written from the equations.

`reference_probs` follows the `mol_net` module docstring step by step,
one gate at a time, with the textbook sigmoid; it reads only the stored
parameter blocks by their public names and uses no `mol_net` internals.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from evmguard.mol_net import (
    PROB_EPS,
    BranchConfig,
    StemConfig,
    dropout_mask,
    forward,
    init_model,
)

TOLERANCE = 1e-5  # float32 forward against the float64 reference


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_probs(model, ids, drop=None):
    p = {name: block.astype(np.float64) for name, block in model.params.items()}
    batch, steps = ids.shape
    h = np.zeros((batch, model.stem.gru_hidden))
    for t in range(steps):
        x = p["embedding"][ids[:, t]]
        z = sigmoid(x @ p["gru/wz"] + h @ p["gru/uz"] + p["gru/bz"])
        r = sigmoid(x @ p["gru/wr"] + h @ p["gru/ur"] + p["gru/br"])
        c = np.tanh(x @ p["gru/wc"] + (r * h) @ p["gru/uc"] + p["gru/bc"])
        h_new = z * h + (1 - z) * c
        m = (ids[:, t] != 0).astype(np.float64)[:, None]
        h = m * h_new + (1 - m) * h
    if drop is not None:
        h = h * drop
    probs = np.empty((batch, len(model.branches)))
    for k, branch in enumerate(model.branches):
        a = h
        n = len(branch.dense_widths)
        for i in range(n):
            s = a @ p[f"branch:{branch.class_name}:w{i}"] + p[f"branch:{branch.class_name}:b{i}"]
            a = sigmoid(s) if i == n - 1 else np.maximum(s, 0.0)
        probs[:, k] = np.clip(a[:, 0], PROB_EPS, 1.0 - PROB_EPS)
    return probs


@st.composite
def ragged_batches(draw):
    """A small float32 model and a batch of rows of different true lengths.

    Rows are right-padded; some also hold padding ids between tokens.
    """
    vocab = draw(st.integers(min_value=3, max_value=12))
    stem = StemConfig(
        vocab_size=vocab,
        embedding_dim=draw(st.integers(min_value=1, max_value=6)),
        gru_hidden=draw(st.integers(min_value=1, max_value=12)),
        dropout_rate=draw(st.sampled_from([0.0, 0.3])),
        max_sequence_length=32,
    )
    branches = [
        BranchConfig(f"c{i}", (draw(st.integers(min_value=1, max_value=6)), 1))
        for i in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    model = init_model(stem, branches, seed=draw(st.integers(0, 2**16)))
    width = draw(st.integers(min_value=0, max_value=24))
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=vocab - 1), max_size=width),
            min_size=1,
            max_size=6,
        )
    )
    ids = np.zeros((len(rows), width), dtype=np.int32)
    for b, row in enumerate(rows):
        ids[b, : len(row)] = row
    return model, ids


@settings(max_examples=60, deadline=None)
@given(case=ragged_batches())
def test_eval_forward_matches_reference(case):
    model, ids = case
    np.testing.assert_allclose(
        forward(model, ids, mode="eval"), reference_probs(model, ids), rtol=0, atol=TOLERANCE
    )


@settings(max_examples=60, deadline=None)
@given(case=ragged_batches(), seed=st.integers(0, 2**16))
def test_train_forward_matches_reference(case, seed):
    model, ids = case
    stem = model.stem
    drop = None
    if stem.dropout_rate > 0.0:
        drop = dropout_mask(
            (ids.shape[0], stem.gru_hidden), stem.dropout_rate, seed, np.dtype(np.float32)
        ).astype(np.float64)
    np.testing.assert_allclose(
        forward(model, ids, mode="train", seed=seed),
        reference_probs(model, ids, drop),
        rtol=0,
        atol=TOLERANCE,
    )


def test_eval_forward_keeps_no_per_step_state():
    # per-step stacks of h, z, r and c for this batch would take about
    # 4 * 2000 * 64 * 64 * 4 bytes = 130 MB; the scan keeps one (64, 64) state
    stem = StemConfig(vocab_size=80, embedding_dim=16, gru_hidden=64)
    model = init_model(stem, [BranchConfig(f"c{i}") for i in range(8)], seed=0)
    ids = np.random.default_rng(0).integers(1, 80, size=(64, 2000)).astype(np.int32)
    tracemalloc.start()
    try:
        forward(model, ids, mode="eval")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
