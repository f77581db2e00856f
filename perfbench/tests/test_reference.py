"""The benchmark's reference computations, on hand-worked cases and against
the program on random small inputs.

    python3 -m pytest perfbench/tests -q
"""

import math

import numpy as np
import pytest

import gen
import reference as ref
from evmguard import corpus, evm_bytecode, metrics, mol_net, tokenizer, trainer
from evmguard.errors import CoverageError


# --- opcode normalizer ---


@pytest.mark.parametrize("hex_text, tokens", [
    ("6060604052", ["60", "60", "52"]),  # PUSH1 0x60 PUSH1 0x40 MSTORE
    ("0c5c", ["xx", "xx"]),  # unassigned bytes
    ("7f0102", ["60"]),  # PUSH32 running past the end
    ("829fa4", ["80", "90", "a0"]),  # DUP3 SWAP16 LOG4 collapse to family heads
    ("", []),
])
def test_normalizer_hand_cases(hex_text, tokens):
    assert ref.normalize_bytes(bytes.fromhex(hex_text)) == tokens


def test_instruction_set_matches_program_table():
    assert set(evm_bytecode.default_table().entries) == ref.ASSIGNED
    assert len(ref.ALPHABET) == 77


def test_proxy_clone_is_45_bytes_of_known_tokens():
    c = gen.proxy_clone(np.random.default_rng(0))
    assert len(c.hex) == 90
    assert c.tokens == "36 3d 3d 37 3d 3d 3d 36 3d 60 5a f4 3d 80 80 3e 90 3d 90 60 57 fd 5b f3".split()


def test_normalizer_and_generator_agree_with_program():
    rng = np.random.default_rng(1)
    for i in range(200):
        raw = rng.integers(0, 256, size=int(rng.integers(0, 64)), dtype=np.uint8).tobytes()
        assert evm_bytecode.preprocess(raw.hex()) == ref.normalize_bytes(raw)
        c = gen.contract_by_bytes(rng, int(rng.integers(64, 2048)), 0.05, cut_push=i % 2 == 0)
        assert evm_bytecode.preprocess(c.hex) == c.tokens == ref.normalize_bytes(bytes.fromhex(c.hex))


# --- vocabulary and encoding ---


def test_vocabulary_law_and_encoding_match_program():
    vocab = tokenizer.fit([list(ref.ALPHABET)])
    lookup = ref.vocabulary()
    assert vocab.token_to_id == {"<PAD>": 0, "<OOV>": 1, **lookup}
    assert list(ref.encode_ids(["60", "xx", "52"], lookup, 5)) == [lookup["60"], 1, lookup["52"], 0, 0]
    rng = np.random.default_rng(2)
    by_byte = gen.byte_to_id(lookup)
    for _ in range(50):
        c = gen.contract_by_ops(rng, int(rng.integers(1, 80)), p_unassigned=0.2)
        max_len = int(rng.integers(1, 100))
        want = ref.encode_ids(c.tokens, lookup, max_len)
        assert np.array_equal(tokenizer.encode(c.tokens, vocab, max_len).ids, want)
        assert np.array_equal(c.ids(by_byte, max_len), want)


# --- float64 GRU forward ---


def _tiny_model():
    p = {name: np.zeros(shape) for name, shape in (
        ("embedding", (3, 1)), ("gru/wz", (1, 1)), ("gru/uz", (1, 1)), ("gru/bz", (1,)),
        ("gru/wr", (1, 1)), ("gru/ur", (1, 1)), ("gru/br", (1,)),
        ("gru/wc", (1, 1)), ("gru/uc", (1, 1)), ("gru/bc", (1,)),
        ("branch:a:w0", (1, 1)), ("branch:a:b0", (1,)))}
    p["embedding"][2, 0] = 1.0
    p["gru/wc"][0, 0] = 1.0
    p["branch:a:w0"][0, 0] = 1.0
    return p


def test_gru_hand_case():
    # z = sigmoid(0) = 1/2 and c = tanh(x) = tanh(1) at every step, so
    # h1 = tanh(1)/2, h2 = h1/2 + tanh(1)/2; the head is sigmoid(h).
    h1 = math.tanh(1) / 2
    h2 = h1 / 2 + math.tanh(1) / 2
    probs = ref.gru_forward(_tiny_model(), [("a", 1)], np.array([[2, 0, 0], [2, 2, 0]]))
    assert probs[:, 0] == pytest.approx([1 / (1 + math.exp(-h1)), 1 / (1 + math.exp(-h2))], abs=1e-15)


def test_gru_matches_program_on_random_models():
    rng = np.random.default_rng(3)
    for trial in range(20):
        stem = mol_net.StemConfig(vocab_size=int(rng.integers(3, 12)), embedding_dim=int(rng.integers(1, 6)),
                                  gru_hidden=int(rng.integers(1, 9)), max_sequence_length=32)
        branches = [mol_net.BranchConfig(f"c{k}", (int(rng.integers(1, 6)), 1)) for k in range(int(rng.integers(1, 4)))]
        model = mol_net.init_model(stem, branches, seed=trial, dtype=np.float64)
        for p in model.params.values():  # nonzero biases too
            p += rng.normal(0, 0.3, size=p.shape)
        lengths = rng.integers(1, 20, size=int(rng.integers(1, 5)))
        ids = np.zeros((lengths.size, 20), dtype=np.int64)
        for row, n in enumerate(lengths):
            ids[row, :n] = rng.integers(1, stem.vocab_size, size=n)
        want = ref.gru_forward(model.params, [(b.class_name, len(b.dense_widths)) for b in branches], ids)
        assert np.allclose(mol_net.forward(model, ids), want, rtol=0, atol=1e-12)


# --- label arbitration ---


def test_arbitration_hand_case():
    f1 = {"b": {1: 0.8, 2: 0.9}, "a": {1: 0.8, 3: 0.5}}
    reports = {"a": {1: False, 3: True}, "b": {1: True}}
    # class 1: tie at 0.8 goes to "a" (False); class 2: only "b" covers, no row
    # means not flagged; class 3: only "a" covers.
    assert ref.arbitrate(reports, f1, 3) == (False, False, True)
    with pytest.raises(ValueError):
        ref.arbitrate({"a": {1: True}}, f1, 3)


def test_arbitration_matches_program():
    rng = np.random.default_rng(4)
    catalog = corpus.ClassCatalog(tuple(f"k{i}" for i in range(4)))
    for _ in range(300):
        tools = ["t0", "t1", "t2"][: int(rng.integers(1, 4))]
        f1 = {t: {c: float(rng.choice([0.5, 0.6, 0.7])) for c in range(1, 5) if rng.random() < 0.7} for t in tools}
        reports = {t: {c: bool(rng.random() < 0.5) for c in range(1, 5) if rng.random() < 0.6} for t in tools}
        program_reports = [corpus.DetectorReport(t, v) for t, v in reports.items()]
        profiles = [corpus.ToolProfile(t, s) for t, s in f1.items()]
        try:
            want = ref.arbitrate(reports, f1, 4)
        except ValueError:
            with pytest.raises(CoverageError):
                corpus.arbitrate_labels(program_reports, profiles, catalog)
            continue
        assert corpus.arbitrate_labels(program_reports, profiles, catalog) == want


# --- brute-force F1 ---


def test_f1_hand_case():
    truth = np.array([[1, 0], [1, 0], [0, 0], [0, 0]])
    pred = np.array([[1, 0], [0, 0], [1, 0], [0, 0]])
    assert ref.f1_scores(truth, pred) == [0.5, 0.0]
    assert ref.weighted_f1(truth, [0.5, 0.0]) == 0.5


def test_f1_matches_program():
    rng = np.random.default_rng(5)
    for _ in range(100):
        shape = (int(rng.integers(1, 40)), int(rng.integers(1, 5)))
        truth, pred = rng.random(shape) < 0.4, rng.random(shape) < 0.4
        report = metrics.evaluate([f"c{j}" for j in range(shape[1])], truth, pred)
        scores = ref.f1_scores(truth, pred)
        assert np.allclose([m.f1 for m in report.per_class], scores, rtol=0, atol=1e-12)
        assert report.weighted_f1 == pytest.approx(ref.weighted_f1(truth, scores), abs=1e-12)


# --- split, chunk and step laws ---


def test_split_chunk_and_step_laws_match_program():
    spec = corpus.default_synth_spec(2, 8, 12)
    rng = np.random.default_rng(6)
    for _ in range(5):
        n, size = int(rng.integers(10, 60)), int(rng.integers(1, 20))
        records = corpus.synth_generate(spec, [((False, False), n)], int(rng.integers(1000)))
        train, val, test = corpus.split(records, 0)
        assert (len(train), len(val), len(test)) == ref.split_sizes(n)
        chunks = corpus.chunk(train, size, 0)
        assert [len(c) for c in chunks] == ref.chunk_sizes(len(train), size)
        vocab = tokenizer.fit([list(ref.ALPHABET)])
        model = mol_net.init_model(mol_net.StemConfig(len(vocab), 2, 2, max_sequence_length=12),
                                   [mol_net.BranchConfig(n, (2, 1)) for n in spec.catalog.names], 0)
        batch = int(rng.integers(1, 8))
        history = trainer.train(model, chunks, vocab, trainer.TrainConfig(2, 1, batch))
        assert history.optimizer_steps == ref.optimizer_steps([len(c) for c in chunks], batch, 2)
