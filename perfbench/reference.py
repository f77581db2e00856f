"""Reference computations the benchmark checks the program against.

Nothing here imports evmguard: every result is derived from the EVM
instruction set, the README's file formats and the equations in the
`mol_net` docstring, so a fault in the program cannot hide in its own
oracle.
"""

from __future__ import annotations

import math

import numpy as np

# Istanbul instruction set: every byte value with an instruction.
ASSIGNED = frozenset(
    [*range(0x00, 0x0C), *range(0x10, 0x1E), 0x20, *range(0x30, 0x40),
     *range(0x40, 0x48), *range(0x50, 0x5C), *range(0x60, 0x80),
     *range(0x80, 0x90), *range(0x90, 0xA0), *range(0xA0, 0xA5),
     *range(0xF0, 0xF6), 0xFA, 0xFD, 0xFE, 0xFF]
)
UNASSIGNED = tuple(b for b in range(256) if b not in ASSIGNED)
INVALID = "xx"
PAD_ID, OOV_ID = 0, 1
PROB_EPS = 1e-7


def operand_len(byte: int) -> int:
    """Inline operand bytes after an opcode: PUSH1..PUSH32 carry 1..32."""
    return byte - 0x5F if 0x60 <= byte <= 0x7F else 0


def token_of(byte: int) -> str:
    """Normalized token of one opcode byte: family members map to their head."""
    if byte not in ASSIGNED:
        return INVALID
    for lo, hi in ((0x60, 0x7F), (0x80, 0x8F), (0x90, 0x9F), (0xA0, 0xA4)):
        if lo <= byte <= hi:
            return f"{lo:02x}"
    return f"{byte:02x}"


# Every normalized token an assigned byte can produce, in byte order.
ALPHABET = tuple(dict.fromkeys(token_of(b) for b in sorted(ASSIGNED)))


def normalize_bytes(raw: bytes) -> list[str]:
    """Linear-scan decode that skips PUSH operands, then normalize."""
    out, i = [], 0
    while i < len(raw):
        out.append(token_of(raw[i]))
        i += 1 + (operand_len(raw[i]) if raw[i] in ASSIGNED else 0)
    return out


def vocabulary(alphabet=ALPHABET) -> dict[str, int]:
    """The README's vocabulary law: PAD 0, OOV 1, tokens from 2 in order."""
    return {tok: i + 2 for i, tok in enumerate(alphabet)}


def encode_ids(tokens, lookup: dict[str, int], max_len: int) -> np.ndarray:
    """Tail truncation, OOV for unknown tokens, right padding with PAD."""
    ids = np.full(max_len, PAD_ID, dtype=np.int64)
    for i, tok in enumerate(tokens[:max_len]):
        ids[i] = lookup.get(tok, OOV_ID)
    return ids


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def gru_forward(params: dict, branches: list[tuple[str, int]], ids: np.ndarray) -> np.ndarray:
    """Eval-mode probabilities in float64 from the `mol_net` docstring equations.

    `branches` lists (class name, number of dense layers) in model order;
    `ids` is a right-padded (batch, T) matrix. Padding steps keep h.
    """
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    ids = np.asarray(ids)
    lengths = (ids != PAD_ID).sum(axis=1)
    batch, hidden = ids.shape[0], p["gru/uz"].shape[0]
    h = np.zeros((batch, hidden))
    x_all = p["embedding"][ids]
    for t in range(int(lengths.max(initial=0))):
        x = x_all[:, t]
        z = _sigmoid(x @ p["gru/wz"] + h @ p["gru/uz"] + p["gru/bz"])
        r = _sigmoid(x @ p["gru/wr"] + h @ p["gru/ur"] + p["gru/br"])
        c = np.tanh(x @ p["gru/wc"] + (r * h) @ p["gru/uc"] + p["gru/bc"])
        m = (t < lengths)[:, None]
        h = np.where(m, z * h + (1.0 - z) * c, h)
    out = np.empty((batch, len(branches)))
    for k, (name, n_layers) in enumerate(branches):
        a = h
        for i in range(n_layers):
            s = a @ p[f"branch:{name}:w{i}"] + p[f"branch:{name}:b{i}"]
            a = _sigmoid(s) if i == n_layers - 1 else np.maximum(s, 0.0)
        out[:, k] = np.clip(a[:, 0], PROB_EPS, 1.0 - PROB_EPS)
    return out


def arbitrate(reports: dict[str, dict[int, bool]], f1: dict[str, dict[int, float]],
              n_classes: int) -> tuple[bool, ...]:
    """Per class, the verdict of the reporting tool with the highest F1.

    Ties go to the smaller tool name; a covering tool without a row for
    the class said "not vulnerable". `reports` maps tool -> verdicts for
    one address, `f1` maps tool -> class id -> published F1.
    """
    labels = []
    for cid in range(1, n_classes + 1):
        best = None
        for tool in sorted(reports):
            score = f1[tool].get(cid)
            if score is not None and (best is None or score > best[0]):
                best = (score, tool)
        if best is None:
            raise ValueError(f"class {cid} covered by no reporting tool")
        labels.append(bool(reports[best[1]].get(cid, False)))
    return tuple(labels)


def f1_scores(truth, pred) -> list[float]:
    """Per-column F1 by counting cells one at a time: 2tp / (2tp + fp + fn)."""
    truth, pred = np.asarray(truth, dtype=bool), np.asarray(pred, dtype=bool)
    scores = []
    for j in range(truth.shape[1]):
        tp = fp = fn = 0
        for t, q in zip(truth[:, j], pred[:, j]):
            tp += bool(t and q)
            fp += bool(q and not t)
            fn += bool(t and not q)
        scores.append(2 * tp / (2 * tp + fp + fn) if tp else 0.0)
    return scores


def weighted_f1(truth, scores) -> float:
    """Support-weighted mean F1; columns with no positives drop out."""
    support = np.asarray(truth, dtype=bool).sum(axis=0)
    return float(sum(s * n for s, n in zip(scores, support)) / max(1, support.sum()))


def has_motif(tokens, motif) -> bool:
    """Whether `motif` occurs as a contiguous run inside `tokens`."""
    n = len(motif)
    return any(tuple(tokens[i:i + n]) == tuple(motif) for i in range(len(tokens) - n + 1))


def split_sizes(n: int) -> tuple[int, int, int]:
    """(train, validation, test) sizes: test n*20//100, validation 10% of the rest."""
    n_test = n * 20 // 100
    n_val = (n - n_test) * 10 // 100
    return n - n_test - n_val, n_val, n_test


def chunk_sizes(n: int, chunk_size: int) -> list[int]:
    """Contiguous slices of chunk_size; the last one holds the remainder."""
    return [min(chunk_size, n - s) for s in range(0, n, chunk_size)]


def optimizer_steps(chunk_lengths, batch_size: int, global_epochs: int) -> int:
    """Steps of the chunked loop with one local epoch: the short final batch of a chunk is a step too."""
    return global_epochs * sum(math.ceil(n / batch_size) for n in chunk_lengths)
