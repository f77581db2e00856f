"""Token-to-id vocabulary and fixed-length sequence encoding.

Id 0 is reserved for padding and id 1 for out-of-vocabulary tokens; real
tokens get ids 2, 3, ... in order of first appearance over the fitting
corpus. Encoding truncates at the tail and right-pads with 0, so serving
stays total on tokens never seen in training.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, ParseError, not_utf8

PAD_TOKEN = "<PAD>"
OOV_TOKEN = "<OOV>"
PAD_ID = 0
OOV_ID = 1

DEFAULT_MAX_SEQUENCE_LENGTH = 4100


@dataclass(frozen=True)
class Vocabulary:
    token_to_id: dict[str, int]

    def __post_init__(self):
        if self.token_to_id.get(PAD_TOKEN) != PAD_ID:
            raise ParseError(f"vocabulary must map {PAD_TOKEN!r} to {PAD_ID}")
        if self.token_to_id.get(OOV_TOKEN) != OOV_ID:
            raise ParseError(f"vocabulary must map {OOV_TOKEN!r} to {OOV_ID}")
        ids = sorted(self.token_to_id.values())
        if ids != list(range(len(ids))):
            raise ParseError("vocabulary ids must be contiguous from 0")

    def __len__(self) -> int:
        return len(self.token_to_id)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, OOV_ID)

    def fingerprint(self) -> str:
        """Stable digest of the mapping, used to tie models to their tokenizer."""
        h = hashlib.sha256()
        for token, idx in sorted(self.token_to_id.items(), key=lambda kv: kv[1]):
            h.update(f"{token}\t{idx}\n".encode())
        return "sha256:" + h.hexdigest()

    def check_fingerprint(self, model_fingerprint: str | None) -> None:
        """Raise ConfigError unless a model's recorded fingerprint is this vocabulary's."""
        if model_fingerprint is None:
            raise ConfigError("model carries no vocabulary fingerprint; train it first")
        if model_fingerprint != self.fingerprint():
            raise ConfigError(
                "vocabulary fingerprint mismatch: model was trained with "
                f"{model_fingerprint}, loaded {self.fingerprint()}"
            )


@dataclass(frozen=True)
class TokenSequence:
    """Fixed-length id vector plus the count of non-padding positions."""

    ids: np.ndarray  # int32, shape (max_sequence_length,)
    true_length: int


def fit(corpus: Iterable[list[str]]) -> Vocabulary:
    """Assign ids by first appearance across the corpus scan."""
    mapping = {PAD_TOKEN: PAD_ID, OOV_TOKEN: OOV_ID}
    for tokens in corpus:
        for tok in tokens:
            if tok not in mapping:
                mapping[tok] = len(mapping)
    return Vocabulary(mapping)


def encode(
    tokens: list[str],
    vocab: Vocabulary,
    max_sequence_length: int = DEFAULT_MAX_SEQUENCE_LENGTH,
) -> TokenSequence:
    """Map tokens to ids, truncate at the tail, right-pad with 0."""
    if max_sequence_length < 1:
        raise ConfigError("max_sequence_length must be >= 1")
    kept = tokens[:max_sequence_length]
    ids = np.zeros(max_sequence_length, dtype=np.int32)
    lookup = vocab.token_to_id.get
    ids[: len(kept)] = [lookup(tok, OOV_ID) for tok in kept]
    return TokenSequence(ids=ids, true_length=len(kept))


def encode_batch(
    sequences: Iterable[list[str]],
    vocab: Vocabulary,
    max_sequence_length: int = DEFAULT_MAX_SEQUENCE_LENGTH,
) -> np.ndarray:
    """Encode many token lists into one (batch, max_sequence_length) id matrix."""
    rows = [encode(seq, vocab, max_sequence_length).ids for seq in sequences]
    if not rows:
        return np.zeros((0, max_sequence_length), dtype=np.int32)
    return np.stack(rows)


def save_vocab(vocab: Vocabulary, path) -> None:
    """Write `<token>\\t<id>` lines in id order, reserved entries included."""
    items = sorted(vocab.token_to_id.items(), key=lambda kv: kv[1])
    with open(path, "w", encoding="utf-8") as f:
        for token, idx in items:
            f.write(f"{token}\t{idx}\n")


def load_vocab(path) -> Vocabulary:
    mapping: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = list(f)
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError("expected `<token>\\t<id>`", line=lineno)
        token, id_text = parts
        try:
            idx = int(id_text)
        except ValueError:
            raise ParseError(f"bad id {id_text!r}", line=lineno) from None
        if token in mapping:
            raise ParseError(f"duplicate token {token!r}", line=lineno)
        if idx in mapping.values():
            raise ParseError(f"duplicate id {idx}", line=lineno)
        mapping[token] = idx
    return Vocabulary(mapping)
