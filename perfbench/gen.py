"""Seeded input generators. The normalized tokens of every contract are known
from how it was built, so the program's preprocessing can be checked
against them without decoding anything.
"""

from __future__ import annotations

import numpy as np

from reference import ASSIGNED, UNASSIGNED, operand_len, token_of

_NON_PUSH = np.array(sorted(b for b in ASSIGNED if not operand_len(b)), dtype=np.uint8)
_UNASSIGNED = np.array(UNASSIGNED, dtype=np.uint8)
# PUSH widths as compilers emit them: mostly 1-2 bytes, some addresses and words.
_PUSH_WIDTHS = np.array([1, 2, 3, 4, 20, 32])
_PUSH_WEIGHTS = np.array([0.5, 0.25, 0.08, 0.07, 0.05, 0.05])
_TOKENS = np.array([token_of(b) for b in range(256)], dtype=object)

# EIP-1167 minimal proxy runtime code around its 20-byte target address,
# and its instructions (the PUSH20 address and the PUSH1 0x2b are operands).
_PROXY_HEAD = bytes.fromhex("363d3d373d3d3d363d73")
_PROXY_TAIL = bytes.fromhex("5af43d82803e903d91602b57fd5bf3")
_PROXY_OPS = np.frombuffer(bytes.fromhex("363d3d373d3d3d363d735af43d82803e903d916057fd5bf3"), dtype=np.uint8)


class Contract:
    """Hex bytecode plus the normalized token stream it was built from."""

    __slots__ = ("hex", "ops")

    def __init__(self, hex_text: str, ops: np.ndarray):
        self.hex = hex_text
        self.ops = ops  # opcode byte of every instruction, in order

    @property
    def tokens(self) -> list[str]:
        return list(_TOKENS[self.ops])

    def ids(self, byte_to_id: np.ndarray, max_len: int) -> np.ndarray:
        out = np.zeros(max_len, dtype=np.int64)
        kept = self.ops[:max_len]
        out[: kept.size] = byte_to_id[kept]
        return out


def byte_to_id(lookup: dict[str, int], oov: int = 1) -> np.ndarray:
    """Vocabulary id of each opcode byte's normalized token."""
    return np.array([lookup.get(token_of(b), oov) for b in range(256)], dtype=np.int64)


def _instructions(rng, n: int, p_unassigned: float) -> tuple[np.ndarray, np.ndarray]:
    """n opcode bytes and their operand widths: a quarter are PUSHes."""
    widths = rng.choice(_PUSH_WIDTHS, size=n, p=_PUSH_WEIGHTS)
    widths[rng.random(n) >= 0.25] = 0
    ops = rng.choice(_NON_PUSH, size=n)
    bad = rng.random(n) < p_unassigned
    ops[bad] = rng.choice(_UNASSIGNED, size=int(bad.sum()))
    widths[bad] = 0
    ops = np.where(widths > 0, 0x5F + widths, ops).astype(np.uint8)
    return ops, widths


def _assemble(rng, ops: np.ndarray, widths: np.ndarray) -> bytes:
    starts = np.concatenate(([0], np.cumsum(1 + widths)[:-1]))
    code = rng.integers(0, 256, size=int(starts[-1] + 1 + widths[-1]), dtype=np.uint8)
    code[starts] = ops
    return code.tobytes()


def contract_by_ops(rng, n_ops: int, p_unassigned: float = 0.01) -> Contract:
    ops, widths = _instructions(rng, n_ops, p_unassigned)
    return Contract(_assemble(rng, ops, widths).hex(), ops)


def contract_by_bytes(rng, size: int, p_unassigned: float, cut_push: bool) -> Contract:
    """About `size` bytes of whole instructions; with cut_push the code ends
    in a PUSH32 whose operand runs past the end of the code."""
    ops, widths = _instructions(rng, size, p_unassigned)
    ends = np.cumsum(1 + widths)
    keep = int(np.searchsorted(ends, size - 32 if cut_push else size, side="right"))
    code = _assemble(rng, ops[:keep], widths[:keep])
    ops = ops[:keep]
    if cut_push:
        code += bytes([0x7F]) + rng.integers(0, 256, size=int(rng.integers(0, 32)), dtype=np.uint8).tobytes()
        ops = np.append(ops, np.uint8(0x7F))
    return Contract(code.hex(), ops)


def proxy_clone(rng) -> Contract:
    """EIP-1167 clone of a random target: 45 bytes, the address a PUSH20 operand."""
    address = rng.integers(0, 256, size=20, dtype=np.uint8).tobytes()
    return Contract((_PROXY_HEAD + address + _PROXY_TAIL).hex(), _PROXY_OPS)
