"""EVM bytecode decoding and normalization.

Turns a hex-encoded contract into the canonical opcode token stream the
rest of the pipeline consumes:

    parse_hex -> disassemble -> normalize -> render

Tokens are two lowercase hex digits ("60", "01", ...) with the special
token "xx" standing for byte values the instruction table does not assign.
Normalization collapses the PUSH/DUP/SWAP/LOG families onto their first
member, so the normalized alphabet never contains 0x61-0x7f, 0x81-0x8f,
0x91-0x9f, or 0xa1-0xa4.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from importlib import resources
from types import MappingProxyType

from .errors import MalformedInputError, ParseError

# Sentinel token for byte values with no table entry.
INVALID_TOKEN = "xx"

# Family ranges collapsed by normalize(): (first_byte, last_byte) -> head byte.
_FAMILY_RANGES = (
    (0x60, 0x7F, 0x60),  # PUSH1..PUSH32
    (0x80, 0x8F, 0x80),  # DUP1..DUP16
    (0x90, 0x9F, 0x90),  # SWAP1..SWAP16
    (0xA0, 0xA4, 0xA0),  # LOG0..LOG4
)

_HEX_DIGITS = set("0123456789abcdefABCDEF")
_HEX_BODY = re.compile("[0-9a-fA-F]*")

_BYTE_TOKENS = tuple(f"{b:02x}" for b in range(256))


def _family_token(tok: str) -> str:
    byte = int(tok, 16)
    for lo, hi, head in _FAMILY_RANGES:
        if lo <= byte <= hi:
            return f"{head:02x}"
    return tok


# normalize()'s token map: every two-hex-digit token, in either case, to its family head.
_NORMALIZED = {a + b: _family_token(a + b) for a in _HEX_DIGITS for b in _HEX_DIGITS}


@dataclass(frozen=True)
class OpcodeTable:
    """Instruction table: byte value -> (mnemonic, inline operand byte count).

    Read-only once built: `entries` is a mapping proxy over a private copy,
    so a table can be shared by every caller in the process.
    """

    entries: Mapping[int, tuple[str, int]]
    # bytes consumed by an instruction starting with each byte value, 0 if unassigned
    widths: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        widths = [0] * 256
        for byte, (mnemonic, operands) in self.entries.items():
            if not 0 <= byte <= 0xFF:
                raise ParseError(f"byte value {byte:#x} out of range")
            if operands < 0:
                raise ParseError(f"{mnemonic}: negative operand count")
            if 0x60 <= byte <= 0x7F and operands != byte - 0x60 + 1:
                raise ParseError(
                    f"{mnemonic} ({byte:#04x}) must carry {byte - 0x60 + 1} operand bytes"
                )
            widths[byte] = 1 + operands
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        object.__setattr__(self, "widths", tuple(widths))

    def mnemonic(self, byte: int) -> str | None:
        entry = self.entries.get(byte)
        return entry[0] if entry else None

    def operand_count(self, byte: int) -> int:
        entry = self.entries.get(byte)
        return entry[1] if entry else 0

    def __contains__(self, byte: int) -> bool:
        return byte in self.entries


def load_table(lines) -> OpcodeTable:
    """Parse an opcode table from an iterable of text lines.

    Record format: ``<hex_byte> <MNEMONIC> <operand_count>``; blank lines and
    lines starting with ``#`` are skipped.
    """
    entries: dict[int, tuple[str, int]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected 3 fields, got {len(parts)}", line=lineno)
        try:
            byte = int(parts[0], 16)
        except ValueError:
            raise ParseError(f"bad byte value {parts[0]!r}", line=lineno) from None
        try:
            operands = int(parts[2])
        except ValueError:
            raise ParseError(f"bad operand count {parts[2]!r}", line=lineno) from None
        if byte in entries:
            raise ParseError(f"duplicate entry for byte {byte:#04x}", line=lineno)
        entries[byte] = (parts[1], operands)
    return OpcodeTable(entries)


@functools.cache
def default_table() -> OpcodeTable:
    """The instruction table shipped with the package (pinned revision).

    Parsed once per process; every caller shares the same read-only table.
    """
    text = resources.files("evmguard.data").joinpath("opcodes.txt").read_text()
    return load_table(text.splitlines())


def parse_hex(text: str) -> bytes:
    """Decode a hex string (optional "0x" prefix) into raw bytecode.

    Raises MalformedInputError naming the offending position for odd length
    or non-hex characters. "0x" alone decodes to the empty bytecode.
    """
    body = text.strip()
    if body[:2] in ("0x", "0X"):
        body = body[2:]
    if not _HEX_BODY.fullmatch(body):
        pos, ch = next((pos, ch) for pos, ch in enumerate(body) if ch not in _HEX_DIGITS)
        raise MalformedInputError(f"invalid hex digit {ch!r} at position {pos}")
    if len(body) % 2 != 0:
        raise MalformedInputError(
            f"odd number of hex digits ({len(body)}); bytecode must be whole bytes"
        )
    return bytes.fromhex(body)


def disassemble(raw: bytes, table: OpcodeTable | None = None) -> list[str]:
    """Linear-scan decode into opcode tokens, consuming PUSH operand bytes.

    Unknown bytes become the "xx" sentinel; a PUSH whose operand runs past
    the end of code still emits its token. Never raises.
    """
    if table is None:
        table = default_table()
    widths = table.widths
    tokens: list[str] = []
    i = 0
    n = len(raw)
    while i < n:
        byte = raw[i]
        width = widths[byte]
        if width:
            tokens.append(_BYTE_TOKENS[byte])
            i += width
        else:
            tokens.append(INVALID_TOKEN)
            i += 1
    return tokens


def normalize(ops: list[str]) -> list[str]:
    """Collapse PUSH/DUP/SWAP/LOG family members onto the family head.

    All other tokens (including "xx") pass through; length is preserved.
    """
    return [_NORMALIZED.get(tok, tok) for tok in ops]


def render(tokens: list[str]) -> str:
    """Serialize a token sequence as space-separated lowercase hex pairs."""
    return " ".join(tokens)


def parse_rendered(text: str) -> list[str]:
    """Inverse of render(). Raises ParseError on any bad token."""
    if not text:
        return []
    tokens = text.split(" ")
    for tok in tokens:
        if tok == INVALID_TOKEN:
            continue
        if len(tok) != 2 or not all(c in "0123456789abcdef" for c in tok):
            raise ParseError(f"invalid opcode token {tok!r}")
    return tokens


def preprocess(hex_text: str, table: OpcodeTable | None = None) -> list[str]:
    """Full hex-to-normalized-tokens pipeline used by corpus building and serving."""
    return normalize(disassemble(parse_hex(hex_text), table))
