"""Corpus construction: labeling, balancing, splitting, chunking, synthesis.

Ground-truth labels come from arbitrating several detector tools: per
class, the verdict of the covering tool with the best known F1 wins.
Everything downstream (balancing, splits, chunk order, synthetic data)
is seed-deterministic so corpora are reproducible artifacts.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    CoverageError,
    MalformedInputError,
    ParseError,
    ShortageError,
    check_int,
    not_utf8,
)
from .evm_bytecode import MAX_CODE_BYTES, Opcodes, parse_cell, render

DEFAULT_CLASS_NAMES = (
    "CALLSTACK",
    "REENTRANCY",
    "MULTIPLE_SENDS",
    "ACCESSIBLE_SELFDESTRUCT",
    "DoS (UNBOUNDED_OP)",
    "TAINTED_SELFDESTRUCT",
    "MONEY_CONCURRENCY",
    "ASSERT_VIOLATION",
)

DEFAULT_CHUNK_SIZE = 1024

# Characters in a chunk CSV's bytecode field: the rendering of the largest
# code the EVM accepts (at most MAX_CODE_BYTES two-character tokens and their
# separators). Readers accept fields this long, above csv's default limit
# of 131,072; write_chunk refuses longer. csv's limit is process-wide, so
# it is raised once, here, and never lowered.
MAX_FIELD_CHARS = 3 * MAX_CODE_BYTES
csv.field_size_limit(max(csv.field_size_limit(), MAX_FIELD_CHARS))


@dataclass(frozen=True)
class ClassCatalog:
    """Ordered vulnerability classes; class ids are 1-based positions."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ConfigError("class names must be unique")
        if not self.names:
            raise ConfigError("catalog must contain at least one class")

    def __len__(self) -> int:
        return len(self.names)

    def class_ids(self) -> range:
        return range(1, len(self.names) + 1)


def default_catalog() -> ClassCatalog:
    return ClassCatalog(DEFAULT_CLASS_NAMES)


@dataclass(frozen=True)
class ContractRecord:
    """One contract: its normalized tokens and one label per class.

    `tokens` is any sequence of the 257 cell tokens, held as `Opcodes` (one
    uint16 code per token, read as a tuple of str); any other token is a
    MalformedInputError, so every record's chunk row reads back as written.
    """

    address: str
    tokens: Opcodes
    labels: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", Opcodes.of(self.tokens))

    def is_clean(self) -> bool:
        return not any(self.labels)


@dataclass(frozen=True)
class ToolProfile:
    tool_name: str
    f1_by_class: dict[int, float]  # class_id -> F1; absent = unsupported

    def __post_init__(self):
        for cid, score in self.f1_by_class.items():
            if not 0.0 <= score <= 1.0:
                raise ConfigError(
                    f"tool {self.tool_name!r} class {cid}: F1 {score} outside [0,1]"
                )


@dataclass(frozen=True)
class DetectorReport:
    tool_name: str
    verdicts: dict[int, bool]  # class_id -> flagged; absent = not flagged


@dataclass(frozen=True)
class Chunk:
    index: int
    records: tuple[ContractRecord, ...]

    def __len__(self) -> int:
        return len(self.records)


def arbitrate_labels(
    reports: list[DetectorReport],
    profiles: list[ToolProfile],
    catalog: ClassCatalog,
) -> tuple[bool, ...]:
    """Per class, adopt the verdict of the best-F1 covering tool.

    Coverage is judged over the tools that actually reported. Ties on F1
    go to the lexicographically smallest tool name so the result never
    depends on input order. A covering tool that left a class out of its
    verdict map is treated as saying "not vulnerable".
    """
    by_name = {p.tool_name: p for p in profiles}
    for report in reports:
        if report.tool_name not in by_name:
            raise CoverageError(f"no profile for reporting tool {report.tool_name!r}")
    labels = []
    for cid, name in zip(catalog.class_ids(), catalog.names):
        covering = [
            r for r in reports if cid in by_name[r.tool_name].f1_by_class
        ]
        if not covering:
            raise CoverageError(f"class {name!r} (id {cid}) covered by no tool")
        best = min(
            covering,
            key=lambda r: (-by_name[r.tool_name].f1_by_class[cid], r.tool_name),
        )
        labels.append(bool(best.verdicts.get(cid, False)))
    return tuple(labels)


def build_balanced(
    records: list[ContractRecord],
    per_class_min: int,
    clean_count: int,
    seed: int,
) -> list[ContractRecord]:
    """Sample per_class_min positives per class plus clean_count clean records.

    Sampling is without replacement and seeded; the result is deduplicated
    by address (a multi-labeled record satisfies several quotas at once).
    Records with empty token sequences are never admitted.
    """
    check_int("per_class_min", per_class_min, 0)
    check_int("clean_count", clean_count, 0)
    rng = np.random.default_rng(check_int("seed", seed, 0))
    usable = [r for r in records if r.tokens]
    if not usable:
        raise ShortageError("no records with nonempty sequences")
    n_classes = len(usable[0].labels)

    chosen: dict[str, ContractRecord] = {}
    for j in range(n_classes):
        positives = [r for r in usable if r.labels[j]]
        if len(positives) < per_class_min:
            raise ShortageError(
                f"class index {j}: have {len(positives)} positives, need {per_class_min}"
            )
        picks = rng.permutation(len(positives))[:per_class_min]
        for i in picks:
            chosen.setdefault(positives[i].address, positives[i])

    clean = [r for r in usable if r.is_clean()]
    if len(clean) < clean_count:
        raise ShortageError(f"have {len(clean)} clean records, need {clean_count}")
    picks = rng.permutation(len(clean))[:clean_count]
    for i in picks:
        chosen.setdefault(clean[i].address, clean[i])
    return list(chosen.values())


def split(
    corpus: list[ContractRecord], seed: int
) -> tuple[list[ContractRecord], list[ContractRecord], list[ContractRecord]]:
    """Seeded shuffle, then carve test (20%) and validation (10% of the rest).

    Both cuts use floor division; leftovers stay in train. Returns
    (train, validation, test).
    """
    rng = np.random.default_rng(check_int("seed", seed, 0))
    n = len(corpus)
    if n < 10:
        raise ShortageError(f"need at least 10 records to split, have {n}")
    order = rng.permutation(n)
    shuffled = [corpus[i] for i in order]
    n_test = n * 20 // 100
    rest = shuffled[: n - n_test]
    test = shuffled[n - n_test :]
    n_val = len(rest) * 10 // 100
    train = rest[: len(rest) - n_val]
    val = rest[len(rest) - n_val :]
    return train, val, test


def chunk(
    corpus: list[ContractRecord],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    seed: int = 0,
) -> list[Chunk]:
    """Seeded shuffle then contiguous slices of chunk_size records."""
    check_int("chunk_size", chunk_size, 1)
    rng = np.random.default_rng(check_int("seed", seed, 0))
    order = rng.permutation(len(corpus))
    shuffled = [corpus[i] for i in order]
    return [
        Chunk(index=k, records=tuple(shuffled[start : start + chunk_size]))
        for k, start in enumerate(range(0, len(shuffled), chunk_size))
    ]


def write_chunk(chk: Chunk, path, catalog: ClassCatalog) -> None:
    """Write one chunk CSV; MalformedInputError, before writing, if a field would exceed MAX_FIELD_CHARS."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["address", "bytecode", *catalog.names])
    lines = [buf.getvalue()]
    for rec in chk.records:
        bytecode = render(rec.tokens)
        longest = max(len(rec.address), len(bytecode))
        if longest > MAX_FIELD_CHARS:
            raise MalformedInputError(
                f"record {rec.address[:42]!r}: a field of {longest} characters is longer "
                f"than a chunk CSV holds ({MAX_FIELD_CHARS}, the largest code the EVM accepts)"
            )
        # the csv writer quotes the address; a rendered cell and the labels never need quoting
        buf.seek(0)
        buf.truncate()
        writer.writerow([rec.address, ""])
        labels = "".join(",1" if b else ",0" for b in rec.labels)
        lines.append(buf.getvalue()[:-2] + bytecode + labels + "\r\n")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.writelines(lines)


def _csv_rows(f):
    """The rows csv.reader gives for the lines of text file `f`; bad CSV is a ParseError naming the line.

    A line with no quote, no NUL (csv before Python 3.11 refuses one) and no
    more characters than csv's field limit is split at its commas.
    csv.reader reads any other line, and the lines its quoted field runs on
    to, so its per-character parse runs only where it can change the row.
    """
    limit = csv.field_size_limit()
    line_num = 0
    for line in f:
        if '"' in line or "\0" in line or len(line) > limit:
            reader = csv.reader(itertools.chain([line], f))
            try:
                row = next(reader)
            except csv.Error as exc:
                raise ParseError(f"bad CSV: {exc}", line=line_num + reader.line_num) from None
            line_num += reader.line_num
        else:
            line_num += 1
            row = line.split(",")
            row[-1] = row[-1].rstrip("\r\n")
            if row == [""]:
                row = []
        yield row


def read_csv(path, header: list[str] | None = None):
    """Stream `(line number, row)` pairs of a UTF-8 CSV file, header row first.

    A missing header, one other than `header` (if given), a row not as wide
    as the header, bad CSV or bytes that are not UTF-8 raise ParseError.
    """
    with open(path, encoding="utf-8", newline="") as f:
        rows = _csv_rows(f)
        try:
            first = next(rows, None)
            if first is None:
                raise ParseError("missing header row", line=1)
            if header is not None and first != header:
                raise ParseError(f"bad header {first!r}", line=1)
            yield 1, first
            for lineno, row in enumerate(rows, start=2):
                if len(row) != len(first):
                    raise ParseError(f"expected {len(first)} columns, got {len(row)}", line=lineno)
                yield lineno, row
        except UnicodeDecodeError:
            raise not_utf8(path) from None


def read_chunk(path, catalog: ClassCatalog | None = None, index: int = 0) -> Chunk:
    """Read one chunk CSV; with catalog=None the class list comes from the header."""
    rows = read_csv(path, None if catalog is None else ["address", "bytecode", *catalog.names])
    _, header = next(rows)
    if catalog is None:
        catalog = _header_catalog(header)
    records = []
    for lineno, row in rows:
        try:
            tokens = parse_cell(row[1])
        except ParseError as exc:
            raise ParseError(f"bytecode column: {exc}", line=lineno) from None
        labels = []
        for name, cell in zip(catalog.names, row[2:]):
            if cell not in ("0", "1"):
                raise ParseError(
                    f"label column {name!r} must be 0 or 1, got {cell!r}",
                    line=lineno,
                )
            labels.append(cell == "1")
        records.append(
            ContractRecord(address=row[0], tokens=tokens, labels=tuple(labels))
        )
    return Chunk(index=index, records=tuple(records))


def _header_catalog(header: list[str]) -> ClassCatalog:
    if header[:2] != ["address", "bytecode"] or len(header) < 3:
        raise ParseError(f"bad header {header!r}", line=1)
    try:
        return ClassCatalog(tuple(header[2:]))
    except ConfigError as exc:
        raise ParseError(f"bad header {header!r}: {exc}", line=1) from None


def read_corpus_catalog(path) -> ClassCatalog:
    """Class catalog implied by a chunk CSV header, without loading rows."""
    _, header = next(read_csv(path))
    return _header_catalog(header)


def write_profiles(profiles: list[ToolProfile], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["tool", "class_id", "f1"])
        for p in profiles:
            for cid in sorted(p.f1_by_class):
                writer.writerow([p.tool_name, cid, f"{p.f1_by_class[cid]:.6f}"])


def read_profiles(path) -> list[ToolProfile]:
    scores: dict[str, dict[int, float]] = {}
    rows = read_csv(path, ["tool", "class_id", "f1"])
    next(rows)
    for lineno, row in rows:
        tool, cid_text, f1_text = row
        try:
            cid = int(cid_text)
            score = float(f1_text)
        except ValueError:
            raise ParseError(f"bad numeric cell in {row!r}", line=lineno) from None
        scores.setdefault(tool, {})[cid] = score
    return [ToolProfile(tool_name=t, f1_by_class=by) for t, by in sorted(scores.items())]


def read_reports(path) -> dict[str, list[DetectorReport]]:
    """Detector verdicts grouped by contract address."""
    verdicts: dict[str, dict[str, dict[int, bool]]] = {}
    rows = read_csv(path, ["tool", "address", "class_id", "verdict"])
    next(rows)
    for lineno, (tool, address, cid_text, verdict) in rows:
        try:
            cid = int(cid_text)
        except ValueError:
            raise ParseError(f"bad class_id {cid_text!r}", line=lineno) from None
        if verdict not in ("0", "1"):
            raise ParseError(f"verdict must be 0 or 1, got {verdict!r}", line=lineno)
        verdicts.setdefault(address, {}).setdefault(tool, {})[cid] = verdict == "1"
    return {
        address: [
            DetectorReport(tool_name=t, verdicts=v) for t, v in sorted(by_tool.items())
        ]
        for address, by_tool in verdicts.items()
    }


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for label-correct synthetic corpora.

    Each class gets a short motif token sequence; a record carries label k
    iff motif k appears in it. Motif token sets must be pairwise disjoint
    and disjoint from the filler alphabet, which makes the labels correct
    by construction.
    """

    catalog: ClassCatalog
    motifs: tuple[tuple[str, ...], ...]
    filler: tuple[str, ...]
    min_length: int
    max_length: int

    def __post_init__(self):
        if len(self.motifs) != len(self.catalog):
            raise ConfigError(
                f"{len(self.catalog)} classes but {len(self.motifs)} motifs"
            )
        if not self.filler:
            raise ConfigError("filler alphabet must be nonempty")
        check_int("min_length", self.min_length, 1, MAX_CODE_BYTES)
        check_int("max_length", self.max_length, self.min_length, MAX_CODE_BYTES)
        try:
            Opcodes.of([*self.filler, *(tok for motif in self.motifs for tok in motif)])
        except MalformedInputError as exc:
            raise ConfigError(f"motif and filler tokens must be cell tokens: {exc}") from None
        seen: set[str] = set(self.filler)
        for motif in self.motifs:
            if not motif:
                raise ConfigError("motifs must be nonempty")
            if seen & set(motif):
                raise ConfigError(
                    "motif tokens must be disjoint from filler and other motifs"
                )
            seen |= set(motif)
        total = sum(len(m) for m in self.motifs)
        if total > self.min_length:
            raise ConfigError(
                f"combined motif length {total} exceeds min_length {self.min_length}"
            )


# distinctive token pairs backed by real opcode bytes (calls, storage,
# hashing, creates); filler draws from a disjoint pool of common opcodes.
# each motif repeats its pair once: four-token motifs give the recurrent
# stem enough consecutive evidence to latch reliably at desk scale
_SYNTH_MOTIF_POOL = (
    ("f1", "ff"),
    ("54", "55"),
    ("20", "31"),
    ("f4", "3b"),
    ("fa", "47"),
    ("f0", "3f"),
    ("fd", "41"),
    ("f5", "44"),
)
_SYNTH_FILLER = (
    "60", "80", "90", "01", "02", "03", "10", "14",
    "15", "50", "51", "52", "56", "57", "5b", "00",
)


def default_synth_spec(
    n_classes: int = 3,
    min_length: int = 24,
    max_length: int = 48,
) -> SynthSpec:
    """Ready-made motif recipe over the first n_classes default class names."""
    check_int("n_classes", n_classes, 1, len(_SYNTH_MOTIF_POOL))
    return SynthSpec(
        catalog=ClassCatalog(DEFAULT_CLASS_NAMES[:n_classes]),
        motifs=tuple(pair * 2 for pair in _SYNTH_MOTIF_POOL[:n_classes]),
        filler=_SYNTH_FILLER,
        min_length=min_length,
        max_length=max_length,
    )


def all_label_combos(n_classes: int, per_combo: int) -> list[tuple[tuple[bool, ...], int]]:
    """Every label combination (clean included) at the same count."""
    combos = []
    for bits in range(2**n_classes):
        labels = tuple(bool(bits >> j & 1) for j in range(n_classes))
        combos.append((labels, per_combo))
    return combos


def synth_generate(
    spec: SynthSpec,
    counts: list[tuple[tuple[bool, ...], int]],
    seed: int,
) -> list[ContractRecord]:
    """Generate records per (label combination, count) request, fully seeded.

    Motifs for the set labels are embedded contiguously at random
    non-overlapping positions inside filler noise; clean combinations are
    pure filler.
    """
    k = len(spec.catalog)
    for labels, count in counts:
        if len(labels) != k:
            raise ConfigError(f"label vector {labels!r} must have {k} entries")
        check_int("record count", count, 0)
    rng = np.random.default_rng(check_int("seed", seed, 0))
    records = []
    serial = 0
    for labels, count in counts:
        motifs = [spec.motifs[j] for j in range(k) if labels[j]]
        motif_total = sum(len(m) for m in motifs)
        for _ in range(count):
            length = int(rng.integers(spec.min_length, spec.max_length + 1))
            free = length - motif_total
            # place motifs by splitting the free filler budget into gaps
            cuts = np.sort(rng.integers(0, free + 1, size=len(motifs)))
            gaps = np.diff(np.concatenate(([0], cuts, [free])))
            tokens: list[str] = []
            for m, gap in zip(motifs, gaps[:-1]):
                tokens.extend(rng.choice(spec.filler, size=int(gap)))
                tokens.extend(m)
            tokens.extend(rng.choice(spec.filler, size=int(gaps[-1])))
            records.append(
                ContractRecord(
                    address=f"0x{serial:040x}",
                    tokens=tuple(tokens),
                    labels=tuple(labels),
                )
            )
            serial += 1
    return records
