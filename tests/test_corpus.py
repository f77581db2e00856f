"""Label arbitration, balancing, splitting, chunking, CSV round trips, synthesis."""

import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evmguard import cli
from evmguard.corpus import (
    MAX_FIELD_CHARS,
    Chunk,
    ClassCatalog,
    ContractRecord,
    DetectorReport,
    SynthSpec,
    ToolProfile,
    all_label_combos,
    arbitrate_labels,
    build_balanced,
    chunk,
    default_catalog,
    default_synth_spec,
    read_chunk,
    read_corpus_catalog,
    read_csv,
    read_profiles,
    read_reports,
    split,
    synth_generate,
    write_chunk,
    write_profiles,
)
from evmguard.errors import (
    ConfigError,
    CoverageError,
    EvmGuardError,
    MalformedInputError,
    ParseError,
    ShortageError,
)
from evmguard.evm_bytecode import TOKENS

CAT2 = ClassCatalog(("A", "B"))


def rec(address, tokens=("60", "00"), labels=(False, False)):
    return ContractRecord(address=address, tokens=tuple(tokens), labels=tuple(labels))


class TestCatalog:
    def test_default_has_eight_ordered_classes(self):
        cat = default_catalog()
        assert len(cat) == 8
        assert cat.names[0] == "CALLSTACK"
        assert cat.names[1] == "REENTRANCY"
        assert cat.names[-1] == "ASSERT_VIOLATION"
        assert list(cat.class_ids()) == list(range(1, 9))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            ClassCatalog(("A", "A"))


class TestArbitration:
    def test_highest_f1_wins(self):
        profiles = [
            ToolProfile("toolA", {1: 0.9}),
            ToolProfile("toolB", {1: 0.4}),
        ]
        reports = [
            DetectorReport("toolA", {1: True}),
            DetectorReport("toolB", {1: False}),
        ]
        cat = ClassCatalog(("A",))
        assert arbitrate_labels(reports, profiles, cat) == (True,)

    def test_single_tool_copied_verbatim(self):
        profiles = [ToolProfile("only", {1: 0.5, 2: 0.5})]
        reports = [DetectorReport("only", {1: True, 2: False})]
        assert arbitrate_labels(reports, profiles, CAT2) == (True, False)

    def test_tie_breaks_to_lexicographically_smallest(self):
        profiles = [
            ToolProfile("alpha", {1: 0.7}),
            ToolProfile("beta", {1: 0.7}),
        ]
        cat = ClassCatalog(("A",))
        for ordering in (("alpha", "beta"), ("beta", "alpha")):
            reports = [
                DetectorReport(ordering[0], {1: ordering[0] == "beta"}),
                DetectorReport(ordering[1], {1: ordering[1] == "beta"}),
            ]
            # alpha says False in both orderings and must win the tie
            assert arbitrate_labels(reports, profiles, cat) == (False,)

    def test_uncovered_class_raises(self):
        profiles = [ToolProfile("t", {1: 0.5})]
        reports = [DetectorReport("t", {1: True})]
        with pytest.raises(CoverageError, match="'B'"):
            arbitrate_labels(reports, profiles, CAT2)

    def test_unprofiled_tool_raises(self):
        with pytest.raises(CoverageError, match="ghost"):
            arbitrate_labels(
                [DetectorReport("ghost", {1: True})], [], ClassCatalog(("A",))
            )

    def test_missing_verdict_means_not_vulnerable(self):
        profiles = [ToolProfile("t", {1: 0.9, 2: 0.9})]
        reports = [DetectorReport("t", {1: True})]
        assert arbitrate_labels(reports, profiles, CAT2) == (True, False)

    def test_weaker_extra_tool_never_changes_labels(self):
        profiles = [
            ToolProfile("strong", {1: 0.8, 2: 0.9}),
            ToolProfile("weak", {1: 0.1, 2: 0.2}),
        ]
        base = [DetectorReport("strong", {1: True, 2: False})]
        with_weak = base + [DetectorReport("weak", {1: False, 2: True})]
        assert arbitrate_labels(base, profiles, CAT2) == arbitrate_labels(
            with_weak, profiles, CAT2
        )


class TestBuildBalanced:
    def test_disjoint_positives(self):
        records = (
            [rec(f"a{i}", labels=(True, False)) for i in range(3)]
            + [rec(f"b{i}", labels=(False, True)) for i in range(3)]
            + [rec(f"c{i}") for i in range(3)]
        )
        out = build_balanced(records, per_class_min=3, clean_count=3, seed=0)
        assert len(out) == 9

    def test_full_overlap_deduplicates(self):
        records = [rec(f"x{i}", labels=(True, True)) for i in range(3)] + [
            rec(f"c{i}") for i in range(3)
        ]
        out = build_balanced(records, per_class_min=3, clean_count=3, seed=0)
        assert len(out) == 6
        assert len({r.address for r in out}) == 6

    def test_shortage_reports_counts(self):
        records = [rec("a", labels=(True, False)), rec("b", labels=(False, True))]
        with pytest.raises(ShortageError, match="have 1"):
            build_balanced(records, per_class_min=3, clean_count=0, seed=0)

    def test_clean_shortage(self):
        records = [rec("a", labels=(True, True))]
        with pytest.raises(ShortageError, match="clean"):
            build_balanced(records, per_class_min=1, clean_count=2, seed=0)

    def test_empty_sequences_never_admitted(self):
        records = [rec("good", labels=(True, True)), rec("empty", tokens=(), labels=(True, True))]
        out = build_balanced(records, per_class_min=1, clean_count=0, seed=0)
        assert [r.address for r in out] == ["good"]

    def test_deterministic(self):
        records = [rec(f"p{i}", labels=(True, False)) for i in range(20)] + [
            rec(f"q{i}", labels=(False, True)) for i in range(20)
        ]
        a = build_balanced(records, 5, 0, seed=3)
        b = build_balanced(records, 5, 0, seed=3)
        assert [r.address for r in a] == [r.address for r in b]


class TestSplit:
    def test_100_records(self):
        corpus = [rec(str(i)) for i in range(100)]
        train, val, test = split(corpus, seed=1)
        assert (len(train), len(val), len(test)) == (72, 8, 20)

    def test_10_records_floor(self):
        corpus = [rec(str(i)) for i in range(10)]
        train, val, test = split(corpus, seed=1)
        assert (len(train), len(val), len(test)) == (8, 0, 2)

    def test_partition(self):
        corpus = [rec(str(i)) for i in range(53)]
        train, val, test = split(corpus, seed=9)
        all_addrs = sorted(r.address for r in train + val + test)
        assert all_addrs == sorted(r.address for r in corpus)

    def test_deterministic(self):
        corpus = [rec(str(i)) for i in range(40)]
        assert [r.address for r in split(corpus, 5)[0]] == [
            r.address for r in split(corpus, 5)[0]
        ]

    def test_too_small(self):
        with pytest.raises(ShortageError):
            split([rec("a")], seed=0)


class TestChunk:
    def test_2500_records(self):
        corpus = [rec(str(i)) for i in range(2500)]
        out = chunk(corpus, chunk_size=1024, seed=0)
        assert [len(c) for c in out] == [1024, 1024, 452]
        assert [c.index for c in out] == [0, 1, 2]

    def test_single_chunk(self):
        out = chunk([rec(str(i)) for i in range(5)], chunk_size=1024, seed=0)
        assert [len(c) for c in out] == [5]

    def test_size_one(self):
        out = chunk([rec(str(i)) for i in range(7)], chunk_size=1, seed=0)
        assert len(out) == 7 and all(len(c) == 1 for c in out)

    def test_concatenation_is_permutation(self):
        corpus = [rec(str(i)) for i in range(31)]
        out = chunk(corpus, chunk_size=8, seed=4)
        flat = [r.address for c in out for r in c.records]
        assert sorted(flat) == sorted(r.address for r in corpus)
        assert flat != [r.address for r in corpus]  # shuffled at seed 4

    def test_bad_size(self):
        with pytest.raises(ConfigError):
            chunk([], chunk_size=0, seed=0)


class TestChunkCsv:
    def test_round_trip(self, tmp_path):
        records = (
            rec("0xaa", tokens=("60", "xx"), labels=(True, False)),
            rec("0xbb", tokens=("00",), labels=(False, True)),
        )
        c = Chunk(index=0, records=records)
        path = tmp_path / "chunk.csv"
        write_chunk(c, path, CAT2)
        assert read_chunk(path, CAT2) == c

    def test_largest_evm_code_round_trips(self, tmp_path):
        # EIP-3860 initcode of 49,152 one-byte opcodes: 147,455 characters,
        # above csv's default field limit of 131,072
        tokens = ("60", "xx", "5b") * (49_152 // 3)
        c = Chunk(index=0, records=(rec("0xaa", tokens=tokens, labels=(True, False)),))
        path = tmp_path / "chunk.csv"
        write_chunk(c, path, CAT2)
        assert read_chunk(path, CAT2) == c

    def test_longer_field_is_refused_before_writing(self, tmp_path):
        path = tmp_path / "chunk.csv"
        too_long = rec("0xbb", tokens=("60",) * (MAX_FIELD_CHARS // 3 + 1))
        assert len(" ".join(too_long.tokens)) == MAX_FIELD_CHARS + 2
        with pytest.raises(MalformedInputError, match="longer than a chunk CSV holds"):
            write_chunk(Chunk(0, (rec("0xaa"), too_long)), path, CAT2)
        assert not path.exists()

    def test_header_names_classes(self, tmp_path):
        path = tmp_path / "chunk.csv"
        write_chunk(Chunk(0, ()), path, CAT2)
        assert path.read_text().splitlines()[0] == "address,bytecode,A,B"

    def test_catalog_inferred_from_header(self, tmp_path):
        path = tmp_path / "chunk.csv"
        write_chunk(Chunk(0, (rec("0xaa", labels=(True, False)),)), path, CAT2)
        assert read_corpus_catalog(path).names == ("A", "B")
        assert read_chunk(path).records[0].labels == (True, False)

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "chunk.csv"
        path.write_text("address,bytecode,A,B\n")
        assert read_chunk(path, CAT2).records == ()

    def test_non_binary_label_rejected(self, tmp_path):
        path = tmp_path / "chunk.csv"
        path.write_text("address,bytecode,A,B\n0xaa,60,2,0\n")
        with pytest.raises(ParseError, match="'A'"):
            read_chunk(path, CAT2)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "chunk.csv"
        path.write_text("address,bytecode,A,B\n0xaa,60,1\n")
        with pytest.raises(ParseError, match="line 2"):
            read_chunk(path, CAT2)

    def test_invalid_token_rejected(self, tmp_path):
        path = tmp_path / "chunk.csv"
        path.write_text("address,bytecode,A,B\n0xaa,banana,1,0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_chunk(path, CAT2)

    def test_duplicate_class_in_header_is_a_parse_error_on_line_1(self, tmp_path):
        path = tmp_path / "chunk.csv"
        path.write_text("address,bytecode,A,A\n0xaa,60,1,0\n")
        for reader in (read_chunk, read_corpus_catalog):
            with pytest.raises(ParseError) as exc:
                reader(path)
            assert str(exc.value) == (
                "line 1: bad header ['address', 'bytecode', 'A', 'A']: class names must be unique"
            )


# a record's tokens: cell tokens, and strings that are none (a space, a short
# or uppercase pair, CSV syntax, reserved vocabulary names)
_MIXED_TOKENS = st.sampled_from(
    ["60", "xx", "61", "ff", "00", "60 61", "6", "6A", "XX", "zz", "a,", '"', "\n", "", "<OOV>"]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_MIXED_TOKENS, max_size=6), max_size=4))
@example([["60 61"]])  # one token whose chunk row would read back as two
@example([["6"]])  # a token whose chunk row read_chunk would refuse
@example([["60", "zz", "00"]])  # likewise, a token a synth filler could hold
def test_a_record_refuses_its_first_bad_token_or_round_trips_through_a_chunk(tmp_path_factory, rows):
    kept = []
    for i, tokens in enumerate(rows):
        bad = [tok for tok in tokens if tok not in TOKENS]
        try:
            record = ContractRecord(f"0x{i:02x}", tuple(tokens), (i % 2 == 0,))
        except MalformedInputError as exc:
            assert bad and str(exc) == f"invalid opcode token {bad[0]!r}"
        else:
            assert not bad
            kept.append(record)
    path = tmp_path_factory.mktemp("chunk") / "chunk.csv"
    write_chunk(Chunk(0, tuple(kept)), path, ClassCatalog(("A",)))
    read = read_chunk(path)
    assert [r.tokens for r in read.records] == [tuple(r.tokens) for r in kept]
    assert read.records == tuple(kept)


class TestProfilesAndReportsCsv:
    def test_profiles_round_trip(self, tmp_path):
        profiles = [
            ToolProfile("a", {1: 0.5, 2: 0.75}),
            ToolProfile("b", {2: 1.0}),
        ]
        path = tmp_path / "profiles.csv"
        write_profiles(profiles, path)
        assert read_profiles(path) == profiles

    def test_reports_grouped_by_address(self, tmp_path):
        path = tmp_path / "reports.csv"
        path.write_text(
            "tool,address,class_id,verdict\n"
            "t1,0xaa,1,1\n"
            "t2,0xaa,1,0\n"
            "t1,0xbb,2,1\n"
        )
        grouped = read_reports(path)
        assert set(grouped) == {"0xaa", "0xbb"}
        assert grouped["0xaa"] == [
            DetectorReport("t1", {1: True}),
            DetectorReport("t2", {1: False}),
        ]

    def test_bad_verdict_rejected(self, tmp_path):
        path = tmp_path / "reports.csv"
        path.write_text("tool,address,class_id,verdict\nt,0xaa,1,yes\n")
        with pytest.raises(ParseError, match="line 2"):
            read_reports(path)


def label_bytecodes(path):
    """Run the `label` command, errors uncaught, with `path` as its `address,bytecode` input.

    Rows with address "A" have a report, so their bytecode cell is preprocessed.
    """
    profiles, reports = path.with_name("profiles.csv"), path.with_name("reports.csv")
    profiles.write_text("tool,class_id,f1\n" + "".join(f"t,{c},0.5\n" for c in range(1, 9)))
    reports.write_text("tool,address,class_id,verdict\nt,A,1,1\n")
    args = cli.build_parser().parse_args(
        ["label", "--bytecodes", str(path), "--reports", str(reports),
         "--profiles", str(profiles), "--out", str(path.with_name("out.csv"))]
    )
    return cli._cmd_label(args)


# every CSV reader in the package, with the header of the format it reads
CSV_READERS = {
    "chunk": (read_chunk, "address,bytecode,A,B"),
    "chunk_with_catalog": (lambda path: read_chunk(path, CAT2), "address,bytecode,A,B"),
    "corpus_catalog": (read_corpus_catalog, "address,bytecode,A,B"),
    "profiles": (read_profiles, "tool,class_id,f1"),
    "reports": (read_reports, "tool,address,class_id,verdict"),
    "label_bytecodes": (label_bytecodes, "address,bytecode"),
}


class TestReadCsv:
    def test_streams_numbered_rows_header_first(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text('a,b\n1,"x\ny"\n3,4\n')
        rows = read_csv(path, ["a", "b"])
        assert next(rows) == (1, ["a", "b"])
        assert list(rows) == [(2, ["1", "x\ny"]), (3, ["3", "4"])]

    def test_checks_header_and_width(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="line 1: missing header row"):
            list(read_csv(path))
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ParseError, match="line 1: bad header"):
            list(read_csv(path, ["a", "c"]))
        with pytest.raises(ParseError, match="line 3: expected 2 columns, got 1"):
            list(read_csv(path))

    def test_csv_syntax_error_is_parse_error(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,b\n1,2\n3," + "9" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(ParseError, match="line 3: bad CSV: field larger"):
            list(read_csv(path))

    @pytest.mark.parametrize("name", sorted(CSV_READERS))
    def test_non_utf8_byte_names_its_line(self, tmp_path, name):
        reader, header = CSV_READERS[name]
        path = tmp_path / "f.csv"
        path.write_bytes(header.encode() + b"\n0x\xff" + b",0" * header.count(",") + b"\n")
        with pytest.raises(ParseError, match="line 2: not UTF-8 text"):
            reader(path)


_CELLS = st.one_of(
    st.sampled_from(["0", "1", "2", "", "60 00", "xx", "0.5", "nan", "-1", "A", "t"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(CSV_READERS)),
    rows=st.lists(st.lists(_CELLS, min_size=1, max_size=5), max_size=6),
    tail=st.binary(max_size=6),
    raw=st.one_of(st.none(), st.binary(max_size=200)),
)
def test_csv_readers_return_or_raise_package_errors(tmp_path_factory, name, rows, tail, raw):
    reader, header = CSV_READERS[name]
    if raw is None:  # random rows after a valid header
        text = io.StringIO(newline="")
        csv.writer(text).writerows(rows)
        raw = f"{header}\r\n{text.getvalue()}".encode() + tail
    path = tmp_path_factory.mktemp("fuzz") / "f.csv"
    path.write_bytes(raw)
    try:
        reader(path)
    except EvmGuardError:
        pass


class TestSynth:
    def test_motif_present_iff_labeled(self):
        spec = default_synth_spec(2)
        records = synth_generate(spec, all_label_combos(2, 10), seed=11)
        for r in records:
            joined = " ".join(r.tokens)
            for j, motif in enumerate(spec.motifs):
                assert (" ".join(motif) in joined) == r.labels[j]

    def test_clean_records_have_no_motif_tokens(self):
        spec = default_synth_spec(3)
        records = synth_generate(spec, [((False, False, False), 25)], seed=2)
        motif_tokens = {t for m in spec.motifs for t in m}
        for r in records:
            assert not motif_tokens & set(r.tokens)

    def test_lengths_in_range(self):
        spec = default_synth_spec(3, min_length=24, max_length=48)
        records = synth_generate(spec, all_label_combos(3, 5), seed=0)
        assert all(24 <= len(r.tokens) <= 48 for r in records)

    def test_negative_count_is_a_config_error(self):
        spec = default_synth_spec(2)
        assert synth_generate(spec, all_label_combos(2, 0), seed=0) == []
        with pytest.raises(ConfigError):
            synth_generate(spec, all_label_combos(2, -1), seed=0)

    def test_deterministic(self):
        spec = default_synth_spec(2)
        a = synth_generate(spec, all_label_combos(2, 5), seed=3)
        b = synth_generate(spec, all_label_combos(2, 5), seed=3)
        assert a == b

    def test_addresses_unique(self):
        spec = default_synth_spec(2)
        records = synth_generate(spec, all_label_combos(2, 20), seed=0)
        assert len({r.address for r in records}) == len(records)

    def test_motif_longer_than_sequence_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(
                catalog=ClassCatalog(("A",)),
                motifs=(("aa", "ab", "ac"),),
                filler=("00",),
                min_length=2,
                max_length=4,
            )

    @pytest.mark.parametrize("motif, filler, bad", [
        (("zz",), ("00", "01"), "zz"),
        (("f1", "ff"), ("00", "zz"), "zz"),
        (("f1", "60 61"), ("00",), "60 61"),
        (("F1",), ("00",), "F1"),
        ("f1", ("00",), "f"),
    ])
    def test_tokens_that_are_not_opcodes_rejected(self, motif, filler, bad):
        with pytest.raises(ConfigError, match=f"invalid opcode token '{bad}'"):
            SynthSpec(
                catalog=ClassCatalog(("A",)),
                motifs=(motif,),
                filler=filler,
                min_length=4,
                max_length=8,
            )

    def test_motif_filler_overlap_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(
                catalog=ClassCatalog(("A",)),
                motifs=(("00",),),
                filler=("00", "01"),
                min_length=4,
                max_length=8,
            )


@settings(max_examples=50)
@given(
    n=st.integers(min_value=0, max_value=200),
    size=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_chunk_sizes_follow_ceil_law(n, size, seed):
    corpus = [rec(str(i)) for i in range(n)]
    out = chunk(corpus, chunk_size=size, seed=seed)
    assert len(out) == -(-n // size) if n else len(out) == 0
    assert all(len(c) == size for c in out[:-1])
    if out:
        assert 1 <= len(out[-1]) <= size
    flat = sorted(r.address for c in out for r in c.records)
    assert flat == sorted(r.address for r in corpus)


@settings(max_examples=50)
@given(
    n=st.integers(min_value=10, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_split_sizes_follow_floor_law(n, seed):
    corpus = [rec(str(i)) for i in range(n)]
    train, val, test = split(corpus, seed)
    assert len(test) == n * 20 // 100
    rest = n - len(test)
    assert len(val) == rest * 10 // 100
    assert len(train) == rest - len(val)
    assert {r.address for r in train} | {r.address for r in val} | {
        r.address for r in test
    } == {str(i) for i in range(n)}
