//! FCDB2 crash-recovery hardening: a container truncated at **any** byte
//! must recover to the last valid commit point with a typed outcome and an
//! exact dropped-record count — and a committed directory making petabyte
//! claims against a tiny file must be a typed error before anything is
//! reserved for it (the container-level mirror of
//! `tests/hostile_descriptors.rs`).

#[path = "common/fcdb2.rs"]
mod fcdb2;

use fcbench::core::pool::{PoolConfig, WorkerPool};
use fcbench::core::stream::{crc32, put_record};
use fcbench::core::{Compressor, Error, Precision};
use fcbench::cpu::Gorilla;
use fcbench::dbsim::{
    parse_container, read_container, write_container_pooled, ColumnData, ContainerWriter,
    RecoveryOutcome,
};
use fcdb2::{
    assert_recovers_exactly, commit_tables, prologue_end, span_map, Span, TAG_CHUNK, TAG_COMMIT,
};
use proptest::prelude::*;
use std::sync::Arc;

fn column(name: &str, n: usize, phase: f32) -> ColumnData {
    let vals: Vec<f32> = (0..n).map(|i| (i as f32 * 0.31 + phase).sin()).collect();
    ColumnData::from_f32(name, &vals)
}

/// Build a small three-column container in memory with a commit after
/// every column (so three commit points), returning its bytes.
fn three_commit_container() -> Vec<u8> {
    let pool = WorkerPool::new(PoolConfig::with_threads(2));
    let codec: Arc<dyn Compressor> = Arc::new(Gorilla::new());
    let mut w = ContainerWriter::new(Vec::new(), &pool, &codec).expect("prologue");
    for (i, col) in [
        column("a", 60, 0.0),
        column("b", 60, 1.0),
        column("c", 40, 2.0),
    ]
    .iter()
    .enumerate()
    {
        w.begin_column(&col.name, Precision::Single, 16)
            .expect("column");
        w.write(&col.bytes).expect("write");
        assert!(w.uncommitted_records() > 0, "column {i} emitted records");
        w.commit().expect("commit");
        assert_eq!(w.uncommitted_records(), 0);
    }
    w.finish().expect("finish")
}

/// The tentpole guarantee, proven exhaustively: for **every** prefix of
/// the file, the reader either rejects a torn prologue or recovers to the
/// last commit point with the exact dropped-record count a reference walk
/// of the framing predicts.
#[test]
fn every_byte_truncation_recovers_to_the_last_commit_point() {
    let bytes = three_commit_container();
    let spans = span_map(&bytes, prologue_end(&bytes));
    let commit_tables = commit_tables(&bytes, &spans);
    assert_eq!(commit_tables.len(), 3, "three commit points");

    for cut in 0..=bytes.len() {
        assert_recovers_exactly(&bytes, &spans, &commit_tables, cut, "truncation");
    }
}

/// The named framing boundaries from the issue, with exact counts: mid
/// record length, mid chunk payload, mid commit directory, mid locator —
/// plus garbage appended after a clean commit.
#[test]
fn boundary_truncations_drop_exact_record_counts() {
    let bytes = three_commit_container();
    let body = prologue_end(&bytes);
    let spans = span_map(&bytes, body);
    let locators: Vec<&Span> = spans.iter().filter(|s| s.is_locator).collect();
    let second_era: Vec<&Span> = spans
        .iter()
        .filter(|s| !s.is_locator && s.start >= locators[1].end)
        .collect();
    let outcome_at = |cut: usize| parse_container(&bytes[..cut]).expect("recovers").outcome;
    let columns_at = |cut: usize| {
        parse_container(&bytes[..cut])
            .expect("recovers")
            .table
            .columns
            .len()
    };

    // Mid record length field (byte 4 of the third column's COLUMN record
    // header): nothing after commit 2 survives, one torn record.
    let cut = second_era[0].start + 4;
    assert_eq!(
        outcome_at(cut),
        RecoveryOutcome::Recovered { dropped_records: 1 }
    );
    assert_eq!(columns_at(cut), 2);

    // Mid chunk payload: the COLUMN record and one full chunk record are
    // complete (2 dropped), the second chunk record is torn (+1).
    assert_eq!(second_era[1].tag, TAG_CHUNK);
    let cut = second_era[2].start + (second_era[2].end - second_era[2].start) / 2;
    assert_eq!(
        outcome_at(cut),
        RecoveryOutcome::Recovered { dropped_records: 3 }
    );

    // Mid commit directory (inside the third COMMIT record's body): every
    // complete record of the era drops, plus the torn commit itself.
    let commit3 = second_era.last().expect("third era ends in a commit");
    assert_eq!(commit3.tag, TAG_COMMIT);
    let complete = (second_era.len() - 1) as u64;
    let cut = commit3.start + (commit3.end - commit3.start) / 2;
    assert_eq!(
        outcome_at(cut),
        RecoveryOutcome::Recovered {
            dropped_records: complete + 1
        }
    );
    assert_eq!(columns_at(cut), 2);

    // Mid footer locator: the commit record itself is intact, so nothing
    // is lost — the torn locator prefix is consumed.
    let cut = locators[2].end - 1;
    assert_eq!(
        outcome_at(cut),
        RecoveryOutcome::Recovered { dropped_records: 0 }
    );
    assert_eq!(columns_at(cut), 3);

    // Garbage after a clean file: the full table survives, the tail is
    // reported as one torn record.
    let mut dirty = bytes.clone();
    dirty.extend_from_slice(&[0x5Au8; 33]);
    let read = parse_container(&dirty).expect("recovers");
    assert_eq!(
        read.outcome,
        RecoveryOutcome::Recovered { dropped_records: 1 }
    );
    assert_eq!(read.table.columns.len(), 3);
}

/// Recovered tables are not just structurally right — they decode to the
/// exact committed prefix of the data.
#[test]
fn recovered_tables_decode_to_committed_data() {
    let bytes = three_commit_container();
    let pool = WorkerPool::new(PoolConfig::with_threads(2));
    let codec: Arc<dyn Compressor> = Arc::new(Gorilla::new());
    let cols = [
        column("a", 60, 0.0),
        column("b", 60, 1.0),
        column("c", 40, 2.0),
    ];

    // Cut a few bytes into the third column's first record: commit 3 is
    // gone, commits 1–2 survive.
    let spans = span_map(&bytes, prologue_end(&bytes));
    let locators: Vec<&Span> = spans.iter().filter(|s| s.is_locator).collect();
    let read = parse_container(&bytes[..locators[1].end + 3]).expect("recovers");
    assert!(matches!(read.outcome, RecoveryOutcome::Recovered { .. }));
    assert_eq!(read.table.columns.len(), 2);
    for (comp, orig) in read.table.columns.iter().zip(&cols) {
        let decoded = comp
            .decode_pooled(&pool, &codec)
            .expect("decode recovered column");
        assert_eq!(decoded.bytes, orig.bytes, "column {}", orig.name);
    }
}

/// Damage inside the committed region, not only a torn tail. Every record
/// of the three-commit container gets one bit of its body flipped, and
/// every CHUNK record is also zeroed whole. Each damaged file is parsed
/// twice: with its trailing locator intact, and with the locator's last
/// byte cut. Both parses return the table of the newest commit that
/// neither is the damaged record nor references it (directories are
/// cumulative, so a commit references every CHUNK record before it),
/// decoded byte-exact, with the same outcome — except that the intact
/// file reads `Clean` when that commit is the last. When every commit
/// references the record, both parses are a typed error.
#[test]
fn damaged_records_recover_the_newest_commit_that_avoids_them() {
    let bytes = three_commit_container();
    let records: Vec<Span> = span_map(&bytes, prologue_end(&bytes))
        .into_iter()
        .filter(|s| !s.is_locator)
        .collect();
    assert_eq!(records.len(), 17);
    let commits: Vec<usize> = (0..records.len())
        .filter(|&i| records[i].tag == TAG_COMMIT)
        .collect();
    let cols = [
        column("a", 60, 0.0),
        column("b", 60, 1.0),
        column("c", 40, 2.0),
    ];
    let pool = WorkerPool::new(PoolConfig::with_threads(2));
    let codec: Arc<dyn Compressor> = Arc::new(Gorilla::new());

    let mut cases = Vec::new();
    for (i, r) in records.iter().enumerate() {
        let mut flipped = bytes.clone();
        flipped[r.start + 9 + (r.end - r.start - 13) / 2] ^= 0x10;
        cases.push((i, false, flipped));
        if r.tag == TAG_CHUNK {
            let mut zeroed = bytes.clone();
            zeroed[r.start..r.end].fill(0);
            cases.push((i, true, zeroed));
        }
    }
    for (i, zeroed, damaged) in cases {
        let how = if zeroed { "zeroed" } else { "bit flip" };
        let ctx = format!("{how} in record {i} at offset {}", records[i].start);
        let references = |c: usize| c == i || (records[i].tag == TAG_CHUNK && i < c);
        let want = commits.iter().rposition(|&c| !references(c));
        let intact = parse_container(&damaged);
        let torn = parse_container(&damaged[..damaged.len() - 1]);
        let Some(k) = want else {
            for read in [intact, torn] {
                match read {
                    Err(Error::ChecksumMismatch { .. } | Error::Corrupt(_)) => {}
                    other => panic!("{ctx}: every commit references it, got {other:?}"),
                }
            }
            continue;
        };
        let (intact, torn) = (
            intact.unwrap_or_else(|e| panic!("{ctx}: intact locator: {e}")),
            torn.unwrap_or_else(|e| panic!("{ctx}: torn locator: {e}")),
        );
        // A zeroed record stops the forward walk: it and the records after
        // it go unframed, and the stop itself counts as one.
        let dropped = if zeroed { i } else { records.len() - 1 } - commits[k];
        let recovered = RecoveryOutcome::Recovered {
            dropped_records: dropped as u64,
        };
        assert_eq!(torn.outcome, recovered, "{ctx}: torn locator");
        let last = k == commits.len() - 1;
        let intact_outcome = if last {
            RecoveryOutcome::Clean
        } else {
            recovered
        };
        assert_eq!(intact.outcome, intact_outcome, "{ctx}: intact locator");
        for read in [&intact, &torn] {
            assert_eq!(read.table.columns.len(), k + 1, "{ctx}: commit {}", k + 1);
            for (comp, orig) in read.table.columns.iter().zip(&cols) {
                let decoded = comp.decode_pooled(&pool, &codec).expect("decode");
                assert_eq!(decoded.bytes, orig.bytes, "{ctx}: column {}", orig.name);
            }
        }
    }
}

/// Craft a syntactically valid container whose committed directory makes
/// a hostile claim, exercising `load_directory`'s gates. The commit
/// record and trailing locator are genuine, so the claim is reached via
/// the clean fast path — the gate is the only defense.
fn hostile_directory_container(dir_body: &[u8], chunk_payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    // Prologue: magic | name len | name | crc.
    out.extend_from_slice(b"FCD2");
    out.push(1);
    out.push(b'g');
    let crc = crc32(&out).to_le_bytes();
    out.extend_from_slice(&crc);
    // One real (tiny) chunk record the directory may point at.
    let elems = 1u32.to_le_bytes();
    put_record(&mut out, TAG_CHUNK, &[&elems, chunk_payload]).expect("chunk record");
    // The hostile commit, with its locator.
    let commit_at = out.len() as u64;
    put_record(&mut out, TAG_COMMIT, &[dir_body]).expect("commit record");
    out.extend_from_slice(b"FC2C");
    out.extend_from_slice(&commit_at.to_le_bytes());
    let lcrc = crc32(&out[out.len() - 12..]).to_le_bytes();
    out.extend_from_slice(&lcrc);
    out
}

/// Directory body claiming one column of `rows` doubles split into
/// `nchunks` chunks — with **no** chunk table entries behind the claim.
fn petabyte_directory(rows: u64, chunk_elems: u32) -> Vec<u8> {
    let mut dir = Vec::new();
    dir.extend_from_slice(&1u32.to_le_bytes()); // one column
    dir.push(1); // name length
    dir.push(b'x');
    dir.push(1); // Precision::Double
    dir.extend_from_slice(&rows.to_le_bytes());
    dir.extend_from_slice(&chunk_elems.to_le_bytes());
    let nchunks = rows.div_ceil(chunk_elems as u64) as u32;
    dir.extend_from_slice(&nchunks.to_le_bytes());
    dir
}

proptest! {
    /// A committed directory claiming terabytes-to-petabytes of rows in a
    /// kilobyte file is a typed error — the chunk-table claim is bounded
    /// by real directory bytes before any chunk list is reserved.
    #[test]
    fn petabyte_row_claims_in_committed_directories_are_rejected(
        log2_rows in 40u32..=50,
        chunk_elems in 1u32..=4096,
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let dir = petabyte_directory(1u64 << log2_rows, chunk_elems);
        let bytes = hostile_directory_container(&dir, &payload);
        prop_assert!(bytes.len() < 2048, "the hostile file itself stays tiny");
        let r = parse_container(&bytes);
        prop_assert!(
            r.is_err(),
            "a {}-byte container claiming 2^{log2_rows} rows must be rejected",
            bytes.len()
        );
    }

    /// A directory entry claiming a petabyte **payload** for a one-element
    /// chunk is rejected by the expansion gate before the payload length
    /// is trusted anywhere.
    #[test]
    fn petabyte_payload_claims_in_committed_directories_are_rejected(
        log2_payload in 40u32..=50,
        payload in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut dir = petabyte_directory(1, 1);
        // One chunk-table entry: offset of the real chunk record, but a
        // payload length in the terabytes.
        let chunk_offset = 10u64; // prologue is 4 + 1 + 1 + 4 bytes
        dir.extend_from_slice(&chunk_offset.to_le_bytes());
        dir.extend_from_slice(&(1u64 << log2_payload).to_le_bytes());
        dir.extend_from_slice(&1u32.to_le_bytes());
        let bytes = hostile_directory_container(&dir, &payload);
        prop_assert!(parse_container(&bytes).is_err());
    }
}

/// Many readers over one table, sharing one small engine with bounded
/// read-ahead, all see the same bytes — no deadlock, no cross-talk.
#[test]
fn concurrent_pooled_readers_share_one_engine() {
    let path = std::env::temp_dir().join(format!("fcbench-rec-conc-{}", std::process::id()));
    let cols: Vec<ColumnData> = (0..3)
        .map(|i| column(&format!("c{i}"), 4000, i as f32))
        .collect();
    let codec: Arc<dyn Compressor> = Arc::new(Gorilla::new());
    let pool = WorkerPool::new(PoolConfig::with_threads(2));
    write_container_pooled(&path, &pool, &codec, &cols, 256).expect("write");
    let read = read_container(&path).expect("read");
    assert!(read.is_clean());
    let table = read.table;
    std::fs::remove_file(&path).ok();

    std::thread::scope(|s| {
        for t in 0..4 {
            let (table, pool, codec, cols) = (&table, &pool, &codec, &cols);
            s.spawn(move || {
                // Stagger which column each reader starts on.
                for k in 0..table.columns.len() {
                    let i = (t + k) % table.columns.len();
                    let mut cursor = table.columns[i]
                        .cursor(pool, codec)
                        .expect("cursor")
                        .max_in_flight(1 + t % 2);
                    let mut got = Vec::new();
                    while let Some(page) = cursor.next_chunk().expect("page") {
                        got.extend_from_slice(page);
                    }
                    assert_eq!(got, cols[i].bytes, "reader {t}, column {i}");
                }
            });
        }
    });
}
