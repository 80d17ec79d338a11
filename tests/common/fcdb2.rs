//! FCDB2 framing helpers shared by the container recovery and chaos
//! suites: the span map of an intact container, the clean table at each
//! commit point, and the reference walk of the framing that predicts what
//! recovery must return for any prefix of the file.

#![allow(dead_code)] // each suite uses its own subset

use fcbench::core::stream::frame_record;
use fcbench::dbsim::{parse_container, ContainerRead, RecoveryOutcome};

// The FCDB2 framing tags and locator shape, fixed by the on-disk format
// (see crates/dbsim/src/container.rs module docs).
pub(crate) const TAG_CHUNK: u8 = 2;
pub(crate) const TAG_COMMIT: u8 = 3;
pub(crate) const LOCATOR_BYTES: usize = 16;

/// One framing span of the intact file: a record, or a commit locator.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub(crate) start: usize,
    pub(crate) end: usize,
    pub(crate) tag: u8,
    pub(crate) is_locator: bool,
}

/// Map every record and locator span of an intact container body.
pub(crate) fn span_map(bytes: &[u8], body_start: usize) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut pos = body_start;
    while pos < bytes.len() {
        let rec = frame_record(bytes, pos)
            .and_then(|r| r.verify())
            .expect("intact file parses");
        spans.push(Span {
            start: pos,
            end: rec.end,
            tag: rec.tag,
            is_locator: false,
        });
        pos = rec.end;
        if rec.tag == TAG_COMMIT {
            spans.push(Span {
                start: pos,
                end: pos + LOCATOR_BYTES,
                tag: 0,
                is_locator: true,
            });
            pos += LOCATOR_BYTES;
        }
    }
    assert_eq!(pos, bytes.len(), "intact file is fully spanned");
    spans
}

/// Prologue length: magic, name length byte, name, crc.
pub(crate) fn prologue_end(bytes: &[u8]) -> usize {
    assert_eq!(&bytes[..4], b"FCD2");
    4 + 1 + bytes[4] as usize + 4
}

/// Structural fingerprint of a parsed table: (name, rows, chunks) per
/// column, for comparing a recovered read against the clean read at the
/// same commit point.
pub(crate) type Fingerprint = Vec<(String, usize, Vec<Vec<u8>>)>;

pub(crate) fn fingerprint(read: &ContainerRead) -> Fingerprint {
    read.table
        .columns
        .iter()
        .map(|c| {
            let chunks = c.chunks().map(<[u8]>::to_vec).collect();
            (c.name.clone(), c.rows, chunks)
        })
        .collect()
}

/// `(locator end, table)` per commit point of the intact file, in file
/// order.
pub(crate) type CommitTables = Vec<(usize, Fingerprint)>;

/// The clean parse at each commit locator end of the intact file.
pub(crate) fn commit_tables(bytes: &[u8], spans: &[Span]) -> CommitTables {
    spans
        .iter()
        .filter(|s| s.is_locator)
        .map(|s| {
            let read = parse_container(&bytes[..s.end]).expect("commit prefix parses");
            assert_eq!(read.outcome, RecoveryOutcome::Clean);
            (s.end, fingerprint(&read))
        })
        .collect()
}

/// The reference walk over the intact span map, stopping at `cut`: the
/// table of the last complete commit record (empty if none) and the
/// outcome, `Clean` when the cut ends exactly on a commit locator, else
/// the complete records after that commit plus one for a torn tail record.
/// Any prefix of a commit locator is consumed losslessly.
fn expected_at(
    spans: &[Span],
    commit_tables: &[(usize, Fingerprint)],
    cut: usize,
) -> (Fingerprint, RecoveryOutcome) {
    let mut dropped = 0u64;
    let mut last_commit_end: Option<usize> = None;
    let mut clean = false;
    let mut torn = false;
    for s in spans {
        if s.is_locator {
            if s.end <= cut {
                clean = s.end == cut;
            }
            continue;
        }
        if s.end <= cut {
            if s.tag == TAG_COMMIT {
                dropped = 0;
                last_commit_end = Some(s.end);
            } else {
                dropped += 1;
            }
        } else {
            torn = s.start < cut; // partial tail record
            break;
        }
    }
    dropped += u64::from(torn);

    let table = last_commit_end
        .map(|end| {
            commit_tables
                .iter()
                .find(|(loc_end, _)| end < *loc_end)
                .expect("commit has a table")
                .1
                .clone()
        })
        .unwrap_or_default();
    let outcome = if clean {
        RecoveryOutcome::Clean
    } else {
        RecoveryOutcome::Recovered {
            dropped_records: dropped,
        }
    };
    (table, outcome)
}

/// The recovery guarantee for one prefix of the intact container `bytes`:
/// a cut inside the prologue is a typed error; any other cut recovers to
/// the last commit point with the exact outcome [`expected_at`] predicts.
pub(crate) fn assert_recovers_exactly(
    bytes: &[u8],
    spans: &[Span],
    commit_tables: &[(usize, Fingerprint)],
    cut: usize,
    ctx: &str,
) {
    let truncated = &bytes[..cut];
    if cut < prologue_end(bytes) {
        assert!(
            parse_container(truncated).is_err(),
            "{ctx}: torn prologue at cut {cut} must be a typed error"
        );
        return;
    }
    let (table, outcome) = expected_at(spans, commit_tables, cut);
    let read = parse_container(truncated)
        .unwrap_or_else(|e| panic!("{ctx}: recovery at cut {cut} must not error: {e}"));
    assert_eq!(
        fingerprint(&read),
        table,
        "{ctx}: cut {cut} must read back the last committed table"
    );
    assert_eq!(read.outcome, outcome, "{ctx}: outcome at cut {cut}");
}
