//! Chaos testing for FCDB2 container writes: every seeded fault plan
//! injected into the writer's sink — short writes, interrupts, wouldblock,
//! delays, and hard errors at exact byte offsets — must end in a typed
//! error (never a panic or hang), and the bytes that did reach the sink
//! must recover through `parse_container` to the last commit point with
//! the **exact** dropped-record count a reference walk of the framing
//! predicts. This composes the `fp1:` fault harness with the exhaustive
//! truncation suite in `tests/container_recovery.rs`: a faulted write is
//! just a truncation the writer didn't choose.

use fcbench::core::fault::{FaultPlan, FaultyIo};
use fcbench::core::pool::{PoolConfig, WorkerPool};
use fcbench::core::stream::take_record;
use fcbench::core::{Compressor, Precision};
use fcbench::cpu::Gorilla;
use fcbench::dbsim::{parse_container, ColumnData, ContainerWriter, RecoveryOutcome};
use proptest::prelude::*;
use std::sync::Arc;

// FCDB2 framing tags and locator shape, fixed by the on-disk format.
const TAG_COMMIT: u8 = 3;
const LOCATOR_BYTES: usize = 16;

fn column(name: &str, n: usize, phase: f32) -> ColumnData {
    let vals: Vec<f32> = (0..n).map(|i| (i as f32 * 0.31 + phase).sin()).collect();
    ColumnData::from_f32(name, &vals)
}

fn columns() -> Vec<ColumnData> {
    vec![
        column("pressure", 600, 0.0),
        column("humidity", 500, 1.0),
        column("wind", 400, 2.0),
        column("temp", 300, 3.0),
    ]
}

/// Drive the standard multi-commit write sequence through a sink wrapped
/// in `FaultyIo`, returning whatever bytes reached the sink and the
/// writer's final verdict. The sink buffer outlives the writer even when
/// a fault kills it mid-record — exactly the crash shape recovery exists
/// for.
fn write_through(plan: FaultPlan) -> (Vec<u8>, fcbench::core::Result<()>) {
    let pool = WorkerPool::new(PoolConfig::with_threads(2));
    let codec: Arc<dyn Compressor> = Arc::new(Gorilla::new());
    let cols = columns();
    let mut sink = Vec::new();
    let result = (|| {
        let faulty = FaultyIo::new(&mut sink, plan);
        let mut w = ContainerWriter::new(faulty, &pool, &codec)?;
        for col in &cols {
            w.begin_column(&col.name, Precision::Single, 64)?;
            w.write(&col.bytes)?;
            w.commit()?;
        }
        w.finish()?;
        Ok(())
    })();
    (sink, result)
}

/// The intact reference bytes: the same write sequence with no faults.
fn reference_bytes() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let (bytes, result) = write_through(FaultPlan::benign());
        result.expect("benign plan writes cleanly");
        bytes
    })
}

/// One framing span of the intact file: a record, or a commit locator.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
    tag: u8,
    is_locator: bool,
}

/// Map every record and locator span of the intact container body.
fn span_map(bytes: &[u8], body_start: usize) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut pos = body_start;
    while pos < bytes.len() {
        let rec = take_record(bytes, pos).expect("intact file parses");
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
fn prologue_end(bytes: &[u8]) -> usize {
    assert_eq!(&bytes[..4], b"FCD2");
    4 + 1 + bytes[4] as usize + 4
}

/// Structural fingerprint of a parsed table: (name, rows, chunks) per
/// column, for comparing a recovered read against the clean read at the
/// same commit point.
type Fingerprint = Vec<(String, usize, Vec<Vec<u8>>)>;

fn fingerprint(read: &fcbench::dbsim::ContainerRead) -> Fingerprint {
    read.table
        .columns
        .iter()
        .map(|c| {
            let chunks = c.chunks().map(<[u8]>::to_vec).collect();
            (c.name.clone(), c.rows, chunks)
        })
        .collect()
}

/// Reference tables at each commit locator end of the intact file.
fn commit_tables() -> Vec<(usize, Fingerprint)> {
    let bytes = reference_bytes();
    let spans = span_map(bytes, prologue_end(bytes));
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

/// When a chaos case fails, surface the replayable `fp1:` seed both in the
/// failure message and — if the CI harness asked for it — in a seed file
/// it can upload as an artifact.
fn note_seed(plan: &FaultPlan) {
    if let Ok(path) = std::env::var("FCBENCH_CHAOS_SEED_OUT") {
        if !path.is_empty() {
            let _ = std::fs::write(path, plan.seed_string());
        }
    }
}

/// The core assertion: a container prefix of `cut` bytes either rejects a
/// torn prologue or recovers to the last commit point with the exact
/// dropped-record count the reference walk predicts.
fn assert_recovers_exactly(cut: usize, ctx: &str) {
    let bytes = reference_bytes();
    let body = prologue_end(bytes);
    if cut < body {
        assert!(
            parse_container(&bytes[..cut]).is_err(),
            "{ctx}: torn prologue at cut {cut} must be a typed error"
        );
        return;
    }

    // Reference walk over the intact span map, stopping at `cut`.
    let spans = span_map(bytes, body);
    let mut dropped = 0u64;
    let mut last_commit_end: Option<usize> = None;
    let mut clean = false;
    let mut torn = false;
    for s in &spans {
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

    let read = parse_container(&bytes[..cut])
        .unwrap_or_else(|e| panic!("{ctx}: recovery at cut {cut} must not error: {e}"));
    let expected_table = last_commit_end
        .map(|end| {
            commit_tables()
                .iter()
                .find(|(loc_end, _)| end < *loc_end)
                .expect("commit has a table")
                .1
                .clone()
        })
        .unwrap_or_default();
    assert_eq!(
        fingerprint(&read),
        expected_table,
        "{ctx}: cut {cut} must read back the last committed table"
    );
    let expected = if clean {
        RecoveryOutcome::Clean
    } else {
        RecoveryOutcome::Recovered {
            dropped_records: dropped,
        }
    };
    assert_eq!(read.outcome, expected, "{ctx}: outcome at cut {cut}");
}

/// Run one seeded chaos case end to end and assert every guarantee.
fn chaos_case(seed: u64) {
    let plan = FaultPlan::from_seed(seed);
    note_seed(&plan);
    let reference = reference_bytes();
    let (sink, result) = write_through(plan.clone());

    // Faults can only truncate the byte stream, never corrupt it: what
    // reached the sink is always an exact prefix of the intact file.
    assert!(
        sink.len() <= reference.len(),
        "{plan}: sink may not outgrow the intact file"
    );
    assert_eq!(
        &sink[..],
        &reference[..sink.len()],
        "{plan}: sink must be an exact prefix of the intact file"
    );

    // An Err result is typed by construction: it came back through
    // `Result`. Recovery of the prefix is asserted below either way.
    if result.is_ok() {
        assert_eq!(
            sink.len(),
            reference.len(),
            "{plan}: a write that reported success must have landed every byte"
        );
    }
    assert_recovers_exactly(sink.len(), &plan.seed_string());
}

/// A deterministic sweep of 256 seeded plans — the issue's acceptance
/// floor — independent of any `PROPTEST_CASES` override.
#[test]
fn deterministic_sweep_of_256_fault_plans() {
    for seed in 0..256u64 {
        chaos_case(seed);
    }
}

/// Benign plans are fully transparent: the container lands clean and the
/// whole table reads back.
#[test]
fn benign_plans_write_clean_containers() {
    let plan = FaultPlan::benign();
    assert!(plan.is_benign());
    let (sink, result) = write_through(plan);
    result.expect("benign write succeeds");
    let read = parse_container(&sink).expect("clean parse");
    assert_eq!(read.outcome, RecoveryOutcome::Clean);
    assert_eq!(read.table.columns.len(), columns().len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Randomized fault plans over the whole seed space: the writer may
    /// fail at any byte, but the sink always recovers to the last commit
    /// with an exact accounting of what was lost.
    #[test]
    fn any_seeded_fault_plan_recovers_to_the_last_commit(seed in any::<u64>()) {
        chaos_case(seed);
    }

    /// Composition with the truncation suite: a faulted write *followed by*
    /// a crash-style truncation of the surviving bytes still recovers with
    /// exact counts — fault injection and torn tails stack.
    #[test]
    fn faulted_writes_compose_with_truncation(seed in any::<u64>(), frac in 0.0f64..=1.0) {
        let plan = FaultPlan::from_seed(seed);
        note_seed(&plan);
        let (sink, _) = write_through(plan.clone());
        let cut = ((sink.len() as f64) * frac) as usize;
        let cut = cut.min(sink.len());
        assert_recovers_exactly(cut, &format!("{} then cut", plan.seed_string()));
    }
}
