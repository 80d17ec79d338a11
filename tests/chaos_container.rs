//! Chaos testing for FCDB2 container writes: every seeded fault plan
//! injected into the writer's sink — short writes, interrupts, wouldblock,
//! delays, and hard errors at exact byte offsets — must end in a typed
//! error (never a panic or hang), and the bytes that did reach the sink
//! must recover through `parse_container` to the last commit point with
//! the **exact** dropped-record count a reference walk of the framing
//! predicts. This composes the `fp1:` fault harness with the exhaustive
//! truncation suite in `tests/container_recovery.rs`: a faulted write is
//! just a truncation the writer didn't choose.

#[path = "common/fcdb2.rs"]
mod fcdb2;

use fcbench::core::fault::{FaultPlan, FaultyIo};
use fcbench::core::pool::{PoolConfig, WorkerPool};
use fcbench::core::{Compressor, Precision};
use fcbench::cpu::Gorilla;
use fcbench::dbsim::{parse_container, ColumnData, ContainerWriter, RecoveryOutcome};
use fcdb2::{assert_recovers_exactly, commit_tables, prologue_end, span_map, CommitTables, Span};
use proptest::prelude::*;
use std::sync::Arc;

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

/// The core assertion: a container prefix of `cut` bytes either rejects a
/// torn prologue or recovers to the last commit point with the exact
/// dropped-record count the reference walk predicts.
fn assert_prefix_recovers(cut: usize, ctx: &str) {
    // The intact file's span map and the clean table at each commit point.
    static FRAMING: std::sync::OnceLock<(Vec<Span>, CommitTables)> = std::sync::OnceLock::new();
    let (spans, tables) = FRAMING.get_or_init(|| {
        let bytes = reference_bytes();
        let spans = span_map(bytes, prologue_end(bytes));
        let tables = commit_tables(bytes, &spans);
        (spans, tables)
    });
    assert_recovers_exactly(reference_bytes(), spans, tables, cut, ctx);
}

/// Run one seeded chaos case end to end and assert every guarantee.
fn chaos_case(seed: u64) {
    let plan = FaultPlan::from_seed(seed);
    plan.note_seed();
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
    assert_prefix_recovers(sink.len(), &plan.seed_string());
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
        plan.note_seed();
        let (sink, _) = write_through(plan.clone());
        let cut = ((sink.len() as f64) * frac) as usize;
        let cut = cut.min(sink.len());
        assert_prefix_recovers(cut, &format!("{} then cut", plan.seed_string()));
    }
}
