//! Shared benchmark context: generated datasets plus the lazily-built
//! (codec × dataset) measurement matrix that most tables and figures
//! consume.

use crate::codecs::{paper_registry, GFC_INPUT_LIMIT};
use crate::runner::{run_cell_pooled, CellOutcome, RunConfig, RunMatrix};
use fcbench_core::pool::{PoolConfig, WorkerPool};
use fcbench_core::{CodecRegistry, Platform};
use fcbench_datasets::{catalog, generate, DatasetSpec, NamedData};
use std::sync::Arc;

/// Default elements per scaled dataset.
pub const DEFAULT_ELEMS: usize = 1 << 17;

/// Worker threads for the campaign's shared execution engine: enough to
/// keep cells moving, capped so measurement hosts are not oversubscribed.
pub fn engine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// Datasets + matrix for one benchmark campaign, plus the codec registry
/// every experiment consumes (the single source of codec instances) and
/// the shared [`WorkerPool`] engine every cell executed on.
pub struct Context {
    pub registry: CodecRegistry,
    pub specs: Vec<DatasetSpec>,
    pub datasets: Vec<NamedData>,
    pub matrix: RunMatrix,
    pub pool: Arc<WorkerPool>,
}

impl Context {
    /// Names of the registered codecs targeting `platform`.
    pub fn platform_names(&self, platform: Platform) -> Vec<&'static str> {
        self.registry
            .by_platform(platform)
            .map(|e| e.name())
            .collect()
    }
}

/// Generate all datasets and run the full 14 × 33 matrix **on the
/// persistent worker-pool engine**: every cell's compress/decompress call
/// is a job submitted to one shared warm [`WorkerPool`], so cells measure
/// steady-state codec work (worker scratch and codec thread-locals persist
/// across the whole campaign) rather than thread spawn and allocator
/// churn. Payload bytes are identical to the direct codec calls — matrix
/// jobs are not block-decomposed.
///
/// GFC is gated on the *paper* byte size of each dataset (its original
/// 512 MB device-buffer limit): scaled instances stand in for originals,
/// so the limit must apply to what they represent — this reproduces
/// exactly the Table 4 dash pattern.
pub fn build_context(target_elems: usize, repetitions: usize) -> Context {
    let specs = catalog();
    let datasets: Vec<NamedData> = specs
        .iter()
        .map(|s| NamedData::new(s.name, generate(s, target_elems)))
        .collect();

    let registry = paper_registry();
    let pool = Arc::new(WorkerPool::new(PoolConfig::with_threads(engine_threads())));
    let cfg = RunConfig {
        repetitions,
        verify: true,
    };
    let mut cells = Vec::with_capacity(registry.len());
    for entry in registry.iter() {
        let name = entry.name();
        let mut row = Vec::with_capacity(datasets.len());
        for (spec, ds) in specs.iter().zip(datasets.iter()) {
            if name == "gfc" && spec.paper_bytes > GFC_INPUT_LIMIT {
                row.push(CellOutcome::Failed(format!(
                    "gfc: original dataset is {} bytes (> 512 MB device limit)",
                    spec.paper_bytes
                )));
                continue;
            }
            row.push(run_cell_pooled(&pool, entry.codec(), &ds.data, cfg));
        }
        cells.push(row);
    }
    let matrix = RunMatrix {
        codecs: registry.names().iter().map(|n| n.to_string()).collect(),
        datasets: datasets.iter().map(|d| d.name.clone()).collect(),
        cells,
    };
    Context {
        registry,
        specs,
        datasets,
        matrix,
        pool,
    }
}

/// Column-aligned text table helper used by every experiment printer.
pub fn render_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            // Left-align first column, right-align numbers.
            if i == 0 {
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            } else {
                line.push_str(&format!("{:>width$}", cell, width = widths[i]));
            }
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(headers, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let headers = vec!["name".to_string(), "cr".to_string()];
        let rows = vec![
            vec!["a-long-name".to_string(), "1.25".to_string()],
            vec!["b".to_string(), "10.00".to_string()],
        ];
        let t = render_table(&headers, &rows);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All data lines equal length.
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[2].starts_with("a-long-name"));
    }

    // Full-context construction is covered by the integration tests
    // (tests/matrix.rs) at a reduced element count.
}
