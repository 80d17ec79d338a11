//! Shared benchmark context: the campaign's size and rep count, the codec
//! registry, and the lazily generated datasets and (codec × dataset)
//! measurement matrix that most tables and figures consume.

use crate::codecs::{paper_registry, GFC_INPUT_LIMIT};
use crate::metrics::Measurement;
use crate::runner::{run_cell_pooled, CellOutcome, RunMatrix};
use fcbench_core::pool::{PoolConfig, WorkerPool};
use fcbench_core::{CodecRegistry, Platform};
use fcbench_datasets::{catalog, generate, DatasetSpec, NamedData};
use std::cell::OnceCell;
use std::sync::Arc;

/// Default elements per scaled dataset.
pub const DEFAULT_ELEMS: usize = 1 << 17;

/// Worker threads for the campaign's shared execution engine: enough to
/// keep cells moving, capped so measurement hosts are not oversubscribed.
pub(crate) fn engine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// One benchmark campaign: its scale and rep count, the codec registry
/// every experiment consumes (the single source of codec instances), the
/// shared [`WorkerPool`] engine the matrix runs on, and the datasets and
/// matrix, each built on first use.
pub struct Context {
    /// Elements per scaled dataset (`fcbench --elems`).
    pub elems: usize,
    /// Timed calls per measurement (`fcbench --reps`), read by every timed
    /// experiment.
    pub reps: usize,
    pub registry: CodecRegistry,
    pub specs: Vec<DatasetSpec>,
    pub pool: Arc<WorkerPool>,
    pub(crate) datasets: OnceCell<Vec<NamedData>>,
    pub(crate) matrix: OnceCell<RunMatrix>,
}

impl Context {
    /// A campaign over the paper registry and the 33-dataset catalog at
    /// `elems` elements per dataset, timing every cell with `reps` calls.
    /// Nothing is generated or run until an experiment asks for it.
    pub fn new(elems: usize, reps: usize) -> Context {
        Context {
            elems,
            reps,
            registry: paper_registry(),
            specs: catalog(),
            pool: Arc::new(WorkerPool::new(PoolConfig::with_threads(engine_threads()))),
            datasets: OnceCell::new(),
            matrix: OnceCell::new(),
        }
    }

    /// The catalog's datasets at the campaign's scale, in catalog order.
    pub fn datasets(&self) -> &[NamedData] {
        self.datasets.get_or_init(|| {
            self.specs
                .iter()
                .map(|s| NamedData::new(s.name, generate(s, self.elems)))
                .collect()
        })
    }

    /// The full 14 × 33 matrix, run **on the persistent worker-pool
    /// engine**: every cell's compress/decompress call is a job submitted
    /// to one shared warm [`WorkerPool`], so cells measure steady-state
    /// codec work (worker scratch and codec thread-locals persist across
    /// the whole campaign) rather than thread spawn and allocator churn.
    /// Payload bytes are identical to the direct codec calls — matrix jobs
    /// are not block-decomposed.
    ///
    /// GFC is gated on the *paper* byte size of each dataset (its original
    /// 512 MB device-buffer limit): scaled instances stand in for originals,
    /// so the limit must apply to what they represent — this reproduces
    /// exactly the Table 4 dash pattern.
    pub(crate) fn matrix(&self) -> &RunMatrix {
        self.matrix.get_or_init(|| {
            eprintln!(
                "fcbench: generating 33 datasets at ~{} elements and running the 14x33 matrix...",
                self.elems
            );
            let datasets = self.datasets();
            let cells = self
                .registry
                .iter()
                .map(|entry| {
                    self.specs
                        .iter()
                        .zip(datasets)
                        .map(|(spec, ds)| {
                            if entry.name() == "gfc" && spec.paper_bytes > GFC_INPUT_LIMIT {
                                return CellOutcome::Failed(format!(
                                    "gfc: original dataset is {} bytes (> 512 MB device limit)",
                                    spec.paper_bytes
                                ));
                            }
                            run_cell_pooled(&self.pool, entry.codec(), &ds.data, self.reps)
                        })
                        .collect()
                })
                .collect();
            RunMatrix {
                codecs: self
                    .registry
                    .names()
                    .iter()
                    .map(|n| n.to_string())
                    .collect(),
                datasets: datasets.iter().map(|d| d.name.clone()).collect(),
                cells,
            }
        })
    }

    /// Names of the registered codecs targeting `platform`.
    pub(crate) fn platform_names(&self, platform: Platform) -> Vec<&'static str> {
        self.registry
            .by_platform(platform)
            .map(|e| e.name())
            .collect()
    }
}

/// Column-aligned text table helper used by every experiment printer.
pub(crate) fn render_table(headers: &[String], rows: &[Vec<String>]) -> String {
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

/// A table of single timed cells, one row per `(label, measurement)`:
/// ratio, then each direction's median MB/s beside its IQR as % of the
/// median.
pub(crate) fn render_cells(label: &str, cells: &[(String, Measurement)]) -> String {
    let headers: Vec<String> = [label, "ratio", "comp MB/s", "IQR %", "decomp MB/s", "IQR %"]
        .map(String::from)
        .to_vec();
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|(name, m)| {
            vec![
                name.clone(),
                format!("{:.3}", m.compression_ratio()),
                format!("{:.3}", m.compression_throughput_gbs() * 1e3),
                format!("{:.0}", m.comp.iqr_pct()),
                format!("{:.3}", m.decompression_throughput_gbs() * 1e3),
                format!("{:.0}", m.decomp.iqr_pct()),
            ]
        })
        .collect();
    render_table(&headers, &rows)
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

    #[test]
    fn datasets_and_matrix_are_built_once_on_first_use() {
        let ctx = Context::new(256, 1);
        assert!(ctx.datasets.get().is_none() && ctx.matrix.get().is_none());
        let m = ctx.matrix();
        assert_eq!((m.codecs.len(), m.datasets.len()), (14, ctx.specs.len()));
        assert!(std::ptr::eq(m, ctx.matrix()));
        assert_eq!(ctx.datasets().len(), ctx.specs.len());
    }
}
