//! One module per reproduced table/figure; each returns a printable block.

mod ablations;
mod blocks_exp;
mod dimensions;
mod dzip_exp;
mod memory;
mod query;
mod ratios;
mod roofline_exp;
mod scaling_exp;
mod throughput;

pub use ablations::ablations;
pub use blocks_exp::table10;
pub use dimensions::table9;
pub use dzip_exp::dzip_experiment;
pub use memory::fig10;
pub use query::{table11, time_container};
pub use ratios::{fig5, fig6, fig7, table4};
pub use roofline_exp::fig11;
pub use scaling_exp::tables7_8;
pub use throughput::{fig9, table5, table6};
