//! One module per reproduced table/figure; each returns a printable block.

pub mod ablations;
pub mod blocks_exp;
pub mod dimensions;
pub mod dzip_exp;
pub mod memory;
pub mod query;
pub mod ratios;
pub mod roofline_exp;
pub mod scaling_exp;
pub mod throughput;

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
