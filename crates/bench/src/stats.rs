//! The statistical toolkit behind the paper's fairness machinery (§2.4,
//! §5.4, §6.1.5):
//!
//! - [`friedman_test`] — the Friedman test (χ² and Iman–Davenport F)
//!   deciding whether all 13 compressors are equivalent over the 33
//!   datasets;
//! - `critical_difference` and [`cd_diagram`] — post-hoc critical
//!   differences and the Figure 7b CD diagram with cliques;
//! - [`mann_whitney_u`] — the Mann–Whitney U test for the Table 9
//!   multi-dimensional vs 1-D experiment;
//! - [`average_ranks`] and [`rank_row`] — tie-averaged ranking;
//!
//! all on the same special functions (log-gamma, regularized incomplete
//! gamma/beta, normal/χ²/F distributions).
//!
//! Its five modules sit at the crate root (`dist`, `friedman`, …), keeping
//! the paths, unit tests included, they had as a crate of their own.

pub use crate::friedman::{friedman_test, FriedmanResult};
pub use crate::mannwhitney::{mann_whitney_u, MannWhitneyResult};
pub use crate::nemenyi::{cd_diagram, CdDiagram, CdEntry};
pub use crate::ranks::{average_ranks, rank_row};
