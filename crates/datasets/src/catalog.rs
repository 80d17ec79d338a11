//! The 33-dataset catalog of Table 3, with the paper's byte sizes,
//! per-element lane entropies, and extents, plus the scaling rule that
//! maps each dataset to a laptop-sized synthetic instance.

use fcbench_core::{Domain, Precision};

/// Statistical family a generator draws from (drives
/// `crate::gen`'s dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// 1-D instrument/simulation traces (msg-bt, num-*).
    HpcTrace,
    /// Smooth multidimensional simulation fields.
    SmoothField,
    /// Mostly-empty field with localized structures (astro-mhd).
    SparseField,
    /// High-entropy particle/turbulence field.
    NoisyField,
    /// Rounded-decimal sensor series (citytemp, gas-price).
    DecimalSeries,
    /// Random-walk sensor table with interleaved channels.
    SensorTable,
    /// High-entropy market table (jane-street).
    MarketTable,
    /// Astronomical image: flat background + point sources.
    AstroImage,
    /// HDR photograph: smooth gradients, low precision.
    HdrImage,
    /// TPC-style transaction columns (prices, quantities, rates).
    TpcTable,
}

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name as printed in the paper.
    pub name: &'static str,
    pub domain: Domain,
    pub precision: Precision,
    /// Original size in bytes (Table 3).
    pub paper_bytes: u64,
    /// Per-element lane entropy reported in Table 3 (bits).
    pub paper_entropy: f64,
    /// Original extent (Table 3), slowest-varying first.
    pub paper_dims: &'static [usize],
    /// Generator family.
    pub family: Family,
}

impl DatasetSpec {
    /// Elements in the original dataset.
    pub(crate) fn paper_elements(&self) -> usize {
        self.paper_dims.iter().product()
    }

    /// Scaled extent holding roughly `target_elems` elements while
    /// preserving the dimensional structure:
    /// tables keep their column count; grids shrink isotropically.
    pub fn scaled_dims(&self, target_elems: usize) -> Vec<usize> {
        let total = self.paper_elements();
        if total <= target_elems {
            return self.paper_dims.to_vec();
        }
        match self.paper_dims.len() {
            1 => vec![target_elems.max(1)],
            2 => {
                let cols = self.paper_dims[1];
                if cols <= 256 {
                    // A table: keep columns, scale rows.
                    vec![(target_elems / cols).max(1), cols]
                } else {
                    // An image: isotropic shrink.
                    let ratio = (target_elems as f64 / total as f64).sqrt();
                    let h = ((self.paper_dims[0] as f64 * ratio) as usize).max(8);
                    let w = ((self.paper_dims[1] as f64 * ratio) as usize).max(8);
                    vec![h, w]
                }
            }
            _ => {
                let ratio = (target_elems as f64 / total as f64).cbrt();
                self.paper_dims
                    .iter()
                    .map(|&d| ((d as f64 * ratio) as usize).max(4))
                    .collect()
            }
        }
    }
}

/// All 33 datasets of Table 3, in the paper's order.
pub fn catalog() -> Vec<DatasetSpec> {
    use Domain::*;
    use Family::*;
    use Precision::*;
    vec![
        DatasetSpec {
            name: "msg-bt",
            domain: Hpc,
            precision: Double,
            paper_bytes: 266_389_432,
            paper_entropy: 23.67,
            paper_dims: &[33_298_679],
            family: HpcTrace,
        },
        DatasetSpec {
            name: "num-brain",
            domain: Hpc,
            precision: Double,
            paper_bytes: 141_840_000,
            paper_entropy: 23.97,
            paper_dims: &[17_730_000],
            family: HpcTrace,
        },
        DatasetSpec {
            name: "num-control",
            domain: Hpc,
            precision: Double,
            paper_bytes: 159_504_744,
            paper_entropy: 24.14,
            paper_dims: &[19_938_093],
            family: HpcTrace,
        },
        DatasetSpec {
            name: "rsim",
            domain: Hpc,
            precision: Single,
            paper_bytes: 94_281_728,
            paper_entropy: 18.50,
            paper_dims: &[2048, 11_509],
            family: SmoothField,
        },
        DatasetSpec {
            name: "astro-mhd",
            domain: Hpc,
            precision: Double,
            paper_bytes: 548_458_560,
            paper_entropy: 0.97,
            paper_dims: &[130, 514, 1026],
            family: SparseField,
        },
        DatasetSpec {
            name: "astro-pt",
            domain: Hpc,
            precision: Double,
            paper_bytes: 671_088_640,
            paper_entropy: 26.32,
            paper_dims: &[512, 256, 640],
            family: NoisyField,
        },
        DatasetSpec {
            name: "miranda3d",
            domain: Hpc,
            precision: Single,
            paper_bytes: 4_294_967_296,
            paper_entropy: 23.08,
            paper_dims: &[1024, 1024, 1024],
            family: SmoothField,
        },
        DatasetSpec {
            name: "turbulence",
            domain: Hpc,
            precision: Single,
            paper_bytes: 67_108_864,
            paper_entropy: 23.73,
            paper_dims: &[256, 256, 256],
            family: NoisyField,
        },
        DatasetSpec {
            name: "wave",
            domain: Hpc,
            precision: Single,
            paper_bytes: 536_870_912,
            paper_entropy: 25.27,
            paper_dims: &[512, 512, 512],
            family: NoisyField,
        },
        DatasetSpec {
            name: "hurricane",
            domain: Hpc,
            precision: Single,
            paper_bytes: 100_000_000,
            paper_entropy: 23.54,
            paper_dims: &[100, 500, 500],
            family: SmoothField,
        },
        DatasetSpec {
            name: "citytemp",
            domain: TimeSeries,
            precision: Single,
            paper_bytes: 11_625_304,
            paper_entropy: 9.43,
            paper_dims: &[2_906_326],
            family: DecimalSeries,
        },
        DatasetSpec {
            name: "ts-gas",
            domain: TimeSeries,
            precision: Single,
            paper_bytes: 307_452_800,
            paper_entropy: 13.94,
            paper_dims: &[76_863_200],
            family: DecimalSeries,
        },
        DatasetSpec {
            name: "phone-gyro",
            domain: TimeSeries,
            precision: Double,
            paper_bytes: 334_383_168,
            paper_entropy: 14.77,
            paper_dims: &[13_932_632, 3],
            family: SensorTable,
        },
        DatasetSpec {
            name: "wesad-chest",
            domain: TimeSeries,
            precision: Double,
            paper_bytes: 272_339_200,
            paper_entropy: 13.85,
            paper_dims: &[4_255_300, 8],
            family: SensorTable,
        },
        DatasetSpec {
            name: "jane-street",
            domain: TimeSeries,
            precision: Double,
            paper_bytes: 1_810_997_760,
            paper_entropy: 26.07,
            paper_dims: &[1_664_520, 136],
            family: MarketTable,
        },
        DatasetSpec {
            name: "nyc-taxi",
            domain: TimeSeries,
            precision: Double,
            paper_bytes: 713_711_376,
            paper_entropy: 13.17,
            paper_dims: &[12_744_846, 7],
            family: SensorTable,
        },
        DatasetSpec {
            name: "gas-price",
            domain: TimeSeries,
            precision: Double,
            paper_bytes: 886_619_664,
            paper_entropy: 8.66,
            paper_dims: &[36_942_486, 3],
            family: DecimalSeries,
        },
        DatasetSpec {
            name: "solar-wind",
            domain: TimeSeries,
            precision: Single,
            paper_bytes: 423_980_536,
            paper_entropy: 14.06,
            paper_dims: &[7_571_081, 14],
            family: SensorTable,
        },
        DatasetSpec {
            name: "acs-wht",
            domain: Observation,
            precision: Single,
            paper_bytes: 225_000_000,
            paper_entropy: 20.13,
            paper_dims: &[7500, 7500],
            family: AstroImage,
        },
        DatasetSpec {
            name: "hdr-night",
            domain: Observation,
            precision: Single,
            paper_bytes: 536_870_912,
            paper_entropy: 9.03,
            paper_dims: &[8192, 16_384],
            family: HdrImage,
        },
        DatasetSpec {
            name: "hdr-palermo",
            domain: Observation,
            precision: Single,
            paper_bytes: 843_454_592,
            paper_entropy: 9.34,
            paper_dims: &[10_268, 20_536],
            family: HdrImage,
        },
        DatasetSpec {
            name: "hst-wfc3-uvis",
            domain: Observation,
            precision: Single,
            paper_bytes: 108_924_760,
            paper_entropy: 15.61,
            paper_dims: &[5329, 5110],
            family: AstroImage,
        },
        DatasetSpec {
            name: "hst-wfc3-ir",
            domain: Observation,
            precision: Single,
            paper_bytes: 24_015_312,
            paper_entropy: 15.04,
            paper_dims: &[2484, 2417],
            family: AstroImage,
        },
        DatasetSpec {
            name: "spitzer-irac",
            domain: Observation,
            precision: Single,
            paper_bytes: 164_989_536,
            paper_entropy: 20.54,
            paper_dims: &[6456, 6389],
            family: AstroImage,
        },
        DatasetSpec {
            name: "g24-78-usb",
            domain: Observation,
            precision: Single,
            paper_bytes: 1_335_668_264,
            paper_entropy: 26.02,
            paper_dims: &[2426, 371, 371],
            family: NoisyField,
        },
        DatasetSpec {
            name: "jws-mirimage",
            domain: Observation,
            precision: Single,
            paper_bytes: 169_082_880,
            paper_entropy: 23.16,
            paper_dims: &[40, 1024, 1032],
            family: NoisyField,
        },
        DatasetSpec {
            name: "tpcH-order",
            domain: Database,
            precision: Double,
            paper_bytes: 120_000_000,
            paper_entropy: 23.40,
            paper_dims: &[15_000_000],
            family: TpcTable,
        },
        DatasetSpec {
            name: "tpcxBB-store",
            domain: Database,
            precision: Double,
            paper_bytes: 789_920_928,
            paper_entropy: 16.73,
            paper_dims: &[8_228_343, 12],
            family: TpcTable,
        },
        DatasetSpec {
            name: "tpcxBB-web",
            domain: Database,
            precision: Double,
            paper_bytes: 986_782_680,
            paper_entropy: 17.64,
            paper_dims: &[8_223_189, 15],
            family: TpcTable,
        },
        DatasetSpec {
            name: "tpcH-lineitem",
            domain: Database,
            precision: Single,
            paper_bytes: 959_776_816,
            paper_entropy: 8.87,
            paper_dims: &[59_986_051, 4],
            family: TpcTable,
        },
        DatasetSpec {
            name: "tpcDS-catalog",
            domain: Database,
            precision: Single,
            paper_bytes: 172_803_480,
            paper_entropy: 17.34,
            paper_dims: &[2_880_058, 15],
            family: TpcTable,
        },
        DatasetSpec {
            name: "tpcDS-store",
            domain: Database,
            precision: Single,
            paper_bytes: 276_515_952,
            paper_entropy: 15.17,
            paper_dims: &[5_760_749, 12],
            family: TpcTable,
        },
        DatasetSpec {
            name: "tpcDS-web",
            domain: Database,
            precision: Single,
            paper_bytes: 86_354_820,
            paper_entropy: 17.33,
            paper_dims: &[1_439_247, 15],
            family: TpcTable,
        },
    ]
}

/// Look up a dataset by name.
pub fn find(name: &str) -> Option<DatasetSpec> {
    catalog().into_iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_33_rows() {
        assert_eq!(catalog().len(), 33);
    }

    #[test]
    fn domain_counts_match_table3() {
        let cat = catalog();
        let count = |d: Domain| cat.iter().filter(|s| s.domain == d).count();
        assert_eq!(count(Domain::Hpc), 10);
        assert_eq!(count(Domain::TimeSeries), 8);
        assert_eq!(count(Domain::Observation), 8);
        assert_eq!(count(Domain::Database), 7);
    }

    #[test]
    fn sizes_are_consistent_with_extents() {
        for spec in catalog() {
            let implied = spec.paper_elements() as u64 * spec.precision.bytes() as u64;
            assert_eq!(
                implied, spec.paper_bytes,
                "{}: extent x element size must equal Table 3 bytes",
                spec.name
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let cat = catalog();
        let mut names: Vec<&str> = cat.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 33);
    }

    #[test]
    fn find_works() {
        assert!(find("msg-bt").is_some());
        assert!(find("jane-street").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn scaling_preserves_structure() {
        let spec = find("astro-mhd").unwrap();
        let dims = spec.scaled_dims(250_000);
        assert_eq!(dims.len(), 3);
        let total: usize = dims.iter().product();
        assert!((100_000..=400_000).contains(&total), "total {total}");

        let table = find("jane-street").unwrap();
        let dims = table.scaled_dims(250_000);
        assert_eq!(dims[1], 136, "tables keep their column count");

        let image = find("acs-wht").unwrap();
        let dims = image.scaled_dims(250_000);
        assert_eq!(dims.len(), 2);
        // Aspect ratio preserved (square stays square).
        let ratio = dims[0] as f64 / dims[1] as f64;
        assert!((ratio - 1.0).abs() < 0.05);
    }

    #[test]
    fn scaling_never_upscales() {
        for spec in catalog() {
            let dims = spec.scaled_dims(1 << 40);
            assert_eq!(dims, spec.paper_dims.to_vec());
        }
    }
}
