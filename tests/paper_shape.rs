//! Integration checks for the paper's headline *shapes* — the qualitative
//! findings the reproduction must preserve (EXPERIMENTS.md records the
//! quantitative side).

use fcbench::core::{Compressor, Domain};
use fcbench::datasets::{catalog, generate};
use fcbench_bench::metrics::harmonic_mean;

const ELEMS: usize = 32_768;

fn ratios_for(codec: &dyn Compressor, domain: Option<Domain>) -> Vec<f64> {
    catalog()
        .iter()
        .filter(|s| domain.is_none_or(|d| s.domain == d))
        .filter_map(|spec| {
            let data = generate(spec, ELEMS);
            codec
                .compress(&data)
                .ok()
                .map(|p| data.bytes().len() as f64 / p.len() as f64)
        })
        .collect()
}

#[test]
fn observation_1_ratios_are_small() {
    // "compression ratios <= 2.0 ... median is 1.16".
    let codec = fcbench::cpu::Gorilla::new();
    let mut all = ratios_for(&codec, None);
    all.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = all[all.len() / 2];
    assert!(
        median > 0.9 && median < 1.6,
        "gorilla median ratio {median} out of the paper's band"
    );
}

#[test]
fn db_domain_is_hardest_for_transform_codecs() {
    // Figure 6a: DB is the most difficult domain (no structural patterns).
    let codec = fcbench::cpu::Bitshuffle::zzip();
    let db = harmonic_mean(&ratios_for(&codec, Some(Domain::Database))).unwrap();
    let obs = harmonic_mean(&ratios_for(&codec, Some(Domain::Observation))).unwrap();
    assert!(
        obs > db,
        "OBS ({obs:.3}) should compress better than DB ({db:.3})"
    );
}

#[test]
fn fpzip_leads_on_hpc_data() {
    // Table 4 / Recommendations: fpzip has the best HPC compression ratio.
    let fpzip = harmonic_mean(&ratios_for(&fcbench::cpu::Fpzip::new(), Some(Domain::Hpc))).unwrap();
    let gorilla = harmonic_mean(&ratios_for(
        &fcbench::cpu::Gorilla::new(),
        Some(Domain::Hpc),
    ))
    .unwrap();
    let gfc = harmonic_mean(&ratios_for(
        &fcbench::gpu::Gfc::default(),
        Some(Domain::Hpc),
    ))
    .unwrap();
    assert!(fpzip > gorilla, "fpzip {fpzip:.3} vs gorilla {gorilla:.3}");
    assert!(fpzip > gfc, "fpzip {fpzip:.3} vs gfc {gfc:.3}");
}

#[test]
fn zstd_class_backend_beats_lz4_overall() {
    // Figure 7a: bitshuffle+zstd 1.466 > bitshuffle+LZ4 1.430.
    let zstd = harmonic_mean(&ratios_for(&fcbench::cpu::Bitshuffle::zzip(), None)).unwrap();
    let lz4 = harmonic_mean(&ratios_for(&fcbench::cpu::Bitshuffle::lz4(), None)).unwrap();
    assert!(
        zstd >= lz4,
        "bitshuffle-zstd {zstd:.3} must match/beat -lz4 {lz4:.3}"
    );
}

#[test]
fn chimp_beats_gorilla_on_db_data() {
    // Analysis under Observation 2: dictionary predictors help Chimp128
    // outperform Gorilla, most visibly on DB data.
    let chimp = harmonic_mean(&ratios_for(
        &fcbench::cpu::Chimp::new(),
        Some(Domain::Database),
    ))
    .unwrap();
    let gorilla = harmonic_mean(&ratios_for(
        &fcbench::cpu::Gorilla::new(),
        Some(Domain::Database),
    ))
    .unwrap();
    assert!(
        chimp > gorilla,
        "chimp {chimp:.3} vs gorilla {gorilla:.3} on DB"
    );
}

#[test]
fn buff_fails_exactly_on_hurricane() {
    // Table 4: BUFF's only HPC failure is hurricane (NaN fill values).
    let buff = fcbench::cpu::Buff::new();
    for spec in catalog().iter().filter(|s| s.domain == Domain::Hpc) {
        let data = generate(spec, 8192);
        let outcome = buff.compress(&data);
        if spec.name == "hurricane" {
            assert!(outcome.is_err(), "hurricane must defeat BUFF");
        } else {
            assert!(outcome.is_ok(), "{} should be BUFF-compressible", spec.name);
        }
    }
}

#[test]
fn gfc_paper_size_gating_matches_table4_dashes() {
    // The GFC dashes in Table 4 are exactly the datasets over 512 MB.
    let expected_failures = [
        "astro-mhd",
        "astro-pt",
        "miranda3d",
        "jane-street",
        "nyc-taxi",
        "gas-price",
        "tpcxBB-store",
        "tpcxBB-web",
        "tpcH-lineitem",
        "g24-78-usb",
        "hdr-palermo",
    ];
    for spec in catalog() {
        let too_big = spec.paper_bytes > 512 * 1024 * 1024;
        assert_eq!(
            too_big,
            expected_failures.contains(&spec.name),
            "{}: paper size {} vs 512MB limit",
            spec.name,
            spec.paper_bytes
        );
    }
}

#[test]
fn astro_mhd_is_the_most_compressible_dataset() {
    // Its 0.97-bit entropy makes astro-mhd every codec's best case
    // (Table 4: ratios 5.9-22.8 there vs <= 4 elsewhere).
    let codec = fcbench::cpu::Spdp::new();
    let mut best: Option<(String, f64)> = None;
    for spec in catalog() {
        let data = generate(&spec, ELEMS);
        if let Ok(p) = codec.compress(&data) {
            let cr = data.bytes().len() as f64 / p.len() as f64;
            if best.as_ref().is_none_or(|(_, b)| cr > *b) {
                best = Some((spec.name.to_string(), cr));
            }
        }
    }
    let (name, cr) = best.unwrap();
    assert_eq!(name, "astro-mhd", "best dataset was {name} at {cr:.2}");
    assert!(cr > 4.0, "astro-mhd should be an outlier, got {cr:.2}");
}

#[test]
fn dimension_info_does_not_change_ratios_significantly() {
    // Observation 6 via Mann-Whitney on fpzip's md vs 1d ratios.
    use fcbench::stats::mann_whitney_u;
    let codec = fcbench::cpu::Fpzip::new();
    let mut md = Vec::new();
    let mut oned = Vec::new();
    for spec in catalog().iter().filter(|s| s.paper_dims.len() >= 2) {
        let data = generate(spec, 16_384);
        let flat = data.flattened_1d();
        if let (Ok(a), Ok(b)) = (codec.compress(&data), codec.compress(&flat)) {
            md.push(data.bytes().len() as f64 / a.len() as f64);
            oned.push(data.bytes().len() as f64 / b.len() as f64);
        }
    }
    assert!(md.len() >= 10, "enough multidimensional datasets");
    let r = mann_whitney_u(&md, &oned);
    assert!(
        !r.rejects_at(0.05),
        "md vs 1d should not differ significantly (p = {})",
        r.p
    );
}
