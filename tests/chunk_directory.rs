//! Hostile chunk directories against the nine chunk-parallel rows.
//!
//! Every parallel codec stores its chunks behind a directory that all nine
//! now read through `fcbench_core::wire::Cursor`, so one loop covers them:
//! compress a real block, then substitute {0, 1, value±1, `u32::MAX`,
//! `u64::MAX`} into every header and directory field and truncate at every
//! header byte. Each decode must end in a typed error or the byte-exact
//! input — never a panic, never more output than the descriptor holds.
//! These mutated streams are the seed corpus a structure-aware fuzzer
//! (ROADMAP item 6a) starts from.

use fcbench::core::{DataDesc, Domain, Error, FloatData, Precision};
use fcbench::cpu::common::load_le;
use fcbench::datasets::{find, generate};
use fcbench_bench::codecs::full_registry;

/// `(row, widths of the fixed header fields, which of them is the chunk
/// count, width of a directory entry, widths of the fields after the
/// directory)` — DESIGN.md's "Chunked payloads" table, as data.
type Layout = (
    &'static str,
    &'static [usize],
    usize,
    usize,
    &'static [usize],
);
const LAYOUTS: [Layout; 9] = [
    ("pfpc", &[8, 4, 1], 1, 4, &[]), // nwords | nchunks | tail_len | sizes
    ("bitshuffle-lz4", &[4], 0, 4, &[]),
    ("bitshuffle-zstd", &[4], 0, 4, &[]),
    ("ndzip-cpu", &[4], 0, 4, &[]),
    ("gfc", &[8, 4, 1], 1, 4, &[]),
    ("mpc", &[4, 1], 0, 4, &[]), // nchunks | stride | sizes
    ("nvcomp-lz4", &[4], 0, 4, &[]),
    ("nvcomp-bitcomp", &[4], 0, 4, &[]),
    ("ndzip-gpu", &[4], 0, 8, &[8]), // ncubes | offsets | body_len
];

#[test]
fn every_directory_mutation_ends_typed_or_exact() {
    let registry = full_registry();
    let data = generate(&find("msg-bt").expect("catalogued dataset"), 20_000);
    for (name, fixed, count_at, entry, after) in LAYOUTS {
        let codec = registry.get(name).expect("registered codec");
        let payload = codec.compress(&data).expect("compress");

        // (offset, width) of every header and directory field.
        let at: usize = fixed[..count_at].iter().sum();
        let count = load_le(&payload[at..at + fixed[count_at]]) as usize;
        assert!(
            count >= 2,
            "{name}: {count} chunks do not exercise a directory"
        );
        let entries = std::iter::repeat_n(entry, count);
        let widths = fixed
            .iter()
            .copied()
            .chain(entries)
            .chain(after.iter().copied());
        let mut end = 0;
        let fields: Vec<(usize, usize)> = widths
            .map(|w| {
                end += w;
                (end - w, w)
            })
            .collect();

        let check = |bytes: &[u8], what: String, must_be_exact: bool| {
            let mut out = FloatData::scratch();
            match codec.decompress_into(bytes, data.desc(), &mut out) {
                Err(Error::Corrupt(_) | Error::BadDescriptor(_)) => {}
                Err(e) => panic!("{name}, {what}: unexpected error kind {e:?}"),
                Ok(()) if must_be_exact => {
                    assert!(
                        out.bytes() == data.bytes(),
                        "{name}, {what}: wrong bytes accepted"
                    )
                }
                Ok(()) => assert_eq!(out.bytes().len(), data.bytes().len()),
            }
            let grown = out.into_bytes().capacity();
            assert!(
                grown <= 2 * data.bytes().len(),
                "{name}, {what}: output buffer grew to {grown} bytes"
            );
        };
        check(&payload, "the valid stream".into(), true);
        for cut in 0..end {
            check(&payload[..cut], format!("cut at byte {cut}"), true);
        }
        for &(at, w) in &fields {
            // mpc's stride parameterises the chunk kernel rather than
            // framing it: a wrong one decodes to wrong values of the right
            // size, which only a checksum above the codec can see.
            let framing = (name, at) != ("mpc", 4);
            let v = load_le(&payload[at..at + w]);
            for sub in [
                0,
                1,
                v.wrapping_sub(1),
                v.wrapping_add(1),
                u32::MAX.into(),
                u64::MAX,
            ] {
                let mut bad = payload.clone();
                bad[at..at + w].copy_from_slice(&sub.to_le_bytes()[..w]);
                check(&bad, format!("{w}-byte field at {at} = {sub:#x}"), framing);
            }
        }
    }
}

/// The two payloads that panicked `ndzip-gpu` before its offsets went
/// through the shared slicer: an offset past the body, and a body length
/// whose sum with the cursor position overflows.
#[test]
fn ndzip_gpu_offsets_outside_the_body_are_corrupt_not_panics() {
    let codec = full_registry().get("ndzip-gpu").expect("registered codec");
    let desc = DataDesc::new(Precision::Single, vec![8192], Domain::Hpc).unwrap();
    for (second_offset, body_len) in [(100u64, 10u64), (0, u64::MAX)] {
        let mut payload = 2u32.to_le_bytes().to_vec();
        for field in [0, second_offset, body_len] {
            payload.extend_from_slice(&field.to_le_bytes());
        }
        payload.extend_from_slice(&[0; 10]);
        assert_eq!(payload.len(), 38);
        let mut out = FloatData::scratch();
        let err = codec
            .decompress_into(&payload, &desc, &mut out)
            .unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    }
}
