//! Inputs from the seed. The program's generators take no seed, so the
//! seed picks a *rotation*: each generated dataset is rotated by a whole
//! number of rows of its slowest dimension. Every seed therefore gives
//! different bytes (a different fingerprint) of the same values, and the
//! compression ratio and speed move only by what one seam and shifted
//! block boundaries can move them.

use crate::harness::Inputs;
use crate::trace::Tracer;
use fcbench_core::stream::Crc32;
use fcbench_core::FloatData;

/// SplitMix64: the seed's only consumer.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Generates datasets, rotates them by the seed, and keeps the running
/// fingerprint and generation time of everything it produced.
pub struct Corpus {
    rng: Rng,
    crc: Crc32,
    inputs: Inputs,
}

impl Corpus {
    pub fn new(seed: u64) -> Corpus {
        Corpus {
            rng: Rng::new(seed),
            crc: Crc32::new(),
            inputs: Inputs::default(),
        }
    }

    /// `name` at roughly `elems` elements, rotated by a seed-chosen number
    /// of rows.
    pub fn dataset(
        &mut self,
        name: &'static str,
        elems: usize,
        tracer: &mut Tracer,
    ) -> Result<FloatData, String> {
        let spec = fcbench_datasets::find(name).ok_or_else(|| format!("no dataset {name}"))?;
        let (data, secs) = tracer.time("datasets", "generate", name, 0, || {
            fcbench_datasets::generate(&spec, elems)
        });
        self.inputs.generate_s += secs;
        let desc = data.desc().clone();
        let rows = desc.dims.first().copied().unwrap_or(1).max(1);
        let mut bytes = data.into_bytes();
        let row_bytes = bytes.len() / rows;
        bytes.rotate_left(self.rng.below(rows) * row_bytes);
        self.crc.update(&bytes);
        self.inputs.bytes += bytes.len() as u64;
        FloatData::from_bytes(desc, bytes).map_err(|e| e.to_string())
    }

    /// The seed's random stream, continued past the rotations.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    pub fn inputs(&self) -> Inputs {
        Inputs {
            fingerprint: self.crc.finish(),
            ..self.inputs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn load(seed: u64) -> (FloatData, Inputs) {
        let mut c = Corpus::new(seed);
        let d = c
            .dataset("citytemp", 4096, &mut Tracer::new(Instant::now()))
            .unwrap();
        (d, c.inputs())
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes_same_values() {
        let (a, ia) = load(7);
        let (b, ib) = load(7);
        let (c, ic) = load(8);
        assert_eq!(a.bytes(), b.bytes());
        assert_eq!(ia.fingerprint, ib.fingerprint);
        assert_ne!(a.bytes(), c.bytes());
        assert_ne!(ia.fingerprint, ic.fingerprint);
        assert_eq!(ia.bytes, a.bytes().len() as u64);
        assert!(ia.generate_s > 0.0);
        // A rotation keeps the multiset of values.
        let sorted = |d: &FloatData| {
            let mut v = d.as_u32_words().unwrap();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&a), sorted(&c));
    }

    #[test]
    fn shuffle_is_a_permutation_and_seeded() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(3).shuffle(&mut a);
        Rng::new(3).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..50).collect::<Vec<u32>>());
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<u32>>());
    }
}
