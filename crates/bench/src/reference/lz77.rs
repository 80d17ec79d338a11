//! `fcbench_entropy::lz77` before its kernels were rewritten, verbatim:
//! the optimized module must find exactly these matches (same probe order,
//! depth budget and acceptance heuristics) and accept exactly these inputs.

use fcbench_entropy::lz77::{Lz77Config, Lz77Error};

// Copies of the entropy module's private constants and hash functions, so
// the oracle shares no code with what it checks.
const MIN_MATCH: usize = 4;
const MAX_WINDOW: usize = (1 << 24) - 1;
const HASH_LOG: u32 = 16;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    hash_key(load_key(data, i))
}

#[inline]
fn hash_key(key: u32) -> usize {
    (key.wrapping_mul(2654435761) >> (32 - HASH_LOG)) as usize
}

#[inline]
fn load_key(data: &[u8], i: usize) -> u32 {
    match data.get(i..).and_then(|t| t.first_chunk::<4>()) {
        Some(w) => u32::from_le_bytes(*w),
        None => 0,
    }
}

/// Byte-granular compressor: per-item heap buffers, one-byte-at-a-time
/// match extension, chain tables allocated fresh per call.
pub fn compress(input: &[u8], cfg: Lz77Config) -> Vec<u8> {
    assert!(cfg.window >= MIN_MATCH && cfg.window <= MAX_WINDOW);
    let offset_bytes: usize = if cfg.window <= u16::MAX as usize {
        2
    } else {
        3
    };
    let n = input.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    out.push(offset_bytes as u8);

    // Pending group of up to 8 items sharing one control byte.
    struct GroupBuf {
        control: u8,
        nitems: u32,
        bytes: Vec<u8>,
    }
    impl GroupBuf {
        fn push(&mut self, is_match: bool, item: &[u8], out: &mut Vec<u8>) {
            if is_match {
                self.control |= 1 << self.nitems;
            }
            self.bytes.extend_from_slice(item);
            self.nitems += 1;
            if self.nitems == 8 {
                self.flush(out);
            }
        }
        fn flush(&mut self, out: &mut Vec<u8>) {
            if self.nitems > 0 {
                out.push(self.control);
                out.extend_from_slice(&self.bytes);
                self.control = 0;
                self.nitems = 0;
                self.bytes.clear();
            }
        }
    }
    let mut pending = GroupBuf {
        control: 0,
        nitems: 0,
        bytes: Vec::with_capacity(8 * 6),
    };

    // head[h] = most recent position+1 with hash h; prev[i % window] = chain.
    let mut head = vec![0u32; 1 << HASH_LOG];
    let mut prev = vec![0u32; cfg.window];

    let mut i = 0usize;
    while i < n {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;

        if i + MIN_MATCH <= n {
            let h = hash4(input, i);
            let mut candidate = head[h] as usize;
            let mut depth = cfg.chain_depth;
            let max_len = n - i;
            while candidate != 0 && depth > 0 {
                let c = candidate - 1;
                let dist = i - c;
                if dist > cfg.window {
                    break;
                }
                // Quick check on the byte past the current best.
                if best_len == 0 || input.get(c + best_len) == input.get(i + best_len) {
                    let mut l = 0usize;
                    while l < max_len && input[c + l] == input[i + l] {
                        l += 1;
                    }
                    if l >= MIN_MATCH && l > best_len {
                        best_len = l;
                        best_dist = dist;
                        if l >= max_len {
                            break;
                        }
                    }
                }
                candidate = prev[c % cfg.window] as usize;
                depth -= 1;
            }
            // Insert current position into the chain.
            prev[i % cfg.window] = head[h];
            head[h] = (i + 1) as u32;
        }

        if best_len >= MIN_MATCH {
            let mut item = Vec::with_capacity(6);
            item.extend_from_slice(&(best_dist as u32).to_le_bytes()[..offset_bytes]);
            let code_len = best_len - MIN_MATCH;
            if code_len < 255 {
                item.push(code_len as u8);
            } else {
                item.push(255);
                let ext = (code_len - 255).min(u16::MAX as usize);
                item.extend_from_slice(&(ext as u16).to_le_bytes());
            }
            let actual_len = if code_len < 255 {
                best_len
            } else {
                MIN_MATCH + 255 + (code_len - 255).min(u16::MAX as usize)
            };
            pending.push(true, &item, &mut out);

            // Insert skipped positions into the chain (sparsely for speed).
            let end = i + actual_len;
            let mut j = i + 1;
            while j < end && j + MIN_MATCH <= n {
                let h = hash4(input, j);
                prev[j % cfg.window] = head[h];
                head[h] = (j + 1) as u32;
                j += 1.max(actual_len / 16);
            }
            i = end;
        } else {
            pending.push(false, &[input[i]], &mut out);
            i += 1;
        }
    }
    pending.flush(&mut out);
    out
}

/// Byte-granular decompressor: one output byte per loop iteration.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, Lz77Error> {
    let mut out = Vec::with_capacity(expected_len);
    let offset_bytes = *input
        .first()
        .ok_or_else(|| Lz77Error("missing format header".into()))? as usize;
    if offset_bytes != 2 && offset_bytes != 3 {
        return Err(Lz77Error(format!("bad offset width {offset_bytes}")));
    }
    let mut pos = 1usize;

    while out.len() < expected_len {
        let control = *input
            .get(pos)
            .ok_or_else(|| Lz77Error("truncated control byte".into()))?;
        pos += 1;
        for bit in 0..8 {
            if out.len() >= expected_len {
                break;
            }
            if control & (1 << bit) == 0 {
                let b = *input
                    .get(pos)
                    .ok_or_else(|| Lz77Error("truncated literal".into()))?;
                out.push(b);
                pos += 1;
            } else {
                if pos + offset_bytes + 1 > input.len() {
                    return Err(Lz77Error("truncated match".into()));
                }
                let mut le = [0u8; 4];
                le[..offset_bytes].copy_from_slice(&input[pos..pos + offset_bytes]);
                let dist = u32::from_le_bytes(le) as usize;
                let mut len_code = input[pos + offset_bytes] as usize;
                pos += offset_bytes + 1;
                let len = if len_code == 255 {
                    if pos + 2 > input.len() {
                        return Err(Lz77Error("truncated length extension".into()));
                    }
                    let ext = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
                    pos += 2;
                    len_code = 255 + ext;
                    MIN_MATCH + len_code
                } else {
                    MIN_MATCH + len_code
                };
                if dist == 0 || dist > out.len() {
                    return Err(Lz77Error(format!(
                        "match distance {dist} invalid at output length {}",
                        out.len()
                    )));
                }
                if out.len() + len > expected_len {
                    return Err(Lz77Error("match overruns expected length".into()));
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::{hash_key, Lz77Config};
    use fcbench_entropy::lz77::{compress, decompress};

    // ---- differential tests: the optimized module against this one ----

    fn assert_identical(data: &[u8], cfg: Lz77Config) {
        let fast = compress(data, cfg);
        let slow = super::compress(data, cfg);
        assert_eq!(
            fast,
            slow,
            "compressed stream diverged from reference ({} bytes, window {})",
            data.len(),
            cfg.window
        );
        let d_fast = decompress(&fast, data.len()).expect("fast decompress");
        let d_slow = super::decompress(&fast, data.len()).expect("reference decompress");
        assert_eq!(d_fast, d_slow);
        assert_eq!(d_fast, data);
    }

    /// Patterned generator exercising literals, short matches, long runs,
    /// and near-boundary repeats for a given length.
    fn patterned(n: usize, seed: u32) -> Vec<u8> {
        let mut x = seed | 1;
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            match x % 4 {
                0 => data.push((x >> 8) as u8),
                1 => {
                    let run = 1 + (x as usize >> 16) % 40;
                    data.extend(std::iter::repeat_n((x >> 24) as u8, run));
                }
                2 if !data.is_empty() => {
                    let dist = 1 + (x as usize >> 12) % data.len();
                    let len = 1 + (x as usize >> 20) % 30;
                    let start = data.len() - dist;
                    for k in 0..len {
                        let b = data[start + (k % dist)];
                        data.push(b);
                    }
                }
                _ => data.extend_from_slice(&(x as f32).to_le_bytes()),
            }
        }
        data.truncate(n);
        data
    }

    #[test]
    fn exhaustive_small_sizes_match_reference() {
        // Every length through several group boundaries, three seeds each,
        // both offset widths.
        for n in 0..=96usize {
            for seed in [1u32, 0xDEAD, 0xBEEF7] {
                let data = patterned(n, seed.wrapping_add(n as u32));
                assert_identical(&data, Lz77Config::fast());
                assert_identical(&data, Lz77Config::thorough());
            }
        }
    }

    #[test]
    fn tiny_window_matches_reference() {
        // Small windows hit the dist > window chain break and the
        // prev-slot aliasing path (positions beyond one window wrap).
        for window in [4usize, 16, 64, 100] {
            let cfg = Lz77Config {
                window,
                chain_depth: 8,
            };
            for seed in [3u32, 0xACE] {
                let data = patterned(window * 5 + 7, seed);
                assert_identical(&data, cfg);
            }
        }
    }

    #[test]
    fn long_match_extension_matches_reference() {
        // Matches beyond 258 force the u16 length extension and the
        // sparse chain-insertion stride.
        let mut data = vec![7u8; 70_000];
        data[0] = 1;
        for (i, b) in data.iter_mut().enumerate().skip(40_000).take(300) {
            *b = (i % 251) as u8;
        }
        assert_identical(&data, Lz77Config::fast());
        assert_identical(&data, Lz77Config::thorough());
    }

    #[test]
    fn scratch_reuse_across_configs_matches_reference() {
        // Interleave configs on one thread: thread-local chain tables must
        // not leak state between calls with different windows.
        let a = patterned(20_000, 11);
        let b = patterned(5_000, 99);
        assert_identical(&a, Lz77Config::thorough());
        assert_identical(&b, Lz77Config::fast());
        assert_identical(
            &a,
            Lz77Config {
                window: 64,
                chain_depth: 4,
            },
        );
        assert_identical(&b, Lz77Config::thorough());
    }

    // ---- the key filter's edges: chain shapes, depth budgets, windows ----

    /// `n` xorshift bytes: filler that almost never repeats a 4-byte key.
    fn noise(x: &mut u32, n: usize, data: &mut Vec<u8>) {
        for _ in 0..n {
            *x ^= *x << 13;
            *x ^= *x >> 17;
            *x ^= *x << 5;
            data.push((*x >> 11) as u8);
        }
    }

    /// One chain, built to order: per link a 4-byte key (`true`: the probed
    /// key, `false`: another key with the same hash) and a share of a
    /// common tail, so hits extend to different lengths, then `gap` filler
    /// bytes; last, the probed key and the whole tail.
    fn chain_input(links: &[bool], gap: usize) -> Vec<u8> {
        const TAIL: &[u8] = b"0123456789abcdef";
        let key = 0x5EED_C0DEu32;
        let other = (1u32..)
            .map(|d| key.wrapping_add(d))
            .find(|&k| hash_key(k) == hash_key(key))
            .expect("a colliding key");
        let mut x = 0x2545_F491;
        let mut data = Vec::new();
        noise(&mut x, gap, &mut data);
        for (k, &hit) in links.iter().enumerate() {
            data.extend_from_slice(&if hit { key } else { other }.to_le_bytes());
            data.extend_from_slice(&TAIL[..(5 * k) % TAIL.len()]);
            noise(&mut x, gap, &mut data);
        }
        data.extend_from_slice(&key.to_le_bytes());
        data.extend_from_slice(TAIL);
        data
    }

    #[test]
    fn chain_shapes_match_reference() {
        // Chains of 0 to 5 links with every hit/collision pattern (a hit
        // on link 1, 2, 3 or deeper), spaced so small windows cut them
        // after any link, under every depth budget the filter special-cases
        // and two it does not; 100 is a non-power-of-two window.
        for n_links in 0..=5usize {
            for pattern in 0..1u32 << n_links {
                let links: Vec<bool> = (0..n_links).map(|k| pattern >> k & 1 == 1).collect();
                for gap in [3usize, 40] {
                    let data = chain_input(&links, gap);
                    for window in [16usize, 100, 1 << 16] {
                        for chain_depth in [0usize, 1, 2, 3, 8, 128] {
                            assert_identical(
                                &data,
                                Lz77Config {
                                    window,
                                    chain_depth,
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn repeat_at_the_window_edge_matches_reference() {
        // A 64-byte repeat at distance window - 1 and window is a match;
        // at window + 1 it is out of reach. The candidate at exactly
        // `window` shares the probed position's chain slot.
        let cfg = Lz77Config::fast();
        for dist in [cfg.window - 1, cfg.window, cfg.window + 1] {
            let mut x = 7;
            let mut data = Vec::new();
            noise(&mut x, dist, &mut data);
            data.extend_from_within(..64);
            noise(&mut x, 32, &mut data);
            assert_identical(&data, cfg);
            let all_literal = 1 + data.len() + data.len().div_ceil(8);
            let matched = compress(&data, cfg).len() + 40 < all_literal;
            assert_eq!(matched, dist <= cfg.window, "distance {dist}");
        }
    }
}
