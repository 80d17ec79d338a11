//! Sliding-window LZ77 with hash-chain matching (Ziv & Lempel 1977).
//!
//! This is the configurable-window dictionary coder behind SPDP's `LZa6`
//! reducer component (§3.2) and the match stage of [`crate::zzip`]. Deeper
//! chain search and larger windows raise the compression ratio at the cost
//! of throughput — exactly the trade-off the paper calls out for SPDP.
//!
//! Serialized format: a 1-byte header holding the offset width (2 for
//! windows of at most `u16::MAX` = 65 535 bytes, else 3), then groups of
//! up to 8 items, each preceded by a control byte whose bit *i*
//! (LSB-first) marks item *i* as a match. A literal item is one byte. A
//! match item is a little-endian offset (1-based distance) followed by a
//! length byte: values 0..=254 encode lengths `4..=258`; 255 is followed
//! by a little-endian u16 extension. The 64 KiB (`1 << 16`) windows of
//! [`Lz77Config::fast`] and of bitshuffle-zstd are one byte past the
//! narrow mode, so both write 3-byte offsets; the payload bytes are
//! frozen, so they stay that way.
//!
//! The compressor finds exactly the matches of the retained
//! [`reference`](mod@reference) implementation (same probe order, same
//! depth budget, same acceptance heuristics). It judges the first two
//! chain links without a branch — a candidate whose first four bytes
//! differ can never become a match — and walks the chain only where a
//! match is possible or the chain runs on. It extends candidate matches a
//! u64 word at a time, emits items through fixed stack buffers instead of
//! per-item heap allocations, and reuses the chain tables across calls on
//! the same thread. The decompressor copies matches with bulk slice
//! operations. Both directions are byte-identical to the reference —
//! proven by the differential tests below and the proptests in
//! `tests/proptests.rs`.

use std::cell::RefCell;

/// Minimum match length.
pub(crate) const MIN_MATCH: usize = 4;
/// Maximum supported window (3-byte offsets).
pub(crate) const MAX_WINDOW: usize = (1 << 24) - 1;

/// Matching effort configuration.
#[derive(Debug, Clone, Copy)]
pub struct Lz77Config {
    /// Sliding-window size in bytes (max `MAX_WINDOW`).
    pub window: usize,
    /// Maximum hash-chain positions probed per input position.
    pub chain_depth: usize,
}

impl Lz77Config {
    /// SPDP-style: 64 KiB window, shallow search (fast).
    pub fn fast() -> Self {
        Lz77Config {
            window: 1 << 16,
            chain_depth: 8,
        }
    }

    /// zzip-style: 1 MiB window, deeper search (better ratio).
    pub fn thorough() -> Self {
        Lz77Config {
            window: 1 << 20,
            chain_depth: 64,
        }
    }
}

const HASH_LOG: u32 = 16;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    hash_key(load_key(data, i))
}

/// Chain-head index of a 4-byte little-endian key.
#[inline]
fn hash_key(key: u32) -> usize {
    (key.wrapping_mul(2654435761) >> (32 - HASH_LOG)) as usize
}

/// The byte-granular implementation this module's kernels replaced.
///
/// Retained verbatim so differential tests can prove the optimized
/// compressor emits byte-identical streams and the optimized decompressor
/// accepts exactly the same inputs — the discipline PR 5 established for
/// the bitstream engine. Not used on any production path.
pub mod reference {
    use super::{hash4, Lz77Config, Lz77Error, MAX_WINDOW, MIN_MATCH};

    /// Compress `input` with the given effort configuration.
    pub fn compress(input: &[u8], cfg: Lz77Config) -> Vec<u8> {
        let mut out = Vec::new();
        compress_into(input, cfg, &mut out);
        out
    }

    /// Byte-granular compressor: per-item heap buffers, one-byte-at-a-time
    /// match extension, chain tables allocated fresh per call.
    pub(crate) fn compress_into(input: &[u8], cfg: Lz77Config, out: &mut Vec<u8>) {
        assert!(cfg.window >= MIN_MATCH && cfg.window <= MAX_WINDOW);
        let offset_bytes: usize = if cfg.window <= u16::MAX as usize {
            2
        } else {
            3
        };
        let n = input.len();
        out.clear();
        out.reserve(n / 2 + 16);
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
        let mut head = vec![0u32; 1 << super::HASH_LOG];
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
                pending.push(true, &item, out);

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
                pending.push(false, &[input[i]], out);
                i += 1;
            }
        }
        pending.flush(out);
    }

    /// Byte-granular decompressor: one output byte per loop iteration.
    pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, Lz77Error> {
        let mut out = Vec::with_capacity(expected_len);
        let offset_bytes = *input
            .first()
            .ok_or_else(|| Lz77Error("missing format header".into()))?
            as usize;
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
}

// Reusable hash-chain tables. A scoped worker (bitshuffle block thread,
// pfpc chunk thread) compresses many blocks over its lifetime; keeping the
// tables thread-local amortizes the two table allocations across every
// block the thread touches. `head` must be zeroed per call (it is probed
// before any insertion); `prev` never needs clearing: every chain
// traversal only reads slots written earlier in the same call, because a
// chain is entered through `head` and each inserted position writes its
// own `prev` slot.
thread_local! {
    static CHAIN_SCRATCH: RefCell<(Vec<u32>, Vec<u32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// In-bounds unaligned 8-byte little-endian load (callers guarantee
/// `i + 8 <= data.len()`; a short read yields 0, never a panic).
#[inline]
fn load_u64(data: &[u8], i: usize) -> u64 {
    match data.get(i..).and_then(|t| t.first_chunk::<8>()) {
        Some(w) => u64::from_le_bytes(*w),
        None => 0,
    }
}

/// In-bounds 4-byte little-endian key load (callers guarantee
/// `i + 4 <= data.len()`; a short read yields 0, never a panic).
#[inline]
fn load_key(data: &[u8], i: usize) -> u32 {
    match data.get(i..).and_then(|t| t.first_chunk::<4>()) {
        Some(w) => u32::from_le_bytes(*w),
        None => 0,
    }
}

/// Word-at-a-time match extension: compare 8 bytes per step, then locate
/// the first differing byte with `trailing_zeros`. Byte-for-byte
/// equivalent to the reference's one-byte loop.
#[inline]
fn match_len(input: &[u8], c: usize, i: usize, max_len: usize) -> usize {
    let mut l = 0usize;
    while l + 8 <= max_len {
        let a = load_u64(input, c + l);
        let b = load_u64(input, i + l);
        let x = a ^ b;
        if x != 0 {
            return l + (x.trailing_zeros() >> 3) as usize;
        }
        l += 8;
    }
    while l < max_len && input[c + l] == input[i + l] {
        l += 1;
    }
    l
}

/// The longest match for position `i` as `(len, dist)`, `(0, 0)` for
/// none: exactly what the reference's chain walk finds, whose probe order,
/// depth budget and tie rule this keeps.
///
/// Most positions of a residual stream have a chain one link deep that
/// holds no 4-byte `key` match, and a candidate whose first four bytes
/// differ can never reach [`MIN_MATCH`]. So links 1 and 2 (`cand1` is
/// `head[hash(key)]`) are first judged without a branch: live (non-empty,
/// in the window, within the depth budget), key hit, and whether a live
/// link 3 follows. Only a possible hit or a longer chain enters the walk,
/// which resumes there instead of re-reading links 1 and 2.
#[inline(always)]
fn find_match(
    input: &[u8],
    i: usize,
    key: u32,
    cand1: usize,
    prev: &[u32],
    cfg: Lz77Config,
    slot: impl Fn(usize) -> usize,
) -> (usize, usize) {
    let depth = cfg.chain_depth;
    // Chain entries hold `pos + 1`, 0 for none, so a link is in the window
    // when its entry lies in `lo..=i`. A link is live (the reference would
    // probe it) when it and every link before it are in the window and
    // the depth budget reaches it. A dead link's successor and key are
    // read (the key clamped into the input) but never trusted.
    let lo = (i + 1).saturating_sub(cfg.window).max(1);
    let in_window = |cand: usize| cand.wrapping_sub(lo) < i + 1 - lo;
    let c1 = cand1.wrapping_sub(1);
    let live1 = in_window(cand1) & (depth >= 1);
    let cand2 = prev[slot(c1)] as usize;
    let c2 = cand2.wrapping_sub(1);
    let live2 = live1 & in_window(cand2) & (depth >= 2);
    let cand3 = prev[slot(c2)] as usize;
    let live3 = live2 & in_window(cand3) & (depth >= 3);
    let last = input.len() - MIN_MATCH;
    let hit1 = live1 & (load_key(input, c1.min(last)) == key);
    let hit2 = live2 & (load_key(input, c2.min(last)) == key);
    if !(hit1 | hit2 | live3) {
        return (0, 0);
    }

    let max_len = input.len() - i;
    let (mut best_len, mut best_dist) = (0usize, 0usize);
    for (hit, c) in [(hit1, c1), (hit2, c2)] {
        // A key hit extends to at least MIN_MATCH; the quick check on the
        // byte past the current best skips candidates that cannot beat it.
        if hit && (best_len == 0 || input.get(c + best_len) == input.get(i + best_len)) {
            let l = match_len(input, c, i, max_len);
            if l > best_len {
                (best_len, best_dist) = (l, i - c);
                if l >= max_len {
                    return (best_len, best_dist);
                }
            }
        }
    }
    let mut candidate = if live3 { cand3 } else { 0 };
    let mut budget = depth.saturating_sub(2);
    while candidate != 0 && budget > 0 {
        let c = candidate - 1;
        let dist = i - c;
        if dist > cfg.window {
            break;
        }
        // Quick check on the byte past the current best.
        if best_len == 0 || input.get(c + best_len) == input.get(i + best_len) {
            let l = match_len(input, c, i, max_len);
            if l >= MIN_MATCH && l > best_len {
                best_len = l;
                best_dist = dist;
                if l >= max_len {
                    break;
                }
            }
        }
        candidate = prev[slot(c)] as usize;
        budget -= 1;
    }
    (best_len, best_dist)
}

/// Compress `input` with the given effort configuration.
pub fn compress(input: &[u8], cfg: Lz77Config) -> Vec<u8> {
    let mut out = Vec::new();
    compress_into(input, cfg, &mut out);
    out
}

/// Like [`compress`] but into a caller-owned buffer (contents replaced,
/// capacity reused) — the zero-copy `Compressor::compress_into` hot path.
///
/// Emits streams byte-identical to `reference::compress_into`.
pub fn compress_into(input: &[u8], cfg: Lz77Config, out: &mut Vec<u8>) {
    assert!(cfg.window >= MIN_MATCH && cfg.window <= MAX_WINDOW);
    CHAIN_SCRATCH.with_borrow_mut(|(head, prev)| {
        head.resize(1 << HASH_LOG, 0);
        head.fill(0);
        if prev.len() < cfg.window {
            prev.resize(cfg.window, 0);
        }
        let prev = &mut prev[..cfg.window];
        // The chain-table slot of a position: an AND for a power-of-two
        // window (every production config), a division otherwise, each
        // compiled into its own copy of the loop.
        if cfg.window.is_power_of_two() {
            let mask = cfg.window - 1;
            compress_chained(input, cfg, head, prev, |p| p & mask, out)
        } else {
            compress_chained(input, cfg, head, prev, |p| p % cfg.window, out)
        }
    });
}

/// [`compress_into`] over cleared `head` and any `prev` of `cfg.window`
/// slots, `slot` mapping a position to its `prev` slot.
#[inline(always)]
fn compress_chained(
    input: &[u8],
    cfg: Lz77Config,
    head: &mut [u32],
    prev: &mut [u32],
    slot: impl Fn(usize) -> usize + Copy,
    out: &mut Vec<u8>,
) {
    let offset_bytes: usize = if cfg.window <= u16::MAX as usize {
        2
    } else {
        3
    };
    let n = input.len();
    out.clear();
    out.reserve(n / 2 + 16);
    out.push(offset_bytes as u8);

    // Pending group of up to 8 items sharing one control byte, staged in a
    // fixed stack buffer (worst case: 8 items x 6 bytes each).
    let mut g_control = 0u8;
    let mut g_nitems = 0u32;
    let mut g_bytes = [0u8; 48];
    let mut g_len = 0usize;

    let mut i = 0usize;
    while i < n {
        let (best_len, best_dist) = if i + MIN_MATCH <= n {
            let key = load_key(input, i);
            let h = hash_key(key);
            let found = find_match(input, i, key, head[h] as usize, prev, cfg, slot);
            // Insert current position into the chain only now: a
            // candidate at exactly `dist == window` shares `i`'s slot.
            prev[slot(i)] = head[h];
            head[h] = (i + 1) as u32;
            found
        } else {
            (0, 0)
        };
        if best_len >= MIN_MATCH {
            let item_start = g_len;
            g_bytes[g_len..g_len + 4].copy_from_slice(&(best_dist as u32).to_le_bytes());
            g_len = item_start + offset_bytes;
            let code_len = best_len - MIN_MATCH;
            let actual_len = if code_len < 255 {
                g_bytes[g_len] = code_len as u8;
                g_len += 1;
                best_len
            } else {
                let ext = (code_len - 255).min(u16::MAX as usize);
                g_bytes[g_len] = 255;
                g_bytes[g_len + 1..g_len + 3].copy_from_slice(&(ext as u16).to_le_bytes());
                g_len += 3;
                MIN_MATCH + 255 + ext
            };
            g_control |= 1 << g_nitems;
            g_nitems += 1;
            if g_nitems == 8 {
                out.push(g_control);
                out.extend_from_slice(&g_bytes[..g_len]);
                g_control = 0;
                g_nitems = 0;
                g_len = 0;
            }

            // Insert skipped positions into the chain (sparsely for speed).
            let end = i + actual_len;
            let step = 1.max(actual_len / 16);
            let mut j = i + 1;
            while j < end && j + MIN_MATCH <= n {
                let h = hash4(input, j);
                prev[slot(j)] = head[h];
                head[h] = (j + 1) as u32;
                j += step;
            }
            i = end;
        } else {
            g_bytes[g_len] = input[i];
            g_len += 1;
            g_nitems += 1;
            if g_nitems == 8 {
                out.push(g_control);
                out.extend_from_slice(&g_bytes[..g_len]);
                g_control = 0;
                g_nitems = 0;
                g_len = 0;
            }
            i += 1;
        }
    }
    if g_nitems > 0 {
        out.push(g_control);
        out.extend_from_slice(&g_bytes[..g_len]);
    }
}

/// Error from [`decompress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lz77Error(pub String);

impl std::fmt::Display for Lz77Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lz77: {}", self.0)
    }
}

impl std::error::Error for Lz77Error {}

/// Decompress a stream produced by [`compress`].
///
/// Accepts and rejects exactly the same inputs as
/// [`reference::decompress`], but copies matches with bulk slice
/// operations (doubling self-extension for overlapping matches) and takes
/// an 8-literal shortcut on all-literal control groups.
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
        // Fast path: a full group of 8 literals, all needed and present.
        if control == 0 && out.len() + 8 <= expected_len && pos + 8 <= input.len() {
            out.extend_from_slice(&input[pos..pos + 8]);
            pos += 8;
            continue;
        }
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
                if dist >= len {
                    out.extend_from_within(start..start + len);
                } else {
                    // Overlapping match: the copy source grows as we write.
                    // Doubling self-extension replicates the pattern in
                    // O(log(len/dist)) bulk copies.
                    let mut remaining = len;
                    while remaining > 0 {
                        let avail = out.len() - start;
                        let take = avail.min(remaining);
                        out.extend_from_within(start..start + take);
                        remaining -= take;
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8], cfg: Lz77Config) {
        let c = compress(data, cfg);
        let d = decompress(&c, data.len()).expect("decompress");
        assert_eq!(d, data);
    }

    #[test]
    fn empty_and_tiny() {
        for n in 0..10usize {
            let data: Vec<u8> = (0..n as u8).collect();
            round_trip(&data, Lz77Config::fast());
        }
    }

    #[test]
    fn repetitive_data() {
        let data = b"abcabcabcabcabcabcabcabcabc".repeat(100);
        let c = compress(&data, Lz77Config::fast());
        assert!(c.len() < data.len() / 4);
        round_trip(&data, Lz77Config::fast());
    }

    #[test]
    fn random_data_survives_both_configs() {
        let mut x = 0xABCDu32;
        let data: Vec<u8> = (0..40_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xFF) as u8
            })
            .collect();
        round_trip(&data, Lz77Config::fast());
        round_trip(&data, Lz77Config::thorough());
    }

    #[test]
    fn thorough_config_never_worse_on_structured_data() {
        let mut data = Vec::new();
        for i in 0..30_000u32 {
            data.extend_from_slice(&(i / 7).to_le_bytes());
        }
        let fast = compress(&data, Lz77Config::fast());
        let thorough = compress(&data, Lz77Config::thorough());
        assert!(thorough.len() <= fast.len() + 64);
        round_trip(&data, Lz77Config::thorough());
    }

    #[test]
    fn very_long_match_uses_extension() {
        let mut data = vec![0u8; 100_000];
        data[0] = 1; // one literal then a gigantic run
        let c = compress(&data, Lz77Config::fast());
        assert!(c.len() < 1000);
        round_trip(&data, Lz77Config::fast());
    }

    #[test]
    fn window_limit_respected() {
        // Distance to the repeat exceeds a tiny window: must stay literal
        // (and still round-trip).
        let cfg = Lz77Config {
            window: 64,
            chain_depth: 8,
        };
        let mut data = Vec::new();
        let unit: Vec<u8> = (0..32u8).collect();
        data.extend_from_slice(&unit);
        data.extend(std::iter::repeat_n(0xEE, 200));
        data.extend_from_slice(&unit);
        round_trip(&data, cfg);
    }

    #[test]
    fn overlapping_matches() {
        let mut data = vec![b'q'];
        data.extend(std::iter::repeat_n(b'r', 5000));
        round_trip(&data, Lz77Config::fast());
    }

    #[test]
    fn decompress_rejects_corruption() {
        assert!(decompress(&[], 5).is_err());
        // bad offset-width header
        assert!(decompress(&[9, 0], 5).is_err());
        // control byte promising a match with no bytes
        assert!(decompress(&[3, 0b0000_0001], 5).is_err());
        // invalid distance 0 — crafted: header=3, control=1, dist=0, len=0
        assert!(decompress(&[3, 1, 0, 0, 0, 0], 5).is_err());
        // distance beyond output
        assert!(decompress(&[3, 1, 9, 0, 0, 0], 5).is_err());
        // same with 2-byte offsets
        assert!(decompress(&[2, 1, 9, 0, 0], 5).is_err());
    }

    #[test]
    fn float_pattern_round_trip() {
        let mut data = Vec::new();
        for i in 0..8000 {
            data.extend_from_slice(&(1000.0f64 + (i % 50) as f64).to_le_bytes());
        }
        let c = compress(&data, Lz77Config::thorough());
        assert!(c.len() < data.len() / 3);
        round_trip(&data, Lz77Config::thorough());
    }

    // ---- differential tests against the retained reference ----

    fn assert_identical(data: &[u8], cfg: Lz77Config) {
        let fast = compress(data, cfg);
        let slow = reference::compress(data, cfg);
        assert_eq!(
            fast,
            slow,
            "compressed stream diverged from reference ({} bytes, window {})",
            data.len(),
            cfg.window
        );
        let d_fast = decompress(&fast, data.len()).expect("fast decompress");
        let d_slow = reference::decompress(&fast, data.len()).expect("reference decompress");
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
