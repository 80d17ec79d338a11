//! Deterministic fault injection for I/O paths and engine seams.
//!
//! Two layers, mirroring how the model checker splits "always compiled"
//! from "instrumented":
//!
//! - [`FaultPlan`] + [`FaultyIo`] are **always compiled** and dependency
//!   free: a plan is derived entirely from a 64-bit seed (replayable as an
//!   `fp1:` string, the fault-injection analogue of the model checker's
//!   `mc1:` schedule seeds) and drives a [`Read`]/[`Write`] wrapper that
//!   injects short reads/writes, [`ErrorKind::Interrupted`] /
//!   [`ErrorKind::WouldBlock`] returns, bounded delays, and hard errors at
//!   exact byte offsets. Chaos tests wrap any sink or source in it — a
//!   `Vec<u8>` container sink, a socket — and replay failures from the
//!   seed alone.
//! - [`fail_point`] is a **named fail-point** hook compiled to a no-op
//!   unless the non-default `fault-inject` feature is on. The engine's
//!   seams call it by name (`pool.submit`, `frame.write`,
//!   `container.commit`, `container.sync_behind`, `serve.reply_write`);
//!   the chaos suite arms individual points to fail after N passes and
//!   asserts the failure surfaces as a typed error, never a hang or a
//!   panic. Like
//!   `model-check`, the feature is enabled only by the non-default
//!   `fcbench-chaos` workspace member and must never unify into the
//!   shipping build (CI asserts this on the default feature graph).
//!
//! Everything here is deterministic: same seed, same byte traffic, same
//! injected faults. There is no clock or OS randomness anywhere in a
//! plan's behaviour (delays sleep, but *whether* they fire is seeded).

use crate::error::{Error, Result};
use std::io::{ErrorKind, Read, Write};

/// Prefix for replayable fault-plan seed strings, e.g.
/// `fp1:00000000deadbeef`.
pub(crate) const SEED_PREFIX: &str = "fp1:";

/// SplitMix64: the tiny, high-quality step generator used to derive every
/// plan knob and every per-operation decision from the seed.
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

    /// Uniform in `[0, n)`; returns 0 when `n == 0` (no panic path).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.next_u64() % n
    }

    /// Bernoulli draw with probability `permille`/1000.
    pub(crate) fn permille(&mut self, permille: u16) -> bool {
        self.below(1000) < u64::from(permille)
    }
}

/// A seeded, replayable description of the faults a [`FaultyIo`] injects.
///
/// Every knob is *derived* from the seed, so the whole plan replays from
/// its `fp1:` string; the struct fields are public for tests that want to
/// assert on or hand-build a specific shape (a hand-built plan has no
/// canonical seed string and reports the seed it was given).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Per-read chance (‰) of delivering fewer bytes than asked.
    pub short_read_permille: u16,
    /// Per-write chance (‰) of accepting fewer bytes than offered.
    pub short_write_permille: u16,
    /// Per-op chance (‰) of an [`ErrorKind::Interrupted`] return (the
    /// retryable kind `read_exact`/`write_all` absorb).
    pub interrupt_permille: u16,
    /// Per-op chance (‰) of an [`ErrorKind::WouldBlock`] return (the
    /// timeout-like kind deadline-aware callers must absorb and everyone
    /// else must surface as a typed error).
    pub wouldblock_permille: u16,
    /// Per-op chance (‰) of sleeping before proceeding.
    pub delay_permille: u16,
    /// Upper bound on one injected delay, in microseconds.
    pub max_delay_micros: u64,
    /// Fail reads permanently once this many bytes were delivered.
    pub fail_read_at: Option<u64>,
    /// Fail writes permanently once this many bytes were accepted.
    pub fail_write_at: Option<u64>,
}

impl FaultPlan {
    /// Derive a plan from a 64-bit seed. Roughly a quarter of seeds are
    /// benign (no faults at all — the wrapper must be transparent), the
    /// rest mix soft faults with hard errors at small byte offsets, the
    /// region where framing and commit boundaries live.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut rng = Rng::new(seed);
        let benign = rng.below(4) == 0;
        if benign {
            return FaultPlan {
                seed,
                short_read_permille: 0,
                short_write_permille: 0,
                interrupt_permille: 0,
                wouldblock_permille: 0,
                delay_permille: 0,
                max_delay_micros: 0,
                fail_read_at: None,
                fail_write_at: None,
            };
        }
        let soft = |rng: &mut Rng, ceil: u64| rng.below(ceil) as u16;
        let hard_at = |rng: &mut Rng| (rng.below(10) < 6).then(|| rng.below(16 * 1024));
        FaultPlan {
            seed,
            short_read_permille: soft(&mut rng, 500),
            short_write_permille: soft(&mut rng, 500),
            interrupt_permille: soft(&mut rng, 200),
            wouldblock_permille: soft(&mut rng, 100),
            delay_permille: soft(&mut rng, 100),
            max_delay_micros: rng.below(200),
            fail_read_at: hard_at(&mut rng),
            fail_write_at: hard_at(&mut rng),
        }
    }

    /// A plan that injects nothing; [`FaultyIo`] behaves as a plain
    /// pass-through wrapper.
    pub fn benign() -> FaultPlan {
        FaultPlan {
            seed: 0,
            short_read_permille: 0,
            short_write_permille: 0,
            interrupt_permille: 0,
            wouldblock_permille: 0,
            delay_permille: 0,
            max_delay_micros: 0,
            fail_read_at: None,
            fail_write_at: None,
        }
    }

    /// The seed this plan was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The replayable seed string, `fp1:<16 hex digits>`.
    pub fn seed_string(&self) -> String {
        format!("{SEED_PREFIX}{:016x}", self.seed)
    }

    /// Surface the replayable seed for CI artifact upload: written to the
    /// path in `$FCBENCH_CHAOS_SEED_OUT` (when set) before the risky work,
    /// so the seed of a crashed or failed case survives the process.
    pub fn note_seed(&self) {
        if let Ok(path) = std::env::var("FCBENCH_CHAOS_SEED_OUT") {
            if !path.is_empty() {
                let _ = std::fs::write(path, self.seed_string());
            }
        }
    }

    /// Parse an `fp1:` seed string back into its plan.
    pub fn parse(s: &str) -> Result<FaultPlan> {
        let hex = s.strip_prefix(SEED_PREFIX).ok_or_else(|| {
            Error::Unsupported(format!(
                "fault seed {s:?} does not start with {SEED_PREFIX:?}"
            ))
        })?;
        if hex.len() != 16 {
            return Err(Error::Unsupported(format!(
                "fault seed {s:?} needs 16 hex digits after the prefix"
            )));
        }
        let seed = u64::from_str_radix(hex, 16)
            .map_err(|_| Error::Unsupported(format!("fault seed {s:?} is not hexadecimal")))?;
        Ok(FaultPlan::from_seed(seed))
    }

    /// Does this plan inject anything at all?
    pub fn is_benign(&self) -> bool {
        self.short_read_permille == 0
            && self.short_write_permille == 0
            && self.interrupt_permille == 0
            && self.wouldblock_permille == 0
            && self.delay_permille == 0
            && self.fail_read_at.is_none()
            && self.fail_write_at.is_none()
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{SEED_PREFIX}{:016x}", self.seed)
    }
}

/// A [`Read`]/[`Write`] wrapper that injects the faults a [`FaultPlan`]
/// describes, deterministically.
///
/// Hard errors are offset-exact and **sticky**: bytes up to the boundary
/// are delivered faithfully, then every further operation on that
/// direction fails — like a peer that died mid-stream. Soft faults
/// (short ops, `Interrupted`, `WouldBlock`, delays) are drawn per
/// operation from the plan's seeded stream.
#[derive(Debug)]
pub struct FaultyIo<T> {
    inner: T,
    plan: FaultPlan,
    rng: Rng,
    read_pos: u64,
    write_pos: u64,
    read_dead: bool,
    write_dead: bool,
}

impl<T> FaultyIo<T> {
    pub fn new(inner: T, plan: FaultPlan) -> FaultyIo<T> {
        let rng = Rng::new(plan.seed() ^ 0xF417_1A17_F417_1A17);
        FaultyIo {
            inner,
            plan,
            rng,
            read_pos: 0,
            write_pos: 0,
            read_dead: false,
            write_dead: false,
        }
    }

    fn hard_error(&self, dir: &str) -> std::io::Error {
        std::io::Error::other(format!(
            "injected {dir} failure ({})",
            self.plan.seed_string()
        ))
    }

    /// Draw the soft faults that precede an operation; `Some(err)` means
    /// the operation returns it instead of touching the inner value.
    fn soft_fault(&mut self) -> Option<std::io::Error> {
        if self.plan.delay_permille > 0 && self.rng.permille(self.plan.delay_permille) {
            let micros = self.rng.below(self.plan.max_delay_micros.saturating_add(1));
            std::thread::sleep(std::time::Duration::from_micros(micros));
        }
        if self.plan.interrupt_permille > 0 && self.rng.permille(self.plan.interrupt_permille) {
            return Some(std::io::Error::new(
                ErrorKind::Interrupted,
                "injected interrupt",
            ));
        }
        if self.plan.wouldblock_permille > 0 && self.rng.permille(self.plan.wouldblock_permille) {
            return Some(std::io::Error::new(
                ErrorKind::WouldBlock,
                "injected would-block",
            ));
        }
        None
    }

    /// How many of `len` bytes an operation may move, honouring a hard
    /// boundary at `fail_at` and the short-op dice. `None` means the hard
    /// boundary was already reached.
    fn allowance(
        rng: &mut Rng,
        plan_short: u16,
        pos: u64,
        fail_at: Option<u64>,
        len: usize,
    ) -> Option<usize> {
        let mut take = len;
        if let Some(at) = fail_at {
            let room = at.saturating_sub(pos);
            if room == 0 {
                return None;
            }
            take = take.min(usize::try_from(room).unwrap_or(usize::MAX));
        }
        if take > 1 && plan_short > 0 && rng.permille(plan_short) {
            take = 1 + usize::try_from(rng.below(take as u64)).unwrap_or(0);
        }
        Some(take)
    }
}

impl<T: Read> Read for FaultyIo<T> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.read_dead {
            return Err(self.hard_error("read"));
        }
        if buf.is_empty() {
            return self.inner.read(buf);
        }
        if let Some(e) = self.soft_fault() {
            return Err(e);
        }
        let take = match Self::allowance(
            &mut self.rng,
            self.plan.short_read_permille,
            self.read_pos,
            self.plan.fail_read_at,
            buf.len(),
        ) {
            Some(t) => t,
            None => {
                self.read_dead = true;
                return Err(self.hard_error("read"));
            }
        };
        let got = match buf.get_mut(..take) {
            Some(window) => self.inner.read(window)?,
            None => self.inner.read(buf)?,
        };
        self.read_pos += got as u64;
        Ok(got)
    }
}

impl<T: Write> Write for FaultyIo<T> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.write_dead {
            return Err(self.hard_error("write"));
        }
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        if let Some(e) = self.soft_fault() {
            return Err(e);
        }
        let take = match Self::allowance(
            &mut self.rng,
            self.plan.short_write_permille,
            self.write_pos,
            self.plan.fail_write_at,
            buf.len(),
        ) {
            Some(t) => t,
            None => {
                self.write_dead = true;
                return Err(self.hard_error("write"));
            }
        };
        let window = buf.get(..take).unwrap_or(buf);
        let accepted = self.inner.write(window)?;
        self.write_pos += accepted as u64;
        Ok(accepted)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.write_dead {
            return Err(self.hard_error("write"));
        }
        self.inner.flush()
    }
}

/// A named fail-point. Engine seams call this on their hot path; with the
/// default feature set it compiles to `Ok(())` and the optimizer removes
/// it. With the non-default `fault-inject` feature (enabled only by the
/// `fcbench-chaos` workspace member, never by a shipping crate), armed
/// points fail with a typed [`Error::Io`] after an optional pass count.
#[inline]
pub fn fail_point(name: &str) -> Result<()> {
    #[cfg(feature = "fault-inject")]
    {
        failpoints::check(name)
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        let _ = name;
        Ok(())
    }
}

/// The armed-fail-point registry, compiled only under `fault-inject`.
#[cfg(feature = "fault-inject")]
pub mod failpoints {
    use crate::error::{Error, Result};
    use crate::sync::lock;
    use std::sync::{Mutex, OnceLock};

    struct Armed {
        name: String,
        /// Calls that pass before the point starts failing.
        skip: u64,
        /// Calls that fail once armed; `u64::MAX` means forever.
        fail: u64,
        hits: u64,
        fired: u64,
    }

    fn registry() -> &'static Mutex<Vec<Armed>> {
        static REG: OnceLock<Mutex<Vec<Armed>>> = OnceLock::new();
        REG.get_or_init(|| Mutex::new(Vec::new()))
    }

    /// Arm `name` to pass `skip` calls, then fail `fail` calls (use
    /// `u64::MAX` for "forever"). Re-arming a name replaces its schedule
    /// and resets its counts.
    pub fn arm(name: &str, skip: u64, fail: u64) {
        let mut reg = lock(registry());
        reg.retain(|a| a.name != name);
        reg.push(Armed {
            name: name.to_string(),
            skip,
            fail,
            hits: 0,
            fired: 0,
        });
    }

    /// Disarm every point and forget its counts.
    pub fn disarm_all() {
        lock(registry()).clear();
    }

    /// How many times `name` was reached (armed points only).
    pub fn hits(name: &str) -> u64 {
        lock(registry())
            .iter()
            .find(|a| a.name == name)
            .map_or(0, |a| a.hits)
    }

    /// How many times `name` actually fired an error.
    pub fn fired(name: &str) -> u64 {
        lock(registry())
            .iter()
            .find(|a| a.name == name)
            .map_or(0, |a| a.fired)
    }

    pub(super) fn check(name: &str) -> Result<()> {
        let mut reg = lock(registry());
        let Some(a) = reg.iter_mut().find(|a| a.name == name) else {
            return Ok(());
        };
        a.hits += 1;
        if a.hits > a.skip && a.fired < a.fail {
            a.fired += 1;
            return Err(Error::Io(format!("injected fault at fail-point {name}")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_strings_round_trip() {
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX, 0x0123_4567_89AB_CDEF] {
            let plan = FaultPlan::from_seed(seed);
            let s = plan.seed_string();
            assert!(s.starts_with(SEED_PREFIX));
            assert_eq!(FaultPlan::parse(&s).unwrap(), plan);
            assert_eq!(plan.to_string(), s);
        }
        assert!(FaultPlan::parse("mc1:0000000000000000").is_err());
        assert!(FaultPlan::parse("fp1:xyz").is_err());
        assert!(FaultPlan::parse("fp1:123").is_err());
    }

    #[test]
    fn plans_are_deterministic() {
        assert_eq!(FaultPlan::from_seed(42), FaultPlan::from_seed(42));
        // Distinct seeds disagree somewhere across a small range.
        let distinct = (0..32u64)
            .map(FaultPlan::from_seed)
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 16);
    }

    impl std::hash::Hash for FaultPlan {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            self.seed.hash(state);
            self.short_read_permille.hash(state);
            self.fail_write_at.hash(state);
        }
    }

    #[test]
    fn benign_plan_is_transparent() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut reader = FaultyIo::new(&data[..], FaultPlan::benign());
        let mut back = Vec::new();
        reader.read_to_end(&mut back).unwrap();
        assert_eq!(back, data);

        let mut sunk = Vec::new();
        let mut writer = FaultyIo::new(&mut sunk, FaultPlan::benign());
        writer.write_all(&data).unwrap();
        writer.flush().unwrap();
        assert_eq!(sunk, data);
    }

    #[test]
    fn hard_write_error_is_offset_exact_and_sticky() {
        let mut plan = FaultPlan::benign();
        plan.fail_write_at = Some(100);
        let mut sunk = Vec::new();
        let mut writer = FaultyIo::new(&mut sunk, plan);
        let payload = vec![7u8; 64];
        // First 100 bytes land; the boundary write fails.
        assert!(writer.write_all(&payload).is_ok());
        let err = writer.write_all(&payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Other);
        // Sticky: everything after the boundary fails too, flush included.
        assert!(writer.write_all(&[1]).is_err());
        assert!(writer.flush().is_err());
        assert_eq!(sunk.len(), 100);
        assert!(sunk.iter().all(|&b| b == 7));
    }

    #[test]
    fn hard_read_error_delivers_the_boundary_first() {
        let mut plan = FaultPlan::benign();
        plan.fail_read_at = Some(10);
        let data = [3u8; 64];
        let mut reader = FaultyIo::new(&data[..], plan);
        let mut buf = [0u8; 64];
        let mut got = 0;
        while let Ok(n) = reader.read(&mut buf[got..]) {
            got += n;
        }
        assert_eq!(got, 10);
        assert!(reader.read(&mut buf).is_err(), "read errors stay sticky");
    }

    #[test]
    fn soft_faults_never_lose_bytes_under_retrying_callers() {
        // write_all/read_exact retry Interrupted and honour short ops, so
        // a soft-fault-only plan must still move every byte faithfully.
        for seed in 0..64u64 {
            let mut plan = FaultPlan::from_seed(seed);
            plan.fail_read_at = None;
            plan.fail_write_at = None;
            plan.wouldblock_permille = 0; // write_all does not retry these
            plan.delay_permille = 0; // keep the test fast
            let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
            let mut sunk = Vec::new();
            let mut writer = FaultyIo::new(&mut sunk, plan.clone());
            let mut offset = 0;
            while offset < data.len() {
                let step = (offset % 97) + 1;
                let end = (offset + step).min(data.len());
                match writer.write_all(&data[offset..end]) {
                    Ok(()) => offset = end,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => panic!("fp {seed}: unexpected {e}"),
                }
            }
            assert_eq!(sunk, data, "seed {seed}");
        }
    }

    #[test]
    fn fail_point_is_a_no_op_without_the_feature() {
        #[cfg(not(feature = "fault-inject"))]
        assert!(fail_point("pool.submit").is_ok());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn armed_fail_points_fire_on_schedule() {
        failpoints::disarm_all();
        failpoints::arm("test.point", 2, 1);
        assert!(fail_point("test.point").is_ok());
        assert!(fail_point("test.point").is_ok());
        assert!(fail_point("test.point").is_err());
        assert!(fail_point("test.point").is_ok(), "fail budget exhausted");
        assert_eq!(failpoints::hits("test.point"), 4);
        assert_eq!(failpoints::fired("test.point"), 1);
        failpoints::disarm_all();
        assert!(fail_point("test.point").is_ok());
    }
}
