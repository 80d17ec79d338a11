//! A first-class registry of compression methods.
//!
//! The benchmark harness, database simulation, examples, and tests all used
//! to build ad-hoc `Vec<Box<dyn Compressor>>` lists; the registry replaces
//! those with one queryable catalogue supporting lookup by name, filtering
//! by [`Platform`], and iteration in registration order. Entries hold
//! `Arc<dyn Compressor>` so the same codec instance can be shared across
//! worker threads (see [`crate::Pipeline`]) without re-construction.
//!
//! Two per-entry capabilities ride along:
//!
//! - **block-capable** — the codec tolerates being driven block-at-a-time
//!   (the paper's Table 10 keeps 8 of the 14);
//! - **scalable** — a factory producing the codec configured for an
//!   explicit internal worker count (Tables 7–8 sweep four of them).
//!
//! Execution is not a capability: every entry, CPU or GPU-simulated, runs
//! its blocks on the [`WorkerPool`](crate::pool::WorkerPool) engine the
//! same way.

use crate::codec::{Compressor, Platform};
use crate::error::{Error, Result};
use std::sync::Arc;

/// Factory producing a codec configured for a given thread count.
pub(crate) type ScaleFn = dyn Fn(usize) -> Box<dyn Compressor> + Send + Sync;

/// One registered codec plus its capabilities.
pub struct RegistryEntry {
    codec: Arc<dyn Compressor>,
    block_capable: bool,
    scale: Option<Box<ScaleFn>>,
}

impl RegistryEntry {
    /// Wrap a codec with no extra capabilities.
    pub fn new(codec: impl Compressor + 'static) -> Self {
        Self::from_arc(Arc::new(codec))
    }

    /// Wrap an already-shared codec.
    pub(crate) fn from_arc(codec: Arc<dyn Compressor>) -> Self {
        RegistryEntry {
            codec,
            block_capable: false,
            scale: None,
        }
    }

    /// Mark the codec as usable under fixed-size block decomposition.
    pub fn block_capable(mut self) -> Self {
        self.block_capable = true;
        self
    }

    /// Attach a thread-count factory (Tables 7–8 scalability sweeps).
    pub fn scalable(
        mut self,
        factory: impl Fn(usize) -> Box<dyn Compressor> + Send + Sync + 'static,
    ) -> Self {
        self.scale = Some(Box::new(factory));
        self
    }

    /// The shared codec instance.
    pub fn codec(&self) -> &Arc<dyn Compressor> {
        &self.codec
    }

    /// Canonical codec name (from [`Compressor::info`]).
    pub fn name(&self) -> &'static str {
        self.codec.info().name
    }

    /// Is this codec driven block-at-a-time in the Table 10 study?
    pub fn is_block_capable(&self) -> bool {
        self.block_capable
    }

    /// Does this entry carry a thread-count factory?
    pub(crate) fn is_scalable(&self) -> bool {
        self.scale.is_some()
    }
}

impl<C: Compressor + 'static> From<C> for RegistryEntry {
    fn from(codec: C) -> Self {
        RegistryEntry::new(codec)
    }
}

/// An ordered, name-unique collection of compression methods.
#[derive(Default)]
pub struct CodecRegistry {
    entries: Vec<RegistryEntry>,
}

impl CodecRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        CodecRegistry::default()
    }

    /// Register an entry (or bare codec, via `Into`). Names must be unique;
    /// re-registering a name is an error so lookups stay unambiguous.
    pub(crate) fn register(&mut self, entry: impl Into<RegistryEntry>) -> Result<()> {
        let entry = entry.into();
        let name = entry.name();
        if self.entry(name).is_some() {
            return Err(Error::Unsupported(format!(
                "codec {name:?} is already registered"
            )));
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Builder-style `register` that panics on duplicates —
    /// for static catalogues written out in source.
    #[must_use]
    pub fn with(mut self, entry: impl Into<RegistryEntry>) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented builder contract: with() panics on duplicate codec names in the static catalogue, a programmer error caught by the catalogue tests"
        )]
        self.register(entry).expect("duplicate codec name");
        self
    }

    /// Number of registered codecs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The full entry for `name`, if registered.
    pub fn entry(&self, name: &str) -> Option<&RegistryEntry> {
        self.entries.iter().find(|e| e.name() == name)
    }

    /// The shared codec instance for `name`, if registered.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Compressor>> {
        self.entry(name).map(|e| Arc::clone(&e.codec))
    }

    /// Like [`get`](Self::get) but with a typed [`Error::UnknownCodec`]
    /// that lists every registered name — the error a serving boundary can
    /// hand straight back to a client that asked for a codec it misspelled.
    pub fn require(&self, name: &str) -> Result<Arc<dyn Compressor>> {
        self.get(name).ok_or_else(|| self.unknown(name))
    }

    /// The [`Error::UnknownCodec`] for a failed lookup of `name`.
    pub fn unknown(&self, name: &str) -> Error {
        Error::UnknownCodec {
            requested: name.to_string(),
            available: self.names().iter().map(|n| n.to_string()).collect(),
        }
    }

    /// Entries in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &RegistryEntry> {
        self.entries.iter()
    }

    /// Shared codec handles in registration order.
    pub fn codecs(&self) -> impl Iterator<Item = &Arc<dyn Compressor>> {
        self.entries.iter().map(|e| &e.codec)
    }

    /// Codec names in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name()).collect()
    }

    /// Entries targeting `platform` (Table 1's CPU/GPU split).
    pub fn by_platform(&self, platform: Platform) -> impl Iterator<Item = &RegistryEntry> {
        self.entries
            .iter()
            .filter(move |e| e.codec.info().platform == platform)
    }

    /// Block-capable entries (the Table 10 set).
    pub fn block_capable(&self) -> impl Iterator<Item = &RegistryEntry> {
        self.entries.iter().filter(|e| e.block_capable)
    }

    /// Names of the entries carrying a thread-count factory (the Tables 7–8
    /// set).
    pub fn scalable_names(&self) -> Vec<&'static str> {
        self.entries
            .iter()
            .filter(|e| e.is_scalable())
            .map(|e| e.name())
            .collect()
    }

    /// Construct `name` configured for `threads` workers via its registered
    /// factory. Errors if the codec is unknown or not thread-scalable.
    pub fn scaled(&self, name: &str, threads: usize) -> Result<Box<dyn Compressor>> {
        let entry = self.entry(name).ok_or_else(|| self.unknown(name))?;
        let factory = entry
            .scale
            .as_ref()
            .ok_or_else(|| Error::Unsupported(format!("codec {name:?} is not thread-scalable")))?;
        Ok(factory(threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CodecClass, CodecInfo, Community, PrecisionSupport};
    use crate::data::{DataDesc, FloatData};

    struct Fake(&'static str, Platform, CodecClass, PrecisionSupport);

    impl Compressor for Fake {
        fn info(&self) -> CodecInfo {
            CodecInfo {
                name: self.0,
                year: 2024,
                community: Community::General,
                class: self.2,
                platform: self.1,
                parallel: false,
                precisions: self.3,
            }
        }
        fn compress_into(&self, data: &FloatData, out: &mut Vec<u8>) -> Result<usize> {
            crate::testing::Store.compress_into(data, out)
        }
        fn decompress_into(
            &self,
            payload: &[u8],
            desc: &DataDesc,
            out: &mut FloatData,
        ) -> Result<()> {
            crate::testing::Store.decompress_into(payload, desc, out)
        }
    }

    fn sample() -> CodecRegistry {
        CodecRegistry::new()
            .with(
                RegistryEntry::new(Fake(
                    "a",
                    Platform::Cpu,
                    CodecClass::Delta,
                    PrecisionSupport::Both,
                ))
                .block_capable()
                .scalable(|_t| {
                    Box::new(Fake(
                        "a",
                        Platform::Cpu,
                        CodecClass::Delta,
                        PrecisionSupport::Both,
                    ))
                }),
            )
            .with(Fake(
                "b",
                Platform::Gpu,
                CodecClass::Dictionary,
                PrecisionSupport::DoubleOnly,
            ))
    }

    #[test]
    fn lookup_iteration_and_order() {
        let r = sample();
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.names(), vec!["a", "b"]);
        assert_eq!(r.get("a").unwrap().info().name, "a");
        assert!(r.get("zz").is_none());
        let err = match r.require("zz") {
            Ok(_) => panic!("lookup of \"zz\" must fail"),
            Err(e) => e,
        };
        match &err {
            Error::UnknownCodec {
                requested,
                available,
            } => {
                assert_eq!(requested, "zz");
                assert_eq!(available, &["a", "b"]);
            }
            other => panic!("expected UnknownCodec, got {other:?}"),
        }
        assert!(err.to_string().contains("a, b"));
        assert_eq!(r.codecs().count(), 2);
    }

    #[test]
    fn filters() {
        let r = sample();
        let cpu: Vec<_> = r.by_platform(Platform::Cpu).map(|e| e.name()).collect();
        assert_eq!(cpu, vec!["a"]);
        let blocky: Vec<_> = r.block_capable().map(|e| e.name()).collect();
        assert_eq!(blocky, vec!["a"]);
    }

    #[test]
    fn scalable_entries() {
        let r = sample();
        assert_eq!(r.scalable_names(), vec!["a"]);
        assert!(r.scaled("a", 8).is_ok());
        assert!(r.scaled("b", 8).is_err());
        assert!(r.scaled("zz", 8).is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut r = sample();
        let err = r
            .register(Fake(
                "a",
                Platform::Cpu,
                CodecClass::Delta,
                PrecisionSupport::Both,
            ))
            .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)));
    }
}
