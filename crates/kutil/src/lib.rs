//! Zero-dependency utilities that keep the workspace hermetic.
//!
//! OZZ's premise is that a reordering schedule found once is reproducible
//! forever (§4.4: "OZZ can deterministically control the execution order").
//! That promise extends to the build: a campaign seed must mean the same
//! byte-for-byte `FoundBug` list on any machine, online or offline, today
//! or in five years. This crate removes every crates-io dependency the
//! workspace would otherwise need:
//!
//! - [`rng::DetRng`] — a SplitMix64-seeded xoshiro256** generator replacing
//!   `rand`. The stream is pinned by golden-value tests, so a refactor that
//!   silently changes campaign schedules fails CI.
//! - [`sync`] — `Mutex`/`Condvar` wrappers over `std::sync` with the
//!   `parking_lot` calling convention (`lock()` returns the guard directly,
//!   poisoning is ignored). A panicking oracle thread must not poison the
//!   crash-report sink it was about to write into.
//! - [`mod@bench`] — a minimal warmup + median-of-N timing harness replacing
//!   `criterion`, emitting one JSON line per measurement.
//! - [`chan`] — a poison-tolerant MPSC channel replacing `std::sync::mpsc`
//!   for the sharded campaign runner (epoch reports worker→coordinator,
//!   corpus broadcasts coordinator→worker).
//! - [`codec`] — a versioned line-oriented text codec replacing `serde`
//!   for durable artifacts (campaign checkpoints, the crash database).
//! - [`FxHasher`] — rustc's rotate-multiply hash (`rustc-hash` 1.x's
//!   algorithm), for maps keyed by simulated addresses on the emulation
//!   hot path.

#![deny(missing_docs)]

pub mod bench;
pub mod chan;
pub mod codec;
pub mod rng;
pub mod sync;

pub use rng::{splitmix64, DetRng};

/// Process-wide snapshot generation counter.
///
/// Every snapshot taken anywhere in the workspace (engine, kmem, fnreg,
/// lockdep, crash sink, machine) draws its generation id from this single
/// counter, so a generation names exactly one snapshot ever taken in this
/// process. Incremental restore keys its undo journal on these ids: a
/// restore whose generation is armed in the journal rolls back just the
/// mutations since that snapshot; any other generation (cross-machine
/// restore, superseded snapshot) is unambiguously a full-restore fallback —
/// two machines can never collide on an id. Generation 0 is reserved as
/// "never armed".
pub fn next_generation() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// FNV-1a over a byte slice: the workspace's stable content fingerprint.
///
/// Used to pin machine-state digests inside serialized artifacts (golden
/// traces, `FoundBug` records) without embedding the full `state_digest`
/// text. The constants are the standard 64-bit FNV offset basis and prime,
/// so the value for a given byte string never changes across platforms or
/// releases.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// rustc's `FxHasher`: each word is folded in with one rotate, xor and
/// multiply. It is much cheaper than the default SipHash and gives no
/// protection against adversarial keys, so it backs only maps whose keys
/// the simulated kernel computes itself (simulated addresses), never maps
/// filled from files. Its output is stable across platforms and releases,
/// but nothing may depend on a map's iteration order anyway.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

/// `BuildHasher` for [`FxHasher`]-keyed `HashMap`s and `HashSet`s.
pub type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod fx_tests {
    use super::FxHasher;
    use std::hash::{BuildHasher, Hasher};

    /// Pinned values: a map's layout must not depend on the host.
    #[test]
    fn hashes_words_with_the_rustc_constant() {
        let hash = |v: u64| super::FxBuildHasher::default().hash_one(v);
        assert_eq!(hash(0), 0);
        assert_eq!(hash(1), 0x517c_c1b7_2722_0a95);
        assert_eq!(hash(0x1_0000_0008), 0xb308_184e_3910_54a8);
        let mut h = FxHasher::default();
        h.write(b"abc");
        assert_eq!(
            h.finish(),
            0x0063_6261_u64.wrapping_mul(0x517c_c1b7_2722_0a95)
        );
    }
}

#[cfg(test)]
mod fnv_tests {
    use super::fnv1a64;

    /// Golden values from the FNV reference vectors: a transcription slip
    /// in the constants would silently unpin every stored digest.
    #[test]
    fn matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn distinct_inputs_distinct_hashes() {
        assert_ne!(fnv1a64(b"state A"), fnv1a64(b"state B"));
    }
}
