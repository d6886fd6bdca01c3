//! Pins the hint planner's exact output (Algorithms 1 and 2, §4.3).
//!
//! Hint order decides MTI order, and MTI order decides `tests_to_find`, so
//! any rewrite of `calc_hints_for` must reproduce today's hints exactly:
//! the same reorder sets, scheduling points, hit counts and order. For each
//! memory model this test profiles every STI on the all-bugs build and
//! computes the hints of every ordered pair `(i, j)`, `i < j` (the pairs
//! `build_mtis` plans), over two input sets:
//!
//! - the directed STI of each of the 24 seeded bugs;
//! - the first 500 STIs of `StiGen::new(2024)`.
//!
//! It pins the number of hints and the `fnv1a64` of their `{:?}` rendering
//! (one rendering per pair, concatenated in pair order).

use std::fmt::{self, Write};

use kernelsim::{BugId, BugSwitches, Kctx};
use oemu::MemoryModel;
use ozz::hints::calc_hints_for;
use ozz::profile_sti_on;
use ozz::sti::{directed_bug_sti, Sti, StiGen};

/// `kutil::fnv1a64` over everything written to it, without building the
/// string.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn directed_stis() -> Vec<Sti> {
    BugId::NEW
        .iter()
        .chain(BugId::KNOWN.iter())
        .chain(BugId::EXTENDED.iter())
        .map(|&bug| directed_bug_sti(bug))
        .collect()
}

fn generated_stis() -> Vec<Sti> {
    let mut gen = StiGen::new(2024);
    (0..500).map(|_| gen.generate()).collect()
}

/// `(hints, fnv1a64 of their rendering)` over every pair of every STI,
/// profiled on a reset all-bugs machine of `model`.
fn pin(stis: &[Sti], model: MemoryModel) -> (usize, u64) {
    let k = Kctx::new_with_model(BugSwitches::all(), model);
    let mut count = 0;
    let mut fnv = Fnv::new();
    for sti in stis {
        k.reset();
        let traces = profile_sti_on(&k, sti);
        for i in 0..traces.len() {
            for j in (i + 1)..traces.len() {
                let hints = calc_hints_for(&traces[i].events, &traces[j].events, model);
                count += hints.len();
                write!(fnv, "{hints:?}").unwrap();
            }
        }
    }
    (count, fnv.0)
}

#[test]
fn streaming_hash_is_fnv1a64() {
    let text = "[SchedHint { kind: StoreBarrier }]";
    let mut fnv = Fnv::new();
    fnv.write_str(&text[..7]).unwrap();
    fnv.write_str(&text[7..]).unwrap();
    assert_eq!(fnv.0, kutil::fnv1a64(text.as_bytes()));
}

#[test]
fn directed_sti_hints_are_pinned() {
    let stis = directed_stis();
    assert_eq!(stis.len(), 24);
    let got: Vec<_> = MemoryModel::ALL
        .iter()
        .map(|&m| (m.name(), pin(&stis, m)))
        .collect();
    assert_eq!(
        got,
        vec![
            ("tso", (116, 12429311927934614597)),
            ("pso", (116, 12429311927934614597)),
            ("arm", (133, 17773269093338259027)),
        ]
    );
}

#[test]
fn generated_sti_hints_are_pinned() {
    let stis = generated_stis();
    let got: Vec<_> = MemoryModel::ALL
        .iter()
        .map(|&m| (m.name(), pin(&stis, m)))
        .collect();
    assert_eq!(
        got,
        vec![
            ("tso", (2756, 7363803805601277603)),
            ("pso", (2756, 7363803805601277603)),
            ("arm", (3052, 17384246070448676889)),
        ]
    );
}
