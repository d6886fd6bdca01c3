//! Scheduling-hint calculation: Algorithms 1 and 2 of the paper (§4.3).
//!
//! Given the profiled event sequences of two system calls, OZZ computes the
//! set of *scheduling hints*, each describing one hypothetical memory
//! barrier test: a scheduling point at which to interleave, and the memory
//! accesses to reorder. The pipeline is:
//!
//! 1. **Filtering** (Algorithm 2, [`filter_out`]): drop accesses that
//!    cannot touch memory shared between the two calls — an OOO bug is a
//!    concurrency bug, so private accesses are irrelevant. The shared word
//!    slots are computed once per pair, as a sorted `Vec`.
//! 2. **Grouping** (Algorithm 1, step 2): split each call's accesses into
//!    groups bounded by barriers of the tested type (store-ordering
//!    barriers for the hypothetical *store* barrier test, load-ordering
//!    barriers for the *load* barrier test) — reordering across a real
//!    barrier is impossible, so hints never span one. One reused buffer
//!    holds the current group, and accesses are filtered as it fills.
//! 3. **Hint construction** (Algorithm 1, step 3): within each group, slide
//!    the hypothetical barrier one access at a time. For a store test the
//!    scheduling point is the group's last access and the reorder set is
//!    everything before it (Figure 5a); for a load test the scheduling
//!    point is the group's first access and the reorder set is everything
//!    after it (Figure 5b). Only stores can be delayed and only loads
//!    versioned, so the distinct sets the slide yields are every prefix of
//!    the group's stores, or every suffix of its loads, largest first.
//! 4. **Sorting**: hints are ordered by decreasing reorder-set size — the
//!    paper's greedy search heuristic (§4.3): the further execution
//!    deviates from sequential order, the likelier developers overlooked
//!    the barrier.

use oemu::{AccessKind, AccessRecord, MemoryModel, TraceEvent};

/// Which of the two paired system calls performs the reordering.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PairSide {
    /// The first call of the pair (runs on CPU 0).
    First,
    /// The second call of the pair (runs on CPU 1).
    Second,
}

/// Which hypothetical barrier the hint tests.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum HintKind {
    /// Hypothetical store barrier test: delayed stores, break *after* the
    /// scheduling point (Figure 5a).
    StoreBarrier,
    /// Hypothetical load barrier test: versioned loads, break *before* the
    /// scheduling point (Figure 5b).
    LoadBarrier,
}

/// One scheduling hint (one hypothetical memory barrier test).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchedHint {
    /// Store or load barrier test.
    pub kind: HintKind,
    /// Which call of the pair reorders its accesses.
    pub reorderer: PairSide,
    /// The scheduling-point access (`h.sched`).
    pub sched: AccessRecord,
    /// 1-based occurrence of `sched.iid` within the reorderer's trace, for
    /// breakpoint hit-counting when the instruction executes in a loop.
    pub sched_hit: u32,
    /// The accesses to reorder (`h.reorder`): stores to delay for a store
    /// test, loads to version for a load test.
    pub reorder: Vec<AccessRecord>,
}

impl SchedHint {
    /// Human-readable location of the hypothetical barrier, reported to
    /// developers alongside a found bug (§4.1: "OZZ provides the location
    /// of the hypothetical memory barrier").
    pub fn barrier_location(&self) -> String {
        match self.kind {
            HintKind::StoreBarrier => format!(
                "missing store barrier (e.g. smp_wmb) before {}",
                self.sched.iid.describe()
            ),
            HintKind::LoadBarrier => format!(
                "missing load barrier (e.g. smp_rmb) after {}",
                self.sched.iid.describe()
            ),
        }
    }
}

/// Algorithm 2: `filter_out` — removes accesses that cannot contribute to
/// an OOO bug because they touch no location shared between the two calls
/// (with at least one side writing). Barrier events always survive: they
/// define the group boundaries.
pub fn filter_out(si: &[TraceEvent], sj: &[TraceEvent]) -> (Vec<TraceEvent>, Vec<TraceEvent>) {
    let shared = shared_words(si, sj);
    let keep = |events: &[TraceEvent]| {
        events
            .iter()
            .filter(|e| match e {
                TraceEvent::Access(a) => touches(&shared, a),
                TraceEvent::Barrier(_) => true,
            })
            .cloned()
            .collect::<Vec<_>>()
    };
    (keep(si), keep(sj))
}

/// The word slots both calls touch with at least one of them writing,
/// sorted and deduplicated for [`touches`].
fn shared_words(si: &[TraceEvent], sj: &[TraceEvent]) -> Vec<u64> {
    let mut shared = Vec::new();
    for ai in si.iter().filter_map(TraceEvent::as_access) {
        for aj in sj.iter().filter_map(TraceEvent::as_access) {
            if ai.kind.writes() || aj.kind.writes() {
                shared.extend(overlap_words(ai, aj));
            }
        }
    }
    shared.sort_unstable();
    shared.dedup();
    shared
}

/// Whether access `a` covers one of the `shared` word slots.
fn touches(shared: &[u64], a: &AccessRecord) -> bool {
    words_of(a).any(|w| shared.binary_search(&w).is_ok())
}

const WORD_MASK: u64 = !7;

/// The 8-byte word slots an access covers: from the word containing its
/// first byte through the word containing its last byte. Both sides of the
/// shared-set computation — slot insertion in `overlap_words` and slot
/// lookup in `touches` — must use this same word-aligned granularity;
/// keying either side on raw (possibly unaligned) byte addresses makes a
/// partially-overlapping access miss its own shared slot and get filtered
/// out of its own trace.
fn words_of(a: &AccessRecord) -> impl Iterator<Item = u64> {
    let first = a.addr & WORD_MASK;
    let last = (a.addr + u64::from(a.size.max(1)) - 1) & WORD_MASK;
    (first..=last).step_by(8)
}

/// The word slots covered by the byte intersection of two accesses (empty
/// when their byte ranges are disjoint).
fn overlap_words(a: &AccessRecord, b: &AccessRecord) -> impl Iterator<Item = u64> {
    let (a0, a1) = (a.addr, a.addr + u64::from(a.size.max(1)));
    let (b0, b1) = (b.addr, b.addr + u64::from(b.size.max(1)));
    let (lo, hi) = (a0.max(b0), a1.min(b1));
    let slots = if lo < hi {
        Some(((lo & WORD_MASK)..=((hi - 1) & WORD_MASK)).step_by(8))
    } else {
        None
    };
    slots.into_iter().flatten()
}

/// Algorithm 1: computes all scheduling hints for the pair `(si, sj)`,
/// sorted by decreasing reorder-set size (the search heuristic). Groups
/// are bounded by the barriers TSO honors — identical to
/// [`calc_hints_for`] with [`MemoryModel::Tso`].
pub fn calc_hints(si: &[TraceEvent], sj: &[TraceEvent]) -> Vec<SchedHint> {
    calc_hints_for(si, sj, MemoryModel::Tso)
}

/// [`calc_hints`] against a specific memory model: only the barriers that
/// actually bound reordering under `model` split the access groups, so a
/// weaker model yields larger reorder sets. Concretely, on Arm a
/// `READ_ONCE` no longer closes a load group (it is not a load barrier
/// there), so load-test hints can reorder across it.
pub fn calc_hints_for(si: &[TraceEvent], sj: &[TraceEvent], model: MemoryModel) -> Vec<SchedHint> {
    // Step 1: the shared words decide which accesses survive filtering.
    let shared = shared_words(si, sj);
    let caps = ksched::ModelCaps::of(model);
    let mut hints = Vec::new();
    let mut group: Vec<AccessRecord> = Vec::new();
    // Steps 2 & 3, for each reorderer side and barrier type: fill the group
    // with the surviving accesses up to the next barrier that bounds this
    // test's reordering, then plan its hints.
    for (side, events) in [(PairSide::First, si), (PairSide::Second, sj)] {
        for kind in [HintKind::StoreBarrier, HintKind::LoadBarrier] {
            for e in events {
                match e {
                    TraceEvent::Access(a) if touches(&shared, a) => group.push(*a),
                    TraceEvent::Access(_) => {}
                    TraceEvent::Barrier(b) => {
                        let bounds = match kind {
                            HintKind::StoreBarrier => caps.bounds_store_group(b.kind),
                            HintKind::LoadBarrier => caps.bounds_load_group(b.kind),
                        };
                        if bounds {
                            plan_group(&group, kind, side, events, &mut hints);
                            group.clear();
                        }
                    }
                }
            }
            plan_group(&group, kind, side, events, &mut hints);
            group.clear();
        }
    }
    // Sort by decreasing number of reordered accesses.
    hints.sort_by(|a, b| {
        b.reorder
            .len()
            .cmp(&a.reorder.len())
            .then(a.sched.ts.cmp(&b.sched.ts))
    });
    hints
}

/// Algorithm 1, step 3: slide the hypothetical barrier through one group.
///
/// The scheduling point is *fixed per group*: for a store test it is the
/// group's last access — the interleaving happens right before the *actual*
/// barrier bounding the group (the solid line of Figure 5a), so even a
/// relaxed lock-release RMW at the group's end has already executed when
/// the other CPU runs. For a load test it is the group's first access — the
/// interleaving happens right after the actual barrier (Figure 5b). Only
/// the hypothetical barrier (the reorder set's boundary) slides.
///
/// Only the matching operation kind can be reordered by the respective
/// OEMU mechanism (delayed stores, versioned loads); atomic RMWs are
/// single events OEMU never reorders (§3). Sliding the barrier past any
/// other access leaves the set unchanged, so the distinct sets are the
/// prefixes of the group's stores (store test: the barrier slides up) or
/// the suffixes of its loads (load test: it slides down), largest first.
fn plan_group(
    group: &[AccessRecord],
    kind: HintKind,
    side: PairSide,
    full_trace: &[TraceEvent],
    out: &mut Vec<SchedHint>,
) {
    let (sched, rest, reorderable) = match (kind, group) {
        (_, [] | [_]) => return,
        (HintKind::StoreBarrier, [rest @ .., last]) => (*last, rest, AccessKind::Store),
        (HintKind::LoadBarrier, [first, rest @ ..]) => (*first, rest, AccessKind::Load),
    };
    let largest: Vec<AccessRecord> = rest
        .iter()
        .filter(|a| a.kind == reorderable)
        .copied()
        .collect();
    let n = largest.len();
    if n == 0 {
        return;
    }
    let sched_hit = occurrence_of(full_trace, &sched);
    let hint = |reorder| SchedHint {
        kind,
        reorderer: side,
        sched,
        sched_hit,
        reorder,
    };
    let first = out.len();
    out.push(hint(largest));
    for len in (1..n).rev() {
        let largest = &out[first].reorder;
        let reorder = match kind {
            HintKind::StoreBarrier => largest[..len].to_vec(),
            HintKind::LoadBarrier => largest[n - len..].to_vec(),
        };
        out.push(hint(reorder));
    }
}

/// 1-based occurrence index of `target.iid` at `target.ts` within the full
/// (unfiltered) trace — the breakpoint hit count.
fn occurrence_of(full_trace: &[TraceEvent], target: &AccessRecord) -> u32 {
    let mut n = 0;
    for e in full_trace {
        if let TraceEvent::Access(a) = e {
            if a.iid == target.iid && a.ts <= target.ts {
                n += 1;
            }
        }
    }
    n.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oemu::{BarrierKind, BarrierRecord, Iid};

    fn access(iid: u64, addr: u64, kind: AccessKind, ts: u64) -> TraceEvent {
        TraceEvent::Access(AccessRecord {
            iid: Iid(iid),
            addr,
            size: 8,
            kind,
            ts,
        })
    }

    fn barrier(kind: BarrierKind, ts: u64) -> TraceEvent {
        TraceEvent::Barrier(BarrierRecord {
            iid: Iid(999),
            kind,
            ts,
        })
    }

    #[test]
    fn filter_out_drops_private_accesses() {
        // Si stores to 0x10 and 0x90; Sj loads 0x10. Only 0x10 is shared.
        let si = vec![
            access(1, 0x10, AccessKind::Store, 1),
            access(2, 0x90, AccessKind::Store, 2),
        ];
        let sj = vec![access(3, 0x10, AccessKind::Load, 3)];
        let (fi, fj) = filter_out(&si, &sj);
        assert_eq!(fi.len(), 1);
        assert_eq!(fi[0].as_access().unwrap().addr, 0x10);
        assert_eq!(fj.len(), 1);
    }

    #[test]
    fn filter_out_requires_a_writer() {
        // Both only load 0x10: no write, no sharing, no OOO bug.
        let si = vec![access(1, 0x10, AccessKind::Load, 1)];
        let sj = vec![access(2, 0x10, AccessKind::Load, 2)];
        let (fi, fj) = filter_out(&si, &sj);
        assert!(fi.is_empty());
        assert!(fj.is_empty());
    }

    fn sized_access(iid: u64, addr: u64, size: u8, kind: AccessKind, ts: u64) -> TraceEvent {
        TraceEvent::Access(AccessRecord {
            iid: Iid(iid),
            addr,
            size,
            kind,
            ts,
        })
    }

    /// Regression for the Algorithm 2 word-slot bug: a store at `0x10`
    /// (size 8) overlaps a load at `0x14` (size 4) byte-wise, but the old
    /// code inserted the *unaligned* overlap start `0x14` into the shared
    /// set while mapping the store to word slot `0x10` — so the store was
    /// filtered out of its own trace and no hint could ever pair them.
    #[test]
    fn misaligned_overlap_keeps_both_sides() {
        for size in [1u8, 2, 4] {
            let si = vec![access(1, 0x10, AccessKind::Store, 1)]; // 8 bytes
            let sj = vec![sized_access(2, 0x14, size, AccessKind::Load, 2)];
            let (fi, fj) = filter_out(&si, &sj);
            assert_eq!(fi.len(), 1, "size-{size}: the store must survive");
            assert_eq!(fj.len(), 1, "size-{size}: the load must survive");
            // Hint groups need at least two accesses per side; repeat each
            // side's access so the surviving pair actually yields hints.
            let si = vec![
                access(1, 0x10, AccessKind::Store, 1),
                access(3, 0x10, AccessKind::Store, 3),
            ];
            let sj = vec![
                sized_access(2, 0x14, size, AccessKind::Load, 2),
                sized_access(4, 0x14, size, AccessKind::Load, 4),
            ];
            assert!(
                !calc_hints(&si, &sj).is_empty(),
                "size-{size}: the pair must produce hints"
            );
        }
    }

    /// Two sub-word accesses overlapping inside one word, neither at the
    /// word boundary.
    #[test]
    fn misaligned_subword_pairs_share_their_word() {
        let si = vec![sized_access(1, 0x12, 4, AccessKind::Store, 1)]; // 0x12..0x16
        let sj = vec![sized_access(2, 0x15, 2, AccessKind::Load, 2)]; // 0x15..0x17
        let (fi, fj) = filter_out(&si, &sj);
        assert_eq!(fi.len(), 1);
        assert_eq!(fj.len(), 1);
    }

    /// An unaligned store spanning a word boundary must register both word
    /// slots, so a load touching only the second word still pairs with it.
    #[test]
    fn straddling_store_registers_both_words() {
        let si = vec![sized_access(1, 0x14, 8, AccessKind::Store, 1)]; // 0x14..0x1c
        let sj = vec![sized_access(2, 0x18, 4, AccessKind::Load, 2)]; // 0x18..0x1c
        let (fi, fj) = filter_out(&si, &sj);
        assert_eq!(fi.len(), 1, "store covers slot 0x18 too");
        assert_eq!(fj.len(), 1);
    }

    /// Same-word but byte-disjoint accesses do *not* share memory: word
    /// alignment must not widen the overlap test itself.
    #[test]
    fn byte_disjoint_accesses_in_one_word_stay_private() {
        let si = vec![sized_access(1, 0x10, 2, AccessKind::Store, 1)]; // 0x10..0x12
        let sj = vec![sized_access(2, 0x16, 2, AccessKind::Load, 2)]; // 0x16..0x18
        let (fi, fj) = filter_out(&si, &sj);
        assert!(fi.is_empty(), "no byte overlap, no sharing");
        assert!(fj.is_empty());
    }

    #[test]
    fn filter_out_keeps_barriers() {
        let si = vec![
            access(1, 0x10, AccessKind::Store, 1),
            barrier(BarrierKind::Wmb, 2),
            access(2, 0x90, AccessKind::Store, 3),
        ];
        let sj = vec![access(3, 0x10, AccessKind::Load, 4)];
        let (fi, _) = filter_out(&si, &sj);
        assert_eq!(fi.len(), 2, "the barrier survives");
        assert!(fi[1].as_barrier().is_some());
    }

    #[test]
    fn figure5a_store_hints() {
        // W(a), W(b), W(c), W(d) with no barrier: the maximal hint delays
        // a, b, c and breaks after d.
        let si: Vec<_> = (0..4)
            .map(|i| access(i + 1, 0x10 + i * 8, AccessKind::Store, i + 1))
            .collect();
        let sj: Vec<_> = (0..4)
            .map(|i| access(10 + i, 0x10 + i * 8, AccessKind::Load, 10 + i))
            .collect();
        let hints = calc_hints(&si, &sj);
        let store_hints: Vec<_> = hints
            .iter()
            .filter(|h| h.kind == HintKind::StoreBarrier && h.reorderer == PairSide::First)
            .collect();
        assert_eq!(store_hints.len(), 3, "hypothetical barrier slides upward");
        let max = &store_hints[0];
        assert_eq!(max.reorder.len(), 3);
        assert_eq!(max.sched.iid, Iid(4), "break at W(d)");
        // Sliding: the hypothetical barrier moves up — the reorder set
        // shrinks to {a, b}, then {a} — while the scheduling point stays at
        // W(d), just before the group's actual boundary.
        assert_eq!(store_hints[1].reorder.len(), 2);
        assert_eq!(store_hints[1].sched.iid, Iid(4));
        assert_eq!(store_hints[2].reorder.len(), 1);
        assert_eq!(store_hints[2].sched.iid, Iid(4));
    }

    #[test]
    fn figure5b_load_hints() {
        // Reader R(w), R(z), R(y), R(x); writer stores to all four. The
        // maximal load hint versions z, y, x and breaks before w.
        let si: Vec<_> = (0..4)
            .map(|i| access(i + 1, 0x10 + i * 8, AccessKind::Store, i + 1))
            .collect();
        let sj: Vec<_> = (0..4)
            .map(|i| access(10 + i, 0x10 + i * 8, AccessKind::Load, 10 + i))
            .collect();
        let hints = calc_hints(&si, &sj);
        let load_hints: Vec<_> = hints
            .iter()
            .filter(|h| h.kind == HintKind::LoadBarrier && h.reorderer == PairSide::Second)
            .collect();
        assert_eq!(load_hints.len(), 3);
        let max = &load_hints[0];
        assert_eq!(max.reorder.len(), 3);
        assert_eq!(max.sched.iid, Iid(10), "break before R(w)");
    }

    #[test]
    fn barriers_bound_groups() {
        // W(a), wmb, W(b), W(c): store hints may only reorder within
        // {b, c}, never across the wmb.
        let si = vec![
            access(1, 0x10, AccessKind::Store, 1),
            barrier(BarrierKind::Wmb, 2),
            access(2, 0x18, AccessKind::Store, 3),
            access(3, 0x20, AccessKind::Store, 4),
        ];
        let sj: Vec<_> = (0..3)
            .map(|i| access(10 + i, 0x10 + i * 8, AccessKind::Load, 10 + i))
            .collect();
        let hints = calc_hints(&si, &sj);
        for h in hints.iter().filter(|h| h.reorderer == PairSide::First) {
            assert!(
                h.reorder.iter().all(|a| a.iid != Iid(1)),
                "W(a) is protected by the real barrier"
            );
        }
    }

    #[test]
    fn load_barriers_do_not_bound_store_groups() {
        // An rmb between stores is irrelevant to the store test.
        let si = vec![
            access(1, 0x10, AccessKind::Store, 1),
            barrier(BarrierKind::Rmb, 2),
            access(2, 0x18, AccessKind::Store, 3),
        ];
        let sj = vec![
            access(10, 0x10, AccessKind::Load, 10),
            access(11, 0x18, AccessKind::Load, 11),
        ];
        let hints = calc_hints(&si, &sj);
        assert!(
            hints.iter().any(|h| h.kind == HintKind::StoreBarrier
                && h.reorderer == PairSide::First
                && h.reorder.iter().any(|a| a.iid == Iid(1))),
            "the rmb must not protect stores"
        );
    }

    #[test]
    fn hints_sorted_by_reorder_count() {
        let si: Vec<_> = (0..5)
            .map(|i| access(i + 1, 0x10 + i * 8, AccessKind::Store, i + 1))
            .collect();
        let sj: Vec<_> = (0..5)
            .map(|i| access(10 + i, 0x10 + i * 8, AccessKind::Load, 10 + i))
            .collect();
        let hints = calc_hints(&si, &sj);
        for w in hints.windows(2) {
            assert!(w[0].reorder.len() >= w[1].reorder.len());
        }
        assert_eq!(hints[0].reorder.len(), 4, "maximal deviation first");
    }

    #[test]
    fn rmw_accesses_are_never_in_reorder_sets() {
        let si = vec![
            access(1, 0x10, AccessKind::Store, 1),
            TraceEvent::Access(AccessRecord {
                iid: Iid(2),
                addr: 0x18,
                size: 8,
                kind: AccessKind::Rmw,
                ts: 2,
            }),
            access(3, 0x20, AccessKind::Store, 3),
        ];
        let sj: Vec<_> = (0..3)
            .map(|i| access(10 + i, 0x10 + i * 8, AccessKind::Load, 10 + i))
            .collect();
        let hints = calc_hints(&si, &sj);
        for h in &hints {
            assert!(h.reorder.iter().all(|a| a.kind != AccessKind::Rmw));
        }
    }

    #[test]
    fn occurrence_counting_handles_loops() {
        // The same iid executes three times; the scheduling point on its
        // third occurrence must carry hit = 3.
        let si = vec![
            access(1, 0x10, AccessKind::Store, 1),
            access(1, 0x18, AccessKind::Store, 2),
            access(1, 0x20, AccessKind::Store, 3),
        ];
        let sj: Vec<_> = (0..3)
            .map(|i| access(10 + i, 0x10 + i * 8, AccessKind::Load, 10 + i))
            .collect();
        let hints = calc_hints(&si, &sj);
        let max = hints
            .iter()
            .find(|h| h.kind == HintKind::StoreBarrier && h.reorderer == PairSide::First)
            .unwrap();
        assert_eq!(max.sched_hit, 3);
    }

    #[test]
    fn no_hints_without_shared_memory() {
        let si = vec![access(1, 0x10, AccessKind::Store, 1)];
        let sj = vec![access(2, 0x90, AccessKind::Load, 2)];
        assert!(calc_hints(&si, &sj).is_empty());
    }

    #[test]
    fn barrier_location_names_the_hint() {
        let si: Vec<_> = (0..2)
            .map(|i| access(i + 1, 0x10 + i * 8, AccessKind::Store, i + 1))
            .collect();
        let sj = vec![
            access(10, 0x10, AccessKind::Load, 10),
            access(11, 0x18, AccessKind::Load, 11),
        ];
        let hints = calc_hints(&si, &sj);
        let store = hints
            .iter()
            .find(|h| h.kind == HintKind::StoreBarrier)
            .unwrap();
        assert!(store.barrier_location().contains("smp_wmb"));
        let load = hints
            .iter()
            .find(|h| h.kind == HintKind::LoadBarrier)
            .unwrap();
        assert!(load.barrier_location().contains("smp_rmb"));
    }

    /// Model-aware grouping: a `READ_ONCE` between two loads closes the
    /// load group under TSO/PSO (no group of two, no load-test hints) but
    /// not under Arm, where it is not a load barrier — so the Arm hint set
    /// reorders across it.
    #[test]
    fn arm_load_groups_span_read_once() {
        let si = vec![
            access(1, 0x10, AccessKind::Load, 1),
            barrier(BarrierKind::ReadOnce, 2),
            access(2, 0x18, AccessKind::Load, 3),
        ];
        let sj = vec![
            access(10, 0x10, AccessKind::Store, 10),
            access(11, 0x18, AccessKind::Store, 11),
        ];
        let load_hints = |model: MemoryModel| {
            calc_hints_for(&si, &sj, model)
                .into_iter()
                .filter(|h| h.kind == HintKind::LoadBarrier && h.reorderer == PairSide::First)
                .count()
        };
        assert_eq!(
            load_hints(MemoryModel::Tso),
            0,
            "READ_ONCE splits the group"
        );
        assert_eq!(load_hints(MemoryModel::Pso), 0, "PSO keeps TSO's load side");
        assert!(load_hints(MemoryModel::Arm) > 0, "Arm reorders across it");
        // TSO output of the model-parameterised entry point is identical
        // to the legacy one.
        assert_eq!(
            calc_hints(&si, &sj),
            calc_hints_for(&si, &sj, MemoryModel::Tso)
        );
    }
}
