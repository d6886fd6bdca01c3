//! Lockdep: runtime lock-ordering oracle.
//!
//! A minimal analog of the kernel's lockdep validator (one of the
//! bug-detecting oracles the paper's §4.4 plugs into): it records the
//! "acquired-while-holding" edges between lock classes and reports a fault
//! when a new acquisition would close a cycle — the signature of a
//! potential ABBA deadlock.

use std::collections::{HashMap, HashSet};

use kutil::sync::Mutex;
use oemu::Tid;

use crate::report::{Fault, FaultKind};

/// Identifier of a lock class.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct LockId(pub u64);

#[derive(Default)]
struct Inner {
    /// Lock classes currently held, per thread, in acquisition order.
    held: HashMap<Tid, Vec<LockId>>,
    /// Recorded ordering edges: (earlier, later).
    edges: HashSet<(LockId, LockId)>,
    /// Armed undo frames, oldest first — one per live snapshot.
    frames: Vec<LockdepFrame>,
    force_full_restore: bool,
}

/// One undo frame. Edges are only ever *inserted* between snapshots, so
/// rollback removes exactly the edges recorded as newly inserted (in
/// reverse); the held map is tiny and mutated on nearly every acquisition,
/// so it is flag-tracked and `clone_from`d on a dirty rollback instead.
struct LockdepFrame {
    generation: u64,
    edges_added: Vec<(LockId, LockId)>,
    held_dirty: bool,
}

/// Deepest snapshot nesting tracked; mirrors the engine's frame cap.
const MAX_FRAMES: usize = 8;

/// The lock-ordering oracle.
#[derive(Default)]
pub struct Lockdep {
    inner: Mutex<Inner>,
}

/// A full copy of the oracle's state: held locks and learned ordering
/// edges. Restoring the boot snapshot forgets every edge a test run
/// taught the oracle, so a reset machine rediscovers inversions exactly
/// as a fresh boot would.
#[derive(Clone)]
pub struct LockdepSnapshot {
    held: HashMap<Tid, Vec<LockId>>,
    edges: HashSet<(LockId, LockId)>,
    /// Undo-journal generation id; not part of the digest.
    generation: u64,
}

impl LockdepSnapshot {
    /// Appends a deterministic rendering of the captured state to `out`
    /// (hash containers are sorted first).
    pub fn digest(&self, out: &mut String) {
        digest_state(out, &self.held, &self.edges);
    }

    /// The snapshot's undo-journal generation id.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// The one rendering of oracle state both digests share: a snapshot's
/// [`LockdepSnapshot::digest`] and the live [`Lockdep::digest_live`] must
/// be byte-identical for the same state.
fn digest_state(
    out: &mut String,
    held: &HashMap<Tid, Vec<LockId>>,
    edges: &HashSet<(LockId, LockId)>,
) {
    use std::fmt::Write;
    let mut held: Vec<_> = held.iter().map(|(t, l)| (t.0, l)).collect();
    held.sort_unstable();
    for (tid, locks) in held {
        writeln!(out, "lockdep held tid={tid} {locks:?}").unwrap();
    }
    let mut edges: Vec<_> = edges.iter().collect();
    edges.sort_unstable();
    writeln!(out, "lockdep edges {edges:?}").unwrap();
}

impl Lockdep {
    /// Captures the oracle's full state and arms an undo frame under the
    /// snapshot's fresh generation id.
    pub fn snapshot(&self) -> LockdepSnapshot {
        let mut inner = self.inner.lock();
        let generation = kutil::next_generation();
        if !inner.force_full_restore {
            if inner.frames.len() == MAX_FRAMES {
                inner.frames.remove(0);
            }
            inner.frames.push(LockdepFrame {
                generation,
                edges_added: Vec::new(),
                held_dirty: false,
            });
        }
        LockdepSnapshot {
            held: inner.held.clone(),
            edges: inner.edges.clone(),
            generation,
        }
    }

    /// Restores a previously captured state. When the snapshot's generation
    /// is armed, the newly learned edges are removed in reverse and the
    /// held map `clone_from`s only if some rolled-back frame dirtied it;
    /// otherwise both containers `clone_from` and the journal is re-armed
    /// at the restored generation. Returns `true` when the incremental path
    /// was taken.
    pub fn restore(&self, snap: &LockdepSnapshot) -> bool {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let armed = (!inner.force_full_restore)
            .then(|| {
                inner
                    .frames
                    .iter()
                    .position(|f| f.generation == snap.generation)
            })
            .flatten();
        match armed {
            Some(k) => {
                let mut held_dirty = false;
                while inner.frames.len() > k + 1 {
                    let frame = inner.frames.pop().expect("len > k+1");
                    held_dirty |= frame.held_dirty;
                    for edge in frame.edges_added.into_iter().rev() {
                        inner.edges.remove(&edge);
                    }
                }
                let top = &mut inner.frames[k];
                held_dirty |= top.held_dirty;
                top.held_dirty = false;
                for edge in std::mem::take(&mut top.edges_added).into_iter().rev() {
                    inner.edges.remove(&edge);
                }
                if held_dirty {
                    inner.held.clone_from(&snap.held);
                }
                true
            }
            None => {
                inner.held.clone_from(&snap.held);
                inner.edges.clone_from(&snap.edges);
                inner.frames.clear();
                if !inner.force_full_restore {
                    inner.frames.push(LockdepFrame {
                        generation: snap.generation,
                        edges_added: Vec::new(),
                        held_dirty: false,
                    });
                }
                false
            }
        }
    }

    /// Forces every subsequent restore down the full `clone_from` path
    /// (benchmark baseline / diagnostics knob).
    pub fn set_force_full_restore(&self, on: bool) {
        let mut inner = self.inner.lock();
        inner.force_full_restore = on;
        if on {
            inner.frames.clear();
        }
    }

    /// Live-state digest, byte-identical to [`LockdepSnapshot::digest`] of
    /// a snapshot taken at this instant — without cloning the containers.
    pub fn digest_live(&self, out: &mut String) {
        let inner = self.inner.lock();
        digest_state(out, &inner.held, &inner.edges);
    }

    /// Creates an empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records acquisition of `lock` by `tid`; reports a fault when the new
    /// ordering edge closes a cycle with previously observed edges. `in_fn`
    /// names the faulting function and is called only on a fault.
    pub fn acquire(
        &self,
        tid: Tid,
        lock: LockId,
        in_fn: impl FnOnce() -> &'static str,
    ) -> Result<(), Fault> {
        self.acquire_or_cycle(tid, lock).map_err(|cycle| Fault {
            kind: FaultKind::LockInversion { cycle },
            addr: lock.0,
            in_fn: in_fn(),
        })
    }

    /// [`acquire`](Lockdep::acquire)'s bookkeeping; a fault is returned as
    /// the description of the cycle it closes.
    fn acquire_or_cycle(&self, tid: Tid, lock: LockId) -> Result<(), String> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        // Even a faulting acquire may have inserted the thread's (empty)
        // held entry just below, which is digest-visible state.
        if let Some(frame) = inner.frames.last_mut() {
            frame.held_dirty = true;
        }
        let held = inner.held.entry(tid).or_default().clone();
        for &h in &held {
            if h == lock {
                return Err(format!("recursive acquisition of lock {:#x}", lock.0));
            }
            if Self::reachable(&inner.edges, lock, h) {
                return Err(format!("{:#x} -> {:#x} closes a cycle", h.0, lock.0));
            }
        }
        for &h in &held {
            if inner.edges.insert((h, lock)) {
                // Only *newly* learned edges need undoing on rollback.
                if let Some(frame) = inner.frames.last_mut() {
                    frame.edges_added.push((h, lock));
                }
            }
        }
        inner.held.get_mut(&tid).expect("created above").push(lock);
        Ok(())
    }

    /// Records release of `lock` by `tid`.
    pub fn release(&self, tid: Tid, lock: LockId) {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        if let Some(held) = inner.held.get_mut(&tid) {
            if let Some(pos) = held.iter().rposition(|&l| l == lock) {
                held.remove(pos);
                if let Some(frame) = inner.frames.last_mut() {
                    frame.held_dirty = true;
                }
            }
        }
    }

    /// Lock classes currently held by `tid` (diagnostics / syscall-exit
    /// leak checking).
    pub fn held_by(&self, tid: Tid) -> Vec<LockId> {
        self.inner
            .lock()
            .held
            .get(&tid)
            .cloned()
            .unwrap_or_default()
    }

    /// Depth-first reachability over recorded edges.
    fn reachable(edges: &HashSet<(LockId, LockId)>, from: LockId, to: LockId) -> bool {
        if from == to {
            return true;
        }
        let mut stack = vec![from];
        let mut seen = HashSet::new();
        while let Some(node) = stack.pop() {
            if !seen.insert(node) {
                continue;
            }
            for &(a, b) in edges {
                if a == node {
                    if b == to {
                        return true;
                    }
                    stack.push(b);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: LockId = LockId(1);
    const B: LockId = LockId(2);
    const C: LockId = LockId(3);

    #[test]
    fn consistent_order_is_fine() {
        let ld = Lockdep::new();
        for _ in 0..3 {
            ld.acquire(Tid(0), A, || "f").unwrap();
            ld.acquire(Tid(0), B, || "f").unwrap();
            ld.release(Tid(0), B);
            ld.release(Tid(0), A);
        }
    }

    #[test]
    fn abba_inversion_detected() {
        let ld = Lockdep::new();
        ld.acquire(Tid(0), A, || "f").unwrap();
        ld.acquire(Tid(0), B, || "f").unwrap();
        ld.release(Tid(0), B);
        ld.release(Tid(0), A);
        ld.acquire(Tid(1), B, || "g").unwrap();
        let fault = ld.acquire(Tid(1), A, || "g").unwrap_err();
        assert!(matches!(fault.kind, FaultKind::LockInversion { .. }));
    }

    #[test]
    fn transitive_cycle_detected() {
        let ld = Lockdep::new();
        ld.acquire(Tid(0), A, || "f").unwrap();
        ld.acquire(Tid(0), B, || "f").unwrap();
        ld.release(Tid(0), B);
        ld.release(Tid(0), A);
        ld.acquire(Tid(0), B, || "f").unwrap();
        ld.acquire(Tid(0), C, || "f").unwrap();
        ld.release(Tid(0), C);
        ld.release(Tid(0), B);
        ld.acquire(Tid(1), C, || "g").unwrap();
        assert!(ld.acquire(Tid(1), A, || "g").is_err());
    }

    #[test]
    fn recursive_acquisition_detected() {
        let ld = Lockdep::new();
        ld.acquire(Tid(0), A, || "f").unwrap();
        assert!(ld.acquire(Tid(0), A, || "f").is_err());
    }

    #[test]
    fn held_by_tracks_state() {
        let ld = Lockdep::new();
        ld.acquire(Tid(0), A, || "f").unwrap();
        assert_eq!(ld.held_by(Tid(0)), vec![A]);
        ld.release(Tid(0), A);
        assert!(ld.held_by(Tid(0)).is_empty());
    }

    fn live_digest(ld: &Lockdep) -> String {
        let mut out = String::new();
        ld.digest_live(&mut out);
        out
    }

    #[test]
    fn incremental_restore_forgets_learned_edges() {
        let ld = Lockdep::new();
        ld.acquire(Tid(0), A, || "f").unwrap();
        ld.acquire(Tid(0), B, || "f").unwrap(); // boot learns A -> B
        ld.release(Tid(0), B);
        ld.release(Tid(0), A);
        let snap = ld.snapshot();
        let mut before = String::new();
        snap.digest(&mut before);
        assert_eq!(live_digest(&ld), before);
        // A test run learns B -> C and leaves a lock held.
        ld.acquire(Tid(1), B, || "g").unwrap();
        ld.acquire(Tid(1), C, || "g").unwrap();
        assert!(ld.restore(&snap), "incremental path taken");
        assert_eq!(live_digest(&ld), before);
        // The rolled-back machine rediscovers inversions like a fresh boot:
        // B -> A is fine again only if A -> B persisted — it did (pre-snap).
        ld.acquire(Tid(0), B, || "h").unwrap();
        assert!(ld.acquire(Tid(0), A, || "h").is_err(), "A->B edge survived");
    }

    #[test]
    fn re_learned_edge_is_not_unlearned_by_rollback() {
        // An edge that already existed at snapshot time and is re-inserted
        // afterwards must survive the rollback (insert() returning false
        // keeps it out of the frame's undo list).
        let ld = Lockdep::new();
        ld.acquire(Tid(0), A, || "f").unwrap();
        ld.acquire(Tid(0), B, || "f").unwrap();
        ld.release(Tid(0), B);
        ld.release(Tid(0), A);
        let snap = ld.snapshot();
        let mut before = String::new();
        snap.digest(&mut before);
        ld.acquire(Tid(0), A, || "f").unwrap();
        ld.acquire(Tid(0), B, || "f").unwrap(); // re-learns A -> B
        ld.release(Tid(0), B);
        ld.release(Tid(0), A);
        assert!(ld.restore(&snap));
        assert_eq!(live_digest(&ld), before);
    }

    #[test]
    fn cross_machine_restore_falls_back_to_full() {
        let a = Lockdep::new();
        a.acquire(Tid(0), A, || "f").unwrap();
        let snap = a.snapshot();
        let b = Lockdep::new();
        assert!(!b.restore(&snap));
        let mut d = String::new();
        snap.digest(&mut d);
        assert_eq!(live_digest(&b), d);
        b.acquire(Tid(1), C, || "g").unwrap();
        assert!(b.restore(&snap), "re-armed after fallback");
        assert_eq!(live_digest(&b), d);
    }
}
