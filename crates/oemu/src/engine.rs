//! The emulation engine tying together store buffer, history, and windows.
//!
//! One [`Engine`] instance models the memory subsystem of one simulated
//! machine for the duration of one test run. Every instrumented access of
//! the simulated kernel flows through it; the engine decides, based on the
//! per-thread control sets installed through the Table 2 interfaces, whether
//! a store commits or is delayed and whether a load reads memory, a
//! forwarded buffer entry, or an old version from the store history.
//!
//! # LKMM compliance (§3.3 / Appendix §10.1)
//!
//! - **Case 1** (`smp_mb`): [`Engine::smp_mb`] flushes the store buffer and
//!   resets the versioning window, so no access crosses it in either
//!   direction (loads are never delayed; delayed stores commit at the
//!   barrier; later loads cannot read values older than the barrier).
//! - **Case 2** (`smp_wmb`): flushing the buffer commits every delayed store
//!   before any later store can commit.
//! - **Case 3** (`smp_rmb`): resetting the window forbids later loads from
//!   observing pre-images older than the barrier.
//! - **Case 4** (acquire): the load half resets the window; the store half is
//!   free because delayed stores only ever move *later* in time.
//! - **Case 5** (release): the buffer is flushed immediately before the
//!   release store commits, and the release store itself is never delayed.
//! - **Case 6** (address dependency from a `READ_ONCE`): `READ_ONCE` and
//!   atomic reads are treated as an implied `smp_rmb` after the load. Plain
//!   dependent loads remain reorderable — the Alpha rule.
//! - **Case 7** (dependencies into stores): OEMU does not emulate load-store
//!   reordering at all (loads are never delayed past stores and stores are
//!   only delayed *later*), so every load-store dependency is trivially
//!   respected.

use std::collections::{HashMap, HashSet};

use kutil::sync::Mutex;
use kutil::FxBuildHasher;

use crate::history::{StoreHistory, StoreRecord};
use crate::iid::Iid;
use crate::memory::Memory;
use crate::profile::{AccessRecord, BarrierRecord, Profile, TraceEvent};
use crate::store_buffer::{BufferedStore, Forward, StoreBuffer};
use crate::trace::{LoadSrc, ReplayStatus, TraceStep};
use crate::types::{AccessKind, BarrierKind, LoadAnn, MemoryModel, RmwOrder, StoreAnn, Tid};

/// Counters exposed for diagnostics and the ablation benchmarks.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Stores committed to memory (immediately or by a flush).
    pub commits: u64,
    /// Stores that entered the virtual store buffer.
    pub delayed: u64,
    /// Loads satisfied by store-to-load forwarding.
    pub forwards: u64,
    /// Loads that read an old version from the store history.
    pub versioned_reads: u64,
    /// Barriers executed.
    pub barriers: u64,
    /// Profile event buffers handed back out by
    /// [`Engine::take_profile`] without a fresh allocation — each one is a
    /// `Vec<TraceEvent>` recycled through the machine-reset path instead of
    /// dropped. Cumulative across resets (a machine-lifetime counter, not
    /// per-run state).
    pub profile_bufs_recycled: u64,
    /// Restores served by the undo journal — only the state mutated since
    /// the target snapshot was rolled back. Machine-lifetime counter.
    pub restores_incremental: u64,
    /// Memory pre-images replayed by incremental restores: the exact work
    /// the journal paid where a full restore would have re-cloned the whole
    /// word table. Machine-lifetime counter.
    pub restore_words_replayed: u64,
    /// Restores that took the full `clone_from` path: the target's
    /// generation was not armed in the journal (cross-machine restore,
    /// superseded snapshot, invalidated journal) or full restore was
    /// forced. Machine-lifetime counter.
    pub restore_full_fallbacks: u64,
    /// Deepest memory undo journal observed at a restore, in entries —
    /// how much reset debt the machine ever accumulated. Machine-lifetime
    /// counter.
    pub journal_peak_words: u64,
}

/// Whether the engine is recording or replaying a schedule trace.
#[derive(Default, Clone, Copy, PartialEq, Eq)]
enum TraceMode {
    #[default]
    Off,
    Record,
    Replay,
}

/// Record/replay state. Deliberately *not* part of [`EngineSnapshot`]
/// (like `spare_events`): a recording or replay spans exactly one pair
/// run, and machine snapshot/restore never happens inside one.
#[derive(Default)]
struct TraceState {
    mode: TraceMode,
    /// Recorded steps (record mode) or the script to impose (replay mode).
    steps: Vec<TraceStep>,
    /// Replay cursor into `steps`.
    pos: usize,
    /// Replay departed from the script; decisions fell back to in-order.
    diverged: bool,
}

/// Per-thread dirty tracking within one undo-journal frame. Flags are set
/// unconditionally on the mutation paths (a plain store, no branch or hash
/// cost); a restore `clone_from`s a collection only when some armed frame
/// at or above the target saw it mutated, and skips it entirely otherwise.
#[derive(Default, Clone)]
struct ThreadFrame {
    /// The store buffer gained or drained entries.
    buffer_dirty: bool,
    /// The per-location coherence floor moved (set on nearly every load —
    /// which is exactly why the floor is flag-tracked, not entry-journaled).
    floor_dirty: bool,
    /// `delay_store_at`/`clear_controls` touched the delay set.
    delay_dirty: bool,
    /// `read_old_value_at`/`clear_controls` touched the read-old set.
    read_old_dirty: bool,
    /// Profile event count when the frame was pushed. Profiling appends
    /// events in order, so rolling back truncates to this length —
    /// unless the buffer was swapped out ([`Engine::take_profile`]), which
    /// sets `profile_replaced` below.
    profile_len: usize,
    /// `take_profile` swapped this thread's event buffer while the frame
    /// held a non-empty baseline: the baseline content is gone, so restore
    /// must `clone_from` the snapshot's events instead of truncating.
    profile_replaced: bool,
}

/// One frame of the engine's undo journal, armed by [`Engine::snapshot`]
/// and keyed by the snapshot's generation id. The memory pre-image frame
/// lives inside [`Memory`] at the same stack position.
struct EngineFrame {
    generation: u64,
    /// Store-history length at the frame push; restore truncates back to it
    /// (the history is append-only between snapshots).
    hist_len: usize,
    threads: Vec<ThreadFrame>,
}

/// Deepest snapshot nesting the undo journal tracks. The campaign loop
/// needs two (boot + post-setup); pushing past the cap drops the oldest
/// frame, whose generation then restores via the full fallback path.
const MAX_FRAMES: usize = 8;

#[derive(Default, Clone)]
struct ThreadState {
    buffer: StoreBuffer,
    /// Start of the versioning window `(window_start, now]` — the commit
    /// clock at this thread's most recent load-ordering barrier.
    window_start: u64,
    /// Per-location read-coherence floor: once this thread observed the
    /// value a location held at time `t`, later loads of that location must
    /// not observe anything older (the CoRR guarantee every architecture —
    /// including Alpha — provides). Keyed by simulated address (hence
    /// [`kutil::FxHasher`]); values are commit timestamps.
    obs_floor: HashMap<u64, u64, FxBuildHasher>,
    delay_set: HashSet<Iid>,
    read_old_set: HashSet<Iid>,
    profile: Profile,
}

struct Inner {
    mem: Memory,
    history: StoreHistory,
    /// Commit clock: increments once per committed store.
    clock: u64,
    /// Profiling sequence: increments once per recorded event.
    seq: u64,
    profiling: bool,
    threads: Vec<ThreadState>,
    stats: EngineStats,
    /// Retired profile event buffers awaiting reuse by `take_profile`.
    /// Deliberately *not* part of [`EngineSnapshot`]: the spare pool is an
    /// allocation cache with no semantic content, and it must survive
    /// machine resets for the recycling to pay off.
    spare_events: Vec<Vec<TraceEvent>>,
    /// Schedule-trace record/replay state (see [`TraceState`]).
    trace: TraceState,
    /// Armed undo-journal frames, oldest first — one per live snapshot,
    /// aligned index-for-index with the memory journal's frames.
    /// Deliberately *not* part of [`EngineSnapshot`]: the journal describes
    /// how to get *back* to snapshots, it is not machine state itself.
    frames: Vec<EngineFrame>,
    /// Diagnostics/benchmark knob: every restore takes the full
    /// `clone_from` path and no frames are armed, reproducing the
    /// pre-journal cost model exactly.
    force_full_restore: bool,
    /// The memory model this engine emulates. Machine identity, not
    /// mutable state: fixed at construction, deliberately excluded from
    /// [`EngineSnapshot`] and its digest (machines of different models are
    /// never digest-compared; the pool keys shelves on the model instead).
    model: MemoryModel,
}

/// A full copy of one engine's semantic state — memory words, store
/// history, commit clock, profiling sequence, and every per-thread buffer,
/// window, coherence floor, control set, and in-progress profile.
///
/// Captured by [`Engine::snapshot`] and written back by
/// [`Engine::restore`]; restoring into a live engine reuses its existing
/// allocations, which is what makes a machine reset cheaper than a boot.
#[derive(Clone)]
pub struct EngineSnapshot {
    mem: Memory,
    history: StoreHistory,
    clock: u64,
    seq: u64,
    profiling: bool,
    threads: Vec<ThreadState>,
    stats: EngineStats,
    /// Process-unique id ([`kutil::next_generation`]) keying the undo
    /// journal: a restore whose generation is armed rolls back
    /// incrementally; any other falls back to the full `clone_from`.
    /// Not part of the digest — it names the snapshot, it is not state.
    generation: u64,
}

impl EngineSnapshot {
    /// Appends a deterministic rendering of the captured state to `out`.
    ///
    /// Hash-map iteration order never leaks: memory words, coherence
    /// floors, and control sets are sorted first. The [`EngineStats`]
    /// counters are deliberately excluded — they are diagnostics that never
    /// influence execution, and the recycle counter is defined to survive
    /// resets.
    pub fn digest(&self, out: &mut String) {
        digest_state(
            out,
            self.clock,
            self.seq,
            self.profiling,
            &self.mem,
            &self.history,
            &self.threads,
        );
    }

    /// The snapshot's undo-journal generation id.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// The one rendering of engine state both digests share: a snapshot's
/// [`EngineSnapshot::digest`] and the live [`Engine::digest_live`] must be
/// byte-identical for equal state, so they funnel through this function.
fn digest_state(
    out: &mut String,
    clock: u64,
    seq: u64,
    profiling: bool,
    mem: &Memory,
    history: &StoreHistory,
    threads: &[ThreadState],
) {
    use std::fmt::Write;
    writeln!(out, "engine clock={clock} seq={seq} profiling={profiling}").unwrap();
    for (addr, value) in mem.sorted_words() {
        writeln!(out, "mem {addr:#x}={value:#x}").unwrap();
    }
    for r in history.records() {
        writeln!(out, "hist {r:?}").unwrap();
    }
    for (i, t) in threads.iter().enumerate() {
        writeln!(out, "thread {i} window_start={}", t.window_start).unwrap();
        for e in t.buffer.entries() {
            writeln!(out, "  buffered {e:?}").unwrap();
        }
        let mut floors: Vec<_> = t.obs_floor.iter().collect();
        floors.sort_unstable();
        for (addr, ts) in floors {
            writeln!(out, "  floor {addr:#x}@{ts}").unwrap();
        }
        let mut delays: Vec<_> = t.delay_set.iter().collect();
        delays.sort_unstable();
        writeln!(out, "  delay_set {delays:?}").unwrap();
        let mut read_olds: Vec<_> = t.read_old_set.iter().collect();
        read_olds.sort_unstable();
        writeln!(out, "  read_old_set {read_olds:?}").unwrap();
        for ev in &t.profile.events {
            writeln!(out, "  profiled {ev:?}").unwrap();
        }
    }
}

/// The OEMU engine for one simulated machine.
///
/// Thread-safe: simulated CPUs are real OS threads serialised by the custom
/// scheduler, but the engine protects itself with a lock so it is also sound
/// under unserialised access (e.g. in unit tests).
pub struct Engine {
    inner: Mutex<Inner>,
}

impl Engine {
    /// Creates a TSO engine for `nthreads` simulated CPUs, all with empty
    /// control sets (i.e. in-order execution by default, per §3.1).
    pub fn new(nthreads: usize) -> Self {
        Self::new_with_model(nthreads, MemoryModel::Tso)
    }

    /// [`new`](Engine::new) under an explicit [`MemoryModel`]. The model is
    /// fixed for the engine's lifetime.
    pub fn new_with_model(nthreads: usize, model: MemoryModel) -> Self {
        let threads = (0..nthreads)
            .map(|i| ThreadState {
                profile: Profile::new(Tid(i)),
                ..ThreadState::default()
            })
            .collect();
        Engine {
            inner: Mutex::new(Inner {
                mem: Memory::new(),
                history: StoreHistory::new(),
                clock: 0,
                seq: 0,
                profiling: false,
                threads,
                stats: EngineStats::default(),
                spare_events: Vec::new(),
                trace: TraceState::default(),
                frames: Vec::new(),
                force_full_restore: false,
                model,
            }),
        }
    }

    /// The memory model this engine was constructed with.
    pub fn memory_model(&self) -> MemoryModel {
        self.inner.lock().model
    }

    // ------------------------------------------------------------------
    // Snapshot / restore (machine reset support).
    // ------------------------------------------------------------------

    /// Captures the engine's full semantic state and arms an undo-journal
    /// frame under the snapshot's fresh generation id, so a later
    /// [`restore`](Engine::restore) to it rolls back only the state mutated
    /// in between. With [`set_force_full_restore`](Engine::set_force_full_restore)
    /// active no frame is armed (the pre-journal cost model).
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut inner = self.inner.lock();
        let generation = kutil::next_generation();
        if !inner.force_full_restore {
            inner.push_frame(generation);
        }
        EngineSnapshot {
            mem: inner.mem.clone(),
            history: inner.history.clone(),
            clock: inner.clock,
            seq: inner.seq,
            profiling: inner.profiling,
            threads: inner.threads.clone(),
            stats: inner.stats,
            generation,
        }
    }

    /// Restores a previously captured state, reusing the engine's existing
    /// allocations (memory table, history log, per-thread sets and event
    /// buffers keep their capacity). The spare-buffer pool and the
    /// machine-lifetime counters (`profile_bufs_recycled` and the restore/
    /// journal diagnostics) survive the restore.
    ///
    /// When the snapshot's generation is armed in the undo journal the
    /// restore is *incremental*: memory pre-images replay backwards, the
    /// store history truncates to its frame baseline, and per-thread
    /// collections are copied only if some armed frame saw them mutated.
    /// Otherwise — cross-machine restore, superseded or pre-journal
    /// snapshot, invalidated journal, or forced — the full `clone_from`
    /// path runs and `restore_full_fallbacks` counts it; the journal is
    /// then re-armed at the restored generation (the machine now *is* that
    /// snapshot), so repeat restores to it become incremental.
    pub fn restore(&self, snap: &EngineSnapshot) {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let depth = inner.mem.journal_entries();
        inner.stats.journal_peak_words = inner.stats.journal_peak_words.max(depth);
        let armed = (!inner.force_full_restore)
            .then(|| {
                inner
                    .frames
                    .iter()
                    .position(|f| f.generation == snap.generation)
            })
            .flatten();
        match armed {
            Some(k) => inner.restore_incremental(k, snap),
            None => inner.restore_full(snap),
        }
    }

    /// Forces every subsequent restore down the full `clone_from` path and
    /// disarms the undo journal (no frames are pushed while set) — the
    /// pre-journal cost model, for differential tests and the benchmark's
    /// comparison arm. Semantically invisible either way.
    pub fn set_force_full_restore(&self, on: bool) {
        let mut inner = self.inner.lock();
        inner.force_full_restore = on;
        if on {
            inner.frames.clear();
            inner.mem.journal_clear();
        }
    }

    /// Armed undo-journal frames (diagnostics for tests and benches).
    pub fn journal_depth(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// Live-state digest, byte-identical to [`EngineSnapshot::digest`] of a
    /// snapshot taken at this instant — without cloning any state or
    /// arming a journal frame.
    pub fn digest_live(&self, out: &mut String) {
        let inner = self.inner.lock();
        digest_state(
            out,
            inner.clock,
            inner.seq,
            inner.profiling,
            &inner.mem,
            &inner.history,
            &inner.threads,
        );
    }

    /// Hands a used profile event buffer back for reuse by a later
    /// [`take_profile`](Engine::take_profile), avoiding its reallocation.
    pub fn recycle_profile_events(&self, mut events: Vec<TraceEvent>) {
        events.clear();
        self.inner.lock().spare_events.push(events);
    }

    // ------------------------------------------------------------------
    // Schedule-trace record / replay.
    // ------------------------------------------------------------------

    /// Starts recording every instrumented engine event (store delay
    /// decisions, load sources, RMWs, barriers, non-empty flushes) into a
    /// step trace. Any previous recording is discarded.
    pub fn start_trace_recording(&self) {
        let mut inner = self.inner.lock();
        inner.trace = TraceState {
            mode: TraceMode::Record,
            ..TraceState::default()
        };
    }

    /// Stops recording and returns the recorded steps.
    pub fn take_recorded_trace(&self) -> Vec<TraceStep> {
        let mut inner = self.inner.lock();
        std::mem::take(&mut inner.trace).steps
    }

    /// Arms replay: subsequent instrumented events are checked against
    /// `steps` in order, and the recorded delay/versioning decisions are
    /// imposed in place of the live control sets. On any mismatch the
    /// engine marks the replay diverged, stops consuming steps, and
    /// reverts to default in-order behavior.
    pub fn start_trace_replay(&self, steps: Vec<TraceStep>) {
        let mut inner = self.inner.lock();
        inner.trace = TraceState {
            mode: TraceMode::Replay,
            steps,
            pos: 0,
            diverged: false,
        };
    }

    /// Disarms replay and reports how faithfully the execution followed
    /// the script. An under-consumed script counts as divergence.
    pub fn finish_trace_replay(&self) -> ReplayStatus {
        let mut inner = self.inner.lock();
        let t = std::mem::take(&mut inner.trace);
        ReplayStatus {
            diverged: t.diverged || t.pos != t.steps.len(),
            consumed: t.pos,
            total: t.steps.len(),
        }
    }

    // ------------------------------------------------------------------
    // Table 2 control interfaces.
    // ------------------------------------------------------------------

    /// `delay_store_at(I)`: when thread `tid` executes instruction `iid`, its
    /// store operation will be held in the virtual store buffer.
    pub fn delay_store_at(&self, tid: Tid, iid: Iid) {
        let mut inner = self.inner.lock();
        inner.threads[tid.0].delay_set.insert(iid);
        inner.mark_frame(tid, |f| f.delay_dirty = true);
    }

    /// `read_old_value_at(I)`: when thread `tid` executes instruction `iid`,
    /// its load operation will read an old value from the store history (if
    /// one is valid within the versioning window).
    pub fn read_old_value_at(&self, tid: Tid, iid: Iid) {
        let mut inner = self.inner.lock();
        inner.threads[tid.0].read_old_set.insert(iid);
        inner.mark_frame(tid, |f| f.read_old_dirty = true);
    }

    /// Removes all reordering instructions for `tid` (back to in-order).
    pub fn clear_controls(&self, tid: Tid) {
        let mut inner = self.inner.lock();
        if !inner.threads[tid.0].delay_set.is_empty() {
            inner.threads[tid.0].delay_set.clear();
            inner.mark_frame(tid, |f| f.delay_dirty = true);
        }
        if !inner.threads[tid.0].read_old_set.is_empty() {
            inner.threads[tid.0].read_old_set.clear();
            inner.mark_frame(tid, |f| f.read_old_dirty = true);
        }
    }

    // ------------------------------------------------------------------
    // Instrumented accesses.
    // ------------------------------------------------------------------

    /// An instrumented load of the word at `addr`.
    ///
    /// Hierarchical search per §3.1/§3.2: the thread's own store buffer
    /// first (store-to-load forwarding), then — if `iid` was marked by
    /// [`read_old_value_at`](Engine::read_old_value_at) — an old version from
    /// the store history valid within the versioning window, and finally
    /// memory.
    pub fn load(&self, tid: Tid, iid: Iid, addr: u64, ann: LoadAnn) -> u64 {
        self.load_sized(tid, iid, addr, 8, ann)
    }

    /// [`load`](Engine::load) with an explicit access size recorded in the
    /// profile (the engine's memory is word-granular regardless).
    pub fn load_sized(&self, tid: Tid, iid: Iid, addr: u64, size: u8, ann: LoadAnn) -> u64 {
        let mut inner = self.inner.lock();
        inner.record_access(tid, iid, addr, size, AccessKind::Load);

        // Width-aware forwarding probe. A partial overlap — a buffered
        // store that intersects the load's bytes but cannot satisfy it
        // whole — resolves conservatively: drain the buffer, read memory.
        // This happens *before* the replay step is consumed, so the flush
        // lands at the same script position in record and replay (both
        // make the identical decision from the identical buffer state).
        let (fwd, conflicted) = match inner.threads[tid.0].buffer.forward(addr, size) {
            Forward::Hit(v) => (Some(v), false),
            Forward::Miss => (None, false),
            Forward::Partial => {
                inner.flush_buffer(tid);
                (None, true)
            }
        };

        // In replay mode the recorded source decides whether to attempt a
        // versioned read; store-to-load forwarding stays mandatory (it is
        // per-location coherence, not a choice).
        let replaying = inner.trace.mode == TraceMode::Replay;
        let replay_src = if replaying {
            match inner.replay_next() {
                Some(TraceStep::Load {
                    tid: t,
                    iid: i,
                    src,
                }) if t == tid && i == iid => Some(src),
                _ => {
                    inner.trace.diverged = true;
                    None
                }
            }
        } else {
            None
        };

        let wants_old = inner.threads[tid.0].read_old_set.contains(&iid);
        enum Source {
            Forwarded(u64),
            Versioned(u64, u64),
            Memory,
        }
        let source = if let Some(v) = fwd {
            Source::Forwarded(v)
        } else {
            // After a partial-overlap drain the thread's own store just
            // committed; a versioned read could resurrect its pre-image
            // and break own-program-order coherence, so memory it is.
            let try_versioned = !conflicted
                && if replaying {
                    replay_src == Some(LoadSrc::Versioned)
                } else {
                    wants_old
                };
            if try_versioned {
                // Read coherence: the effective window start is also bounded
                // by this thread's last observation of the location, so two
                // loads of the same address never appear to travel backwards
                // (CoRR).
                let (floor, window_start) = {
                    let t = &inner.threads[tid.0];
                    (t.obs_floor.get(&addr).copied().unwrap_or(0), t.window_start)
                };
                let window = window_start.max(floor);
                match inner.history.old_version_at(tid, addr, window) {
                    Some((old, ts)) => Source::Versioned(old, ts),
                    None => Source::Memory,
                }
            } else {
                Source::Memory
            }
        };
        let actual = match source {
            Source::Forwarded(_) => LoadSrc::Forwarded,
            Source::Versioned(..) => LoadSrc::Versioned,
            Source::Memory => LoadSrc::Memory,
        };
        match inner.trace.mode {
            TraceMode::Off => {}
            TraceMode::Record => inner.trace.steps.push(TraceStep::Load {
                tid,
                iid,
                src: actual,
            }),
            TraceMode::Replay => {
                if replay_src != Some(actual) {
                    inner.trace.diverged = true;
                }
            }
        }
        let value = match source {
            Source::Forwarded(v) => {
                inner.stats.forwards += 1;
                v
            }
            Source::Versioned(old, ts) => {
                inner.stats.versioned_reads += 1;
                // The value read was current until `ts`; later same-address
                // loads may re-read it but nothing older.
                let floor = inner.threads[tid.0].obs_floor.entry(addr).or_insert(0);
                *floor = (*floor).max(ts.saturating_sub(1));
                inner.mark_frame(tid, |f| f.floor_dirty = true);
                old
            }
            Source::Memory => {
                let clock = inner.clock;
                let v = inner.mem.read(addr);
                let floor = inner.threads[tid.0].obs_floor.entry(addr).or_insert(0);
                *floor = (*floor).max(clock);
                inner.mark_frame(tid, |f| f.floor_dirty = true);
                v
            }
        };

        // READ_ONCE / acquire act as an implied load barrier *after* the
        // load (LKMM Cases 4 and 6): later loads cannot observe versions
        // older than this point.
        match ann {
            LoadAnn::Plain => {}
            LoadAnn::ReadOnce => inner.barrier_effect(tid, iid, BarrierKind::ReadOnce),
            LoadAnn::Acquire => inner.barrier_effect(tid, iid, BarrierKind::Acquire),
        }
        value
    }

    /// An instrumented store of `value` to the word at `addr`.
    ///
    /// Commits immediately (the in-order default) unless `iid` was marked by
    /// [`delay_store_at`](Engine::delay_store_at), in which case the value is
    /// held in the virtual store buffer. Release stores flush the buffer
    /// first (LKMM Case 5); whether the release store itself may then be
    /// delayed is a model capability
    /// ([`MemoryModel::release_store_is_delayable`]) — never on TSO.
    pub fn store(&self, tid: Tid, iid: Iid, addr: u64, value: u64, ann: StoreAnn) {
        self.store_sized(tid, iid, addr, value, 8, ann);
    }

    /// [`store`](Engine::store) with an explicit access size.
    pub fn store_sized(&self, tid: Tid, iid: Iid, addr: u64, value: u64, size: u8, ann: StoreAnn) {
        let mut inner = self.inner.lock();
        if ann == StoreAnn::Release {
            // The barrier half precedes the store half in program order.
            inner.barrier_effect(tid, iid, BarrierKind::Release);
        }
        inner.record_access(tid, iid, addr, size, AccessKind::Store);
        // Coherence: two stores by one thread to the same location are never
        // reordered (the LKMM's per-location ordering), so a store whose
        // byte range intersects an in-flight buffered entry must join the
        // buffer behind it even when not explicitly delayed. Overlap — not
        // exact address — is the test: committing a narrow store ahead of a
        // buffered wider one to the same bytes reorders them just the same.
        let must_join = inner.threads[tid.0].buffer.overlaps(addr, size);
        // A release store already flushed everything before it; whether the
        // release store *itself* may now be buffered (one-way barrier) is a
        // model capability — never on TSO, where stores form one total
        // order.
        let delayable = ann != StoreAnn::Release || inner.model.release_store_is_delayable();
        let live = delayable && (inner.threads[tid.0].delay_set.contains(&iid) || must_join);
        // In replay mode the recorded decision replaces the live one; the
        // release rule and coherence join stay mandatory either way.
        let delayed = match inner.trace.mode {
            TraceMode::Off => live,
            TraceMode::Record => {
                inner.trace.steps.push(TraceStep::Store {
                    tid,
                    iid,
                    delayed: live,
                });
                live
            }
            TraceMode::Replay => match inner.replay_next() {
                Some(TraceStep::Store {
                    tid: t,
                    iid: i,
                    delayed,
                }) if t == tid && i == iid => delayable && (delayed || must_join),
                _ => {
                    inner.trace.diverged = true;
                    live
                }
            },
        };
        if delayed {
            inner.stats.delayed += 1;
            inner.threads[tid.0].buffer.push(BufferedStore {
                addr,
                value,
                size,
                iid,
            });
            inner.mark_frame(tid, |f| f.buffer_dirty = true);
        } else {
            inner.commit(tid, iid, addr, value);
        }
    }

    /// An instrumented atomic read-modify-write; returns the old value.
    ///
    /// RMWs are single memory events in the LKMM: they are never delayed or
    /// versioned. Their ordering strength decides the implied barriers:
    /// relaxed RMWs (`clear_bit`) commit immediately *without* flushing the
    /// buffer — which is precisely how the paper's RDS bug (Figure 8) lets a
    /// lock release overtake the critical section's delayed stores.
    pub fn rmw(
        &self,
        tid: Tid,
        iid: Iid,
        addr: u64,
        f: impl FnOnce(u64) -> u64,
        order: RmwOrder,
    ) -> u64 {
        let mut inner = self.inner.lock();
        match order {
            RmwOrder::Full | RmwOrder::Release => {
                let kind = if order == RmwOrder::Full {
                    BarrierKind::Full
                } else {
                    BarrierKind::Release
                };
                inner.barrier_effect(tid, iid, kind);
            }
            RmwOrder::Relaxed | RmwOrder::Acquire => {
                // An overlapping buffered store would make the committed RMW
                // incoherent with the thread's own program order; drain it.
                // (Real hardware resolves the same-line conflict the same
                // way: the store buffer entry is forced out first.) How much
                // drains is the store-side model distinction: TSO's single
                // FIFO buffer can only retire from the front, so forcing one
                // entry out forces everything before it out too; PSO/Arm
                // per-address queues drain just the conflicting address and
                // leave unrelated delayed stores in flight.
                if inner.threads[tid.0].buffer.overlaps(addr, 8) {
                    if inner.model.rmw_drains_whole_buffer() {
                        inner.flush_buffer(tid);
                    } else {
                        inner.flush_overlapping(tid, addr, 8);
                    }
                }
            }
        }
        inner.trace_rmw(tid, iid);
        inner.record_access(tid, iid, addr, 8, AccessKind::Rmw);
        let old = inner.mem.read(addr);
        let new = f(old);
        inner.commit(tid, iid, addr, new);
        match order {
            RmwOrder::Full => inner.window_reset(tid),
            RmwOrder::Acquire => inner.barrier_effect(tid, iid, BarrierKind::Acquire),
            RmwOrder::Relaxed | RmwOrder::Release => {}
        }
        old
    }

    // ------------------------------------------------------------------
    // Barriers (Table 1).
    // ------------------------------------------------------------------

    /// `smp_mb()`: full barrier — flush the store buffer and reset the
    /// versioning window (LKMM Case 1).
    pub fn smp_mb(&self, tid: Tid, iid: Iid) {
        let mut inner = self.inner.lock();
        inner.barrier_effect(tid, iid, BarrierKind::Full);
    }

    /// `smp_wmb()`: store barrier — flush the store buffer (LKMM Case 2).
    pub fn smp_wmb(&self, tid: Tid, iid: Iid) {
        let mut inner = self.inner.lock();
        inner.barrier_effect(tid, iid, BarrierKind::Wmb);
    }

    /// `smp_rmb()`: load barrier — reset the versioning window (LKMM Case 3).
    pub fn smp_rmb(&self, tid: Tid, iid: Iid) {
        let mut inner = self.inner.lock();
        inner.barrier_effect(tid, iid, BarrierKind::Rmb);
    }

    /// Commits all delayed stores of `tid`.
    ///
    /// Called at syscall exit and on simulated interrupts — the paper's
    /// "experiencing an interrupt on the processor executing the thread"
    /// flush condition. A vCPU suspension by the custom scheduler is *not*
    /// an interrupt, so a scheduler-driven context switch deliberately does
    /// not flush (that is what makes Figure 5a's interleaving observable).
    pub fn flush_thread(&self, tid: Tid) {
        self.inner.lock().flush_buffer(tid);
    }

    // ------------------------------------------------------------------
    // Profiling.
    // ------------------------------------------------------------------

    /// Enables or disables five-tuple/three-tuple profiling (§4.2).
    pub fn set_profiling(&self, on: bool) {
        self.inner.lock().profiling = on;
    }

    /// Takes (and clears) the recorded profile of `tid`.
    ///
    /// The replacement profile reuses a buffer previously handed back via
    /// [`recycle_profile_events`](Engine::recycle_profile_events) when one
    /// is available, so steady-state profiling allocates nothing.
    pub fn take_profile(&self, tid: Tid) -> Profile {
        let mut inner = self.inner.lock();
        // The swap discards the thread's current event buffer. A frame
        // whose baseline was non-empty loses its truncate target (those
        // events are gone); one with an empty baseline stays consistent —
        // the fresh buffer is exactly the baseline again.
        for frame in &mut inner.frames {
            let tf = &mut frame.threads[tid.0];
            if tf.profile_len > 0 {
                tf.profile_replaced = true;
            }
        }
        let mut replacement = Profile::new(tid);
        if let Some(buf) = inner.spare_events.pop() {
            debug_assert!(buf.is_empty());
            replacement.events = buf;
            inner.stats.profile_bufs_recycled += 1;
        }
        std::mem::replace(&mut inner.threads[tid.0].profile, replacement)
    }

    // ------------------------------------------------------------------
    // Raw (uninstrumented) access, for the Table 5 overhead baseline and
    // for runtime-internal bookkeeping that must not perturb emulation.
    // ------------------------------------------------------------------

    /// Reads memory directly, bypassing buffer, history, and profiling.
    pub fn raw_load(&self, addr: u64) -> u64 {
        self.inner.lock().mem.read(addr)
    }

    /// Writes memory directly, bypassing buffer, history, and profiling.
    pub fn raw_store(&self, addr: u64, value: u64) {
        self.inner.lock().mem.write(addr, value);
    }

    /// Zeroes a freshly-allocated object's words (`kzalloc` semantics).
    pub fn raw_zero(&self, addr: u64, words: u64) {
        self.inner.lock().mem.zero_range(addr, words);
    }

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    /// Number of stores currently delayed in `tid`'s buffer.
    pub fn pending_stores(&self, tid: Tid) -> usize {
        self.inner.lock().threads[tid.0].buffer.len()
    }

    /// Current commit clock.
    pub fn clock(&self) -> u64 {
        self.inner.lock().clock
    }

    /// Snapshot of the engine counters.
    pub fn stats(&self) -> EngineStats {
        self.inner.lock().stats
    }

    /// Copy of the global store history (used by the in-vitro baseline).
    pub fn history_records(&self) -> Vec<StoreRecord> {
        self.inner.lock().history.records().to_vec()
    }

    /// Garbage-collects history entries older than every thread's window.
    pub fn gc_history(&self) {
        let mut inner = self.inner.lock();
        let horizon = inner
            .threads
            .iter()
            .map(|t| t.window_start)
            .min()
            .unwrap_or(0);
        inner.history.truncate_before(horizon);
        // Truncation rewrote record positions, so armed frames' history
        // baselines are meaningless now. Invalidate the whole journal:
        // affected generations simply fall back to a full restore.
        inner.frames.clear();
        inner.mem.journal_clear();
    }
}

impl Inner {
    // ------------------------------------------------------------------
    // Undo-journal plumbing.
    // ------------------------------------------------------------------

    /// Arms a fresh top frame under `generation`, evicting the oldest
    /// frame if the stack is at capacity (its generation becomes a
    /// full-restore fallback).
    fn push_frame(&mut self, generation: u64) {
        if self.frames.len() == MAX_FRAMES {
            self.frames.remove(0);
            self.mem.journal_drop_oldest();
        }
        self.mem.journal_push();
        self.frames.push(EngineFrame {
            generation,
            hist_len: self.history.len(),
            threads: self
                .threads
                .iter()
                .map(|t| ThreadFrame {
                    profile_len: t.profile.events.len(),
                    ..ThreadFrame::default()
                })
                .collect(),
        });
    }

    /// Marks the top frame's per-thread dirty state; a no-op while no
    /// frame is armed.
    #[inline]
    fn mark_frame(&mut self, tid: Tid, f: impl FnOnce(&mut ThreadFrame)) {
        if let Some(frame) = self.frames.last_mut() {
            f(&mut frame.threads[tid.0]);
        }
    }

    /// Rolls back to frame `k` (whose generation matched the snapshot):
    /// replay memory pre-images, truncate the history, copy only the
    /// dirty per-thread collections, pop the frames above `k` and leave
    /// frame `k` armed and clean.
    fn restore_incremental(&mut self, k: usize, snap: &EngineSnapshot) {
        debug_assert_eq!(self.frames[k].hist_len, snap.history.len());
        let words = self.mem.journal_rollback_to(k);
        self.history.truncate_to(self.frames[k].hist_len);
        self.clock = snap.clock;
        self.seq = snap.seq;
        self.profiling = snap.profiling;
        debug_assert_eq!(self.threads.len(), snap.threads.len());
        for (tid, (t, s)) in self.threads.iter_mut().zip(&snap.threads).enumerate() {
            // A collection is copied back iff some frame at or above the
            // target saw it mutated; clean collections still equal the
            // snapshot and are skipped entirely.
            let mut dirty = ThreadFrame::default();
            for frame in &self.frames[k..] {
                let tf = &frame.threads[tid];
                dirty.buffer_dirty |= tf.buffer_dirty;
                dirty.floor_dirty |= tf.floor_dirty;
                dirty.delay_dirty |= tf.delay_dirty;
                dirty.read_old_dirty |= tf.read_old_dirty;
                dirty.profile_replaced |= tf.profile_replaced;
            }
            if dirty.buffer_dirty {
                t.buffer.clone_from(&s.buffer);
            }
            if dirty.floor_dirty {
                t.obs_floor.clone_from(&s.obs_floor);
            }
            if dirty.delay_dirty {
                t.delay_set.clone_from(&s.delay_set);
            }
            if dirty.read_old_dirty {
                t.read_old_set.clone_from(&s.read_old_set);
            }
            t.window_start = s.window_start;
            t.profile.tid = s.profile.tid;
            if dirty.profile_replaced {
                t.profile.events.clone_from(&s.profile.events);
            } else {
                // Profiling appended in order since the frame push; drop
                // the tail. The baseline length was captured at the same
                // instant as the snapshot, so this is exact.
                debug_assert!(t.profile.events.len() >= self.frames[k].threads[tid].profile_len);
                t.profile
                    .events
                    .truncate(self.frames[k].threads[tid].profile_len);
            }
        }
        self.frames.truncate(k + 1);
        let top = self.frames.last_mut().expect("frame k kept");
        for tf in &mut top.threads {
            let profile_len = tf.profile_len;
            *tf = ThreadFrame {
                profile_len,
                ..ThreadFrame::default()
            };
        }
        self.restore_stats(snap.stats);
        self.stats.restores_incremental += 1;
        self.stats.restore_words_replayed += words;
    }

    /// The original whole-machine `clone_from` restore; afterwards the
    /// journal is re-armed at the restored snapshot's generation so the
    /// *next* restore to it takes the incremental path.
    fn restore_full(&mut self, snap: &EngineSnapshot) {
        self.mem.clone_from(&snap.mem); // clears the memory journal
        self.history.clone_from(&snap.history);
        self.clock = snap.clock;
        self.seq = snap.seq;
        self.profiling = snap.profiling;
        debug_assert_eq!(self.threads.len(), snap.threads.len());
        for (t, s) in self.threads.iter_mut().zip(&snap.threads) {
            t.buffer.clone_from(&s.buffer);
            t.window_start = s.window_start;
            t.obs_floor.clone_from(&s.obs_floor);
            t.delay_set.clone_from(&s.delay_set);
            t.read_old_set.clone_from(&s.read_old_set);
            t.profile.tid = s.profile.tid;
            t.profile.events.clone_from(&s.profile.events);
        }
        self.frames.clear();
        if !self.force_full_restore {
            // The machine now *is* the snapshot: re-arm the journal at its
            // generation so the next restore to it is incremental.
            self.push_frame(snap.generation);
        }
        self.restore_stats(snap.stats);
        self.stats.restore_full_fallbacks += 1;
    }

    /// Adopts the snapshot's per-run counters while preserving the
    /// machine-lifetime ones (they survive restores by definition).
    fn restore_stats(&mut self, snap: EngineStats) {
        let keep = self.stats;
        self.stats = snap;
        self.stats.profile_bufs_recycled = keep.profile_bufs_recycled;
        self.stats.restores_incremental = keep.restores_incremental;
        self.stats.restore_words_replayed = keep.restore_words_replayed;
        self.stats.restore_full_fallbacks = keep.restore_full_fallbacks;
        self.stats.journal_peak_words = keep.journal_peak_words;
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn record_access(&mut self, tid: Tid, iid: Iid, addr: u64, size: u8, kind: AccessKind) {
        if !self.profiling {
            return;
        }
        let ts = self.next_seq();
        self.threads[tid.0]
            .profile
            .events
            .push(TraceEvent::Access(AccessRecord {
                iid,
                addr,
                size,
                kind,
                ts,
            }));
    }

    fn record_barrier(&mut self, tid: Tid, iid: Iid, kind: BarrierKind) {
        if !self.profiling {
            return;
        }
        let ts = self.next_seq();
        self.threads[tid.0]
            .profile
            .events
            .push(TraceEvent::Barrier(BarrierRecord { iid, kind, ts }));
    }

    /// Applies a barrier's flush/window effects and records it.
    fn barrier_effect(&mut self, tid: Tid, iid: Iid, kind: BarrierKind) {
        self.stats.barriers += 1;
        self.record_barrier(tid, iid, kind);
        match self.trace.mode {
            TraceMode::Off => {}
            TraceMode::Record => self.trace.steps.push(TraceStep::Barrier { tid, iid, kind }),
            TraceMode::Replay => match self.replay_next() {
                Some(TraceStep::Barrier {
                    tid: t,
                    iid: i,
                    kind: k,
                }) if t == tid && i == iid && k == kind => {}
                _ => self.trace.diverged = true,
            },
        }
        // The model decides which barriers actually bound reordering: under
        // Arm a READ_ONCE is not a load barrier, so it leaves the
        // versioning window open (loads reorder unless smp_rmb/acquire).
        if self.model.barrier_orders_stores(kind) {
            self.flush_buffer(tid);
        }
        if self.model.barrier_orders_loads(kind) {
            self.window_reset(tid);
        }
    }

    /// Record/replay hook for an RMW (always in-order; verification only).
    fn trace_rmw(&mut self, tid: Tid, iid: Iid) {
        match self.trace.mode {
            TraceMode::Off => {}
            TraceMode::Record => self.trace.steps.push(TraceStep::Rmw { tid, iid }),
            TraceMode::Replay => match self.replay_next() {
                Some(TraceStep::Rmw { tid: t, iid: i }) if t == tid && i == iid => {}
                _ => self.trace.diverged = true,
            },
        }
    }

    /// Next replay step, or `None` once diverged or exhausted. Running past
    /// the script's end is itself a divergence (extra events occurred that
    /// the recording never saw), and after any divergence the cursor
    /// freezes so later events don't consume misaligned steps.
    fn replay_next(&mut self) -> Option<TraceStep> {
        if self.trace.diverged || self.trace.pos >= self.trace.steps.len() {
            self.trace.diverged = true;
            return None;
        }
        let step = self.trace.steps[self.trace.pos].clone();
        self.trace.pos += 1;
        Some(step)
    }

    fn window_reset(&mut self, tid: Tid) {
        let clock = self.clock;
        self.threads[tid.0].window_start = clock;
    }

    fn flush_buffer(&mut self, tid: Tid) {
        let drained = self.threads[tid.0].buffer.drain();
        if !drained.is_empty() {
            self.mark_frame(tid, |f| f.buffer_dirty = true);
        }
        self.commit_drained(tid, drained);
    }

    /// The PSO/Arm per-address-queue drain: commits only the buffered
    /// stores overlapping `[addr, addr + size)`, leaving the rest in
    /// flight.
    fn flush_overlapping(&mut self, tid: Tid, addr: u64, size: u8) {
        let drained = self.threads[tid.0].buffer.drain_overlapping(addr, size);
        if !drained.is_empty() {
            self.mark_frame(tid, |f| f.buffer_dirty = true);
        }
        self.commit_drained(tid, drained);
    }

    fn commit_drained(&mut self, tid: Tid, drained: Vec<BufferedStore>) {
        let committed = drained.len() as u32;
        for e in drained {
            self.commit(tid, e.iid, e.addr, e.value);
        }
        // Empty flushes (e.g. every in-order syscall exit) stay silent so
        // traces record decisions, not no-ops.
        if committed > 0 {
            match self.trace.mode {
                TraceMode::Off => {}
                TraceMode::Record => self.trace.steps.push(TraceStep::Flush { tid, committed }),
                TraceMode::Replay => match self.replay_next() {
                    Some(TraceStep::Flush {
                        tid: t,
                        committed: c,
                    }) if t == tid && c == committed => {}
                    _ => self.trace.diverged = true,
                },
            }
        }
    }

    fn commit(&mut self, tid: Tid, iid: Iid, addr: u64, value: u64) {
        self.clock += 1;
        let ts = self.clock;
        let prev = self.mem.write(addr, value);
        self.stats.commits += 1;
        self.history.record(StoreRecord {
            addr,
            prev,
            new: value,
            ts,
            tid,
            iid,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iid;

    const X: u64 = 0x1000;
    const Y: u64 = 0x1008;
    const Z: u64 = 0x1010;
    const W: u64 = 0x1018;

    #[test]
    fn in_order_by_default() {
        let e = Engine::new(2);
        e.store(Tid(0), iid!(), X, 1, StoreAnn::Plain);
        assert_eq!(e.load(Tid(1), iid!(), X, LoadAnn::Plain), 1);
        assert_eq!(e.pending_stores(Tid(0)), 0);
    }

    #[test]
    fn figure3_delayed_store_walkthrough() {
        // Figure 3: delay I1's store to &X; I2's store to &Y commits
        // immediately; smp_wmb flushes.
        let e = Engine::new(2);
        let i1 = iid!();
        let i2 = iid!();
        e.delay_store_at(Tid(0), i1);
        e.store(Tid(0), i1, X, 1, StoreAnn::Plain); // held in buffer
        assert_eq!(e.pending_stores(Tid(0)), 1);
        e.store(Tid(0), i2, Y, 2, StoreAnn::Plain); // commits
        assert_eq!(e.raw_load(X), 0);
        assert_eq!(e.raw_load(Y), 2);
        // Other cores observe Y updated before X — store-store reordering.
        assert_eq!(e.load(Tid(1), iid!(), X, LoadAnn::Plain), 0);
        assert_eq!(e.load(Tid(1), iid!(), Y, LoadAnn::Plain), 2);
        e.smp_wmb(Tid(0), iid!());
        assert_eq!(e.load(Tid(1), iid!(), X, LoadAnn::Plain), 1);
        assert_eq!(e.pending_stores(Tid(0)), 0);
    }

    #[test]
    fn store_forwarding_preserves_own_program_order() {
        let e = Engine::new(1);
        let i1 = iid!();
        e.delay_store_at(Tid(0), i1);
        e.store(Tid(0), i1, X, 42, StoreAnn::Plain);
        // The owning thread must see its own delayed store.
        assert_eq!(e.load(Tid(0), iid!(), X, LoadAnn::Plain), 42);
        assert_eq!(e.stats().forwards, 1);
        // Memory still holds the old value.
        assert_eq!(e.raw_load(X), 0);
    }

    #[test]
    fn forwarding_returns_youngest_buffered_value() {
        let e = Engine::new(1);
        let (i1, i2) = (iid!(), iid!());
        e.delay_store_at(Tid(0), i1);
        e.delay_store_at(Tid(0), i2);
        e.store(Tid(0), i1, X, 1, StoreAnn::Plain);
        e.store(Tid(0), i2, X, 2, StoreAnn::Plain);
        assert_eq!(e.load(Tid(0), iid!(), X, LoadAnn::Plain), 2);
    }

    #[test]
    fn figure4_versioned_load_walkthrough() {
        // Figure 4: syscall A wants to reorder I1 (load &W) and I2 (load &Z).
        // After A's smp_rmb at t3, syscall B stores 1 to &Z (t4) and 2 to &W
        // (t5). A's versioned load on &Z reads the old value 0 while the
        // plain load on &W reads 2.
        let e = Engine::new(2);
        let i2 = iid!();
        e.read_old_value_at(Tid(0), i2); // (1)
        e.smp_rmb(Tid(0), iid!()); // (3) window starts here
        e.store(Tid(1), iid!(), Z, 1, StoreAnn::Plain); // (4)
        e.store(Tid(1), iid!(), W, 2, StoreAnn::Plain); // (5)
        let r1 = e.load(Tid(0), iid!(), W, LoadAnn::Plain); // (6)
        let r2 = e.load(Tid(0), i2, Z, LoadAnn::Plain); // (7)
        assert_eq!((r1, r2), (2, 0));
        assert_eq!(e.stats().versioned_reads, 1);
    }

    #[test]
    fn versioning_window_bounds_old_reads() {
        // A store committed *before* the reader's rmb is not a valid old
        // version (LKMM Case 3).
        let e = Engine::new(2);
        let i = iid!();
        e.read_old_value_at(Tid(0), i);
        e.store(Tid(1), iid!(), X, 1, StoreAnn::Plain); // before the barrier
        e.smp_rmb(Tid(0), iid!());
        e.store(Tid(1), iid!(), X, 2, StoreAnn::Plain); // inside the window
                                                        // Valid pre-image is 1 (overwritten inside the window), never 0.
        assert_eq!(e.load(Tid(0), i, X, LoadAnn::Plain), 1);
    }

    #[test]
    fn versioned_load_defaults_to_memory_without_history() {
        let e = Engine::new(2);
        let i = iid!();
        e.read_old_value_at(Tid(0), i);
        e.smp_rmb(Tid(0), iid!());
        // No store inside the window: default behaviour reads memory.
        assert_eq!(e.load(Tid(0), i, X, LoadAnn::Plain), 0);
        e.store(Tid(1), iid!(), Y, 5, StoreAnn::Plain);
        // A store to a *different* address does not provide a version for X.
        assert_eq!(e.load(Tid(0), i, X, LoadAnn::Plain), 0);
    }

    #[test]
    fn read_once_acts_as_load_barrier() {
        // LKMM Case 6: a READ_ONCE closes the window, so a later versioned
        // load cannot read a value older than the READ_ONCE.
        let e = Engine::new(2);
        let dependent = iid!();
        e.read_old_value_at(Tid(0), dependent);
        e.smp_rmb(Tid(0), iid!());
        e.store(Tid(1), iid!(), X, 1, StoreAnn::Plain);
        // The READ_ONCE observes X == 1 and implies smp_rmb.
        assert_eq!(e.load(Tid(0), iid!(), X, LoadAnn::ReadOnce), 1);
        e.store(Tid(1), iid!(), Y, 7, StoreAnn::Plain);
        // Y's only in-window pre-image (0) is valid — committed after the
        // READ_ONCE — so the versioned load may still read 0 here:
        assert_eq!(e.load(Tid(0), dependent, Y, LoadAnn::Plain), 0);
        // But X's pre-image is now outside the window:
        let dependent2 = iid!();
        e.read_old_value_at(Tid(0), dependent2);
        assert_eq!(e.load(Tid(0), dependent2, X, LoadAnn::Plain), 1);
    }

    #[test]
    fn release_store_flushes_and_is_never_delayed() {
        // LKMM Case 5: everything before smp_store_release is visible before
        // the release store, and the release store itself cannot be delayed.
        let e = Engine::new(2);
        let (i1, i2) = (iid!(), iid!());
        e.delay_store_at(Tid(0), i1);
        e.delay_store_at(Tid(0), i2); // attempt to delay the release store
        e.store(Tid(0), i1, X, 1, StoreAnn::Plain);
        assert_eq!(e.raw_load(X), 0);
        e.store(Tid(0), i2, Y, 2, StoreAnn::Release);
        assert_eq!(e.raw_load(X), 1, "release flushed the buffer");
        assert_eq!(e.raw_load(Y), 2, "release store committed immediately");
    }

    #[test]
    fn acquire_load_resets_window() {
        // LKMM Case 4.
        let e = Engine::new(2);
        let dependent = iid!();
        e.read_old_value_at(Tid(0), dependent);
        e.store(Tid(1), iid!(), X, 1, StoreAnn::Plain);
        e.store(Tid(1), iid!(), Y, 1, StoreAnn::Plain);
        let _flag = e.load(Tid(0), iid!(), X, LoadAnn::Acquire);
        // Y's pre-image was overwritten before the acquire — invalid now.
        assert_eq!(e.load(Tid(0), dependent, Y, LoadAnn::Plain), 1);
    }

    #[test]
    fn smp_mb_orders_everything() {
        let e = Engine::new(2);
        let (i1, dependent) = (iid!(), iid!());
        e.delay_store_at(Tid(0), i1);
        e.read_old_value_at(Tid(0), dependent);
        e.store(Tid(0), i1, X, 1, StoreAnn::Plain);
        e.store(Tid(1), iid!(), Y, 3, StoreAnn::Plain);
        e.smp_mb(Tid(0), iid!());
        // Store flushed (Case 1, store side).
        assert_eq!(e.raw_load(X), 1);
        // Window reset (Case 1, load side): Y's pre-image is stale.
        assert_eq!(e.load(Tid(0), dependent, Y, LoadAnn::Plain), 3);
    }

    #[test]
    fn relaxed_rmw_overtakes_delayed_stores() {
        // The Figure 8 mechanism: a critical section's plain stores are
        // delayed, and a relaxed clear_bit-style RMW commits immediately,
        // releasing the "lock" while the protected data is still stale.
        let e = Engine::new(2);
        let i1 = iid!();
        e.delay_store_at(Tid(0), i1);
        e.store(Tid(0), i1, X, 1, StoreAnn::Plain); // protected data
        let old = e.rmw(Tid(0), iid!(), Y, |v| v & !1, RmwOrder::Relaxed);
        assert_eq!(old, 0);
        // Lock bit cleared in memory while the data store is still pending.
        assert_eq!(e.raw_load(X), 0);
        assert_eq!(e.pending_stores(Tid(0)), 1);
    }

    #[test]
    fn release_rmw_flushes_first() {
        // clear_bit_unlock: the fix for Figure 8.
        let e = Engine::new(2);
        let i1 = iid!();
        e.delay_store_at(Tid(0), i1);
        e.store(Tid(0), i1, X, 1, StoreAnn::Plain);
        e.rmw(Tid(0), iid!(), Y, |v| v & !1, RmwOrder::Release);
        assert_eq!(e.raw_load(X), 1, "unlock drains the critical section");
    }

    #[test]
    fn full_rmw_is_two_sided() {
        let e = Engine::new(2);
        let (i1, dependent) = (iid!(), iid!());
        e.delay_store_at(Tid(0), i1);
        e.read_old_value_at(Tid(0), dependent);
        e.store(Tid(0), i1, X, 1, StoreAnn::Plain);
        e.store(Tid(1), iid!(), Y, 4, StoreAnn::Plain);
        let old = e.rmw(Tid(0), iid!(), Z, |v| v | 1, RmwOrder::Full);
        assert_eq!(old, 0);
        assert_eq!(e.raw_load(X), 1, "full RMW flushed the buffer");
        assert_eq!(
            e.load(Tid(0), dependent, Y, LoadAnn::Plain),
            4,
            "full RMW reset the window"
        );
    }

    #[test]
    fn relaxed_rmw_same_address_as_buffered_store_stays_coherent() {
        let e = Engine::new(1);
        let i1 = iid!();
        e.delay_store_at(Tid(0), i1);
        e.store(Tid(0), i1, X, 2, StoreAnn::Plain);
        let old = e.rmw(Tid(0), iid!(), X, |v| v + 1, RmwOrder::Relaxed);
        assert_eq!(old, 2, "RMW observes the thread's own delayed store");
        assert_eq!(e.raw_load(X), 3);
    }

    #[test]
    fn same_address_stores_never_reorder() {
        // Per-location coherence: a later non-delayed store to a buffered
        // address joins the buffer instead of overtaking the delayed one.
        let e = Engine::new(2);
        let i1 = iid!();
        e.delay_store_at(Tid(0), i1);
        e.store(Tid(0), i1, X, 1, StoreAnn::Plain);
        e.store(Tid(0), iid!(), X, 2, StoreAnn::Plain); // joins the buffer
        assert_eq!(e.raw_load(X), 0, "neither store visible yet");
        assert_eq!(e.pending_stores(Tid(0)), 2);
        e.smp_wmb(Tid(0), iid!());
        assert_eq!(e.raw_load(X), 2, "FIFO flush preserves program order");
    }

    #[test]
    fn flush_thread_commits_at_syscall_exit() {
        let e = Engine::new(1);
        let i1 = iid!();
        e.delay_store_at(Tid(0), i1);
        e.store(Tid(0), i1, X, 9, StoreAnn::Plain);
        assert_eq!(e.raw_load(X), 0);
        e.flush_thread(Tid(0));
        assert_eq!(e.raw_load(X), 9);
    }

    #[test]
    fn write_once_is_delayable() {
        // WRITE_ONCE provides no ordering (the Bug #9 mis-fix).
        let e = Engine::new(1);
        let i1 = iid!();
        e.delay_store_at(Tid(0), i1);
        e.store(Tid(0), i1, X, 5, StoreAnn::WriteOnce);
        assert_eq!(e.raw_load(X), 0);
    }

    #[test]
    fn profiling_records_five_and_three_tuples() {
        let e = Engine::new(1);
        e.set_profiling(true);
        let (i1, i2, ib) = (iid!(), iid!(), iid!());
        e.store_sized(Tid(0), i1, X, 1, 4, StoreAnn::Plain);
        e.smp_wmb(Tid(0), ib);
        e.load(Tid(0), i2, X, LoadAnn::Plain);
        let p = e.take_profile(Tid(0));
        assert_eq!(p.len(), 3);
        let accesses: Vec<_> = p.accesses().collect();
        assert_eq!(accesses.len(), 2);
        assert_eq!(accesses[0].kind, AccessKind::Store);
        assert_eq!(accesses[0].size, 4);
        assert_eq!(accesses[0].addr, X);
        assert_eq!(accesses[1].kind, AccessKind::Load);
        let barriers: Vec<_> = p.barriers().collect();
        assert_eq!(barriers.len(), 1);
        assert_eq!(barriers[0].kind, BarrierKind::Wmb);
        assert_eq!(barriers[0].iid, ib);
        // Timestamps strictly increase in program order.
        assert!(p.events.windows(2).all(|w| w[0].ts() < w[1].ts()));
        // Taking the profile cleared it.
        assert!(e.take_profile(Tid(0)).is_empty());
    }

    #[test]
    fn profile_records_annotation_barriers() {
        let e = Engine::new(1);
        e.set_profiling(true);
        e.store(Tid(0), iid!(), X, 1, StoreAnn::Release);
        e.load(Tid(0), iid!(), X, LoadAnn::ReadOnce);
        e.load(Tid(0), iid!(), X, LoadAnn::Acquire);
        let p = e.take_profile(Tid(0));
        let kinds: Vec<_> = p.barriers().map(|b| b.kind).collect();
        assert_eq!(
            kinds,
            vec![
                BarrierKind::Release,
                BarrierKind::ReadOnce,
                BarrierKind::Acquire
            ]
        );
        // Release barrier precedes its store; ReadOnce/Acquire follow theirs.
        assert!(p.events[0].as_barrier().is_some());
        assert!(p.events[1].as_access().is_some());
        assert!(p.events[2].as_access().is_some());
        assert!(p.events[3].as_barrier().is_some());
    }

    #[test]
    fn clear_controls_restores_in_order() {
        let e = Engine::new(1);
        let i1 = iid!();
        e.delay_store_at(Tid(0), i1);
        e.clear_controls(Tid(0));
        e.store(Tid(0), i1, X, 1, StoreAnn::Plain);
        assert_eq!(e.raw_load(X), 1);
    }

    #[test]
    fn gc_history_respects_windows() {
        let e = Engine::new(2);
        e.store(Tid(0), iid!(), X, 1, StoreAnn::Plain);
        e.store(Tid(0), iid!(), X, 2, StoreAnn::Plain);
        assert_eq!(e.history_records().len(), 2);
        // Neither thread has a window yet (start = 0): nothing is collected.
        e.gc_history();
        assert_eq!(e.history_records().len(), 2);
        e.smp_rmb(Tid(0), iid!());
        e.smp_rmb(Tid(1), iid!());
        e.gc_history();
        assert!(e.history_records().is_empty());
    }

    #[test]
    fn replay_imposes_recorded_decisions_without_controls() {
        // Record a Figure-3-style delayed-store run, then replay it on a
        // fresh engine with *empty* control sets: the recorded decisions
        // alone must reproduce the same observations.
        let (i1, i2, i3, i4) = (iid!(), iid!(), iid!(), iid!());
        let run = |e: &Engine| {
            e.store(Tid(0), i1, X, 1, StoreAnn::Plain);
            e.store(Tid(0), i2, Y, 2, StoreAnn::Plain);
            let rx = e.load(Tid(1), i3, X, LoadAnn::Plain);
            let ry = e.load(Tid(1), i4, Y, LoadAnn::Plain);
            e.flush_thread(Tid(0));
            (rx, ry)
        };

        let rec = Engine::new(2);
        rec.delay_store_at(Tid(0), i1);
        rec.start_trace_recording();
        assert_eq!(run(&rec), (0, 2), "store-store reordering observed");
        let steps = rec.take_recorded_trace();
        assert!(steps
            .iter()
            .any(|s| matches!(s, TraceStep::Store { delayed: true, .. })));

        let rep = Engine::new(2);
        rep.start_trace_replay(steps);
        assert_eq!(run(&rep), (0, 2), "replay reproduces the reordering");
        let status = rep.finish_trace_replay();
        assert!(!status.diverged, "replay followed the script");
        assert_eq!(status.consumed, status.total);
    }

    #[test]
    fn replay_divergence_is_detected_and_degrades_to_in_order() {
        let (i1, i2) = (iid!(), iid!());
        let rec = Engine::new(1);
        rec.delay_store_at(Tid(0), i1);
        rec.start_trace_recording();
        rec.store(Tid(0), i1, X, 1, StoreAnn::Plain);
        rec.flush_thread(Tid(0));
        let steps = rec.take_recorded_trace();

        // A different program (different iid) cannot follow the script.
        let rep = Engine::new(1);
        rep.start_trace_replay(steps);
        rep.store(Tid(0), i2, X, 7, StoreAnn::Plain);
        assert_eq!(rep.raw_load(X), 7, "diverged replay falls back in-order");
        assert!(rep.finish_trace_replay().diverged);
    }

    #[test]
    fn replay_forces_versioned_loads() {
        let (ld, st1, st2) = (iid!(), iid!(), iid!());
        let run = |e: &Engine| {
            e.smp_rmb(Tid(0), iid!());
            e.store(Tid(1), st1, Z, 1, StoreAnn::Plain);
            e.store(Tid(1), st2, Z, 2, StoreAnn::Plain);
            e.load(Tid(0), ld, Z, LoadAnn::Plain)
        };
        let rec = Engine::new(2);
        rec.read_old_value_at(Tid(0), ld);
        rec.start_trace_recording();
        let old = run(&rec);
        assert_ne!(old, 2, "versioned load reads an in-window pre-image");
        let steps = rec.take_recorded_trace();

        let rep = Engine::new(2);
        rep.start_trace_replay(steps);
        assert_eq!(run(&rep), old, "replay re-reads the same old version");
        assert!(!rep.finish_trace_replay().diverged);
    }

    #[test]
    fn stats_count_mechanisms() {
        let e = Engine::new(1);
        let (i1, i2) = (iid!(), iid!());
        e.delay_store_at(Tid(0), i1);
        e.store(Tid(0), i1, X, 1, StoreAnn::Plain);
        e.load(Tid(0), iid!(), X, LoadAnn::Plain); // forward
        e.smp_wmb(Tid(0), i2); // flush commits 1
        let s = e.stats();
        assert_eq!(s.delayed, 1);
        assert_eq!(s.forwards, 1);
        assert_eq!(s.commits, 1);
        assert_eq!(s.barriers, 1);
    }

    fn live_digest(e: &Engine) -> String {
        let mut out = String::new();
        e.digest_live(&mut out);
        out
    }

    fn snap_digest(s: &EngineSnapshot) -> String {
        let mut out = String::new();
        s.digest(&mut out);
        out
    }

    /// Exercises every journalled subsystem: memory, history, store buffer,
    /// delay/read-old sets, observation floors, and the profile buffer.
    fn mutate_everything(e: &Engine, salt: u64) {
        let delayed = iid!();
        e.delay_store_at(Tid(0), delayed);
        e.read_old_value_at(Tid(1), iid!());
        e.store(Tid(0), delayed, X, salt, StoreAnn::Plain); // buffered
        e.store(Tid(0), iid!(), Y, salt + 1, StoreAnn::Plain);
        e.store(Tid(1), iid!(), Z, salt + 2, StoreAnn::Plain);
        e.load(Tid(1), iid!(), Y, LoadAnn::Plain); // floor update
        e.smp_rmb(Tid(1), iid!()); // window move
    }

    #[test]
    fn incremental_restore_round_trips_digest() {
        let e = Engine::new(2);
        e.set_profiling(true);
        mutate_everything(&e, 10);
        let snap = e.snapshot();
        let before = live_digest(&e);
        assert_eq!(before, snap_digest(&snap), "live digest matches snapshot");
        mutate_everything(&e, 20);
        e.smp_mb(Tid(0), iid!());
        assert_ne!(live_digest(&e), before);
        e.restore(&snap);
        assert_eq!(live_digest(&e), before, "incremental restore is exact");
        let s = e.stats();
        assert_eq!(s.restores_incremental, 1);
        assert_eq!(s.restore_full_fallbacks, 0);
        assert!(s.restore_words_replayed > 0);
        // The frame stays armed: restore-after-restore is incremental too.
        mutate_everything(&e, 30);
        e.restore(&snap);
        assert_eq!(live_digest(&e), before);
        assert_eq!(e.stats().restores_incremental, 2);
    }

    #[test]
    fn nested_snapshots_restore_through_each_other() {
        let e = Engine::new(2);
        mutate_everything(&e, 1);
        let boot = e.snapshot();
        let boot_d = snap_digest(&boot);
        mutate_everything(&e, 40);
        let post = e.snapshot();
        let post_d = snap_digest(&post);
        assert_eq!(e.journal_depth(), 2);
        mutate_everything(&e, 50);
        e.restore(&post);
        assert_eq!(live_digest(&e), post_d);
        assert_eq!(e.journal_depth(), 2);
        // Restoring the *outer* snapshot pops the inner frame.
        e.restore(&boot);
        assert_eq!(live_digest(&e), boot_d);
        assert_eq!(e.journal_depth(), 1);
        assert_eq!(e.stats().restore_full_fallbacks, 0);
        // The inner generation is no longer armed: full fallback, then
        // re-armed so the next restore to it is incremental again.
        e.restore(&post);
        assert_eq!(live_digest(&e), post_d);
        assert_eq!(e.stats().restore_full_fallbacks, 1);
        mutate_everything(&e, 60);
        e.restore(&post);
        assert_eq!(live_digest(&e), post_d);
        assert_eq!(e.stats().restore_full_fallbacks, 1, "re-armed");
    }

    #[test]
    fn cross_machine_restore_falls_back_to_full() {
        let a = Engine::new(2);
        mutate_everything(&a, 7);
        let snap = a.snapshot();
        let b = Engine::new(2);
        b.restore(&snap);
        assert_eq!(live_digest(&b), snap_digest(&snap));
        assert_eq!(b.stats().restore_full_fallbacks, 1);
        assert_eq!(b.stats().restores_incremental, 0);
    }

    #[test]
    fn force_full_restore_disarms_journal() {
        let e = Engine::new(2);
        e.set_force_full_restore(true);
        let snap = e.snapshot();
        assert_eq!(e.journal_depth(), 0, "no frame armed while forced");
        mutate_everything(&e, 3);
        e.restore(&snap);
        assert_eq!(live_digest(&e), snap_digest(&snap));
        let s = e.stats();
        assert_eq!(s.restore_full_fallbacks, 1);
        assert_eq!(s.restores_incremental, 0);
        assert_eq!(e.journal_depth(), 0, "forced restore does not re-arm");
        // Turning the knob off restores incremental behaviour.
        e.set_force_full_restore(false);
        let snap2 = e.snapshot();
        mutate_everything(&e, 4);
        e.restore(&snap2);
        assert_eq!(e.stats().restores_incremental, 1);
    }

    #[test]
    fn take_profile_after_snapshot_still_restores_exactly() {
        let e = Engine::new(2);
        e.set_profiling(true);
        e.store(Tid(0), iid!(), X, 1, StoreAnn::Plain); // profiled event
        let snap = e.snapshot();
        let before = snap_digest(&snap);
        // Discard the buffer the snapshot's baseline points into.
        let _ = e.take_profile(Tid(0));
        e.store(Tid(0), iid!(), Y, 2, StoreAnn::Plain);
        e.restore(&snap);
        assert_eq!(live_digest(&e), before, "profile restored via clone_from");
        assert_eq!(e.stats().restore_full_fallbacks, 0);
    }

    #[test]
    fn gc_history_invalidates_the_journal() {
        let e = Engine::new(1);
        e.store(Tid(0), iid!(), X, 1, StoreAnn::Plain);
        let snap = e.snapshot();
        e.smp_rmb(Tid(0), iid!());
        e.gc_history();
        assert_eq!(e.journal_depth(), 0);
        e.restore(&snap);
        assert_eq!(live_digest(&e), snap_digest(&snap));
        assert_eq!(e.stats().restore_full_fallbacks, 1);
    }
}
