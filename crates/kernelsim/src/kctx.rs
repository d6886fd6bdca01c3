//! The kernel context: one booted simulated machine.
//!
//! [`Kctx`] bundles everything a run of the simulated kernel needs — the
//! OEMU engine, the slab allocator and oracles, the optional custom
//! scheduler, the seeded-bug switches — and exposes the Linux-flavoured
//! access helpers the subsystems are written against (`read`, `write`,
//! `READ_ONCE`, `smp_*`, `kzalloc`, indirect calls). Every helper routes the
//! access through the scheduler gate, the KASAN check, and the emulation
//! engine, in that order; that composition is the in-vivo property of §3 —
//! reordering decisions see the live allocator state, and the oracles see
//! reordered values.
//!
//! The access path pays only for work that can change its result. Like a
//! hypervisor that stops a vCPU only at its breakpoint, a gate whose
//! scheduler cannot act at the instruction (see [`ksched::GateFilter`],
//! cached next to the scheduler slot when one is installed) returns after
//! one atomic load, without locking the slot or cloning the scheduler. The
//! oracles name the innermost kernel function, which needs the frame
//! stack's lock, only when they report a fault.
//!
//! A detected fault records a crash report and returns [`Oops`] — the
//! analog of a kernel oops that kills the offending task. Every accessor
//! that can fault returns a [`KResult`], kernel code propagates the oops
//! with `?`, and the executor turns it into [`ECRASH`] at the syscall
//! boundary.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use kmem::{
    CrashReport, Fault, FnRegistry, FnRegistrySnapshot, Kmem, KmemSnapshot, LockId, Lockdep,
    LockdepSnapshot, OracleSink, SinkSnapshot,
};
use ksched::{GateFilter, StepScheduler};
use kutil::sync::Mutex;
use oemu::{Engine, EngineSnapshot, Iid, LoadAnn, MemoryModel, RmwOrder, StoreAnn, Tid};

use crate::bugs::{BugId, BugSwitches};
use crate::exec::ExecMode;
use crate::subsys;

/// Number of simulated CPUs per machine (the paper's VMs have four vCPUs).
pub const MAX_CPUS: usize = 4;

/// `EBADF`-style error returns used by the syscall layer.
pub const EBADF: i64 = -9;
/// `EINVAL`.
pub const EINVAL: i64 = -22;
/// `EBUSY`.
pub const EBUSY: i64 = -16;
/// `EAGAIN`.
pub const EAGAIN: i64 = -11;
/// Sentinel return of a syscall that died in a simulated oops.
pub const ECRASH: i64 = -1000;

/// `Kctx::gate_filter` when no scheduler is installed or none of its gates
/// can act.
const GATES_NOWHERE: u64 = 0;
/// `Kctx::gate_filter` when every gate may act. Any other value is the one
/// instruction id whose gates may act.
const GATES_EVERYWHERE: u64 = u64::MAX;

/// A simulated kernel oops: the task that raised it is dead. The crash
/// report is already in the machine's sink; this marker only says that the
/// code on the way out must run nothing more (`?` returns it to the
/// syscall boundary, which reports [`ECRASH`]).
#[must_use]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Oops;

/// The result of simulated kernel code that can oops.
pub type KResult<T> = Result<T, Oops>;

/// Boot-time global objects of every subsystem (the simulated kernel's
/// static/global data), built once per machine.
pub struct Globals {
    /// watch_queue + pipe globals.
    pub wq: subsys::watch_queue::WqGlobals,
    /// TLS/socket globals.
    pub tls: subsys::tls::TlsGlobals,
    /// RDS connection-path globals.
    pub rds: subsys::rds::RdsGlobals,
    /// XDP/xsk socket globals.
    pub xsk: subsys::xsk::XskGlobals,
    /// BPF sockmap psock globals.
    pub bpf: subsys::bpf_psock::BpfGlobals,
    /// SMC socket globals.
    pub smc: subsys::smc::SmcGlobals,
    /// VMCI queue-pair broker globals.
    pub vmci: subsys::vmci::VmciGlobals,
    /// GSM mux globals.
    pub gsm: subsys::gsm::GsmGlobals,
    /// vlan group globals.
    pub vlan: subsys::vlan::VlanGlobals,
    /// fd-table globals.
    pub fs: subsys::fs_fdtable::FsGlobals,
    /// nbd device globals.
    pub nbd: subsys::nbd::NbdGlobals,
    /// unix-socket globals.
    pub unix: subsys::unix_sock::UnixGlobals,
    /// sbitmap queue globals.
    pub sbitmap: subsys::sbitmap::SbitmapGlobals,
    /// fs/buffer globals (extended corpus).
    pub buffer: subsys::buffer_head::BufferGlobals,
    /// Tracing ring-buffer globals (extended corpus).
    pub ring_buffer: subsys::ring_buffer::RingBufferGlobals,
    /// mm/filemap globals (extended corpus).
    pub filemap: subsys::filemap::FilemapGlobals,
    /// USB core globals (extended corpus).
    pub usb: subsys::usb::UsbGlobals,
}

/// A full copy of one machine's mutable state — the engine, allocator,
/// registries, oracles, per-CPU frames, and mode flags. Subsystem globals
/// are *not* copied: they are plain structs of simulated addresses fixed at
/// boot, and all state behind those addresses lives in the engine's memory
/// and the allocator, which the snapshot covers.
///
/// Captured by [`Kctx::snapshot`], written back by [`Kctx::restore`]. The
/// boot-time snapshot every machine captures at the end of [`Kctx::new`] is
/// what [`Kctx::reset`] rolls back to.
#[derive(Clone)]
pub struct MachineSnapshot {
    engine: EngineSnapshot,
    kmem: KmemSnapshot,
    fns: FnRegistrySnapshot,
    lockdep: LockdepSnapshot,
    sink: SinkSnapshot,
    raw: bool,
    migration_override: bool,
    frames: [Vec<&'static str>; MAX_CPUS],
}

impl MachineSnapshot {
    /// Deterministic rendering of the captured machine state, for
    /// byte-comparing a reset machine against a fresh boot. Purely
    /// observational counters (engine/allocator stats) are excluded — they
    /// never influence execution — and so are the snapshot generation ids,
    /// which name snapshots rather than state.
    pub fn digest(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "machine raw={} migration_override={}",
            self.raw, self.migration_override
        )
        .unwrap();
        for (cpu, frames) in self.frames.iter().enumerate() {
            writeln!(out, "frames cpu={cpu} {frames:?}").unwrap();
        }
        for r in self.sink.reports() {
            writeln!(out, "report {}", r.title).unwrap();
        }
        self.engine.digest(&mut out);
        self.kmem.digest(&mut out);
        self.fns.digest(&mut out);
        self.lockdep.digest(&mut out);
        out
    }

    /// The engine snapshot's undo-journal generation id — the machine-level
    /// name of this snapshot (each subsystem snapshot carries its own id;
    /// the engine's stands for the set in diagnostics).
    pub fn generation(&self) -> u64 {
        self.engine.generation()
    }
}

/// One booted simulated machine.
pub struct Kctx {
    /// The OEMU emulation engine.
    pub engine: Arc<Engine>,
    /// Slab allocator + KASAN checker.
    pub kmem: Kmem,
    /// Simulated text segment (function pointers).
    pub fns: FnRegistry,
    /// Lock-order oracle.
    pub lockdep: Lockdep,
    /// Crash-report collector.
    pub sink: OracleSink,
    /// The step scheduler of the concurrent phase in progress, if any.
    sched: Mutex<Option<Arc<StepScheduler>>>,
    /// The installed scheduler's [`GateFilter`], encoded as `GATES_*` or an
    /// instruction id: the access path reads it without locking `sched`
    /// and skips every gate that cannot act.
    gate_filter: AtomicU64,
    bugs: BugSwitches,
    /// Instrumentation bypass for the Table 5 overhead baseline.
    raw: AtomicBool,
    /// The paper's §6.2 sbitmap experiment: pretend threads were migrated
    /// so every CPU resolves per-CPU variables to CPU 0's copy.
    migration_override: AtomicBool,
    frames: Mutex<[Vec<&'static str>; MAX_CPUS]>,
    globals: OnceLock<Globals>,
    /// State at the end of boot, captured once by `Kctx::new`; what
    /// [`Kctx::reset`] restores.
    boot: OnceLock<MachineSnapshot>,
}

impl Kctx {
    /// Boots a machine with the given seeded-bug switches under the
    /// default TSO memory model.
    pub fn new(bugs: BugSwitches) -> Arc<Kctx> {
        Self::new_with_model(bugs, MemoryModel::Tso)
    }

    /// Boots a machine whose engine emulates the given memory model. Like
    /// the bug switches, the model is machine identity: fixed for the
    /// machine's lifetime and part of the pool key, never snapshot state.
    pub fn new_with_model(bugs: BugSwitches, model: MemoryModel) -> Arc<Kctx> {
        let k = Arc::new(Kctx {
            engine: Arc::new(Engine::new_with_model(MAX_CPUS, model)),
            kmem: Kmem::new(),
            fns: FnRegistry::new(),
            lockdep: Lockdep::new(),
            sink: OracleSink::new(),
            sched: Mutex::new(None),
            gate_filter: AtomicU64::new(GATES_NOWHERE),
            bugs,
            raw: AtomicBool::new(false),
            migration_override: AtomicBool::new(false),
            frames: Mutex::new(Default::default()),
            globals: OnceLock::new(),
            boot: OnceLock::new(),
        });
        let globals = Globals {
            wq: subsys::watch_queue::boot(&k),
            tls: subsys::tls::boot(&k),
            rds: subsys::rds::boot(&k),
            xsk: subsys::xsk::boot(&k),
            bpf: subsys::bpf_psock::boot(&k),
            smc: subsys::smc::boot(&k),
            vmci: subsys::vmci::boot(&k),
            gsm: subsys::gsm::boot(&k),
            vlan: subsys::vlan::boot(&k),
            fs: subsys::fs_fdtable::boot(&k),
            nbd: subsys::nbd::boot(&k),
            unix: subsys::unix_sock::boot(&k),
            sbitmap: subsys::sbitmap::boot(&k),
            buffer: subsys::buffer_head::boot(&k),
            ring_buffer: subsys::ring_buffer::boot(&k),
            filemap: subsys::filemap::boot(&k),
            usb: subsys::usb::boot(&k),
        };
        k.globals.set(globals).ok().expect("boot happens once");
        k.boot
            .set(k.snapshot())
            .ok()
            .expect("boot snapshot happens once");
        k
    }

    // ------------------------------------------------------------------
    // Snapshot / restore / reset.
    // ------------------------------------------------------------------

    /// Captures the machine's full mutable state. Each subsystem arms an
    /// undo-journal frame under the snapshot, so a later [`Kctx::restore`]
    /// to it rolls back only the state mutated in between.
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            engine: self.engine.snapshot(),
            kmem: self.kmem.snapshot(),
            fns: self.fns.snapshot(),
            lockdep: self.lockdep.snapshot(),
            sink: self.sink.capture(),
            raw: self.raw.load(Ordering::Relaxed),
            migration_override: self.migration_override.load(Ordering::Relaxed),
            frames: self.frames.lock().clone(),
        }
    }

    /// Restores a previously captured state, reusing the machine's existing
    /// allocations. Any installed scheduler is removed — snapshots are only
    /// taken between runs, never mid-concurrent-phase.
    ///
    /// Each subsystem takes its own incremental path when the snapshot's
    /// generation is still armed in its undo journal (the common case: the
    /// campaign loop restores the snapshot it just took) and falls back to
    /// the full `clone_from` otherwise; `engine.stats()` counts both
    /// outcomes for the machine's dominant subsystem.
    pub fn restore(&self, snap: &MachineSnapshot) {
        self.set_step_scheduler(None);
        self.engine.restore(&snap.engine);
        self.kmem.restore(&snap.kmem);
        self.fns.restore(&snap.fns);
        self.lockdep.restore(&snap.lockdep);
        self.sink.restore_from(&snap.sink);
        self.raw.store(snap.raw, Ordering::Relaxed);
        self.migration_override
            .store(snap.migration_override, Ordering::Relaxed);
        self.frames.lock().clone_from(&snap.frames);
    }

    /// Rolls the machine back to its exact end-of-boot state without
    /// reallocating — the reproduction's analog of the paper's long-lived
    /// in-vivo VMs, which run test after test without rebooting.
    pub fn reset(&self) {
        let boot = self.boot.get().expect("machine is booted");
        self.restore(boot);
    }

    /// Deterministic rendering of the machine's current semantic state;
    /// two machines with equal digests behave identically on any future
    /// input. Byte-identical to [`MachineSnapshot::digest`] of a snapshot
    /// taken at this instant, but streams over live state — no map is
    /// cloned, no undo-journal frame is armed (the recorded-run paths call
    /// this after every execution; a snapshot here would push stray frames
    /// mid-campaign).
    pub fn state_digest(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "machine raw={} migration_override={}",
            self.raw.load(Ordering::Relaxed),
            self.migration_override.load(Ordering::Relaxed)
        )
        .unwrap();
        for (cpu, frames) in self.frames.lock().iter().enumerate() {
            writeln!(out, "frames cpu={cpu} {frames:?}").unwrap();
        }
        for r in self.sink.snapshot() {
            writeln!(out, "report {}", r.title).unwrap();
        }
        self.engine.digest_live(&mut out);
        self.kmem.digest_live(&mut out);
        self.fns.digest_live(&mut out);
        self.lockdep.digest_live(&mut out);
        out
    }

    /// Forces every subsequent restore of every subsystem down the full
    /// `clone_from` path and disables undo journaling entirely (benchmark
    /// baseline / diagnostics knob — reproduces the pre-journal restore
    /// cost exactly, including zero journaling overhead on the write path).
    pub fn set_force_full_restore(&self, on: bool) {
        self.engine.set_force_full_restore(on);
        self.kmem.set_force_full_restore(on);
        self.fns.set_force_full_restore(on);
        self.lockdep.set_force_full_restore(on);
        self.sink.set_force_full_restore(on);
    }

    /// Boot-time globals.
    pub fn globals(&self) -> &Globals {
        self.globals.get().expect("machine is booted")
    }

    /// Whether `bug`'s buggy variant is compiled into this kernel.
    pub fn bug(&self, bug: BugId) -> bool {
        self.bugs.has(bug)
    }

    /// The bug switches this kernel was built with.
    pub fn switches(&self) -> &BugSwitches {
        &self.bugs
    }

    /// Installs (or removes) the step scheduler for the concurrent phase of
    /// a test; the instrumented-access gates consult it. Its gate filter is
    /// cached next to the slot, so a gate that cannot act costs one atomic
    /// load.
    pub fn set_step_scheduler(&self, sched: Option<Arc<StepScheduler>>) {
        let filter = match sched.as_ref().map(|s| s.gate_filter()) {
            None | Some(GateFilter::Nowhere) => GATES_NOWHERE,
            // An id that collides with a sentinel widens to every gate,
            // which only costs the lock the filter would have saved.
            Some(GateFilter::At(iid)) if iid.0 != GATES_NOWHERE && iid.0 != GATES_EVERYWHERE => {
                iid.0
            }
            Some(GateFilter::At(_) | GateFilter::Everywhere) => GATES_EVERYWHERE,
        };
        let mut slot = self.sched.lock();
        *slot = sched;
        self.gate_filter.store(filter, Ordering::Release);
    }

    /// Does nothing: there is one pair executor. Kept only because the
    /// `ozzbench` benchmark calls it with `FuzzConfig::exec_mode`.
    pub fn set_exec_mode(&self, _mode: ExecMode) {}

    /// The memory model this machine's engine emulates (fixed at boot).
    pub fn memory_model(&self) -> MemoryModel {
        self.engine.memory_model()
    }

    /// Enables raw mode: accesses bypass gates, oracles, and the emulation
    /// engine. The `Linux` (uninstrumented) baseline of Table 5.
    pub fn set_raw(&self, raw: bool) {
        self.raw.store(raw, Ordering::Relaxed);
    }

    /// Whether raw mode is active.
    pub fn is_raw(&self) -> bool {
        self.raw.load(Ordering::Relaxed)
    }

    /// Enables the §6.2 manual per-CPU modification: all CPUs resolve
    /// per-CPU variables to CPU 0's slot, emulating the thread migration the
    /// sbitmap bug needs.
    pub fn set_migration_override(&self, on: bool) {
        self.migration_override.store(on, Ordering::Relaxed);
    }

    /// The CPU a thread's per-CPU accesses resolve to. OZZ pins each thread
    /// to its own CPU (§6.2), so without the override this is the thread id.
    pub fn cpu_of(&self, t: Tid) -> usize {
        if self.migration_override.load(Ordering::Relaxed) {
            0
        } else {
            t.0
        }
    }

    // ------------------------------------------------------------------
    // Function-frame tracking (for oops titles).
    // ------------------------------------------------------------------

    /// Pushes a kernel-function frame; the returned guard pops it. Fault
    /// titles name the innermost frame, like a real oops backtrace tip.
    pub fn enter(&self, t: Tid, name: &'static str) -> FnFrame<'_> {
        self.frames.lock()[t.0].push(name);
        FnFrame { k: self, t }
    }

    /// The innermost kernel function currently executing on `t`.
    pub fn current_fn(&self, t: Tid) -> &'static str {
        self.frames.lock()[t.0].last().copied().unwrap_or("kernel")
    }

    // ------------------------------------------------------------------
    // Oops machinery.
    // ------------------------------------------------------------------

    /// Records the fault (kernel oops) and returns the [`Oops`] that kills
    /// the simulated task.
    pub fn oops(&self, fault: Fault) -> Oops {
        self.sink.record(CrashReport::from_fault(fault));
        Oops
    }

    /// `BUG_ON`-style assertion oracle.
    pub fn bug_on(&self, t: Tid, cond: bool, what: &'static str) -> KResult<()> {
        if !cond {
            return Ok(());
        }
        Err(self.oops(Fault {
            kind: kmem::FaultKind::AssertFail {
                what: what.to_string(),
            },
            addr: 0,
            in_fn: self.current_fn(t),
        }))
    }

    fn check(&self, t: Tid, addr: u64, write: bool) -> KResult<()> {
        self.kmem
            .check_access(addr, 8, write, || self.current_fn(t))
            .map_err(|fault| self.oops(fault))
    }

    /// The installed scheduler, if one is installed and its gates can act
    /// at `iid`. Cloned out of the lock: the gate may run the peer leg
    /// inline, and holding the slot's mutex across that would deadlock the
    /// peer CPU's own gate call.
    fn gating(&self, iid: Iid) -> Option<Arc<StepScheduler>> {
        match self.gate_filter.load(Ordering::Acquire) {
            GATES_NOWHERE => None,
            GATES_EVERYWHERE => self.sched.lock().clone(),
            at if at == iid.0 => self.sched.lock().clone(),
            _ => None,
        }
    }

    fn gate_before(&self, t: Tid, iid: Iid) {
        if let Some(s) = self.gating(iid) {
            s.gate_before(t, iid);
        }
    }

    fn gate_after(&self, t: Tid, iid: Iid) {
        if let Some(s) = self.gating(iid) {
            s.gate_after(t, iid);
        }
    }

    // ------------------------------------------------------------------
    // Instrumented accesses (the Figure 2 callbacks).
    // ------------------------------------------------------------------

    fn do_load(&self, t: Tid, iid: Iid, addr: u64, ann: LoadAnn) -> KResult<u64> {
        if self.is_raw() {
            return Ok(self.engine.raw_load(addr));
        }
        self.gate_before(t, iid);
        self.check(t, addr, false)?;
        let v = self.engine.load(t, iid, addr, ann);
        self.gate_after(t, iid);
        Ok(v)
    }

    fn do_store(&self, t: Tid, iid: Iid, addr: u64, val: u64, ann: StoreAnn) -> KResult<()> {
        if self.is_raw() {
            self.engine.raw_store(addr, val);
            return Ok(());
        }
        self.gate_before(t, iid);
        self.check(t, addr, true)?;
        self.engine.store(t, iid, addr, val, ann);
        self.gate_after(t, iid);
        Ok(())
    }

    /// A plain load (`x = *p`).
    pub fn read(&self, t: Tid, iid: Iid, addr: u64) -> KResult<u64> {
        self.do_load(t, iid, addr, LoadAnn::Plain)
    }

    /// `READ_ONCE(*p)`.
    pub fn read_once(&self, t: Tid, iid: Iid, addr: u64) -> KResult<u64> {
        self.do_load(t, iid, addr, LoadAnn::ReadOnce)
    }

    /// `smp_load_acquire(p)`.
    pub fn load_acquire(&self, t: Tid, iid: Iid, addr: u64) -> KResult<u64> {
        self.do_load(t, iid, addr, LoadAnn::Acquire)
    }

    /// A plain store (`*p = v`).
    pub fn write(&self, t: Tid, iid: Iid, addr: u64, val: u64) -> KResult<()> {
        self.do_store(t, iid, addr, val, StoreAnn::Plain)
    }

    /// `WRITE_ONCE(*p, v)`.
    pub fn write_once(&self, t: Tid, iid: Iid, addr: u64, val: u64) -> KResult<()> {
        self.do_store(t, iid, addr, val, StoreAnn::WriteOnce)
    }

    /// `smp_store_release(p, v)`.
    pub fn store_release(&self, t: Tid, iid: Iid, addr: u64, val: u64) -> KResult<()> {
        self.do_store(t, iid, addr, val, StoreAnn::Release)
    }

    /// An instrumented atomic read-modify-write.
    pub fn rmw(
        &self,
        t: Tid,
        iid: Iid,
        addr: u64,
        f: impl FnOnce(u64) -> u64,
        order: RmwOrder,
    ) -> KResult<u64> {
        if self.is_raw() {
            let old = self.engine.raw_load(addr);
            self.engine.raw_store(addr, f(old));
            return Ok(old);
        }
        self.gate_before(t, iid);
        self.check(t, addr, true)?;
        let old = self.engine.rmw(t, iid, addr, f, order);
        self.gate_after(t, iid);
        Ok(old)
    }

    /// `smp_mb()`.
    pub fn smp_mb(&self, t: Tid, iid: Iid) {
        if !self.is_raw() {
            self.engine.smp_mb(t, iid);
        }
    }

    /// `smp_wmb()`.
    pub fn smp_wmb(&self, t: Tid, iid: Iid) {
        if !self.is_raw() {
            self.engine.smp_wmb(t, iid);
        }
    }

    /// `smp_rmb()`.
    pub fn smp_rmb(&self, t: Tid, iid: Iid) {
        if !self.is_raw() {
            self.engine.smp_rmb(t, iid);
        }
    }

    // ------------------------------------------------------------------
    // Memory management and indirect calls.
    // ------------------------------------------------------------------

    /// `kzalloc(size)` — allocates a zeroed object of `size` bytes.
    pub fn kzalloc(&self, size: u64, tag: &'static str) -> u64 {
        self.kmem.kzalloc(size, tag)
    }

    /// `kfree(p)`; double frees and wild frees oops.
    pub fn kfree(&self, t: Tid, addr: u64) -> KResult<()> {
        self.kmem
            .kfree(addr, || self.current_fn(t))
            .map_err(|fault| self.oops(fault))
    }

    /// Resolves an indirect call target; a null or wild pointer oopses —
    /// the `buf->ops->confirm()` crash of Figure 1.
    pub fn call_fn(&self, t: Tid, target: u64) -> KResult<&'static str> {
        self.fns
            .resolve(target, || self.current_fn(t))
            .map_err(|fault| self.oops(fault))
    }

    /// Lockdep-checked lock acquisition (ordering oracle only; the custom
    /// scheduler already serialises execution, so no blocking is needed).
    pub fn lock(&self, t: Tid, lock: LockId) -> KResult<()> {
        self.lockdep
            .acquire(t, lock, || self.current_fn(t))
            .map_err(|fault| self.oops(fault))
    }

    /// Lockdep-checked lock release.
    pub fn unlock(&self, t: Tid, lock: LockId) {
        self.lockdep.release(t, lock);
    }

    /// Syscall-exit housekeeping: the paper's "interrupt" flush condition —
    /// returning to userspace drains the virtual store buffer.
    pub fn syscall_exit(&self, t: Tid) {
        if !self.is_raw() {
            self.engine.flush_thread(t);
        }
    }
}

/// RAII guard for a kernel-function frame.
pub struct FnFrame<'a> {
    k: &'a Kctx,
    t: Tid,
}

impl Drop for FnFrame<'_> {
    fn drop(&mut self) {
        self.k.frames.lock()[self.t.0].pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oemu::iid;

    #[test]
    fn boot_produces_working_machine() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        let obj = k.kzalloc(32, "test");
        k.write(t, iid!(), obj, 7).unwrap();
        assert_eq!(k.read(t, iid!(), obj), Ok(7));
    }

    #[test]
    fn frames_nest() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        assert_eq!(k.current_fn(t), "kernel");
        {
            let _a = k.enter(t, "outer");
            assert_eq!(k.current_fn(t), "outer");
            {
                let _b = k.enter(t, "inner");
                assert_eq!(k.current_fn(t), "inner");
            }
            assert_eq!(k.current_fn(t), "outer");
        }
        assert_eq!(k.current_fn(t), "kernel");
    }

    #[test]
    fn null_read_oopses_with_frame_name() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        {
            let _f = k.enter(t, "pipe_read");
            assert_eq!(k.read(t, iid!(), 0), Err(Oops));
        }
        assert_eq!(
            k.sink.take()[0].title,
            "BUG: unable to handle kernel NULL pointer dereference in pipe_read"
        );
    }

    /// The oracles look the frame stack up only when they report a fault;
    /// each report must still name the innermost frame, not an outer one.
    #[test]
    fn every_oracle_names_the_innermost_frame() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        let _outer = k.enter(t, "outer_fn");
        let obj = k.kzalloc(16, "obj");
        k.kfree(t, obj).unwrap();
        k.lock(t, LockId(0x11)).unwrap();
        k.lock(t, LockId(0x22)).unwrap(); // learns 0x11 -> 0x22
        k.unlock(t, LockId(0x22));
        k.unlock(t, LockId(0x11));
        {
            let _f = k.enter(t, "null_reader");
            assert_eq!(k.read(t, iid!(), 0), Err(Oops));
        }
        {
            let _f = k.enter(t, "double_freer");
            assert_eq!(k.kfree(t, obj), Err(Oops));
        }
        {
            let _f = k.enter(t, "null_caller");
            assert_eq!(k.call_fn(t, 0), Err(Oops));
        }
        {
            let _f = k.enter(t, "inverter");
            k.lock(t, LockId(0x22)).unwrap();
            assert_eq!(k.lock(t, LockId(0x11)), Err(Oops));
        }
        let titles: Vec<String> = k.sink.take().into_iter().map(|r| r.title).collect();
        assert_eq!(
            titles,
            [
                "BUG: unable to handle kernel NULL pointer dereference in null_reader",
                "KASAN: double-free in double_freer",
                "BUG: unable to handle kernel NULL pointer dereference in null_caller",
                "possible circular locking dependency detected in inverter",
            ]
        );
    }

    #[test]
    fn raw_mode_bypasses_engine_and_oracles() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        k.set_raw(true);
        // Null access does not fault in raw mode (no KASAN).
        assert_eq!(k.read(t, iid!(), 0), Ok(0));
        // Stores are direct: no history, no profiling.
        k.write(t, iid!(), 0x9000, 3).unwrap();
        assert_eq!(k.engine.raw_load(0x9000), 3);
        k.set_raw(false);
    }

    #[test]
    fn cpu_pinning_and_migration_override() {
        let k = Kctx::new(BugSwitches::none());
        assert_eq!(k.cpu_of(Tid(1)), 1);
        k.set_migration_override(true);
        assert_eq!(k.cpu_of(Tid(1)), 0);
    }

    /// A breakpoint whose id collides with a `gate_filter` sentinel must
    /// still fire: the cached filter widens to every gate.
    #[test]
    fn breakpoints_at_sentinel_ids_still_fire() {
        use crate::exec::run_concurrent_closures;
        use ksched::{BreakWhen, Breakpoint, SchedulePlan};
        for id in [GATES_NOWHERE, GATES_EVERYWHERE] {
            let k = Kctx::new(BugSwitches::none());
            let obj = k.kzalloc(8, "obj");
            let plan = SchedulePlan {
                first: Tid(0),
                breakpoint: Some(Breakpoint {
                    iid: Iid(id),
                    when: BreakWhen::After,
                    hit: 1,
                }),
            };
            let out = run_concurrent_closures(
                &k,
                plan,
                move |k| {
                    k.write(Tid(0), Iid(id), obj, 1)?; // switches here
                    k.read(Tid(0), iid!(), obj).map(|v| v as i64)
                },
                move |k| {
                    k.write(Tid(1), iid!(), obj, 2)?;
                    Ok(0)
                },
            );
            assert_eq!(out.ret_a, 2, "CPU 1 ran inside CPU 0's gate (id {id:#x})");
        }
    }

    #[test]
    fn call_fn_null_oopses() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        let ok = k.fns.register("tls_setsockopt");
        assert_eq!(k.call_fn(t, ok), Ok("tls_setsockopt"));
        let _f = k.enter(t, "tls_setsockopt");
        assert_eq!(k.call_fn(t, 0), Err(Oops));
    }

    #[test]
    fn reset_restores_exact_boot_state() {
        let fresh = Kctx::new(BugSwitches::all());
        let k = Kctx::new(BugSwitches::all());
        let boot_digest = fresh.state_digest();
        assert_eq!(
            k.state_digest(),
            boot_digest,
            "boot is deterministic: two fresh machines agree byte-for-byte"
        );

        // Dirty every state dimension reset() must clear: delayed-store and
        // versioned-load controls, memory + store history, lockdep edges,
        // the oracle sink, per-CPU frames, and the mode flags.
        let t = Tid(0);
        let i = iid!();
        k.engine.delay_store_at(t, i);
        k.engine.read_old_value_at(Tid(1), iid!());
        let obj = k.kzalloc(32, "dirty");
        k.write(t, i, obj, 7).unwrap(); // delayed: sits in the store buffer
        k.write(t, iid!(), obj + 8, 9).unwrap(); // commits: memory + history entry
        k.lock(t, LockId(0x11)).unwrap();
        k.lock(t, LockId(0x22)).unwrap(); // learned ordering edge
        k.unlock(t, LockId(0x22));
        k.unlock(t, LockId(0x11));
        {
            let _f = k.enter(t, "dirty_fn");
            assert!(k.read(t, iid!(), 0).is_err()); // null deref -> sink report
        }
        k.set_migration_override(true);
        k.set_raw(true);
        assert_ne!(k.state_digest(), boot_digest, "machine is dirty");
        assert!(k.sink.has_reports());
        assert!(k.engine.pending_stores(t) > 0);

        k.reset();
        assert_eq!(
            k.state_digest(),
            boot_digest,
            "reset() restores the exact boot state"
        );
        assert!(!k.sink.has_reports(), "sink cleared");
        assert_eq!(k.engine.pending_stores(t), 0, "controls + buffer cleared");
        // The cleared delay control stays cleared: a store at the formerly
        // delayed iid now commits immediately.
        let obj2 = k.kzalloc(32, "after");
        k.write(t, i, obj2, 5).unwrap();
        assert_eq!(k.engine.raw_load(obj2), 5);
        // And the reset machine behaves like the fresh one.
        assert_eq!(k.cpu_of(Tid(1)), 1, "migration override cleared");
        assert!(!k.is_raw(), "raw mode cleared");
    }

    #[test]
    fn state_digest_streams_byte_identical_to_snapshot_digest() {
        let k = Kctx::new(BugSwitches::all());
        let t = Tid(0);
        // Dirty several dimensions so the digest is non-trivial.
        let obj = k.kzalloc(32, "digest");
        k.write(t, iid!(), obj, 7).unwrap();
        k.lock(t, LockId(0x11)).unwrap();
        {
            let _f = k.enter(t, "digest_fn");
            assert!(k.read(t, iid!(), 0).is_err());
        }
        let live = k.state_digest();
        assert_eq!(live, k.snapshot().digest());
        // And streaming must not have armed a journal frame of its own
        // (one boot frame + the snapshot above are expected).
        assert_eq!(k.engine.journal_depth(), 2);
    }

    #[test]
    fn reset_takes_the_incremental_path_and_counts_it() {
        let k = Kctx::new(BugSwitches::all());
        let boot_digest = k.state_digest();
        let t = Tid(0);
        for round in 0..3u64 {
            let obj = k.kzalloc(32, "round");
            k.write(t, iid!(), obj, round).unwrap();
            k.lock(t, LockId(0x33)).unwrap();
            k.unlock(t, LockId(0x33));
            k.reset();
            assert_eq!(k.state_digest(), boot_digest);
        }
        let s = k.engine.stats();
        assert_eq!(s.restores_incremental, 3, "every reset was incremental");
        assert_eq!(s.restore_full_fallbacks, 0);
        assert!(s.restore_words_replayed > 0);
    }

    #[test]
    fn force_full_restore_reproduces_the_pre_journal_path() {
        let k = Kctx::new(BugSwitches::all());
        let boot_digest = k.state_digest();
        k.set_force_full_restore(true);
        let t = Tid(0);
        let obj = k.kzalloc(32, "forced");
        k.write(t, iid!(), obj, 1).unwrap();
        k.reset();
        assert_eq!(k.state_digest(), boot_digest);
        let s = k.engine.stats();
        assert_eq!(s.restores_incremental, 0);
        assert_eq!(s.restore_full_fallbacks, 1);
        assert_eq!(k.engine.journal_depth(), 0, "journal disarmed");
        // Turning the knob back on re-arms on the next snapshot/restore.
        k.set_force_full_restore(false);
        k.reset(); // fallback (boot generation no longer armed) + re-arm
        k.kzalloc(8, "x");
        k.reset(); // incremental again
        let s = k.engine.stats();
        assert_eq!(s.restores_incremental, 1);
        assert_eq!(s.restore_full_fallbacks, 2);
    }

    #[test]
    fn syscall_exit_flushes_delayed_stores() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        let obj = k.kzalloc(16, "o");
        let i = iid!();
        k.engine.delay_store_at(t, i);
        k.write(t, i, obj, 5).unwrap();
        assert_eq!(k.engine.raw_load(obj), 0);
        k.syscall_exit(t);
        assert_eq!(k.engine.raw_load(obj), 5);
    }
}
