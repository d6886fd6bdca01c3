//! Function-pointer registry.
//!
//! Most of the paper's Table 3 bugs crash by calling through a function
//! pointer that a reordered publication left uninitialised (`buf->ops` in
//! Figure 1, `ctx->sk_proto` in Figure 7). In the simulated kernel,
//! "function pointers" are addresses in a reserved text segment handed out
//! by this registry; subsystems store them in simulated memory like any
//! other word, and indirect calls validate the target here. A null or
//! garbage target produces the same oops/GPF fault a real kernel would
//! raise.

use std::collections::HashMap;

use kutil::sync::Mutex;

use crate::report::{Fault, FaultKind};

/// Base of the simulated kernel text segment.
pub const FN_BASE: u64 = 0x4000_0000;

/// Exclusive upper bound of the text segment.
pub const FN_LIMIT: u64 = 0x5000_0000;

/// Registry of simulated kernel functions.
#[derive(Default)]
pub struct FnRegistry {
    inner: Mutex<FnRegistryInner>,
}

#[derive(Default)]
struct FnRegistryInner {
    by_addr: HashMap<u64, &'static str>,
    by_name: HashMap<&'static str, u64>,
    next: u64,
    /// Armed undo frames, oldest first. Registration is append-only
    /// (addresses are `FN_BASE + index * 16`, never removed), so a frame
    /// only needs the `next` counter at its push: rollback removes the
    /// registrations `base..next` and nothing can ever invalidate a frame.
    frames: Vec<FnFrame>,
    force_full_restore: bool,
}

struct FnFrame {
    generation: u64,
    next: u64,
}

/// Deepest snapshot nesting tracked; mirrors the engine's frame cap.
const MAX_FRAMES: usize = 8;

/// A full copy of the registry's name↔address tables. Registration order
/// decides addresses, so a reset machine must replay the boot-time table
/// exactly for simulated function pointers to stay stable.
#[derive(Clone)]
pub struct FnRegistrySnapshot {
    by_addr: HashMap<u64, &'static str>,
    by_name: HashMap<&'static str, u64>,
    next: u64,
    /// Undo-journal generation id; not part of the digest.
    generation: u64,
}

impl FnRegistrySnapshot {
    /// Appends a deterministic rendering of the captured table to `out`
    /// (sorted by address).
    pub fn digest(&self, out: &mut String) {
        digest_state(out, self.next, &self.by_addr);
    }

    /// The snapshot's undo-journal generation id.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// The one rendering of registry state both digests share: a snapshot's
/// [`FnRegistrySnapshot::digest`] and the live [`FnRegistry::digest_live`]
/// must be byte-identical for the same state.
fn digest_state(out: &mut String, next: u64, by_addr: &HashMap<u64, &'static str>) {
    use std::fmt::Write;
    writeln!(out, "fnreg next={next}").unwrap();
    let mut fns: Vec<_> = by_addr.iter().collect();
    fns.sort_unstable();
    for (addr, name) in fns {
        writeln!(out, "fn {addr:#x}={name}").unwrap();
    }
}

impl FnRegistry {
    /// Captures the registry's full state and arms an undo frame under the
    /// snapshot's fresh generation id.
    pub fn snapshot(&self) -> FnRegistrySnapshot {
        let mut inner = self.inner.lock();
        let generation = kutil::next_generation();
        if !inner.force_full_restore {
            if inner.frames.len() == MAX_FRAMES {
                inner.frames.remove(0);
            }
            let next = inner.next;
            inner.frames.push(FnFrame { generation, next });
        }
        FnRegistrySnapshot {
            by_addr: inner.by_addr.clone(),
            by_name: inner.by_name.clone(),
            next: inner.next,
            generation,
        }
    }

    /// Restores a previously captured state. When the snapshot's generation
    /// is armed, only the registrations made since it are removed (their
    /// addresses are exactly `FN_BASE + idx * 16` for `idx` in
    /// `frame.next..next`); otherwise both tables `clone_from` and the
    /// journal is re-armed at the restored generation. Returns `true` when
    /// the incremental path was taken.
    pub fn restore(&self, snap: &FnRegistrySnapshot) -> bool {
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
                debug_assert_eq!(inner.frames[k].next, snap.next);
                for idx in inner.frames[k].next..inner.next {
                    let addr = FN_BASE + idx * 16;
                    let name = inner
                        .by_addr
                        .remove(&addr)
                        .expect("append-only table holds every index below next");
                    inner.by_name.remove(name);
                }
                inner.next = snap.next;
                inner.frames.truncate(k + 1);
                true
            }
            None => {
                inner.by_addr.clone_from(&snap.by_addr);
                inner.by_name.clone_from(&snap.by_name);
                inner.next = snap.next;
                inner.frames.clear();
                if !inner.force_full_restore {
                    inner.frames.push(FnFrame {
                        generation: snap.generation,
                        next: snap.next,
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

    /// Live-state digest, byte-identical to [`FnRegistrySnapshot::digest`]
    /// of a snapshot taken at this instant — without cloning the tables.
    pub fn digest_live(&self, out: &mut String) {
        let inner = self.inner.lock();
        digest_state(out, inner.next, &inner.by_addr);
    }

    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or looks up) a function by name and returns its simulated
    /// text address. Idempotent: the same name always maps to the same
    /// address within one registry.
    pub fn register(&self, name: &'static str) -> u64 {
        let mut inner = self.inner.lock();
        if let Some(&addr) = inner.by_name.get(name) {
            return addr;
        }
        let addr = FN_BASE + inner.next * 16;
        inner.next += 1;
        assert!(addr < FN_LIMIT, "simulated text segment exhausted");
        inner.by_addr.insert(addr, name);
        inner.by_name.insert(name, addr);
        addr
    }

    /// Resolves an indirect call target to a function name.
    ///
    /// A zero target is the uninitialised-ops-table crash of Figures 1
    /// and 7; any other unregistered target is a general protection fault.
    /// `in_fn` names the faulting function and is called only on a fault.
    pub fn resolve(
        &self,
        target: u64,
        in_fn: impl FnOnce() -> &'static str,
    ) -> Result<&'static str, Fault> {
        let kind = if target == 0 {
            FaultKind::NullFnCall
        } else {
            match self.inner.lock().by_addr.get(&target) {
                Some(&name) => return Ok(name),
                None => FaultKind::WildFnCall { target },
            }
        };
        Err(Fault {
            kind,
            addr: target,
            in_fn: in_fn(),
        })
    }

    /// Address previously registered for `name`, if any.
    pub fn lookup(&self, name: &str) -> Option<u64> {
        self.inner.lock().by_name.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent() {
        let reg = FnRegistry::new();
        let a = reg.register("tls_setsockopt");
        let b = reg.register("tls_setsockopt");
        assert_eq!(a, b);
        assert!(a >= FN_BASE && a < FN_LIMIT);
    }

    #[test]
    fn resolve_roundtrip() {
        let reg = FnRegistry::new();
        let a = reg.register("pipe_buf_confirm");
        assert_eq!(reg.resolve(a, || "pipe_read").unwrap(), "pipe_buf_confirm");
        assert_eq!(reg.lookup("pipe_buf_confirm"), Some(a));
    }

    #[test]
    fn null_call_is_null_deref() {
        let reg = FnRegistry::new();
        let fault = reg.resolve(0, || "pipe_read").unwrap_err();
        assert!(matches!(fault.kind, FaultKind::NullFnCall));
        assert_eq!(
            fault.title(),
            "BUG: unable to handle kernel NULL pointer dereference in pipe_read"
        );
    }

    #[test]
    fn wild_call_is_gpf() {
        let reg = FnRegistry::new();
        let fault = reg.resolve(0x1234_5678, || "smc_connect").unwrap_err();
        assert!(matches!(fault.kind, FaultKind::WildFnCall { .. }));
    }

    #[test]
    fn distinct_names_distinct_addrs() {
        let reg = FnRegistry::new();
        assert_ne!(reg.register("a"), reg.register("b"));
    }

    fn live_digest(reg: &FnRegistry) -> String {
        let mut out = String::new();
        reg.digest_live(&mut out);
        out
    }

    #[test]
    fn incremental_restore_unregisters_exactly() {
        let reg = FnRegistry::new();
        reg.register("boot_fn");
        let snap = reg.snapshot();
        let mut before = String::new();
        snap.digest(&mut before);
        assert_eq!(live_digest(&reg), before);
        reg.register("test_fn_a");
        reg.register("test_fn_b");
        assert!(reg.restore(&snap), "incremental path taken");
        assert_eq!(live_digest(&reg), before);
        assert_eq!(reg.lookup("test_fn_a"), None);
        assert_eq!(reg.lookup("boot_fn"), snap_lookup(&reg, "boot_fn"));
        // Re-registering after rollback hands out the same address again.
        let a1 = reg.register("test_fn_a");
        assert!(reg.restore(&snap));
        assert_eq!(reg.register("test_fn_a"), a1);
    }

    fn snap_lookup(reg: &FnRegistry, name: &str) -> Option<u64> {
        reg.lookup(name)
    }

    #[test]
    fn cross_registry_restore_falls_back_to_full() {
        let a = FnRegistry::new();
        a.register("f");
        let snap = a.snapshot();
        let b = FnRegistry::new();
        assert!(!b.restore(&snap));
        let mut d = String::new();
        snap.digest(&mut d);
        assert_eq!(live_digest(&b), d);
        b.register("g");
        assert!(b.restore(&snap), "re-armed after fallback");
        assert_eq!(live_digest(&b), d);
    }
}
