//! Schedule traces: compact, replayable records of one MTI execution.
//!
//! A concurrent pair's outcome under oemu is fully determined by three
//! decision streams: which thread held the scheduler token when (the
//! switch points), which stores entered the virtual store buffer instead
//! of committing (§3.1 delayed stores), and which loads read an old
//! version from the store history (§3.2 versioned loads). A
//! [`ScheduleTrace`] captures exactly those decisions — nothing else —
//! so replaying it against the same kernel state reproduces the original
//! execution bit-for-bit: same commits, same crash report, same
//! `state_digest`.
//!
//! The trace has two layers, mirroring the two sources of nondeterminism:
//!
//! - [`SwitchPoint`]s record the scheduler's token handoffs, keyed by a
//!   per-thread *gate counter* (the n-th time that thread passed a kctx
//!   gate). Only deliberate breakpoint handoffs are recorded; the implicit
//!   handoff when a thread finishes is reproduced by the scheduler's
//!   normal finish path.
//! - [`TraceStep`]s record every instrumented engine event (store delay
//!   decisions, load sources, RMWs, barriers, non-empty buffer flushes)
//!   in global token order. During replay the engine consumes this stream
//!   one event at a time, imposing the recorded decisions and flagging
//!   divergence on any mismatch.
//!
//! Traces serialize to a line-oriented text format (one step per line,
//! instruction ids as `file:line:col`) so golden traces can live in the
//! repository and survive `Iid` hash changes.

use crate::iid::Iid;
use crate::types::{BarrierKind, MemoryModel, Tid};

/// Where a load's value came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadSrc {
    /// Committed memory (the in-order case).
    Memory,
    /// Store-to-load forwarding from the thread's own store buffer.
    Forwarded,
    /// An old version from the store history (§3.2 versioned load).
    Versioned,
}

/// One instrumented engine event, in global execution order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceStep {
    /// A store and its delay decision (`delayed`: entered the buffer).
    Store { tid: Tid, iid: Iid, delayed: bool },
    /// A load and the source of its value.
    Load { tid: Tid, iid: Iid, src: LoadSrc },
    /// An atomic read-modify-write (always in-order).
    Rmw { tid: Tid, iid: Iid },
    /// A memory barrier (explicit or implied by an annotated access).
    Barrier {
        tid: Tid,
        iid: Iid,
        kind: BarrierKind,
    },
    /// A store-buffer flush that committed `committed` > 0 stores.
    Flush { tid: Tid, committed: u32 },
}

impl TraceStep {
    /// The thread that produced this step.
    pub fn tid(&self) -> Tid {
        match *self {
            TraceStep::Store { tid, .. }
            | TraceStep::Load { tid, .. }
            | TraceStep::Rmw { tid, .. }
            | TraceStep::Barrier { tid, .. }
            | TraceStep::Flush { tid, .. } => tid,
        }
    }
}

/// A recorded scheduler handoff: after thread `tid`'s `nth_gate`-th gate
/// call (1-based, counting every gate phase), the token moved to `to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwitchPoint {
    /// The thread that yielded the token.
    pub tid: Tid,
    /// That thread's gate-call count at the handoff (1-based).
    pub nth_gate: u32,
    /// The thread that received the token.
    pub to: Tid,
}

/// Everything needed to replay one concurrent pair execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// Memory model of the machine that recorded the trace. Replay must
    /// run under the same model or the recorded decision stream is
    /// meaningless (a TSO trace's whole-buffer flushes never happen on a
    /// PSO machine, and vice versa).
    pub model: MemoryModel,
    /// The thread that ran first.
    pub first: Tid,
    /// Deliberate token handoffs, in occurrence order.
    pub switches: Vec<SwitchPoint>,
    /// Every instrumented engine event, in global order — or, for a
    /// sparse trace, only the ordering *decisions* (see [`sparse`]).
    ///
    /// [`sparse`]: ScheduleTrace::sparse
    pub steps: Vec<TraceStep>,
    /// A sparse trace keeps only the decision steps — delayed stores and
    /// versioned loads — instead of the full instrumented event stream.
    /// Replay then reinstalls those decisions as Table 2 engine controls
    /// and slaves only the *scheduler* to the switch script, instead of
    /// matching every engine event against the trace. Minimized traces
    /// (`ozz::triage`) are sparse: dropping events from a full trace
    /// would make strict stream-matching replay diverge immediately.
    pub sparse: bool,
}

/// Replay fidelity summary returned by the engine after a replay run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayStatus {
    /// The execution departed from the trace (wrong event, leftover or
    /// missing steps); the engine fell back to in-order behavior.
    pub diverged: bool,
    /// Steps consumed before the run ended.
    pub consumed: usize,
    /// Steps in the trace.
    pub total: usize,
}

// Trace serialization of instruction ids is the workspace-wide token form
// (`Iid::to_token` / `Iid::from_token`); these aliases keep the format
// code below compact.
fn fmt_iid(iid: Iid) -> String {
    iid.to_token()
}

fn parse_iid(s: &str) -> Result<Iid, String> {
    Iid::from_token(s)
}

fn fmt_barrier(kind: BarrierKind) -> &'static str {
    match kind {
        BarrierKind::Full => "mb",
        BarrierKind::Rmb => "rmb",
        BarrierKind::Wmb => "wmb",
        BarrierKind::Acquire => "acquire",
        BarrierKind::Release => "release",
        BarrierKind::ReadOnce => "read_once",
    }
}

fn parse_barrier(s: &str) -> Result<BarrierKind, String> {
    Ok(match s {
        "mb" => BarrierKind::Full,
        "rmb" => BarrierKind::Rmb,
        "wmb" => BarrierKind::Wmb,
        "acquire" => BarrierKind::Acquire,
        "release" => BarrierKind::Release,
        "read_once" => BarrierKind::ReadOnce,
        _ => return Err(format!("unknown barrier kind {s:?}")),
    })
}

impl ScheduleTrace {
    /// Whether a step records an ordering *decision*: a store that entered
    /// the virtual store buffer, or a load that read an old version.
    /// Everything else in a full trace (in-order stores, memory/forwarded
    /// loads, RMWs, barriers, flushes) is a consequence of those decisions
    /// plus the switch script.
    pub fn is_decision(step: &TraceStep) -> bool {
        matches!(
            step,
            TraceStep::Store { delayed: true, .. }
                | TraceStep::Load {
                    src: LoadSrc::Versioned,
                    ..
                }
        )
    }

    /// The decision steps of this trace, in recorded order.
    pub fn decision_steps(&self) -> impl Iterator<Item = &TraceStep> {
        self.steps.iter().filter(|s| Self::is_decision(s))
    }

    /// Total replayable events: engine steps plus scheduler switches —
    /// the size a human has to read, and what minimization shrinks.
    pub fn event_count(&self) -> usize {
        self.steps.len() + self.switches.len()
    }

    /// The sparse projection: same model/first/switches, steps reduced to
    /// the decisions. Sparse-replaying it against the same pre-run kernel
    /// state reproduces the full trace's execution — the dropped steps
    /// were consequences, not choices.
    pub fn sparsify(&self) -> ScheduleTrace {
        ScheduleTrace {
            model: self.model,
            first: self.first,
            switches: self.switches.clone(),
            steps: self.decision_steps().cloned().collect(),
            sparse: true,
        }
    }

    /// A copy with `steps` replaced by the subsequence at `keep` indices
    /// (in order). Indices must be valid and ascending.
    pub fn with_step_subset(&self, keep: &[usize]) -> ScheduleTrace {
        let mut t = self.clone();
        t.steps = keep.iter().map(|&i| self.steps[i].clone()).collect();
        t
    }

    /// A copy with `switches` replaced by the subsequence at `keep`
    /// indices (in order). Indices must be valid and ascending.
    pub fn with_switch_subset(&self, keep: &[usize]) -> ScheduleTrace {
        let mut t = self.clone();
        t.switches = keep.iter().map(|&i| self.switches[i]).collect();
        t
    }

    /// Serializes the trace to the line-oriented text format.
    ///
    /// TSO traces keep the original `ozz-trace v1` header byte-for-byte
    /// (golden traces stay pinned); non-TSO traces use `ozz-trace v2`,
    /// which adds a mandatory `model <name>` line after the header.
    /// Sparse traces use `ozz-trace v3`: a mandatory `model` line (any
    /// model, TSO included) followed by a `sparse` marker line — full
    /// traces never carry the marker, so the v1/v2 bytes are untouched.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if self.sparse {
            out.push_str("ozz-trace v3\n");
            out.push_str(&format!("model {}\n", self.model.name()));
            out.push_str("sparse\n");
        } else if self.model == MemoryModel::Tso {
            out.push_str("ozz-trace v1\n");
        } else {
            out.push_str("ozz-trace v2\n");
            out.push_str(&format!("model {}\n", self.model.name()));
        }
        out.push_str(&format!("first {}\n", self.first.0));
        for sp in &self.switches {
            out.push_str(&format!(
                "switch {} {} {}\n",
                sp.tid.0, sp.nth_gate, sp.to.0
            ));
        }
        for step in &self.steps {
            match step {
                TraceStep::Store { tid, iid, delayed } => {
                    let d = if *delayed { "delayed" } else { "committed" };
                    out.push_str(&format!("store {} {} {}\n", tid.0, fmt_iid(*iid), d));
                }
                TraceStep::Load { tid, iid, src } => {
                    let s = match src {
                        LoadSrc::Memory => "mem",
                        LoadSrc::Forwarded => "fwd",
                        LoadSrc::Versioned => "ver",
                    };
                    out.push_str(&format!("load {} {} {}\n", tid.0, fmt_iid(*iid), s));
                }
                TraceStep::Rmw { tid, iid } => {
                    out.push_str(&format!("rmw {} {}\n", tid.0, fmt_iid(*iid)));
                }
                TraceStep::Barrier { tid, iid, kind } => {
                    out.push_str(&format!(
                        "barrier {} {} {}\n",
                        tid.0,
                        fmt_iid(*iid),
                        fmt_barrier(*kind)
                    ));
                }
                TraceStep::Flush { tid, committed } => {
                    out.push_str(&format!("flush {} {}\n", tid.0, committed));
                }
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parses the text format produced by [`ScheduleTrace::to_text`].
    ///
    /// Accepts all three versions: `v1` implies TSO (the format predates
    /// pluggable models); `v2` requires an explicit `model` line; `v3`
    /// additionally requires the `sparse` marker (the version exists only
    /// for sparse traces).
    ///
    /// A trace describes one pair, so every tid must be 0 or 1, and it
    /// holds at most one `switch` line: recording never emits a second one,
    /// and the step executor can only resume in LIFO order.
    pub fn parse(text: &str) -> Result<ScheduleTrace, String> {
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        let version = match lines.next() {
            Some("ozz-trace v1") => 1,
            Some("ozz-trace v2") => 2,
            Some("ozz-trace v3") => 3,
            other => return Err(format!("bad trace header: {other:?}")),
        };
        let v2 = version >= 2;
        let mut sparse = false;
        let mut model = None;
        let mut first = None;
        let mut switches = Vec::new();
        let mut steps = Vec::new();
        let mut ended = false;
        for line in lines {
            if ended {
                return Err(format!("trailing content after end: {line:?}"));
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let ctx = || format!("bad trace line {line:?}");
            let tid_at = |i: usize| -> Result<Tid, String> {
                match fields.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(t @ (0 | 1)) => Ok(Tid(t)),
                    Some(t) => Err(format!("bad trace line {line:?}: tid {t} is not 0 or 1")),
                    None => Err(ctx()),
                }
            };
            let num_at = |i: usize| -> Result<u32, String> {
                fields
                    .get(i)
                    .and_then(|s| s.parse::<u32>().ok())
                    .ok_or_else(ctx)
            };
            let str_at =
                |i: usize| -> Result<&str, String> { fields.get(i).copied().ok_or_else(ctx) };
            match fields[0] {
                "sparse" if version >= 3 => sparse = true,
                "model" if v2 => {
                    let name = str_at(1)?;
                    model = Some(
                        MemoryModel::parse(name)
                            .ok_or_else(|| format!("unknown memory model {name:?}"))?,
                    );
                }
                "first" => first = Some(tid_at(1)?),
                "switch" if !switches.is_empty() => {
                    return Err(format!("bad trace line {line:?}: second switch"));
                }
                "switch" => switches.push(SwitchPoint {
                    tid: tid_at(1)?,
                    nth_gate: num_at(2)?,
                    to: tid_at(3)?,
                }),
                "store" => steps.push(TraceStep::Store {
                    tid: tid_at(1)?,
                    iid: parse_iid(str_at(2)?)?,
                    delayed: match str_at(3)? {
                        "delayed" => true,
                        "committed" => false,
                        _ => return Err(ctx()),
                    },
                }),
                "load" => steps.push(TraceStep::Load {
                    tid: tid_at(1)?,
                    iid: parse_iid(str_at(2)?)?,
                    src: match str_at(3)? {
                        "mem" => LoadSrc::Memory,
                        "fwd" => LoadSrc::Forwarded,
                        "ver" => LoadSrc::Versioned,
                        _ => return Err(ctx()),
                    },
                }),
                "rmw" => steps.push(TraceStep::Rmw {
                    tid: tid_at(1)?,
                    iid: parse_iid(str_at(2)?)?,
                }),
                "barrier" => steps.push(TraceStep::Barrier {
                    tid: tid_at(1)?,
                    iid: parse_iid(str_at(2)?)?,
                    kind: parse_barrier(str_at(3)?)?,
                }),
                "flush" => steps.push(TraceStep::Flush {
                    tid: tid_at(1)?,
                    committed: num_at(2)?,
                }),
                "end" => ended = true,
                _ => return Err(ctx()),
            }
        }
        if !ended {
            return Err("trace missing end marker".into());
        }
        let model = match (v2, model) {
            (false, _) => MemoryModel::Tso,
            (true, Some(m)) => m,
            (true, None) => return Err(format!("v{version} trace missing model line")),
        };
        if version >= 3 && !sparse {
            return Err("v3 trace missing sparse marker".into());
        }
        Ok(ScheduleTrace {
            model,
            first: first.ok_or("trace missing first line")?,
            switches,
            steps,
            sparse,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iid;

    fn sample() -> ScheduleTrace {
        let a = iid!();
        let b = iid!();
        ScheduleTrace {
            model: MemoryModel::Tso,
            first: Tid(1),
            switches: vec![SwitchPoint {
                tid: Tid(1),
                nth_gate: 4,
                to: Tid(0),
            }],
            steps: vec![
                TraceStep::Barrier {
                    tid: Tid(1),
                    iid: a,
                    kind: BarrierKind::Wmb,
                },
                TraceStep::Store {
                    tid: Tid(1),
                    iid: a,
                    delayed: true,
                },
                TraceStep::Load {
                    tid: Tid(0),
                    iid: b,
                    src: LoadSrc::Versioned,
                },
                TraceStep::Rmw {
                    tid: Tid(0),
                    iid: b,
                },
                TraceStep::Flush {
                    tid: Tid(1),
                    committed: 2,
                },
            ],
            sparse: false,
        }
    }

    #[test]
    fn text_roundtrip_is_identity() {
        let t = sample();
        let parsed = ScheduleTrace::parse(&t.to_text()).expect("parse");
        assert_eq!(t, parsed);
    }

    #[test]
    fn synthetic_and_raw_iids_roundtrip() {
        let t = ScheduleTrace {
            model: MemoryModel::Tso,
            first: Tid(0),
            switches: vec![],
            steps: vec![
                TraceStep::Rmw {
                    tid: Tid(0),
                    iid: Iid::SYNTHETIC,
                },
                TraceStep::Rmw {
                    tid: Tid(0),
                    iid: Iid(0xdead_beef),
                },
            ],
            sparse: false,
        };
        let parsed = ScheduleTrace::parse(&t.to_text()).expect("parse");
        assert_eq!(t, parsed);
    }

    /// TSO traces keep the exact v1 header (golden traces stay pinned);
    /// non-TSO traces carry an explicit model tag and round-trip through
    /// the v2 format.
    #[test]
    fn model_tag_selects_format_version_and_roundtrips() {
        let mut t = sample();
        assert!(t.to_text().starts_with("ozz-trace v1\nfirst 1\n"));
        for model in [MemoryModel::Pso, MemoryModel::Arm] {
            t.model = model;
            let text = t.to_text();
            assert!(text.starts_with(&format!("ozz-trace v2\nmodel {}\n", model.name())));
            assert_eq!(ScheduleTrace::parse(&text).expect("parse"), t);
        }
    }

    /// The sparse projection keeps exactly the decisions (delayed stores,
    /// versioned loads) plus the switch script, and round-trips through
    /// the v3 format under every model — the v1/v2 bytes of full traces
    /// are untouched.
    #[test]
    fn sparsify_keeps_decisions_and_roundtrips_as_v3() {
        let full = sample();
        let sparse = full.sparsify();
        assert!(sparse.sparse);
        assert_eq!(sparse.switches, full.switches);
        assert_eq!(
            sparse.steps.len(),
            2,
            "one delayed store, one versioned load"
        );
        assert!(sparse.steps.iter().all(ScheduleTrace::is_decision));
        assert!(sparse.event_count() < full.event_count());
        for model in [MemoryModel::Tso, MemoryModel::Pso, MemoryModel::Arm] {
            let mut t = sparse.clone();
            t.model = model;
            let text = t.to_text();
            assert!(text.starts_with(&format!("ozz-trace v3\nmodel {}\nsparse\n", model.name())));
            assert_eq!(ScheduleTrace::parse(&text).expect("parse"), t);
        }
        // Sparsifying a sparse trace is the identity.
        assert_eq!(sparse.sparsify(), sparse);
    }

    #[test]
    fn subset_helpers_select_in_order() {
        let t = sample();
        let sub = t.with_step_subset(&[0, 2, 4]);
        assert_eq!(sub.steps.len(), 3);
        assert_eq!(sub.steps[0], t.steps[0]);
        assert_eq!(sub.steps[1], t.steps[2]);
        assert_eq!(sub.steps[2], t.steps[4]);
        assert_eq!(sub.switches, t.switches);
        let none = t.with_switch_subset(&[]);
        assert!(none.switches.is_empty());
        assert_eq!(none.steps, t.steps);
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(ScheduleTrace::parse("").is_err());
        assert!(ScheduleTrace::parse("ozz-trace v1\nfirst 0\n").is_err());
        assert!(ScheduleTrace::parse("ozz-trace v1\nfirst 0\nbogus 1 2\nend\n").is_err());
        assert!(
            ScheduleTrace::parse("ozz-trace v2\nfirst 0\nend\n").is_err(),
            "a v2 trace without a model line is rejected"
        );
        assert!(
            ScheduleTrace::parse("ozz-trace v2\nmodel sc\nfirst 0\nend\n").is_err(),
            "an unknown model name is rejected"
        );
        assert!(
            ScheduleTrace::parse("ozz-trace v1\nmodel pso\nfirst 0\nend\n").is_err(),
            "v1 traces predate the model line"
        );
        assert!(
            ScheduleTrace::parse("ozz-trace v3\nmodel tso\nfirst 0\nend\n").is_err(),
            "a v3 trace without the sparse marker is rejected"
        );
        assert!(
            ScheduleTrace::parse("ozz-trace v3\nsparse\nfirst 0\nend\n").is_err(),
            "a v3 trace without a model line is rejected"
        );
        assert!(
            ScheduleTrace::parse("ozz-trace v1\nsparse\nfirst 0\nend\n").is_err(),
            "v1/v2 traces are never sparse"
        );
        // A pair trace names CPUs 0 and 1 only, wherever a tid appears.
        assert!(ScheduleTrace::parse("ozz-trace v1\nfirst 7\nend\n").is_err());
        let iid = Iid::SYNTHETIC.to_token();
        for line in [
            "first 7".to_string(),
            "switch 2 1 0".to_string(),
            "switch 0 1 2".to_string(),
            format!("store 9 {iid} delayed"),
            format!("load 2 {iid} ver"),
            format!("rmw 3 {iid}"),
            format!("barrier 4 {iid} mb"),
            "flush 5 1".to_string(),
        ] {
            let text = format!("ozz-trace v3\nmodel tso\nsparse\nfirst 0\n{line}\nend\n");
            let err = ScheduleTrace::parse(&text).expect_err(&line);
            assert!(err.contains(&line), "the error names the line: {err}");
        }
        // At most one switch: the step executor resumes in LIFO order only.
        let err = ScheduleTrace::parse("ozz-trace v1\nfirst 0\nswitch 0 1 1\nswitch 1 1 0\nend\n")
            .expect_err("a second switch line is rejected");
        assert!(
            err.contains("switch 1 1 0"),
            "the error names the line: {err}"
        );
    }
}
