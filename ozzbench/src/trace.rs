//! In-memory span recorder for the traced run.
//!
//! A span is opened with [`begin`] and closed with [`end`], which names its
//! layer (so a pool checkout that turned out to boot a machine can be filed
//! under `kernelsim.boot`). Spans nest: a span's self time is its duration
//! minus the time its children cover. Per-layer call counts, total and self
//! time are aggregated as spans close; the first [`RAW_SPAN_CAP`] raw spans
//! (name, start, end, parent, op id) are kept for the JSON-lines dump.
//! Counters ([`add`]) are recorded at the same boundaries.
//!
//! The recorder is thread-local and absent unless [`start`] installed it;
//! only the traced mirrors call into this module.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer boundaries the traced mirrors time, named `<module>.<what>`
/// after the crate and public function each span wraps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    FuzzerStep,
    Sti,
    Profile,
    MtiBuild,
    Hints,
    PoolCheckout,
    PoolCheckin,
    Boot,
    Reset,
    Setup,
    Snapshot,
    Restore,
    Pair,
    Record,
    CampaignRun,
    CampaignEpoch,
    CampaignMerge,
    ReproReplay,
    ExecReplay,
    Digest,
    Triage,
    TriageMinimize,
    TriageBisect,
}

impl Layer {
    pub const ALL: [Layer; 23] = [
        Layer::FuzzerStep,
        Layer::Sti,
        Layer::Profile,
        Layer::MtiBuild,
        Layer::Hints,
        Layer::PoolCheckout,
        Layer::PoolCheckin,
        Layer::Boot,
        Layer::Reset,
        Layer::Setup,
        Layer::Snapshot,
        Layer::Restore,
        Layer::Pair,
        Layer::Record,
        Layer::CampaignRun,
        Layer::CampaignEpoch,
        Layer::CampaignMerge,
        Layer::ReproReplay,
        Layer::ExecReplay,
        Layer::Digest,
        Layer::Triage,
        Layer::TriageMinimize,
        Layer::TriageBisect,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::FuzzerStep => "ozz.fuzzer.step",
            Layer::Sti => "ozz.sti",
            Layer::Profile => "ozz.profile",
            Layer::MtiBuild => "ozz.mti.build",
            Layer::Hints => "ozz.hints",
            Layer::PoolCheckout => "kernelsim.pool.checkout",
            Layer::PoolCheckin => "kernelsim.pool.checkin",
            Layer::Boot => "kernelsim.boot",
            Layer::Reset => "kernelsim.reset",
            Layer::Setup => "ozz.mti.setup",
            Layer::Snapshot => "kernelsim.snapshot",
            Layer::Restore => "kernelsim.restore",
            Layer::Pair => "ozz.mti.pair",
            Layer::Record => "ozz.mti.record",
            Layer::CampaignRun => "ozz.campaign.run",
            Layer::CampaignEpoch => "ozz.campaign.epoch",
            Layer::CampaignMerge => "ozz.campaign.merge",
            Layer::ReproReplay => "ozz.repro.replay",
            Layer::ExecReplay => "kernelsim.exec.replay",
            Layer::Digest => "kernelsim.digest",
            Layer::Triage => "ozz.triage",
            Layer::TriageMinimize => "ozz.triage.minimize",
            Layer::TriageBisect => "ozz.triage.bisect",
        }
    }
}

/// Counts recorded at the layer boundaries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Counter {
    /// Pair executions whose engine-stats delta was taken (live pairs and
    /// replays): the denominator of the `oemu.*_per_exec` metrics.
    Execs,
    Commits,
    Delayed,
    Forwards,
    VersionedReads,
    Barriers,
    /// Live pair executions that raised at least one crash report.
    CrashingPairs,
    HintsGenerated,
    HintsExecuted,
    ProfileEvents,
    WordsReplayed,
    FullFallbacks,
    Rounds,
    TriageReplays,
    BisectProbes,
    EventsAfter,
}

const COUNTERS: usize = Counter::EventsAfter as usize + 1;

/// Raw spans kept for the JSON-lines dump; later spans are only aggregated.
const RAW_SPAN_CAP: usize = 200_000;

/// Per-layer aggregate.
#[derive(Clone, Copy, Default, Debug)]
pub struct LayerTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Frame {
    id: u32,
    start: u64,
    child_ns: u64,
}

struct RawSpan {
    id: u32,
    parent: u32,
    op: u32,
    layer: Layer,
    start: u64,
    end: u64,
}

/// Everything one traced run recorded.
pub struct Recorder {
    epoch: Instant,
    stack: Vec<Frame>,
    totals: [LayerTotals; Layer::ALL.len()],
    counters: [u64; COUNTERS],
    /// Summed duration of root spans: the traced wall time the layers cover.
    root_ns: u64,
    spans: Vec<RawSpan>,
    next_id: u32,
    op: u32,
    span_count: u64,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs a fresh recorder on this thread.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            stack: Vec::new(),
            totals: [LayerTotals::default(); Layer::ALL.len()],
            counters: [0; COUNTERS],
            root_ns: 0,
            spans: Vec::new(),
            next_id: 1,
            op: 0,
            span_count: 0,
        })
    });
}

/// Removes and returns this thread's recorder.
pub fn finish() -> Recorder {
    REC.with(|r| r.borrow_mut().take())
        .expect("trace::finish without trace::start")
}

/// Opens a span; [`end`] closes it.
pub fn begin() {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let start = rec.now();
            let id = rec.next_id;
            rec.next_id = rec.next_id.wrapping_add(1);
            if rec.stack.is_empty() {
                rec.op = id;
            }
            rec.stack.push(Frame {
                id,
                start,
                child_ns: 0,
            });
        }
    });
}

/// Closes the innermost open span and files it under `layer`.
pub fn end(layer: Layer) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let end = rec.now();
            let f = rec.stack.pop().expect("trace::end without trace::begin");
            let dur = end - f.start;
            let t = &mut rec.totals[layer as usize];
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(f.child_ns);
            let parent = match rec.stack.last_mut() {
                Some(p) => {
                    p.child_ns += dur;
                    p.id
                }
                None => {
                    rec.root_ns += dur;
                    0
                }
            };
            rec.span_count += 1;
            if rec.spans.len() < RAW_SPAN_CAP {
                rec.spans.push(RawSpan {
                    id: f.id,
                    parent,
                    op: rec.op,
                    layer,
                    start: f.start,
                    end,
                });
            }
        }
    });
}

/// Runs `f` inside a span of `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    begin();
    let out = f();
    end(layer);
    out
}

/// Adds `n` to a counter.
pub fn add(c: Counter, n: u64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.counters[c as usize] += n;
        }
    });
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn layer(&self, l: Layer) -> LayerTotals {
        self.totals[l as usize]
    }

    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Time covered by root spans, in nanoseconds.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// Spans closed, including those beyond the raw-span cap.
    pub fn span_count(&self) -> u64 {
        self.span_count
    }

    /// The kept raw spans as JSON lines.
    pub fn raw_spans_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"op\":{}}}",
                s.layer.name(),
                s.start,
                s.end,
                s.id,
                s.parent,
                s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_sum() {
        start();
        span(Layer::FuzzerStep, || {
            span(Layer::Profile, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            add(Counter::Commits, 3);
        });
        let rec = finish();
        let step = rec.layer(Layer::FuzzerStep);
        let prof = rec.layer(Layer::Profile);
        assert_eq!((step.calls, prof.calls), (1, 1));
        assert!(prof.total_ns >= 2_000_000);
        assert_eq!(step.self_ns, step.total_ns - prof.total_ns);
        assert_eq!(rec.root_ns(), step.total_ns);
        assert_eq!(rec.counter(Counter::Commits), 3);
        let lines = rec.raw_spans_jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.starts_with("{\"name\":\"ozz.profile\""));
        assert!(lines.contains("\"parent\":0,\"op\":1}"));
    }

    #[test]
    fn spans_are_ignored_without_a_recorder() {
        assert_eq!(span(Layer::Sti, || 7), 7);
        add(Counter::Execs, 1);
    }
}
