//! In-memory spans around the harness's calls into the engine.
//!
//! A span is `(name, start, end, parent, request id)`. Spans are pushed into
//! a pre-reserved vector while the workload runs and written out as JSON when
//! it ends. A span's self time is its duration minus the time its child
//! spans cover (one client thread, so children never overlap).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json;

/// Identifies a span within one [`Tracer`]; `SpanId(0)` means "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);
}

/// An interned span name (intern before the timed loop, not inside it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameId(u16);

#[derive(Debug, Clone, Copy)]
struct Span {
    parent: u32,
    name: u16,
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over a finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Collects spans; all times are nanoseconds since the tracer was created.
///
/// A tracer that is [`off`](Tracer::off) records nothing — `begin` hands out
/// [`SpanId::NONE`] and `end` ignores it — but [`Tracer::timed`] still times
/// its closure, so a workload is written once and run traced or untraced.
pub struct Tracer {
    on: bool,
    /// Whether [`Tracer::set_on`] may switch recording on at all.
    armed: bool,
    t0: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer with room for `capacity` spans before it grows.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            on: true,
            armed: true,
            t0: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// A tracer that records no spans.
    pub fn off() -> Self {
        Tracer {
            on: false,
            armed: false,
            ..Self::with_capacity(0)
        }
    }

    /// Pauses or resumes recording, so one timed run can alternate traced
    /// and untraced windows; a tracer made [`off`](Tracer::off) stays off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on && self.armed;
    }

    /// Median duration recorded by a span around nothing: the floor under
    /// every span, to subtract from nanosecond-scale ones.
    pub fn span_floor_ns() -> f64 {
        let mut t = Tracer::with_capacity(1001);
        let n = t.name("empty");
        for i in 0..1001 {
            t.timed(n, SpanId::NONE, i, || ());
        }
        crate::common::median_ns(&t.durations("empty"))
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Interns `name`.
    pub fn name(&mut self, name: &'static str) -> NameId {
        let idx = match self.names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        NameId(u16::try_from(idx).expect("a trace has a handful of span names"))
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    #[inline]
    pub fn begin(&mut self, name: NameId, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: parent.0,
            name: name.0,
            req,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.spans.len() as u32)
    }

    /// Closes span `id` and returns its duration in nanoseconds (0 for
    /// [`SpanId::NONE`]).
    #[inline]
    pub fn end(&mut self, id: SpanId) -> u64 {
        if id == SpanId::NONE {
            return 0;
        }
        let now = self.now_ns();
        let s = &mut self.spans[id.0 as usize - 1];
        s.end_ns = now;
        now - s.start_ns
    }

    /// Runs `f` inside a span; returns its result and how long it took.
    #[inline]
    pub fn timed<T>(
        &mut self,
        name: NameId,
        parent: SpanId,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        if !self.on {
            let t0 = Instant::now();
            let out = f();
            return (out, t0.elapsed().as_nanos() as u64);
        }
        let id = self.begin(name, parent, req);
        let out = f();
        let ns = self.end(id);
        (out, ns)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let Some(idx) = self.names.iter().position(|n| *n == name) else {
            return Vec::new();
        };
        self.spans
            .iter()
            .filter(|s| usize::from(s.name) == idx)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Count, total time and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(self.names[usize::from(s.name)]).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(*kids);
        }
        out
    }

    /// Writes the trace to `path`: a name table, the per-name totals, and
    /// one `[id, parent, request, name index, start_ns, end_ns]` row per span.
    ///
    /// # Errors
    /// Any I/O error creating or writing the file.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"workload\": {}, \"seed\": {seed}, \"time_unit\": \"ns\",\n \"columns\": [\"id\", \"parent\", \"request\", \"name\", \"start\", \"end\"],\n \"names\": [",
            json::quote(workload)
        )?;
        for (i, n) in self.names.iter().enumerate() {
            write!(w, "{}{}", if i == 0 { "" } else { ", " }, json::quote(n))?;
        }
        write!(w, "],\n \"totals\": {{")?;
        for (i, (name, t)) in self.totals().iter().enumerate() {
            write!(
                w,
                "{}\n  {}: {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                if i == 0 { "" } else { "," },
                json::quote(name),
                t.count,
                t.total_ns,
                t.self_ns
            )?;
        }
        write!(w, "\n }},\n \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                w,
                "{}\n  [{}, {}, {}, {}, {}, {}]",
                if i == 0 { "" } else { "," },
                i + 1,
                s.parent,
                s.req,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(w, "\n ]\n}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::with_capacity(8);
        let (req, child) = (t.name("request"), t.name("child"));
        let root = t.begin(req, SpanId::NONE, 7);
        let (_, a) = t.timed(child, root, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let (_, b) = t.timed(child, root, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let whole = t.end(root);
        let totals = t.totals();
        assert_eq!(totals["child"].count, 2);
        assert_eq!(totals["child"].total_ns, a + b);
        assert_eq!(totals["child"].self_ns, a + b);
        assert_eq!(totals["request"].total_ns, whole);
        assert_eq!(totals["request"].self_ns, whole - a - b);
        assert_eq!(t.durations("child"), vec![a, b]);
        assert!(t.durations("absent").is_empty());
    }

    #[test]
    fn a_tracer_that_is_off_times_but_records_nothing() {
        let mut t = Tracer::off();
        let n = t.name("op");
        let root = t.begin(n, SpanId::NONE, 0);
        assert_eq!(root, SpanId::NONE);
        let (v, ns) = t.timed(n, root, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            42
        });
        assert_eq!(v, 42);
        assert!(ns >= 1_000_000);
        assert_eq!(t.end(root), 0);
        t.set_on(true);
        assert!(!t.is_on(), "a tracer made off cannot be switched on");
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn recording_can_pause_and_resume() {
        let mut t = Tracer::with_capacity(4);
        let n = t.name("op");
        t.timed(n, SpanId::NONE, 0, || ());
        t.set_on(false);
        t.timed(n, SpanId::NONE, 1, || ());
        t.set_on(true);
        t.timed(n, SpanId::NONE, 2, || ());
        assert_eq!(t.len(), 2);
        assert!(Tracer::span_floor_ns() > 0.0);
    }

    #[test]
    fn the_written_trace_parses_back() {
        let mut t = Tracer::with_capacity(4);
        let n = t.name("op \"x\"");
        let root = t.begin(n, SpanId::NONE, 1);
        t.timed(n, root, 1, || ());
        t.end(root);
        let dir = std::env::temp_dir().join(format!("socbench-trace-test-{}", std::process::id()));
        let path = dir.join("trace.json");
        t.write_json(&path, "unit", 7).unwrap();
        let v = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(v.get("workload").and_then(json::Json::as_str), Some("unit"));
        let spans = v.get("spans").and_then(json::Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].as_arr().unwrap()[1].as_f64(), Some(1.0)); // parent = span 1
    }
}
