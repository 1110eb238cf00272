//! Host-clock spans recorded by the benchmark around its calls into the
//! program.
//!
//! Spans go to a buffer allocated once, sized for the round, before the
//! round starts; a span that does not fit is counted as dropped instead of
//! growing it.  A span's *self time* is its duration minus the durations of
//! its direct children, so the self times of one op's spans add up to the
//! op's span.

use std::io::Write;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span, and the index returned for a dropped span.
pub const NO_SPAN: u32 = u32::MAX;
/// Op id of a span that belongs to no single request (setup, flushes,
/// calibration).
pub const NO_OP: u32 = u32::MAX;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One trace request as the benchmark drives it: issue, check, fill.
    Op,
    /// `DittoClient::get_into`.
    Get,
    /// `DittoClient::try_set`.
    Set,
    /// `DittoClient::pump_migration`.
    Pump,
    /// `DittoClient::flush`.
    Flush,
    /// `MemoryPool::add_node`.
    AddNode,
    /// `MemoryPool::drain_node`.
    DrainNode,
    /// The `ditto_workloads` generator call.
    Generate,
    /// `DittoCache::with_dedicated_pool` and the clients' connections.
    Build,
    /// The load phase (its Sets are [`Name::Set`] children).
    Load,
    /// A calibration batch of 8-byte `DmClient` READs.
    Read8,
    /// A calibration batch of 256-byte `DmClient` READs.
    Read256,
    /// A calibration batch of 256-byte `DmClient` WRITEs.
    Write256,
    /// A calibration batch of `DmClient` CASes.
    Cas,
    /// A calibration batch of `DmClient` FAAs.
    Faa,
    /// A calibration batch of two-READ `work_queue` post/ring/polls.
    WqRead2,
    /// One calibration `DittoClient::evict_once`.
    EvictOnce,
}

impl Name {
    /// Number of span names.
    pub const COUNT: usize = 17;
    /// The names of the measured loop's spans, whose self times the traced
    /// run reports per op.
    pub const LOOP: [Name; 7] = [
        Name::Op,
        Name::Get,
        Name::Set,
        Name::Pump,
        Name::Flush,
        Name::AddNode,
        Name::DrainNode,
    ];

    /// The layer call the span wraps, as printed in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Name::Op => "harness",
            Name::Get => "core.get_into",
            Name::Set => "core.try_set",
            Name::Pump => "core.pump_migration",
            Name::Flush => "core.flush",
            Name::AddNode => "dm.pool.add_node",
            Name::DrainNode => "dm.pool.drain_node",
            Name::Generate => "workloads.generate",
            Name::Build => "core.cache.build",
            Name::Load => "core.load",
            Name::Read8 => "dm.read8",
            Name::Read256 => "dm.read256",
            Name::Write256 => "dm.write256",
            Name::Cas => "dm.cas",
            Name::Faa => "dm.faa",
            Name::WqRead2 => "dm.wq_read2",
            Name::EvictOnce => "core.evict_once",
        }
    }
}

/// One recorded span (24 bytes); `start_ns` counts from the tracer's
/// origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start_ns: u64,
    pub dur_ns: u32,
    /// Trace request the span belongs to (its op id).
    pub op: u32,
    /// Index of the enclosing span, or [`NO_SPAN`].
    pub parent: u32,
    pub name: Name,
}

/// A preallocated span buffer.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer whose buffer holds `capacity` spans, timed from `origin`.
    pub fn new(capacity: usize, origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span whose end is not known yet (it will have children);
    /// returns its index for [`Tracer::close`] and for the children.
    pub fn open(&mut self, name: Name, op: u32, parent: u32, start: Instant) -> u32 {
        self.push(Span {
            start_ns: self.ns(start),
            dur_ns: 0,
            op,
            parent,
            name,
        })
    }

    /// Sets the end of a span returned by [`Tracer::open`].
    pub fn close(&mut self, span: u32, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(s) = self.spans.get_mut(span as usize) {
            s.dur_ns = dur(s.start_ns, end_ns);
        }
    }

    /// Records a finished span.
    pub fn record(&mut self, name: Name, op: u32, parent: u32, start: Instant, end: Instant) {
        let start_ns = self.ns(start);
        self.push(Span {
            start_ns,
            dur_ns: dur(start_ns, self.ns(end)),
            op,
            parent,
            name,
        });
    }

    fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_SPAN;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans recorded so far; two marks delimit a stretch of the round.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Total self time (ns) and span count per span name, indexed by
    /// discriminant, over the spans recorded in `range` (whose parents
    /// must lie in the range too).
    pub fn self_ns(&self, range: Range<usize>) -> [(u64, u64); Name::COUNT] {
        let spans = &self.spans[range.clone()];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_SPAN {
                child_ns[s.parent as usize - range.start] += u64::from(s.dur_ns);
            }
        }
        let mut out = [(0u64, 0u64); Name::COUNT];
        for (s, children) in spans.iter().zip(&child_ns) {
            let (total, count) = &mut out[s.name as usize];
            *total += u64::from(s.dur_ns).saturating_sub(*children);
            *count += 1;
        }
        out
    }

    /// Writes every span as one CSV line: `index,op,parent,name,start_ns,end_ns`
    /// (`op` is empty for [`NO_OP`], `parent` for a root span).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index,op,parent,name,start_ns,end_ns")?;
        let id = |v: u32| {
            if v == u32::MAX {
                String::new()
            } else {
                v.to_string()
            }
        };
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{i},{},{},{},{},{}",
                id(s.op),
                id(s.parent),
                s.name.label(),
                s.start_ns,
                s.start_ns + u64::from(s.dur_ns)
            )?;
        }
        out.flush()
    }
}

fn dur(start_ns: u64, end_ns: u64) -> u32 {
    end_ns.saturating_sub(start_ns).min(u64::from(u32::MAX)) as u32
}
