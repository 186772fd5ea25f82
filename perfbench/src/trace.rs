//! In-memory span recorder for the traced run.
//!
//! A span covers one call into a layer, recorded from the benchmark's side
//! of the boundary. Spans stay in memory while the run measures and are
//! written out as CSV when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Crate or module the call enters (`omfl_workload`, `omfl_core::pd`, ...).
    pub layer: &'static str,
    /// The entry point called (`Family::build`, `serve`, ...).
    pub call: &'static str,
    /// Tenant (scenario) index the call belongs to.
    pub tenant: u32,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Call-specific flag: `ServeOutcome.opened` non-empty for `serve`,
    /// certified for `solve_bounded`, small for the index fold.
    pub flag: bool,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder. A disabled recorder (the untraced run) drops every span,
/// so both runs execute the same code with the same clock reads.
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span from two clock reads already taken by the caller.
    pub fn push(
        &mut self,
        layer: &'static str,
        call: &'static str,
        tenant: usize,
        start: Instant,
        end: Instant,
        flag: bool,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            layer,
            call,
            tenant: tenant as u32,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            flag,
        };
        self.spans.push(span);
    }

    /// Records a span around `f`.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        call: &'static str,
        tenant: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(layer, call, tenant, start, end, false);
        (out, (end - start).as_secs_f64())
    }

    /// All spans recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one CSV row.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "layer,call,tenant,start_ns,end_ns,flag")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.layer, s.call, s.tenant, s.start_ns, s.end_ns, s.flag as u8
            )?;
        }
        out.flush()
    }
}
