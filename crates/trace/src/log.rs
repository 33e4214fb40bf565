//! The one JSONL framing of the trace plane ([`render_jsonl`]: fixed
//! key order, so identical event streams render byte-identical
//! artifacts), and the ordered, clock-stamped event log of the campaign
//! supervisor ([`crate::CampaignLog`]). [`EventLog`] and
//! [`crate::TraceSink`] differ only in the fields each line carries
//! after the framing's prefix.

use std::fmt::Write as _;

/// Renders a JSONL log: the header `{"trace":<trace>,"records":<len>`,
/// then each `extras` field, then `}`; then, per `(seq, clock, record)`,
/// the prefix `{"seq":seq,"<clock_key>":clock,`, the record's own fields
/// (from `write_fields`) and `}`. Every line ends in a newline.
pub(crate) fn render_jsonl<R>(
    trace: &str,
    len: usize,
    extras: &[(&str, u64)],
    clock_key: &str,
    records: impl Iterator<Item = (u64, u64, R)>,
    mut write_fields: impl FnMut(&mut String, R),
) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"trace\":\"{trace}\",\"records\":{len}");
    for (key, value) in extras {
        let _ = write!(out, ",\"{key}\":{value}");
    }
    out.push_str("}\n");
    for (seq, clock, record) in records {
        let _ = write!(out, "{{\"seq\":{seq},\"{clock_key}\":{clock},");
        write_fields(&mut out, record);
        out.push_str("}\n");
    }
    out
}

/// An event type an [`EventLog`] can render.
pub trait LogEvent {
    /// The header's `trace` tag.
    const TRACE: &'static str;
    /// The key the per-event clock stamp is rendered under.
    const CLOCK_KEY: &'static str;

    /// Appends the event's fields after the line prefix, starting with
    /// its name, e.g. `"event":"probe","cell":"…","ok":true`.
    fn write_fields(&self, out: &mut String);
}

/// An ordered log: every event with the simulated cycle stamp at which
/// it was recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLog<E> {
    events: Vec<(u64, E)>,
}

impl<E> Default for EventLog<E> {
    fn default() -> Self {
        EventLog { events: Vec::new() }
    }
}

impl<E> EventLog<E> {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Appends `event` stamped at `at_cycles`.
    pub fn push(&mut self, at_cycles: u64, event: E) {
        self.events.push((at_cycles, event));
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(u64, E)> {
        self.events.iter()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl<E: LogEvent> EventLog<E> {
    /// Renders the log as JSONL: a header line, then one line per event
    /// in recording order, numbered from 0.
    pub fn render_jsonl(&self) -> String {
        render_jsonl(
            E::TRACE,
            self.events.len(),
            &[],
            E::CLOCK_KEY,
            (0u64..)
                .zip(&self.events)
                .map(|(seq, (at, e))| (seq, *at, e)),
            |out, event| event.write_fields(out),
        )
    }
}
