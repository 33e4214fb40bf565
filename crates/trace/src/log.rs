//! One ordered, clock-stamped event log, used by the campaign
//! supervisor ([`crate::CampaignLog`]).
//!
//! Each event type names its stream and its clock key; the log renders
//! JSONL with fixed key order: a `{"trace":<tag>,"records":N}` header,
//! then `{"seq":i,<clock key>:t,"event":…}` per event, so identical
//! event streams render byte-identical artifacts.

use std::fmt::Write as _;

/// An event type an [`EventLog`] can render.
pub trait LogEvent {
    /// The header's `trace` tag.
    const TRACE: &'static str;
    /// The key the per-event clock stamp is rendered under.
    const CLOCK_KEY: &'static str;

    /// Appends the event's name and fields after `"event":`, e.g.
    /// `"probe","cell":"…","ok":true`.
    fn write_fields(&self, out: &mut String);

    /// Renders the event as one JSON object (no trailing newline).
    fn json_line(&self, seq: u64, at_cycles: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"seq\":{seq},\"{}\":{at_cycles},\"event\":",
            Self::CLOCK_KEY
        );
        self.write_fields(&mut out);
        out.push('}');
        out
    }
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
    /// in recording order.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"trace\":\"{}\",\"records\":{}}}",
            E::TRACE,
            self.events.len()
        );
        for (seq, (cycles, event)) in self.events.iter().enumerate() {
            out.push_str(&event.json_line(seq as u64, *cycles));
            out.push('\n');
        }
        out
    }
}
