//! JSONL rendering of trace records.
//!
//! Hand-rolled like the checkpoint writer (the build is offline, no
//! serde); the emitted text is deterministic — key order is fixed and
//! every value is an integer, a bool or an escaped string — which is what
//! lets the test suite demand byte-identical traces across runs and
//! `--jobs` values.

use crate::event::{CounterSnapshot, TraceEvent, TraceRecord};
use crate::sink::TraceSink;
use std::fmt::Write as _;

fn push_snap(out: &mut String, snap: &CounterSnapshot) {
    out.push('{');
    for (i, (name, v)) in snap.fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{v}");
    }
    out.push('}');
}

impl TraceSink {
    /// Renders one record as a single JSON object (no trailing newline).
    pub fn json_line(&self, r: &TraceRecord) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"seq\":{},\"cycles\":{},\"thread\":{},\"event\":",
            r.seq, r.cycles, r.thread
        );
        match r.event {
            TraceEvent::EcallEnter => out.push_str("\"ecall_enter\""),
            TraceEvent::EcallExit => out.push_str("\"ecall_exit\""),
            TraceEvent::Ocall { switchless } => {
                let _ = write!(out, "\"ocall\",\"switchless\":{switchless}");
            }
            TraceEvent::Aex { injected } => {
                let _ = write!(out, "\"aex\",\"injected\":{injected}");
            }
            TraceEvent::EpcFault {
                loadback,
                evicted,
                resident_pages,
            } => {
                let _ = write!(
                    out,
                    "\"epc_fault\",\"loadback\":{loadback},\"evicted\":{evicted},\
                     \"resident_pages\":{resident_pages}"
                );
            }
            TraceEvent::ShimSyscall { host } => {
                let _ = write!(out, "\"shim_syscall\",\"host\":{host}");
            }
            TraceEvent::FaultInjected { kind } => {
                let _ = write!(out, "\"fault_injected\",\"kind\":\"{}\"", kind.name());
            }
            TraceEvent::PhaseBegin { id, snap } => {
                let _ = write!(
                    out,
                    "\"phase_begin\",\"phase\":\"{}\",\"snap\":",
                    escape(self.phase_name(id))
                );
                push_snap(&mut out, &snap);
            }
            TraceEvent::PhaseEnd { id, snap } => {
                let _ = write!(
                    out,
                    "\"phase_end\",\"phase\":\"{}\",\"snap\":",
                    escape(self.phase_name(id))
                );
                push_snap(&mut out, &snap);
            }
            TraceEvent::Sample { snap } => {
                out.push_str("\"sample\",\"snap\":");
                push_snap(&mut out, &snap);
            }
        }
        out.push('}');
        out
    }

    /// Renders the whole retained stream as JSONL: a header line with
    /// drop accounting, then one line per record, oldest first.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"trace\":\"sgxgauge\",\"records\":{},\"dropped\":{},\"emitted\":{}}}",
            self.len(),
            self.dropped(),
            self.emitted()
        );
        for r in self.records() {
            out.push_str(&self.json_line(r));
            out.push('\n');
        }
        out
    }
}

/// Escapes `s` for embedding between JSON double quotes: `"`, `\\` and
/// the control characters, with the common ones in their short form.
/// The simulator's one JSON string escaper (traces, checkpoints).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::InjectedKind;

    #[test]
    fn lines_are_stable_and_self_describing() {
        let mut s = TraceSink::with_config(16, 0);
        s.emit(42, 1, TraceEvent::EcallEnter);
        s.emit(
            99,
            0,
            TraceEvent::EpcFault {
                loadback: true,
                evicted: 16,
                resident_pages: 23_552,
            },
        );
        s.emit(
            120,
            0,
            TraceEvent::FaultInjected {
                kind: InjectedKind::EpcSpike,
            },
        );
        let text = s.render_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "header + 3 records");
        assert_eq!(
            lines[0],
            "{\"trace\":\"sgxgauge\",\"records\":3,\"dropped\":0,\"emitted\":3}"
        );
        assert_eq!(
            lines[1],
            "{\"seq\":0,\"cycles\":42,\"thread\":1,\"event\":\"ecall_enter\"}"
        );
        assert!(lines[2].contains("\"loadback\":true"));
        assert!(lines[2].contains("\"resident_pages\":23552"));
        assert!(lines[3].contains("\"kind\":\"epc_spike\""));
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            let mut s = TraceSink::with_config(8, 0);
            for i in 0..12u64 {
                s.emit(i * 7, 0, TraceEvent::Ocall { switchless: false });
            }
            s.begin_phase("p", 100, 0, CounterSnapshot::default());
            s.end_phase("p", 200, 0, CounterSnapshot::default())
                .unwrap();
            s.render_jsonl()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn phase_names_are_escaped() {
        let mut s = TraceSink::with_config(8, 0);
        s.begin_phase("a\"b", 1, 0, CounterSnapshot::default());
        let text = s.render_jsonl();
        assert!(text.contains("a\\\"b"));
    }
}
