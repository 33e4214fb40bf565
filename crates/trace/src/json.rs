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
    /// Appends a record's fields after the line prefix:
    /// `"thread":t,"event":…`, phase names resolved from the intern
    /// table.
    fn write_fields(&self, out: &mut String, r: &TraceRecord) {
        let _ = write!(out, "\"thread\":{},\"event\":", r.thread);
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
            TraceEvent::ShimSyscall => out.push_str("\"shim_syscall\""),
            TraceEvent::FaultInjected { kind } => {
                let _ = write!(out, "\"fault_injected\",\"kind\":\"{}\"", kind.name());
            }
            TraceEvent::PhaseBegin { id, snap } => {
                let _ = write!(
                    out,
                    "\"phase_begin\",\"phase\":\"{}\",\"snap\":",
                    escape(self.phase_name(id))
                );
                push_snap(out, &snap);
            }
            TraceEvent::PhaseEnd { id, snap } => {
                let _ = write!(
                    out,
                    "\"phase_end\",\"phase\":\"{}\",\"snap\":",
                    escape(self.phase_name(id))
                );
                push_snap(out, &snap);
            }
            TraceEvent::Sample { snap } => {
                out.push_str("\"sample\",\"snap\":");
                push_snap(out, &snap);
            }
        }
    }

    /// Renders the whole retained stream as JSONL through the shared
    /// framing: a header line with drop accounting, then one line per
    /// record, oldest first, each under its own emission `seq`.
    pub fn render_jsonl(&self) -> String {
        crate::log::render_jsonl(
            "sgxgauge",
            self.len(),
            &[("dropped", self.dropped()), ("emitted", self.emitted())],
            "cycles",
            self.records().map(|r| (r.seq, r.cycles, r)),
            |out, r| self.write_fields(out, r),
        )
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

    /// The object a snapshot with `resident_pages` 1024 and `fault_cycles`
    /// 7 renders as: every field, in `fields()` order.
    macro_rules! snap_json {
        () => {
            r#"{"resident_pages":1024,"epc_faults":0,"epc_allocs":0,"epc_evictions":0,"epc_loadbacks":0,"ecalls":0,"ocalls":0,"aex_exits":0,"dtlb_misses":0,"llc_misses":0,"page_faults":0,"compute_cycles":0,"stall_cycles":0,"walk_cycles":0,"mee_cycles":0,"transition_cycles":0,"fault_cycles":7}"#
        };
    }

    #[test]
    fn every_event_renders_its_pinned_line() {
        let snap = CounterSnapshot {
            resident_pages: 1_024,
            fault_cycles: 7,
            ..CounterSnapshot::default()
        };
        let mut s = TraceSink::with_config(32, 0);
        s.emit(1, 0, TraceEvent::EcallEnter).unwrap();
        s.emit(2, 0, TraceEvent::EcallExit).unwrap();
        s.emit(3, 1, TraceEvent::Ocall { switchless: false })
            .unwrap();
        s.emit(4, 1, TraceEvent::Ocall { switchless: true })
            .unwrap();
        s.emit(5, 0, TraceEvent::Aex { injected: false }).unwrap();
        s.emit(6, 0, TraceEvent::Aex { injected: true }).unwrap();
        s.emit(
            7,
            0,
            TraceEvent::EpcFault {
                loadback: true,
                evicted: 16,
                resident_pages: 1_024,
            },
        )
        .unwrap();
        s.emit(8, 2, TraceEvent::ShimSyscall).unwrap();
        for kind in [
            InjectedKind::Aex,
            InjectedKind::EpcSpike,
            InjectedKind::EpcRelease,
        ] {
            s.emit(9, 0, TraceEvent::FaultInjected { kind }).unwrap();
        }
        s.begin_phase("a\"b", 10, 3, snap);
        s.emit(11, 3, TraceEvent::Sample { snap }).unwrap();
        s.end_phase("a\"b", 12, 3, snap).unwrap();
        let expected = [
            r#"{"trace":"sgxgauge","records":14,"dropped":0,"emitted":14}"#,
            r#"{"seq":0,"cycles":1,"thread":0,"event":"ecall_enter"}"#,
            r#"{"seq":1,"cycles":2,"thread":0,"event":"ecall_exit"}"#,
            r#"{"seq":2,"cycles":3,"thread":1,"event":"ocall","switchless":false}"#,
            r#"{"seq":3,"cycles":4,"thread":1,"event":"ocall","switchless":true}"#,
            r#"{"seq":4,"cycles":5,"thread":0,"event":"aex","injected":false}"#,
            r#"{"seq":5,"cycles":6,"thread":0,"event":"aex","injected":true}"#,
            r#"{"seq":6,"cycles":7,"thread":0,"event":"epc_fault","loadback":true,"evicted":16,"resident_pages":1024}"#,
            r#"{"seq":7,"cycles":8,"thread":2,"event":"shim_syscall"}"#,
            r#"{"seq":8,"cycles":9,"thread":0,"event":"fault_injected","kind":"aex"}"#,
            r#"{"seq":9,"cycles":9,"thread":0,"event":"fault_injected","kind":"epc_spike"}"#,
            r#"{"seq":10,"cycles":9,"thread":0,"event":"fault_injected","kind":"epc_release"}"#,
            concat!(
                r#"{"seq":11,"cycles":10,"thread":3,"event":"phase_begin","phase":"a\"b","snap":"#,
                snap_json!(),
                "}"
            ),
            concat!(
                r#"{"seq":12,"cycles":11,"thread":3,"event":"sample","snap":"#,
                snap_json!(),
                "}"
            ),
            concat!(
                r#"{"seq":13,"cycles":12,"thread":3,"event":"phase_end","phase":"a\"b","snap":"#,
                snap_json!(),
                "}"
            ),
        ];
        let text = s.render_jsonl();
        assert_eq!(text.lines().collect::<Vec<_>>(), expected);
        assert!(text.ends_with("}\n"), "every line is newline-terminated");
    }

    #[test]
    fn a_wrapped_ring_renders_its_drops_and_surviving_seqs() {
        let mut s = TraceSink::with_config(2, 0);
        for cycles in [10, 20, 30] {
            s.emit(cycles, 0, TraceEvent::EcallEnter).unwrap();
        }
        assert_eq!(
            s.render_jsonl(),
            concat!(
                r#"{"trace":"sgxgauge","records":2,"dropped":1,"emitted":3}"#,
                "\n",
                r#"{"seq":1,"cycles":20,"thread":0,"event":"ecall_enter"}"#,
                "\n",
                r#"{"seq":2,"cycles":30,"thread":0,"event":"ecall_enter"}"#,
                "\n"
            )
        );
    }
}
