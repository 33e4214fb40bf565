//! Oracle: `Env`'s batched accounting charges exactly what per-access
//! accounting does.
//!
//! A plain `Env` queues region accesses and charges them in one
//! `SgxMachine::access_stream` call at the next flush point. An `Env`
//! with a cycle budget armed charges every access as it happens, so a
//! budget that can never fire (`u64::MAX`) turns the same `Env` into
//! the per-access reference. Random op programs (scalar, bulk and
//! accounting-only accesses, compute, clock reads, I/O, syscalls,
//! thread switches between app and driver threads, nested secure
//! sections and phases) run on both, in every mode, over regions that
//! fit the quick-test EPC and regions that page. Every thread clock,
//! every clock read along the way, every value read back, the mem-sim
//! and SGX counters, the driver stats, EPC residency and the region
//! bytes must match.

use proptest::prelude::*;
use sgxgauge::core::env::{Placement, Region, SimThread};
use sgxgauge::core::{Env, EnvConfig, ExecMode};
use sgxgauge::trace::TraceSink;
use std::cell::Cell;

/// One operation of a program. `Secure`, `Thread` and `Phase` open a
/// block that runs the following ops until the matching `End` (or the
/// end of the program).
#[derive(Debug, Clone, Copy)]
enum Op {
    WriteU64 {
        off: u64,
        v: u64,
    },
    ReadU64 {
        off: u64,
    },
    WriteU32 {
        off: u64,
        v: u32,
    },
    ReadU32 {
        off: u64,
    },
    WriteBytes {
        off: u64,
        len: u64,
        fill: u8,
    },
    ReadBytes {
        off: u64,
        len: u64,
    },
    Touch {
        off: u64,
        len: u64,
        write: bool,
    },
    /// Touches the whole protected region where allowed: over the EPC,
    /// this pages.
    Sweep {
        write: bool,
    },
    FileRoundTrip {
        off: u64,
        len: u64,
    },
    /// `read_u64` or `write_u64` at every `stride` bytes of `len`: a
    /// scalar scan that may cross pages.
    Scan {
        off: u64,
        len: u64,
        stride: u64,
        write: bool,
    },
    /// A read and a write of the same word, in either order.
    Pair {
        off: u64,
        write_first: bool,
    },
    /// A `touch` of `len` bytes that starts `back` bytes into the last
    /// line of the region's previous access and may continue past it.
    Continue {
        back: u64,
        len: u64,
        write: bool,
    },
    Compute {
        cycles: u64,
    },
    Now,
    Io {
        bytes: u64,
        write: bool,
    },
    Syscall,
    Secure,
    /// Switches to the spawned app thread (`driver == false`) or the
    /// driver thread.
    Thread {
        driver: bool,
    },
    Phase,
    End,
}

/// Footprint of the quick-test EPC (1024 frames).
const EPC_BYTES: u64 = 4 << 20;

/// Offsets are drawn over the largest region and folded into the
/// region in use.
const MAX_REGION: u64 = EPC_BYTES / 2 * 3;

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..MAX_REGION, any::<u64>()).prop_map(|(off, v)| Op::WriteU64 { off, v }),
        (0..MAX_REGION).prop_map(|off| Op::ReadU64 { off }),
        (0..MAX_REGION, any::<u32>()).prop_map(|(off, v)| Op::WriteU32 { off, v }),
        (0..MAX_REGION).prop_map(|off| Op::ReadU32 { off }),
        (0..MAX_REGION, 0u64..9000, any::<u8>()).prop_map(|(off, len, fill)| Op::WriteBytes {
            off,
            len,
            fill
        }),
        (0..MAX_REGION, 0u64..9000).prop_map(|(off, len)| Op::ReadBytes { off, len }),
        // Up to a quarter of the EPC per touch, so a few of them page.
        (0..MAX_REGION, 0u64..(EPC_BYTES / 4), any::<bool>())
            .prop_map(|(off, len, write)| Op::Touch { off, len, write }),
        any::<bool>().prop_map(|write| Op::Sweep { write }),
        (0..MAX_REGION, 0u64..(160 << 10)).prop_map(|(off, len)| Op::FileRoundTrip { off, len }),
        // Up to three pages, so most scans cross a page boundary.
        (0..MAX_REGION, 0u64..(3 << 12), 0usize..3, any::<bool>()).prop_map(
            |(off, len, s, write)| Op::Scan {
                off,
                len,
                stride: [8, 16, 64][s],
                write
            }
        ),
        (0..MAX_REGION, any::<bool>()).prop_map(|(off, write_first)| Op::Pair { off, write_first }),
        (0u64..64, 1u64..(2 << 12), any::<bool>()).prop_map(|(back, len, write)| Op::Continue {
            back,
            len,
            write
        }),
        (1u64..40_000).prop_map(|cycles| Op::Compute { cycles }),
        (0u8..1).prop_map(|_| Op::Now),
        (1u64..(200 << 10), any::<bool>()).prop_map(|(bytes, write)| Op::Io { bytes, write }),
        (0u8..1).prop_map(|_| Op::Syscall),
        (0u8..1).prop_map(|_| Op::Secure),
        any::<bool>().prop_map(|driver| Op::Thread { driver }),
        (0u8..1).prop_map(|_| Op::Phase),
        (0u8..1).prop_map(|_| Op::End),
    ]
}

/// The regions and threads a program runs on.
struct World {
    protected: Region,
    untrusted: Region,
    bytes: u64,
    app: SimThread,
    driver: SimThread,
    /// Where the last access ended: its region and end offset.
    last: Cell<Option<(Region, u64)>>,
}

/// Everything the programs observe along the way.
#[derive(Debug, Default, PartialEq)]
struct Log {
    reads: Vec<u64>,
    clocks: Vec<u64>,
}

/// Clamps `[off, off + len)` into a region of `bytes`.
fn span(bytes: u64, off: u64, len: u64) -> (u64, u64) {
    let len = len.min(bytes);
    (off % (bytes - len + 1), len)
}

/// Runs `ops` from `*pc` until a block's `End`. `protected_ok` says
/// whether the current thread may touch the protected region here:
/// always in Vanilla, for app threads in LibOS, and inside a secure
/// section opened on this thread in Native.
fn run(env: &mut Env, w: &World, ops: &[Op], pc: &mut usize, protected_ok: bool, log: &mut Log) {
    let mode = env.mode();
    let mut toggle = false;
    while *pc < ops.len() {
        let op = ops[*pc];
        *pc += 1;
        // Alternate regions where both are allowed.
        toggle = !toggle;
        let r = if protected_ok && toggle {
            w.protected
        } else {
            w.untrusted
        };
        // The region and end of this op's last access, if it made one.
        let mut end = None;
        match op {
            Op::WriteU64 { off, v } => {
                let (off, _) = span(w.bytes, off, 8);
                env.write_u64(r, off, v);
                end = Some((r, off + 8));
            }
            Op::ReadU64 { off } => {
                let (off, _) = span(w.bytes, off, 8);
                log.reads.push(env.read_u64(r, off));
                end = Some((r, off + 8));
            }
            Op::WriteU32 { off, v } => {
                let (off, _) = span(w.bytes, off, 4);
                env.write_u32(r, off, v);
                end = Some((r, off + 4));
            }
            Op::ReadU32 { off } => {
                let (off, _) = span(w.bytes, off, 4);
                log.reads.push(u64::from(env.read_u32(r, off)));
                end = Some((r, off + 4));
            }
            Op::WriteBytes { off, len, fill } => {
                let (off, len) = span(w.bytes, off, len);
                env.write_bytes(r, off, &vec![fill; len as usize]);
                end = (len > 0).then_some((r, off + len));
            }
            Op::ReadBytes { off, len } => {
                let (off, len) = span(w.bytes, off, len);
                let mut buf = vec![0u8; len as usize];
                env.read_bytes(r, off, &mut buf);
                log.reads
                    .push(buf.iter().map(|&b| u64::from(b)).sum::<u64>());
                end = (len > 0).then_some((r, off + len));
            }
            Op::Touch { off, len, write } => {
                let (off, len) = span(w.bytes, off, len);
                env.touch(r, off, len, write);
                end = (len > 0).then_some((r, off + len));
            }
            Op::Sweep { write } => {
                let r = if protected_ok { w.protected } else { r };
                env.touch(r, 0, w.bytes, write);
                end = Some((r, w.bytes));
            }
            Op::FileRoundTrip { off, len } => {
                let (off, len) = span(w.bytes, off, len);
                env.write_file_from("f", r, off, len).expect("write file");
                let back = env.read_file_into("f", r, 0).expect("read file");
                log.reads.push(back);
                end = (back > 0).then_some((r, back));
            }
            Op::Scan {
                off,
                len,
                stride,
                write,
            } => {
                let (off, len) = span(w.bytes, off, len.max(8));
                let mut sum = 0u64;
                for at in (off..off + len - 7).step_by(stride as usize) {
                    if write {
                        env.write_u64(r, at, at);
                    } else {
                        sum = sum.wrapping_add(env.read_u64(r, at));
                    }
                    end = Some((r, at + 8));
                }
                log.reads.push(sum);
            }
            Op::Pair { off, write_first } => {
                let (off, _) = span(w.bytes, off, 8);
                if write_first {
                    env.write_u64(r, off, off);
                    log.reads.push(env.read_u64(r, off));
                } else {
                    log.reads.push(env.read_u64(r, off));
                    env.write_u64(r, off, !off);
                }
                end = Some((r, off + 8));
            }
            Op::Continue { back, len, write } => {
                // Continue on the previous access's region where this
                // thread may touch it.
                if let Some((prev, prev_end)) = w.last.get() {
                    if protected_ok || prev == w.untrusted {
                        let line = (prev_end - 1) & !63;
                        let start = line + back % (prev_end - line);
                        let (off, len) = span(w.bytes, start, len);
                        env.touch(prev, off, len, write);
                        end = Some((prev, off + len));
                    }
                }
            }
            Op::Compute { cycles } => env.compute(cycles),
            Op::Now => log.clocks.push(env.now()),
            Op::Io { bytes, write } => env.io_transfer(bytes, write).expect("io"),
            Op::Syscall => env.host_syscall().expect("syscall"),
            Op::Secure => {
                let ok = match mode {
                    ExecMode::Native => true,
                    _ => protected_ok,
                };
                env.secure_call(|env| run(env, w, ops, pc, ok, log))
                    .expect("secure call");
            }
            Op::Thread { driver } => {
                let (th, ok) = match (driver, mode) {
                    (_, ExecMode::Vanilla) => (if driver { w.driver } else { w.app }, true),
                    (true, _) => (w.driver, false),
                    (false, ExecMode::LibOs) => (w.app, true),
                    (false, _) => (w.app, false),
                };
                env.with_thread(th, |env| run(env, w, ops, pc, ok, log));
            }
            Op::Phase => {
                env.with_phase("p", |env| {
                    run(env, w, ops, pc, protected_ok, log);
                    Ok(())
                })
                .expect("phase");
            }
            Op::End => return,
        }
        if end.is_some() {
            w.last.set(end);
        }
    }
}

/// What a program runs on.
#[derive(Debug, Clone, Copy)]
struct Setup {
    mode: ExecMode,
    /// Size of each of the two regions.
    bytes: u64,
    /// Whether the whole program runs inside one secure section.
    enclosed: bool,
    /// Whether a trace sink is armed, which makes both envs charge per
    /// access: their trace bytes must match too.
    traced: bool,
}

/// Simulated cycles between trace samples: several per program.
const SAMPLE_EVERY: u64 = 20_000;

/// Runs `ops` on a fresh `Env` and returns every observation: the log,
/// the thread clocks, the counters, driver stats, EPC state, the trace
/// bytes and the region bytes.
fn observe(setup: Setup, per_access: bool, ops: &[Op]) -> impl PartialEq + std::fmt::Debug {
    let Setup {
        mode,
        bytes,
        enclosed,
        traced,
    } = setup;
    let mut env = Env::new(EnvConfig::quick_test(mode)).expect("env");
    let protected = env.alloc(bytes, Placement::Protected).expect("protected");
    let untrusted = env.alloc(bytes, Placement::Untrusted).expect("untrusted");
    env.start_app().expect("start");
    env.reset_measurement();
    if per_access {
        env.arm_cycle_budget(u64::MAX);
    }
    if traced {
        env.machine_mut()
            .mem_mut()
            .set_trace_sink(TraceSink::with_config(1 << 16, SAMPLE_EVERY));
    }
    let app = env.spawn_app_thread().expect("app thread");
    let driver = env.spawn_driver_thread();
    let w = World {
        protected,
        untrusted,
        bytes,
        app,
        driver,
        last: Cell::new(None),
    };
    let mut log = Log::default();
    let mut pc = 0;
    let top_ok = mode != ExecMode::Native;
    let mut program = |env: &mut Env, ok: bool| {
        while pc < ops.len() {
            run(env, &w, ops, &mut pc, ok, &mut log);
        }
    };
    if enclosed {
        env.secure_call(|env| program(env, true))
            .expect("secure call");
    } else {
        program(&mut env, top_ok);
    }
    let main = env.main_thread();
    let clocks = [env.now_of(main), env.now_of(app), env.now_of(driver)];
    let elapsed = env.elapsed_cycles();
    let m = env.machine();
    let facts = (
        clocks,
        elapsed,
        *m.mem().counters(),
        *m.sgx_counters(),
        m.driver_stats().clone(),
        m.epc().resident_count(),
        m.epc().evicted_count(),
    );
    let trace = env
        .machine_mut()
        .mem_mut()
        .take_trace_sink()
        .map(|t| t.render_jsonl());
    // Read the bytes back last: the reads charge both envs alike.
    let mut contents = Vec::new();
    for r in [protected, untrusted] {
        let mut buf = vec![0u8; bytes as usize];
        env.secure_call(|env| env.read_bytes(r, 0, &mut buf))
            .expect("secure call");
        contents.push(buf);
    }
    (log, facts, trace, contents)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batched and per-access accounting agree on every observation.
    #[test]
    fn batched_env_charges_what_per_access_env_charges(
        mode in 0usize..3,
        over_epc in any::<bool>(),
        enclosed in any::<bool>(),
        traced in any::<bool>(),
        ops in prop::collection::vec(op(), 1..160),
    ) {
        let setup = Setup {
            mode: ExecMode::ALL[mode],
            bytes: if over_epc { MAX_REGION } else { EPC_BYTES / 8 },
            enclosed,
            traced,
        };
        prop_assert_eq!(observe(setup, false, &ops), observe(setup, true, &ops));
    }
}
