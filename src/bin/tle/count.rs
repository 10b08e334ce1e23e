//! `tle count` — exact instruction and fenced-op counts of one warm
//! critical section, by single-stepping it (x86-64 Linux).
//!
//! The parent re-executes this binary as `tle count --child ROW`. The child
//! makes itself traceable (`PTRACE_TRACEME`), builds the row's system, runs
//! the section [`WARM`] times, then runs it once more between two
//! `raise(SIGSTOP)` markers. The parent single-steps everything between
//! the two stops, reads each instruction's bytes at `rip` from
//! `/proc/PID/mem`, and counts the instructions and the fenced ones: a
//! `lock` prefix, an `xchg` with a memory operand, or `mfence`. The
//! markers' own cost is the `empty` row's, subtracted from every other row.
//!
//! Fenced ops are compared by exact equality with [`ROWS`]' table: a
//! change that adds or removes one fails until the table says so. The table
//! holds for builds without the `trace` feature, whose event ring adds a
//! fenced op per event; a traced build prints its counts unchecked.
//! A plain release build also gates each row's instructions at ±2 % of the
//! table's release column ([`INSTR_TOLERANCE_PCT`]), so a change that puts
//! a result back through memory fails instead of going unnoticed; debug and
//! `check` builds compile other code and check fenced ops only. Each row is
//! followed by its split by function, from the binary's own symbol table.

use crate::args::Args;
use std::collections::HashMap;
use std::ffi::{c_int, c_long, c_void};
use std::future::Future;
use std::io::{Read, Seek, SeekFrom};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use tle_base::TCell;
use tle_core::{AlgoMode, ElidableMutex, ThreadHandle, TmSystem};
use tle_htm::HtmConfig;
use tle_kv::ShardedKv;

/// Sections run before the measured one: buffers leased, pools filled,
/// every lazy initialisation done.
const WARM: usize = 64;

/// Cells one `scan` section reads: the read set's inline tier and 32 more.
const SCAN: usize = tle_stm::INLINE_READS + 32;

/// How far a release row's instruction count may move from its table.
const INSTR_TOLERANCE_PCT: u64 = 2;

/// Exit code of a child whose `PTRACE_TRACEME` was refused.
const REFUSED: i32 = 3;

/// Every row: name, fenced ops expected, and what it runs.
///
/// The expectations are the uncontended counts: lock 6 (the common
/// prologue's four and the lock word's acquire and release); `ml_wt` 8
/// read-write (the prologue's four, the presence publish and retire, the
/// orec CAS and the clock advance) and 6 read-only; the simulated HTM 9
/// read-write (the prologue's four, the `ACTIVE` and `IDLE` stores, the
/// writer-word claim, the commit-point CAS and the redo store: a claim ends
/// with its attempt, and a committed one is cleared with a plain store, so
/// no release CAS) and 8 read-only. `handoff.htm` is the increment made by
/// two handles of one thread in turn, so every claim takes a line the
/// other slot's committed section cleared, still in one CAS. The kv get
/// reads a chain; its HTM row marks two more lines than the counter does.
/// `scan.stm` reads [`SCAN`] cells,
/// more than the read set's inline tier holds, so its last reads take the
/// spilled append, and the lease's return bumps the spill counter
/// (`stm.buf.spills`): the read-only 6 and one. NOrec (the `StmNorec`
/// mode) makes 7 read-write (its commit's sequence-lock CAS in place of the
/// orec CAS and the clock advance) and 6 read-only. `async.stm` and `async.ro.stm` are the `ml_wt` increment and
/// read, each one poll of `run_async` on a no-op waker: the sync rows' 8
/// and 6 plus the transient slot pair's claim (a CAS and a `fetch_max`
/// per registry).
///
/// The last column is the row's instructions in a release build without
/// `trace` or `check`, as this table's change counted them.
const ROWS: &[(&str, u64, u64)] = &[
    ("elide.lock", 6, 288),
    ("elide.stm", 8, 687),
    ("elide.htm", 9, 751),
    ("handoff.htm", 9, 754),
    ("ro.stm", 6, 540),
    ("ro.htm", 8, 649),
    ("scan.stm", 7, 6380),
    ("kv.get.lock", 6, 523),
    ("kv.get.stm", 6, 892),
    ("kv.get.htm", 12, 1207),
    ("kv.put.lock", 6, 560),
    ("kv.put.stm", 8, 1084),
    ("kv.put.htm", 15, 1417),
    ("elide.norec", 7, 621),
    ("ro.norec", 6, 541),
    ("kv.get.norec", 6, 954),
    ("kv.put.norec", 7, 1081),
    ("async.stm", 12, 1095),
    ("async.ro.stm", 10, 911),
];

pub fn run(args: &Args) -> Result<ExitCode, String> {
    if let Some(row) = args.opt::<String>("--child")? {
        return Ok(child(&row));
    }
    if !cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        return Err("counts single-step x86-64 Linux only".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let symbols = Symbols::read(&exe)?;
    let empty = match step("empty", &exe, &symbols) {
        Ok(c) => c,
        Err(e) => {
            // Said and failed, never skipped: a count that cannot be taken
            // is not a pass.
            println!("tle count: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    println!(
        "one warm section per row, single-stepped; fenced = lock prefix, xchg with memory, mfence\n\
         (the SIGSTOP markers' own {} instructions and {} fenced ops subtracted)\n",
        empty.instrs, empty.fenced
    );
    println!(
        "{:<13} {:>7} {:>7} {:>7} {:>7}",
        "row", "instrs", "fenced", "expect", "release"
    );
    // The table is the kernels' own: with the event ring compiled in,
    // every emitted event stamps the shared clock with one more RMW.
    let checked = !tle_base::trace::compiled();
    if !checked {
        println!("(built with the `trace` feature: its event stamps add fenced ops, so the table is not checked)");
    }
    // Instructions are the release build's: a debug or `check` build
    // compiles other code.
    let instrs_checked = checked && !cfg!(debug_assertions) && !tle_base::mutant::compiled();
    if !instrs_checked {
        println!(
            "(not a plain release build: instructions are not checked against the release column)"
        );
    }
    let mut ok = true;
    for &(row, expect, release) in ROWS {
        let c = match step(row, &exe, &symbols) {
            Ok(c) => c,
            Err(e) => {
                println!("{row:<13} {e}");
                ok = false;
                continue;
            }
        };
        let fenced = c.fenced.wrapping_sub(empty.fenced);
        let instrs = c.instrs.wrapping_sub(empty.instrs);
        let matched = fenced == expect || !checked;
        let in_band = !instrs_checked || in_band(instrs, release);
        let verdict = match (matched, in_band) {
            (true, true) => "",
            (false, _) => "  MISMATCH",
            (true, false) => "  INSTRS MOVED",
        };
        ok &= matched && in_band;
        println!("{row:<13} {instrs:>7} {fenced:>7} {expect:>7} {release:>7}{verdict}");
        c.print_by_fn(&symbols);
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Whether `instrs` lies within [`INSTR_TOLERANCE_PCT`] of the table's
/// release count.
fn in_band(instrs: u64, release: u64) -> bool {
    instrs.abs_diff(release) * 100 <= release * INSTR_TOLERANCE_PCT
}

// ---- the child: one row between two markers ------------------------------

extern "C" {
    fn ptrace(request: c_int, ...) -> c_long;
    fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
    fn raise(sig: c_int) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

const PTRACE_TRACEME: c_int = 0;
const PTRACE_CONT: c_int = 7;
const PTRACE_SINGLESTEP: c_int = 9;
const PTRACE_GETREGS: c_int = 12;
const SIGKILL: c_int = 9;
const SIGTRAP: c_int = 5;
const SIGSTOP: c_int = 19;

/// Run `section` warm, then once between the two markers.
fn measured<R>(mut section: impl FnMut() -> R) {
    for _ in 0..WARM {
        std::hint::black_box(section());
    }
    // SAFETY: raising a signal at ourselves; the tracer absorbs both stops.
    unsafe { raise(SIGSTOP) };
    std::hint::black_box(section());
    // SAFETY: as above.
    unsafe { raise(SIGSTOP) };
}

/// A single-thread system for `mode`; HTM rows draw no spurious events, so
/// every attempt commits and the count is the same on every run.
fn system(engine: &str) -> Option<(Arc<TmSystem>, ThreadHandle)> {
    let mode = match engine {
        "lock" => AlgoMode::Baseline,
        "stm" => AlgoMode::StmCondvar,
        "norec" => AlgoMode::StmNorec,
        "htm" => AlgoMode::HtmCondvar,
        _ => return None,
    };
    let sys = Arc::new(
        TmSystem::builder()
            .mode(mode)
            .htm_config(HtmConfig {
                event_prob: 0.0,
                ..HtmConfig::default()
            })
            .build(),
    );
    let th = sys.register();
    Some((sys, th))
}

fn child(row: &str) -> ExitCode {
    // SAFETY: PTRACE_TRACEME takes no pointers.
    if unsafe { ptrace(PTRACE_TRACEME, 0, 0usize, 0usize) } == -1 {
        eprintln!("PTRACE_TRACEME: {}", std::io::Error::last_os_error());
        return ExitCode::from(REFUSED as u8);
    }
    let (what, eng) = row.rsplit_once('.').unwrap_or((row, ""));
    let ok = match (what, system(eng)) {
        ("empty", _) => {
            measured(|| ());
            true
        }
        ("elide", Some((_sys, th))) => {
            let lock = ElidableMutex::new("count");
            let cell = TCell::new(0u64);
            measured(|| th.tx(&lock).run(|ctx| ctx.update(&cell, |v| v + 1)));
            cell.load_direct() == WARM as u64 + 1
        }
        ("handoff", Some((sys, th))) => {
            // Two handles on this thread take turns, so each section's
            // claim takes the line the other slot's section cleared.
            let other = sys.register();
            let lock = ElidableMutex::new("count");
            let cell = TCell::new(0u64);
            let mut turn = false;
            measured(|| {
                turn = !turn;
                let h = if turn { &th } else { &other };
                h.tx(&lock).run(|ctx| ctx.update(&cell, |v| v + 1))
            });
            cell.load_direct() == WARM as u64 + 1
        }
        ("ro", Some((_sys, th))) => {
            let lock = ElidableMutex::new("count");
            let cell = TCell::new(7u64);
            measured(|| th.tx(&lock).run(|ctx| ctx.read(&cell)));
            cell.load_direct() == 7
        }
        ("scan", Some((_sys, th))) => {
            let lock = ElidableMutex::new("count");
            let cells: Vec<TCell<u64>> = (0..SCAN as u64).map(TCell::new).collect();
            let sum = || {
                th.tx(&lock).run(|ctx| {
                    let mut sum = 0;
                    for c in &cells {
                        sum += ctx.read(c)?;
                    }
                    Ok(sum)
                })
            };
            measured(sum);
            sum() == (SCAN * (SCAN - 1) / 2) as u64
        }
        ("async" | "async.ro", Some((_sys, th))) => {
            // One poll of the async section on a no-op waker: uncontended,
            // it completes inside that poll, and a suspension is a failure
            // (nothing would ever wake it).
            let lock = ElidableMutex::new("count");
            let cell = TCell::new(7u64);
            let ro = what == "async.ro";
            measured(|| {
                let section = th.tx(&lock).run_async(|ctx| {
                    if ro {
                        ctx.read(&cell)
                    } else {
                        ctx.update(&cell, |v| v + 1)
                    }
                });
                let mut cx = Context::from_waker(Waker::noop());
                match std::pin::pin!(section).poll(&mut cx) {
                    Poll::Ready(v) => v,
                    Poll::Pending => panic!("an uncontended async section suspended"),
                }
            });
            cell.load_direct() == if ro { 7 } else { 7 + WARM as u64 + 1 }
        }
        ("kv.get" | "kv.put", Some((_sys, th))) => {
            let store = ShardedKv::new(8, 4096);
            for k in 0..store.total_keys() {
                store.put(&th, k, k);
            }
            // The second node of its chain: a get reads the bucket and two
            // nodes (the store's mean depth is 2.6).
            let key = 445;
            if what == "kv.get" {
                measured(|| store.get(&th, key));
                store.get(&th, key) == Some(key)
            } else {
                let mut v = key;
                measured(|| {
                    v += 1;
                    store.put(&th, key, v)
                });
                store.get(&th, key) == Some(v)
            }
        }
        _ => {
            eprintln!("no row `{row}`");
            false
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---- the parent: the single-stepper --------------------------------------

/// What one row's stepped region executed.
struct Counts {
    instrs: u64,
    fenced: u64,
    /// Per function, by its start address: (instructions, entries, fenced
    /// ops).
    by_fn: HashMap<u64, (u64, u64, u64)>,
}

impl Counts {
    /// One line per function the row ran in, the busiest first.
    fn print_by_fn(&self, symbols: &Symbols) {
        let mut rows: Vec<_> = self
            .by_fn
            .iter()
            .map(|(&start, &n)| (symbols.name_at(start), n))
            .collect();
        rows.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(b.0)));
        for (name, (instrs, calls, fenced)) in rows {
            let fenced = if fenced > 0 {
                format!("  fenced {fenced}")
            } else {
                String::new()
            };
            println!("    {instrs:>6} in {calls:>3} call(s)  {name}{fenced}");
        }
    }
}

/// `user_regs_struct` on x86-64: 27 words, `rip` the 17th.
#[repr(C)]
struct Regs([u64; 27]);
const RIP: usize = 16;

/// Decode the fenced-op forms from an instruction's leading bytes.
fn is_fenced(bytes: &[u8]) -> bool {
    let mut i = 0;
    let mut lock = false;
    while i < bytes.len() {
        match bytes[i] {
            0xF0 => lock = true,
            0xF2 | 0xF3 | 0x2E | 0x36 | 0x3E | 0x26 | 0x64 | 0x65 | 0x66 | 0x67 => {}
            _ => break,
        }
        i += 1;
    }
    if lock {
        return true;
    }
    if i < bytes.len() && (0x40..=0x4F).contains(&bytes[i]) {
        i += 1; // REX
    }
    match bytes.get(i..i + 3) {
        // xchg r/m, r with a memory operand (ModRM.mod != 3) is locked.
        Some(&[0x86 | 0x87, modrm, _]) => modrm >> 6 != 3,
        Some(&[0x0F, 0xAE, 0xF0]) => true, // mfence
        _ => false,
    }
}

/// Spawn the row's child and single-step its measured region.
fn step(row: &str, exe: &std::path::Path, symbols: &Symbols) -> Result<Counts, String> {
    let child = Command::new(exe)
        .args(["count", "--child", row])
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut tracee = Tracee {
        pid: child.id() as c_int,
        ended: None,
    };
    let region = stepped(&mut tracee, row, symbols);
    // A child a failed region left alive is killed; one that already ended
    // has been reaped, and its pid may belong to another process by now.
    let status = match tracee.ended {
        Some(ended) => ended,
        None => {
            if region.is_err() {
                // SAFETY: signalling our own child, not yet reaped.
                unsafe { kill(tracee.pid, SIGKILL) };
            }
            tracee.wait()
        }
    };
    let counts = region?;
    match status {
        Wait::Exited(0) => Ok(counts),
        Wait::Exited(REFUSED) => Err("ptrace refused: the child could not be traced".into()),
        Wait::Exited(code) => Err(format!("child failed its check (exit {code})")),
        Wait::Stopped(sig) | Wait::Signalled(sig) => Err(format!("child ended by signal {sig}")),
    }
}

#[derive(Clone, Copy)]
enum Wait {
    Exited(i32),
    Signalled(i32),
    Stopped(i32),
}

/// The traced child, and how it ended once a wait has reaped it.
struct Tracee {
    pid: c_int,
    ended: Option<Wait>,
}

impl Tracee {
    fn wait(&mut self) -> Wait {
        let mut status: c_int = 0;
        // SAFETY: `status` is a valid out-pointer.
        let w = if unsafe { waitpid(self.pid, &mut status, 0) } == -1 {
            Wait::Signalled(-1)
        } else if status & 0xff == 0x7f {
            Wait::Stopped((status >> 8) & 0xff)
        } else if status & 0x7f == 0 {
            Wait::Exited((status >> 8) & 0xff)
        } else {
            Wait::Signalled(status & 0x7f)
        };
        if !matches!(w, Wait::Stopped(_)) {
            self.ended = Some(w);
        }
        w
    }
}

fn stepped(tracee: &mut Tracee, row: &str, symbols: &Symbols) -> Result<Counts, String> {
    let pid = tracee.pid;
    match tracee.wait() {
        Wait::Stopped(SIGSTOP) => {}
        Wait::Exited(REFUSED) => {
            return Err("ptrace refused: PTRACE_TRACEME failed in the child".into())
        }
        Wait::Exited(code) => return Err(format!("child exited ({code}) before its first marker")),
        Wait::Stopped(sig) | Wait::Signalled(sig) => {
            return Err(format!(
                "child stopped by signal {sig} before its first marker"
            ))
        }
    }
    let mut mem = std::fs::File::open(format!("/proc/{pid}/mem"))
        .map_err(|e| format!("ptrace refused: /proc/{pid}/mem: {e}"))?;
    let base = load_base(pid)?;
    let mut decoded: HashMap<u64, bool> = HashMap::new();
    let mut counts = Counts {
        instrs: 0,
        fenced: 0,
        by_fn: HashMap::new(),
    };
    let mut regs = Regs([0; 27]);
    loop {
        // SAFETY: single-stepping a stopped tracee; no pointers passed.
        if unsafe { ptrace(PTRACE_SINGLESTEP, pid, 0usize, 0usize) } == -1 {
            return Err(format!(
                "ptrace refused: PTRACE_SINGLESTEP: {}",
                std::io::Error::last_os_error()
            ));
        }
        match tracee.wait() {
            Wait::Stopped(SIGTRAP) => {}
            Wait::Stopped(SIGSTOP) => break,
            Wait::Stopped(sig) => return Err(format!("{row}: unexpected signal {sig}")),
            Wait::Exited(code) => return Err(format!("{row}: child exited ({code}) mid-region")),
            Wait::Signalled(sig) => return Err(format!("{row}: child killed by signal {sig}")),
        }
        // SAFETY: `regs` is a `user_regs_struct`-sized out-buffer.
        if unsafe {
            ptrace(
                PTRACE_GETREGS,
                pid,
                0usize,
                &mut regs as *mut Regs as *mut c_void,
            )
        } == -1
        {
            return Err(format!(
                "PTRACE_GETREGS: {}",
                std::io::Error::last_os_error()
            ));
        }
        let rip = regs.0[RIP];
        let fenced = match decoded.get(&rip) {
            Some(&f) => f,
            None => {
                let mut bytes = [0u8; 16];
                mem.seek(SeekFrom::Start(rip))
                    .and_then(|_| mem.read(&mut bytes))
                    .map_err(|e| format!("{row}: text at {rip:#x}: {e}"))?;
                let f = is_fenced(&bytes);
                decoded.insert(rip, f);
                f
            }
        };
        counts.instrs += 1;
        counts.fenced += u64::from(fenced);
        let at = rip.wrapping_sub(base);
        if let Some(start) = symbols.start_of(at) {
            let e = counts.by_fn.entry(start).or_default();
            e.0 += 1;
            e.1 += u64::from(at == start);
            e.2 += u64::from(fenced);
        }
    }
    // The stop that ended the region is the second marker: let the child
    // finish and check its result.
    // SAFETY: resuming a stopped tracee, signal suppressed.
    unsafe { ptrace(PTRACE_CONT, pid, 0usize, 0usize) };
    Ok(counts)
}

/// Where the executable's first segment is mapped in `pid`.
fn load_base(pid: c_int) -> Result<u64, String> {
    let exe = std::fs::read_link(format!("/proc/{pid}/exe")).map_err(|e| e.to_string())?;
    let maps = std::fs::read_to_string(format!("/proc/{pid}/maps")).map_err(|e| e.to_string())?;
    maps.lines()
        .find(|l| {
            l.ends_with(&*exe.to_string_lossy()) && l.split_whitespace().nth(2) == Some("00000000")
        })
        .and_then(|l| u64::from_str_radix(l.split('-').next()?, 16).ok())
        .ok_or_else(|| "executable mapping not found".into())
}

/// The function symbols of an ELF64 executable, sorted by address.
struct Symbols(Vec<(u64, u64, String)>);

impl Symbols {
    /// Read `path`'s `SHT_SYMTAB`; a stripped binary has none and splits
    /// nothing.
    fn read(path: &std::path::Path) -> Result<Symbols, String> {
        let elf = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let u16_at = |o: usize| u16::from_le_bytes(elf[o..o + 2].try_into().unwrap());
        let u32_at = |o: usize| u32::from_le_bytes(elf[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(elf[o..o + 8].try_into().unwrap());
        let (shoff, shentsize, shnum) =
            (u64_at(0x28) as usize, u16_at(0x3A) as usize, u16_at(0x3C));
        let section = |i: usize| shoff + i * shentsize;
        let mut out = Vec::new();
        for i in 0..shnum as usize {
            let sh = section(i);
            if u32_at(sh + 4) != 2 {
                continue; // not SHT_SYMTAB
            }
            let (off, size, link) = (
                u64_at(sh + 0x18) as usize,
                u64_at(sh + 0x20) as usize,
                u32_at(sh + 0x28),
            );
            let strtab = u64_at(section(link as usize) + 0x18) as usize;
            for sym in (off..off + size).step_by(24) {
                let (info, value, len) = (elf[sym + 4], u64_at(sym + 8), u64_at(sym + 16));
                if info & 0xf != 2 || value == 0 {
                    continue; // not STT_FUNC
                }
                let name = &elf[strtab + u32_at(sym) as usize..];
                let name = &name[..name.iter().position(|&b| b == 0).unwrap_or(name.len())];
                out.push((value, len.max(1), demangle(&String::from_utf8_lossy(name))));
            }
        }
        out.sort();
        Ok(Symbols(out))
    }

    /// The start of the function containing `addr`.
    fn start_of(&self, addr: u64) -> Option<u64> {
        let i = self.0.partition_point(|s| s.0 <= addr).checked_sub(1)?;
        let (start, len, _) = &self.0[i];
        (addr < start + len).then_some(*start)
    }

    /// The name of the function starting at `start`.
    fn name_at(&self, start: u64) -> &str {
        let i = self.0.partition_point(|s| s.0 < start);
        &self.0[i].2
    }
}

/// `_ZN3foo3bar17h<hash>E` → `foo::bar` (the legacy Rust mangling);
/// anything else is kept as it is.
fn demangle(sym: &str) -> String {
    let Some(mut rest) = sym.strip_prefix("_ZN") else {
        return sym.to_string();
    };
    let mut parts = Vec::new();
    while let Some(digits) = rest.find(|c: char| !c.is_ascii_digit()).filter(|&d| d > 0) {
        let Ok(n) = rest[..digits].parse::<usize>() else {
            break;
        };
        let Some(part) = rest.get(digits..digits + n) else {
            break;
        };
        parts.push(part);
        rest = &rest[digits + n..];
    }
    if parts
        .last()
        .is_some_and(|p| p.len() == 17 && p.starts_with('h'))
    {
        parts.pop();
    }
    parts
        .join("::")
        .replace("$LT$", "<")
        .replace("$GT$", ">")
        .replace("$u20$", " ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fenced_forms_and_their_neighbours() {
        assert!(is_fenced(&[0xF0, 0x48, 0x0F, 0xB1, 0x0A])); // lock cmpxchg
        assert!(is_fenced(&[0xF0, 0x48, 0xFF, 0x02])); // lock incq
        assert!(is_fenced(&[0x48, 0x87, 0x07, 0x90])); // xchg %rax,(%rdi)
        assert!(is_fenced(&[0x86, 0x07, 0x90])); // xchg %al,(%rdi)
        assert!(is_fenced(&[0x0F, 0xAE, 0xF0])); // mfence
        assert!(!is_fenced(&[0x48, 0x87, 0xC7, 0x90])); // xchg %rax,%rdi
        assert!(!is_fenced(&[0x0F, 0xAE, 0xE8])); // lfence
        assert!(!is_fenced(&[0x48, 0x8B, 0x07, 0x90])); // mov (%rdi),%rax
        assert!(!is_fenced(&[0x90, 0x90, 0x90])); // nop
    }

    #[test]
    fn instructions_gate_at_two_percent_either_way() {
        assert!(in_band(1_000, 1_000));
        assert!(in_band(1_020, 1_000) && in_band(980, 1_000));
        assert!(!in_band(1_021, 1_000) && !in_band(979, 1_000));
    }

    #[test]
    fn legacy_symbols_demangle_to_paths() {
        assert_eq!(
            demangle("_ZN7tle_stm2tx5StmTx9read_word17h0123456789abcdefE"),
            "tle_stm::tx::StmTx::read_word"
        );
        assert_eq!(demangle("memcpy"), "memcpy");
    }
}
