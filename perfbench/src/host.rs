//! Host-side measurements of the benchmark process: CPU time and peak
//! resident memory.

/// `struct timeval` of 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: the two CPU times, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds consumed by this process so far, all threads
/// included (finished driver workers too).
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of 64-bit Linux, which getrusage fills and does not
    // retain; RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Cores available to this process (what `mmptcp::Driver::new` uses).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// About the time of `reference_seconds` on the 2-vCPU Xeon host the
/// benchmark was defined on, when that host runs fast. Scaled times are host
/// times multiplied by this over the reference time measured beside them:
/// what they would read on that host at that speed.
pub const REFERENCE_S: f64 = 0.023;

/// Wall time of one run of a fixed reference kernel: binary-heap pushes and
/// pops, a 256 KiB table of random updates and an ordered-map workload, the
/// operations a discrete-event simulator spends its time on. The kernel is the
/// benchmark's own code, so a change to the simulator cannot move it; what
/// moves it is the host. A shared host's speed swings by up to 1.6x over
/// minutes, and the simulator's run times follow the kernel's.
pub fn reference_seconds() -> f64 {
    let t = std::time::Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap = std::collections::BinaryHeap::new();
    let mut table = vec![0u64; 1 << 15];
    let mut acc = 0u64;
    for i in 0..150_000u64 {
        let r = next();
        heap.push(std::cmp::Reverse(r >> 20));
        if heap.len() > 20_000 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |e| e.0));
        }
        let slot = (r as usize) & (table.len() - 1);
        table[slot] = table[slot].wrapping_add(i);
        acc = acc.wrapping_add(table[(acc as usize) & (table.len() - 1)]);
    }
    let mut map = std::collections::BTreeMap::new();
    for i in 0..60_000u64 {
        let r = next();
        map.insert(r % 50_000, i);
        if let Some((_, v)) = map.range(r % 40_000..).next() {
            acc = acc.wrapping_add(*v);
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}
