//! Lazily-faulted, huge-page-aligned, NUMA-placed map buffers (§IV-E and
//! the giant-map regime).
//!
//! Every map-sized buffer encodes "never seen" as zero — the two-level
//! index stores `slot + 1`, the virgin maps store seen bits, the journal's
//! epoch stamps start at 0 — so a [`MapBuffer`] needs no fill. On Linux
//! each one is a single anonymous `mmap` that the kernel faults in, zeroed,
//! on first touch: a 256 MiB map costs what a campaign touches. The mapping
//! over-reserves by one huge page and unmaps the unaligned head and tail,
//! so every buffer starts on a 2 MiB boundary, and its page advice is
//! issued before the first touch, so transparent huge pages can actually
//! serve it. Other targets use one zeroed heap allocation. The
//! `BIGMAP_HUGE` policy picks the flags and advice:
//!
//! * **`explicit`** — `MAP_HUGETLB`, 1 GiB pages first for gigantic
//!   buffers, else 2 MiB. Reservation can fail at any moment (empty pool,
//!   unsupported kernel), so the allocator falls back to the THP mapping
//!   and records the fallback — never an error.
//! * **`thp`** (default) — `madvise(MADV_HUGEPAGE)`.
//! * **`off`** — `madvise(MADV_NOHUGEPAGE)`, so even a
//!   `transparent_hugepage=always` host measures plain pages. The control
//!   arm for benchmarking.
//!
//! The coverage map and the journal stamps take that policy
//! ([`MapBuffer::zeroed`]): they are written every exec and indexed by
//! slot (Table I). Two buffers always take base pages
//! (`MapBuffer::zeroed_with(len, HugePolicy::Off)`), each on a measurement
//! on a `transparent_hugepage=madvise` host:
//!
//! * the two-level index, addressed by hashed key: writing 2,223 random
//!   keys (ngram-256m's `used_len`) into a 1 GiB mapping took 176–973 ms
//!   of faults and left 1,020 MiB resident when advised, 5.7 ms and
//!   8.9 MiB (one base page per key) when not;
//! * the virgin maps, read by the fused classify+compare in lockstep with
//!   a masked store to the coverage map at the same offset: with both on
//!   2 MiB pages the two addresses share every physical bit below 21, and
//!   that pass ran about 40% slower, costing afl-flat-2m about a fifth of
//!   its execs/s.
//!
//! Which backend each buffer went through is recorded per buffer
//! ([`MapBuffer::backend`]) and in process-wide counters
//! ([`backend_allocs`], [`huge_fallbacks`]) that the fuzzer's telemetry
//! layer surfaces.
//!
//! NUMA placement (`BIGMAP_NUMA`) is first-touch driven: a worker thread
//! that calls [`apply_worker_numa`] is pinned to its node's CPUs
//! (`sched_setaffinity`), so the pages it faults in land on the node that
//! hammers them; a best-effort `mbind(MPOL_PREFERRED)` additionally tags
//! freshly mapped regions so lazily-faulted pages follow even if the
//! scheduler migrates the thread. Every NUMA path degrades to a recorded
//! no-op on single-node hosts, denied syscalls and non-Linux builds.

use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

use crate::counters::EventCounter;

/// Alignment used for map allocations: the x86-64 huge-page size (2 MiB).
/// Smaller maps still benefit from the page alignment (no straddled lines,
/// SIMD stores are always aligned).
pub const HUGE_PAGE_BYTES: usize = 2 * 1024 * 1024;

/// The x86-64 gigantic-page size (1 GiB), tried first by the explicit
/// backend for buffers that are a whole multiple of it.
pub const GIGANTIC_PAGE_BYTES: usize = 1024 * 1024 * 1024;

// ---------------------------------------------------------------- policies

/// How map memory is requested from the kernel (`BIGMAP_HUGE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HugePolicy {
    /// Reserve hugetlbfs pages via `mmap(MAP_HUGETLB)`; fall back to THP.
    Explicit,
    /// Transparent huge pages via `madvise(MADV_HUGEPAGE)` (the default).
    #[default]
    Thp,
    /// Plain pages; actively opt out of THP promotion.
    Off,
}

impl HugePolicy {
    /// The knob spelling of this policy.
    pub fn label(self) -> &'static str {
        match self {
            HugePolicy::Explicit => "explicit",
            HugePolicy::Thp => "thp",
            HugePolicy::Off => "off",
        }
    }
}

impl fmt::Display for HugePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The pure parse policy behind `BIGMAP_HUGE` (`None` = unset). Unknown
/// values warn on stderr and read as the default.
pub fn parse_huge(raw: Option<&str>) -> HugePolicy {
    let Some(raw) = raw else {
        return HugePolicy::default();
    };
    match raw.trim() {
        "explicit" => HugePolicy::Explicit,
        "thp" => HugePolicy::Thp,
        "off" => HugePolicy::Off,
        _ => {
            eprintln!("BIGMAP_HUGE={raw}: unknown policy (expected explicit|thp|off), using thp");
            HugePolicy::default()
        }
    }
}

/// Where map memory is placed across NUMA nodes (`BIGMAP_NUMA`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NumaPolicy {
    /// Workers spread round-robin across the host's nodes; a no-op on
    /// single-node hosts (the default).
    #[default]
    Auto,
    /// No pinning, no binding: kernel first-touch only.
    Off,
    /// Every worker pins to this node.
    Node(u32),
}

impl fmt::Display for NumaPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumaPolicy::Auto => f.write_str("auto"),
            NumaPolicy::Off => f.write_str("off"),
            NumaPolicy::Node(n) => write!(f, "node:{n}"),
        }
    }
}

/// The pure parse policy behind `BIGMAP_NUMA` (`None` = unset). Unknown
/// values warn on stderr and read as the default.
pub fn parse_numa(raw: Option<&str>) -> NumaPolicy {
    let Some(raw) = raw else {
        return NumaPolicy::default();
    };
    let trimmed = raw.trim();
    match trimmed {
        "auto" => return NumaPolicy::Auto,
        "off" => return NumaPolicy::Off,
        _ => {}
    }
    if let Some(node) = trimmed.strip_prefix("node:") {
        if let Ok(n) = node.trim().parse::<u32>() {
            return NumaPolicy::Node(n);
        }
    }
    eprintln!("BIGMAP_NUMA={raw}: unknown policy (expected auto|off|node:<n>), using auto");
    NumaPolicy::default()
}

/// The backend an allocation went through — what the telemetry layer
/// reports per buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocBackend {
    /// `mmap(MAP_HUGETLB | MAP_HUGE_1GB)` gigantic pages.
    ExplicitGigantic,
    /// `mmap(MAP_HUGETLB)` 2 MiB hugetlb pages.
    ExplicitHuge,
    /// A mapping advised into transparent huge pages before first touch;
    /// the kernel serves them where it can.
    Thp,
    /// A mapping on base pages (sub-huge-page buffer, `off` policy, the
    /// two-level index or a virgin map).
    Plain,
}

impl AllocBackend {
    /// Stable label used in telemetry and bench output.
    pub fn label(self) -> &'static str {
        match self {
            AllocBackend::ExplicitGigantic => "explicit_1g",
            AllocBackend::ExplicitHuge => "explicit_2m",
            AllocBackend::Thp => "thp",
            AllocBackend::Plain => "plain",
        }
    }

    fn slot(self) -> usize {
        self as usize
    }
}

impl fmt::Display for AllocBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

// -------------------------------------------------- process / thread state

thread_local! {
    static HUGE_OVERRIDE: Cell<Option<HugePolicy>> = const { Cell::new(None) };
    static PREFERRED_NODE: Cell<Option<u32>> = const { Cell::new(None) };
    static NUMA_OUTCOME: Cell<Option<bool>> = const { Cell::new(None) };
}

/// The effective huge-page policy for allocations on this thread: a scoped
/// [`with_huge_policy`] override if active, else the process-wide
/// `BIGMAP_HUGE` value (parsed once).
pub fn huge_policy() -> HugePolicy {
    if let Some(p) = HUGE_OVERRIDE.with(Cell::get) {
        return p;
    }
    static PROCESS: OnceLock<HugePolicy> = OnceLock::new();
    *PROCESS.get_or_init(crate::env::huge_request)
}

/// The process-wide NUMA policy (`BIGMAP_NUMA`, parsed once).
pub fn numa_policy() -> NumaPolicy {
    static PROCESS: OnceLock<NumaPolicy> = OnceLock::new();
    *PROCESS.get_or_init(crate::env::numa_request)
}

/// Runs `f` with this thread's allocations forced to `policy`, restoring
/// the previous override on exit. This is how the bench harness and the
/// cross-policy equivalence tests compare backends inside one process
/// without touching the environment.
pub fn with_huge_policy<R>(policy: HugePolicy, f: impl FnOnce() -> R) -> R {
    let prev = HUGE_OVERRIDE.with(|c| c.replace(Some(policy)));
    struct Restore(Option<HugePolicy>);
    impl Drop for Restore {
        fn drop(&mut self) {
            HUGE_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Sets (or clears) the NUMA node this thread's future map allocations
/// should prefer. [`apply_worker_numa`] is the usual caller; tests use it
/// directly to exercise the bind path.
pub fn set_thread_node(node: Option<u32>) {
    PREFERRED_NODE.with(|c| c.set(node));
}

/// The NUMA node this thread's allocations prefer, if any.
pub fn thread_node() -> Option<u32> {
    PREFERRED_NODE.with(Cell::get)
}

/// The outcome of this thread's [`apply_worker_numa`] call: `None` if NUMA
/// placement was a policy no-op (off, or single-node auto), `Some(true)` if
/// the thread was pinned to its node, `Some(false)` if pinning was refused
/// and the thread fell back to unpinned first-touch.
pub fn thread_numa_outcome() -> Option<bool> {
    NUMA_OUTCOME.with(Cell::get)
}

/// Number of NUMA nodes the host exposes (1 when the sysfs topology is
/// absent, i.e. non-Linux or single-node).
pub fn numa_node_count() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| probe_node_count().max(1))
}

#[cfg(target_os = "linux")]
fn probe_node_count() -> usize {
    let Ok(entries) = std::fs::read_dir("/sys/devices/system/node") else {
        return 1;
    };
    entries
        .filter_map(Result::ok)
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.strip_prefix("node")
                .is_some_and(|n| n.chars().all(|c| c.is_ascii_digit()) && !n.is_empty())
        })
        .count()
}

#[cfg(not(target_os = "linux"))]
fn probe_node_count() -> usize {
    1
}

/// Resolves the NUMA policy to a concrete target node for worker `worker`,
/// without touching any thread state.
///
/// `None` means placement is a policy no-op: `off`, or `auto` on a
/// single-node host. Fleet parents use this to forward `node:<n>` to the
/// worker processes they spawn; [`apply_worker_numa`] uses it in-process.
pub fn worker_node(worker: usize) -> Option<u32> {
    let nodes = numa_node_count();
    match numa_policy() {
        NumaPolicy::Off => None,
        NumaPolicy::Node(n) => Some(n),
        NumaPolicy::Auto => (nodes > 1).then(|| (worker % nodes) as u32),
    }
}

/// Resolves the NUMA policy for worker `worker`, remembers the chosen node
/// for this thread's allocations and pins the thread to that node's CPUs.
///
/// Returns `None` when placement is a policy no-op (`off`, or `auto` on a
/// single-node host), `Some(true)` on a successful pin, `Some(false)` when
/// the pin was refused (denied syscall, bogus node) — the thread then runs
/// unpinned and placement degrades to kernel first-touch.
pub fn apply_worker_numa(worker: usize) -> Option<bool> {
    let nodes = numa_node_count();
    let outcome = worker_node(worker).map(|node| {
        set_thread_node(Some(node));
        let ok = (node as usize) < nodes && pin_thread_to_node(node);
        if ok {
            NUMA_PINS.incr();
        } else {
            NUMA_PIN_FAILS.incr();
        }
        ok
    });
    NUMA_OUTCOME.with(|c| c.set(outcome));
    outcome
}

/// Pins the calling thread to the CPUs of NUMA node `node` via
/// `sched_setaffinity`. Best-effort: returns `false` (and leaves the
/// affinity untouched) when the node or its CPU list cannot be resolved or
/// the syscall is denied.
#[cfg(target_os = "linux")]
pub fn pin_thread_to_node(node: u32) -> bool {
    let path = format!("/sys/devices/system/node/node{node}/cpulist");
    let Ok(list) = std::fs::read_to_string(path) else {
        return false;
    };
    let Some(cpus) = parse_cpulist(&list) else {
        return false;
    };
    let mut set = libc::cpu_set_t { bits: [0u64; 16] };
    let mut any = false;
    for cpu in cpus {
        let (word, bit) = (cpu / 64, cpu % 64);
        if word < set.bits.len() {
            set.bits[word] |= 1u64 << bit;
            any = true;
        }
    }
    if !any {
        return false;
    }
    // SAFETY: `set` is a properly initialized cpu_set_t; pid 0 = this thread.
    unsafe { libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) == 0 }
}

/// Non-Linux stub: no NUMA topology, nothing to pin.
#[cfg(not(target_os = "linux"))]
pub fn pin_thread_to_node(_node: u32) -> bool {
    false
}

/// Parses a sysfs cpulist (`"0-3,8,10-11"`) into CPU indices. `None` on
/// malformed input.
fn parse_cpulist(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        if part.is_empty() {
            continue;
        }
        match part.split_once('-') {
            Some((lo, hi)) => {
                let lo = lo.trim().parse::<usize>().ok()?;
                let hi = hi.trim().parse::<usize>().ok()?;
                if lo > hi {
                    return None;
                }
                cpus.extend(lo..=hi);
            }
            None => cpus.push(part.trim().parse::<usize>().ok()?),
        }
    }
    (!cpus.is_empty()).then_some(cpus)
}

// ----------------------------------------------------------------- counters

static ALLOC_BACKENDS: [EventCounter; 4] = [
    EventCounter::new(),
    EventCounter::new(),
    EventCounter::new(),
    EventCounter::new(),
];
static HUGE_FALLBACKS: EventCounter = EventCounter::new();
static NUMA_BINDS: EventCounter = EventCounter::new();
static NUMA_BIND_FAILS: EventCounter = EventCounter::new();
static NUMA_PINS: EventCounter = EventCounter::new();
static NUMA_PIN_FAILS: EventCounter = EventCounter::new();

/// Process-wide count of buffers served by `backend` since start.
pub fn backend_allocs(backend: AllocBackend) -> u64 {
    ALLOC_BACKENDS[backend.slot()].get()
}

/// Process-wide count of explicit-huge-page requests that fell back to the
/// THP path (empty hugetlb pool, unsupported kernel, non-Linux build).
pub fn huge_fallbacks() -> u64 {
    HUGE_FALLBACKS.get()
}

/// Process-wide count of successful `mbind` region tags.
pub fn numa_binds() -> u64 {
    NUMA_BINDS.get()
}

/// Process-wide count of refused `mbind` calls (denied syscall, bad node).
pub fn numa_bind_fails() -> u64 {
    NUMA_BIND_FAILS.get()
}

/// Process-wide count of successful worker-thread node pins.
pub fn numa_pins() -> u64 {
    NUMA_PINS.get()
}

/// Process-wide count of refused worker-thread node pins.
pub fn numa_pin_fails() -> u64 {
    NUMA_PIN_FAILS.get()
}

// ---------------------------------------------------------------- MapBuffer

/// A fixed-size, zero-initialized, huge-page-aligned buffer of `T`.
///
/// `T` is restricted (via the sealed [`MapElement`] trait) to plain integer
/// element types for which the all-zeroes bit pattern is a valid value,
/// which is what makes a fresh zero-page mapping a valid buffer.
///
/// # Examples
///
/// ```rust
/// use bigmap_core::alloc::MapBuffer;
///
/// let mut buf: MapBuffer<u8> = MapBuffer::zeroed(4096);
/// assert!(buf.iter().all(|&b| b == 0));
/// buf[7] = 42;
/// assert_eq!(buf[7], 42);
/// ```
pub struct MapBuffer<T: MapElement> {
    ptr: *mut T,
    len: usize,
    /// Bytes of the backing region `ptr` starts, released on drop.
    mapped: usize,
    backend: AllocBackend,
    fell_back: bool,
    _marker: PhantomData<T>,
}

// SAFETY: MapBuffer owns its allocation exclusively; T is a plain integer.
unsafe impl<T: MapElement> Send for MapBuffer<T> {}
// SAFETY: shared access only hands out &[T]; no interior mutability.
unsafe impl<T: MapElement> Sync for MapBuffer<T> {}

mod private {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// Element types allowed in a [`MapBuffer`].
///
/// This trait is sealed: it is implemented for `u8`, `u16`, `u32` and `u64`
/// and cannot be implemented outside this crate. All implementors are plain
/// integers whose all-zeroes bit pattern is a valid value.
pub trait MapElement: private::Sealed + Copy + 'static {}

impl MapElement for u8 {}
impl MapElement for u16 {}
impl MapElement for u32 {}
impl MapElement for u64 {}

impl<T: MapElement> MapBuffer<T> {
    /// Allocates a zeroed buffer of `len` elements, aligned to
    /// [`HUGE_PAGE_BYTES`], using the thread's effective huge-page policy
    /// ([`huge_policy`]).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero, if the allocation size overflows `isize`
    /// or if the kernel refuses the mapping.
    pub fn zeroed(len: usize) -> Self {
        Self::zeroed_with(len, huge_policy())
    }

    /// Allocates a zeroed buffer of `len` elements under an explicit
    /// huge-page policy, bypassing the process/thread default.
    ///
    /// Every policy yields a correctly aligned, fully zeroed buffer; only
    /// the backing pages differ. When `policy` asks for explicit huge pages
    /// and the host cannot serve them, the buffer silently degrades to the
    /// THP mapping and [`MapBuffer::fell_back`] reports it.
    ///
    /// # Panics
    ///
    /// As [`MapBuffer::zeroed`].
    pub fn zeroed_with(len: usize, policy: HugePolicy) -> Self {
        assert!(len > 0, "MapBuffer length must be non-zero");
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .filter(|&b| b <= isize::MAX as usize - 2 * HUGE_PAGE_BYTES)
            .expect("MapBuffer size overflow");
        let huge = bytes >= HUGE_PAGE_BYTES;

        let explicit = (policy == HugePolicy::Explicit && huge).then(|| sys::map_hugetlb(bytes));
        let fell_back = explicit == Some(None);
        if fell_back {
            HUGE_FALLBACKS.incr();
        }
        let (ptr, mapped, backend) = explicit.flatten().unwrap_or_else(|| {
            let thp = huge && policy != HugePolicy::Off;
            let (ptr, mapped) = sys::map_anonymous(bytes, thp);
            let backend = if thp {
                AllocBackend::Thp
            } else {
                AllocBackend::Plain
            };
            (ptr, mapped, backend)
        });
        bind_region(ptr, mapped);
        ALLOC_BACKENDS[backend.slot()].incr();
        MapBuffer {
            ptr: ptr.cast::<T>(),
            len,
            mapped,
            backend,
            fell_back,
            _marker: PhantomData,
        }
    }

    /// The backend this buffer went through.
    #[inline]
    pub fn backend(&self) -> AllocBackend {
        self.backend
    }

    /// Whether an explicit-huge-page request degraded to the THP mapping.
    #[inline]
    pub fn fell_back(&self) -> bool {
        self.fell_back
    }

    /// View of the whole buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: ptr is valid for len elements for the lifetime of self.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Mutable view of the whole buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: ptr is valid for len elements; &mut self guarantees
        // exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl<T: MapElement> Drop for MapBuffer<T> {
    fn drop(&mut self) {
        // SAFETY: [ptr, ptr+mapped) is exactly the region `zeroed_with` got
        // from `sys`, released once.
        unsafe { sys::unmap(self.ptr.cast(), self.mapped) }
    }
}

impl<T: MapElement> Deref for MapBuffer<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: MapElement> DerefMut for MapBuffer<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: MapElement + fmt::Debug> fmt::Debug for MapBuffer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MapBuffer")
            .field("len", &self.len)
            .field("align", &HUGE_PAGE_BYTES)
            .field("backend", &self.backend)
            .finish()
    }
}

impl<T: MapElement> Clone for MapBuffer<T> {
    fn clone(&self) -> Self {
        let mut out = Self::zeroed(self.len);
        out.as_mut_slice().copy_from_slice(self.as_slice());
        out
    }
}

// -------------------------------------------------------------- the mapping

#[cfg(target_os = "linux")]
mod sys {
    use super::{AllocBackend, GIGANTIC_PAGE_BYTES, HUGE_PAGE_BYTES};

    fn mmap(bytes: usize, flags: libc::c_int) -> Option<*mut u8> {
        // SAFETY: anonymous private mapping with no address hint; the kernel
        // either returns a fresh zeroed region of `bytes` or MAP_FAILED.
        let addr = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                bytes,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | flags,
                -1,
                0,
            )
        };
        (addr != libc::MAP_FAILED).then_some(addr.cast())
    }

    /// `MAP_HUGETLB` with 1 GiB pages when `bytes` is a whole multiple of
    /// the gigantic-page size, else 2 MiB pages. `None` when the kernel
    /// refuses (no pool, no support).
    pub(super) fn map_hugetlb(bytes: usize) -> Option<(*mut u8, usize, AllocBackend)> {
        if bytes.is_multiple_of(GIGANTIC_PAGE_BYTES) {
            if let Some(ptr) = mmap(bytes, libc::MAP_HUGETLB | libc::MAP_HUGE_1GB) {
                return Some((ptr, bytes, AllocBackend::ExplicitGigantic));
            }
        }
        let mapped = bytes.next_multiple_of(HUGE_PAGE_BYTES);
        let ptr = mmap(mapped, libc::MAP_HUGETLB | libc::MAP_HUGE_2MB)?;
        Some((ptr, mapped, AllocBackend::ExplicitHuge))
    }

    /// A lazily-faulted mapping of `bytes` rounded up to whole huge pages,
    /// starting on a huge-page boundary, advised into THP promotion (`thp`)
    /// or out of it before anything touches it.
    pub(super) fn map_anonymous(bytes: usize, thp: bool) -> (*mut u8, usize) {
        let mapped = bytes.next_multiple_of(HUGE_PAGE_BYTES);
        let raw = mmap(mapped + HUGE_PAGE_BYTES, 0).expect("MapBuffer: mmap refused");
        let head = raw.align_offset(HUGE_PAGE_BYTES);
        // SAFETY: `head < HUGE_PAGE_BYTES`, so the aligned region and the two
        // page-aligned trims released here all lie in the reservation. The
        // advice is best-effort: huge pages are an optimization (§IV-E),
        // never a correctness requirement.
        unsafe {
            let ptr = raw.add(head);
            if head > 0 {
                libc::munmap(raw.cast(), head);
            }
            libc::munmap(ptr.add(mapped).cast(), HUGE_PAGE_BYTES - head);
            let advice = if thp {
                libc::MADV_HUGEPAGE
            } else {
                libc::MADV_NOHUGEPAGE
            };
            libc::madvise(ptr.cast(), mapped, advice);
            (ptr, mapped)
        }
    }

    /// # Safety
    ///
    /// `[ptr, ptr+mapped)` must be a region from this module, released once.
    pub(super) unsafe fn unmap(ptr: *mut u8, mapped: usize) {
        // SAFETY: the caller's contract.
        unsafe { libc::munmap(ptr.cast(), mapped) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{AllocBackend, HUGE_PAGE_BYTES};
    use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};

    fn layout(bytes: usize) -> Layout {
        Layout::from_size_align(bytes, HUGE_PAGE_BYTES).expect("valid layout")
    }

    pub(super) fn map_hugetlb(_bytes: usize) -> Option<(*mut u8, usize, AllocBackend)> {
        None
    }

    /// A zeroed heap allocation: page advice is a Linux facility.
    pub(super) fn map_anonymous(bytes: usize, _thp: bool) -> (*mut u8, usize) {
        // SAFETY: bytes > 0 (MapBuffer rejects empty buffers).
        let ptr = unsafe { alloc_zeroed(layout(bytes)) };
        if ptr.is_null() {
            handle_alloc_error(layout(bytes));
        }
        (ptr, bytes)
    }

    /// # Safety
    ///
    /// `[ptr, ptr+bytes)` must be a region from this module, released once.
    pub(super) unsafe fn unmap(ptr: *mut u8, bytes: usize) {
        // SAFETY: the caller's contract.
        unsafe { dealloc(ptr, layout(bytes)) }
    }
}

/// Pages of `region` currently resident, by `mincore`: how residency tests
/// tell a lazily-faulted buffer from a filled one. `region` must start on
/// a huge-page boundary.
#[cfg(all(test, target_os = "linux"))]
pub(crate) fn resident_pages<T>(region: &[T]) -> usize {
    let len = std::mem::size_of_val(region);
    // One byte per 4 KiB covers every page of the range at any base page
    // size.
    let mut vec = vec![0u8; len.div_ceil(4096)];
    // SAFETY: `region` lies in a live mapping and `vec` is long enough.
    let rc = unsafe { libc::mincore(region.as_ptr() as *mut _, len, vec.as_mut_ptr()) };
    assert_eq!(rc, 0, "mincore failed");
    vec.iter().filter(|&&b| b & 1 != 0).count()
}

// -------------------------------------------------------------------- NUMA

/// Tags `[ptr, ptr+len)` with `MPOL_PREFERRED` for the thread's preferred
/// node so lazily-faulted pages land there. Best-effort: a refused or
/// unavailable `mbind` is counted and ignored (placement degrades to
/// first-touch, which thread pinning already steers).
#[cfg(target_os = "linux")]
fn bind_region(ptr: *mut u8, len: usize) {
    if numa_policy() == NumaPolicy::Off || len == 0 {
        return;
    }
    let Some(node) = thread_node().or(match numa_policy() {
        NumaPolicy::Node(n) => Some(n),
        _ => None,
    }) else {
        return;
    };
    if node >= 64 {
        NUMA_BIND_FAILS.incr();
        return;
    }
    let nodemask: u64 = 1u64 << node;
    // SAFETY: raw mbind syscall over a region we own; the kernel validates
    // the mask and mode and fails cleanly on nonsense (counted below).
    let rc = unsafe {
        libc::syscall(
            libc::SYS_mbind,
            ptr,
            len,
            libc::MPOL_PREFERRED,
            &nodemask as *const u64,
            64usize,
            0usize,
        )
    };
    if rc == 0 {
        NUMA_BINDS.incr();
    } else {
        NUMA_BIND_FAILS.incr();
    }
}

#[cfg(not(target_os = "linux"))]
fn bind_region(_ptr: *mut u8, _len: usize) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_slots_follow_declaration_order() {
        let backends = [
            AllocBackend::ExplicitGigantic,
            AllocBackend::ExplicitHuge,
            AllocBackend::Thp,
            AllocBackend::Plain,
        ];
        for (i, backend) in backends.into_iter().enumerate() {
            assert_eq!(backend.slot(), i, "{backend}");
        }
    }

    #[test]
    fn zeroed_is_all_zero() {
        let buf: MapBuffer<u8> = MapBuffer::zeroed(1 << 16);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(buf.len(), 1 << 16);
        assert!(!buf.is_empty());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn buffers_are_faulted_in_only_where_touched() {
        let mut buf: MapBuffer<u8> = MapBuffer::zeroed_with(64 << 20, HugePolicy::Off);
        assert_eq!(resident_pages(&buf), 0, "a fresh buffer is not filled");
        buf[0] = 1;
        buf[(40 << 20) + 5] = 1;
        assert_eq!(resident_pages(&buf), 2);
        assert_eq!(resident_pages(&buf[2 << 20..4 << 20]), 0);
    }

    #[test]
    fn alignment_is_huge_page() {
        let buf: MapBuffer<u8> = MapBuffer::zeroed(4096);
        assert_eq!(buf.as_ptr() as usize % HUGE_PAGE_BYTES, 0);
    }

    #[test]
    fn deref_and_index() {
        let mut buf: MapBuffer<u8> = MapBuffer::zeroed(64);
        buf[3] = 9;
        assert_eq!(buf[3], 9);
        assert_eq!(buf.iter().filter(|&&b| b != 0).count(), 1);
    }

    #[test]
    fn clone_copies_contents() {
        let mut buf: MapBuffer<u64> = MapBuffer::zeroed(128);
        buf[100] = 0xdead_beef;
        let copy = buf.clone();
        assert_eq!(copy[100], 0xdead_beef);
        assert_eq!(copy.len(), 128);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_length_rejected() {
        let _ = MapBuffer::<u8>::zeroed(0);
    }

    #[test]
    fn large_allocation_works() {
        // The paper's 8 MiB point plus the 32 MiB sweep extreme.
        let buf: MapBuffer<u8> = MapBuffer::zeroed(32 << 20);
        assert_eq!(buf.len(), 32 << 20);
        assert_eq!(buf[32 << 20 >> 1], 0);
    }

    #[test]
    fn every_policy_yields_aligned_zeroed_memory() {
        // The fallback contract: no matter what the host supports, every
        // policy produces a correctly aligned, fully zeroed buffer.
        for policy in [HugePolicy::Explicit, HugePolicy::Thp, HugePolicy::Off] {
            let mut buf: MapBuffer<u8> = MapBuffer::zeroed_with(4 << 20, policy);
            assert_eq!(
                buf.as_ptr() as usize % HUGE_PAGE_BYTES,
                0,
                "{policy}: misaligned"
            );
            assert!(buf.iter().all(|&b| b == 0), "{policy}: not zeroed");
            buf[3 << 20] = 7;
            assert_eq!(buf[3 << 20], 7, "{policy}: not writable");
        }
    }

    #[test]
    fn explicit_request_is_served_or_recorded_as_fallback() {
        let fallbacks_before = huge_fallbacks();
        let buf: MapBuffer<u8> = MapBuffer::zeroed_with(4 << 20, HugePolicy::Explicit);
        match buf.backend() {
            AllocBackend::ExplicitHuge | AllocBackend::ExplicitGigantic => {
                assert!(!buf.fell_back());
            }
            AllocBackend::Thp => {
                // No hugetlb pool on this host: the fallback must be
                // visible both per-buffer and in the process counter.
                assert!(buf.fell_back());
                assert!(huge_fallbacks() > fallbacks_before);
            }
            AllocBackend::Plain => panic!("explicit request degraded past THP"),
        }
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn off_policy_reports_plain_backend() {
        let buf: MapBuffer<u8> = MapBuffer::zeroed_with(4 << 20, HugePolicy::Off);
        assert_eq!(buf.backend(), AllocBackend::Plain);
        assert!(!buf.fell_back());
    }

    #[test]
    fn sub_huge_page_buffers_never_use_hugetlb() {
        // Explicit policy on a 4 KiB buffer: hugetlb would waste a full
        // 2 MiB page, so the small buffer takes a base-page mapping and is
        // not a fallback.
        let buf: MapBuffer<u8> = MapBuffer::zeroed_with(4096, HugePolicy::Explicit);
        assert_eq!(buf.backend(), AllocBackend::Plain);
        assert!(!buf.fell_back());
    }

    #[test]
    fn backend_counters_are_monotone_and_attributed() {
        let before = backend_allocs(AllocBackend::Plain);
        let _buf: MapBuffer<u8> = MapBuffer::zeroed_with(4096, HugePolicy::Thp);
        assert!(backend_allocs(AllocBackend::Plain) > before);
    }

    #[test]
    fn with_huge_policy_scopes_and_restores() {
        let outer = huge_policy();
        with_huge_policy(HugePolicy::Off, || {
            assert_eq!(huge_policy(), HugePolicy::Off);
            with_huge_policy(HugePolicy::Explicit, || {
                assert_eq!(huge_policy(), HugePolicy::Explicit);
            });
            assert_eq!(huge_policy(), HugePolicy::Off);
        });
        assert_eq!(huge_policy(), outer);
    }

    #[test]
    fn parse_huge_policy_values() {
        assert_eq!(parse_huge(None), HugePolicy::Thp);
        assert_eq!(parse_huge(Some("explicit")), HugePolicy::Explicit);
        assert_eq!(parse_huge(Some(" thp ")), HugePolicy::Thp);
        assert_eq!(parse_huge(Some("off")), HugePolicy::Off);
        assert_eq!(parse_huge(Some("gigantic")), HugePolicy::Thp);
    }

    #[test]
    fn parse_numa_policy_values() {
        assert_eq!(parse_numa(None), NumaPolicy::Auto);
        assert_eq!(parse_numa(Some("auto")), NumaPolicy::Auto);
        assert_eq!(parse_numa(Some("off")), NumaPolicy::Off);
        assert_eq!(parse_numa(Some("node:3")), NumaPolicy::Node(3));
        assert_eq!(parse_numa(Some("node:zero")), NumaPolicy::Auto);
        assert_eq!(parse_numa(Some("numa")), NumaPolicy::Auto);
    }

    #[test]
    fn bogus_thread_node_degrades_gracefully() {
        // Node 63 does not exist on any test host. Whether the kernel
        // refuses the preferred-node tag (EINVAL) or accepts it for a
        // possible-but-absent node is host-specific — the contract is
        // only that the attempt is counted, nothing panics, and the
        // buffer is correct either way.
        set_thread_node(Some(63));
        let buf: MapBuffer<u8> = MapBuffer::zeroed(1 << 20);
        set_thread_node(None);
        assert!(buf.iter().all(|&b| b == 0));
        #[cfg(target_os = "linux")]
        if numa_policy() != NumaPolicy::Off {
            assert!(numa_binds() + numa_bind_fails() > 0);
        }
    }

    #[test]
    fn node_topology_probe_is_sane() {
        let nodes = numa_node_count();
        assert!(nodes >= 1);
        // Pinning to a node far past the topology must refuse cleanly.
        assert!(!pin_thread_to_node(1023));
    }

    #[test]
    fn worker_numa_application_is_graceful() {
        // Whatever the host topology and policy, applying worker placement
        // must not panic and must leave a consistent outcome record.
        let outcome = apply_worker_numa(0);
        assert_eq!(outcome, thread_numa_outcome());
        set_thread_node(None);
    }

    #[test]
    fn cpulist_parser_handles_ranges_and_holes() {
        assert_eq!(parse_cpulist("0-3"), Some(vec![0, 1, 2, 3]));
        assert_eq!(parse_cpulist("0,2,4"), Some(vec![0, 2, 4]));
        assert_eq!(parse_cpulist("0-1,8,10-11"), Some(vec![0, 1, 8, 10, 11]));
        assert_eq!(parse_cpulist(""), None);
        assert_eq!(parse_cpulist("3-1"), None);
        assert_eq!(parse_cpulist("x"), None);
    }

    #[test]
    fn explicit_buffers_survive_clone_and_drop() {
        // Clone of an explicit (or fallen-back) buffer re-allocates under
        // the current thread policy; both drops must release exactly their
        // own mapping without corruption.
        with_huge_policy(HugePolicy::Explicit, || {
            let mut a: MapBuffer<u8> = MapBuffer::zeroed(4 << 20);
            a[123] = 45;
            let b = a.clone();
            drop(a);
            assert_eq!(b[123], 45);
        });
    }
}
