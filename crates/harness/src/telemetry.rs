//! Observability primitives: the flight recorder, cycle-sampled series
//! buffering, and live grid progress.
//!
//! Everything here is *measurement plumbing* — none of it may feed back
//! into what a simulation computes. The flight recorder stores packed
//! [`Record`]s of simulated-time events in a fixed-capacity ring (oldest
//! entries overwritten, with an overflow-drop counter), the
//! [`SeriesBuffer`] accumulates JSONL rows in memory so sampling never
//! does hot-path I/O, and [`GridProgress`] + [`Heartbeat`] render a
//! stderr status line for long grid sweeps. Tracing, the artifact
//! directory and the heartbeat are switched by knobs (see
//! [`crate::knobs()`]).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Monotonic sequence for artifact file names, so concurrent grid cells
/// writing to the same directory never collide.
pub fn next_artifact_seq() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

// --------------------------------------------------------- flight recorder

/// One packed flight-recorder entry: 24 bytes, `Copy`, meaning assigned
/// by the producer (the harness stays domain-agnostic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Record {
    /// Simulated time (cycles) the event occurred at.
    pub time: u64,
    /// Producer-defined payload (an address, a count, ...).
    pub addr: u64,
    /// Producer-defined event kind discriminant.
    pub kind: u8,
    /// Originating unit (core index for the simulator).
    pub unit: u8,
    /// Producer-defined flag bits.
    pub flags: u16,
    /// Producer-defined small argument (a degree, a byte count, ...).
    pub arg: u32,
}

/// Fixed-capacity ring buffer of [`Record`]s.
///
/// When full, [`push`](FlightRecorder::push) overwrites the oldest entry
/// and increments the overflow-drop counter — the recorder always holds
/// the *most recent* `capacity` events, and `dropped()` says how many
/// older ones were lost.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: Vec<Record>,
    capacity: usize,
    /// Index of the oldest entry once the ring has wrapped.
    head: usize,
    len: usize,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs capacity");
        FlightRecorder { buf: Vec::with_capacity(capacity), capacity, head: 0, len: 0, dropped: 0 }
    }

    /// Appends a record, overwriting the oldest when full.
    #[inline]
    pub fn push(&mut self, r: Record) {
        if self.len < self.capacity {
            self.buf.push(r);
            self.len += 1;
        } else {
            self.buf[self.head] = r;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the recorder holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }

    /// The most recent `k` records, oldest-first.
    pub fn last(&self, k: usize) -> Vec<Record> {
        let skip = self.len.saturating_sub(k);
        self.iter().skip(skip).copied().collect()
    }

    /// Empties the ring (capacity and drop counter keep their values).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.len = 0;
    }
}

// ------------------------------------------------------------ series rows

/// In-memory buffer of JSONL rows for one run's cycle-sampled series.
///
/// Rows accumulate in memory and are written in one `fs::write` at the
/// end of the run, so sampling never does I/O on the simulation's hot
/// path.
#[derive(Debug, Clone, Default)]
pub struct SeriesBuffer {
    rows: Vec<String>,
}

impl SeriesBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        SeriesBuffer::default()
    }

    /// Appends one pre-rendered JSON object (no trailing newline).
    pub fn push(&mut self, row: String) {
        self.rows.push(row);
    }

    /// Rows buffered so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the buffer as JSONL (one object per line).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for r in &self.rows {
            s.push_str(r);
            s.push('\n');
        }
        s
    }
}

/// Escapes a string for embedding in a flat JSON object.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ----------------------------------------------------------- grid progress

/// Per-cell lifecycle states for a grid sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CellState {
    /// Not started yet.
    Queued = 0,
    /// Currently executing on a worker.
    Running = 1,
    /// Started more than once (a supervised retry after a failure).
    Retrying = 2,
    /// Finished successfully.
    Done = 3,
    /// Finished with a failure (panic, timeout, sim error).
    Failed = 4,
    /// Satisfied from the result store without running (bit-identical
    /// reuse, counted as done).
    Cached = 5,
}

impl CellState {
    fn from_u8(v: u8) -> CellState {
        match v {
            1 => CellState::Running,
            2 => CellState::Retrying,
            3 => CellState::Done,
            4 => CellState::Failed,
            5 => CellState::Cached,
            _ => CellState::Queued,
        }
    }
}

/// Shared, lock-free progress state for one grid sweep.
///
/// Workers mark cells as they start, retry and finish; a [`Heartbeat`]
/// (or any observer) renders [`GridProgress::status_line`] periodically.
/// All updates are relaxed atomics — progress reporting must never
/// serialize the workers it watches, and it feeds nothing back into the
/// results.
#[derive(Debug)]
pub struct GridProgress {
    states: Vec<AtomicU8>,
    /// Engine events completed cells dispatched, for the events/sec rate.
    events: AtomicU64,
    /// Summed host nanoseconds of completed cells.
    cell_nanos: AtomicU64,
    done: AtomicUsize,
    failed: AtomicUsize,
    workers: usize,
    started: Instant,
}

impl GridProgress {
    /// Progress over `cells` grid cells executed by `workers` workers.
    pub fn new(cells: usize, workers: usize) -> Self {
        GridProgress {
            states: (0..cells).map(|_| AtomicU8::new(CellState::Queued as u8)).collect(),
            events: AtomicU64::new(0),
            cell_nanos: AtomicU64::new(0),
            done: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            workers: workers.max(1),
            started: Instant::now(),
        }
    }

    /// Total cells tracked.
    pub fn cells(&self) -> usize {
        self.states.len()
    }

    /// Marks cell `i` as started; a second start marks it retrying.
    pub fn cell_started(&self, i: usize) {
        let s = &self.states[i];
        let prev = s.load(Ordering::Relaxed);
        if prev == CellState::Queued as u8 {
            s.store(CellState::Running as u8, Ordering::Relaxed);
        } else if prev == CellState::Running as u8 || prev == CellState::Retrying as u8 {
            s.store(CellState::Retrying as u8, Ordering::Relaxed);
        }
    }

    /// Marks cell `i` finished. `events`/`host_nanos` feed the aggregate
    /// events-per-second figure; pass 0 when unknown (failed cells).
    pub fn cell_finished(&self, i: usize, ok: bool, events: u64, host_nanos: u64) {
        self.states[i].store(
            if ok { CellState::Done } else { CellState::Failed } as u8,
            Ordering::Relaxed,
        );
        if ok {
            self.done.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.events.fetch_add(events, Ordering::Relaxed);
        self.cell_nanos.fetch_add(host_nanos, Ordering::Relaxed);
    }

    /// Marks cell `i` as already satisfied (e.g. loaded from a journal).
    pub fn cell_skipped(&self, i: usize) {
        self.states[i].store(CellState::Done as u8, Ordering::Relaxed);
        self.done.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks cell `i` as served from the result store (a cache hit —
    /// distinguishable from computed cells in the status line).
    pub fn cell_cached(&self, i: usize) {
        self.states[i].store(CellState::Cached as u8, Ordering::Relaxed);
        self.done.fetch_add(1, Ordering::Relaxed);
    }

    /// Cells currently marked store-cached.
    pub fn cached(&self) -> usize {
        self.states
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) == CellState::Cached as u8)
            .count()
    }

    /// Snapshot of one cell's state.
    pub fn state(&self, i: usize) -> CellState {
        CellState::from_u8(self.states[i].load(Ordering::Relaxed))
    }

    /// Cells finished (done + failed).
    pub fn finished(&self) -> usize {
        self.done.load(Ordering::Relaxed) + self.failed.load(Ordering::Relaxed)
    }

    /// Whether every cell has finished.
    pub fn is_complete(&self) -> bool {
        self.finished() >= self.states.len()
    }

    /// Renders the one-line status: counts per state, per-worker engine
    /// throughput over completed cells, and a wall-clock ETA.
    pub fn status_line(&self) -> String {
        let (mut running, mut retrying, mut cached) = (0usize, 0usize, 0usize);
        for s in &self.states {
            match CellState::from_u8(s.load(Ordering::Relaxed)) {
                CellState::Running => running += 1,
                CellState::Retrying => retrying += 1,
                CellState::Cached => cached += 1,
                _ => {}
            }
        }
        let done = self.done.load(Ordering::Relaxed);
        let failed = self.failed.load(Ordering::Relaxed);
        let total = self.states.len();
        let mut line = format!("grid {}/{} done", done + failed, total);
        if cached > 0 {
            line.push_str(&format!(" ({cached} from store)"));
        }
        if failed > 0 {
            line.push_str(&format!(", {failed} failed"));
        }
        if retrying > 0 {
            line.push_str(&format!(", {retrying} retrying"));
        }
        if running > 0 {
            line.push_str(&format!(", {running} running"));
        }
        let nanos = self.cell_nanos.load(Ordering::Relaxed);
        if nanos > 0 {
            let evps = self.events.load(Ordering::Relaxed) as f64 * 1e9 / nanos as f64;
            line.push_str(&format!(" | {:.2} Mev/s/worker", evps / 1e6));
        }
        let finished = done + failed;
        if finished > 0 && finished < total {
            // ETA from mean cell CPU time, divided across the workers.
            let remaining = (total - finished) as f64;
            let per_cell = nanos as f64 / finished as f64;
            let eta = per_cell * remaining / self.workers as f64 / 1e9;
            line.push_str(&format!(" | ETA {:.0}s", eta.ceil()));
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        line.push_str(&format!(" | {elapsed:.0}s elapsed"));
        line
    }

    /// The terminal 100% line, printed exactly when every cell has
    /// finished: unlike the rolling [`status_line`](Self::status_line) it
    /// opens with `grid complete:` and carries the totals (cells, store
    /// hits, failures, engine events, wall time), so a truncated log —
    /// one that ends on a rolling `grid N/M done` line — is
    /// distinguishable from a run that actually finished.
    pub fn final_line(&self) -> String {
        let done = self.done.load(Ordering::Relaxed);
        let failed = self.failed.load(Ordering::Relaxed);
        let cached = self.cached();
        let mut line = format!("grid complete: {}/{} cells", done + failed, self.states.len());
        if cached > 0 {
            line.push_str(&format!(" ({cached} from store)"));
        }
        if failed > 0 {
            line.push_str(&format!(", {failed} failed"));
        }
        let events = self.events.load(Ordering::Relaxed);
        let nanos = self.cell_nanos.load(Ordering::Relaxed);
        if events > 0 {
            line.push_str(&format!(" | {:.1}M events", events as f64 / 1e6));
        }
        if nanos > 0 {
            let evps = events as f64 * 1e9 / nanos as f64;
            line.push_str(&format!(" | {:.2} Mev/s/worker", evps / 1e6));
        }
        line.push_str(&format!(" | {:.1}s elapsed", self.started.elapsed().as_secs_f64()));
        line
    }
}

/// Background renderer: prints [`GridProgress::status_line`] to stderr a
/// few times per second (carriage-return overwrite) until stopped.
///
/// [`Heartbeat::start`] returns a guard; dropping it (or calling
/// [`stop`](Heartbeat::stop)) joins the thread and terminates the status
/// line with a newline so subsequent output starts clean.
#[derive(Debug)]
pub struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    /// Spawns the renderer over `progress`.
    pub fn start(progress: Arc<GridProgress>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("cmpsim-heartbeat".into())
            .spawn(move || {
                let mut wrote = false;
                while !stop2.load(Ordering::Relaxed) {
                    eprint!("\r\x1b[2K{}", progress.status_line());
                    wrote = true;
                    if progress.is_complete() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(200));
                }
                if wrote {
                    // Completed sweeps close with the distinguishable
                    // 100% line; interrupted ones leave a rolling line,
                    // so a truncated log is recognizable as such.
                    if progress.is_complete() {
                        eprintln!("\r\x1b[2K{}", progress.final_line());
                    } else {
                        eprintln!("\r\x1b[2K{}", progress.status_line());
                    }
                }
            })
            .ok();
        Heartbeat { stop, handle }
    }

    /// Stops the renderer and joins its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(time: u64, kind: u8) -> Record {
        Record { time, kind, ..Record::default() }
    }

    #[test]
    fn ring_fills_then_wraps_oldest_first() {
        let mut fr = FlightRecorder::new(4);
        assert!(fr.is_empty());
        for t in 0..4 {
            fr.push(rec(t, 0));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.dropped(), 0);
        let times: Vec<u64> = fr.iter().map(|r| r.time).collect();
        assert_eq!(times, vec![0, 1, 2, 3]);

        // Two more overwrite the two oldest.
        fr.push(rec(4, 0));
        fr.push(rec(5, 0));
        assert_eq!(fr.len(), 4, "length saturates at capacity");
        let times: Vec<u64> = fr.iter().map(|r| r.time).collect();
        assert_eq!(times, vec![2, 3, 4, 5], "iteration stays oldest-first across the seam");
    }

    #[test]
    fn overflow_drop_accounting_is_exact() {
        let mut fr = FlightRecorder::new(8);
        for t in 0..1000 {
            fr.push(rec(t, 1));
        }
        assert_eq!(fr.len(), 8);
        assert_eq!(fr.dropped(), 1000 - 8);
        let times: Vec<u64> = fr.iter().map(|r| r.time).collect();
        assert_eq!(times, (992..1000).collect::<Vec<_>>());
    }

    #[test]
    fn last_k_returns_most_recent() {
        let mut fr = FlightRecorder::new(4);
        for t in 0..10 {
            fr.push(rec(t, 0));
        }
        let last2: Vec<u64> = fr.last(2).iter().map(|r| r.time).collect();
        assert_eq!(last2, vec![8, 9]);
        // Asking for more than held returns everything.
        assert_eq!(fr.last(100).len(), 4);
    }

    #[test]
    fn clear_keeps_drop_counter() {
        let mut fr = FlightRecorder::new(2);
        for t in 0..5 {
            fr.push(rec(t, 0));
        }
        assert_eq!(fr.dropped(), 3);
        fr.clear();
        assert!(fr.is_empty());
        assert_eq!(fr.dropped(), 3, "drops are a lifetime counter");
        fr.push(rec(9, 0));
        assert_eq!(fr.last(1)[0].time, 9);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = FlightRecorder::new(0);
    }

    #[test]
    fn series_buffer_renders_jsonl() {
        let mut sb = SeriesBuffer::new();
        assert!(sb.is_empty());
        sb.push("{\"t\":1}".into());
        sb.push("{\"t\":2}".into());
        assert_eq!(sb.len(), 2);
        assert_eq!(sb.to_jsonl(), "{\"t\":1}\n{\"t\":2}\n");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_escape("plain"), "\"plain\"");
    }

    #[test]
    fn grid_progress_tracks_states_and_counts() {
        let p = GridProgress::new(4, 2);
        assert_eq!(p.cells(), 4);
        assert_eq!(p.state(0), CellState::Queued);
        p.cell_started(0);
        assert_eq!(p.state(0), CellState::Running);
        p.cell_started(0);
        assert_eq!(p.state(0), CellState::Retrying, "second start means a retry");
        p.cell_finished(0, true, 1_000, 500);
        assert_eq!(p.state(0), CellState::Done);
        p.cell_started(1);
        p.cell_finished(1, false, 0, 0);
        assert_eq!(p.state(1), CellState::Failed);
        p.cell_skipped(2);
        assert_eq!(p.state(2), CellState::Done);
        assert_eq!(p.finished(), 3);
        assert!(!p.is_complete());
        p.cell_started(3);
        let line = p.status_line();
        assert!(line.contains("3/4 done"), "{line}");
        assert!(line.contains("1 failed"), "{line}");
        assert!(line.contains("1 running"), "{line}");
        p.cell_finished(3, true, 0, 0);
        assert!(p.is_complete());
    }

    #[test]
    fn final_line_is_distinguishable_and_totalled() {
        let p = GridProgress::new(3, 2);
        p.cell_started(0);
        p.cell_finished(0, true, 2_000_000, 1_000_000);
        p.cell_cached(1);
        p.cell_started(2);
        p.cell_finished(2, false, 0, 0);
        assert!(p.is_complete());
        let line = p.final_line();
        assert!(line.starts_with("grid complete: 3/3 cells"), "{line}");
        assert!(line.contains("(1 from store)"), "{line}");
        assert!(line.contains("1 failed"), "{line}");
        assert!(line.contains("2.0M events"), "{line}");
        assert!(line.contains("elapsed"), "{line}");
        // The rolling line never claims completion.
        assert!(!p.status_line().contains("complete"), "{}", p.status_line());
    }

    #[test]
    fn heartbeat_starts_and_stops_cleanly() {
        let p = Arc::new(GridProgress::new(1, 1));
        p.cell_skipped(0);
        let hb = Heartbeat::start(Arc::clone(&p));
        hb.stop();
    }
}
