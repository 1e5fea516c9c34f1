//! Chrome trace-event JSON export (loadable in Perfetto / `chrome://tracing`).
//!
//! The exporter lays the structured event stream out on tracks:
//!
//! * **cores: execution** (pid 1) — one thread per core; each epoch's
//!   *Ongoing* phase is a duration span (`ph:"X"`).
//! * **cores: persist pipeline** (pid 2) — each epoch's close-to-PersistCMP
//!   window is a duration span carrying the flush reason. Because several
//!   epochs of one core can be in flight at once, spans are packed onto
//!   per-core *lanes* (greedy interval assignment), guaranteeing tracks
//!   never hold overlapping slices.
//! * **cores: stalls** (pid 3) — per-core duration spans for
//!   online-persist and barrier stalls.
//! * **cores: events** (pid 4) — instant events (`ph:"i"`): FlushEpoch and
//!   PersistCMP handshake steps, IDT records/overflows, conflicts,
//!   deadlock splits.
//! * **llc banks** (pid 5) — one thread per bank; BankAck instants.
//! * **noc** (pid 6) — one thread per virtual network, numbered by class
//!   index (control 0, data 1, writeback 2); injection instants.
//! * **memory controllers** (pid 7) — counter tracks (`ph:"C"`) from the
//!   periodic metric samples: MC queue depth, stalled cores, cumulative
//!   NVRAM writes.
//!
//! Timestamps are simulated cycles written as integer `ts` microseconds
//! (1 cycle ≙ 1 µs in the viewer); no wall-clock value ever enters the
//! document, so identical runs export byte-identical traces.
//!
//! The export takes three steps:
//!
//! 1. **Pre-scan.** One pass over the events reconstructs each epoch's
//!    lifecycle and marks the thread ids of every track in tables indexed
//!    by core, bank and class; the metadata at the front names them in id
//!    order. Persist-pipeline lanes are then assigned per core.
//! 2. **Index.** Every output line becomes a 16-byte `Record`: its `ts`,
//!    its kind (execution span, persist span, stream event, counter, in
//!    that order) and the lifecycle, event or sample it renders. The
//!    records fill one `Vec` reserved for exactly the document's lines,
//!    each kind pushed in ascending index order, and a stable LSD radix
//!    sort orders them by `ts << 2 | kind`. Lines with equal `ts` thus come
//!    out by kind, then by index.
//! 3. **Write.** The track metadata, then one line per record, appended to
//!    a `String` straight from the [`TraceEvent`] or [`MetricSample`] it
//!    points at, as `&str` pieces with decimals taken two digits at a time
//!    from a table. [`export_chrome_trace`] returns that string;
//!    [`write_chrome_trace`] hands it to its writer whenever it passes
//!    64 KiB and starts it afresh, so a streamed document is never held
//!    whole.
//!
//! The bytes are those of the earlier document-model exporter, which built
//! a JSON tree of the whole trace first; `tests/golden/chrome-small.json`
//! pins them. Every string the exporter writes is an id (`C3:E7`, `B2`, …)
//! or a fixed name, none of which needs JSON escaping.

use pbm_types::{
    EpochPhase, EpochTag, MessageClass, MetricSample, NodeId, TraceEvent, TraceEventKind,
};
use std::collections::BTreeMap;
use std::io::{self, Write};

#[cfg(test)]
mod reference;

const PID_EXEC: u64 = 1;
const PID_PERSIST: u64 = 2;
const PID_STALLS: u64 = 3;
const PID_EVENTS: u64 = 4;
const PID_BANKS: u64 = 5;
const PID_NOC: u64 = 6;
const PID_MC: u64 = 7;

/// Per-core lane stride for the persist pipeline's tid space.
const LANE_STRIDE: u64 = 1000;

/// The counter tracks, in the order each sample emits them.
const COUNTERS: [&str; 3] = ["mc_queue_depth", "stalled_cores", "nvram_writes"];

/// Bytes [`write_chrome_trace`] collects before handing them to its writer.
const CHUNK: usize = 64 * 1024;

/// `00` to `99`, two characters each.
const DIGIT_PAIRS: &str = concat!(
    "00010203040506070809",
    "10111213141516171819",
    "20212223242526272829",
    "30313233343536373839",
    "40414243444546474849",
    "50515253545556575859",
    "60616263646566676869",
    "70717273747576777879",
    "80818283848586878889",
    "90919293949596979899",
);

/// Lifecycle milestones of one epoch, reconstructed from the event stream.
#[derive(Debug, Default, Clone)]
struct EpochLife {
    ongoing_at: Option<u64>,
    completed_at: Option<u64>,
    flushing_at: Option<u64>,
    persisted_at: Option<u64>,
    reason: Option<&'static str>,
    /// Persist-pipeline lane, assigned once every lifecycle is known.
    lane: u64,
}

/// What one output line renders. Variant order is the order in which
/// lines with equal `ts` are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// An epoch's execution span; indexes the lifecycles.
    Exec,
    /// An epoch's persist-pipeline span; indexes the lifecycles.
    Persist,
    /// A stream event; indexes the events.
    Event,
    /// `sample * 3 + counter`; indexes the samples and [`COUNTERS`].
    Counter,
}

/// One output line of the index.
#[derive(Debug, Clone, Copy)]
struct Record {
    ts: u64,
    index: u32,
    kind: Kind,
}

impl Record {
    fn new(ts: u64, kind: Kind, index: usize) -> Record {
        let index = u32::try_from(index).expect("a trace holds fewer than 2^32 records");
        Record { ts, index, kind }
    }
}

/// The most key bits one radix pass orders.
const RADIX_BITS: u32 = 12;

/// Sorts `records` stably by `ts << 2 | kind`: an LSD radix sort through
/// one scratch buffer of the same length, with as few passes over digits
/// of at most 12 bits as the largest `ts` needs. A digit that every record
/// shares is skipped. The key has 66 bits, so the first digit is cut from
/// `ts << 2 | kind` and the others straight from `ts`.
fn radix_sort(records: &mut Vec<Record>) {
    let Some(max) = records.iter().map(|r| r.ts).max() else {
        return;
    };
    let bits = u64::BITS - max.leading_zeros() + 2;
    let passes = bits.div_ceil(RADIX_BITS);
    let width = bits.div_ceil(passes);
    let digit = |r: &Record, pass: u32| {
        let bits = match pass {
            0 => r.ts << 2 | r.kind as u64,
            _ => r.ts >> (pass * width - 2),
        };
        bits as usize & ((1 << width) - 1)
    };
    let mut counts = vec![vec![0usize; 1 << width]; passes as usize];
    for r in records.iter() {
        for (pass, count) in (0..).zip(counts.iter_mut()) {
            count[digit(r, pass)] += 1;
        }
    }
    let mut from = std::mem::take(records);
    let mut to = Vec::new();
    for (pass, count) in (0..).zip(counts.iter_mut()) {
        if count.contains(&from.len()) {
            continue;
        }
        // Each bucket's first slot, then the next free one.
        let mut at = 0;
        for slot in count.iter_mut() {
            at += std::mem::replace(slot, at);
        }
        to.resize(from.len(), from[0]);
        for r in &from {
            let slot = &mut count[digit(r, pass)];
            to[*slot] = *r;
            *slot += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    *records = from;
}

/// A set of small ids (cores, banks): a table indexed by id.
#[derive(Debug, Default)]
struct Ids(Vec<bool>);

impl Ids {
    fn insert(&mut self, id: u32) {
        let id = id as usize;
        if id >= self.0.len() {
            self.0.resize(id + 1, false);
        }
        self.0[id] = true;
    }

    /// `(id, name(id))` for each id in the set, ascending.
    fn threads(&self, name: impl Fn(usize) -> String) -> Vec<(u64, String)> {
        (0..self.0.len())
            .filter(|&id| self.0[id])
            .map(|id| (id as u64, name(id)))
            .collect()
    }
}

/// Where `ev`'s output line sorts, or `None` if it renders no line.
fn line_ts(ev: &TraceEvent) -> Option<u64> {
    let ts = ev.cycle.as_u64();
    match ev.kind {
        // Phases become the epoch spans. A persist write happens once per
        // flushed line, too dense for a viewer track (pbm-prof reads them
        // from the in-memory stream instead). A stall's span is written at
        // its StallEnd, which carries the duration.
        TraceEventKind::EpochPhase { .. }
        | TraceEventKind::PersistWrite { .. }
        | TraceEventKind::StallBegin { .. } => None,
        TraceEventKind::StallEnd { waited, .. } => Some(ts.saturating_sub(waited.as_u64())),
        _ => Some(ts),
    }
}

/// The pre-scan's result: everything the write pass needs besides the
/// events and samples themselves.
#[derive(Debug, Default)]
struct Layout {
    /// Epoch lifecycles in `(core, epoch)` order.
    lives: Vec<(EpochTag, EpochLife)>,
    last_cycle: u64,
    records: Vec<Record>,
    exec_cores: Ids,
    /// Per core, the cycle each persist-pipeline lane is busy until.
    lanes: Vec<Vec<u64>>,
    stall_cores: Ids,
    event_cores: Ids,
    bank_tids: Ids,
    /// The name of each NoC class seen, indexed by class (its tid).
    noc_vnets: [Option<&'static str>; MessageClass::VNETS],
}

impl Layout {
    fn scan(events: &[TraceEvent], samples: &[MetricSample]) -> Layout {
        let mut layout = Layout::default();
        // Keyed (core, epoch) in BTree order so lane assignment and span
        // order are deterministic.
        let mut lives: BTreeMap<EpochTag, EpochLife> = BTreeMap::new();
        // At most one line per event and three per sample: phase events
        // render no line, and each epoch span stands in for one of its
        // epoch's phase events (the first Ongoing, or the first Completed
        // or Flushing).
        layout.records = Vec::with_capacity(events.len() + samples.len() * COUNTERS.len());
        for (i, ev) in events.iter().enumerate() {
            let ts = ev.cycle.as_u64();
            layout.last_cycle = layout.last_cycle.max(ts);
            if let Some(line) = line_ts(ev) {
                layout.records.push(Record::new(line, Kind::Event, i));
            }
            match ev.kind {
                TraceEventKind::EpochPhase { tag, phase } => {
                    let life = lives.entry(tag).or_default();
                    let slot = match phase {
                        EpochPhase::Ongoing => &mut life.ongoing_at,
                        EpochPhase::Completed => &mut life.completed_at,
                        EpochPhase::Flushing => &mut life.flushing_at,
                        EpochPhase::Persisted => &mut life.persisted_at,
                    };
                    slot.get_or_insert(ts);
                }
                TraceEventKind::FlushEpoch { tag, reason } => {
                    lives
                        .entry(tag)
                        .or_default()
                        .reason
                        .get_or_insert(reason.name());
                    layout.event_cores.insert(tag.core.as_u32());
                }
                TraceEventKind::FlushRequested { tag, .. } | TraceEventKind::PersistCmp { tag } => {
                    layout.event_cores.insert(tag.core.as_u32());
                }
                TraceEventKind::IdtRecord { dependent, .. }
                | TraceEventKind::IdtOverflow { dependent, .. }
                | TraceEventKind::ConflictInter { dependent, .. } => {
                    layout.event_cores.insert(dependent.core.as_u32());
                }
                TraceEventKind::DeadlockSplit { core, .. }
                | TraceEventKind::ConflictIntra { core, .. } => {
                    layout.event_cores.insert(core.as_u32());
                }
                TraceEventKind::BankFlushStart { bank, .. }
                | TraceEventKind::BankAck { bank, .. } => layout.bank_tids.insert(bank.as_u32()),
                TraceEventKind::StallEnd { core, .. } => layout.stall_cores.insert(core.as_u32()),
                TraceEventKind::NocSend { class, .. } => {
                    layout.noc_vnets[class.vnet()] = Some(class.name());
                }
                TraceEventKind::PersistWrite { .. } | TraceEventKind::StallBegin { .. } => {}
            }
        }

        layout.lives = lives.into_iter().collect();

        // Execution spans, and persist-pipeline spans packed onto per-core
        // lanes so no track holds overlapping slices.
        for (i, (tag, life)) in layout.lives.iter_mut().enumerate() {
            let core = tag.core.as_u32();
            if let Some(start) = life.ongoing_at {
                layout.exec_cores.insert(core);
                layout.records.push(Record::new(start, Kind::Exec, i));
            }
            let Some(start) = life.completed_at.or(life.flushing_at) else {
                continue;
            };
            let end = life.persisted_at.unwrap_or(layout.last_cycle);
            let core = core as usize;
            if core >= layout.lanes.len() {
                layout.lanes.resize_with(core + 1, Vec::new);
            }
            let lanes = &mut layout.lanes[core];
            let lane = match lanes.iter().position(|&busy_until| busy_until <= start) {
                Some(free) => free,
                None => {
                    lanes.push(0);
                    lanes.len() - 1
                }
            };
            lanes[lane] = end.max(start + 1);
            life.lane = lane as u64;
            layout.records.push(Record::new(start, Kind::Persist, i));
        }

        for (i, sample) in samples.iter().enumerate() {
            for c in 0..COUNTERS.len() {
                let index = i * COUNTERS.len() + c;
                layout
                    .records
                    .push(Record::new(sample.cycle.as_u64(), Kind::Counter, index));
            }
        }
        radix_sort(&mut layout.records);
        layout
    }
}

/// The document being written. Each line is appended to `buf` by the
/// chained methods below; at its end, `spill` may hand `buf` on to a
/// writer and clear it. At millions of lines, `fmt`'s machinery would cost
/// more than the bytes themselves.
struct Writer<F> {
    buf: String,
    first: bool,
    spill: F,
}

impl<F: FnMut(&mut String) -> io::Result<()>> Writer<F> {
    /// Opens a line up to the `name` value, whose text follows.
    fn open(&mut self) -> &mut Self {
        if std::mem::take(&mut self.first) {
            self.text("{\"name\":\"")
        } else {
            self.text(",\n{\"name\":\"")
        }
    }

    /// Ends the name with a duration span's fields and opens its `args`.
    fn span(&mut self, ts: u64, dur: u64, pid: u64, tid: u64) -> &mut Self {
        self.text("\",\"ph\":\"X\",\"ts\":")
            .num(ts)
            .text(",\"dur\":")
            .num(dur)
            .text(",\"pid\":")
            .num(pid)
            .text(",\"tid\":")
            .num(tid)
            .text(",\"args\":{")
    }

    /// Ends the name with an instant's fields and opens its `args`.
    fn instant(&mut self, ts: u64, pid: u64, tid: u64) -> &mut Self {
        self.text("\",\"ph\":\"i\",\"ts\":")
            .num(ts)
            .text(",\"pid\":")
            .num(pid)
            .text(",\"tid\":")
            .num(tid)
            .text(",\"s\":\"t\",\"args\":{")
    }

    /// Ends the name with a counter's fields and opens its `args`.
    fn counter(&mut self, ts: u64) -> &mut Self {
        self.text("\",\"ph\":\"C\",\"ts\":")
            .num(ts)
            .text(",\"pid\":")
            .num(PID_MC)
            .text(",\"tid\":0,\"args\":{")
    }

    /// Ends the name with a metadata record's fields and opens its `args`.
    fn metadata(&mut self, pid: u64, tid: Option<u64>) -> &mut Self {
        self.text("\",\"ph\":\"M\",\"pid\":").num(pid);
        if let Some(tid) = tid {
            self.text(",\"tid\":").num(tid);
        }
        self.text(",\"args\":{")
    }

    /// Starts one `args` field, comma-separated from the previous one.
    #[inline(always)]
    fn key(&mut self, key: &str) -> &mut Self {
        if self.buf.as_bytes().last() == Some(&b'{') {
            self.text("\"")
        } else {
            self.text(",\"")
        }
        .text(key)
        .text("\":")
    }

    fn str_arg(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key).text("\"").text(value).text("\"")
    }

    fn tag_arg(&mut self, key: &str, tag: EpochTag) -> &mut Self {
        self.key(key).text("\"").tag(tag).text("\"")
    }

    fn num_arg(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key).num(value)
    }

    /// Closes `args` and the object, ending the line.
    fn close(&mut self) -> io::Result<()> {
        self.text("}}");
        (self.spill)(&mut self.buf)
    }

    /// Appends `text`; always inlined, so a literal's length is known
    /// where it is copied.
    #[inline(always)]
    fn text(&mut self, text: &str) -> &mut Self {
        self.buf.push_str(text);
        self
    }

    /// `n` in decimal, as `Display` writes it.
    fn num(&mut self, mut n: u64) -> &mut Self {
        // Two digits at a time from the right, written from the left.
        let mut pairs = [0u8; 10];
        let mut len = 0;
        while n >= 100 {
            pairs[len] = (n % 100) as u8;
            n /= 100;
            len += 1;
        }
        let lead = n as usize * 2;
        if n < 10 {
            self.text(&DIGIT_PAIRS[lead + 1..lead + 2]);
        } else {
            self.text(&DIGIT_PAIRS[lead..lead + 2]);
        }
        for &pair in pairs[..len].iter().rev() {
            let at = usize::from(pair) * 2;
            self.text(&DIGIT_PAIRS[at..at + 2]);
        }
        self
    }

    /// `tag` as its `Display` writes it (`C3:E7`).
    fn tag(&mut self, tag: EpochTag) -> &mut Self {
        self.text("C")
            .num(u64::from(tag.core.as_u32()))
            .text(":E")
            .num(tag.epoch.as_u64())
    }

    /// `node` as its `Display` writes it (`C3`, `B2`, `MC1`).
    fn node(&mut self, node: NodeId) -> &mut Self {
        let (prefix, id) = match node {
            NodeId::Core(c) => ("C", c.as_u32()),
            NodeId::Bank(b) => ("B", b.as_u32()),
            NodeId::Mc(m) => ("MC", m.as_u32()),
        };
        self.text(prefix).num(u64::from(id))
    }

    /// A `process_name` record, then a `thread_name` record per tid (in
    /// tid order); nothing for a track without threads.
    fn track(&mut self, pid: u64, name: &str, threads: &[(u64, String)]) -> io::Result<()> {
        if threads.is_empty() {
            return Ok(());
        }
        self.open()
            .text("process_name")
            .metadata(pid, None)
            .str_arg("name", name)
            .close()?;
        for (tid, tname) in threads {
            self.open()
                .text("thread_name")
                .metadata(pid, Some(*tid))
                .str_arg("name", tname)
                .close()?;
        }
        Ok(())
    }

    fn event(&mut self, ev: &TraceEvent) -> io::Result<()> {
        let ts = ev.cycle.as_u64();
        let core = |tag: EpochTag| u64::from(tag.core.as_u32());
        match ev.kind {
            TraceEventKind::FlushRequested { tag, reason } => self
                .open()
                .text("FlushRequested ")
                .tag(tag)
                .instant(ts, PID_EVENTS, core(tag))
                .str_arg("reason", reason.name()),
            TraceEventKind::BankFlushStart {
                tag, bank, lines, ..
            } => self
                .open()
                .text("FlushStart ")
                .tag(tag)
                .instant(ts, PID_BANKS, u64::from(bank.as_u32()))
                .tag_arg("epoch", tag)
                .num_arg("lines", u64::from(lines)),
            TraceEventKind::FlushEpoch { tag, reason } => self
                .open()
                .text("FlushEpoch ")
                .tag(tag)
                .instant(ts, PID_EVENTS, core(tag))
                .str_arg("reason", reason.name()),
            TraceEventKind::BankAck { tag, bank } => self
                .open()
                .text("BankAck ")
                .tag(tag)
                .instant(ts, PID_BANKS, u64::from(bank.as_u32()))
                .tag_arg("epoch", tag),
            TraceEventKind::PersistCmp { tag } => self
                .open()
                .text("PersistCMP ")
                .tag(tag)
                .instant(ts, PID_EVENTS, core(tag))
                .tag_arg("epoch", tag),
            TraceEventKind::IdtRecord { source, dependent }
            | TraceEventKind::IdtOverflow { source, dependent }
            | TraceEventKind::ConflictInter { source, dependent } => {
                let name = match ev.kind {
                    TraceEventKind::IdtRecord { .. } => "IDT record",
                    TraceEventKind::IdtOverflow { .. } => "IDT overflow",
                    _ => "inter-thread conflict",
                };
                self.open()
                    .text(name)
                    .instant(ts, PID_EVENTS, core(dependent))
                    .tag_arg("source", source)
                    .tag_arg("dependent", dependent)
            }
            TraceEventKind::DeadlockSplit { core, epoch }
            | TraceEventKind::ConflictIntra { core, epoch } => {
                let name = match ev.kind {
                    TraceEventKind::DeadlockSplit { .. } => "deadlock split",
                    _ => "intra-thread conflict",
                };
                self.open()
                    .text(name)
                    .instant(ts, PID_EVENTS, u64::from(core.as_u32()))
                    .tag_arg("epoch", EpochTag::new(core, epoch))
            }
            TraceEventKind::StallEnd { core, kind, waited } => self
                .open()
                .text("stall: ")
                .text(kind.name())
                .span(
                    ts.saturating_sub(waited.as_u64()),
                    waited.as_u64(),
                    PID_STALLS,
                    u64::from(core.as_u32()),
                )
                .str_arg("kind", kind.name()),
            TraceEventKind::NocSend {
                src,
                dst,
                class,
                arrival,
            } => self
                .open()
                .node(src)
                .text("->")
                .node(dst)
                .instant(ts, PID_NOC, class.vnet() as u64)
                .str_arg("class", class.name())
                .num_arg("arrival", arrival.as_u64()),
            // The pre-scan indexes no record for these.
            TraceEventKind::EpochPhase { .. }
            | TraceEventKind::PersistWrite { .. }
            | TraceEventKind::StallBegin { .. } => return Ok(()),
        };
        self.close()
    }
}

/// Writes the whole document through `w`: the track metadata, then one
/// line per record of the index.
fn render<F: FnMut(&mut String) -> io::Result<()>>(
    w: &mut Writer<F>,
    events: &[TraceEvent],
    samples: &[MetricSample],
) -> io::Result<()> {
    let layout = Layout::scan(events, samples);
    w.buf.push_str("{\"traceEvents\":[\n");

    // Track naming metadata, ahead of the content.
    let cores = |ids: &Ids| ids.threads(|c| format!("C{c}"));
    let persist: Vec<_> = (0u64..)
        .zip(&layout.lanes)
        .flat_map(|(c, lanes)| {
            (0..lanes.len() as u64).map(move |l| (c * LANE_STRIDE + l, format!("C{c} lane{l}")))
        })
        .collect();
    let banks = layout.bank_tids.threads(|b| format!("B{b}"));
    let vnets: Vec<_> = (0u64..)
        .zip(layout.noc_vnets)
        .filter_map(|(tid, vnet)| Some((tid, format!("vnet {}", vnet?))))
        .collect();
    let counters = if samples.is_empty() {
        Vec::new()
    } else {
        vec![(0, "counters".to_string())]
    };
    w.track(PID_EXEC, "cores: execution", &cores(&layout.exec_cores))?;
    w.track(PID_PERSIST, "cores: persist pipeline", &persist)?;
    w.track(PID_STALLS, "cores: stalls", &cores(&layout.stall_cores))?;
    w.track(PID_EVENTS, "cores: events", &cores(&layout.event_cores))?;
    w.track(PID_BANKS, "llc banks", &banks)?;
    w.track(PID_NOC, "noc", &vnets)?;
    w.track(PID_MC, "memory controllers", &counters)?;

    // The content, one line per record, rendered from its source.
    for record in &layout.records {
        let (ts, i) = (record.ts, record.index as usize);
        match record.kind {
            Kind::Exec => {
                let (tag, life) = &layout.lives[i];
                let end = life
                    .completed_at
                    .or(life.flushing_at)
                    .or(life.persisted_at)
                    .unwrap_or(layout.last_cycle);
                w.open()
                    .text("E")
                    .num(tag.epoch.as_u64())
                    .span(
                        ts,
                        end.saturating_sub(ts),
                        PID_EXEC,
                        u64::from(tag.core.as_u32()),
                    )
                    .tag_arg("epoch", *tag)
                    .close()?;
            }
            Kind::Persist => {
                let (tag, life) = &layout.lives[i];
                let end = life.persisted_at.unwrap_or(layout.last_cycle);
                w.open()
                    .text("E")
                    .num(tag.epoch.as_u64())
                    .text(" flush")
                    .span(
                        ts,
                        end.saturating_sub(ts),
                        PID_PERSIST,
                        u64::from(tag.core.as_u32()) * LANE_STRIDE + life.lane,
                    )
                    .tag_arg("epoch", *tag)
                    .str_arg("reason", life.reason.unwrap_or("unknown"))
                    .close()?;
            }
            Kind::Event => w.event(&events[i])?,
            Kind::Counter => {
                let (sample, counter) = (&samples[i / COUNTERS.len()], i % COUNTERS.len());
                let value = match counter {
                    0 => sample.mc_queue_depth,
                    1 => u64::from(sample.stalled_cores),
                    _ => sample.nvram_writes,
                };
                w.open()
                    .text(COUNTERS[counter])
                    .counter(ts)
                    .num_arg("value", value)
                    .close()?;
            }
        }
    }
    w.buf.push_str("\n]}\n");
    Ok(())
}

/// Streams the event stream plus metric samples to `out` as one Chrome
/// trace-event JSON document (see the [module docs](self)), in writes of
/// about 64 KiB, so `out` needs no buffer of its own. Deterministic:
/// identical inputs yield identical bytes.
///
/// # Errors
///
/// Returns the first error `out` reports; the document is then truncated.
pub fn write_chrome_trace(
    mut out: impl Write,
    events: &[TraceEvent],
    samples: &[MetricSample],
) -> io::Result<()> {
    let mut w = Writer {
        // Room for the line that carries the buffer past `CHUNK`.
        buf: String::with_capacity(CHUNK + CHUNK / 4),
        first: true,
        spill: |buf: &mut String| {
            if buf.len() >= CHUNK {
                out.write_all(buf.as_bytes())?;
                buf.clear();
            }
            Ok(())
        },
    };
    render(&mut w, events, samples)?;
    let rest = w.buf;
    out.write_all(rest.as_bytes())?;
    out.flush()
}

/// Exports the event stream plus metric samples as one Chrome trace-event
/// JSON document in memory; the bytes [`write_chrome_trace`] streams.
pub fn export_chrome_trace(events: &[TraceEvent], samples: &[MetricSample]) -> String {
    let mut w = Writer {
        buf: String::new(),
        first: true,
        spill: |_: &mut String| Ok(()),
    };
    render(&mut w, events, samples).expect("an in-memory export cannot fail");
    w.buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, JsonValue};
    use pbm_types::{
        BankId, CoreId, Cycle, EpochId, EpochPhase, EpochTag, FlushReason, McId, StallKind,
    };
    use proptest::prelude::*;

    fn lifecycle(core: u32, epoch: u64, t0: u64) -> Vec<TraceEvent> {
        let tag = EpochTag::new(CoreId::new(core), EpochId::new(epoch));
        vec![
            TraceEvent::new(
                Cycle::new(t0),
                TraceEventKind::EpochPhase {
                    tag,
                    phase: EpochPhase::Ongoing,
                },
            ),
            TraceEvent::new(
                Cycle::new(t0 + 10),
                TraceEventKind::EpochPhase {
                    tag,
                    phase: EpochPhase::Completed,
                },
            ),
            TraceEvent::new(
                Cycle::new(t0 + 11),
                TraceEventKind::FlushEpoch {
                    tag,
                    reason: FlushReason::Barrier,
                },
            ),
            TraceEvent::new(
                Cycle::new(t0 + 11),
                TraceEventKind::EpochPhase {
                    tag,
                    phase: EpochPhase::Flushing,
                },
            ),
            TraceEvent::new(
                Cycle::new(t0 + 30),
                TraceEventKind::BankAck {
                    tag,
                    bank: BankId::new(0),
                },
            ),
            TraceEvent::new(
                Cycle::new(t0 + 40),
                TraceEventKind::EpochPhase {
                    tag,
                    phase: EpochPhase::Persisted,
                },
            ),
            TraceEvent::new(Cycle::new(t0 + 40), TraceEventKind::PersistCmp { tag }),
        ]
    }

    fn parsed_events(text: &str) -> Vec<JsonValue> {
        let doc = json::parse(text).unwrap();
        doc.get("traceEvents").unwrap().as_array().unwrap().to_vec()
    }

    #[test]
    fn exports_valid_json_with_spans_and_instants() {
        let mut events = lifecycle(0, 1, 100);
        events.extend(lifecycle(1, 1, 120));
        let text = export_chrome_trace(&events, &[]);
        let items = parsed_events(&text);

        let exec_spans: Vec<_> = items
            .iter()
            .filter(|e| {
                e.get("ph").and_then(JsonValue::as_str) == Some("X")
                    && e.get("pid").and_then(JsonValue::as_u64) == Some(PID_EXEC)
            })
            .collect();
        assert_eq!(exec_spans.len(), 2, "one ongoing span per core");
        let tids: Vec<_> = exec_spans
            .iter()
            .map(|e| e.get("tid").unwrap().as_u64().unwrap())
            .collect();
        assert!(tids.contains(&0) && tids.contains(&1), "per-core tracks");

        let flush_spans: Vec<_> = items
            .iter()
            .filter(|e| e.get("pid").and_then(JsonValue::as_u64) == Some(PID_PERSIST))
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        assert_eq!(flush_spans.len(), 2);
        for span in &flush_spans {
            assert_eq!(
                span.get("args").unwrap().get("reason").unwrap().as_str(),
                Some("barrier")
            );
            assert_eq!(span.get("dur").unwrap().as_u64(), Some(30));
        }

        let instants: Vec<_> = items
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("i"))
            .collect();
        let names: Vec<_> = instants
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(names.iter().any(|n| n.starts_with("FlushEpoch")));
        assert!(names.iter().any(|n| n.starts_with("PersistCMP")));
        assert!(names.iter().any(|n| n.starts_with("BankAck")));
    }

    #[test]
    fn overlapping_flushes_get_distinct_lanes() {
        let tag1 = EpochTag::new(CoreId::new(0), EpochId::new(1));
        let tag2 = EpochTag::new(CoreId::new(0), EpochId::new(2));
        let mut events = Vec::new();
        for (tag, close, persist) in [(tag1, 10u64, 100u64), (tag2, 20, 90)] {
            events.push(TraceEvent::new(
                Cycle::new(close),
                TraceEventKind::EpochPhase {
                    tag,
                    phase: EpochPhase::Completed,
                },
            ));
            events.push(TraceEvent::new(
                Cycle::new(persist),
                TraceEventKind::EpochPhase {
                    tag,
                    phase: EpochPhase::Persisted,
                },
            ));
        }
        let text = export_chrome_trace(&events, &[]);
        let items = parsed_events(&text);
        let tids: Vec<u64> = items
            .iter()
            .filter(|e| e.get("pid").and_then(JsonValue::as_u64) == Some(PID_PERSIST))
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .map(|e| e.get("tid").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(tids.len(), 2);
        assert_ne!(tids[0], tids[1], "overlapping spans must not share a track");
    }

    #[test]
    fn stall_spans_and_counters() {
        let tag = EpochTag::new(CoreId::new(3), EpochId::new(0));
        let events = vec![
            TraceEvent::new(
                Cycle::new(50),
                TraceEventKind::StallBegin {
                    core: CoreId::new(3),
                    kind: StallKind::Barrier,
                    tag,
                },
            ),
            TraceEvent::new(
                Cycle::new(80),
                TraceEventKind::StallEnd {
                    core: CoreId::new(3),
                    kind: StallKind::Barrier,
                    waited: Cycle::new(30),
                },
            ),
        ];
        let samples = vec![MetricSample {
            cycle: Cycle::new(64),
            mc_queue_depth: 5,
            stalled_cores: 1,
            ..MetricSample::default()
        }];
        let text = export_chrome_trace(&events, &samples);
        let items = parsed_events(&text);
        let stall = items
            .iter()
            .find(|e| {
                e.get("pid").and_then(JsonValue::as_u64) == Some(PID_STALLS)
                    && e.get("ph").and_then(JsonValue::as_str) == Some("X")
            })
            .unwrap();
        assert_eq!(stall.get("ts").unwrap().as_u64(), Some(50));
        assert_eq!(stall.get("dur").unwrap().as_u64(), Some(30));
        let counters: Vec<_> = items
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 3);
    }

    #[test]
    fn deterministic_bytes() {
        let mut events = lifecycle(0, 1, 0);
        events.extend(lifecycle(1, 1, 5));
        let a = export_chrome_trace(&events, &[]);
        let b = export_chrome_trace(&events, &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn records_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 16);
    }

    #[test]
    fn ids_render_as_their_display() {
        let mut w = Writer {
            buf: String::new(),
            first: true,
            spill: |_: &mut String| Ok(()),
        };
        for node in [
            NodeId::Core(CoreId::new(0)),
            NodeId::Bank(BankId::new(17)),
            NodeId::Mc(McId::new(3)),
        ] {
            w.buf.clear();
            w.node(node);
            assert_eq!(w.buf, node.to_string());
        }
        let tag = EpochTag::new(CoreId::new(31), EpochId::new(1_234_567));
        w.buf.clear();
        w.tag(tag);
        assert_eq!(w.buf, tag.to_string());
        // Every digit count, at both ends.
        let mut numbers = vec![0, u64::MAX];
        for power in (0..20).map(|e| 10u64.pow(e)) {
            numbers.extend([power - 1, power, power + 1, power + power / 2]);
        }
        for n in numbers {
            w.buf.clear();
            w.num(n);
            assert_eq!(w.buf, n.to_string());
        }
    }

    #[test]
    fn noc_threads_are_numbered_by_class() {
        let send = |cycle, class| {
            TraceEvent::new(
                Cycle::new(cycle),
                TraceEventKind::NocSend {
                    src: NodeId::Bank(BankId::new(1)),
                    dst: NodeId::Mc(McId::new(0)),
                    class,
                    arrival: Cycle::new(cycle + 9),
                },
            )
        };
        let events = [
            send(5, MessageClass::Writeback),
            send(6, MessageClass::Control),
        ];
        let items = parsed_events(&export_chrome_trace(&events, &[]));
        let noc = |ph: &str| -> Vec<(u64, String)> {
            items
                .iter()
                .filter(|e| e.get("pid").and_then(JsonValue::as_u64) == Some(PID_NOC))
                .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some(ph))
                .filter_map(|e| {
                    let tid = e.get("tid")?.as_u64()?;
                    let args = e.get("args")?;
                    let name = args.get("name").or(args.get("class"))?.as_str()?;
                    Some((tid, name.to_string()))
                })
                .collect()
        };
        assert_eq!(
            noc("M"),
            [
                (0, "vnet control".to_string()),
                (2, "vnet writeback".to_string())
            ]
        );
        assert_eq!(
            noc("i"),
            [(2, "writeback".to_string()), (0, "control".to_string())]
        );
    }

    #[test]
    fn radix_sort_is_stable_by_ts_then_kind() {
        let kinds = [Kind::Counter, Kind::Event, Kind::Persist, Kind::Exec];
        let mut records: Vec<_> = (0..4000usize)
            .map(|i| {
                let ts = (i as u64 * 7919 % 61) << (i % 3 * 31);
                Record::new(ts, kinds[i % 4], i)
            })
            .collect();
        let mut want = records.clone();
        want.sort_by_key(|r| (r.ts, r.kind as u8));
        radix_sort(&mut records);
        let order = |v: &[Record]| v.iter().map(|r| (r.ts, r.index)).collect::<Vec<_>>();
        assert_eq!(order(&records), order(&want));
        radix_sort(&mut Vec::new());
    }

    /// Accepts `budget` bytes, then fails every write.
    struct FailsAfter(usize);

    impl Write for FailsAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.len() > self.0 {
                return Err(io::Error::other("device full"));
            }
            self.0 -= buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failing_writer_returns_its_error() {
        let mut events = lifecycle(0, 1, 100);
        events.extend(lifecycle(1, 1, 120));
        let full = export_chrome_trace(&events, &[]).len();
        for budget in 0..full {
            let err = write_chrome_trace(FailsAfter(budget), &events, &[])
                .expect_err("the writer fails before the document ends");
            assert_eq!(err.to_string(), "device full", "budget {budget}");
        }
        write_chrome_trace(FailsAfter(full), &events, &[]).expect("exactly enough room");
    }

    #[test]
    fn a_document_of_many_chunks_streams_the_reference_bytes() {
        let (events, samples) = stream_of(&mut Rng(7), 1 << 32, 6000, 40);
        let full = assert_matches_reference(&events, &samples);
        assert!(full > 4 * CHUNK, "{full} bytes");
        for budget in [
            0,
            CHUNK - 1,
            CHUNK,
            CHUNK + 1,
            3 * CHUNK,
            full / 2,
            full - 1,
        ] {
            let err = write_chrome_trace(FailsAfter(budget), &events, &samples)
                .expect_err("the writer fails before the document ends");
            assert_eq!(err.to_string(), "device full", "budget {budget}");
        }
        write_chrome_trace(FailsAfter(full), &events, &samples).expect("exactly enough room");
    }

    /// Checks that both exporters write the reference exporter's bytes,
    /// and returns their length.
    fn assert_matches_reference(events: &[TraceEvent], samples: &[MetricSample]) -> usize {
        let mut want = Vec::new();
        reference::write_chrome_trace(&mut want, events, samples).expect("write to a Vec");
        let mut streamed = Vec::new();
        write_chrome_trace(&mut streamed, events, samples).expect("write to a Vec");
        let exported = export_chrome_trace(events, samples);
        for (name, got) in [
            ("streamed", &streamed[..]),
            ("exported", exported.as_bytes()),
        ] {
            if got != want {
                let at = (0..)
                    .zip(got.iter().zip(&want))
                    .find_map(|(i, (a, b))| (a != b).then_some(i))
                    .unwrap_or(got.len().min(want.len()));
                let around = |bytes: &[u8]| {
                    let from = at.saturating_sub(80);
                    String::from_utf8_lossy(&bytes[from..(at + 80).min(bytes.len())]).into_owned()
                };
                panic!(
                    "{name} document differs from the reference at byte {at}:\n{}\nwant:\n{}",
                    around(got),
                    around(&want)
                );
            }
        }
        want.len()
    }

    /// SplitMix64, for the random streams.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len() as u64) as usize]
        }
    }

    /// Loop-clock origins: zero, small, either side of 2^32, and high
    /// enough that `ts << 2` needs more than 64 bits.
    const BASES: [u64; 5] = [0, 1_000, (1 << 32) - 7, (1 << 40) + 3, 1 << 63];

    /// A random stream: up to 150 events (none in about one stream of
    /// ten) and up to 7 samples (none in about one of four).
    fn stream(seed: u64) -> (Vec<TraceEvent>, Vec<MetricSample>) {
        let mut rng = Rng(seed);
        let base = rng.pick(&BASES);
        let events = if rng.below(10) == 0 {
            0
        } else {
            1 + rng.below(150)
        };
        let samples = if rng.below(4) == 0 {
            0
        } else {
            1 + rng.below(7)
        };
        stream_of(&mut rng, base, events as usize, samples as usize)
    }

    /// `n` events around a loop clock that starts at `base` and moves on a
    /// cycle after about every third event. One event in five is stamped
    /// up to 20 cycles ahead of the clock, as the flush cascade stamps its
    /// steps. Small id ranges make epochs, banks and equal cycles recur.
    /// The `m` samples fall at sorted cycles from `base` to 30 past the
    /// clock's end.
    fn stream_of(
        rng: &mut Rng,
        base: u64,
        n: usize,
        m: usize,
    ) -> (Vec<TraceEvent>, Vec<MetricSample>) {
        let mut clock = base;
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            clock += u64::from(rng.below(3) == 0);
            let cycle = if rng.below(5) == 0 {
                clock + 1 + rng.below(20)
            } else {
                clock
            };
            events.push(TraceEvent::new(Cycle::new(cycle), random_kind(rng, cycle)));
        }
        let mut cycles: Vec<u64> = (0..m)
            .map(|_| base + rng.below(clock - base + 31))
            .collect();
        cycles.sort_unstable();
        let samples = cycles
            .into_iter()
            .map(|cycle| MetricSample {
                cycle: Cycle::new(cycle),
                mc_queue_depth: rng.below(100),
                stalled_cores: rng.below(5) as u32,
                nvram_writes: rng.next() >> rng.below(64),
                ..MetricSample::default()
            })
            .collect();
        (events, samples)
    }

    /// An event of a random kind at `cycle`, with small ids. A third of the
    /// stall ends waited longer than `cycle`.
    fn random_kind(rng: &mut Rng, cycle: u64) -> TraceEventKind {
        let core = CoreId::new(rng.below(4) as u32);
        let epoch = EpochId::new(rng.below(6));
        let tag = EpochTag::new(core, epoch);
        let other = EpochTag::new(CoreId::new(rng.below(4) as u32), EpochId::new(rng.below(6)));
        let bank = BankId::new(rng.below(4) as u32);
        let reason = rng.pick(&[
            FlushReason::Conflict,
            FlushReason::Eviction,
            FlushReason::Proactive,
            FlushReason::BackPressure,
            FlushReason::Barrier,
            FlushReason::Drain,
        ]);
        let kind = rng.pick(&[StallKind::OnlinePersist, StallKind::Barrier]);
        let later = |rng: &mut Rng| Cycle::new(cycle + rng.below(50));
        let node = |rng: &mut Rng| match rng.below(3) {
            0 => NodeId::Core(CoreId::new(rng.below(4) as u32)),
            1 => NodeId::Bank(BankId::new(rng.below(4) as u32)),
            _ => NodeId::Mc(McId::new(rng.below(2) as u32)),
        };
        match rng.below(18) {
            phase @ 0..=3 => TraceEventKind::EpochPhase {
                tag,
                phase: [
                    EpochPhase::Ongoing,
                    EpochPhase::Completed,
                    EpochPhase::Flushing,
                    EpochPhase::Persisted,
                ][phase as usize],
            },
            4 => TraceEventKind::FlushRequested { tag, reason },
            5 => TraceEventKind::FlushEpoch { tag, reason },
            6 => TraceEventKind::BankFlushStart {
                tag,
                bank,
                cmd_at: later(rng),
                wb_at: later(rng),
                log_at: later(rng),
                chk_at: later(rng),
                lines: rng.next() as u32 >> rng.below(32),
            },
            7 => TraceEventKind::PersistWrite {
                tag,
                bank,
                mc: McId::new(rng.below(2) as u32),
                mc_at: later(rng),
                begin: later(rng),
                durable: later(rng),
                ack_at: later(rng),
            },
            8 => TraceEventKind::BankAck { tag, bank },
            9 => TraceEventKind::PersistCmp { tag },
            10 => TraceEventKind::IdtRecord {
                source: other,
                dependent: tag,
            },
            11 => TraceEventKind::IdtOverflow {
                source: other,
                dependent: tag,
            },
            12 => TraceEventKind::DeadlockSplit { core, epoch },
            13 => TraceEventKind::ConflictIntra { core, epoch },
            14 => TraceEventKind::ConflictInter {
                source: other,
                dependent: tag,
            },
            15 => TraceEventKind::StallBegin { core, kind, tag },
            16 => TraceEventKind::StallEnd {
                core,
                kind,
                waited: Cycle::new(if rng.below(3) == 0 {
                    cycle + 1 + rng.below(10)
                } else {
                    rng.below(40)
                }),
            },
            _ => TraceEventKind::NocSend {
                src: node(rng),
                dst: node(rng),
                class: rng.pick(&[
                    MessageClass::Control,
                    MessageClass::Data,
                    MessageClass::Writeback,
                ]),
                arrival: later(rng),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_export_matches_the_reference(seed in any::<u64>()) {
            let (events, samples) = stream(seed);
            assert_matches_reference(&events, &samples);
        }
    }

    /// Position of `kind`'s variant in the declaration of
    /// [`TraceEventKind`].
    fn variant(kind: &TraceEventKind) -> usize {
        match kind {
            TraceEventKind::EpochPhase { .. } => 0,
            TraceEventKind::FlushRequested { .. } => 1,
            TraceEventKind::FlushEpoch { .. } => 2,
            TraceEventKind::BankFlushStart { .. } => 3,
            TraceEventKind::PersistWrite { .. } => 4,
            TraceEventKind::BankAck { .. } => 5,
            TraceEventKind::PersistCmp { .. } => 6,
            TraceEventKind::IdtRecord { .. } => 7,
            TraceEventKind::IdtOverflow { .. } => 8,
            TraceEventKind::DeadlockSplit { .. } => 9,
            TraceEventKind::ConflictIntra { .. } => 10,
            TraceEventKind::ConflictInter { .. } => 11,
            TraceEventKind::StallBegin { .. } => 12,
            TraceEventKind::StallEnd { .. } => 13,
            TraceEventKind::NocSend { .. } => 14,
        }
    }

    /// The random streams reach every case the exporter must order or
    /// clamp, and each such stream matches the reference.
    #[test]
    fn the_random_streams_cover_every_case() {
        let mut kinds = [false; 15];
        let mut cases = BTreeMap::new();
        for seed in 0..256 {
            let (events, samples) = stream(seed);
            assert_matches_reference(&events, &samples);
            let layout = Layout::scan(&events, &samples);
            let last = events.iter().map(|e| e.cycle).max();
            let mut seen =
                |case: &'static str, hit: bool| *cases.entry(case).or_insert(false) |= hit;
            for ev in &events {
                kinds[variant(&ev.kind)] = true;
            }
            seen(
                "ties across all four record kinds",
                layout.records.chunk_by(|a, b| a.ts == b.ts).any(|tie| {
                    [Kind::Exec, Kind::Persist, Kind::Event, Kind::Counter]
                        .iter()
                        .all(|&k| tie.iter().any(|r| r.kind == k))
                }),
            );
            seen(
                "an event stamped ahead of the loop clock",
                events.windows(2).any(|w| w[0].cycle > w[1].cycle),
            );
            seen(
                "a stall longer than its end cycle",
                events.iter().any(|e| {
                    matches!(e.kind, TraceEventKind::StallEnd { waited, .. } if waited > e.cycle)
                }),
            );
            seen(
                "samples after the last event",
                samples.last().map(|s| s.cycle) > last && last.is_some(),
            );
            seen(
                "an epoch that never persists",
                layout.lives.iter().any(|(_, life)| {
                    life.persisted_at.is_none() && life.completed_at.or(life.flushing_at).is_some()
                }),
            );
            seen(
                "a ts above 2^32",
                last.is_some_and(|c| c.as_u64() > 1 << 32),
            );
            seen("an empty input", events.is_empty() && samples.is_empty());
        }
        assert!(kinds.iter().all(|&k| k), "event kinds seen: {kinds:?}");
        let missed: Vec<_> = cases.iter().filter(|(_, &hit)| !hit).collect();
        assert!(missed.is_empty(), "never generated: {missed:?}");
    }

    #[test]
    fn empty_trace_is_valid() {
        let text = export_chrome_trace(&[], &[]);
        assert!(json::parse(&text).is_ok());
    }
}
